// Locks the cardir-analyzer contract: exact diagnostic ids and counts over
// the fixture corpus, suppression + baseline mechanics, path filtering, and
// — the regression that matters — zero findings over the real src/ tree.
//
// The test shells out to the built binary (paths injected by CMake), so it
// exercises the CLI exactly as CI and tools/lint.sh do.

#include <array>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "gtest/gtest.h"

namespace {

struct RunResult {
  int exit_code = -1;
  std::vector<std::string> findings;  // stdout lines.
};

RunResult RunAnalyzer(const std::string& args) {
  const std::string command =
      std::string(CARDIR_ANALYZER_BIN) + " " + args + " 2>/dev/null";
  RunResult result;
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) return result;
  std::string output;
  std::array<char, 4096> buffer;
  size_t read = 0;
  while ((read = fread(buffer.data(), 1, buffer.size(), pipe)) > 0) {
    output.append(buffer.data(), read);
  }
  const int status = pclose(pipe);
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  size_t start = 0;
  while (start < output.size()) {
    size_t end = output.find('\n', start);
    if (end == std::string::npos) end = output.size();
    if (end > start) result.findings.push_back(output.substr(start, end - start));
    start = end + 1;
  }
  return result;
}

// "path:line: error: [check-id] message" -> check-id ("" if unparsable).
std::string CheckIdOf(const std::string& line) {
  const size_t open = line.find('[');
  const size_t close = line.find(']', open);
  if (open == std::string::npos || close == std::string::npos) return "";
  return line.substr(open + 1, close - open - 1);
}

std::map<std::string, int> CountByCheck(const RunResult& result) {
  std::map<std::string, int> counts;
  for (const std::string& line : result.findings) ++counts[CheckIdOf(line)];
  return counts;
}

std::string Fixtures() { return CARDIR_ANALYZER_FIXTURES; }

TEST(AnalyzerFixtureTest, CorpusFindingsAreExact) {
  const RunResult result = RunAnalyzer("--src " + Fixtures());
  EXPECT_EQ(result.exit_code, 1);
  const std::map<std::string, int> counts = CountByCheck(result);
  const std::map<std::string, int> expected = {
      {"unchecked-result", 2},  {"scratch-escape", 4},
      {"float-eq", 2},          {"obs-macro-side-effect", 5},
      {"lock-across-compute", 2},
  };
  EXPECT_EQ(counts, expected);
  EXPECT_EQ(result.findings.size(), 15u);
  // Every finding must come from a *_bad fixture — the *_good twins (and
  // the annotated line in float_eq_good.cc) must stay silent.
  for (const std::string& line : result.findings) {
    EXPECT_NE(line.find("_bad.cc"), std::string::npos) << line;
  }
}

TEST(AnalyzerFixtureTest, GoodFixturesRunCleanInIsolation) {
  for (const char* fixture :
       {"unchecked_result_good.cc", "core/float_eq_good.cc",
        "scratch_escape_good.cc", "obs_macro_good.cc",
        "engine/lock_across_compute_good.cc",
        "engine/store_lock_across_compute_good.cc",
        "engine/sweep_scratch_escape_good.cc",
        "engine/delta_scratch_escape_good.cc"}) {
    const RunResult result = RunAnalyzer(Fixtures() + "/" + fixture);
    EXPECT_EQ(result.exit_code, 0) << fixture;
    EXPECT_TRUE(result.findings.empty()) << fixture;
  }
}

TEST(AnalyzerFixtureTest, PathFilterScopesFloatEqToGeometryDirs) {
  // Identical comparisons, one file under core/, one not: only the core/
  // file is reported by default, both with --no-path-filter.
  const std::string elsewhere = Fixtures() + "/float_eq_elsewhere.cc";
  EXPECT_EQ(RunAnalyzer(elsewhere).exit_code, 0);
  const RunResult unfiltered = RunAnalyzer("--no-path-filter " + elsewhere);
  EXPECT_EQ(unfiltered.exit_code, 1);
  EXPECT_EQ(CountByCheck(unfiltered)["float-eq"], 2);
}

TEST(AnalyzerFixtureTest, ChecksFlagRestrictsToNamedChecks) {
  const RunResult result =
      RunAnalyzer("--checks float-eq,lock-across-compute --src " + Fixtures());
  EXPECT_EQ(result.exit_code, 1);
  const std::map<std::string, int> counts = CountByCheck(result);
  const std::map<std::string, int> expected = {{"float-eq", 2},
                                               {"lock-across-compute", 2}};
  EXPECT_EQ(counts, expected);
  EXPECT_EQ(RunAnalyzer("--checks no-such-check --src " + Fixtures()).exit_code,
            2);
}

TEST(AnalyzerFixtureTest, BaselineRoundTripSilencesFindings) {
  const std::string baseline = testing::TempDir() + "/analyzer_baseline.txt";
  const RunResult write = RunAnalyzer("--src " + Fixtures() +
                                      " --write-baseline " + baseline);
  EXPECT_EQ(write.exit_code, 0);
  const RunResult replay =
      RunAnalyzer("--src " + Fixtures() + " --baseline " + baseline);
  EXPECT_EQ(replay.exit_code, 0);
  EXPECT_TRUE(replay.findings.empty());
  std::remove(baseline.c_str());
}

TEST(AnalyzerFixtureTest, ListChecksNamesAllFive) {
  const RunResult result = RunAnalyzer("--list-checks");
  EXPECT_EQ(result.exit_code, 0);
  std::string all;
  for (const std::string& line : result.findings) all += line + "\n";
  for (const char* check :
       {"unchecked-result", "scratch-escape", "float-eq",
        "obs-macro-side-effect", "lock-across-compute"}) {
    EXPECT_NE(all.find(check), std::string::npos) << check;
  }
}

// The adoption regression: src/ must stay analyzer-clean. Every historical
// finding was fixed or annotated in place, and the shipped baseline is
// empty — new findings therefore fail this test (and CI) immediately.
TEST(AnalyzerFixtureTest, SrcTreeIsClean) {
  const RunResult result = RunAnalyzer(std::string("--src ") +
                                       CARDIR_ANALYZER_SRC + " --baseline " +
                                       CARDIR_ANALYZER_BASELINE);
  EXPECT_EQ(result.exit_code, 0);
  for (const std::string& line : result.findings) {
    ADD_FAILURE() << "new analyzer finding: " << line;
  }
}

}  // namespace
