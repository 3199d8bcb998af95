// perfbench — the CARDIRECT pipeline benchmark program.
//
//   perfbench gen --workload W --seed S --out FILE [--tiny]
//       writes the workload's geometry-only input document for seed S.
//   perfbench run --workload W --seed S --seconds T --trace 0|1
//                 --input FILE --work-dir DIR [--tiny]
//       runs the workload on that input and prints its metrics; the last
//       line is the JSON result.
//   perfbench selftest [--seed S]
//       feeds wrong outputs to the checks and verifies they fail.
//
// perfbench/run.py builds this program and chains gen and run.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "inputs.h"
#include "workloads.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench gen|run|selftest --workload W --seed S "
               "[--seconds T --trace 0|1 --input FILE --work-dir DIR --out FILE --tiny]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string mode = argv[1];
  perfbench::RunOptions options;
  std::string out;
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--tiny") {
      options.tiny = true;
      continue;
    }
    if (i + 1 >= argc) return Usage();
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return Usage();
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(options.seconds > 0.0)) return Usage();
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage();
      options.trace = value == "1";
    } else if (flag == "--input") {
      options.input_path = value;
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else if (flag == "--out") {
      out = value;
    } else {
      return Usage();
    }
  }

  if (mode == "selftest") return perfbench::SelfTest(options);

  perfbench::Shape shape;
  if (!perfbench::ShapeFor(options.workload, options.tiny, &shape)) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 options.workload.c_str());
    return 2;
  }
  if (mode == "gen") {
    if (out.empty()) return Usage();
    std::ofstream file(out, std::ios::binary);
    file << perfbench::GenerateInputXml(shape, options.seed);
    file.close();
    if (!file) {
      std::fprintf(stderr, "perfbench: cannot write '%s'\n", out.c_str());
      return 1;
    }
    return 0;
  }
  if (mode == "run") {
    if (options.input_path.empty() || options.work_dir.empty()) return Usage();
    return perfbench::RunWorkload(options);
  }
  return Usage();
}
