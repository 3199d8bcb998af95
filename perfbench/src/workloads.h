// The four perfbench workloads. Each drives the library through its public
// API as one single-threaded CARDIRECT client, checks every output outside
// the timed spans, and prints its metrics.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::string input_path;  ///< The geometry-only XML written by `gen`.
  std::string work_dir;    ///< Scratch files (saved documents, span dump).
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
};

/// Runs one workload; returns the process exit code (0 only when every
/// check passed and every metric was measured).
int RunWorkload(const RunOptions& options);

/// Feeds deliberately wrong outputs to the workloads' checks and verifies
/// each is counted as a failure. Returns the process exit code.
int SelfTest(const RunOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
