// Shared plumbing of the end-to-end benchmark driver: pinned knobs,
// seeded inputs, timing, order statistics, and the run record every
// workload fills in.
#ifndef OGDP_PERFBENCH_COMMON_H_
#define OGDP_PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "corpus/portal_profile.h"
#include "corpus/snapshot.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Clock reading taken during static initialization of the driver, i.e.
/// at process start; `setup_s` is measured from here.
Clock::time_point ProcessStart();

/// Corpus scale of every workload (the benches' usual 0.25).
inline constexpr double kScale = 0.25;
/// Worker threads of the library's global pool (half of a 4-core box).
inline constexpr size_t kThreads = 2;

/// Sets every OGDP_* environment knob the library reads, so a run never
/// inherits one from the caller. Must run before the first library call.
void PinEnvironment();

/// The four built-in portal profiles (SG, CA, UK, US) with their own
/// calibrated generator seeds: every run starts from the same four
/// epoch-0 portals. The run seed varies what happens to them (churn, the
/// query stream, the join sample, the check samples), not the corpora:
/// FD-mining cost is heavy-tailed in the corpus, and re-seeding the
/// generator moved the study's analysis time between 9.1 s and 14.5 s
/// (seven seeds), far beyond any bound a regression check can use.
std::vector<ogdp::corpus::PortalProfile> Profiles();

/// ChurnForPortal(name) with its seed mixed with the run seed.
ogdp::corpus::ChurnProfile SeededChurn(const std::string& portal,
                                       uint64_t run_seed);

/// SplitMix64 step: a well-mixed 64-bit hash of `x`.
uint64_t Mix64(uint64_t x);

/// Order statistics over a copy of `values` (linear interpolation between
/// closest ranks); 0 for an empty input.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

/// Peak resident set size of this process so far, in MiB.
double PeakRssMib();

/// Total size of the regular files under `dir`, in bytes.
uint64_t DirectoryBytes(const std::string& dir);

/// Root of the driver's scratch output (durable-cache stores, trace
/// files); `--out` sets it, run.py points it into the build tree.
void SetOutputRoot(const std::string& root);
/// `<root>/<sub>`, created on demand.
std::string OutputDir(const std::string& sub);

inline constexpr double kMiB = 1024.0 * 1024.0;

/// What one run of one workload reports.
struct RunRecord {
  size_t attempted = 0;
  size_t failed = 0;
  /// Messages of failed output checks; the run is correct when empty.
  std::vector<std::string> check_failures;
  /// End-to-end metrics (untraced runs), by name.
  std::map<std::string, double> end_to_end;
  /// The workload's own phase timings under their descriptive names
  /// (analysis_s, warm_epoch_s, query_p99_us, ...), printed on the line
  /// before the result so the steadiness command can report them too.
  std::map<std::string, double> detail;
  /// Per-layer metrics (traced runs), by name.
  std::map<std::string, double> layers;

  void Fail(const std::string& why) { check_failures.push_back(why); }
};

}  // namespace perfbench

#endif  // OGDP_PERFBENCH_COMMON_H_
