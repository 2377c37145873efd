#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <filesystem>

#include "util/parallel.h"

namespace perfbench {

namespace {

const Clock::time_point g_process_start = Clock::now();
std::string g_output_root = ".bench_build/out";

}  // namespace

Clock::time_point ProcessStart() { return g_process_start; }

void PinEnvironment() {
  // Every knob the library consults. Budgets equal the library defaults
  // except the FD partition budget: its default admits leases in a
  // thread-scheduling-dependent order, which made FD time swing by 20%
  // between identical runs; unlimited keeps the miner's work fixed.
  const std::pair<const char*, const char*> knobs[] = {
      {"OGDP_THREADS", "2"},
      {"OGDP_FD_MEM_BUDGET", "unlimited"},
      {"OGDP_CACHE_BUDGET", "256m"},
      {"OGDP_CACHE_DIR", ""},          // durable dirs are passed explicitly
      {"OGDP_FETCH_FAULTS", ""},       // fault-free transport
      {"OGDP_STORAGE_FAULTS", ""},     // fault-free durable store
      {"OGDP_SERVE_SHARDS", "4"},
      {"OGDP_QUERY_BUDGET_MS", "0"},   // no wall-clock query budget
      {"OGDP_RESULT_CACHE_BUDGET", "64m"},
      {"OGDP_CLIENT_QUEUE_CAP", "1024"},
  };
  for (const auto& [name, value] : knobs) setenv(name, value, 1);
  ogdp::util::SetGlobalThreadCount(kThreads);
}

uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::vector<ogdp::corpus::PortalProfile> Profiles() {
  return ogdp::corpus::AllPortalProfiles();
}

ogdp::corpus::ChurnProfile SeededChurn(const std::string& portal,
                                       uint64_t run_seed) {
  ogdp::corpus::ChurnProfile churn = ogdp::corpus::ChurnForPortal(portal);
  churn.seed ^= Mix64(run_seed ^ 0xc4u);
  return churn;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(values.size() - 1, lo + 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double PeakRssMib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

uint64_t DirectoryBytes(const std::string& dir) {
  namespace fs = std::filesystem;
  uint64_t total = 0;
  std::error_code ec;
  for (fs::recursive_directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    if (it->is_regular_file(ec)) total += it->file_size(ec);
  }
  return total;
}

void SetOutputRoot(const std::string& root) { g_output_root = root; }

std::string OutputDir(const std::string& sub) {
  const std::filesystem::path dir =
      std::filesystem::path(g_output_root) / sub;
  std::filesystem::create_directories(dir);
  return dir.string();
}

}  // namespace perfbench
