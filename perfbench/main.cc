// End-to-end benchmark driver of the ogdp library.
//
//   perfbench --workload study|recrawl|search --seed N [--seconds S]
//             [--trace 0|1] [--out DIR]
//   perfbench --self-test [--seed N]
//
// Runs one workload with fixed work (`--seconds` is accepted for the
// benchmark harness; the work per run does not depend on it), checks its
// outputs, and prints as the last line one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding the end-to-end metrics (`--trace 0`) or the per-layer metrics
// of the traced run (`--trace 1`, which also writes the span JSON under
// DIR/traces). The line before it holds the workload's own phase
// timings as {"detail": {...}}.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <utility>
#include <vector>

#include "common.h"
#include "trace.h"
#include "workloads.h"

namespace {

using namespace perfbench;

struct Metric {
  const char* name;
  const char* unit;
};

// The median operation time and peak RSS are reported in the detail line
// only: their spread over seeds came too close to any usable bound (see
// README.md, Steadiness).
const Metric kEndToEnd[] = {
    {"setup_s", "s"},
    {"scratch_s", "s"},
    {"job_s", "s"},
};

const Metric kPerLayer[] = {
    {"corpus.generate_s", "s"},
    {"corpus.snapshot_chain_s", "s"},
    {"core.ingest_s", "s"},
    {"fetch.attempts", "count"},
    {"csv.bytes_ingested_mib", "MiB"},
    {"compress.size_report_s", "s"},
    {"profile.stats_s", "s"},
    {"fd.keys_s", "s"},
    {"fd.fds_s", "s"},
    {"fd.partition_declines", "count"},
    {"fd.partition_rebuilds", "count"},
    {"fd.governor_peak_mib", "MiB"},
    {"join.finder_build_s", "s"},
    {"join.find_pairs_s", "s"},
    {"join.report_s", "s"},
    {"join.label_s", "s"},
    {"join.pairs", "count"},
    {"union.report_s", "s"},
    {"union.near_pairs_s", "s"},
    {"core.incremental_s", "s"},
    {"cache.fd_reused", "count"},
    {"cache.fd_recomputed", "count"},
    {"cache.parse_reused", "count"},
    {"cache.hit_mib", "MiB"},
    {"cache.declines", "count"},
    {"join.pairs_carried", "count"},
    {"join.pairs_reverified", "count"},
    {"union.partitions_carried", "count"},
    {"union.partitions_patched", "count"},
    {"durable.open_s", "s"},
    {"durable.records_loaded", "count"},
    {"durable.store_mib", "MiB"},
    {"serve.build_s", "s"},
    {"serve.join_miss_us_p50", "us"},
    {"serve.union_miss_us_p50", "us"},
    {"serve.keyword_miss_us_p50", "us"},
    {"serve.hit_us_p50", "us"},
    {"serve.join_candidates", "count"},
    {"serve.cache_hits", "count"},
    {"serve.cache_misses", "count"},
    {"serve.brute_join_us_p50", "us"},
    {"serve.brute_keyword_us_p50", "us"},
};

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload study|recrawl|search --seed N "
               "[--seconds S] [--trace 0|1] [--out DIR]\n"
               "       perfbench --self-test [--seed N]\n");
  return 2;
}

std::string MetricsJson(const std::map<std::string, double>& values,
                        const Metric* metrics, size_t count) {
  std::string out = "{";
  char buf[256];
  for (size_t i = 0; i < count; ++i) {
    const auto it = values.find(metrics[i].name);
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name,
                  it == values.end() ? 0.0 : it->second, metrics[i].unit);
    out += buf;
  }
  return out + "}";
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  uint64_t seed = 1;
  bool traced = false, self_test = false, have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      seed = std::strtoull(argv[++i], nullptr, 10);
      have_seed = true;
    } else if (arg == "--seconds" && has_value) {
      ++i;  // fixed work per run; see the header comment
    } else if (arg == "--trace" && has_value) {
      traced = std::strcmp(argv[++i], "0") != 0;
    } else if (arg == "--out" && has_value) {
      SetOutputRoot(argv[++i]);
    } else if (arg == "--self-test") {
      self_test = true;
    } else {
      return Usage();
    }
  }
  PinEnvironment();
  if (self_test) return RunSelfTest(seed) == 0 ? 0 : 1;
  if (!have_seed) return Usage();

  Trace trace(traced);
  RunRecord record;
  try {
    if (workload == "study") {
      RunStudy(seed, trace, record);
    } else if (workload == "recrawl") {
      RunRecrawl(seed, trace, record);
    } else if (workload == "search") {
      RunSearch(seed, trace, record);
    } else {
      return Usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s workload aborted: %s\n",
                 workload.c_str(), e.what());
    return 1;
  }
  record.detail["peak_rss_mib"] = PeakRssMib();

  for (const std::string& why : record.check_failures) {
    std::printf("CHECK FAILED: %s\n", why.c_str());
  }
  if (traced) {
    const std::string path = OutputDir("traces") + "/" + workload + "-seed" +
                             std::to_string(seed) + "-" +
                             std::to_string(getpid()) + ".json";
    if (!trace.WriteJson(path, record.layers)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
      return 1;
    }
    std::printf("trace: %s (%zu spans)\n", path.c_str(),
                trace.spans().size());
  }
  std::string detail = "{\"detail\": {";
  for (const auto& [name, value] : record.detail) {
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": %.10g",
                  detail.size() > 12 ? ", " : "", name.c_str(), value);
    detail += buf;
  }
  std::printf("%s}}\n", detail.c_str());

  const std::string metrics =
      traced ? MetricsJson(record.layers, kPerLayer, std::size(kPerLayer))
             : MetricsJson(record.end_to_end, kEndToEnd, std::size(kEndToEnd));
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": %s}\n",
              record.check_failures.empty() ? "true" : "false",
              record.attempted, record.failed, metrics.c_str());
  return 0;
}
