// `recrawl`: re-analysis of each new crawl epoch from a durable cache.
// Set-up generates a seeded snapshot chain per portal (epoch 0 plus
// kChurnedEpochs churned epochs). The timed phase runs kColdRounds rounds
// of epoch 0 over the four portals, each portal on a fresh state over a
// fresh durable directory. In the last round each portal's chain goes on
// through RunIncrementalAnalysis from that state; then the state is
// dropped and a fresh state over the same directory re-runs the last
// epoch (the crash restart). LZ77 sizing is off, as in the library
// default.
//
// No durable directory is deleted before the timed phase ends: every
// round and portal gets its own, and the run removes them all at its end
// and syncs the removal before it exits. On a filesystem mounted with
// online discard, deleting ~15k files makes the next journal commit issue
// their discards, and file creation stalls behind that commit: creating
// 15k small files took 0.5 s with no deletion pending and 2.0-2.8 s right
// after deleting as many on the 4-core VM the bounds were set on.
#include <fcntl.h>
#include <unistd.h>

#include <exception>
#include <filesystem>
#include <memory>

#include "checks.h"
#include "core/analysis_suite.h"
#include "core/incremental.h"
#include "core/ingestion.h"
#include "core/storage_faults.h"
#include "corpus/generator.h"
#include "corpus/snapshot.h"
#include "fetch/fault_schedule.h"
#include "workloads.h"

namespace perfbench {

namespace {

using namespace ogdp;

constexpr size_t kChurnedEpochs = 4;
// Rounds of the cold epoch per run. cold_epoch_s sums over the portals
// each portal's median over the rounds: one cold epoch is ~12 s of the
// same work in every run, and single epochs read 10-15% apart on a
// shared 4-core VM; the median keeps a slow stretch of the machine to one
// round of one portal.
constexpr size_t kColdRounds = 3;

// fsync on a directory commits the filesystem journal that holds its
// entries, so the deletions under it are done before this returns.
void SyncDirectory(const std::string& dir) {
  const int fd = open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return;
  fsync(fd);
  close(fd);
}

core::PortalBundle ScratchBundle(const corpus::PortalSnapshot& snap,
                                 const core::IngestOptions& ingest) {
  core::PortalBundle bundle;
  bundle.name = snap.portal.name;
  bundle.portal = snap.portal;
  bundle.truth = snap.truth;
  bundle.ingest = core::IngestPortal(snap.portal, ingest);
  return bundle;
}

}  // namespace

void RunRecrawl(uint64_t seed, Trace& trace, RunRecord& record) {
  namespace fs = std::filesystem;
  std::vector<std::vector<corpus::PortalSnapshot>> chains;
  for (const auto& profile : Profiles()) {
    std::vector<corpus::PortalSnapshot> chain(1);
    {
      Trace::Span span(trace, "corpus.generate");
      corpus::CorpusGenerator generator(profile, kScale);
      corpus::GeneratedPortal generated = generator.Generate();
      chain[0].portal = std::move(generated.portal);
      chain[0].truth = std::move(generated.truth);
    }
    const corpus::ChurnProfile churn = SeededChurn(profile.name, seed);
    for (size_t e = 1; e <= kChurnedEpochs; ++e) {
      Trace::Span span(trace, "corpus.snapshot_chain");
      chain.push_back(corpus::AdvanceEpoch(chain.back(), churn, e));
    }
    chains.push_back(std::move(chain));
  }
  const double setup_s = SecondsSince(ProcessStart());

  core::IngestOptions ingest;
  ingest.faults = fetch::FaultProfile{};
  const core::AnalysisSuiteOptions suite;  // LZ77 off
  const std::string durable_root = OutputDir("durable");
  const std::string root =
      durable_root + "/recrawl-" + std::to_string(getpid());

  const size_t epochs = kChurnedEpochs + 1;
  // Operations: each cold round over all four portals, each later epoch
  // over all four portals, then the restart of all four.
  const size_t warm_op = kColdRounds - 1;  // op of epoch e is warm_op + e
  const size_t restart_op = warm_op + epochs;
  std::vector<double> op_s(restart_op + 1, 0.0);
  // cold_s[p][round]: epoch 0 of portal p in that round.
  std::vector<std::vector<double>> cold_s(chains.size());
  std::vector<bool> op_failed(op_s.size(), false);
  auto& L = record.layers;
  // Epoch 0 of round 0, per portal: every later round must reproduce it.
  std::vector<std::optional<core::PortalAnalysis>> first_cold(chains.size());
  for (size_t round = 0; round < kColdRounds; ++round) {
    const bool last_round = round + 1 == kColdRounds;
    for (size_t p = 0; p < chains.size(); ++p) {
      const auto& chain = chains[p];
      const std::string portal = chain[0].portal.name;
      const std::string dir =
          root + "/round" + std::to_string(round) + "/" + portal;
      const auto fail = [&](size_t op, const std::string& why) {
        if (why.empty()) return;
        record.Fail(portal + ": " + why);
        op_failed[op] = true;
      };

      std::optional<core::PortalAnalysis> last;
      Clock::time_point op_start = Clock::now();
      auto state = std::make_unique<core::IncrementalState>(
          0, dir, core::StorageFaultProfile{});
      for (size_t e = 0; e < (last_round ? epochs : 1); ++e) {
        const size_t op = e == 0 ? round : warm_op + e;
        if (e > 0) op_start = Clock::now();
        try {
          std::optional<core::IncrementalResult> result;
          {
            Trace::Span span(trace, "core.incremental");
            result.emplace(core::RunIncrementalAnalysis(*state, chain[e],
                                                        suite, ingest));
          }
          const double took = SecondsSince(op_start);
          op_s[op] += took;
          if (e == 0) cold_s[p].push_back(took);
          if (result->analysis.degraded) fail(op, "degraded stage");
          fail(op, CheckEpochAccounting(*result));
          if (e == 0 && round == 0) {
            first_cold[p] = result->analysis;
          } else if (e == 0) {
            fail(op, first_cold[p] ? CompareAnalyses(*first_cold[p],
                                                     result->analysis)
                                   : "no round-0 epoch 0 to compare");
          }
          if (!last_round) continue;
          const core::IncrementalStats& st = result->stats;
          const core::IngestStats& is = result->bundle.ingest.stats;
          L["fetch.attempts"] += static_cast<double>(is.fetch_attempts);
          L["csv.bytes_ingested_mib"] +=
              static_cast<double>(is.total_bytes) / kMiB;
          if (e > 0) {
            L["cache.fd_reused"] += static_cast<double>(st.fd_reused);
            L["cache.fd_recomputed"] +=
                static_cast<double>(st.fd_recomputed);
            L["cache.parse_reused"] += static_cast<double>(st.parse_reused);
            L["cache.hit_mib"] +=
                static_cast<double>(st.cache_hit_bytes) / kMiB;
            L["cache.declines"] += static_cast<double>(st.cache_declines);
            L["join.pairs_carried"] += static_cast<double>(st.pairs_carried);
            L["join.pairs_reverified"] +=
                static_cast<double>(st.pairs_recomputed);
            L["union.partitions_carried"] +=
                static_cast<double>(st.union_partitions_carried);
            L["union.partitions_patched"] +=
                static_cast<double>(st.union_partitions_patched);
          }
          if (e + 1 == epochs) last = std::move(result->analysis);
        } catch (const std::exception& ex) {
          const double took = SecondsSince(op_start);
          op_s[op] += took;
          if (e == 0) cold_s[p].push_back(took);
          fail(op, std::string("epoch threw: ") + ex.what());
        }
      }
      state.reset();  // the crawler dies; only the directory survives
      if (!last_round) continue;
      L["durable.store_mib"] +=
          static_cast<double>(DirectoryBytes(dir)) / kMiB;

      const Clock::time_point restart_start = Clock::now();
      try {
        std::optional<core::IncrementalState> fresh;
        {
          Trace::Span span(trace, "durable.open");
          fresh.emplace(0, dir, core::StorageFaultProfile{});
        }
        std::optional<core::IncrementalResult> again;
        {
          Trace::Span span(trace, "core.incremental");
          again.emplace(core::RunIncrementalAnalysis(*fresh, chain.back(),
                                                     suite, ingest));
        }
        op_s[restart_op] += SecondsSince(restart_start);
        const core::DurableStoreStats durable = fresh->cache.durable_stats();
        L["durable.records_loaded"] += static_cast<double>(durable.loaded);
        if (!last) {
          fail(restart_op, "no pre-restart result to compare");
        } else {
          fail(restart_op, CheckRestart(*last, again->analysis, again->stats,
                                        durable));
        }
      } catch (const std::exception& ex) {
        op_s[restart_op] += SecondsSince(restart_start);
        fail(restart_op, std::string("restart threw: ") + ex.what());
      }

      // The incremental result of the last epoch equals a from-scratch
      // analysis of the same snapshot.
      if (last) {
        const core::PortalBundle scratch =
            ScratchBundle(chain.back(), ingest);
        fail(warm_op + epochs - 1,
             CompareAnalyses(core::RunFullAnalysis(scratch, suite), *last));
      }
    }
  }
  std::error_code ec;
  fs::remove_all(root, ec);
  SyncDirectory(durable_root);

  record.attempted = op_s.size();
  for (bool f : op_failed) record.failed += f;

  double cold = 0;
  for (const std::vector<double>& rounds : cold_s) cold += Median(rounds);
  double warm = 0;
  for (size_t e = 1; e < epochs; ++e) warm += op_s[warm_op + e];
  double job = 0;
  for (double s : op_s) job += s;
  for (size_t round = 0; round < kColdRounds; ++round) {
    record.detail["cold_round" + std::to_string(round) + "_s"] = op_s[round];
  }
  record.detail["cold_epoch_s"] = cold;
  record.detail["warm_epoch_s"] = warm / static_cast<double>(epochs - 1);
  record.detail["restart_s"] = op_s[restart_op];
  record.end_to_end["setup_s"] = setup_s;
  record.end_to_end["scratch_s"] = cold;
  record.end_to_end["job_s"] = job;
  record.detail["op_p50_ms"] = Median(op_s) * 1e3;

  L["corpus.generate_s"] = trace.TotalSeconds("corpus.generate");
  L["corpus.snapshot_chain_s"] = trace.TotalSeconds("corpus.snapshot_chain");
  L["core.incremental_s"] = trace.TotalSeconds("core.incremental");
  L["durable.open_s"] = trace.TotalSeconds("durable.open");
}

}  // namespace perfbench
