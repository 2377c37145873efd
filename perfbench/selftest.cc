// Check self-test: every output check of the benchmark is handed a real
// result, which it must accept, and the same result made wrong on
// purpose, which it must reject. A check that accepts the wrong result
// would pass vacuously in the workloads.
#include <cstdio>
#include <filesystem>
#include <string>
#include <unistd.h>

#include "checks.h"
#include "core/analysis.h"
#include "core/analysis_suite.h"
#include "core/incremental.h"
#include "core/ingestion.h"
#include "core/storage_faults.h"
#include "corpus/generator.h"
#include "corpus/snapshot.h"
#include "fd/bcnf.h"
#include "fd/candidate_keys.h"
#include "fd/fd_miner.h"
#include "fetch/fault_schedule.h"
#include "join/joinable_pair_finder.h"
#include "serve/brute_force.h"
#include "serve/query_engine.h"
#include "workloads.h"

namespace perfbench {

namespace {

using namespace ogdp;

// Small enough that the whole self-test takes seconds.
constexpr double kSelfTestScale = 0.05;

class Tally {
 public:
  // `good` is the check's verdict on the real result, `bad` on the
  // deliberately wrong one.
  void Expect(const char* check, const char* wrong_input,
              const std::string& good, const std::string& bad) {
    const bool ok = good.empty() && !bad.empty();
    std::printf("%-26s %-40s %s\n", check, wrong_input,
                ok ? "rejected" : "NOT REJECTED");
    if (!good.empty()) std::printf("  real result failed: %s\n", good.c_str());
    if (ok) std::printf("  -> %s\n", bad.c_str());
    missed_ += !ok;
  }
  int missed() const { return missed_; }

 private:
  int missed_ = 0;
};

// `table` without row `drop`, cell for cell.
table::Table WithoutRow(const table::Table& t, size_t drop) {
  std::vector<table::Column> columns;
  for (size_t c = 0; c < t.num_columns(); ++c) {
    const table::Column& src = t.column(c);
    table::Column col(src.name());
    for (size_t r = 0; r < t.num_rows(); ++r) {
      if (r == drop) continue;
      if (src.IsNull(r)) {
        col.AppendNull();
      } else {
        col.AppendCell(src.ValueAt(r));
      }
    }
    col.set_type(src.type());
    columns.push_back(std::move(col));
  }
  return table::Table(t.name(), std::move(columns));
}

}  // namespace

int RunSelfTest(uint64_t seed) {
  Tally tally;
  const corpus::PortalProfile profile = Profiles()[1];  // CA
  core::IngestOptions ingest;
  ingest.faults = fetch::FaultProfile{};
  core::PortalBundle bundle;
  {
    corpus::CorpusGenerator generator(profile, kSelfTestScale);
    corpus::GeneratedPortal generated = generator.Generate();
    bundle.name = profile.name;
    bundle.portal = std::move(generated.portal);
    bundle.truth = std::move(generated.truth);
    bundle.ingest = core::IngestPortal(bundle.portal, ingest);
  }
  const auto& tables = bundle.ingest.tables;
  core::AnalysisSuiteOptions study;
  study.compress = true;
  const core::PortalAnalysis analysis = core::RunFullAnalysis(bundle, study);

  {
    core::SizeReport bad = analysis.size;
    bad.compressed_bytes = bad.total_bytes;
    tally.Expect("lz77", "compressed size = total size",
                 CheckLz77(bundle.portal, analysis.size, seed, 8),
                 CheckLz77(bundle.portal, bad, seed, 8));
  }

  // FD, key and BCNF checks on the first FD-sample table with an FD.
  const auto sample = core::SelectFdSample(tables);
  for (size_t index : sample) {
    const table::Table& t = tables[index];
    auto fun = fd::MineFun(t);
    auto tane = fd::MineTane(t);
    if (!fun.ok() || !tane.ok() || fun->fds.empty()) continue;
    std::vector<fd::FunctionalDependency> bad = fun->fds;
    for (size_t c = 0; c < t.num_columns(); ++c) {
      if (c != bad[0].rhs && !((bad[0].lhs >> c) & 1u)) {
        bad[0].rhs = c;
        break;
      }
    }
    tally.Expect("fd (FUN = TANE, holds)", "one FD's RHS changed",
                 CheckFdAgreement(fun->fds, tane->fds) +
                     CheckFdsHold(t, fun->fds),
                 CheckFdAgreement(bad, tane->fds) + "; " +
                     CheckFdsHold(t, bad));

    const auto keys = fd::FindCandidateKeys(t, 3);
    const std::optional<size_t> wrong =
        keys->min_key_size ? std::optional<size_t>(*keys->min_key_size + 1)
                           : std::optional<size_t>(1);
    tally.Expect("minimum key size", "key size off by one",
                 CheckMinKeySize(t, keys->min_key_size),
                 CheckMinKeySize(t, wrong));

    fd::BcnfOptions options;
    options.seed = seed;
    const auto parts = fd::DecomposeToBcnf(t, options);
    fd::BcnfResult broken = *parts;
    broken.tables[0] = WithoutRow(broken.tables[0], 0);
    tally.Expect("bcnf lossless join", "a BCNF part with a row removed",
                 CheckBcnfLossless(t, *parts), CheckBcnfLossless(t, broken));
    break;
  }

  {
    const join::JoinFinderOptions options;
    const join::JoinablePairFinder finder(tables, options);
    const auto pairs = finder.FindAllPairs();
    if (pairs.empty()) {
      tally.Expect("joinable pairs", "one joinable pair dropped",
                   "no joinable pair in the self-test corpus", "");
    } else {
      const std::vector<join::ColumnRef> sampled = {pairs[0].a, pairs[0].b};
      std::vector<join::JoinablePair> dropped(pairs.begin() + 1, pairs.end());
      tally.Expect("joinable pairs", "one joinable pair dropped",
                   CheckJoinPairs(tables, sampled, pairs,
                                  options.jaccard_threshold,
                                  options.min_unique_values),
                   CheckJoinPairs(tables, sampled, dropped,
                                  options.jaccard_threshold,
                                  options.min_unique_values));
    }
  }

  tally.Expect("unionable tables", "unionable count off by one",
               CheckUnionableCount(tables, analysis.unions.unionable_tables),
               CheckUnionableCount(tables,
                                   analysis.unions.unionable_tables + 1));

  // Serving: a join query with a hit, answered at epoch 2.
  {
    serve::ServeOptions options;
    options.shards = 4;
    serve::QueryEngine engine(options, 1);
    engine.Refresh(tables);
    const auto snapshot = engine.Refresh(tables);
    serve::QueryBudget unlimited;
    unlimited.time_budget_ms = 0;
    for (uint32_t t = 0; t < tables.size(); ++t) {
      const serve::JoinQuery q{t, std::nullopt, 10};
      const serve::JoinResult served = engine.Joins(q, unlimited);
      if (served.hits.empty()) continue;
      const serve::JoinResult reference =
          serve::BruteForceJoins(*snapshot, q, unlimited);
      serve::JoinResult rescored = served;
      rescored.hits[0].score += 0.25;
      tally.Expect("served = brute force", "a served hit re-scored",
                   CompareServed(served, reference),
                   CompareServed(rescored, reference));
      serve::JoinResult wrong_jaccard = served;
      wrong_jaccard.hits[0].jaccard *= 0.999;
      tally.Expect("join hit jaccard", "a hit's Jaccard altered",
                   CheckJoinHitJaccards(tables, served,
                                        options.join.jaccard_threshold),
                   CheckJoinHitJaccards(tables, wrong_jaccard,
                                        options.join.jaccard_threshold));
      tally.Expect("answer epoch", "a stale-epoch answer",
                   CheckEpoch(served.epoch, snapshot->epoch),
                   CheckEpoch(snapshot->epoch - 1, snapshot->epoch));
      break;
    }
  }

  // Incremental + restart on a two-epoch chain over a durable directory.
  {
    namespace fs = std::filesystem;
    const std::string dir =
        OutputDir("durable") + "/selftest-" + std::to_string(getpid());
    std::error_code ec;
    fs::remove_all(dir, ec);
    const auto chain = corpus::GenerateSnapshotChain(
        profile, kSelfTestScale, 2, SeededChurn(profile.name, seed));
    const core::AnalysisSuiteOptions suite;
    std::optional<core::IncrementalResult> last;
    {
      core::IncrementalState state(0, dir, core::StorageFaultProfile{});
      for (const auto& snap : chain) {
        last.emplace(core::RunIncrementalAnalysis(state, snap, suite, ingest));
      }
    }
    core::IncrementalState fresh(0, dir, core::StorageFaultProfile{});
    const core::IncrementalResult again =
        core::RunIncrementalAnalysis(fresh, chain.back(), suite, ingest);
    const core::DurableStoreStats durable = fresh.cache.durable_stats();
    core::IncrementalStats recomputed = again.stats;
    recomputed.fd_recomputed += 1;
    tally.Expect("restart", "a restart that recomputed FD outcomes",
                 CheckRestart(last->analysis, again.analysis, again.stats,
                              durable),
                 CheckRestart(last->analysis, again.analysis, recomputed,
                              durable));

    core::IncrementalResult miscounted = *last;
    miscounted.stats.tables_dirty += 1;
    tally.Expect("epoch accounting", "dirty table count off by one",
                 CheckEpochAccounting(*last), CheckEpochAccounting(miscounted));

    core::PortalBundle scratch;
    scratch.name = chain.back().portal.name;
    scratch.portal = chain.back().portal;
    scratch.truth = chain.back().truth;
    scratch.ingest = core::IngestPortal(scratch.portal, ingest);
    const core::PortalAnalysis full = core::RunFullAnalysis(scratch, suite);
    core::PortalAnalysis off = full;
    off.joins.total_pairs += 1;
    tally.Expect("incremental = scratch", "one more joinable pair",
                 CompareAnalyses(full, last->analysis),
                 CompareAnalyses(off, last->analysis));
    fs::remove_all(dir, ec);
  }

  std::printf("self-test: %s\n", tally.missed() == 0
                                     ? "every check rejected its wrong input"
                                     : "SOME CHECKS ACCEPTED A WRONG INPUT");
  return tally.missed();
}

}  // namespace perfbench
