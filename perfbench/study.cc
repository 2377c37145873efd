// `study`: the paper's batch study from scratch. Set-up generates the
// four portals; the timed phase ingests each and runs the full analysis
// with Table-1 LZ77 sizing on. Nothing is cached or served.
#include <exception>
#include <numeric>

#include "checks.h"
#include "core/analysis.h"
#include "core/analysis_suite.h"
#include "core/ingestion.h"
#include "corpus/generator.h"
#include "fd/bcnf.h"
#include "fd/candidate_keys.h"
#include "fd/fd_miner.h"
#include "fetch/fault_schedule.h"
#include "join/joinable_pair_finder.h"
#include "profile/portal_stats.h"
#include "workloads.h"

namespace perfbench {

namespace {

using namespace ogdp;

// Check sample sizes per portal.
constexpr size_t kLz77Samples = 24;
constexpr size_t kFdSamples = 5;
constexpr size_t kJoinColumnSamples = 16;
// Passes of the timed phase per run; analysis_s is their median.
constexpr size_t kPasses = 3;

core::IngestOptions FaultFreeIngest() {
  core::IngestOptions ingest;
  ingest.faults = fetch::FaultProfile{};
  return ingest;
}

// LZ77 sizing on; the run seed draws the stratified join-pair sample.
core::AnalysisSuiteOptions StudyOptions(uint64_t seed) {
  core::AnalysisSuiteOptions options;
  options.compress = true;
  options.sampler.seed = Mix64(seed);
  return options;
}

// The stage calls RunFullAnalysis makes, one span each, so the traced run
// shows each layer's share. Same calls, same arguments, same results.
core::PortalAnalysis AnalyseTraced(const core::PortalBundle& bundle,
                                   const core::AnalysisSuiteOptions& options,
                                   Trace& trace) {
  core::PortalAnalysis a;
  a.portal_name = bundle.name;
  a.ingest = bundle.ingest.stats;
  for (const core::ResourceRecord& r : bundle.ingest.resources) {
    if (!r.status.ok()) a.failed_resources.push_back(r);
  }
  const auto& tables = bundle.ingest.tables;
  {
    Trace::Span span(trace, "compress.size_report");
    a.size = core::ComputeSizeReport(bundle, options.compress);
  }
  {
    Trace::Span span(trace, "core.metadata");
    a.metadata = core::ComputeMetadataReport(bundle.portal);
  }
  {
    Trace::Span span(trace, "profile.stats");
    a.table_sizes = profile::ComputeTableSizeStats(tables);
    a.nulls = profile::ComputeNullStats(tables);
    a.uniqueness = profile::ComputeUniquenessStats(tables);
  }
  const auto sample = core::SelectFdSample(tables);
  {
    Trace::Span span(trace, "fd.keys");
    a.keys = core::ComputeKeyReport(tables, sample);
  }
  {
    Trace::Span span(trace, "fd.fds");
    a.fds = core::ComputeFdReport(tables, sample, /*seed=*/7,
                                  options.fd_memory_budget_bytes);
  }
  std::optional<join::JoinablePairFinder> finder;
  {
    Trace::Span span(trace, "join.finder_build");
    finder.emplace(tables);
  }
  std::vector<join::JoinablePair> pairs;
  {
    Trace::Span span(trace, "join.find_pairs");
    pairs = finder->FindAllPairs();
  }
  {
    Trace::Span span(trace, "join.report");
    a.joins = core::ComputeJoinReport(tables, *finder, pairs);
  }
  {
    Trace::Span span(trace, "join.label");
    a.labeled_joins =
        core::LabelJoinSample(bundle, *finder, pairs, options.sampler);
  }
  {
    Trace::Span span(trace, "union.report");
    a.unions = core::ComputeUnionReport(bundle, options.union_sample_pairs);
  }
  return a;
}

// Every study check for one portal; returns the failures.
std::vector<std::string> CheckPortal(const core::PortalBundle& bundle,
                                     const core::PortalAnalysis& a,
                                     uint64_t seed) {
  std::vector<std::string> failures;
  const auto note = [&](const std::string& why) {
    if (!why.empty()) failures.push_back(bundle.name + ": " + why);
  };
  const auto& tables = bundle.ingest.tables;
  note(CheckLz77(bundle.portal, a.size, seed ^ 0x1, kLz77Samples));

  const auto sample = core::SelectFdSample(tables);
  for (size_t k : SampleIndices(sample.size(), kFdSamples, seed ^ 0x2)) {
    const table::Table& t = tables[sample[k]];
    auto fun = fd::MineFun(t);
    auto tane = fd::MineTane(t);
    if (!fun.ok() || !tane.ok()) {
      note("FD mining failed on " + t.name());
      continue;
    }
    note(CheckFdAgreement(fun->fds, tane->fds));
    note(CheckFdsHold(t, fun->fds));
    const auto keys = fd::FindCandidateKeys(t, 3);
    if (!keys.ok()) {
      note("key search failed on " + t.name());
    } else {
      note(CheckMinKeySize(t, keys->min_key_size));
    }
    fd::BcnfOptions bcnf;
    bcnf.seed = seed;
    const auto parts = fd::DecomposeToBcnf(t, bcnf);
    if (!parts.ok()) {
      note("BCNF decomposition failed on " + t.name());
    } else {
      note(CheckBcnfLossless(t, *parts));
    }
  }

  const join::JoinFinderOptions join_options;
  const join::JoinablePairFinder finder(tables, join_options);
  const auto pairs = finder.FindAllPairs();
  if (pairs.size() != a.joins.total_pairs) {
    note("JoinReport counts " + std::to_string(a.joins.total_pairs) +
         " pairs, the finder returns " + std::to_string(pairs.size()));
  }
  std::vector<join::ColumnRef> eligible;
  for (size_t t = 0; t < tables.size(); ++t) {
    for (size_t c = 0; c < tables[t].num_columns(); ++c) {
      if (tables[t].column(c).distinct_count() >=
          join_options.min_unique_values) {
        eligible.push_back(join::ColumnRef{t, c});
      }
    }
  }
  std::vector<join::ColumnRef> sampled;
  for (size_t i :
       SampleIndices(eligible.size(), kJoinColumnSamples, seed ^ 0x3)) {
    sampled.push_back(eligible[i]);
  }
  note(CheckJoinPairs(tables, sampled, pairs, join_options.jaccard_threshold,
                      join_options.min_unique_values));
  note(CheckUnionableCount(tables, a.unions.unionable_tables));
  return failures;
}

}  // namespace

void RunStudy(uint64_t seed, Trace& trace, RunRecord& record) {
  std::vector<core::PortalBundle> bundles;
  for (const auto& profile : Profiles()) {
    Trace::Span span(trace, "corpus.generate");
    corpus::CorpusGenerator generator(profile, kScale);
    corpus::GeneratedPortal generated = generator.Generate();
    core::PortalBundle bundle;
    bundle.name = profile.name;
    bundle.portal = std::move(generated.portal);
    bundle.truth = std::move(generated.truth);
    bundles.push_back(std::move(bundle));
  }
  const double setup_s = SecondsSince(ProcessStart());

  const core::IngestOptions ingest = FaultFreeIngest();
  const core::AnalysisSuiteOptions options = StudyOptions(seed);
  std::vector<core::PortalAnalysis> analyses(bundles.size());
  std::vector<bool> op_failed(bundles.size(), false);
  std::vector<double> pass_s, op_s;
  for (size_t pass = 0; pass < kPasses; ++pass) {
    const Clock::time_point start = Clock::now();
    for (size_t p = 0; p < bundles.size(); ++p) {
      const Clock::time_point op_start = Clock::now();
      try {
        {
          Trace::Span span(trace, "core.ingest");
          bundles[p].ingest = core::IngestPortal(bundles[p].portal, ingest);
        }
        core::PortalAnalysis a = trace.enabled()
                                     ? AnalyseTraced(bundles[p], options, trace)
                                     : core::RunFullAnalysis(bundles[p], options);
        if (a.degraded) {
          record.Fail(bundles[p].name + ": degraded stage");
          op_failed[p] = true;
        }
        // Every pass analyses the same input, so it must give the same
        // result.
        if (pass > 0) {
          const std::string diff = CompareAnalyses(analyses[p], a);
          if (!diff.empty()) {
            record.Fail(bundles[p].name + ": pass " + std::to_string(pass) +
                        " differs from pass 0: " + diff);
            op_failed[p] = true;
          }
        }
        analyses[p] = std::move(a);
      } catch (const std::exception& e) {
        record.Fail(bundles[p].name + ": analysis threw: " + e.what());
        op_failed[p] = true;
      }
      op_s.push_back(SecondsSince(op_start));
    }
    pass_s.push_back(SecondsSince(start));
  }
  const double analysis_s = Median(pass_s);

  for (size_t p = 0; p < bundles.size(); ++p) {
    if (op_failed[p]) continue;
    for (const std::string& why : CheckPortal(bundles[p], analyses[p], seed)) {
      record.Fail(why);
      op_failed[p] = true;
    }
  }
  // One operation is one portal analysis of one pass; a portal whose
  // analysis failed in any pass or failed a check counts once per pass.
  record.attempted = bundles.size() * kPasses;
  for (bool f : op_failed) record.failed += f ? kPasses : 0;

  record.detail["analysis_s"] = analysis_s;
  for (size_t pass = 0; pass < kPasses; ++pass) {
    record.detail["analysis_pass" + std::to_string(pass) + "_s"] = pass_s[pass];
  }
  record.end_to_end["setup_s"] = setup_s;
  record.end_to_end["scratch_s"] = analysis_s;
  record.end_to_end["job_s"] = std::accumulate(pass_s.begin(), pass_s.end(), 0.0);
  record.detail["op_p50_ms"] = Median(op_s) * 1e3;

  // Layer times are per pass: the spans' total over all passes / kPasses.
  auto& L = record.layers;
  const auto per_pass = [&](const char* span) {
    return trace.TotalSeconds(span) / static_cast<double>(kPasses);
  };
  L["corpus.generate_s"] = trace.TotalSeconds("corpus.generate");
  L["core.ingest_s"] = per_pass("core.ingest");
  L["compress.size_report_s"] = per_pass("compress.size_report");
  L["profile.stats_s"] = per_pass("profile.stats");
  L["fd.keys_s"] = per_pass("fd.keys");
  L["fd.fds_s"] = per_pass("fd.fds");
  L["join.finder_build_s"] = per_pass("join.finder_build");
  L["join.find_pairs_s"] = per_pass("join.find_pairs");
  L["join.report_s"] = per_pass("join.report");
  L["join.label_s"] = per_pass("join.label");
  L["union.report_s"] = per_pass("union.report");
  for (size_t p = 0; p < bundles.size(); ++p) {
    const core::IngestStats& is = bundles[p].ingest.stats;
    const core::FdReport& fds = analyses[p].fds;
    L["fetch.attempts"] += static_cast<double>(is.fetch_attempts);
    L["csv.bytes_ingested_mib"] += static_cast<double>(is.total_bytes) / kMiB;
    L["fd.partition_declines"] += static_cast<double>(fds.partition_declines);
    L["fd.partition_rebuilds"] += static_cast<double>(fds.partition_rebuilds);
    L["fd.governor_peak_mib"] +=
        static_cast<double>(fds.governor_peak_bytes) / kMiB;
    L["join.pairs"] += static_cast<double>(analyses[p].joins.total_pairs);
  }
}

}  // namespace perfbench
