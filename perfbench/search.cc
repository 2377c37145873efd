// `search`: table search over the analysed corpus. Set-up generates and
// ingests two epochs per portal. The timed phase publishes epoch 0 of
// every portal (QueryEngine::Refresh), runs one client's closed-loop
// query stream, publishes epoch 1 (which invalidates the result cache)
// and runs a second stream. Each stream mixes first-time queries (result
// cache misses) with Zipf-skewed repeats of earlier ones (hits).
#include <exception>
#include <memory>
#include <set>
#include <tuple>
#include <variant>

#include "checks.h"
#include "core/ingestion.h"
#include "corpus/generator.h"
#include "corpus/snapshot.h"
#include "fetch/fault_schedule.h"
#include "serve/brute_force.h"
#include "serve/query_engine.h"
#include "serve/result_cache.h"
#include "union/schema_similarity.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {

namespace {

using namespace ogdp;

constexpr size_t kEpochs = 2;
// Queries per stream, and the share of them issued for the first time.
constexpr size_t kStreamQueries = 30000;
constexpr double kFirstTimeShare = 0.15;
// Answers per stream re-computed by the brute-force reference.
constexpr size_t kCheckedAnswers = 160;

enum Family { kJoinTable, kJoinColumn, kUnion, kKeyword, kFamilies };
const char* const kFamilyName[kFamilies] = {"join", "join", "union",
                                            "keyword"};

struct Query {
  Family family = kJoinTable;
  size_t portal = 0;
  uint32_t table = 0;
  uint32_t column = 0;
  std::string text;
  auto Key() const { return std::tie(family, portal, table, column, text); }
  bool operator<(const Query& o) const { return Key() < o.Key(); }
};

using Answer =
    std::variant<serve::JoinResult, serve::UnionResult, serve::KeywordResult>;

serve::QueryBudget Unlimited() {
  serve::QueryBudget budget;
  budget.time_budget_ms = 0;
  return budget;
}

// Queries a user could ask of one portal's epoch: every table for union
// and keyword lookups, tables with a joinable column for whole-table
// join lookups, and every eligible column for single-column lookups.
struct Universe {
  std::vector<uint32_t> tables;
  std::vector<uint32_t> join_tables;
  std::vector<std::pair<uint32_t, uint32_t>> join_columns;
  std::vector<std::string> names;  // keyword text per table
};

Universe MakeUniverse(const std::vector<table::Table>& tables) {
  const join::JoinFinderOptions join_options;
  Universe u;
  for (uint32_t t = 0; t < tables.size(); ++t) {
    u.tables.push_back(t);
    u.names.push_back(tables[t].name());
    bool joinable = false;
    for (uint32_t c = 0; c < tables[t].num_columns(); ++c) {
      if (tables[t].column(c).distinct_count() >=
          join_options.min_unique_values) {
        u.join_columns.emplace_back(t, c);
        joinable = true;
      }
    }
    if (joinable) u.join_tables.push_back(t);
  }
  return u;
}

// A seeded stream of kStreamQueries queries over all portals: exactly
// kFirstTimeShare of them distinct first-time queries, the rest repeats
// of an earlier query drawn Zipf-skewed by issue order.
std::vector<Query> MakeStream(const std::vector<Universe>& universes,
                              uint64_t seed) {
  Rng rng(seed);
  const size_t first_time =
      static_cast<size_t>(kFirstTimeShare * kStreamQueries);
  std::vector<uint8_t> is_new(kStreamQueries, 0);
  for (size_t i = 0; i < first_time; ++i) is_new[i] = 1;
  rng.Shuffle(is_new);
  for (size_t i = 0; i < kStreamQueries; ++i) {
    if (is_new[i]) {  // the stream opens with a first-time query
      std::swap(is_new[0], is_new[i]);
      break;
    }
  }
  const std::vector<double> family_weights = {0.25, 0.2, 0.25, 0.3};
  std::set<Query> seen;
  std::vector<Query> issued;
  std::vector<Query> stream;
  stream.reserve(kStreamQueries);
  for (size_t i = 0; i < kStreamQueries; ++i) {
    if (!is_new[i]) {
      stream.push_back(issued[rng.NextZipf(issued.size(), 1.0)]);
      continue;
    }
    while (true) {
      Query q;
      q.family = static_cast<Family>(rng.NextCategorical(family_weights));
      q.portal = static_cast<size_t>(rng.NextBounded(universes.size()));
      const Universe& u = universes[q.portal];
      if (q.family == kJoinTable) {
        q.table = u.join_tables[rng.NextBounded(u.join_tables.size())];
      } else if (q.family == kJoinColumn) {
        const auto& tc = u.join_columns[rng.NextBounded(u.join_columns.size())];
        q.table = tc.first;
        q.column = tc.second;
      } else if (q.family == kUnion) {
        q.table = u.tables[rng.NextBounded(u.tables.size())];
      } else {
        q.text = u.names[rng.NextBounded(u.names.size())];
      }
      if (seen.insert(q).second) {
        issued.push_back(q);
        stream.push_back(q);
        break;
      }
    }
  }
  return stream;
}

Answer Ask(const serve::QueryEngine& engine, const Query& q) {
  switch (q.family) {
    case kJoinTable:
      return engine.Joins(serve::JoinQuery{q.table, std::nullopt, 10},
                          Unlimited());
    case kJoinColumn:
      return engine.Joins(serve::JoinQuery{q.table, q.column, 10},
                          Unlimited());
    case kUnion:
      return engine.Unions(serve::UnionQuery{q.table, 10}, Unlimited());
    default:
      return engine.Keywords(serve::KeywordQuery{q.text, 10}, Unlimited());
  }
}

Answer AskReference(const serve::IndexSnapshot& snapshot, const Query& q) {
  switch (q.family) {
    case kJoinTable:
      return serve::BruteForceJoins(
          snapshot, serve::JoinQuery{q.table, std::nullopt, 10}, Unlimited());
    case kJoinColumn:
      return serve::BruteForceJoins(
          snapshot, serve::JoinQuery{q.table, q.column, 10}, Unlimited());
    case kUnion:
      return serve::BruteForceUnions(snapshot, serve::UnionQuery{q.table, 10},
                                     Unlimited());
    default:
      return serve::BruteForceKeywords(
          snapshot, serve::KeywordQuery{q.text, 10}, Unlimited());
  }
}

uint64_t EpochOf(const Answer& a) {
  return std::visit([](const auto& r) { return r.epoch; }, a);
}
bool FromCache(const Answer& a) {
  return std::visit([](const auto& r) { return r.from_cache; }, a);
}

}  // namespace

void RunSearch(uint64_t seed, Trace& trace, RunRecord& record) {
  const auto profiles = Profiles();
  core::IngestOptions ingest;
  ingest.faults = fetch::FaultProfile{};
  // corpora[e][p]: ingested tables of portal p at epoch e.
  std::vector<std::vector<std::vector<table::Table>>> corpora(
      kEpochs, std::vector<std::vector<table::Table>>(profiles.size()));
  auto& L = record.layers;
  for (size_t p = 0; p < profiles.size(); ++p) {
    std::vector<corpus::PortalSnapshot> chain(1);
    {
      Trace::Span span(trace, "corpus.generate");
      corpus::CorpusGenerator generator(profiles[p], kScale);
      corpus::GeneratedPortal generated = generator.Generate();
      chain[0].portal = std::move(generated.portal);
      chain[0].truth = std::move(generated.truth);
    }
    const corpus::ChurnProfile churn = SeededChurn(profiles[p].name, seed);
    for (size_t e = 1; e < kEpochs; ++e) {
      Trace::Span span(trace, "corpus.snapshot_chain");
      chain.push_back(corpus::AdvanceEpoch(chain.back(), churn, e));
    }
    for (size_t e = 0; e < kEpochs; ++e) {
      Trace::Span span(trace, "core.ingest");
      core::IngestResult ingested = core::IngestPortal(chain[e].portal, ingest);
      L["fetch.attempts"] += static_cast<double>(ingested.stats.fetch_attempts);
      L["csv.bytes_ingested_mib"] +=
          static_cast<double>(ingested.stats.total_bytes) / kMiB;
      corpora[e][p] = std::move(ingested.tables);
    }
  }
  const double setup_s = SecondsSince(ProcessStart());

  serve::ServeOptions serve_options;
  serve_options.shards = 4;
  serve::QueryEngineOptions engine_options;
  engine_options.result_cache_budget = size_t{64} << 20;
  engine_options.client_queue_capacity = 1024;
  std::vector<std::unique_ptr<serve::QueryEngine>> engines;
  for (size_t p = 0; p < profiles.size(); ++p) {
    engines.push_back(std::make_unique<serve::QueryEngine>(
        serve_options, 1, engine_options));
  }

  std::vector<double> op_ms;        // every refresh and query
  std::vector<double> query_us;     // every query
  std::vector<double> hit_us;       // result-cache hits
  std::vector<double> miss_us[kFamilies];
  std::vector<double> brute_us[kFamilies];
  double refresh_s = 0, query_phase_s = 0;
  double join_candidates = 0;
  size_t attempted = 0, failed = 0, queries = 0, hits = 0;
  for (size_t e = 0; e < kEpochs; ++e) {
    // Publish epoch e of every portal.
    std::vector<uint64_t> published(profiles.size(), 0);
    for (size_t p = 0; p < profiles.size(); ++p) {
      ++attempted;
      const Clock::time_point start = Clock::now();
      try {
        Trace::Span span(trace, "serve.refresh");
        published[p] = engines[p]->Refresh(corpora[e][p])->epoch;
      } catch (const std::exception& ex) {
        ++failed;
        record.Fail(profiles[p].name + ": refresh threw: " + ex.what());
      }
      const double s = SecondsSince(start);
      refresh_s += s;
      op_ms.push_back(s * 1e3);
    }
    if (trace.enabled()) {
      for (size_t p = 0; p < profiles.size(); ++p) {
        Trace::Span span(trace, "union.near_pairs");
        tunion::FindNearUnionablePairs(corpora[e][p],
                                       serve_options.near_union_threshold);
      }
    }

    std::vector<Universe> universes;
    for (const auto& tables : corpora[e]) universes.push_back(MakeUniverse(tables));
    const std::vector<Query> stream = MakeStream(universes, Mix64(seed + e));
    const std::vector<size_t> checked =
        SampleIndices(stream.size(), kCheckedAnswers, Mix64(seed ^ (e + 7)));
    std::vector<Answer> kept;
    kept.reserve(checked.size());
    size_t next_checked = 0;
    std::string stale;

    const Clock::time_point stream_start = Clock::now();
    for (size_t i = 0; i < stream.size(); ++i) {
      const Query& q = stream[i];
      ++attempted;
      ++queries;
      Answer answer;
      const Clock::time_point start = Clock::now();
      try {
        Trace::Span span(trace, "serve.query");
        answer = Ask(*engines[q.portal], q);
      } catch (const std::exception& ex) {
        ++failed;
        record.Fail(std::string("query threw: ") + ex.what());
        continue;
      }
      const double us =
          std::chrono::duration<double, std::micro>(Clock::now() - start)
              .count();
      query_us.push_back(us);
      op_ms.push_back(us * 1e-3);
      if (FromCache(answer)) {
        ++hits;
        hit_us.push_back(us);
      } else {
        miss_us[q.family].push_back(us);
        if (q.family == kJoinTable || q.family == kJoinColumn) {
          join_candidates += static_cast<double>(
              std::get<serve::JoinResult>(answer).candidates_considered);
        }
      }
      const std::string why = CheckEpoch(EpochOf(answer), published[q.portal]);
      if (!why.empty()) {
        ++failed;
        if (stale.empty()) stale = why;
      }
      if (next_checked < checked.size() && checked[next_checked] == i) {
        kept.push_back(std::move(answer));
        ++next_checked;
      }
    }
    query_phase_s += SecondsSince(stream_start);
    if (!stale.empty()) record.Fail(stale);

    // Sampled answers against the brute-force reference on the snapshot
    // they were served from.
    for (size_t k = 0; k < kept.size(); ++k) {
      const Query& q = stream[checked[k]];
      const auto snapshot = engines[q.portal]->snapshot();
      const Clock::time_point start = Clock::now();
      const Answer reference = AskReference(*snapshot, q);
      brute_us[q.family].push_back(
          std::chrono::duration<double, std::micro>(Clock::now() - start)
              .count());
      std::string why = std::visit(
          [&](const auto& served) {
            return CompareServed(
                served, std::get<std::decay_t<decltype(served)>>(reference));
          },
          kept[k]);
      if (why.empty() && (q.family == kJoinTable || q.family == kJoinColumn)) {
        why = CheckJoinHitJaccards(corpora[e][q.portal],
                                   std::get<serve::JoinResult>(kept[k]),
                                   serve_options.join.jaccard_threshold);
      }
      if (!why.empty()) {
        ++failed;
        record.Fail(profiles[q.portal].name + " " + kFamilyName[q.family] +
                    " query: " + why);
      }
    }
  }

  record.attempted = attempted;
  record.failed = failed;
  record.detail["refresh_s"] = refresh_s;
  record.detail["queries_per_s"] =
      static_cast<double>(queries) / query_phase_s;
  record.detail["query_p50_us"] = Quantile(query_us, 0.5);
  record.detail["query_p99_us"] = Quantile(query_us, 0.99);
  record.detail["queries"] = static_cast<double>(queries);
  record.detail["hit_share"] =
      static_cast<double>(hits) / static_cast<double>(queries);
  record.end_to_end["setup_s"] = setup_s;
  record.end_to_end["scratch_s"] = refresh_s;
  record.end_to_end["job_s"] = refresh_s + query_phase_s;
  record.detail["op_p50_ms"] = Median(op_ms);

  std::vector<double> join_miss = miss_us[kJoinTable];
  join_miss.insert(join_miss.end(), miss_us[kJoinColumn].begin(),
                   miss_us[kJoinColumn].end());
  std::vector<double> brute_join = brute_us[kJoinTable];
  brute_join.insert(brute_join.end(), brute_us[kJoinColumn].begin(),
                    brute_us[kJoinColumn].end());
  size_t cache_hits = 0, cache_misses = 0;
  for (const auto& engine : engines) {
    const serve::ResultCacheStats cs = engine->cache_stats();
    cache_hits += cs.hits;
    cache_misses += cs.misses;
  }
  L["corpus.generate_s"] = trace.TotalSeconds("corpus.generate");
  L["corpus.snapshot_chain_s"] = trace.TotalSeconds("corpus.snapshot_chain");
  L["core.ingest_s"] = trace.TotalSeconds("core.ingest");
  L["serve.build_s"] = trace.TotalSeconds("serve.refresh");
  L["union.near_pairs_s"] = trace.TotalSeconds("union.near_pairs");
  L["serve.join_miss_us_p50"] = Median(join_miss);
  L["serve.union_miss_us_p50"] = Median(miss_us[kUnion]);
  L["serve.keyword_miss_us_p50"] = Median(miss_us[kKeyword]);
  L["serve.hit_us_p50"] = Median(hit_us);
  L["serve.join_candidates"] = join_candidates;
  L["serve.cache_hits"] = static_cast<double>(cache_hits);
  L["serve.cache_misses"] = static_cast<double>(cache_misses);
  L["serve.brute_join_us_p50"] = Median(brute_join);
  L["serve.brute_keyword_us_p50"] = Median(brute_us[kKeyword]);
}

}  // namespace perfbench
