// Output checks of the benchmark. Each compares a result of the measured
// code against a computation made here, apart from it, or against a
// property the method must have. Every check is a pure function of the
// result it is handed and returns "" when the result passes, else what
// is wrong, so the self-test can hand it a deliberately wrong result.
#ifndef OGDP_PERFBENCH_CHECKS_H_
#define OGDP_PERFBENCH_CHECKS_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/analysis_suite.h"
#include "core/durable_cache.h"
#include "core/incremental.h"
#include "core/portal_model.h"
#include "fd/bcnf.h"
#include "fd/fd.h"
#include "join/joinable_pair_finder.h"
#include "serve/query_engine.h"
#include "table/table.h"

namespace perfbench {

/// `count` distinct indices of [0, n) chosen by `seed`, ascending.
std::vector<size_t> SampleIndices(size_t n, size_t count, uint64_t seed);

// ------------------------------------------------------------------ study

/// LZ77 decode(encode(body)) == body for each sampled resource body, and
/// the Table-1 compressed size is below the total size.
std::string CheckLz77(const ogdp::core::Portal& portal,
                      const ogdp::core::SizeReport& size, uint64_t seed,
                      size_t samples);

/// FUN and TANE report the same minimal FDs on `table`.
std::string CheckFdAgreement(const std::vector<ogdp::fd::FunctionalDependency>& fun,
                             const std::vector<ogdp::fd::FunctionalDependency>& tane);

/// Every FD holds on `table`, checked by grouping rows on the LHS.
std::string CheckFdsHold(const ogdp::table::Table& table,
                         const std::vector<ogdp::fd::FunctionalDependency>& fds);

/// A brute-force search over column sets of size <= 3 finds the same
/// minimum key size as `reported` (nullopt = no key of size <= 3).
std::string CheckMinKeySize(const ogdp::table::Table& table,
                            std::optional<size_t> reported);

/// Each part is the projection of the table on its columns, and the
/// chase over FDs that hold on the table (each checked by grouping rows)
/// proves that the parts join back to the table's distinct rows.
std::string CheckBcnfLossless(const ogdp::table::Table& table,
                              const ogdp::fd::BcnfResult& decomposition);

/// For each sampled eligible column, an exact Jaccard against every other
/// eligible column (of another table) gives exactly the pairs at
/// >= `threshold` that `reported` lists for that column.
std::string CheckJoinPairs(const std::vector<ogdp::table::Table>& tables,
                           const std::vector<ogdp::join::ColumnRef>& sampled,
                           const std::vector<ogdp::join::JoinablePair>& reported,
                           double threshold, size_t min_unique);

/// Grouping tables by normalized schema gives `reported_unionable`
/// tables in groups of two or more.
std::string CheckUnionableCount(const std::vector<ogdp::table::Table>& tables,
                                size_t reported_unionable);

// ---------------------------------------------------------------- recrawl

/// The result fields of two analyses agree. The FD memory governor's
/// telemetry (declines, rebuilds, lease and pool peaks) is left out: it
/// varies with thread scheduling.
std::string CompareAnalyses(const ogdp::core::PortalAnalysis& a,
                            const ogdp::core::PortalAnalysis& b);

/// A restart over the durable directory reproduced the pre-restart
/// result, recomputed no FD outcome and quarantined nothing.
std::string CheckRestart(const ogdp::core::PortalAnalysis& before,
                         const ogdp::core::PortalAnalysis& after,
                         const ogdp::core::IncrementalStats& stats,
                         const ogdp::core::DurableStoreStats& durable);

/// clean + dirty tables == the epoch bundle's table count.
std::string CheckEpochAccounting(const ogdp::core::IncrementalResult& result);

// ----------------------------------------------------------------- search

std::string CompareServed(const ogdp::serve::JoinResult& served,
                          const ogdp::serve::JoinResult& reference);
std::string CompareServed(const ogdp::serve::UnionResult& served,
                          const ogdp::serve::UnionResult& reference);
std::string CompareServed(const ogdp::serve::KeywordResult& served,
                          const ogdp::serve::KeywordResult& reference);

/// Every join hit's Jaccard, recomputed from the two columns' values,
/// equals the reported value and is >= `threshold`.
std::string CheckJoinHitJaccards(const std::vector<ogdp::table::Table>& tables,
                                 const ogdp::serve::JoinResult& result,
                                 double threshold);

/// The answer carries the epoch of the snapshot published last.
std::string CheckEpoch(uint64_t answer_epoch, uint64_t published_epoch);

}  // namespace perfbench

#endif  // OGDP_PERFBENCH_CHECKS_H_
