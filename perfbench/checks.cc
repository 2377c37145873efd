#include "checks.h"

#include <algorithm>
#include <array>
#include <cctype>
#include <map>
#include <set>
#include <string_view>
#include <unordered_map>
#include <unordered_set>

#include "compress/codec.h"
#include "util/rng.h"

namespace perfbench {

namespace {

using ogdp::table::Column;
using ogdp::table::Table;

std::string Join(const std::vector<std::string>& parts) {
  std::string out;
  for (const std::string& p : parts) {
    out += std::to_string(p.size());
    out += ':';
    out += p;
  }
  return out;
}

// One cell as a comparison key. Nulls get a value of their own, so they
// compare equal to each other and unequal to every string.
std::string CellKey(const Table& table, size_t row, size_t column) {
  const Column& col = table.column(column);
  return col.IsNull(row) ? std::string("\x01null")
                         : "=" + std::string(col.ValueAt(row));
}

std::string Normalize(const std::string& name) {
  size_t b = 0, e = name.size();
  while (b < e && std::isspace(static_cast<unsigned char>(name[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(name[e - 1]))) --e;
  std::string out = name.substr(b, e - b);
  for (char& c : out) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return out;
}

std::unordered_set<std::string_view> ValueSet(const Column& col) {
  std::unordered_set<std::string_view> out;
  out.reserve(col.distinct_count());
  for (const std::string& v : col.dictionary()) out.insert(v);
  return out;
}

// Exact Jaccard of two columns' distinct non-null values.
double ExactJaccard(const Column& a, const Column& b) {
  const Column& small = a.distinct_count() <= b.distinct_count() ? a : b;
  const Column& large = &small == &a ? b : a;
  const auto values = ValueSet(large);
  size_t inter = 0;
  for (const std::string& v : small.dictionary()) inter += values.count(v);
  const size_t uni = a.distinct_count() + b.distinct_count() - inter;
  return uni == 0 ? 0.0
                  : static_cast<double>(inter) / static_cast<double>(uni);
}

template <typename T>
std::string Mismatch(const char* what, const T& a, const T& b) {
  return a == b ? "" : std::string(what) + " differs";
}

}  // namespace

std::vector<size_t> SampleIndices(size_t n, size_t count, uint64_t seed) {
  std::vector<size_t> all(n);
  for (size_t i = 0; i < n; ++i) all[i] = i;
  ogdp::Rng rng(seed);
  const size_t k = std::min(n, count);
  for (size_t i = 0; i < k; ++i) {
    const size_t j = i + static_cast<size_t>(rng.NextBounded(n - i));
    std::swap(all[i], all[j]);
  }
  all.resize(k);
  std::sort(all.begin(), all.end());
  return all;
}

// ------------------------------------------------------------------ study

std::string CheckLz77(const ogdp::core::Portal& portal,
                      const ogdp::core::SizeReport& size, uint64_t seed,
                      size_t samples) {
  std::vector<const std::string*> bodies;
  for (const auto& ds : portal.datasets) {
    for (const auto& res : ds.resources) {
      if (res.downloadable && !res.content.empty()) {
        bodies.push_back(&res.content);
      }
    }
  }
  const auto codec = ogdp::compress::MakeLz77Codec();
  for (size_t i : SampleIndices(bodies.size(), samples, seed)) {
    const auto decoded = codec->Decompress(codec->Compress(*bodies[i]));
    if (!decoded.ok() || *decoded != *bodies[i]) {
      return "LZ77 round trip changed resource body " + std::to_string(i);
    }
  }
  if (size.compressed_bytes == 0 || size.compressed_bytes >= size.total_bytes) {
    return "compressed bytes " + std::to_string(size.compressed_bytes) +
           " not below total bytes " + std::to_string(size.total_bytes);
  }
  return "";
}

std::string CheckFdAgreement(
    const std::vector<ogdp::fd::FunctionalDependency>& fun,
    const std::vector<ogdp::fd::FunctionalDependency>& tane) {
  std::set<std::pair<uint32_t, size_t>> a, b;
  for (const auto& fd : fun) a.emplace(fd.lhs, fd.rhs);
  for (const auto& fd : tane) b.emplace(fd.lhs, fd.rhs);
  if (a.size() != fun.size() || b.size() != tane.size()) {
    return "a miner reported a duplicate FD";
  }
  return a == b ? "" : "FUN and TANE disagree";
}

std::string CheckFdsHold(const Table& table,
                         const std::vector<ogdp::fd::FunctionalDependency>& fds) {
  for (const auto& fd : fds) {
    std::vector<size_t> lhs;
    for (size_t c = 0; c < table.num_columns(); ++c) {
      if ((fd.lhs >> c) & 1u) lhs.push_back(c);
    }
    if (fd.rhs >= table.num_columns() || ((fd.lhs >> fd.rhs) & 1u)) {
      return "FD " + fd.ToString() + " is trivial or out of range";
    }
    std::unordered_map<std::string, uint32_t> rhs_of;
    const Column& rhs = table.column(fd.rhs);
    for (size_t r = 0; r < table.num_rows(); ++r) {
      std::string key;
      for (size_t c : lhs) {
        const uint32_t code = table.column(c).code(r);
        key.append(reinterpret_cast<const char*>(&code), sizeof(code));
      }
      const auto [it, inserted] = rhs_of.emplace(key, rhs.code(r));
      if (!inserted && it->second != rhs.code(r)) {
        return "FD " + fd.ToString() + " does not hold on " + table.name();
      }
    }
  }
  return "";
}

std::string CheckMinKeySize(const Table& table,
                            std::optional<size_t> reported) {
  const size_t n = table.num_columns();
  const size_t rows = table.num_rows();
  std::optional<size_t> found;
  if (rows < 2) {
    found = n > 0 ? std::optional<size_t>(1) : std::nullopt;
  }
  std::vector<std::array<size_t, 3>> sets;
  for (size_t size = 1; size <= 3 && !found; ++size) {
    sets.clear();
    for (size_t a = 0; a < n; ++a) {
      if (size == 1) { sets.push_back({a, a, a}); continue; }
      for (size_t b = a + 1; b < n; ++b) {
        if (size == 2) { sets.push_back({a, b, b}); continue; }
        for (size_t c = b + 1; c < n; ++c) sets.push_back({a, b, c});
      }
    }
    for (const auto& cols : sets) {
      std::unordered_set<std::string> seen;
      seen.reserve(rows);
      bool unique = true;
      for (size_t r = 0; r < rows && unique; ++r) {
        std::string key;
        for (size_t i = 0; i < size; ++i) {
          const uint32_t code = table.column(cols[i]).code(r);
          key.append(reinterpret_cast<const char*>(&code), sizeof(code));
        }
        unique = seen.insert(std::move(key)).second;
      }
      if (unique) { found = size; break; }
    }
  }
  if (found == reported) return "";
  const auto show = [](std::optional<size_t> v) {
    return v ? std::to_string(*v) : std::string("none");
  };
  return "minimum key size of " + table.name() + ": brute force " +
         show(found) + ", reported " + show(reported);
}

std::string CheckBcnfLossless(const Table& table,
                              const ogdp::fd::BcnfResult& decomposition) {
  const size_t n = table.num_columns();
  const size_t rows = table.num_rows();
  const auto& parts = decomposition.tables;
  const auto& origins = decomposition.column_origins;
  if (parts.empty() || parts.size() != origins.size()) {
    return "decomposition of " + table.name() + " has no parts";
  }
  // Each part is the projection of the table on its columns.
  std::vector<bool> covered(n, false);
  for (size_t p = 0; p < parts.size(); ++p) {
    if (origins[p].size() != parts[p].num_columns()) {
      return "part " + std::to_string(p) + " of " + table.name() +
             " has columns without an origin";
    }
    std::set<std::string> projected, part;
    for (size_t r = 0; r < rows; ++r) {
      std::vector<std::string> row;
      for (size_t o : origins[p]) {
        if (o >= n) return "part origin out of range in " + table.name();
        row.push_back(CellKey(table, r, o));
      }
      projected.insert(Join(row));
    }
    for (size_t r = 0; r < parts[p].num_rows(); ++r) {
      std::vector<std::string> row;
      for (size_t c = 0; c < parts[p].num_columns(); ++c) {
        row.push_back(CellKey(parts[p], r, c));
      }
      part.insert(Join(row));
    }
    if (part != projected) {
      return "BCNF part " + std::to_string(p) + " of " + table.name() +
             " has " + std::to_string(part.size()) +
             " distinct rows that differ from the table's projection (" +
             std::to_string(projected.size()) + " rows)";
    }
    for (size_t o : origins[p]) covered[o] = true;
  }
  for (size_t c = 0; c < n; ++c) {
    if (!covered[c]) {
      return "BCNF parts of " + table.name() + " lose column " +
             std::to_string(c);
    }
  }
  // The chase: a tableau row per part, distinguished symbol 0 on the
  // part's columns; two rows that agree on X get equal symbols in A when
  // X -> A holds on the table (checked here by grouping its rows). The
  // join of projections is lossless when some row becomes all 0.
  // Joining the parts instead can blow up on intermediate results.
  std::map<std::pair<std::vector<bool>, size_t>, bool> memo;
  const auto holds = [&](const std::vector<bool>& lhs, size_t rhs) {
    const auto [it, inserted] = memo.emplace(std::make_pair(lhs, rhs), true);
    if (!inserted) return it->second;
    std::unordered_map<std::string, uint32_t> rhs_of;
    for (size_t r = 0; r < rows && it->second; ++r) {
      std::string key;
      for (size_t c = 0; c < n; ++c) {
        if (!lhs[c]) continue;
        const uint32_t code = table.column(c).code(r);
        key.append(reinterpret_cast<const char*>(&code), sizeof(code));
      }
      const uint32_t value = table.column(rhs).code(r);
      const auto [at, fresh] = rhs_of.emplace(std::move(key), value);
      if (!fresh && at->second != value) it->second = false;
    }
    return it->second;
  };
  const size_t k = parts.size();
  std::vector<std::vector<size_t>> sym(k, std::vector<size_t>(n));
  for (size_t p = 0; p < k; ++p) {
    for (size_t c = 0; c < n; ++c) sym[p][c] = 1 + p * n + c;
    for (size_t o : origins[p]) sym[p][o] = 0;
  }
  for (bool changed = true; changed;) {
    changed = false;
    for (size_t a = 0; a < k; ++a) {
      for (size_t b = a + 1; b < k; ++b) {
        std::vector<bool> agree(n);
        for (size_t c = 0; c < n; ++c) agree[c] = sym[a][c] == sym[b][c];
        for (size_t c = 0; c < n; ++c) {
          if (agree[c] || !holds(agree, c)) continue;
          const size_t keep = std::min(sym[a][c], sym[b][c]);
          const size_t drop = std::max(sym[a][c], sym[b][c]);
          for (auto& row : sym) {
            if (row[c] == drop) row[c] = keep;
          }
          changed = true;
        }
      }
    }
  }
  for (const auto& row : sym) {
    if (std::all_of(row.begin(), row.end(), [](size_t s) { return s == 0; })) {
      return "";
    }
  }
  return "BCNF parts of " + table.name() +
         " do not join back losslessly: the chase over the FDs that hold "
         "on the table leaves no row all distinguished";
}

std::string CheckJoinPairs(const std::vector<Table>& tables,
                           const std::vector<ogdp::join::ColumnRef>& sampled,
                           const std::vector<ogdp::join::JoinablePair>& reported,
                           double threshold, size_t min_unique) {
  using ogdp::join::ColumnRef;
  std::vector<ColumnRef> eligible;
  for (size_t t = 0; t < tables.size(); ++t) {
    for (size_t c = 0; c < tables[t].num_columns(); ++c) {
      if (tables[t].column(c).distinct_count() >= min_unique) {
        eligible.push_back(ColumnRef{t, c});
      }
    }
  }
  const std::set<ColumnRef> sample_set(sampled.begin(), sampled.end());
  std::map<std::pair<ColumnRef, ColumnRef>, double> expected, got;
  for (const ColumnRef& s : sampled) {
    const Column& a = tables[s.table].column(s.column);
    if (a.distinct_count() < min_unique) {
      return "sampled column is not eligible";
    }
    const auto values = ValueSet(a);
    const double na = static_cast<double>(a.distinct_count());
    for (const ColumnRef& o : eligible) {
      if (o.table == s.table) continue;
      const Column& b = tables[o.table].column(o.column);
      const double nb = static_cast<double>(b.distinct_count());
      // J <= min/max, so a size ratio below the threshold rules a pair out.
      if (std::min(na, nb) < threshold * std::max(na, nb)) continue;
      size_t inter = 0;
      for (const std::string& v : b.dictionary()) inter += values.count(v);
      const size_t uni = a.distinct_count() + b.distinct_count() - inter;
      const double j = static_cast<double>(inter) / static_cast<double>(uni);
      if (j >= threshold) {
        expected[{std::min(s, o), std::max(s, o)}] = j;
      }
    }
  }
  for (const auto& p : reported) {
    if (sample_set.count(p.a) || sample_set.count(p.b)) {
      got[{std::min(p.a, p.b), std::max(p.a, p.b)}] = p.jaccard;
    }
  }
  if (got.size() != expected.size()) {
    return "joinable pairs of the sampled columns: exact search finds " +
           std::to_string(expected.size()) + ", finder reports " +
           std::to_string(got.size());
  }
  for (const auto& [pair, j] : expected) {
    const auto it = got.find(pair);
    if (it == got.end()) return "finder misses a joinable pair";
    if (it->second != j) return "finder reports a wrong Jaccard";
  }
  return "";
}

std::string CheckUnionableCount(const std::vector<Table>& tables,
                                size_t reported_unionable) {
  std::map<std::vector<std::pair<std::string, int>>, size_t> groups;
  for (const Table& t : tables) {
    std::vector<std::pair<std::string, int>> schema;
    for (size_t c = 0; c < t.num_columns(); ++c) {
      schema.emplace_back(Normalize(t.column(c).name()),
                          static_cast<int>(t.column(c).type()));
    }
    ++groups[schema];
  }
  size_t unionable = 0;
  for (const auto& [schema, count] : groups) {
    if (count >= 2) unionable += count;
  }
  if (unionable == reported_unionable) return "";
  return "schema grouping finds " + std::to_string(unionable) +
         " unionable tables, UnionReport " +
         std::to_string(reported_unionable);
}

// ---------------------------------------------------------------- recrawl

std::string CompareAnalyses(const ogdp::core::PortalAnalysis& a,
                            const ogdp::core::PortalAnalysis& b) {
  const auto render = [](const ogdp::core::PortalAnalysis& x) {
    const std::string full = ogdp::core::RenderPortalAnalysis(x, false);
    std::string out;
    size_t start = 0;
    while (start < full.size()) {
      size_t end = full.find('\n', start);
      if (end == std::string::npos) end = full.size();
      const std::string_view line(full.data() + start, end - start);
      if (line.find("FD memory governor") == std::string_view::npos &&
          line.find("FD partition declines") == std::string_view::npos) {
        out.append(line);
        out += '\n';
      }
      start = end + 1;
    }
    return out;
  };
  std::vector<std::string> diffs = {
      Mismatch("rendered results", render(a), render(b)),
      Mismatch("degraded", a.degraded, b.degraded),
      Mismatch("size.total_tables", a.size.total_tables, b.size.total_tables),
      Mismatch("size.readable_tables", a.size.readable_tables,
               b.size.readable_tables),
      Mismatch("size.total_columns", a.size.total_columns,
               b.size.total_columns),
      Mismatch("size.total_bytes", a.size.total_bytes, b.size.total_bytes),
      Mismatch("size.table_bytes_sorted", a.size.table_bytes_sorted,
               b.size.table_bytes_sorted),
      Mismatch("keys", std::array{a.keys.size1, a.keys.size2, a.keys.size3,
                                  a.keys.none, a.keys.total},
               std::array{b.keys.size1, b.keys.size2, b.keys.size3,
                          b.keys.none, b.keys.total}),
      Mismatch("fds.tables_with_fd", a.fds.tables_with_fd,
               b.fds.tables_with_fd),
      Mismatch("fds.tables_with_lhs1_fd", a.fds.tables_with_lhs1_fd,
               b.fds.tables_with_lhs1_fd),
      Mismatch("fds.decomposition_counts", a.fds.decomposition_counts,
               b.fds.decomposition_counts),
      Mismatch("fds.avg_uniqueness_gain", a.fds.avg_uniqueness_gain,
               b.fds.avg_uniqueness_gain),
      Mismatch("joins.total_pairs", a.joins.total_pairs,
               b.joins.total_pairs),
      Mismatch("joins.joinable_columns", a.joins.joinable_columns,
               b.joins.joinable_columns),
      Mismatch("joins.expansion_ratios", a.joins.expansion_ratios,
               b.joins.expansion_ratios),
      Mismatch("labeled_joins", a.labeled_joins.size(),
               b.labeled_joins.size()),
      Mismatch("unions.unionable_tables", a.unions.unionable_tables,
               b.unions.unionable_tables),
      Mismatch("unions.unique_schemas", a.unions.unique_schemas,
               b.unions.unique_schemas),
      Mismatch("unions.labeled_sample", a.unions.labeled_sample.size(),
               b.unions.labeled_sample.size()),
  };
  for (size_t i = 0;
       i < std::min(a.labeled_joins.size(), b.labeled_joins.size()); ++i) {
    if (a.labeled_joins[i].label != b.labeled_joins[i].label ||
        a.labeled_joins[i].expansion_ratio !=
            b.labeled_joins[i].expansion_ratio) {
      diffs.push_back("labeled join " + std::to_string(i) + " differs");
      break;
    }
  }
  std::string out;
  for (const std::string& d : diffs) {
    if (!d.empty()) out += (out.empty() ? "" : "; ") + d;
  }
  return out;
}

std::string CheckRestart(const ogdp::core::PortalAnalysis& before,
                         const ogdp::core::PortalAnalysis& after,
                         const ogdp::core::IncrementalStats& stats,
                         const ogdp::core::DurableStoreStats& durable) {
  const std::string diff = CompareAnalyses(before, after);
  if (!diff.empty()) return "restart changed the result: " + diff;
  if (stats.fd_recomputed != 0) {
    return "restart recomputed " + std::to_string(stats.fd_recomputed) +
           " FD outcomes";
  }
  if (durable.quarantined != 0) {
    return "restart quarantined " + std::to_string(durable.quarantined) +
           " records";
  }
  return "";
}

std::string CheckEpochAccounting(const ogdp::core::IncrementalResult& result) {
  const size_t tables = result.bundle.ingest.tables.size();
  if (result.stats.tables_clean + result.stats.tables_dirty == tables) {
    return "";
  }
  return "epoch " + std::to_string(result.stats.epoch) + ": clean " +
         std::to_string(result.stats.tables_clean) + " + dirty " +
         std::to_string(result.stats.tables_dirty) + " != " +
         std::to_string(tables) + " tables";
}

// ----------------------------------------------------------------- search

std::string CompareServed(const ogdp::serve::JoinResult& s,
                          const ogdp::serve::JoinResult& r) {
  if (s.hits.size() != r.hits.size() || s.truncated != r.truncated) {
    return "join answer differs from the brute-force reference";
  }
  for (size_t i = 0; i < s.hits.size(); ++i) {
    const auto& x = s.hits[i];
    const auto& y = r.hits[i];
    if (x.query_column != y.query_column || x.match != y.match ||
        x.jaccard != y.jaccard || x.score != y.score) {
      return "join hit " + std::to_string(i) +
             " differs from the brute-force reference";
    }
  }
  return "";
}

std::string CompareServed(const ogdp::serve::UnionResult& s,
                          const ogdp::serve::UnionResult& r) {
  if (s.hits.size() != r.hits.size() || s.truncated != r.truncated) {
    return "union answer differs from the brute-force reference";
  }
  for (size_t i = 0; i < s.hits.size(); ++i) {
    const auto& x = s.hits[i];
    const auto& y = r.hits[i];
    if (x.table != y.table || x.similarity != y.similarity ||
        x.exact != y.exact) {
      return "union hit " + std::to_string(i) +
             " differs from the brute-force reference";
    }
  }
  return "";
}

std::string CompareServed(const ogdp::serve::KeywordResult& s,
                          const ogdp::serve::KeywordResult& r) {
  if (s.hits.size() != r.hits.size() || s.truncated != r.truncated) {
    return "keyword answer differs from the brute-force reference";
  }
  for (size_t i = 0; i < s.hits.size(); ++i) {
    if (s.hits[i].table != r.hits[i].table ||
        s.hits[i].score != r.hits[i].score) {
      return "keyword hit " + std::to_string(i) +
             " differs from the brute-force reference";
    }
  }
  return "";
}

std::string CheckJoinHitJaccards(const std::vector<Table>& tables,
                                 const ogdp::serve::JoinResult& result,
                                 double threshold) {
  for (const auto& hit : result.hits) {
    const Column& a =
        tables[hit.query_column.table].column(hit.query_column.column);
    const Column& b = tables[hit.match.table].column(hit.match.column);
    const double j = ExactJaccard(a, b);
    if (j != hit.jaccard) {
      return "join hit reports Jaccard " + std::to_string(hit.jaccard) +
             ", the columns' values give " + std::to_string(j);
    }
    if (j < threshold) return "join hit below the Jaccard threshold";
  }
  return "";
}

std::string CheckEpoch(uint64_t answer_epoch, uint64_t published_epoch) {
  if (answer_epoch == published_epoch) return "";
  return "answer carries epoch " + std::to_string(answer_epoch) +
         " after epoch " + std::to_string(published_epoch) +
         " was published";
}

}  // namespace perfbench
