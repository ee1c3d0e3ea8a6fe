// Typed columns for the column store (store/table.hpp) — the paper's lead
// motivation: "column-oriented databases represent relations by storing
// individually each column as a sequence; if each column is indexed,
// efficient operations on the relations are possible."
//
// Two column types, each a thin façade over a paper structure:
//
//   StringColumn — the unified API facade wtrie::Sequence under the
//     AppendOnly policy (Theorem 4.3) with the ByteCodec: O(|s| + h_s)
//     appends while streaming rows in, prefix filters
//     (RankPrefix/SelectPrefix) and the Section 5 analytics (distinct /
//     majority / frequent / sequential scan) per time range, plus
//     whole-column persistence through the facade's versioned Save/Load.
//
//   IntColumn — the Section 6 probabilistically-balanced dynamic Wavelet
//     Tree: 64-bit universe, working alphabet discovered on the fly,
//     equality count/select/distinct in O(log sigma) w.h.p. Value-*range*
//     predicates are deliberately absent: the randomizing hash that buys
//     balance destroys value order (Section 6 gives up prefix operations,
//     and numeric ranges are the prefix operations of fixed-width integers).
//
// Columns trust their own invariants (Table clamps windows before calling),
// so they unwrap the facade's Result values; the recoverable-error surface
// for untrusted input is wtrie::Sequence itself.
#pragma once

#include <cstdint>
#include <istream>
#include <map>
#include <optional>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "api/sequence.hpp"
#include "common/assert.hpp"
#include "core/balanced_wavelet_tree.hpp"

namespace wt {

/// Append-only string column over a Wavelet Trie. Row positions double as
/// timestamps (arrival order), so [l, r) selects a time window.
class StringColumn {
 public:
  using Sequence = wtrie::Sequence<wtrie::AppendOnly, ByteCodec>;

  StringColumn() = default;

  void Append(const std::string& value) {
    const wtrie::Status s = seq_.Append(value);
    WT_ASSERT_MSG(s.ok(), "StringColumn: append failed");
  }

  /// Bulk ingest: one word-parallel trie pass for the whole batch.
  void AppendBatch(const std::vector<std::string>& values) {
    const wtrie::Status s = seq_.AppendBatch(values);
    WT_ASSERT_MSG(s.ok(), "StringColumn: batch append failed");
  }

  size_t size() const { return seq_.size(); }
  size_t NumDistinct() const { return seq_.NumDistinct(); }

  std::string Get(size_t row) const { return seq_.Access(row).value(); }

  /// Rows in [l, r) equal to `value`.
  size_t CountEquals(const std::string& value, size_t l, size_t r) const {
    return seq_.RangeCount(value, l, r).value();
  }

  /// Rows in [l, r) whose value starts with `prefix`.
  size_t CountPrefix(const std::string& prefix, size_t l, size_t r) const {
    return seq_.RangeCountPrefix(prefix, l, r).value();
  }

  /// Global row of the (k+1)-th occurrence of `value`.
  std::optional<size_t> SelectEquals(const std::string& value, size_t k) const {
    const auto row = seq_.Select(value, k);
    if (!row.ok()) return std::nullopt;
    return row.value();
  }

  /// Global row of the (k+1)-th row matching `prefix`.
  std::optional<size_t> SelectPrefix(const std::string& prefix, size_t k) const {
    const auto row = seq_.SelectPrefix(prefix, k);
    if (!row.ok()) return std::nullopt;
    return row.value();
  }

  /// All rows in [l, r) matching `prefix`, via repeated SelectPrefix.
  std::vector<size_t> RowsWithPrefix(const std::string& prefix, size_t l,
                                     size_t r) const {
    std::vector<size_t> rows;
    const size_t skip = seq_.RankPrefix(prefix, l).value();
    for (size_t k = skip;; ++k) {
      const auto row = SelectPrefix(prefix, k);
      if (!row || *row >= r) break;
      rows.push_back(*row);
    }
    return rows;
  }

  /// Distinct values with multiplicities in [l, r) (Section 5).
  std::map<std::string, size_t> GroupCount(size_t l, size_t r) const {
    std::map<std::string, size_t> out;
    auto cur = seq_.Distinct(l, r).value();
    while (cur.Next()) out[cur.value()] = cur.count();
    return out;
  }

  /// Distinct values with `prefix` in [l, r), with counts (Section 5's
  /// "distinct hostnames in a given time range").
  std::map<std::string, size_t> GroupCountWithPrefix(const std::string& prefix,
                                                     size_t l, size_t r) const {
    std::map<std::string, size_t> out;
    auto cur = seq_.DistinctWithPrefix(prefix, l, r).value();
    while (cur.Next()) out[cur.value()] = cur.count();
    return out;
  }

  /// Majority value of [l, r), if one exists (Section 5).
  std::optional<std::pair<std::string, size_t>> Majority(size_t l,
                                                         size_t r) const {
    const auto m = seq_.Majority(l, r);
    if (!m.ok()) return std::nullopt;  // kNotFound: no majority in the window
    return m.value();
  }

  /// Values occurring at least `threshold` times in [l, r) (Section 5
  /// heuristic; exact output, pruned traversal).
  std::map<std::string, size_t> FrequentValues(size_t l, size_t r,
                                               size_t threshold) const {
    std::map<std::string, size_t> out;
    auto cur = seq_.Frequent(l, r, threshold).value();
    while (cur.Next()) out[cur.value()] = cur.count();
    return out;
  }

  /// Sequential scan of [l, r) — one Rank per trie node per cursor chunk
  /// (Section 5, "sequential access"). fn(size_t row, const std::string&).
  template <typename F>
  void Scan(size_t l, size_t r, const F& fn) const {
    auto cur = seq_.Scan(l, r).value();
    while (cur.Next()) fn(cur.position(), cur.value());
  }

  /// Whole-column persistence as the facade's image (Sequence::Save).
  wtrie::Status Save(std::ostream& out) const { return seq_.Save(out); }
  static wtrie::Result<StringColumn> Load(std::istream& in) {
    auto seq = Sequence::Load(in);
    if (!seq.ok()) return seq.status();
    StringColumn col;
    col.seq_ = std::move(seq).value();
    return col;
  }

  size_t SizeInBits() const { return seq_.SizeInBits(); }

  const Sequence& sequence() const { return seq_; }

 private:
  Sequence seq_;
};

/// Dynamic integer column over the Section 6 randomized Wavelet Tree:
/// equality predicates only (see header comment).
class IntColumn {
 public:
  explicit IntColumn(uint64_t seed = 0x5EEDC01DULL) : tree_(64, seed) {}

  void Append(uint64_t value) { tree_.Append(value); }

  size_t size() const { return tree_.size(); }
  size_t NumDistinct() const { return tree_.NumDistinct(); }

  uint64_t Get(size_t row) const { return tree_.Access(row); }

  size_t CountEquals(uint64_t value, size_t l, size_t r) const {
    return tree_.RangeCount(value, l, r);
  }

  std::optional<size_t> SelectEquals(uint64_t value, size_t k) const {
    return tree_.Select(value, k);
  }

  /// Distinct values in [l, r) with multiplicities. Order follows the
  /// hashed codes, so results are collected into a sorted map.
  std::map<uint64_t, size_t> GroupCount(size_t l, size_t r) const {
    std::map<uint64_t, size_t> out;
    tree_.trie().DistinctInRange(l, r, [&](const BitString& code, size_t c) {
      out[tree_.codec().Decode(code)] = c;
    });
    return out;
  }

  std::optional<std::pair<uint64_t, size_t>> Majority(size_t l, size_t r) const {
    const auto m = tree_.trie().RangeMajority(l, r);
    if (!m) return std::nullopt;
    // The majority descent can stop at a leaf only; its label is a full code.
    return std::make_pair(tree_.codec().Decode(m->first), m->second);
  }

  /// Persists the column as its decoded value sequence (extracted with the
  /// Section 5 sequential scan); Load replays the values through the hash
  /// codec, rediscovering the working alphabet.
  void Save(std::ostream& out) const {
    std::vector<uint64_t> values;
    values.reserve(tree_.size());
    tree_.trie().ForEachInRange(0, tree_.size(),
                                [&](size_t, const BitString& code) {
                                  values.push_back(tree_.codec().Decode(code));
                                });
    WriteVec(out, values);
  }
  void Load(std::istream& in) {
    WT_ASSERT_MSG(tree_.size() == 0, "IntColumn: Load into non-empty column");
    for (uint64_t v : ReadVec<uint64_t>(in)) tree_.Append(v);
  }

  size_t SizeInBits() const { return tree_.SizeInBits(); }

 private:
  BalancedWaveletTree tree_;
};

}  // namespace wt
