// Table: a miniature column store assembled from the paper's structures —
// the "column-oriented databases" application of Section 1. Each column is
// independently indexed (store/column.hpp); rows are append-only and the row
// index doubles as the timestamp, so every predicate takes an optional
// [from, to) time window exactly like the paper's log-analytics examples
// ("what has been the most accessed domain during winter vacation?").
//
// Supported queries (all compressed-index native, no scans unless noted):
//   * point row reconstruction across columns;
//   * equality / prefix counting per window;
//   * row retrieval by prefix predicate (SelectPrefix iteration);
//   * conjunctive filters across columns (probe the rarer predicate, verify
//     the other — a classic column-store plan);
//   * group-by counts, top-k, majority and >= t frequent values per window.
#pragma once

#include <algorithm>
#include <cstdint>
#include <istream>
#include <map>
#include <memory>
#include <optional>
#include <ostream>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "common/assert.hpp"
#include "common/serialize.hpp"
#include "store/column.hpp"

namespace wt {

enum class ColumnType { kString, kInt };

struct ColumnSpec {
  std::string name;
  ColumnType type;
};

/// A typed cell value for row ingestion and reconstruction.
using CellValue = std::variant<std::string, uint64_t>;

class Table {
 public:
  explicit Table(std::vector<ColumnSpec> schema) : schema_(std::move(schema)) {
    WT_ASSERT_MSG(!schema_.empty(), "Table: empty schema");
    for (const auto& spec : schema_) {
      if (spec.type == ColumnType::kString) {
        string_cols_.push_back(std::make_unique<StringColumn>());
        col_index_.push_back({ColumnType::kString, string_cols_.size() - 1});
      } else {
        int_cols_.push_back(std::make_unique<IntColumn>());
        col_index_.push_back({ColumnType::kInt, int_cols_.size() - 1});
      }
    }
  }

  const std::vector<ColumnSpec>& schema() const { return schema_; }
  size_t num_rows() const { return rows_; }
  size_t num_columns() const { return schema_.size(); }

  /// Appends one row; `cells` must match the schema arity and types.
  void AppendRow(const std::vector<CellValue>& cells) {
    WT_ASSERT_MSG(cells.size() == schema_.size(), "Table: arity mismatch");
    for (size_t c = 0; c < cells.size(); ++c) {
      const auto [type, idx] = col_index_[c];
      if (type == ColumnType::kString) {
        WT_ASSERT_MSG(std::holds_alternative<std::string>(cells[c]),
                      "Table: expected string cell");
        string_cols_[idx]->Append(std::get<std::string>(cells[c]));
      } else {
        WT_ASSERT_MSG(std::holds_alternative<uint64_t>(cells[c]),
                      "Table: expected integer cell");
        int_cols_[idx]->Append(std::get<uint64_t>(cells[c]));
      }
    }
    ++rows_;
  }

  /// Reconstructs row `row` across all columns (an Access per column).
  std::vector<CellValue> GetRow(size_t row) const {
    WT_ASSERT(row < rows_);
    std::vector<CellValue> out;
    out.reserve(schema_.size());
    for (size_t c = 0; c < schema_.size(); ++c) {
      const auto [type, idx] = col_index_[c];
      if (type == ColumnType::kString) {
        out.emplace_back(string_cols_[idx]->Get(row));
      } else {
        out.emplace_back(int_cols_[idx]->Get(row));
      }
    }
    return out;
  }

  // ------------------------------------------------------------- predicates

  /// Rows in [from, to) where string column `col` == value.
  size_t CountEquals(std::string_view col, const std::string& value,
                     size_t from = 0, size_t to = SIZE_MAX) const {
    const auto [l, r] = Window(from, to);
    return StringCol(col).CountEquals(value, l, r);
  }

  size_t CountEquals(std::string_view col, uint64_t value, size_t from = 0,
                     size_t to = SIZE_MAX) const {
    const auto [l, r] = Window(from, to);
    return IntCol(col).CountEquals(value, l, r);
  }

  /// Rows in [from, to) where string column `col` starts with `prefix`.
  size_t CountPrefix(std::string_view col, const std::string& prefix,
                     size_t from = 0, size_t to = SIZE_MAX) const {
    const auto [l, r] = Window(from, to);
    return StringCol(col).CountPrefix(prefix, l, r);
  }

  /// Row ids in [from, to) where `col` starts with `prefix`.
  std::vector<size_t> RowsWithPrefix(std::string_view col,
                                     const std::string& prefix, size_t from = 0,
                                     size_t to = SIZE_MAX) const {
    const auto [l, r] = Window(from, to);
    return StringCol(col).RowsWithPrefix(prefix, l, r);
  }

  /// Conjunction: rows in the window where `prefix_col` starts with `prefix`
  /// AND `eq_col` == value. Probes the prefix index, verifies the equality
  /// column — the standard "filter on the selective predicate first" plan.
  std::vector<size_t> RowsWherePrefixAndEquals(
      std::string_view prefix_col, const std::string& prefix,
      std::string_view eq_col, const CellValue& value, size_t from = 0,
      size_t to = SIZE_MAX) const {
    std::vector<size_t> rows = RowsWithPrefix(prefix_col, prefix, from, to);
    const auto [type, idx] = col_index_[ColumnIndex(eq_col)];
    std::vector<size_t> out;
    for (size_t row : rows) {
      if (type == ColumnType::kString) {
        if (string_cols_[idx]->Get(row) == std::get<std::string>(value)) {
          out.push_back(row);
        }
      } else {
        if (int_cols_[idx]->Get(row) == std::get<uint64_t>(value)) {
          out.push_back(row);
        }
      }
    }
    return out;
  }

  // -------------------------------------------------------------- analytics

  /// Distinct values with counts for a string column in the window.
  std::map<std::string, size_t> GroupCount(std::string_view col,
                                           size_t from = 0,
                                           size_t to = SIZE_MAX) const {
    const auto [l, r] = Window(from, to);
    return StringCol(col).GroupCount(l, r);
  }

  /// The k most frequent values of string column `col` in the window,
  /// most-frequent first (ties broken by value).
  std::vector<std::pair<std::string, size_t>> TopK(std::string_view col,
                                                   size_t k, size_t from = 0,
                                                   size_t to = SIZE_MAX) const {
    const auto groups = GroupCount(col, from, to);
    std::vector<std::pair<std::string, size_t>> items(groups.begin(),
                                                      groups.end());
    std::sort(items.begin(), items.end(), [](const auto& a, const auto& b) {
      if (a.second != b.second) return a.second > b.second;
      return a.first < b.first;
    });
    if (items.size() > k) items.resize(k);
    return items;
  }

  /// Majority value of string column `col` in the window, if any.
  std::optional<std::pair<std::string, size_t>> Majority(
      std::string_view col, size_t from = 0, size_t to = SIZE_MAX) const {
    const auto [l, r] = Window(from, to);
    return StringCol(col).Majority(l, r);
  }

  /// Values of `col` occurring at least `threshold` times in the window.
  std::map<std::string, size_t> FrequentValues(std::string_view col,
                                               size_t threshold, size_t from = 0,
                                               size_t to = SIZE_MAX) const {
    const auto [l, r] = Window(from, to);
    return StringCol(col).FrequentValues(l, r, threshold);
  }

  // ------------------------------------------------------------ persistence

  static constexpr uint64_t kMagic = 0x575454424C453031ull;  // "WTTBLE01"
  static constexpr uint32_t kFormatVersion = 2;  // v2: columns are images

  /// Whole-table persistence: schema, row count, then every column —
  /// string columns as the facade's canonical static image, integer
  /// columns as their decoded value sequence — all inside one checksummed
  /// outer envelope.
  wtrie::Status Save(std::ostream& out) const {
    std::ostringstream payload;
    WritePod<uint64_t>(payload, schema_.size());
    for (const auto& spec : schema_) {
      WritePod<uint8_t>(payload, spec.type == ColumnType::kString ? 0 : 1);
      WritePod<uint64_t>(payload, spec.name.size());
      payload.write(spec.name.data(),
                    static_cast<std::streamsize>(spec.name.size()));
    }
    WritePod<uint64_t>(payload, rows_);
    for (size_t c = 0; c < schema_.size(); ++c) {
      const auto [type, idx] = col_index_[c];
      if (type == ColumnType::kString) {
        const wtrie::Status s = string_cols_[idx]->Save(payload);
        if (!s.ok()) return s;
      } else {
        int_cols_[idx]->Save(payload);
      }
    }
    VersionedEnvelope::Write(out, kMagic, kFormatVersion, 0,
                             std::move(payload).str());
    if (!out.good()) {
      return wtrie::Status::Error(wtrie::ErrorCode::kIoError,
                                  "Table::Save: stream write failed");
    }
    return wtrie::Status::Ok();
  }

  static wtrie::Result<Table> Load(std::istream& in) {
    uint32_t tag = 0;
    std::string payload;
    const wtrie::Status env = wtrie::StatusFromEnvelopeError(
        VersionedEnvelope::Read(in, kMagic, kFormatVersion, &tag, &payload));
    if (!env.ok()) return env;
    std::istringstream body(payload);
    const uint64_t num_cols = ReadPod<uint64_t>(body);
    std::vector<ColumnSpec> schema;
    schema.reserve(num_cols);
    for (uint64_t c = 0; c < num_cols; ++c) {
      const uint8_t type = ReadPod<uint8_t>(body);
      const uint64_t len = ReadPod<uint64_t>(body);
      std::string name(len, '\0');
      body.read(name.data(), static_cast<std::streamsize>(len));
      schema.push_back(
          {std::move(name), type == 0 ? ColumnType::kString : ColumnType::kInt});
    }
    Table table(std::move(schema));
    table.rows_ = ReadPod<uint64_t>(body);
    for (size_t c = 0; c < table.schema_.size(); ++c) {
      const auto [type, idx] = table.col_index_[c];
      if (type == ColumnType::kString) {
        auto col = StringColumn::Load(body);
        if (!col.ok()) return col.status();
        *table.string_cols_[idx] = std::move(col).value();
      } else {
        table.int_cols_[idx]->Load(body);
      }
    }
    return table;
  }

  // ------------------------------------------------------------------ admin

  /// Compressed footprint of one column, in bits.
  size_t ColumnSizeInBits(std::string_view col) const {
    const auto [type, idx] = col_index_[ColumnIndex(col)];
    return type == ColumnType::kString ? string_cols_[idx]->SizeInBits()
                                       : int_cols_[idx]->SizeInBits();
  }

  size_t SizeInBits() const {
    size_t bits = 8 * sizeof(*this);
    for (const auto& c : string_cols_) bits += c->SizeInBits();
    for (const auto& c : int_cols_) bits += c->SizeInBits();
    return bits;
  }

  const StringColumn& StringCol(std::string_view name) const {
    const auto [type, idx] = col_index_[ColumnIndex(name)];
    WT_ASSERT_MSG(type == ColumnType::kString, "Table: not a string column");
    return *string_cols_[idx];
  }

  const IntColumn& IntCol(std::string_view name) const {
    const auto [type, idx] = col_index_[ColumnIndex(name)];
    WT_ASSERT_MSG(type == ColumnType::kInt, "Table: not an integer column");
    return *int_cols_[idx];
  }

 private:
  size_t ColumnIndex(std::string_view name) const {
    for (size_t c = 0; c < schema_.size(); ++c) {
      if (schema_[c].name == name) return c;
    }
    WT_ASSERT_MSG(false, "Table: unknown column");
    return 0;
  }

  /// Clamps a [from, to) request to the current row count.
  std::pair<size_t, size_t> Window(size_t from, size_t to) const {
    const size_t r = std::min(to, rows_);
    return {std::min(from, r), r};
  }

  std::vector<ColumnSpec> schema_;
  std::vector<std::pair<ColumnType, size_t>> col_index_;  // per schema column
  std::vector<std::unique_ptr<StringColumn>> string_cols_;
  std::vector<std::unique_ptr<IntColumn>> int_cols_;
  size_t rows_ = 0;
};

}  // namespace wt
