#ifndef DDGMS_TABLE_TABLE_H_
#define DDGMS_TABLE_TABLE_H_

#include <functional>
#include <string>
#include <vector>

#include "common/quarantine.h"
#include "common/result.h"
#include "table/column.h"
#include "table/schema.h"
#include "table/value.h"

namespace ddgms {

/// One logical row, materialized as dynamically typed values. Used at API
/// boundaries; scans use columnar access internally.
using Row = std::vector<Value>;

/// Options controlling CSV import.
struct CsvReadOptions {
  char delimiter = ',';
  bool has_header = true;
  /// Field spellings treated as null in addition to the empty string.
  std::vector<std::string> null_tokens = {"", "NA", "N/A", "null", "NULL",
                                          "?"};
  /// When true, column types are inferred (int64 -> double -> date -> bool
  /// -> string). When false, all columns are strings.
  bool infer_types = true;
  /// When non-empty, fixes the column types explicitly (must match the
  /// column count); takes precedence over infer_types. Used by loaders
  /// that persist schema alongside data.
  std::vector<DataType> column_types;
  /// kStrict (default) aborts the load on the first bad record, as
  /// historically. kLenient quarantines bad records — structural CSV
  /// errors, ragged rows, unparseable fields — into `quarantine` and
  /// loads everything else. In lenient mode column types are inferred
  /// by majority vote (so one corrupt field does not silently widen a
  /// numeric column to string); minority rows that fail the winning
  /// type are quarantined with the offending field named. Quarantine
  /// row numbers are 1-based physical record numbers in the document
  /// (the header is record 1).
  ErrorMode error_mode = ErrorMode::kStrict;
  /// Sink for lenient-mode quarantined rows. May be left null, in
  /// which case bad rows are still skipped but not itemised.
  QuarantineReport* quarantine = nullptr;
  /// When true, a quoted empty field ("" in the source) in a string
  /// column loads as an empty string instead of a null; bare empty
  /// fields stay nulls. Pairs with CsvWriteOptions.quote_empty_strings
  /// so empty strings survive a CSV round trip.
  bool quoted_empty_is_string = false;
};

/// Options controlling CSV export (Table::ToCsv).
struct CsvWriteOptions {
  char delimiter = ',';
  /// Write non-null empty string values as quoted "" so a reader with
  /// quoted_empty_is_string can tell them apart from nulls, which
  /// always serialize as bare empty fields.
  bool quote_empty_strings = false;
};

/// In-memory columnar table: a schema plus equally sized columns.
/// The OLTP substrate of the DD-DGMS: raw clinical extracts are loaded
/// here before transformation, and the baseline (no-warehouse) DGMS runs
/// its queries directly against Tables.
class Table {
 public:
  /// Empty table with no columns.
  Table() = default;

  /// Empty table with the given schema.
  explicit Table(Schema schema);

  /// Builds a table from a schema and rows.
  static Result<Table> FromRows(Schema schema,
                                const std::vector<Row>& rows);

  /// Parses CSV text into a table (see CsvReadOptions) in two passes
  /// over the bytes: the first checks each record's shape and infers
  /// the column types, the second parses every field straight into its
  /// typed column.
  static Result<Table> FromCsv(const std::string& text,
                               const CsvReadOptions& options = {});

  /// Reads a CSV file into a table.
  static Result<Table> FromCsvFile(const std::string& path,
                                   const CsvReadOptions& options = {});

  const Schema& schema() const { return schema_; }
  size_t num_columns() const { return columns_.size(); }
  size_t num_rows() const {
    return columns_.empty() ? 0 : columns_[0].size();
  }

  /// Column access by position.
  const ColumnVector& column(size_t i) const { return columns_[i]; }
  ColumnVector* mutable_column(size_t i) { return &columns_[i]; }

  /// Column access by name.
  Result<const ColumnVector*> ColumnByName(const std::string& name) const;
  Result<ColumnVector*> MutableColumnByName(const std::string& name);

  /// Appends a row; must have one value per column, with matching types.
  Status AppendRow(const Row& row);

  /// Materializes row `i`.
  Row GetRow(size_t i) const;

  /// Reads one cell.
  Result<Value> GetCell(size_t row, const std::string& column) const;

  /// Writes one cell.
  Status SetCell(size_t row, const std::string& column, const Value& value);

  /// Appends a fully built column; must match num_rows() (or the table
  /// must be empty of columns).
  Status AddColumn(ColumnVector column);

  /// Removes a column by name.
  Status DropColumn(const std::string& name);

  /// Renames a column.
  Status RenameColumn(const std::string& from, const std::string& to);

  /// New table with only the given columns, in the given order.
  Result<Table> Project(const std::vector<std::string>& columns) const;

  /// New table with the rows at `indices`, in order.
  Table Take(const std::vector<size_t>& indices) const;

  /// Indices of rows for which `pred` returns true.
  std::vector<size_t> MatchingRows(
      const std::function<bool(const Table&, size_t)>& pred) const;

  /// New table with rows matching `pred`.
  Table Filter(const std::function<bool(const Table&, size_t)>& pred) const;

  /// New table sorted by the given columns (lexicographic). `ascending`
  /// applies to all keys; nulls sort first. Stable.
  Result<Table> SortBy(const std::vector<std::string>& keys,
                       bool ascending = true) const;

  /// Appends all rows of `other` column by column; schemas must match
  /// exactly. `other` may be this table.
  Status Concat(const Table& other);

  /// The error Concat(other) would return, without appending anything.
  Status CheckConcat(const Table& other) const;

  /// Serializes to CSV (header + rows).
  std::string ToCsv(char delimiter = ',') const {
    CsvWriteOptions options;
    options.delimiter = delimiter;
    return ToCsv(options);
  }
  std::string ToCsv(const CsvWriteOptions& options) const;

  /// Pretty-prints the first `max_rows` rows as an aligned text grid.
  std::string ToPrettyString(size_t max_rows = 20) const;

  /// Estimated heap footprint: sum of ColumnVector::ApproxBytes().
  uint64_t ApproxBytes() const;

 private:
  Schema schema_;
  std::vector<ColumnVector> columns_;
};

}  // namespace ddgms

#endif  // DDGMS_TABLE_TABLE_H_
