#include "table/table.h"

#include <algorithm>
#include <cassert>
#include <map>
#include <numeric>
#include <sstream>

#include "common/csv.h"
#include "common/faults.h"
#include "common/strings.h"

namespace ddgms {

namespace {

bool IsNullToken(const std::string& field,
                 const std::vector<std::string>& null_tokens) {
  for (const std::string& tok : null_tokens) {
    if (field == tok) return true;
  }
  return false;
}

// Type inference lattice for CSV import: a column starts as the most
// specific type its first non-null field supports and widens as needed.
DataType InferFieldType(const std::string& field) {
  if (ParseInt64(field).ok()) return DataType::kInt64;
  if (ParseDouble(field).ok()) return DataType::kDouble;
  if (Date::FromString(field).ok()) return DataType::kDate;
  std::string lower = ToLower(field);
  if (lower == "true" || lower == "false") return DataType::kBool;
  return DataType::kString;
}

// Widening rule: int64 -> double -> string; everything else -> string on
// conflict.
DataType WidenType(DataType a, DataType b) {
  if (a == b) return a;
  if ((a == DataType::kInt64 && b == DataType::kDouble) ||
      (a == DataType::kDouble && b == DataType::kInt64)) {
    return DataType::kDouble;
  }
  return DataType::kString;
}

// Preference order when majority-vote type inference ties: wider wins
// so fewer rows quarantine.
int TypeWideness(DataType type) {
  switch (type) {
    case DataType::kInt64:
      return 0;
    case DataType::kDouble:
      return 1;
    case DataType::kDate:
      return 2;
    case DataType::kBool:
      return 3;
    default:
      return 4;  // kString and anything else
  }
}

// Lenient-mode inference: per column, the most common specific type
// among non-null fields wins (ties go to the wider type), so a few
// corrupt fields quarantine their rows instead of silently widening
// the whole column to string. An int64 winner is promoted to double
// whenever any double votes exist, since ints parse as doubles anyway.
DataType InferTypeByMajority(const std::map<DataType, size_t>& votes) {
  if (votes.empty()) return DataType::kString;
  DataType best = DataType::kString;
  size_t best_count = 0;
  for (const auto& [type, count] : votes) {
    if (count > best_count ||
        (count == best_count &&
         TypeWideness(type) > TypeWideness(best))) {
      best = type;
      best_count = count;
    }
  }
  if (best == DataType::kInt64 && votes.count(DataType::kDouble) > 0) {
    return DataType::kDouble;
  }
  return best;
}

Result<Value> ParseTypedField(const std::string& field, DataType type) {
  switch (type) {
    case DataType::kBool: {
      DDGMS_ASSIGN_OR_RETURN(bool b, ParseBool(field));
      return Value::Bool(b);
    }
    case DataType::kInt64: {
      DDGMS_ASSIGN_OR_RETURN(int64_t i, ParseInt64(field));
      return Value::Int(i);
    }
    case DataType::kDouble: {
      DDGMS_ASSIGN_OR_RETURN(double d, ParseDouble(field));
      return Value::Real(d);
    }
    case DataType::kDate: {
      DDGMS_ASSIGN_OR_RETURN(Date d, Date::FromString(field));
      return Value::FromDate(d);
    }
    case DataType::kString:
      return Value::Str(field);
    case DataType::kNull:
      break;
  }
  return Status::Internal("bad field type");
}

}  // namespace

Table::Table(Schema schema) : schema_(std::move(schema)) {
  columns_.reserve(schema_.num_fields());
  for (const Field& f : schema_.fields()) {
    columns_.emplace_back(f.name, f.type);
  }
}

Result<Table> Table::FromRows(Schema schema, const std::vector<Row>& rows) {
  Table table(std::move(schema));
  for (const Row& row : rows) {
    DDGMS_RETURN_IF_ERROR(table.AppendRow(row));
  }
  return table;
}

Result<Table> Table::FromCsv(const std::string& text,
                             const CsvReadOptions& options) {
  DDGMS_FAULT_POINT("table.from_csv");
  const bool lenient = options.error_mode == ErrorMode::kLenient;
  // In lenient mode all skipped rows flow into a sink; callers that
  // pass none still get well-defined (skip, don't fail) behaviour.
  QuarantineReport local_sink;
  QuarantineReport* quarantine =
      options.quarantine != nullptr ? options.quarantine : &local_sink;

  std::vector<CsvRecord> records;
  if (lenient) {
    DDGMS_ASSIGN_OR_RETURN(
        records, ParseCsvLenient(text, options.delimiter, quarantine));
  } else {
    DDGMS_ASSIGN_OR_RETURN(CsvDocument doc,
                           ParseCsvDocument(text, options.delimiter));
    records.reserve(doc.rows.size());
    for (size_t r = 0; r < doc.rows.size(); ++r) {
      records.push_back(CsvRecord{r + 1, std::move(doc.rows[r]),
                                  std::move(doc.quoted_empty[r])});
    }
  }
  if (records.empty()) {
    return Status::InvalidArgument("CSV input is empty");
  }
  std::vector<std::string> names;
  size_t first_data_row = 0;
  if (options.has_header) {
    names = records[0].fields;
    first_data_row = 1;
  } else {
    names.reserve(records[0].fields.size());
    for (size_t i = 0; i < records[0].fields.size(); ++i) {
      names.push_back(StrFormat("col%zu", i));
    }
  }
  const size_t num_cols = names.size();
  {
    size_t kept = first_data_row;
    for (size_t r = first_data_row; r < records.size(); ++r) {
      if (records[r].fields.size() == num_cols) {
        if (kept != r) records[kept] = std::move(records[r]);
        ++kept;
        continue;
      }
      Status bad = Status::ParseError(
          StrFormat("row %zu has %zu fields; expected %zu", r,
                    records[r].fields.size(), num_cols));
      if (!lenient) return bad;
      quarantine->Add("csv-ingest", records[r].record_number, /*field=*/"",
                      std::move(bad),
                      TruncateForQuarantine(FormatCsvLine(
                          records[r].fields, options.delimiter)));
    }
    records.resize(kept);
  }

  // Infer column types over all non-null fields (unless fixed).
  std::vector<DataType> types(num_cols, DataType::kString);
  if (!options.column_types.empty()) {
    if (options.column_types.size() != num_cols) {
      return Status::InvalidArgument(
          StrFormat("column_types has %zu entries; CSV has %zu columns",
                    options.column_types.size(), num_cols));
    }
    types = options.column_types;
  } else if (options.infer_types && !lenient) {
    std::vector<bool> seen(num_cols, false);
    for (size_t r = first_data_row; r < records.size(); ++r) {
      for (size_t c = 0; c < num_cols; ++c) {
        const std::string& field = records[r].fields[c];
        if (IsNullToken(field, options.null_tokens)) continue;
        DataType t = InferFieldType(field);
        types[c] = seen[c] ? WidenType(types[c], t) : t;
        seen[c] = true;
      }
    }
  } else if (options.infer_types) {
    std::vector<std::map<DataType, size_t>> votes(num_cols);
    for (size_t r = first_data_row; r < records.size(); ++r) {
      for (size_t c = 0; c < num_cols; ++c) {
        const std::string& field = records[r].fields[c];
        if (IsNullToken(field, options.null_tokens)) continue;
        ++votes[c][InferFieldType(field)];
      }
    }
    for (size_t c = 0; c < num_cols; ++c) {
      types[c] = InferTypeByMajority(votes[c]);
    }
  }

  std::vector<Field> fields;
  fields.reserve(num_cols);
  for (size_t c = 0; c < num_cols; ++c) {
    fields.push_back(Field{names[c], types[c]});
  }
  DDGMS_ASSIGN_OR_RETURN(Schema schema, Schema::Make(std::move(fields)));
  Table table(std::move(schema));
  for (size_t r = first_data_row; r < records.size(); ++r) {
    Row row;
    row.reserve(num_cols);
    Status bad;
    std::string bad_field;
    for (size_t c = 0; c < num_cols; ++c) {
      const std::string& field = records[r].fields[c];
      if (IsNullToken(field, options.null_tokens)) {
        // A quoted empty field is an intentional empty string, not a
        // missing value — but only when the caller opted in and the
        // column is textual (for numeric columns "" has no value to
        // carry, so it stays null).
        if (options.quoted_empty_is_string && field.empty() &&
            types[c] == DataType::kString &&
            c < records[r].quoted_empty.size() &&
            records[r].quoted_empty[c] != 0) {
          row.push_back(Value::Str(""));
          continue;
        }
        row.push_back(Value::Null());
        continue;
      }
      auto value = ParseTypedField(field, types[c]);
      if (!value.ok()) {
        bad = value.status();
        bad_field = names[c];
        break;
      }
      row.push_back(std::move(*value));
    }
    if (bad.ok()) {
      bad = table.AppendRow(row);
    }
    if (bad.ok()) continue;
    if (!lenient) return bad;
    quarantine->Add("csv-ingest", records[r].record_number,
                    std::move(bad_field), std::move(bad),
                    TruncateForQuarantine(FormatCsvLine(
                        records[r].fields, options.delimiter)));
  }
  return table;
}

Result<Table> Table::FromCsvFile(const std::string& path,
                                 const CsvReadOptions& options) {
  DDGMS_ASSIGN_OR_RETURN(std::string text, ReadFile(path));
  return FromCsv(text, options);
}

Result<const ColumnVector*> Table::ColumnByName(
    const std::string& name) const {
  DDGMS_ASSIGN_OR_RETURN(size_t idx, schema_.FieldIndex(name));
  return &columns_[idx];
}

Result<ColumnVector*> Table::MutableColumnByName(const std::string& name) {
  DDGMS_ASSIGN_OR_RETURN(size_t idx, schema_.FieldIndex(name));
  return &columns_[idx];
}

Status Table::AppendRow(const Row& row) {
  if (row.size() != columns_.size()) {
    return Status::InvalidArgument(
        StrFormat("row has %zu values; table has %zu columns", row.size(),
                  columns_.size()));
  }
  // Validate all cells before mutating any column so a failed append
  // leaves the table unchanged.
  for (size_t c = 0; c < row.size(); ++c) {
    const Value& v = row[c];
    if (v.is_null()) continue;
    DataType ct = columns_[c].type();
    DataType vt = v.type();
    bool compatible =
        vt == ct || (ct == DataType::kDouble && vt == DataType::kInt64);
    if (!compatible) {
      return Status::InvalidArgument(
          StrFormat("cannot append %s value to %s column '%s'",
                    DataTypeName(vt), DataTypeName(ct),
                    columns_[c].name().c_str()));
    }
  }
  for (size_t c = 0; c < row.size(); ++c) {
    // Compatibility was pre-validated above, so Append cannot fail.
    Status st = columns_[c].Append(row[c]);
    assert(st.ok());
    st.IgnoreError();
  }
  return Status::OK();
}

Row Table::GetRow(size_t i) const {
  Row row;
  row.reserve(columns_.size());
  for (const ColumnVector& col : columns_) {
    row.push_back(col.GetValue(i));
  }
  return row;
}

Result<Value> Table::GetCell(size_t row, const std::string& column) const {
  DDGMS_ASSIGN_OR_RETURN(const ColumnVector* col, ColumnByName(column));
  if (row >= col->size()) {
    return Status::OutOfRange(
        StrFormat("row %zu out of range (size %zu)", row, col->size()));
  }
  return col->GetValue(row);
}

Status Table::SetCell(size_t row, const std::string& column,
                      const Value& value) {
  DDGMS_ASSIGN_OR_RETURN(ColumnVector* col, MutableColumnByName(column));
  return col->SetValue(row, value);
}

Status Table::AddColumn(ColumnVector column) {
  if (!columns_.empty() && column.size() != num_rows()) {
    return Status::InvalidArgument(
        StrFormat("column '%s' has %zu rows; table has %zu",
                  column.name().c_str(), column.size(), num_rows()));
  }
  DDGMS_RETURN_IF_ERROR(
      schema_.AddField(Field{column.name(), column.type()}));
  columns_.push_back(std::move(column));
  return Status::OK();
}

Status Table::DropColumn(const std::string& name) {
  DDGMS_ASSIGN_OR_RETURN(size_t idx, schema_.FieldIndex(name));
  columns_.erase(columns_.begin() + static_cast<ptrdiff_t>(idx));
  std::vector<Field> fields = schema_.fields();
  fields.erase(fields.begin() + static_cast<ptrdiff_t>(idx));
  DDGMS_ASSIGN_OR_RETURN(schema_, Schema::Make(std::move(fields)));
  return Status::OK();
}

Status Table::RenameColumn(const std::string& from, const std::string& to) {
  if (schema_.HasField(to)) {
    return Status::AlreadyExists("column '" + to + "' already exists");
  }
  DDGMS_ASSIGN_OR_RETURN(size_t idx, schema_.FieldIndex(from));
  std::vector<Field> fields = schema_.fields();
  fields[idx].name = to;
  DDGMS_ASSIGN_OR_RETURN(schema_, Schema::Make(std::move(fields)));
  columns_[idx].set_name(to);
  return Status::OK();
}

Result<Table> Table::Project(
    const std::vector<std::string>& columns) const {
  std::vector<Field> fields;
  fields.reserve(columns.size());
  std::vector<size_t> indices;
  indices.reserve(columns.size());
  for (const std::string& name : columns) {
    DDGMS_ASSIGN_OR_RETURN(size_t idx, schema_.FieldIndex(name));
    indices.push_back(idx);
    fields.push_back(schema_.field(idx));
  }
  DDGMS_ASSIGN_OR_RETURN(Schema schema, Schema::Make(std::move(fields)));
  Table out(std::move(schema));
  out.columns_.clear();
  for (size_t idx : indices) {
    out.columns_.push_back(columns_[idx]);
  }
  return out;
}

Table Table::Take(const std::vector<size_t>& indices) const {
  Table out(schema_);
  out.columns_.clear();
  for (const ColumnVector& col : columns_) {
    out.columns_.push_back(col.Take(indices));
  }
  return out;
}

std::vector<size_t> Table::MatchingRows(
    const std::function<bool(const Table&, size_t)>& pred) const {
  std::vector<size_t> out;
  const size_t n = num_rows();
  for (size_t i = 0; i < n; ++i) {
    if (pred(*this, i)) out.push_back(i);
  }
  return out;
}

Table Table::Filter(
    const std::function<bool(const Table&, size_t)>& pred) const {
  return Take(MatchingRows(pred));
}

Result<Table> Table::SortBy(const std::vector<std::string>& keys,
                            bool ascending) const {
  std::vector<const ColumnVector*> key_cols;
  key_cols.reserve(keys.size());
  for (const std::string& k : keys) {
    DDGMS_ASSIGN_OR_RETURN(const ColumnVector* col, ColumnByName(k));
    key_cols.push_back(col);
  }
  std::vector<size_t> order(num_rows());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](size_t a, size_t b) {
                     for (const ColumnVector* col : key_cols) {
                       int c = col->GetValue(a).Compare(col->GetValue(b));
                       if (c != 0) return ascending ? c < 0 : c > 0;
                     }
                     return false;
                   });
  return Take(order);
}

Status Table::CheckConcat(const Table& other) const {
  if (!(schema_ == other.schema_)) {
    return Status::InvalidArgument(
        "cannot concat tables with different schemas: [" +
        schema_.ToString() + "] vs [" + other.schema_.ToString() + "]");
  }
  return Status::OK();
}

Status Table::Concat(const Table& other) {
  DDGMS_RETURN_IF_ERROR(CheckConcat(other));
  for (size_t c = 0; c < columns_.size(); ++c) {
    columns_[c].AppendColumn(other.columns_[c]);
  }
  return Status::OK();
}

std::string Table::ToCsv(const CsvWriteOptions& options) const {
  std::string out;
  std::vector<std::string> header;
  header.reserve(columns_.size());
  for (const Field& f : schema_.fields()) header.push_back(f.name);
  out += FormatCsvLine(header, options.delimiter);
  out += "\n";
  const size_t n = num_rows();
  for (size_t i = 0; i < n; ++i) {
    for (size_t c = 0; c < columns_.size(); ++c) {
      if (c > 0) out.push_back(options.delimiter);
      const ColumnVector& col = columns_[c];
      std::string cell = col.GetValue(i).ToString();
      // Nulls always serialize bare; a present-but-empty string is
      // force-quoted ("") when the caller wants the two distinct.
      bool force_quote = options.quote_empty_strings && cell.empty() &&
                         !col.IsNull(i);
      out += FormatCsvField(cell, options.delimiter, force_quote);
    }
    out += "\n";
  }
  return out;
}

std::string Table::ToPrettyString(size_t max_rows) const {
  const size_t n = std::min(num_rows(), max_rows);
  std::vector<std::vector<std::string>> grid;
  std::vector<std::string> header;
  for (const Field& f : schema_.fields()) header.push_back(f.name);
  grid.push_back(header);
  for (size_t i = 0; i < n; ++i) {
    std::vector<std::string> cells;
    for (const ColumnVector& col : columns_) {
      std::string s = col.GetValue(i).ToString();
      if (col.IsNull(i)) s = "(null)";
      cells.push_back(std::move(s));
    }
    grid.push_back(std::move(cells));
  }
  std::vector<size_t> widths(columns_.size(), 0);
  for (const auto& row : grid) {
    for (size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  std::ostringstream os;
  for (size_t r = 0; r < grid.size(); ++r) {
    for (size_t c = 0; c < grid[r].size(); ++c) {
      os << grid[r][c]
         << std::string(widths[c] - grid[r][c].size() + 2, ' ');
    }
    os << "\n";
    if (r == 0) {
      size_t total = 0;
      for (size_t w : widths) total += w + 2;
      os << std::string(total, '-') << "\n";
    }
  }
  if (num_rows() > max_rows) {
    os << "... (" << num_rows() - max_rows << " more rows)\n";
  }
  return os.str();
}

uint64_t Table::ApproxBytes() const {
  uint64_t bytes = 0;
  for (const ColumnVector& col : columns_) bytes += col.ApproxBytes();
  return bytes;
}

}  // namespace ddgms
