#include "table/table.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <charconv>
#include <cstdio>
#include <numeric>
#include <sstream>
#include <string_view>

#include "common/annotations.h"
#include "common/csv.h"
#include "common/faults.h"
#include "common/strings.h"

namespace ddgms {

namespace {

// The null spellings of CsvReadOptions, behind a first-byte filter that
// turns most fields away with one lookup.
class NullTokens {
 public:
  explicit NullTokens(const std::vector<std::string>& tokens)
      : tokens_(tokens) {
    for (const std::string& token : tokens) {
      if (token.empty()) {
        empty_ = true;
      } else {
        first_[static_cast<unsigned char>(token[0])] = true;
      }
    }
  }

  bool Contains(std::string_view field) const {
    if (field.empty()) return empty_;
    if (!first_[static_cast<unsigned char>(field[0])]) return false;
    for (const std::string& token : tokens_) {
      if (field == token) return true;
    }
    return false;
  }

 private:
  const std::vector<std::string>& tokens_;
  std::array<bool, 256> first_{};
  bool empty_ = false;
};

// Type inference lattice for CSV import: the type a single field
// suggests, first match wins — int64, double, date, bool (true/false
// only, any case), else string. Plain spellings ([+-]digits, and
// [+-]digits.digits short enough that no double overflows or
// underflows) are classified by their characters alone; the rest are
// converted by the same view parsers that load the column.
DDGMS_HOT DataType FieldType(std::string_view field) {
  size_t i = !field.empty() && (field[0] == '+' || field[0] == '-');
  size_t digits = 0, dots = 0;
  bool plain = field.size() > i && field.size() <= 300;
  for (; plain && i < field.size(); ++i) {
    if (IsAsciiDigit(field[i])) {
      ++digits;
    } else if (field[i] == '.') {
      ++dots;
    } else {
      plain = false;
    }
  }
  if (plain && digits > 0) {
    if (dots == 0 && digits <= 18) return DataType::kInt64;
    if (dots == 1) return DataType::kDouble;
  }
  // No number or date is spelled true or false, so this test may go
  // first.
  if (EqualsIgnoreCase(field, "true") || EqualsIgnoreCase(field, "false")) {
    return DataType::kBool;
  }
  int64_t i64 = 0;
  if (TryParseInt64(field, &i64)) return DataType::kInt64;
  double real = 0;
  if (TryParseDouble(field, &real)) return DataType::kDouble;
  Date date;
  if (Date::TryParse(field, &date)) return DataType::kDate;
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

// Votes per DataType value, kNull's slot unused.
using TypeVotes = std::array<size_t, 6>;

// Lenient-mode inference: per column, the most common specific type
// among non-null fields wins (ties go to the wider type), so a few
// corrupt fields quarantine their rows instead of silently widening
// the whole column to string. An int64 winner is promoted to double
// whenever any double votes exist, since ints parse as doubles anyway.
DataType InferTypeByMajority(const TypeVotes& votes) {
  DataType best = DataType::kString;
  size_t best_count = 0;
  for (DataType type : {DataType::kBool, DataType::kInt64, DataType::kDouble,
                        DataType::kString, DataType::kDate}) {
    const size_t count = votes[static_cast<size_t>(type)];
    if (count == 0) continue;
    if (count > best_count ||
        (count == best_count && TypeWideness(type) > TypeWideness(best))) {
      best = type;
      best_count = count;
    }
  }
  if (best == DataType::kInt64 &&
      votes[static_cast<size_t>(DataType::kDouble)] > 0) {
    return DataType::kDouble;
  }
  return best;
}

// One field parsed for its column, held until its whole record parses.
struct Cell {
  bool null = false;
  bool b = false;
  int64_t i = 0;
  double d = 0;
  Date date;
  std::string_view s;
};

// Column builder, step one: parses `field` as `type` into `cell`. False
// when the field does not parse; FieldError names why.
DDGMS_HOT bool ParseCell(const CsvField& field, DataType type,
                         const NullTokens& nulls, bool quoted_empty_is_string,
                         Cell* cell) {
  cell->null = false;
  if (nulls.Contains(field.text)) {
    // A quoted empty field is an intentional empty string, not a
    // missing value — but only when the caller opted in and the
    // column is textual (for numeric columns "" has no value to
    // carry, so it stays null).
    cell->null = !(quoted_empty_is_string && field.quoted_empty &&
                   field.text.empty() && type == DataType::kString);
    cell->s = field.text;
    return true;
  }
  switch (type) {
    case DataType::kBool:
      return TryParseBool(field.text, &cell->b);
    case DataType::kInt64:
      return TryParseInt64(field.text, &cell->i);
    case DataType::kDouble:
      return TryParseDouble(field.text, &cell->d);
    case DataType::kDate:
      return Date::TryParse(field.text, &cell->date);
    case DataType::kString:
      cell->s = field.text;
      return true;
    case DataType::kNull:
      break;
  }
  return false;
}

// Column builder, step two: appends a parsed cell to its column.
DDGMS_HOT void AppendCell(const Cell& cell, ColumnVector* column) {
  if (cell.null) {
    column->AppendNull();
    return;
  }
  switch (column->type()) {
    case DataType::kBool:
      column->AppendBool(cell.b);
      return;
    case DataType::kInt64:
      column->AppendInt(cell.i);
      return;
    case DataType::kDouble:
      column->AppendDouble(cell.d);
      return;
    case DataType::kDate:
      column->AppendDate(cell.date);
      return;
    case DataType::kString:
      column->AppendString(cell.s);
      return;
    case DataType::kNull:
      return;
  }
}

// Why `field` does not parse as `type` (ParseCell returned false).
Status FieldError(std::string_view field, DataType type) {
  switch (type) {
    case DataType::kBool:
      return ParseBool(field).status();
    case DataType::kInt64:
      return ParseInt64(field).status();
    case DataType::kDouble:
      return ParseDouble(field).status();
    case DataType::kDate:
      return Date::FromString(field).status();
    case DataType::kString:
    case DataType::kNull:
      break;
  }
  return Status::Internal("bad field type");
}

// A record re-serialized and truncated for its quarantine entry.
std::string QuarantineRaw(const std::vector<CsvField>& fields, char delim) {
  std::vector<std::string> texts;
  texts.reserve(fields.size());
  for (const CsvField& field : fields) texts.emplace_back(field.text);
  return TruncateForQuarantine(FormatCsvLine(texts, delim));
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
  const char delim = options.delimiter;
  const NullTokens nulls(options.null_tokens);

  // Pass one over the bytes: the header, each record's shape and, field
  // by field, the column types. Nothing is copied but the header.
  CsvTokenizer csv(text, delim);
  const bool any = csv.Next();
  std::vector<std::string> names;
  if (any) {
    names.reserve(csv.fields().size());
    for (size_t c = 0; c < csv.fields().size(); ++c) {
      names.push_back(options.has_header
                          ? std::string(csv.fields()[c].text)
                          : StrFormat("col%zu", c));
    }
  }
  const size_t num_cols = names.size();
  const bool infer = options.infer_types && options.column_types.empty();
  std::vector<DataType> types(num_cols, DataType::kString);
  std::vector<uint8_t> seen(num_cols, 0);
  std::vector<TypeVotes> votes(infer && lenient ? num_cols : 0);
  size_t rows = 0;
  Status first_ragged;
  // Lenient ragged records, itemised after the parse stage's entry.
  std::vector<QuarantinedRow> ragged;
  // `index` numbers the non-blank records, the header (if any) being 0.
  size_t index = 0;
  bool more = any;
  if (more && options.has_header) {
    more = csv.Next();
    index = 1;
  }
  for (; more; more = csv.Next(), ++index) {
    const std::vector<CsvField>& fields = csv.fields();
    if (fields.size() != num_cols) {
      Status bad = Status::ParseError(
          StrFormat("row %zu has %zu fields; expected %zu", index,
                    fields.size(), num_cols));
      if (!lenient) {
        if (first_ragged.ok()) first_ragged = std::move(bad);
      } else {
        ragged.push_back(QuarantinedRow{"csv-ingest", csv.record_number(),
                                        "", std::move(bad),
                                        QuarantineRaw(fields, delim)});
      }
      continue;
    }
    ++rows;
    if (!infer || !first_ragged.ok()) continue;
    for (size_t c = 0; c < num_cols; ++c) {
      // Nothing widens a string column further.
      if (!lenient && seen[c] && types[c] == DataType::kString) continue;
      const std::string_view field = fields[c].text;
      if (nulls.Contains(field)) continue;
      const DataType type = FieldType(field);
      if (lenient) {
        ++votes[c][static_cast<size_t>(type)];
      } else {
        types[c] = seen[c] ? WidenType(types[c], type) : type;
        seen[c] = 1;
      }
    }
  }
  if (csv.unterminated()) {
    if (!lenient) return csv.UnterminatedError();
    quarantine->Add("csv-parse", csv.record_number(), /*field=*/"",
                    Status::ParseError(
                        "unterminated quoted field at end of input"),
                    TruncateForQuarantine(std::string(csv.raw())));
  }
  if (!any) return Status::InvalidArgument("CSV input is empty");
  if (!first_ragged.ok()) return first_ragged;
  for (QuarantinedRow& row : ragged) quarantine->Add(std::move(row));

  if (!options.column_types.empty()) {
    if (options.column_types.size() != num_cols) {
      return Status::InvalidArgument(
          StrFormat("column_types has %zu entries; CSV has %zu columns",
                    options.column_types.size(), num_cols));
    }
    types = options.column_types;
  } else if (infer && lenient) {
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
  for (ColumnVector& column : table.columns_) column.Reserve(rows);

  // Pass two: each well-shaped record parses in full into `cells`, then
  // appends; a record with a field that fails its column's type appends
  // nothing.
  CsvTokenizer data(text, delim);
  if (options.has_header) data.Next();
  std::vector<Cell> cells(num_cols);
  while (data.Next()) {
    const std::vector<CsvField>& record = data.fields();
    if (record.size() != num_cols) continue;  // ragged, handled above
    size_t bad = num_cols;
    for (size_t c = 0; c < num_cols; ++c) {
      if (!ParseCell(record[c], types[c], nulls,
                     options.quoted_empty_is_string, &cells[c])) {
        bad = c;
        break;
      }
    }
    if (bad == num_cols) {
      for (size_t c = 0; c < num_cols; ++c) {
        AppendCell(cells[c], &table.columns_[c]);
      }
      continue;
    }
    Status error = FieldError(record[bad].text, types[bad]);
    if (!lenient) return error;
    quarantine->Add("csv-ingest", data.record_number(), names[bad],
                    std::move(error), QuarantineRaw(record, delim));
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

// Writes each cell straight from its typed column, spelled as
// Value::ToString spells it and quoted as FormatCsvField quotes it.
std::string Table::ToCsv(const CsvWriteOptions& options) const {
  const char delim = options.delimiter;
  std::string out;
  for (size_t c = 0; c < columns_.size(); ++c) {
    if (c > 0) out.push_back(delim);
    AppendCsvField(&out, schema_.field(c).name, delim);
  }
  out.push_back('\n');
  std::string number;  // a double's spelling, reused across cells
  char buf[32];        // an int64's or a date's spelling
  const size_t n = num_rows();
  for (size_t i = 0; i < n; ++i) {
    for (size_t c = 0; c < columns_.size(); ++c) {
      if (c > 0) out.push_back(delim);
      const ColumnVector& col = columns_[c];
      // Nulls always serialize bare.
      if (col.IsNull(i)) continue;
      switch (col.type()) {
        case DataType::kString: {
          // A present-but-empty string is force-quoted ("") when the
          // caller wants it told apart from a null.
          const std::string& s = col.StringAt(i);
          AppendCsvField(&out, s, delim,
                         options.quote_empty_strings && s.empty());
          break;
        }
        case DataType::kInt64: {
          const char* end =
              std::to_chars(buf, buf + sizeof(buf), col.IntAt(i)).ptr;
          AppendCsvField(&out, std::string_view(buf, end - buf), delim);
          break;
        }
        case DataType::kDouble:
          number.clear();
          AppendDouble(&number, col.DoubleAt(i));
          AppendCsvField(&out, number, delim);
          break;
        case DataType::kBool:
          AppendCsvField(&out, col.BoolAt(i) ? "true" : "false", delim);
          break;
        case DataType::kDate: {
          const Date date = col.DateAt(i);
          const int len = std::snprintf(buf, sizeof(buf), "%04d-%02d-%02d",
                                        date.year(), date.month(), date.day());
          AppendCsvField(&out, std::string_view(buf, static_cast<size_t>(len)),
                         delim);
          break;
        }
        case DataType::kNull:
          break;  // excluded by ColumnVector's constructor contract
      }
    }
    out.push_back('\n');
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
