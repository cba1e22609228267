#include "common/csv.h"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <fstream>

#include "common/annotations.h"
#include "common/faults.h"
#include "common/io.h"
#include "common/strings.h"

namespace ddgms {

CsvTokenizer::CsvTokenizer(std::string_view text, char delim)
    : pos_(text.data()), end_(text.data() + text.size()), delim_(delim) {
  for (char c : {delim, '"', '\r', '\n'}) {
    stops_[static_cast<unsigned char>(c)] = true;
  }
}

// fields_, side_ and side_fields_ are reused across records: once the
// widest record has been seen their appends no longer allocate, hence
// the NOLINT(ddgms-hot-path-alloc) on each.
DDGMS_HOT bool CsvTokenizer::Next() {
  fields_.clear();
  side_.clear();
  side_fields_.clear();
  const char* p = pos_;
  const char* const end = end_;
  // A record that starts with a line terminator is blank: skip it, but
  // count it. CRLF is one terminator.
  while (p != end && (*p == '\n' || *p == '\r')) {
    if (*p == '\r' && p + 1 != end && p[1] == '\n') ++p;
    ++p;
    ++terminators_;
  }
  pos_ = p;
  if (p == end) return false;
  record_number_ = terminators_ + 1;
  const char* const record_begin = p;
  for (;;) {
    // One field per pass, ending at the delimiter, a terminator or EOF.
    const char* const field_begin = p;
    while (p != end && !stops_[static_cast<unsigned char>(*p)]) ++p;
    if (p == end || *p != '"') {
      fields_.push_back(  // NOLINT(ddgms-hot-path-alloc)
          CsvField{std::string_view(field_begin, p - field_begin), false});
    } else {
      // The field holds a quote: unescape all of it into side_.
      const size_t offset = side_.size();
      side_.append(field_begin, p);
      bool in_quotes = false;
      while (p != end) {
        const char c = *p;
        if (in_quotes) {
          if (c == '"') {
            if (p + 1 != end && p[1] == '"') {
              side_.push_back('"');  // NOLINT(ddgms-hot-path-alloc)
              p += 2;
              continue;
            }
            in_quotes = false;
          } else {
            side_.push_back(c);  // NOLINT(ddgms-hot-path-alloc)
          }
          ++p;
          continue;
        }
        if (c == '"') {
          in_quotes = true;
          ++p;
          continue;
        }
        if (c == delim_ || c == '\n' || c == '\r') break;
        side_.push_back(c);  // NOLINT(ddgms-hot-path-alloc)
        ++p;
      }
      if (in_quotes) {
        // The quote never closes: the rest of the input is this record.
        raw_ = std::string_view(record_begin, end - record_begin);
        fields_.clear();
        pos_ = end;
        unterminated_ = true;
        return false;
      }
      // A field that held a quote is quoted; it is quoted-empty when
      // nothing was left after unescaping.
      const size_t size = side_.size() - offset;
      side_fields_.push_back(  // NOLINT(ddgms-hot-path-alloc)
          SideField{fields_.size(), offset, size});
      fields_.push_back(  // NOLINT(ddgms-hot-path-alloc)
          CsvField{std::string_view(), size == 0});
    }
    if (p == end || *p != delim_) break;
    ++p;
  }
  raw_ = std::string_view(record_begin, p - record_begin);
  if (p != end) {
    if (*p == '\r' && p + 1 != end && p[1] == '\n') ++p;
    ++p;
    ++terminators_;
  }
  pos_ = p;
  // side_ is complete for this record, so its views are stable now.
  for (const SideField& side : side_fields_) {
    fields_[side.field].text =
        std::string_view(side_.data() + side.offset, side.size);
  }
  ++records_;
  return true;
}

Status CsvTokenizer::UnterminatedError() const {
  return Status::ParseError(
      StrFormat("unterminated quoted field at end of input "
                "(after %zu complete records)",
                records_));
}

Result<std::vector<std::string>> ParseCsvLine(const std::string& line,
                                              char delim) {
  CsvTokenizer csv(line, delim);
  std::vector<std::string> fields;
  size_t records = 0;
  for (;;) {
    const bool complete = csv.Next();
    if (!complete && !csv.unterminated()) break;
    // A line break inside a record lies inside a quoted field.
    if (csv.raw().find_first_of("\r\n") != std::string_view::npos) {
      return Status::ParseError("newline inside quoted field");
    }
    if (!complete) return csv.UnterminatedError();
    if (++records > 1) continue;
    for (const CsvField& field : csv.fields()) fields.emplace_back(field.text);
  }
  if (records > 1) {
    return Status::ParseError("multiple records in single CSV line");
  }
  if (records == 0) return std::vector<std::string>{std::string()};
  return fields;
}

Result<std::vector<std::vector<std::string>>> ParseCsv(
    const std::string& text, char delim) {
  CsvTokenizer csv(text, delim);
  std::vector<std::vector<std::string>> rows;
  while (csv.Next()) {
    std::vector<std::string>& row = rows.emplace_back();
    row.reserve(csv.fields().size());
    for (const CsvField& field : csv.fields()) row.emplace_back(field.text);
  }
  if (csv.unterminated()) return csv.UnterminatedError();
  return rows;
}

void AppendCsvField(std::string* out, std::string_view field, char delim,
                    bool force_quote) {
  const bool needs_quote =
      force_quote ||
      std::any_of(field.begin(), field.end(), [delim](char c) {
        return c == '"' || c == '\r' || c == '\n' || c == delim;
      });
  if (!needs_quote) {
    out->append(field);
    return;
  }
  out->push_back('"');
  for (size_t quote = field.find('"'); quote != std::string_view::npos;
       quote = field.find('"')) {
    out->append(field.substr(0, quote + 1));
    out->push_back('"');
    field.remove_prefix(quote + 1);
  }
  out->append(field);
  out->push_back('"');
}

std::string FormatCsvField(std::string_view field, char delim,
                           bool force_quote) {
  std::string out;
  AppendCsvField(&out, field, delim, force_quote);
  return out;
}

std::string FormatCsvLine(const std::vector<std::string>& fields,
                          char delim) {
  std::string out;
  for (size_t i = 0; i < fields.size(); ++i) {
    if (i > 0) out.push_back(delim);
    AppendCsvField(&out, fields[i], delim);
  }
  return out;
}

Result<std::string> ReadFile(const std::string& path) {
  DDGMS_FAULT_POINT("csv.read_file");
  return ReadFileBinary(path);
}

Status WriteFile(const std::string& path, const std::string& contents) {
  DDGMS_FAULT_POINT("csv.write_file");
  errno = 0;
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return Status::Internal(StrFormat("cannot open '%s' for writing: %s",
                                      path.c_str(),
                                      std::strerror(errno)));
  }
  out << contents;
  out.flush();
  if (!out) {
    return Status::DataLoss(StrFormat("short write to '%s': %s",
                                      path.c_str(),
                                      std::strerror(errno)));
  }
  return Status::OK();
}

}  // namespace ddgms
