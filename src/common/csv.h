#ifndef DDGMS_COMMON_CSV_H_
#define DDGMS_COMMON_CSV_H_

#include <array>
#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"

namespace ddgms {

/// RFC-4180 style CSV support: fields containing the delimiter, quotes or
/// newlines are quoted with `"` and embedded quotes doubled. Line endings
/// LF, CRLF and lone CR all terminate a record; an unterminated quoted
/// field at EOF is a parse error; a trailing delimiter yields a final
/// empty field. A quote anywhere in a field opens a quoted run, so
/// `ab"c,d"e` is the one field `abc,de`.

/// One field of a record, as CsvTokenizer yields it.
struct CsvField {
  /// The unescaped text: a view into the input, or into the
  /// tokenizer's side buffer when the field contained a quote.
  std::string_view text;
  /// True when the field was quoted and is empty ("" in the source). It
  /// reads the same as a bare empty field, but loaders may tell the two
  /// apart (empty string vs null).
  bool quoted_empty = false;
};

/// The CSV state machine: one pass over the bytes, yielding one record
/// at a time as field views. Only a field that contained a quote is
/// copied (unescaped into a side buffer reused across records), so a
/// reader never holds a second copy of the document. Blank records are
/// skipped but counted in record numbers.
class CsvTokenizer {
 public:
  /// `text` must outlive the tokenizer and the views it yields.
  explicit CsvTokenizer(std::string_view text, char delim = ',');

  /// Moves to the next non-blank record. Returns false at the end of
  /// the input, and also when the rest of the input is one record whose
  /// quoted field never closes: then unterminated() is true and
  /// record_number() and raw() describe that record.
  bool Next();

  /// Fields of the current record; the views stay valid until the next
  /// call to Next().
  const std::vector<CsvField>& fields() const { return fields_; }

  /// 1-based physical record number of the current record: blank
  /// records count, a quoted line break does not, so for a file without
  /// quoted line breaks it is the line number.
  size_t record_number() const { return record_number_; }

  /// The current record's bytes, without its line terminator. Every
  /// line break inside them lies in a quoted field.
  std::string_view raw() const { return raw_; }

  /// True once Next() has stopped at a final record whose quoted field
  /// never closes.
  bool unterminated() const { return unterminated_; }

  /// The strict parse error for that record, counting the complete
  /// (non-blank) records before it.
  Status UnterminatedError() const;

 private:
  const char* pos_;
  const char* end_;
  char delim_;
  // Bytes that end an unquoted run: the delimiter, '"', '\r', '\n'.
  std::array<bool, 256> stops_{};
  std::vector<CsvField> fields_;
  std::string side_;
  // A field of the current record whose text lives in side_; made a view
  // once the record is complete and side_ stops growing.
  struct SideField {
    size_t field;
    size_t offset;
    size_t size;
  };
  std::vector<SideField> side_fields_;
  std::string_view raw_;
  size_t record_number_ = 0;
  size_t terminators_ = 0;
  size_t records_ = 0;
  bool unterminated_ = false;
};

/// Parses one CSV record (no embedded newlines) into fields.
Result<std::vector<std::string>> ParseCsvLine(const std::string& line,
                                              char delim = ',');

/// Parses a full CSV document (handles quoted embedded newlines).
/// Returns rows of fields; ragged rows are permitted here and validated by
/// higher layers. Strict: the first structural error fails the parse.
Result<std::vector<std::vector<std::string>>> ParseCsv(
    const std::string& text, char delim = ',');

/// Serializes one field, quoting when it contains the delimiter,
/// quotes or newlines (embedded quotes doubled). `force_quote` quotes
/// unconditionally — how writers encode an empty string so it stays
/// distinct from a null's bare empty field.
std::string FormatCsvField(std::string_view field, char delim = ',',
                           bool force_quote = false);

/// Appends FormatCsvField(field, delim, force_quote) to `out`.
void AppendCsvField(std::string* out, std::string_view field,
                    char delim = ',', bool force_quote = false);

/// Serializes fields into one CSV record (no trailing newline).
std::string FormatCsvLine(const std::vector<std::string>& fields,
                          char delim = ',');

/// Reads an entire file into a string (ReadFileBinary, common/io.h,
/// behind its own "csv.read_file" fault point). Errors carry the path
/// and the OS error (strerror) so retry/quarantine logs are actionable.
Result<std::string> ReadFile(const std::string& path);

/// Writes `contents` to `path`, replacing any existing file. Errors
/// carry the path and the OS error (strerror).
Status WriteFile(const std::string& path, const std::string& contents);

}  // namespace ddgms

#endif  // DDGMS_COMMON_CSV_H_
