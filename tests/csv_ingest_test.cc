// Tests for CSV ingest (Table::FromCsv): the tables it loads are pinned
// by digest, edge tokens keep their inferred type and value, lenient
// quarantine reports stay exact, and a seeded mutation fuzzer checks
// that no input crashes the reader or loses a record.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <limits>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/checksum.h"
#include "common/csv.h"
#include "common/date.h"
#include "common/quarantine.h"
#include "common/resource.h"
#include "common/rng.h"
#include "discri/cohort.h"
#include "table/table.h"
#include "warehouse/snapshot.h"

namespace ddgms {
namespace {

std::string SourcePath(const std::string& relative) {
  return std::string(DDGMS_SOURCE_ROOT) + "/" + relative;
}

// A table's row count plus the size and CRC32C of its columnar image
// (the snapshot codec), which fixes every name, type, null and value
// bit.
struct Digest {
  size_t rows = 0;
  size_t bytes = 0;
  uint32_t crc = 0;
  friend bool operator==(const Digest& a, const Digest& b) {
    return a.rows == b.rows && a.bytes == b.bytes && a.crc == b.crc;
  }
};

std::ostream& operator<<(std::ostream& os, const Digest& d) {
  char crc[16];
  std::snprintf(crc, sizeof(crc), "0x%08x", d.crc);
  return os << "{" << d.rows << ", " << d.bytes << ", " << crc << "}";
}

Digest DigestOf(const Table& table) {
  std::string image;
  warehouse::EncodeTable(table, &image);
  return Digest{table.num_rows(), image.size(), Crc32c(image)};
}

// ------------------------------------------------------- cohort digests

// How a cohort extract is read back.
enum class Mode {
  kStrict,       // defaults
  kLenient,      // ErrorMode::kLenient
  kQuotedEmpty,  // quoted_empty_is_string, over QuotedEmptyCsv
  kNoInference,  // infer_types = false
  kNoHeader,     // has_header = false: the header row is data too
};

struct CohortCase {
  size_t patients;
  uint64_t seed;
  Digest strict, lenient, quoted_empty, no_inference, no_header;
};

void PrintTo(const CohortCase& c, std::ostream* os) {
  *os << c.patients << " patients, seed " << c.seed;
}

Table Cohort(size_t patients, uint64_t seed) {
  discri::CohortOptions options;
  options.num_patients = patients;
  options.seed = seed;
  auto table = discri::GenerateCohort(options);
  EXPECT_TRUE(table.ok()) << table.status();
  return table.ok() ? std::move(table).value() : Table();
}

// Reads a cohort extract back in `mode`.
Digest Load(const std::string& csv, Mode mode) {
  CsvReadOptions read;
  QuarantineReport quarantine;
  switch (mode) {
    case Mode::kStrict:
      break;
    case Mode::kLenient:
      read.error_mode = ErrorMode::kLenient;
      read.quarantine = &quarantine;
      break;
    case Mode::kQuotedEmpty:
      read.quoted_empty_is_string = true;
      break;
    case Mode::kNoInference:
      read.infer_types = false;
      break;
    case Mode::kNoHeader:
      read.has_header = false;
      break;
  }
  auto loaded = Table::FromCsv(csv, read);
  EXPECT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_TRUE(quarantine.empty()) << quarantine.ToString();
  return loaded.ok() ? DigestOf(*loaded) : Digest{};
}

// `cohort` with an empty string in every fifth Education, beside the
// nulls.
Table WithEmptyEducation(Table cohort) {
  for (size_t r = 0; r < cohort.num_rows(); r += 5) {
    EXPECT_TRUE(cohort.SetCell(r, "Education", Value::Str("")).ok());
  }
  return cohort;
}

// WithEmptyEducation(cohort) as CSV, written so that the empty strings
// and the nulls stay apart.
std::string QuotedEmptyCsv(Table cohort) {
  CsvWriteOptions write;
  write.quote_empty_strings = true;
  return WithEmptyEducation(std::move(cohort)).ToCsv(write);
}

class CohortDigestTest : public testing::TestWithParam<CohortCase> {};

TEST_P(CohortDigestTest, LoadsTheSameTableInEveryMode) {
  const CohortCase& c = GetParam();
  const Table cohort = Cohort(c.patients, c.seed);
  const std::string csv = cohort.ToCsv();
  EXPECT_EQ(Load(csv, Mode::kStrict), c.strict);
  EXPECT_EQ(Load(csv, Mode::kLenient), c.lenient);
  EXPECT_EQ(Load(QuotedEmptyCsv(cohort), Mode::kQuotedEmpty),
            c.quoted_empty);
  EXPECT_EQ(Load(csv, Mode::kNoInference), c.no_inference);
  EXPECT_EQ(Load(csv, Mode::kNoHeader), c.no_header);
}

// Measured with the reader this suite was written against; a change to
// any digest is a change to the tables a clinician loads.
INSTANTIATE_TEST_SUITE_P(
    Cohorts, CohortDigestTest,
    testing::Values(
        CohortCase{1, 20130408,
                   {2, 1596, 0x336c70c6},
                   {2, 1596, 0x336c70c6},
                   {2, 1589, 0xcb78b875},
                   {2, 1872, 0x7c320d0d},
                   {3, 2321, 0xe33fe51c}},
        CohortCase{50, 20130408,
                   {141, 56080, 0x8fae1176},
                   {141, 56080, 0x8fae1176},
                   {141, 55834, 0x828d73a1},
                   {141, 76897, 0x450d24a8},
                   {142, 77346, 0xdd680642}},
        CohortCase{900, 20130408,
                   {2470, 968255, 0xd41c4683},
                   {2470, 968255, 0xd41c4683},
                   {2470, 964039, 0x397a5802},
                   {2470, 1337344, 0x3a41671e},
                   {2471, 1337793, 0xbfef4e14}},
        CohortCase{2700, 20130408,
                   {7464, 2923460, 0x39552b30},
                   {7464, 2923460, 0x39552b30},
                   {7464, 2910692, 0xda4dd299},
                   {7464, 4039225, 0xaf1b51f4},
                   {7465, 4039725, 0xf9423607}},
        CohortCase{1, 7,
                   {1, 1226, 0xfc0c03b4},
                   {1, 1226, 0xfc0c03b4},
                   {1, 1219, 0x96302e7f},
                   {1, 1394, 0xfce50258},
                   {2, 1843, 0xd937357f}},
        CohortCase{50, 7,
                   {142, 56451, 0xba168d6d},
                   {142, 56451, 0xba168d6d},
                   {142, 56212, 0xbadd186d},
                   {142, 77348, 0x388ac00b},
                   {143, 77797, 0xcc89e24a}},
        CohortCase{900, 7,
                   {2532, 991884, 0x8cdd4c41},
                   {2532, 991884, 0x8cdd4c41},
                   {2532, 987596, 0x58025839},
                   {2532, 1369824, 0x9a3cc28d},
                   {2533, 1370273, 0xf8d6b714}},
        CohortCase{2700, 7,
                   {7612, 2980240, 0x71366cdb},
                   {7612, 2980240, 0x71366cdb},
                   {7612, 2967276, 0xad26f6ab},
                   {7612, 4119984, 0x98243981},
                   {7613, 4120433, 0xfcfce6b5}}),
    [](const testing::TestParamInfo<CohortCase>& info) {
      return "Patients" + std::to_string(info.param.patients) + "Seed" +
             std::to_string(info.param.seed);
    });

TEST(CsvIngestTest, ExploreSizedCohortDigest) {
  EXPECT_EQ(Load(Cohort(8100, 20130408).ToCsv(), Mode::kStrict),
            (Digest{22382, 8763554, 0xe4c15712}));
}

// ------------------------------------------------------------ the writer

// A table's row count plus the size and CRC32C of its CSV text.
Digest CsvDigestOf(const Table& table, const CsvWriteOptions& options) {
  const std::string text = table.ToCsv(options);
  return Digest{table.num_rows(), text.size(), Crc32c(text)};
}

struct WriterCase {
  size_t patients;
  uint64_t seed;
  // Table::ToCsv of the cohort; of WithEmptyEducation(cohort); and of
  // that with quote_empty_strings.
  Digest plain, empties, quoted_empties;
};

void PrintTo(const WriterCase& c, std::ostream* os) {
  *os << c.patients << " patients, seed " << c.seed;
}

class CsvWriterDigestTest : public testing::TestWithParam<WriterCase> {};

TEST_P(CsvWriterDigestTest, ToCsvWritesTheSameBytes) {
  const WriterCase& c = GetParam();
  const Table cohort = Cohort(c.patients, c.seed);
  EXPECT_EQ(CsvDigestOf(cohort, {}), c.plain);
  const Table empties = WithEmptyEducation(cohort);
  EXPECT_EQ(CsvDigestOf(empties, {}), c.empties);
  CsvWriteOptions write;
  write.quote_empty_strings = true;
  EXPECT_EQ(CsvDigestOf(empties, write), c.quoted_empties);
}

// Measured with the field-by-field writer (a Value and a std::string
// per cell) that the in-place writer replaced.
INSTANTIATE_TEST_SUITE_P(
    Cohorts, CsvWriterDigestTest,
    testing::Values(WriterCase{900,
                               20130408,
                               {2470, 943459, 0x617f89aa},
                               {2470, 939243, 0xe39ca284},
                               {2470, 940231, 0xeac8a702}},
                    WriterCase{8100,
                               20130408,
                               {22382, 8557230, 0xa5907262},
                               {22382, 8519033, 0x6fd6efdb},
                               {22382, 8527987, 0xb506e126}}),
    [](const testing::TestParamInfo<WriterCase>& info) {
      return "Patients" + std::to_string(info.param.patients) + "Seed" +
             std::to_string(info.param.seed);
    });

// ToCsv written field by field, the way the in-place writer replaced:
// a Value and its spelling per cell, quoted by FormatCsvField.
std::string FieldByFieldCsv(const Table& t, const CsvWriteOptions& options) {
  std::vector<std::string> header;
  for (const Field& f : t.schema().fields()) header.push_back(f.name);
  std::string out = FormatCsvLine(header, options.delimiter) + "\n";
  for (size_t r = 0; r < t.num_rows(); ++r) {
    for (size_t c = 0; c < t.num_columns(); ++c) {
      if (c > 0) out.push_back(options.delimiter);
      const std::string cell = t.column(c).GetValue(r).ToString();
      out += FormatCsvField(
          cell, options.delimiter,
          options.quote_empty_strings && cell.empty() && !t.column(c).IsNull(r));
    }
    out += "\n";
  }
  return out;
}

TEST(CsvIngestTest, ToCsvQuotesEveryTypeLikeFormatCsvField) {
  auto schema = Schema::Make({{"s", DataType::kString},
                              {"i", DataType::kInt64},
                              {"d", DataType::kDouble},
                              {"b", DataType::kBool},
                              {"day", DataType::kDate},
                              {"a,b \"c\"", DataType::kString}});
  Table t(std::move(schema).value());
  const Date early = Date::FromYmd(-5, 3, 1).value();
  const Date late = Date::FromYmd(12345, 12, 31).value();
  const std::vector<Row> rows = {
      {Value::Str("plain"), Value::Int(-42), Value::Real(-0.25),
       Value::Bool(true), Value::FromDate(early), Value::Str("")},
      {Value::Str(""), Value::Int(std::numeric_limits<int64_t>::min()),
       Value::Real(1e300), Value::Bool(false), Value::FromDate(late),
       Value::Null()},
      {Value::Str("say \"hi\", then\nleave\r"), Value::Int(0),
       Value::Real(std::numeric_limits<double>::quiet_NaN()), Value::Null(),
       Value::Null(), Value::Str("tab\there; pipe|dot.dash-")},
      {Value::Null(), Value::Null(), Value::Real(-0.0), Value::Bool(true),
       Value::FromDate(Date(0)), Value::Str("5e3")}};
  for (const Row& row : rows) ASSERT_TRUE(t.AppendRow(row).ok());
  for (char delim : {',', ';', '\t', '|', '.', '-', '0', '5', 't', 'e', 'n',
                     ' ', ':'}) {
    for (bool quote_empty : {false, true}) {
      CsvWriteOptions options;
      options.delimiter = delim;
      options.quote_empty_strings = quote_empty;
      EXPECT_EQ(t.ToCsv(options), FieldByFieldCsv(t, options))
          << "delimiter '" << delim << "', quote_empty_strings "
          << quote_empty;
    }
  }
}

// ------------------------------------------------ the corrupt sample

// data/discri_sample_corrupt.csv holds four damaged records: a ragged
// row, a textual Age, a textual BMI and an unterminated quote at EOF.
TEST(CsvIngestTest, CorruptSampleLenientDigestAndQuarantine) {
  CsvReadOptions options;
  options.error_mode = ErrorMode::kLenient;
  QuarantineReport quarantine;
  options.quarantine = &quarantine;
  auto table = Table::FromCsvFile(
      SourcePath("data/discri_sample_corrupt.csv"), options);
  ASSERT_TRUE(table.ok()) << table.status();
  EXPECT_EQ(DigestOf(*table), (Digest{170, 67345, 0xca973782}));
  // Element by element and in order: the parse stage first, then the
  // ingest stage in record order.
  std::vector<std::string> report;
  for (const QuarantinedRow& row : quarantine.rows()) {
    report.push_back(row.ToString());
  }
  EXPECT_EQ(
      report,
      (std::vector<std::string>{
          "[csv-parse] row 175: ParseError: unterminated quoted field at "
          "end of input -- \"P9999,2005-01-01,55,M",
          "[csv-ingest] row 4: ParseError: row 3 has 10 fields; expected "
          "51 -- 3,P0002,2004-09-22,70,M,tertiary,No,No,current,vigorous",
          "[csv-ingest] row 8 (field 'Age'): ParseError: not an integer: "
          "'sixty-two' -- 7,P0004,2002-08-16,sixty-two,M,primary,No,No,"
          "former,light,28.654845,10.708104,7.583445,5.794231,0.923394,"
          "4.479671,1.1564...",
          "[csv-ingest] row 12 (field 'BMI'): ParseError: not a double: "
          "'n/a' -- 11,P0005,2006-04-23,39,M,tertiary,No,No,former,light,"
          "n/a,4.02098,4.556125,4.691248,1.348895,2.883706,1.085691,"
          "119.764762..."}));
}

TEST(CsvIngestTest, CorruptSampleStrictFailsAtTheOpenQuote) {
  auto table =
      Table::FromCsvFile(SourcePath("data/discri_sample_corrupt.csv"));
  ASSERT_FALSE(table.ok());
  EXPECT_EQ(table.status().ToString(),
            "ParseError: unterminated quoted field at end of input (after "
            "174 complete records)");
}

TEST(CsvIngestTest, CleanSampleDigest) {
  auto table = Table::FromCsvFile(SourcePath("data/discri_sample.csv"));
  ASSERT_TRUE(table.ok()) << table.status();
  EXPECT_EQ(DigestOf(*table), (Digest{173, 68497, 0xdf076bfd}));
}

// An unterminated quote swallows the rest of the input, so the bad
// record is the final one; everything before it loads, and the
// quarantine names its physical record number.
TEST(CsvIngestTest, LenientQuarantinesOnlyBadRecords) {
  CsvReadOptions options;
  options.error_mode = ErrorMode::kLenient;
  QuarantineReport quarantine;
  options.quarantine = &quarantine;
  auto table = Table::FromCsv("a,b\nok,fine\n\"bad", options);
  ASSERT_TRUE(table.ok()) << table.status();
  ASSERT_EQ(table->num_columns(), 2u);
  EXPECT_EQ(table->schema().field(0).name, "a");
  EXPECT_EQ(table->schema().field(1).name, "b");
  ASSERT_EQ(table->num_rows(), 1u);
  EXPECT_EQ(table->GetRow(0), (Row{Value::Str("ok"), Value::Str("fine")}));
  ASSERT_EQ(quarantine.size(), 1u);
  EXPECT_EQ(quarantine.rows()[0].stage, "csv-parse");
  EXPECT_EQ(quarantine.rows()[0].row_number, 3u);
  EXPECT_TRUE(quarantine.rows()[0].status.IsParseError());
}

// Quarantine record numbers are physical: blank records count, a
// quoted embedded newline does not start a new record, and the ragged
// message numbers the record among the non-blank ones.
TEST(CsvIngestTest, LenientRecordNumbersArePhysical) {
  CsvReadOptions options;
  options.error_mode = ErrorMode::kLenient;
  QuarantineReport quarantine;
  options.quarantine = &quarantine;
  auto table = Table::FromCsv(
      "n,s\r\n\r\n1,\"two\nlines\"\n\n2\n3,x\rfour,y\n5,\"z\"\"\",extra\n",
      options);
  ASSERT_TRUE(table.ok()) << table.status();
  EXPECT_EQ(DigestOf(*table), (Digest{2, 60, 0xd76e11f1}));
  std::vector<std::string> report;
  for (const QuarantinedRow& row : quarantine.rows()) {
    report.push_back(row.ToString());
  }
  EXPECT_EQ(report,
            (std::vector<std::string>{
                "[csv-ingest] row 5: ParseError: row 2 has 1 fields; "
                "expected 2 -- 2",
                "[csv-ingest] row 8: ParseError: row 5 has 3 fields; "
                "expected 2 -- 5,\"z\"\"\",extra",
                "[csv-ingest] row 7 (field 'n'): ParseError: not an "
                "integer: 'four' -- four,y"}));
}

// ------------------------------------------------------- edge tokens

struct EdgeToken {
  const char* token;
  DataType type;
  Value value;
};

// A one-column CSV holding `token` once.
Result<Table> LoadToken(const std::string& token) {
  return Table::FromCsv("x\n" + FormatCsvField(token) + "\n");
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(a)) == 0;
}

TEST(CsvIngestTest, EdgeTokensKeepTheirTypeAndValue) {
  const double inf = std::numeric_limits<double>::infinity();
  const Value date = Value::FromDate(Date::FromYmd(2020, 1, 5).value());
  const std::vector<EdgeToken> cases = {
      {" 5 ", DataType::kInt64, Value::Int(5)},
      {"\t7\t", DataType::kInt64, Value::Int(7)},
      {"+7", DataType::kInt64, Value::Int(7)},
      {"-0", DataType::kInt64, Value::Int(0)},
      {"00012", DataType::kInt64, Value::Int(12)},
      {"9223372036854775807", DataType::kInt64,
       Value::Int(std::numeric_limits<int64_t>::max())},
      {"-9223372036854775808", DataType::kInt64,
       Value::Int(std::numeric_limits<int64_t>::min())},
      {"9223372036854775808", DataType::kDouble,
       Value::Real(9223372036854775808.0)},
      {"+-5", DataType::kString, Value::Str("+-5")},
      {"0x1A", DataType::kDouble, Value::Real(26.0)},
      {"0x", DataType::kString, Value::Str("0x")},
      {"nan", DataType::kDouble,
       Value::Real(std::numeric_limits<double>::quiet_NaN())},
      {"-Infinity", DataType::kDouble, Value::Real(-inf)},
      {"inf", DataType::kDouble, Value::Real(inf)},
      {"1e-400", DataType::kString, Value::Str("1e-400")},
      {"4.9e-324", DataType::kString, Value::Str("4.9e-324")},
      {"1e400", DataType::kString, Value::Str("1e400")},
      {"-0.0", DataType::kDouble, Value::Real(-0.0)},
      {"0.0", DataType::kDouble, Value::Real(0.0)},
      {".5", DataType::kDouble, Value::Real(0.5)},
      {"5.", DataType::kDouble, Value::Real(5.0)},
      {"1e5", DataType::kDouble, Value::Real(100000.0)},
      {"2.5e", DataType::kString, Value::Str("2.5e")},
      {"0.1", DataType::kDouble, Value::Real(0.1)},
      {"2020-1-5", DataType::kDate, date},
      {" 2020-01-05", DataType::kDate, date},
      {"+2020-01-05", DataType::kDate, date},
      {"2020- 01-05", DataType::kDate, date},
      {"2020-01-05 ", DataType::kString, Value::Str("2020-01-05 ")},
      {"2020-01-05x", DataType::kString, Value::Str("2020-01-05x")},
      {"2020-02-30", DataType::kString, Value::Str("2020-02-30")},
      {"2020-01", DataType::kString, Value::Str("2020-01")},
      {"TRUE", DataType::kBool, Value::Bool(true)},
      {"False", DataType::kBool, Value::Bool(false)},
      {" true", DataType::kString, Value::Str(" true")},
      {"yes", DataType::kString, Value::Str("yes")},
      {"1", DataType::kInt64, Value::Int(1)},
      {"  ", DataType::kString, Value::Str("  ")},
  };
  for (const EdgeToken& c : cases) {
    SCOPED_TRACE(std::string("token '") + c.token + "'");
    auto table = LoadToken(c.token);
    ASSERT_TRUE(table.ok()) << table.status();
    ASSERT_EQ(table->num_rows(), 1u);
    EXPECT_EQ(table->column(0).type(), c.type);
    const Value got = table->column(0).GetValue(0);
    if (c.type == DataType::kDouble) {
      const double want = c.value.double_value();
      if (std::isnan(want)) {
        EXPECT_TRUE(std::isnan(got.double_value()));
      } else {
        EXPECT_TRUE(SameBits(got.double_value(), want))
            << got.double_value();
      }
    } else {
      EXPECT_TRUE(got.Equals(c.value)) << got.ToString();
    }
  }
}

// Inference types a column bool only on true/false spellings, but a
// bool column parses every ParseBool spelling.
TEST(CsvIngestTest, BoolColumnsParseEveryBoolSpelling) {
  CsvReadOptions lenient;
  lenient.error_mode = ErrorMode::kLenient;
  QuarantineReport quarantine;
  lenient.quarantine = &quarantine;
  auto voted = Table::FromCsv("b\ntrue\nfalse\nTRUE\nyes\n1\n", lenient);
  ASSERT_TRUE(voted.ok()) << voted.status();
  EXPECT_TRUE(quarantine.empty()) << quarantine.ToString();
  EXPECT_EQ(voted->column(0).type(), DataType::kBool);
  EXPECT_EQ(DigestOf(*voted), (Digest{5, 24, 0x5228991e}));

  CsvReadOptions typed;
  typed.column_types = {DataType::kBool};
  auto fixed = Table::FromCsv("b\n Y \nno\n0\nN\nmaybe\n", typed);
  ASSERT_FALSE(fixed.ok());
  EXPECT_EQ(fixed.status().ToString(), "ParseError: not a bool: 'maybe'");
  typed.error_mode = ErrorMode::kLenient;
  typed.quarantine = &quarantine;
  fixed = Table::FromCsv("b\n Y \nno\n0\nN\nmaybe\n", typed);
  ASSERT_TRUE(fixed.ok()) << fixed.status();
  EXPECT_EQ(DigestOf(*fixed), (Digest{4, 23, 0x821a7941}));
  EXPECT_EQ(quarantine.ToString(),
            "quarantined 1 rows\n  [csv-ingest] row 6 (field 'b'): "
            "ParseError: not a bool: 'maybe' -- maybe");
}

// Strict inference widens int64 to double and anything else to
// string; lenient inference takes the most common type and quarantines
// the rows that fail it.
TEST(CsvIngestTest, InferenceWidensStrictlyAndVotesLeniently) {
  const std::string csv =
      "i,d,s,mixed,dates\n"
      "1,1,a,1,2020-01-05\n"
      "2,2.5,2,x,2020-01-06\n"
      "3,3,3,2.5,oops\n"
      "NA,,?,y,2020-01-07\n";
  auto strict = Table::FromCsv(csv);
  ASSERT_TRUE(strict.ok()) << strict.status();
  EXPECT_EQ(DigestOf(*strict), (Digest{4, 210, 0x6a57719b}));
  CsvReadOptions lenient;
  lenient.error_mode = ErrorMode::kLenient;
  QuarantineReport quarantine;
  lenient.quarantine = &quarantine;
  auto voted = Table::FromCsv(csv, lenient);
  ASSERT_TRUE(voted.ok()) << voted.status();
  EXPECT_EQ(DigestOf(*voted), (Digest{2, 121, 0xa4d42e53}));
  EXPECT_EQ(quarantine.ToString(),
            "quarantined 2 rows\n"
            "  [csv-ingest] row 2 (field 's'): ParseError: not an integer: "
            "'a' -- 1,1,a,1,2020-01-05\n"
            "  [csv-ingest] row 4 (field 'dates'): ParseError: not a date "
            "(want YYYY-MM-DD): 'oops' -- 3,3,3,2.5,oops");
}

// The resource meter charges a loaded table what its columns'
// ApproxBytes report.
TEST(CsvIngestTest, ResourceMeterChargesWhatTheTableHolds) {
  const std::string csv = Cohort(50, 20130408).ToCsv();
  ResourceMeter::Enable();
  ResourceMeter::Global().ResetValues();
  Result<Table> table = Status::Internal("unset");
  uint64_t charged = 0;
  {
    ScopedAccounting guard("table.csv");
    table = Table::FromCsv(csv);
    charged = guard.BytesCharged();
  }
  ResourceMeter::Global().ResetValues();
  ResourceMeter::Disable();
  ASSERT_TRUE(table.ok()) << table.status();
  EXPECT_EQ(charged, table->ApproxBytes());
}

// A date whose day count does not fit in int32 is not a date, so the
// column stays string in strict mode.
TEST(CsvIngestTest, OutOfRangeDateColumnStaysString) {
  auto table = Table::FromCsv("d\n100000000-01-01\n2020-01-05\n");
  ASSERT_TRUE(table.ok()) << table.status();
  EXPECT_EQ(table->column(0).type(), DataType::kString);
  EXPECT_EQ(table->column(0).GetValue(0), Value::Str("100000000-01-01"));
}

// ------------------------------------------------------ mutation fuzzer

// Bytes the byte-level mutations draw from: those that CSV structure
// and numbers turn on.
constexpr std::string_view kMutationBytes = "\",\r\n-.e0123456789";

// Tokens spliced into the text whole.
const char* const kSpliceTokens[] = {
    "\"", "\"\"", ",", "\r\n", "NA", "?", " 5 ", "+-5", "0x1A", "nan",
    "-Infinity", "1e-400", "1e400", "9223372036854775808", "-0.0", ".5",
    "5.", "2020-1-5", "+2020-01-05", "2020-02-30", "100000000-01-01",
    "TRUE", "yes", "\"a,\"\"b\"\"\nc\""};

// The inputs mutations start from: the CSV test inputs, the checked-in
// samples, and a 20-patient cohort extract.
const std::vector<std::string>& FuzzInputs() {
  static const std::vector<std::string>* inputs = [] {
    auto* out = new std::vector<std::string>{
        "a,b\r\n\"x\ny\",z\n",
        "x,y\n1,NA\n?,2\n",
        "i,d,s,b,date\n1,1.5,x,true,2020-01-02\n2,2,y,false,2021-03-04\n",
        "a,b,\nc,d,\n",
        "a,b\nok,fine\n\"bad",
        "n,s\r\n\r\n1,\"two\nlines\"\n\n2\n3,x\rfour,y\n5,\"z\"\"\",extra\n",
        "i,d,s,mixed,dates\n1,1,a,1,2020-01-05\n2,2.5,2,x,2020-01-06\n"
        "3,3,3,2.5,oops\nNA,,?,y,2020-01-07\n"};
    for (const char* path :
         {"data/discri_sample.csv", "data/discri_sample_corrupt.csv"}) {
      auto text = ReadFile(SourcePath(path));
      EXPECT_TRUE(text.ok()) << text.status();
      out->push_back(text.ok() ? *text : "");
    }
    out->push_back(Cohort(20, 20130408).ToCsv());
    return out;
  }();
  return *inputs;
}

// One seeded mutant of `input`: one to four edits, each a byte flip,
// insertion or deletion (bytes from kMutationBytes), a truncation, a
// duplicated or dropped record, or a spliced token.
std::string Mutate(const std::string& input, uint64_t seed) {
  Rng rng(seed);
  std::string out = input;
  auto pos = [&] {
    return static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(out.size())));
  };
  auto byte = [&] {
    return kMutationBytes[static_cast<size_t>(rng.UniformInt(
        0, static_cast<int64_t>(kMutationBytes.size()) - 1))];
  };
  // The line (up to and including its '\n') around position `at`.
  auto line_at = [&](size_t at) {
    const size_t begin = at == 0 ? 0 : out.rfind('\n', at - 1) + 1;
    const size_t newline = out.find('\n', at);
    const size_t end = newline == std::string::npos ? out.size() : newline + 1;
    return std::pair<size_t, size_t>(begin, end - begin);
  };
  const int64_t edits = rng.UniformInt(1, 4);
  for (int64_t e = 0; e < edits; ++e) {
    switch (rng.UniformInt(0, 6)) {
      case 0:
        if (!out.empty()) out[std::min(pos(), out.size() - 1)] = byte();
        break;
      case 1:
        out.insert(out.begin() + static_cast<std::ptrdiff_t>(pos()), byte());
        break;
      case 2:
        if (!out.empty()) out.erase(std::min(pos(), out.size() - 1), 1);
        break;
      case 3:
        out.resize(pos());
        break;
      case 4: {
        const auto [begin, length] = line_at(pos());
        out.insert(begin, out.substr(begin, length));
        break;
      }
      case 5: {
        const auto [begin, length] = line_at(pos());
        out.erase(begin, length);
        break;
      }
      default:
        out.insert(pos(), kSpliceTokens[rng.UniformInt(
                              0, std::size(kSpliceTokens) - 1)]);
        break;
    }
  }
  return out;
}

// Non-blank records by quote parity alone, the final record counted
// even when its quote never closes: what the reader must account for.
size_t CountNonBlankRecords(std::string_view text) {
  size_t records = 0;
  bool in_quotes = false;
  bool started = false;
  for (size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (c == '"') in_quotes = !in_quotes;
    if (!in_quotes && (c == '\n' || c == '\r')) {
      if (c == '\r' && i + 1 < text.size() && text[i + 1] == '\n') ++i;
      records += started;
      started = false;
      continue;
    }
    started = true;
  }
  return records + started;
}

// Strict and lenient FromCsv and ParseCsv each return a value or a
// Status (never crash); strict success implies lenient success; and a
// lenient load keeps or quarantines every non-blank data record.
void CheckMutant(const std::string& text) {
  auto strict = Table::FromCsv(text);
  CsvReadOptions options;
  options.error_mode = ErrorMode::kLenient;
  QuarantineReport quarantine;
  options.quarantine = &quarantine;
  auto lenient = Table::FromCsv(text, options);
  auto document = ParseCsv(text);
  const size_t records = CountNonBlankRecords(text);
  if (strict.ok()) {
    EXPECT_TRUE(lenient.ok()) << lenient.status();
  }
  if (lenient.ok()) {
    ASSERT_GE(records, 1u);
    EXPECT_EQ(lenient->num_rows() + quarantine.size(), records - 1)
        << quarantine.ToString();
    EXPECT_EQ(document.ok(), quarantine.CountForStage("csv-parse") == 0);
  }
  if (document.ok()) {
    EXPECT_EQ(document->size(), records);
  }
}

class CsvFuzzTest : public testing::TestWithParam<size_t> {};

// About a second in Release over all inputs. A failure names the input
// and the mutant's Rng seed: CheckMutant(Mutate(FuzzInputs()[input],
// seed)) replays it.
TEST_P(CsvFuzzTest, SeededMutantsKeepTheReaderInvariants) {
  const size_t input = GetParam();
  const std::string& text = FuzzInputs()[input];
  const int mutants = text.size() > 4096 ? 200 : 2000;
  for (int i = 0; i < mutants; ++i) {
    const uint64_t seed = 20130408u + (uint64_t{input} << 32) +
                          static_cast<uint64_t>(i);
    SCOPED_TRACE("replay: input " + std::to_string(input) + ", mutant " +
                 std::to_string(i) + ", Mutate seed " +
                 std::to_string(seed));
    CheckMutant(Mutate(text, seed));
    if (HasFailure()) return;
  }
}

INSTANTIATE_TEST_SUITE_P(Inputs, CsvFuzzTest,
                         testing::Range<size_t>(0, 10));

}  // namespace
}  // namespace ddgms
