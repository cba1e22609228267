// Crash-safety tests for the durable warehouse tier: snapshot codec
// round-trips, journal replay/truncation, the commit protocol, and a
// fault-injection crash matrix asserting the durability invariant —
// after a failure at ANY write step, recovery yields either the full
// acknowledged state or a loud error, never silently wrong data.

#include <exception>
#include <filesystem>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/checksum.h"
#include "common/faults.h"
#include "common/io.h"
#include "common/rng.h"
#include "common/strings.h"
#include "core/dd_dgms.h"
#include "discri/cohort.h"
#include "discri/model.h"
#include "gtest/gtest.h"
#include "mdx/executor.h"
#include "olap/cache.h"
#include "table/table.h"
#include "warehouse/journal.h"
#include "warehouse/persist.h"
#include "warehouse/snapshot.h"
#include "warehouse/warehouse.h"

namespace ddgms {
namespace {

// ------------------------------------------------------------ helpers

/// Transformed DiScRi batch in Warehouse::AppendRows source form.
Table MakeBatch(size_t patients, uint64_t seed) {
  discri::CohortOptions opt;
  opt.num_patients = patients;
  opt.seed = seed;
  auto raw = discri::GenerateCohort(opt);
  EXPECT_TRUE(raw.ok()) << raw.status().ToString();
  Table batch = std::move(raw).value();
  auto pipeline = discri::MakeDiscriPipeline();
  EXPECT_TRUE(pipeline.Run(&batch).ok());
  return batch;
}

Result<warehouse::Warehouse> MakeWarehouse(size_t patients,
                                           uint64_t seed) {
  warehouse::StarSchemaBuilder builder(discri::MakeDiscriSchemaDef());
  return builder.Build(MakeBatch(patients, seed));
}

/// Fresh empty directory under the test temp root.
std::string FreshDir(const std::string& name) {
  std::string dir = testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

void CorruptFile(const std::string& path, size_t offset) {
  auto bytes = ReadFileBinary(path);
  ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
  ASSERT_LT(offset, bytes->size());
  (*bytes)[offset] ^= 0x5a;
  ASSERT_TRUE(WriteFileDurable(path, *bytes, /*sync=*/false).ok());
}

olap::CubeQuery CountByGenderQuery() {
  olap::CubeQuery q;
  q.axes = {{"PersonalInformation", "Gender", {}}};
  q.measures = {{AggFn::kCount, "", "n"}};
  return q;
}

/// A small hand-built warehouse covering every column type, nulls, an
/// empty string and a negative zero: its snapshot bytes are pinned.
Result<warehouse::Warehouse> MakeFixedWarehouse() {
  DDGMS_ASSIGN_OR_RETURN(Schema schema,
                         Schema::Make({{"Sex", DataType::kString},
                                       {"Visits", DataType::kInt64},
                                       {"Bmi", DataType::kDouble},
                                       {"Smoker", DataType::kBool},
                                       {"Seen", DataType::kDate},
                                       {"FBG", DataType::kDouble},
                                       {"Age", DataType::kInt64}}));
  Table t(std::move(schema));
  const Value null = Value::Null();
  const std::vector<Row> rows = {
      {Value::Str("F"), Value::Int(1), Value::Real(22.5), Value::Bool(true),
       Value::FromDate(Date(15000)), Value::Real(5.5), Value::Int(71)},
      {Value::Str("M"), null, Value::Real(31.25), Value::Bool(false),
       Value::FromDate(Date(15001)), null, Value::Int(64)},
      {null, Value::Int(3), null, null, null, Value::Real(7.25),
       Value::Int(80)},
      {Value::Str(""), Value::Int(3), Value::Real(-0.0), Value::Bool(true),
       Value::FromDate(Date(0)), Value::Real(6.0), Value::Int(55)},
      {Value::Str("F"), Value::Int(0), Value::Real(27.0), Value::Bool(false),
       Value::FromDate(Date(-3)), Value::Real(4.75), Value::Int(49)},
  };
  for (const Row& row : rows) DDGMS_RETURN_IF_ERROR(t.AppendRow(row));
  warehouse::StarSchemaDef def;
  def.fact_name = "Exams";
  def.measures = {{"FBG", "FBG"}, {"Age", "Age"}};
  def.dimensions = {{"Person", {"Sex", "Visits", "Smoker"}, {}},
                    {"Exam", {"Bmi", "Seen"}, {}}};
  return warehouse::StarSchemaBuilder(def).Build(t);
}

// ----------------------------------------------------- snapshot codec

TEST(SnapshotCodecTest, RoundTripBitExact) {
  auto wh = MakeWarehouse(120, 7);
  ASSERT_TRUE(wh.ok()) << wh.status().ToString();
  std::string image = warehouse::EncodeSnapshot(*wh);
  auto decoded = warehouse::DecodeSnapshot(image);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->num_fact_rows(), wh->num_fact_rows());
  EXPECT_EQ(decoded->dimensions().size(), wh->dimensions().size());
  EXPECT_TRUE(decoded->CheckIntegrity().ok);
  // Bit-exactness: the decoded warehouse re-encodes to the identical
  // byte string, so every double, date and string survived untouched.
  EXPECT_EQ(warehouse::EncodeSnapshot(*decoded), image);
  // Same OLAP answers.
  olap::CubeEngine a(&*wh);
  olap::CubeEngine b(&*decoded);
  auto ca = a.Execute(CountByGenderQuery());
  auto cb = b.Execute(CountByGenderQuery());
  ASSERT_TRUE(ca.ok());
  ASSERT_TRUE(cb.ok());
  for (const Value& m : ca->AxisMembers(0)) {
    EXPECT_EQ(ca->CellValue({m}), cb->CellValue({m}));
  }
}

constexpr size_t kFixedImageSize = 659;
constexpr uint32_t kFixedImageCrc32c = 426883221;

TEST(SnapshotCodecTest, FixedWarehouseBytesArePinned) {
  // Size and CRC32C of this warehouse's image as the format's original
  // encoder wrote it. Any change to them changes the bytes on disk and
  // needs a kSnapshotFormatVersion bump.
  auto wh = MakeFixedWarehouse();
  ASSERT_TRUE(wh.ok()) << wh.status().ToString();
  const std::string image = warehouse::EncodeSnapshot(*wh);
  EXPECT_EQ(image.size(), kFixedImageSize);
  EXPECT_EQ(Crc32c(image), kFixedImageCrc32c);
  // Every column type, null and the empty string re-encode unchanged.
  auto decoded = warehouse::DecodeSnapshot(image);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->num_fact_rows(), 5u);
  EXPECT_EQ(warehouse::EncodeSnapshot(*decoded), image);
}

TEST(SnapshotCodecTest, TableEmptyStringDistinctFromNull) {
  ColumnVector col("Note", DataType::kString);
  col.AppendString("x");
  col.AppendString("");  // present but empty
  col.AppendNull();
  Table t;
  ASSERT_TRUE(t.AddColumn(std::move(col)).ok());

  std::string bytes;
  warehouse::EncodeTable(t, &bytes);
  auto back = warehouse::DecodeTable(bytes);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_FALSE(back->column(0).IsNull(1));
  EXPECT_EQ(back->GetCell(1, "Note")->string_value(), "");
  EXPECT_TRUE(back->column(0).IsNull(2));
}

TEST(SnapshotCodecTest, EveryTruncationDetected) {
  auto wh = MakeWarehouse(30, 11);
  ASSERT_TRUE(wh.ok());
  std::string image = warehouse::EncodeSnapshot(*wh);
  // A snapshot cut off at any point must never decode.
  const size_t step = image.size() / 41 + 1;
  for (size_t cut = 0; cut < image.size(); cut += step) {
    auto r = warehouse::DecodeSnapshot(
        std::string_view(image).substr(0, cut));
    EXPECT_FALSE(r.ok()) << "prefix of " << cut << " bytes decoded";
  }
}

TEST(SnapshotCodecTest, EveryBitFlipDetected) {
  auto wh = MakeWarehouse(30, 13);
  ASSERT_TRUE(wh.ok());
  std::string image = warehouse::EncodeSnapshot(*wh);
  const size_t step = image.size() / 41 + 1;
  for (size_t at = 0; at < image.size(); at += step) {
    std::string bad = image;
    bad[at] = static_cast<char>(bad[at] ^ 0x40);
    auto r = warehouse::DecodeSnapshot(bad);
    EXPECT_FALSE(r.ok()) << "flip at byte " << at << " went unnoticed";
  }
}

TEST(SnapshotCodecTest, FileRoundTripAndShortRead) {
  std::string dir = FreshDir("ddgms_snap_file");
  auto wh = MakeWarehouse(40, 17);
  ASSERT_TRUE(wh.ok());
  std::string path = dir + "/wh.ddws";
  ASSERT_TRUE(
      warehouse::WriteSnapshotFile(*wh, path, /*sync=*/false).ok());
  auto back = warehouse::ReadSnapshotFile(path);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->num_fact_rows(), wh->num_fact_rows());
  // Short read (torn write surfaced at the file layer).
  auto size = FileSize(path);
  ASSERT_TRUE(size.ok());
  ASSERT_TRUE(TruncateFile(path, *size / 2).ok());
  EXPECT_FALSE(warehouse::ReadSnapshotFile(path).ok());
}

/// `wh` with its fact table's first key column rewritten as strings of
/// the same keys.
warehouse::Warehouse WithStringKeys(const warehouse::Warehouse& wh) {
  Table fact;
  for (size_t c = 0; c < wh.fact().num_columns(); ++c) {
    const ColumnVector& col = wh.fact().column(c);
    if (c > 0) {
      EXPECT_TRUE(fact.AddColumn(col).ok());
      continue;
    }
    ColumnVector keys(col.name(), DataType::kString);
    for (size_t i = 0; i < col.size(); ++i) {
      keys.AppendString(std::to_string(col.IntAt(i)));
    }
    EXPECT_TRUE(fact.AddColumn(std::move(keys)).ok());
  }
  return warehouse::Warehouse(wh.def(), std::move(fact), wh.dimensions());
}

TEST(SnapshotCodecTest, StringKeyColumnIsDataLoss) {
  // The checksums verify, so only the integrity check stands between
  // the string keys and a reader that takes them for int64.
  auto wh = MakeFixedWarehouse();
  ASSERT_TRUE(wh.ok()) << wh.status().ToString();
  auto decoded =
      warehouse::DecodeSnapshot(warehouse::EncodeSnapshot(WithStringKeys(*wh)));
  EXPECT_TRUE(decoded.status().IsDataLoss()) << decoded.status().ToString();
}

// ------------------------------------------------- CSV empty strings

TEST(CsvEmptyStringTest, QuotedEmptyRoundTripsBareEmptyStaysNull) {
  ColumnVector ids("Id", DataType::kInt64);
  ids.AppendInt(1);
  ids.AppendInt(2);
  ids.AppendInt(3);
  ColumnVector col("Note", DataType::kString);
  col.AppendString("hello");
  col.AppendString("");
  col.AppendNull();
  Table t;
  ASSERT_TRUE(t.AddColumn(std::move(ids)).ok());
  ASSERT_TRUE(t.AddColumn(std::move(col)).ok());

  CsvWriteOptions wopt;
  wopt.quote_empty_strings = true;
  std::string csv = t.ToCsv(wopt);
  // The empty string is written quoted, the null bare.
  EXPECT_NE(csv.find("\"\""), std::string::npos);

  CsvReadOptions ropt;
  ropt.quoted_empty_is_string = true;
  auto back = Table::FromCsv(csv, ropt);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ASSERT_EQ(back->num_rows(), 3u);
  EXPECT_FALSE(back->column(1).IsNull(1));
  EXPECT_EQ(back->GetCell(1, "Note")->string_value(), "");
  EXPECT_TRUE(back->column(1).IsNull(2));

  // Files written before the quoted-empty encoding (bare empties
  // everywhere) still read exactly as they always did: null.
  auto legacy = Table::FromCsv("Id,Note\n1,hello\n2,\n", ropt);
  ASSERT_TRUE(legacy.ok());
  ASSERT_EQ(legacy->num_rows(), 2u);
  EXPECT_TRUE(legacy->column(1).IsNull(1));
}

TEST(CsvEmptyStringTest, SaveLoadWarehousePreservesEmptyStrings) {
  // End-to-end through the CSV persistence tier: a dimension member
  // whose attribute is the empty string must come back as "" (not
  // null), or integrity checks would pass while queries change.
  std::string dir = FreshDir("ddgms_csv_empty");
  auto wh = MakeWarehouse(50, 19);
  ASSERT_TRUE(wh.ok());
  ASSERT_TRUE(warehouse::SaveWarehouse(*wh, dir).ok());
  auto loaded = warehouse::LoadWarehouse(dir);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->num_fact_rows(), wh->num_fact_rows());
}

TEST(CsvEmptyStringTest, HandEditedStringKeyColumnIsDataLoss) {
  // A directory's .meta files are text a user can edit: a key column
  // retyped as string loads as strings and must fail the integrity
  // check.
  std::string dir = FreshDir("ddgms_csv_string_key");
  auto wh = MakeFixedWarehouse();
  ASSERT_TRUE(wh.ok()) << wh.status().ToString();
  ASSERT_TRUE(warehouse::SaveWarehouse(*wh, dir).ok());
  auto meta = ReadFileBinary(dir + "/fact.meta");
  ASSERT_TRUE(meta.ok()) << meta.status().ToString();
  const std::string typed = "Person_key:int64";
  const size_t at = meta->find(typed);
  ASSERT_NE(at, std::string::npos) << *meta;
  meta->replace(at, typed.size(), "Person_key:string");
  ASSERT_TRUE(WriteFileDurable(dir + "/fact.meta", *meta, false).ok());
  auto loaded = warehouse::LoadWarehouse(dir);
  EXPECT_TRUE(loaded.status().IsDataLoss()) << loaded.status().ToString();
}

// ------------------------------------------------------------ journal

TEST(JournalTest, AppendReplayRoundTrip) {
  std::string dir = FreshDir("ddgms_journal_rt");
  std::string path = dir + "/j.wal";
  Table b1 = MakeBatch(20, 23);
  Table b2 = MakeBatch(10, 29);
  {
    auto writer = warehouse::JournalWriter::Open(path);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer->AppendBatch(b1, /*sync=*/false).ok());
    ASSERT_TRUE(writer->AppendBatch(b2, /*sync=*/false).ok());
  }
  std::vector<size_t> rows;
  auto stats = warehouse::ReplayJournal(
      path, [&](Table batch, size_t) {
        rows.push_back(batch.num_rows());
        return Status::OK();
      });
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_TRUE(stats->clean());
  EXPECT_EQ(stats->records_applied, 2u);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0], b1.num_rows());
  EXPECT_EQ(rows[1], b2.num_rows());
  ASSERT_EQ(stats->record_end_offsets.size(), 2u);
  auto size = FileSize(path);
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(stats->record_end_offsets[1], *size);
}

TEST(JournalTest, MissingJournalIsEmpty) {
  auto stats = warehouse::ReplayJournal(
      testing::TempDir() + "/ddgms_no_such.wal",
      [](Table, size_t) { return Status::OK(); });
  ASSERT_TRUE(stats.ok());
  EXPECT_TRUE(stats->clean());
  EXPECT_EQ(stats->records_applied, 0u);
}

TEST(JournalTest, TornTailDetectedAndTruncated) {
  std::string dir = FreshDir("ddgms_journal_torn");
  std::string path = dir + "/j.wal";
  {
    auto writer = warehouse::JournalWriter::Open(path);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer->AppendBatch(MakeBatch(15, 31), false).ok());
    ASSERT_TRUE(writer->AppendBatch(MakeBatch(15, 37), false).ok());
  }
  auto size = FileSize(path);
  ASSERT_TRUE(size.ok());
  // Tear the second record: keep its header plus some payload.
  auto clean_stats = warehouse::ReplayJournal(
      path, [](Table, size_t) { return Status::OK(); });
  ASSERT_TRUE(clean_stats.ok());
  const uint64_t first_end = clean_stats->record_end_offsets[0];
  ASSERT_TRUE(TruncateFile(path, first_end + 40).ok());

  auto stats = warehouse::ReplayJournal(
      path, [](Table, size_t) { return Status::OK(); });
  ASSERT_TRUE(stats.ok());
  EXPECT_FALSE(stats->clean());
  EXPECT_EQ(stats->records_applied, 1u);
  EXPECT_EQ(stats->valid_bytes, first_end);
  EXPECT_EQ(stats->dropped_bytes, 40u);

  ASSERT_TRUE(warehouse::TruncateJournalTail(path, *stats).ok());
  auto after = warehouse::ReplayJournal(
      path, [](Table, size_t) { return Status::OK(); });
  ASSERT_TRUE(after.ok());
  EXPECT_TRUE(after->clean());
  EXPECT_EQ(after->records_applied, 1u);
}

TEST(JournalTest, CorruptRecordStopsReplay) {
  std::string dir = FreshDir("ddgms_journal_flip");
  std::string path = dir + "/j.wal";
  {
    auto writer = warehouse::JournalWriter::Open(path);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer->AppendBatch(MakeBatch(12, 41), false).ok());
    ASSERT_TRUE(writer->AppendBatch(MakeBatch(12, 43), false).ok());
  }
  auto clean_stats = warehouse::ReplayJournal(
      path, [](Table, size_t) { return Status::OK(); });
  ASSERT_TRUE(clean_stats.ok());
  // Flip a payload byte inside the second record.
  CorruptFile(path, clean_stats->record_end_offsets[0] + 20);
  auto stats = warehouse::ReplayJournal(
      path, [](Table, size_t) { return Status::OK(); });
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->records_applied, 1u);
  EXPECT_FALSE(stats->clean());

  // Flip inside the first record: nothing applies.
  CorruptFile(path, 16);
  auto none = warehouse::ReplayJournal(
      path, [](Table, size_t) { return Status::OK(); });
  ASSERT_TRUE(none.ok());
  EXPECT_EQ(none->records_applied, 0u);
  EXPECT_EQ(none->valid_bytes, 0u);
}

// ----------------------------------------------------- durable store

warehouse::DurabilityOptions FastOptions() {
  warehouse::DurabilityOptions opt;
  opt.sync = false;  // no power-loss simulation in these tests
  return opt;
}

TEST(DurableStoreTest, CommitLoadRoundTrip) {
  std::string dir = FreshDir("ddgms_store_rt");
  auto wh = MakeWarehouse(60, 47);
  ASSERT_TRUE(wh.ok());
  {
    auto store = warehouse::DurableWarehouseStore::Open(dir, FastOptions());
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    EXPECT_FALSE(store->has_snapshot());
    ASSERT_TRUE(store->CommitSnapshot(*wh).ok());
    EXPECT_EQ(store->seq(), 1u);
  }
  auto store = warehouse::DurableWarehouseStore::Open(dir, FastOptions());
  ASSERT_TRUE(store.ok());
  EXPECT_EQ(store->seq(), 1u);
  auto loaded = store->Load();
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->num_fact_rows(), wh->num_fact_rows());
  EXPECT_TRUE(loaded->CheckIntegrity().ok);
}

TEST(DurableStoreTest, JournaledBatchesReplayOnLoad) {
  std::string dir = FreshDir("ddgms_store_journal");
  auto wh = MakeWarehouse(40, 53);
  ASSERT_TRUE(wh.ok());
  Table b1 = MakeBatch(10, 59);
  Table b2 = MakeBatch(5, 61);
  {
    auto store = warehouse::DurableWarehouseStore::Open(dir, FastOptions());
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE(store->CommitSnapshot(*wh).ok());
    ASSERT_TRUE(store->AppendBatch(b1).ok());
    ASSERT_TRUE(store->AppendBatch(b2).ok());
  }
  auto store = warehouse::DurableWarehouseStore::Open(dir, FastOptions());
  ASSERT_TRUE(store.ok());
  auto loaded = store->Load();
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->num_fact_rows(),
            wh->num_fact_rows() + b1.num_rows() + b2.num_rows());
  EXPECT_TRUE(loaded->CheckIntegrity().ok);
  // Checkpointing compacts the journal into generation 2.
  ASSERT_TRUE(store->CommitSnapshot(*loaded).ok());
  EXPECT_EQ(store->seq(), 2u);
  auto size = FileSize(store->JournalPath(2));
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(*size, 0u);
}

TEST(DurableStoreTest, AppendBeforeCommitFails) {
  std::string dir = FreshDir("ddgms_store_nocommit");
  auto store = warehouse::DurableWarehouseStore::Open(dir, FastOptions());
  ASSERT_TRUE(store.ok());
  EXPECT_TRUE(store->AppendBatch(MakeBatch(3, 67)).IsFailedPrecondition());
  EXPECT_TRUE(store->Load().status().IsNotFound());
}

TEST(DurableStoreTest, PruneKeepsRetentionWindow) {
  std::string dir = FreshDir("ddgms_store_prune");
  auto wh = MakeWarehouse(20, 71);
  ASSERT_TRUE(wh.ok());
  auto store = warehouse::DurableWarehouseStore::Open(dir, FastOptions());
  ASSERT_TRUE(store.ok());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(store->CommitSnapshot(*wh).ok());
  }
  EXPECT_EQ(store->seq(), 3u);
  EXPECT_FALSE(FileExists(store->SnapshotPath(1)));
  EXPECT_TRUE(FileExists(store->SnapshotPath(2)));
  EXPECT_TRUE(FileExists(store->SnapshotPath(3)));
}

TEST(DurableStoreTest, CorruptManifestLoadFailsRecoverScans) {
  std::string dir = FreshDir("ddgms_store_badmanifest");
  auto wh = MakeWarehouse(30, 73);
  ASSERT_TRUE(wh.ok());
  Table batch = MakeBatch(8, 79);
  {
    auto store = warehouse::DurableWarehouseStore::Open(dir, FastOptions());
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE(store->CommitSnapshot(*wh).ok());
    ASSERT_TRUE(store->AppendBatch(batch).ok());
  }
  CorruptFile(dir + "/MANIFEST", 4);
  {
    auto store = warehouse::DurableWarehouseStore::Open(dir, FastOptions());
    ASSERT_TRUE(store.ok());  // Open tolerates it; Load must not.
    EXPECT_TRUE(store->Load().status().IsDataLoss());
    warehouse::RecoveryReport report;
    auto recovered = store->Recover(&report);
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    EXPECT_FALSE(report.manifest_intact);
    EXPECT_EQ(report.seq, 1u);
    EXPECT_EQ(report.journal_records_applied, 1u);
    EXPECT_EQ(recovered->num_fact_rows(),
              wh->num_fact_rows() + batch.num_rows());
  }
  // Recovery re-pointed the MANIFEST: a fresh strict load succeeds.
  auto store = warehouse::DurableWarehouseStore::Open(dir, FastOptions());
  ASSERT_TRUE(store.ok());
  EXPECT_TRUE(store->Load().ok());
}

TEST(DurableStoreTest, CorruptSnapshotFallsBackToPreviousGeneration) {
  std::string dir = FreshDir("ddgms_store_fallback");
  auto wh = MakeWarehouse(30, 83);
  ASSERT_TRUE(wh.ok());
  Table batch = MakeBatch(10, 89);
  uint64_t expected_rows = 0;
  {
    auto store = warehouse::DurableWarehouseStore::Open(dir, FastOptions());
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE(store->CommitSnapshot(*wh).ok());
    ASSERT_TRUE(store->AppendBatch(batch).ok());
    auto full = store->Load();
    ASSERT_TRUE(full.ok());
    expected_rows = full->num_fact_rows();
    ASSERT_TRUE(store->CommitSnapshot(*full).ok());  // generation 2
  }
  // Generation 2's snapshot is destroyed; generation 1 + its journal
  // hold the same logical state.
  CorruptFile(dir + "/snapshot-000002.ddws", 100);
  auto store = warehouse::DurableWarehouseStore::Open(dir, FastOptions());
  ASSERT_TRUE(store.ok());
  warehouse::RecoveryReport report;
  auto recovered = store->Recover(&report);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_TRUE(report.used_fallback);
  EXPECT_EQ(report.seq, 1u);
  ASSERT_EQ(report.skipped_snapshots.size(), 1u);
  EXPECT_EQ(recovered->num_fact_rows(), expected_rows);
  EXPECT_FALSE(report.clean());
}

TEST(DurableStoreTest, TornJournalTailRecoveredAndTruncated) {
  std::string dir = FreshDir("ddgms_store_torn");
  auto wh = MakeWarehouse(30, 97);
  ASSERT_TRUE(wh.ok());
  Table batch = MakeBatch(10, 101);
  {
    auto store = warehouse::DurableWarehouseStore::Open(dir, FastOptions());
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE(store->CommitSnapshot(*wh).ok());
    ASSERT_TRUE(store->AppendBatch(batch).ok());
    ASSERT_TRUE(store->AppendBatch(MakeBatch(10, 103)).ok());
  }
  // Tear the second record mid-payload, as a crash during a journaled
  // acquisition would.
  std::string journal = dir + "/journal-000001.wal";
  auto stats = warehouse::ReplayJournal(
      journal, [](Table, size_t) { return Status::OK(); });
  ASSERT_TRUE(stats.ok());
  ASSERT_TRUE(
      TruncateFile(journal, stats->record_end_offsets[0] + 30).ok());

  auto store = warehouse::DurableWarehouseStore::Open(dir, FastOptions());
  ASSERT_TRUE(store.ok());
  EXPECT_TRUE(store->Load().status().IsDataLoss());  // strict says no
  warehouse::RecoveryReport report;
  auto recovered = store->Recover(&report);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(report.journal_records_applied, 1u);
  EXPECT_FALSE(report.journal_corruption.empty());
  EXPECT_TRUE(report.journal_truncated);
  EXPECT_GT(report.journal_bytes_dropped, 0u);
  EXPECT_EQ(recovered->num_fact_rows(),
            wh->num_fact_rows() + batch.num_rows());
  // The journal is clean again: appends and strict loads both work.
  Table more = MakeBatch(5, 107);
  ASSERT_TRUE(store->AppendBatch(more).ok());
  auto reopened =
      warehouse::DurableWarehouseStore::Open(dir, FastOptions());
  ASSERT_TRUE(reopened.ok());
  auto strict = reopened->Load();
  ASSERT_TRUE(strict.ok()) << strict.status().ToString();
  EXPECT_EQ(strict->num_fact_rows(),
            wh->num_fact_rows() + batch.num_rows() + more.num_rows());
}

TEST(DurableStoreTest, UnappliableJournalRecordRollsBackToPrefix) {
  std::string dir = FreshDir("ddgms_store_badrecord");
  auto wh = MakeWarehouse(30, 109);
  ASSERT_TRUE(wh.ok());
  Table good = MakeBatch(10, 113);
  {
    auto store = warehouse::DurableWarehouseStore::Open(dir, FastOptions());
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE(store->CommitSnapshot(*wh).ok());
    ASSERT_TRUE(store->AppendBatch(good).ok());
  }
  // Append a record that decodes fine but cannot be applied (wrong
  // schema — AppendRows will reject it).
  {
    auto writer =
        warehouse::JournalWriter::Open(dir + "/journal-000001.wal");
    ASSERT_TRUE(writer.ok());
    ColumnVector col("NotAColumn", DataType::kInt64);
    col.AppendInt(1);
    Table bogus;
    ASSERT_TRUE(bogus.AddColumn(std::move(col)).ok());
    ASSERT_TRUE(writer->AppendBatch(bogus, /*sync=*/false).ok());
  }
  auto store = warehouse::DurableWarehouseStore::Open(dir, FastOptions());
  ASSERT_TRUE(store.ok());
  EXPECT_FALSE(store->Load().ok());
  warehouse::RecoveryReport report;
  auto recovered = store->Recover(&report);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(report.journal_records_applied, 1u);
  EXPECT_EQ(report.journal_records_dropped, 1u);
  EXPECT_TRUE(report.journal_truncated);
  EXPECT_EQ(recovered->num_fact_rows(),
            wh->num_fact_rows() + good.num_rows());
  EXPECT_TRUE(recovered->CheckIntegrity().ok);
}

TEST(DurableStoreTest, NothingReadableFailsLoudly) {
  std::string dir = FreshDir("ddgms_store_hopeless");
  auto wh = MakeWarehouse(20, 127);
  ASSERT_TRUE(wh.ok());
  {
    auto store = warehouse::DurableWarehouseStore::Open(dir, FastOptions());
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE(store->CommitSnapshot(*wh).ok());
  }
  CorruptFile(dir + "/snapshot-000001.ddws", 50);
  auto store = warehouse::DurableWarehouseStore::Open(dir, FastOptions());
  ASSERT_TRUE(store.ok());
  warehouse::RecoveryReport report;
  auto recovered = store->Recover(&report);
  EXPECT_TRUE(recovered.status().IsDataLoss());
  EXPECT_EQ(report.skipped_snapshots.size(), 1u);
}

// ------------------------------------------------------- crash matrix
//
// The durability invariant, checked at every write-path fault point:
// whatever step fails, afterwards (a) every acknowledged batch is
// still recoverable, (b) recovery itself succeeds, and (c) the store
// ends in a state a strict Load accepts. Faults are injected as
// errors at the exact syscalls a crash would tear.

class CrashMatrixTest : public testing::TestWithParam<const char*> {
 protected:
  void TearDown() override { FaultRegistry::Global().Reset(); }
};

TEST_P(CrashMatrixTest, RecoversAfterFaultAtEveryWriteStep) {
  const std::string point = GetParam();
  std::string dir =
      FreshDir("ddgms_crash_" + std::to_string(
          std::hash<std::string>{}(point) % 100000));
  auto wh = MakeWarehouse(25, 131);
  ASSERT_TRUE(wh.ok());
  Table batch = MakeBatch(8, 137);
  const size_t base_rows = wh->num_fact_rows();
  const size_t full_rows = base_rows + batch.num_rows();

  auto store = warehouse::DurableWarehouseStore::Open(dir, FastOptions());
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(store->CommitSnapshot(*wh).ok());
  warehouse::Warehouse full = *wh;
  ASSERT_TRUE(full.AppendRows(batch).ok());

  bool append_acknowledged = false;
  {
    // Every subsequent hit of the point fails, covering first-hit and
    // retry-hit positions along both the append and commit paths.
    FaultPlan plan;
    plan.code = StatusCode::kDataLoss;
    plan.fail_first = 1000;
    ScopedFault fault(point, plan);
    append_acknowledged = store->AppendBatch(batch).ok();
    (void)store->CommitSnapshot(full);  // may fail; must not corrupt
  }
  FaultRegistry::Global().Reset();

  auto reopened =
      warehouse::DurableWarehouseStore::Open(dir, FastOptions());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  warehouse::RecoveryReport report;
  auto recovered = reopened->Recover(&report);
  ASSERT_TRUE(recovered.ok())
      << point << ": " << recovered.status().ToString();
  EXPECT_TRUE(recovered->CheckIntegrity().ok) << point;
  if (append_acknowledged) {
    // An acknowledged append must survive whatever happened next.
    EXPECT_EQ(recovered->num_fact_rows(), full_rows) << point;
  } else {
    EXPECT_TRUE(recovered->num_fact_rows() == base_rows ||
                recovered->num_fact_rows() == full_rows)
        << point << ": " << recovered->num_fact_rows();
  }
  // Recovery leaves a state the strict path accepts.
  auto fresh = warehouse::DurableWarehouseStore::Open(dir, FastOptions());
  ASSERT_TRUE(fresh.ok());
  EXPECT_TRUE(fresh->Load().ok()) << point;
}

INSTANTIATE_TEST_SUITE_P(
    WritePath, CrashMatrixTest,
    testing::Values("io.durable.open", "io.durable.write",
                    "io.durable.sync", "io.durable.rename",
                    "io.durable.dirsync", "io.append.open",
                    "io.append.write", "io.append.sync",
                    "snapshot.write", "journal.open",
                    "journal.append_batch", "journal.sync",
                    "persist.commit", "persist.manifest.write"));

/// Read-side faults must surface loudly from the strict path and clear
/// once the transient goes away.
class ReadFaultTest : public testing::TestWithParam<const char*> {
 protected:
  void TearDown() override { FaultRegistry::Global().Reset(); }
};

TEST_P(ReadFaultTest, StrictLoadFailsLoudlyThenRecovers) {
  const std::string point = GetParam();
  std::string dir =
      FreshDir("ddgms_readfault_" + std::to_string(
          std::hash<std::string>{}(point) % 100000));
  auto wh = MakeWarehouse(20, 139);
  ASSERT_TRUE(wh.ok());
  {
    auto store = warehouse::DurableWarehouseStore::Open(dir, FastOptions());
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE(store->CommitSnapshot(*wh).ok());
    ASSERT_TRUE(store->AppendBatch(MakeBatch(6, 149)).ok());
  }
  {
    FaultPlan plan;
    plan.code = StatusCode::kDataLoss;
    plan.fail_first = 1000;
    ScopedFault fault(point, plan);
    auto store = warehouse::DurableWarehouseStore::Open(dir, FastOptions());
    if (store.ok()) {
      EXPECT_FALSE(store->Load().ok()) << point;
    }
  }
  FaultRegistry::Global().Reset();
  auto store = warehouse::DurableWarehouseStore::Open(dir, FastOptions());
  ASSERT_TRUE(store.ok());
  EXPECT_TRUE(store->Load().ok()) << point;
}

INSTANTIATE_TEST_SUITE_P(
    ReadPath, ReadFaultTest,
    testing::Values("io.read_file", "snapshot.read",
                    "snapshot.read_section", "journal.replay_record",
                    "persist.load"));

// ------------------------------------------- cache across recovery

TEST(CacheRecoveryTest, GenerationStampInvalidatesOnReloadSameRowCount) {
  // A recovered warehouse can have the same fact-row count as the
  // cached one (here: an identical reload); its lineage stamp must
  // still invalidate the cache.
  auto wh1 = MakeWarehouse(40, 151);
  auto wh2 = MakeWarehouse(40, 151);
  ASSERT_TRUE(wh1.ok());
  ASSERT_TRUE(wh2.ok());
  ASSERT_EQ(wh1->num_fact_rows(), wh2->num_fact_rows());
  ASSERT_NE(wh1->lineage(), wh2->lineage());

  warehouse::Warehouse wh = std::move(wh1).value();
  olap::CachingCubeEngine engine(&wh);
  ASSERT_TRUE(engine.Execute(CountByGenderQuery()).ok());
  ASSERT_TRUE(engine.Execute(CountByGenderQuery()).ok());
  EXPECT_EQ(engine.hits(), 1u);
  const size_t misses_before = engine.misses();

  // In-place reload, as LoadDurable/RecoverDurable's facade does.
  wh = std::move(wh2).value();
  auto after = engine.Execute(CountByGenderQuery());
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(engine.misses(), misses_before + 1);
  int64_t total = 0;
  for (const Value& m : (*after)->AxisMembers(0)) {
    total += (*after)->CellValue({m}).int_value();
  }
  EXPECT_EQ(total, static_cast<int64_t>(wh.num_fact_rows()));
}

// -------------------------------------------------- facade round trip

TEST(DurableFacadeTest, AttachAcquireLoadRecover) {
  std::string dir = FreshDir("ddgms_facade");
  discri::CohortOptions opt;
  opt.num_patients = 50;
  opt.seed = 163;
  auto raw = discri::GenerateCohort(opt);
  ASSERT_TRUE(raw.ok());
  auto dgms = core::DdDgms::Build(std::move(raw).value(),
                                  discri::MakeDiscriPipeline(),
                                  discri::MakeDiscriSchemaDef());
  ASSERT_TRUE(dgms.ok());
  EXPECT_FALSE(dgms->durable());
  EXPECT_TRUE(dgms->Checkpoint().IsFailedPrecondition());
  warehouse::DurabilityOptions fast = FastOptions();
  ASSERT_TRUE(dgms->AttachDurableStorage(dir, fast).ok());
  EXPECT_TRUE(dgms->durable());
  EXPECT_TRUE(
      dgms->AttachDurableStorage(dir, fast).IsFailedPrecondition());

  opt.num_patients = 20;
  opt.seed = 167;
  auto extra = discri::GenerateCohort(opt);
  ASSERT_TRUE(extra.ok());
  ASSERT_TRUE(dgms->AcquireData(*extra).ok());
  const size_t rows = dgms->warehouse().num_fact_rows();

  // Strict load sees snapshot + journaled acquisition.
  auto loaded = core::DdDgms::LoadDurable(
      dir, discri::MakeDiscriPipeline(), {}, fast);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->warehouse().num_fact_rows(), rows);
  auto mdx = loaded->QueryMdx(
      "SELECT [PersonalInformation].[Gender].Members ON ROWS "
      "FROM [MedicalMeasures]");
  ASSERT_TRUE(mdx.ok()) << mdx.status().ToString();

  warehouse::RecoveryReport report;
  auto recovered = core::DdDgms::RecoverDurable(
      dir, discri::MakeDiscriPipeline(), &report, {}, fast);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(recovered->warehouse().num_fact_rows(), rows);
}

/// A raw DiScRi cohort, as AcquireData takes it.
Table RawCohort(size_t patients, uint64_t seed) {
  discri::CohortOptions opt;
  opt.num_patients = patients;
  opt.seed = seed;
  auto raw = discri::GenerateCohort(opt);
  EXPECT_TRUE(raw.ok()) << raw.status().ToString();
  return std::move(raw).value();
}

/// A facade over 400 patients (seed 7) with durable storage in `dir`.
Result<core::DdDgms> DurableFacade(const std::string& dir) {
  DDGMS_ASSIGN_OR_RETURN(
      core::DdDgms dgms,
      core::DdDgms::Build(RawCohort(400, 7), discri::MakeDiscriPipeline(),
                          discri::MakeDiscriSchemaDef()));
  DDGMS_RETURN_IF_ERROR(dgms.AttachDurableStorage(dir, FastOptions()));
  return dgms;
}

std::vector<size_t> MemberCounts(const warehouse::Warehouse& wh) {
  std::vector<size_t> counts;
  for (const warehouse::Dimension& dim : wh.dimensions()) {
    counts.push_back(dim.num_members());
  }
  return counts;
}

uint64_t JournalBytes(const core::DdDgms& dgms) {
  const warehouse::DurableWarehouseStore* store = dgms.durable_store();
  auto size = FileSize(store->JournalPath(store->seq()));
  EXPECT_TRUE(size.ok()) << size.status().ToString();
  return size.ok() ? *size : 0;
}

TEST(DurableFacadeTest, RejectedBatchLeavesNoTraceAndTheNextSurvives) {
  std::string dir = FreshDir("ddgms_facade_rejected");
  auto dgms = DurableFacade(dir);
  ASSERT_TRUE(dgms.ok()) << dgms.status().ToString();
  const warehouse::Warehouse& wh = dgms->warehouse();
  const size_t facts = wh.num_fact_rows();
  const uint64_t lineage = wh.lineage();
  const std::vector<size_t> members = MemberCounts(wh);

  // Education as int64, null in the first row: ETL lets the batch
  // through, and the string Education members cannot hold row 2.
  Table raw = RawCohort(15, 211);
  ASSERT_GE(raw.num_rows(), 2u);
  ColumnVector education("Education", DataType::kInt64);
  education.AppendNull();
  for (size_t i = 1; i < raw.num_rows(); ++i) {
    education.AppendInt(static_cast<int64_t>(i));
  }
  Table bad;
  for (size_t c = 0; c < raw.num_columns(); ++c) {
    const ColumnVector& col = raw.column(c);
    ASSERT_TRUE(
        bad.AddColumn(col.name() == "Education" ? education : col).ok());
  }
  Status st = dgms->AcquireData(bad);
  EXPECT_TRUE(st.IsInvalidArgument()) << st.ToString();
  EXPECT_EQ(wh.num_fact_rows(), facts);
  EXPECT_EQ(wh.lineage(), lineage);
  EXPECT_EQ(MemberCounts(wh), members);
  EXPECT_EQ(JournalBytes(*dgms), 0u);

  // The next good batch is acknowledged, and survives a strict load and
  // a recovery whole.
  ASSERT_TRUE(dgms->AcquireData(RawCohort(15, 223)).ok());
  const size_t rows = wh.num_fact_rows();
  EXPECT_GT(rows, facts);
  auto loaded = core::DdDgms::LoadDurable(dir, discri::MakeDiscriPipeline(),
                                          {}, FastOptions());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->warehouse().num_fact_rows(), rows);
  warehouse::RecoveryReport report;
  auto recovered = core::DdDgms::RecoverDurable(
      dir, discri::MakeDiscriPipeline(), &report, {}, FastOptions());
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(report.journal_records_dropped, 0u);
  EXPECT_TRUE(report.clean()) << report.ToString();
  EXPECT_EQ(recovered->warehouse().num_fact_rows(), rows);
}

TEST(DurableFacadeTest, ExtraRawColumnIsRejectedBeforeJournaling) {
  std::string dir = FreshDir("ddgms_facade_extra_column");
  auto dgms = DurableFacade(dir);
  ASSERT_TRUE(dgms.ok()) << dgms.status().ToString();
  const size_t facts = dgms->warehouse().num_fact_rows();

  // The warehouse ignores the extra column; the raw extract cannot take
  // it, so the batch must be refused before anything is written.
  Table extra = RawCohort(15, 227);
  ColumnVector ward("Ward", DataType::kInt64);
  for (size_t i = 0; i < extra.num_rows(); ++i) ward.AppendInt(1);
  ASSERT_TRUE(extra.AddColumn(std::move(ward)).ok());
  Status st = dgms->AcquireData(extra);
  EXPECT_TRUE(st.IsInvalidArgument()) << st.ToString();
  EXPECT_EQ(dgms->warehouse().num_fact_rows(), facts);
  EXPECT_EQ(JournalBytes(*dgms), 0u);

  auto loaded = core::DdDgms::LoadDurable(dir, discri::MakeDiscriPipeline(),
                                          {}, FastOptions());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->warehouse().num_fact_rows(), facts);
}

// ------------------------------------------- cubes rolled forward

const char* const kFig5Mdx =
    "SELECT { [PersonalInformation].[Gender].Members } ON COLUMNS, "
    "{ [PersonalInformation].[AgeBand10].Members } ON ROWS "
    "FROM [MedicalMeasures] "
    "WHERE ( [MedicalCondition].[DiabetesStatus].[Type2] )";
const char* const kFig6Mdx =
    "SELECT { [MedicalCondition].[DiagnosticHTYearsBand].Members } "
    "ON COLUMNS, { [PersonalInformation].[AgeBand5].Members } ON ROWS "
    "FROM [MedicalMeasures] "
    "WHERE ( [MedicalCondition].[HypertensionStatus].[Yes] )";

/// The "cache" prop of the result's cube-cache node, or "" without one.
std::string CacheVerdict(const mdx::MdxResult& result) {
  for (const olap::PlanNode& node : result.profile.plan.children) {
    if (node.op != "olap.cube.cache") continue;
    for (const auto& [key, value] : node.props) {
      if (key == "cache") return value;
    }
  }
  return "";
}

/// The query's grid as text.
std::string GridText(const core::DdDgms& dgms, const char* mdx) {
  auto result = dgms.QueryMdx(mdx);
  if (!result.ok()) return "error: " + result.status().ToString();
  auto grid = result->ToGrid();
  if (!grid.ok()) return "error: " + grid.status().ToString();
  return grid->ToPrettyString(1000);
}

// Durable acquisitions roll the facade's cached Fig 5 and Fig 6 cubes
// forward; their grids equal those of a facade reloaded from the store.
TEST(CacheRollForwardTest, DurableAcquisitionsMatchAReload) {
  std::string dir = FreshDir("ddgms_roll_forward");
  auto dgms = DurableFacade(dir);
  ASSERT_TRUE(dgms.ok()) << dgms.status().ToString();
  for (const char* mdx : {kFig5Mdx, kFig6Mdx}) {
    auto first = dgms->QueryMdx(mdx);
    ASSERT_TRUE(first.ok()) << first.status().ToString();
    EXPECT_EQ(CacheVerdict(*first), "miss");
  }
  for (uint64_t seed : {301, 302, 303}) {
    ASSERT_TRUE(dgms->AcquireData(RawCohort(10, seed)).ok());
    for (const char* mdx : {kFig5Mdx, kFig6Mdx}) {
      auto rolled = dgms->QueryMdx(mdx);
      ASSERT_TRUE(rolled.ok()) << rolled.status().ToString();
      EXPECT_EQ(CacheVerdict(*rolled), "rolled") << seed;
      EXPECT_EQ(rolled->cube.facts_aggregated(),
                rolled->profile.facts_aggregated);
    }
  }

  // Two results of one cached query share its cells.
  auto a = dgms->QueryMdx(kFig5Mdx);
  auto b = dgms->QueryMdx(kFig5Mdx);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(CacheVerdict(*b), "hit");
  EXPECT_EQ(&a->cube.AxisMembers(0), &b->cube.AxisMembers(0));

  auto loaded = core::DdDgms::LoadDurable(dir, discri::MakeDiscriPipeline(),
                                          {}, FastOptions());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->warehouse().num_fact_rows(),
            dgms->warehouse().num_fact_rows());
  for (const char* mdx : {kFig5Mdx, kFig6Mdx}) {
    EXPECT_EQ(GridText(*dgms, mdx), GridText(*loaded, mdx)) << mdx;
  }
}

// Without durable storage an acquisition rebuilds the warehouse, which
// ends the cached cubes' append chain: they are computed afresh, and
// answer like a facade built from every row.
TEST(CacheRollForwardTest, ANonDurableRebuildRecomputes) {
  auto dgms = core::DdDgms::Build(RawCohort(200, 11),
                                  discri::MakeDiscriPipeline(),
                                  discri::MakeDiscriSchemaDef());
  ASSERT_TRUE(dgms.ok()) << dgms.status().ToString();
  ASSERT_TRUE(dgms->QueryMdx(kFig5Mdx).ok());
  const Table extra = RawCohort(10, 12);
  ASSERT_TRUE(dgms->AcquireData(extra).ok());
  auto after = dgms->QueryMdx(kFig5Mdx);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(CacheVerdict(*after), "miss");

  Table all = RawCohort(200, 11);
  ASSERT_TRUE(all.Concat(extra).ok());
  auto whole = core::DdDgms::Build(std::move(all),
                                   discri::MakeDiscriPipeline(),
                                   discri::MakeDiscriSchemaDef());
  ASSERT_TRUE(whole.ok()) << whole.status().ToString();
  EXPECT_EQ(GridText(*dgms, kFig5Mdx), GridText(*whole, kFig5Mdx));
}

// ----------------------------------------------------- decoder fuzzing
//
// Seeded mutants of the fixed warehouse's durable forms, each handed to
// its decoder, which must return a Status: no throw, no crash. Snapshot
// and journal mutants have their checksums re-sealed, so they reach the
// decoders behind them.

/// What an insertion splices in: schema-text keywords and names, and
/// bytes a parser must not trip over.
const std::string_view kFuzzTokens[] = {
    "fact ", "dimension ", "attr ", "hierarchy ", "measure ", "degenerate ",
    "Person", "Sex", "Visits", "FBG", " ", "\n", "\t", "\r",
    std::string_view("\0", 1), "\xff", "\x80"};

/// One seeded mutant of `input`: one to four edits, each a flipped bit,
/// a boundary value written over 1, 2, 4 or 8 bytes (little-endian, at
/// an offset aligned to its width, 4 at most, as the formats' counts
/// and lengths often are), a deleted span, an inserted kFuzzTokens
/// entry, a truncation or a duplicated span.
std::string MutateBytes(const std::string& input, uint64_t seed) {
  static constexpr uint64_t kBoundaries[] = {
      0, 1, 2, 7, 8, 0x7f, 0x80, 0xff, 0xffff, 0x7fffffff, 0xffffffff,
      uint64_t{1} << 32, uint64_t{1} << 62, ~uint64_t{0}};
  Rng rng(seed);
  std::string out = input;
  auto pos = [&] {
    return static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(out.size())));
  };
  const int64_t edits = rng.UniformInt(1, 4);
  for (int64_t e = 0; e < edits; ++e) {
    switch (rng.UniformInt(0, 5)) {
      case 0:
        if (!out.empty()) {
          out[std::min(pos(), out.size() - 1)] ^=
              static_cast<char>(1u << rng.UniformInt(0, 7));
        }
        break;
      case 1: {
        const uint64_t v =
            kBoundaries[rng.UniformInt(0, std::size(kBoundaries) - 1)];
        const size_t width = size_t{1} << rng.UniformInt(0, 3);
        const size_t at = pos() & ~(std::min<size_t>(width, 4) - 1);
        for (size_t b = 0; b < width && at + b < out.size(); ++b) {
          out[at + b] = static_cast<char>((v >> (8 * b)) & 0xff);
        }
        break;
      }
      case 2: {
        const size_t begin = pos();
        out.erase(begin, static_cast<size_t>(rng.UniformInt(1, 16)));
        break;
      }
      case 3:
        out.insert(pos(), kFuzzTokens[rng.UniformInt(
                              0, std::size(kFuzzTokens) - 1)]);
        break;
      case 4:
        out.resize(pos());
        break;
      default: {
        const size_t begin = pos();
        out.insert(begin, out.substr(begin, static_cast<size_t>(
                                                rng.UniformInt(1, 40))));
        break;
      }
    }
  }
  return out;
}

/// Overwrites the 4 bytes at `at` with `v`, little-endian.
void PutU32At(std::string* bytes, size_t at, uint32_t v) {
  for (size_t b = 0; b < 4; ++b) {
    (*bytes)[at + b] = static_cast<char>((v >> (8 * b)) & 0xff);
  }
}

/// Re-seals a snapshot image's header CRC and each section's CRC, as
/// far as the lengths in it still frame sections.
void ResealSnapshot(std::string* image) {
  constexpr size_t kHeaderBytes = 16;  // magic, version, section count
  ByteReader reader(*image);
  if (!reader.Skip(kHeaderBytes + 4).ok()) return;
  PutU32At(image, kHeaderBytes,
           MaskCrc32c(Crc32c(std::string_view(*image).substr(
               0, kHeaderBytes))));
  while (reader.remaining() > 0) {
    // kind, name, payload length, CRC, payload
    if (!reader.Skip(1).ok() || !reader.ReadLengthPrefixed().ok()) return;
    auto length = reader.ReadU64();
    const size_t crc_at = reader.offset();
    if (!length.ok() || !reader.Skip(4).ok()) return;
    auto payload = reader.ReadBytes(*length);
    if (!payload.ok()) return;
    PutU32At(image, crc_at, MaskCrc32c(Crc32c(*payload)));
  }
}

/// Re-seals each journal record's CRC, as far as the lengths in the
/// records still frame them.
void ResealJournal(std::string* journal) {
  ByteReader reader(*journal);
  while (reader.remaining() > 0) {
    // magic, payload length, CRC, payload
    if (!reader.Skip(4).ok()) return;
    auto length = reader.ReadU32();
    const size_t crc_at = reader.offset();
    if (!length.ok() || !reader.Skip(4).ok()) return;
    auto payload = reader.ReadBytes(*length);
    if (!payload.ok()) return;
    PutU32At(journal, crc_at, MaskCrc32c(Crc32c(*payload)));
  }
}

/// Feeds `draws` seeded mutants of input number `input` (named `name`),
/// each re-sealed by `reseal` when it is given, to `decode`, which must
/// return a Status. A failure names the input, the seed and the draw,
/// and dumps the mutant: MutateBytes(<the input>, seed) replays it.
void FuzzDecoder(uint64_t input, const char* name, const std::string& bytes,
                 int draws, void (*reseal)(std::string*),
                 const std::function<Status(const std::string&)>& decode) {
  for (int i = 0; i < draws; ++i) {
    const uint64_t seed =
        20130408u + (input << 32) + static_cast<uint64_t>(i);
    std::string mutant = MutateBytes(bytes, seed);
    if (reseal != nullptr) reseal(&mutant);
    std::string failure;
    try {
      Status st = decode(mutant);
      if (!st.ok() && st.message().empty()) failure = "an empty error";
    } catch (const std::exception& e) {
      failure = std::string("a throw: ") + e.what();
    }
    if (!failure.empty()) {
      std::string hex;
      for (unsigned char c : mutant) hex += StrFormat("%02x", c);
      ADD_FAILURE() << name << " mutant gave " << failure
                    << "; replay: MutateBytes(" << name << " input, seed "
                    << seed << "), draw " << i << " of " << draws
                    << "; bytes " << hex;
      return;
    }
  }
}

class DecoderFuzzTest : public testing::Test {
 protected:
  void SetUp() override {
    auto wh = MakeFixedWarehouse();
    ASSERT_TRUE(wh.ok()) << wh.status().ToString();
    wh_.emplace(std::move(wh).value());
    // The fixed warehouse's rows as an AppendRows batch.
    auto rows = wh_->JoinedView({"Sex", "Visits", "Smoker", "Bmi", "Seen"});
    ASSERT_TRUE(rows.ok()) << rows.status().ToString();
    rows_ = std::move(rows).value();
    ASSERT_TRUE(warehouse::Warehouse(*wh_).AppendRows(rows_).ok());
  }

  std::optional<warehouse::Warehouse> wh_;
  Table rows_;
};

// About a second in Release over the four inputs.
TEST_F(DecoderFuzzTest, TablePayloadMutantsReturnAStatus) {
  std::string payload;
  warehouse::EncodeTable(rows_, &payload);
  FuzzDecoder(0, "table", payload, 40000, nullptr,
              [&](const std::string& m) -> Status {
                auto table = warehouse::DecodeTable(m);
                if (!table.ok()) return table.status();
                return warehouse::Warehouse(*wh_).AppendRows(*table);
              });
}

TEST_F(DecoderFuzzTest, SchemaTextMutantsReturnAStatus) {
  FuzzDecoder(1, "schema", warehouse::SerializeSchemaDef(wh_->def()), 40000,
              nullptr, [](const std::string& m) -> Status {
                return warehouse::ParseSchemaDef(m).status();
              });
}

TEST_F(DecoderFuzzTest, SnapshotMutantsReturnAStatus) {
  FuzzDecoder(2, "snapshot", warehouse::EncodeSnapshot(*wh_), 40000,
              ResealSnapshot, [&](const std::string& m) -> Status {
                auto decoded = warehouse::DecodeSnapshot(m);
                if (!decoded.ok()) return decoded.status();
                return decoded->AppendRows(rows_);
              });
}

TEST_F(DecoderFuzzTest, JournalMutantsReturnAStatus) {
  const std::string path = FreshDir("ddgms_journal_fuzz") + "/j.wal";
  {
    auto writer = warehouse::JournalWriter::Open(path);
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    ASSERT_TRUE(writer->AppendBatch(rows_, /*sync=*/false).ok());
    ASSERT_TRUE(writer->AppendBatch(rows_.Take({1, 3}), false).ok());
  }
  auto journal = ReadFileBinary(path);
  ASSERT_TRUE(journal.ok()) << journal.status().ToString();
  FuzzDecoder(3, "journal", *journal, 4000, ResealJournal,
              [&](const std::string& m) -> Status {
                DDGMS_RETURN_IF_ERROR(WriteFileDurable(path, m, false));
                warehouse::Warehouse wh = *wh_;
                return warehouse::ReplayJournal(
                           path, [&wh](Table batch, size_t) {
                             return wh.AppendRows(batch);
                           })
                    .status();
              });
}

}  // namespace
}  // namespace ddgms
