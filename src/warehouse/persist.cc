#include "warehouse/persist.h"

#include <algorithm>
#include <cstdlib>
#include <functional>
#include <utility>
#include <vector>

#include "common/checksum.h"
#include "common/csv.h"
#include "common/faults.h"
#include "common/io.h"
#include "common/log.h"
#include "common/metrics.h"
#include "common/strings.h"
#include "common/trace.h"
#include "warehouse/schema_def.h"
#include "warehouse/snapshot.h"

namespace ddgms::warehouse {

namespace {

Result<DataType> DataTypeFromName(const std::string& name) {
  if (name == "bool") return DataType::kBool;
  if (name == "int64") return DataType::kInt64;
  if (name == "double") return DataType::kDouble;
  if (name == "string") return DataType::kString;
  if (name == "date") return DataType::kDate;
  return Status::ParseError("unknown data type '" + name + "'");
}

Status WriteTableWithMeta(const Table& table, const std::string& base) {
  // Quote empty strings so they stay distinct from nulls on reload
  // (historically both serialized as a bare empty field and loaded
  // back as null).
  CsvWriteOptions csv_options;
  csv_options.quote_empty_strings = true;
  DDGMS_RETURN_IF_ERROR(WriteFile(base + ".csv", table.ToCsv(csv_options)));
  std::string meta;
  for (const Field& f : table.schema().fields()) {
    meta += f.name;
    meta += ":";
    meta += DataTypeName(f.type);
    meta += "\n";
  }
  return WriteFile(base + ".meta", meta);
}

Result<Table> ReadTableWithMeta(const std::string& base) {
  DDGMS_ASSIGN_OR_RETURN(std::string meta, ReadFile(base + ".meta"));
  CsvReadOptions options;
  // A quoted empty field is an empty string, not a null — the reader
  // side of the quote_empty_strings encoding above. Files written
  // before that encoding carry bare empty fields, which still read as
  // nulls exactly as they used to.
  options.quoted_empty_is_string = true;
  for (const std::string& line : Split(meta, '\n')) {
    std::string trimmed(Trim(line));
    if (trimmed.empty()) continue;
    size_t colon = trimmed.rfind(':');
    if (colon == std::string::npos) {
      return Status::ParseError("bad meta line '" + trimmed + "' in " +
                                base + ".meta");
    }
    DDGMS_ASSIGN_OR_RETURN(DataType type,
                           DataTypeFromName(trimmed.substr(colon + 1)));
    options.column_types.push_back(type);
  }
  return Table::FromCsvFile(base + ".csv", options);
}

/// Parsed MANIFEST contents.
struct ManifestData {
  uint64_t seq = 0;
  std::string snapshot;
  std::string journal;
};

constexpr char kManifestHeader[] = "ddgms-manifest v1";

std::string FormatManifest(uint64_t seq, const std::string& snapshot,
                           const std::string& journal) {
  std::string text = std::string(kManifestHeader) + "\n";
  text += StrFormat("seq %llu\n", static_cast<unsigned long long>(seq));
  text += "snapshot " + snapshot + "\n";
  text += "journal " + journal + "\n";
  text += StrFormat("crc %08x\n", Crc32c(text));
  return text;
}

Result<ManifestData> ParseManifest(const std::string& text) {
  size_t crc_pos = text.rfind("crc ");
  if (crc_pos == std::string::npos ||
      (crc_pos != 0 && text[crc_pos - 1] != '\n')) {
    return Status::DataLoss("MANIFEST has no crc line");
  }
  std::string crc_text(Trim(text.substr(crc_pos + 4)));
  char* end = nullptr;
  unsigned long stored = std::strtoul(crc_text.c_str(), &end, 16);
  if (end == nullptr || *end != '\0' || crc_text.empty()) {
    return Status::DataLoss("MANIFEST crc line is malformed");
  }
  if (Crc32c(std::string_view(text).substr(0, crc_pos)) !=
      static_cast<uint32_t>(stored)) {
    return Status::DataLoss("MANIFEST checksum mismatch");
  }
  ManifestData data;
  bool have_header = false;
  bool have_seq = false;
  for (const std::string& raw_line : Split(text.substr(0, crc_pos), '\n')) {
    std::string line(Trim(raw_line));
    if (line.empty()) continue;
    if (!have_header) {
      if (line != kManifestHeader) {
        return Status::ParseError("not a ddgms MANIFEST: '" + line + "'");
      }
      have_header = true;
      continue;
    }
    std::vector<std::string> parts = Split(line, ' ');
    if (parts.size() == 2 && parts[0] == "seq") {
      DDGMS_ASSIGN_OR_RETURN(int64_t seq, ParseInt64(parts[1]));
      if (seq <= 0) {
        return Status::ParseError("MANIFEST seq must be positive");
      }
      data.seq = static_cast<uint64_t>(seq);
      have_seq = true;
    } else if (parts.size() == 2 && parts[0] == "snapshot") {
      data.snapshot = parts[1];
    } else if (parts.size() == 2 && parts[0] == "journal") {
      data.journal = parts[1];
    } else {
      return Status::ParseError("bad MANIFEST line: '" + line + "'");
    }
  }
  if (!have_header || !have_seq || data.snapshot.empty() ||
      data.journal.empty()) {
    return Status::ParseError("MANIFEST is missing required fields");
  }
  return data;
}

/// Generation number encoded in a snapshot/journal file name, or 0
/// when `name` is not one.
uint64_t GenerationFromName(const std::string& name,
                            std::string_view prefix,
                            std::string_view suffix) {
  if (!StartsWith(name, prefix) || !EndsWith(name, suffix) ||
      name.size() <= prefix.size() + suffix.size()) {
    return 0;
  }
  std::string digits =
      name.substr(prefix.size(), name.size() - prefix.size() - suffix.size());
  auto parsed = ParseInt64(digits);
  if (!parsed.ok() || parsed.value() <= 0) return 0;
  return static_cast<uint64_t>(parsed.value());
}

}  // namespace

Status SaveWarehouse(const Warehouse& wh, const std::string& dir) {
  DDGMS_RETURN_IF_ERROR(
      WriteFile(dir + "/schema.txt", SerializeSchemaDef(wh.def())));
  DDGMS_RETURN_IF_ERROR(WriteTableWithMeta(wh.fact(), dir + "/fact"));
  for (const Dimension& dim : wh.dimensions()) {
    DDGMS_RETURN_IF_ERROR(
        WriteTableWithMeta(dim.table(), dir + "/dim_" + dim.name()));
  }
  return Status::OK();
}

Result<Warehouse> LoadWarehouse(const std::string& dir) {
  DDGMS_ASSIGN_OR_RETURN(std::string schema_text,
                         ReadFile(dir + "/schema.txt"));
  DDGMS_ASSIGN_OR_RETURN(StarSchemaDef def, ParseSchemaDef(schema_text));
  DDGMS_ASSIGN_OR_RETURN(Table fact, ReadTableWithMeta(dir + "/fact"));
  std::vector<Dimension> dimensions;
  dimensions.reserve(def.dimensions.size());
  for (const DimensionDef& dim_def : def.dimensions) {
    DDGMS_ASSIGN_OR_RETURN(Table dim_table,
                           ReadTableWithMeta(dir + "/dim_" + dim_def.name));
    dimensions.emplace_back(dim_def, std::move(dim_table));
  }
  Warehouse wh(std::move(def), std::move(fact), std::move(dimensions));
  IntegrityReport report = wh.CheckIntegrity();
  if (!report.ok) {
    return Status::DataLoss("loaded warehouse failed integrity check:\n" +
                            report.ToString());
  }
  return wh;
}

std::string RecoveryReport::ToString() const {
  std::string out = StrFormat(
      "recovered generation %llu from %s",
      static_cast<unsigned long long>(seq), snapshot_file.c_str());
  if (!manifest_intact) out += " (MANIFEST was unreadable)";
  if (used_fallback) out += " (fell back past a corrupt snapshot)";
  out += StrFormat(
      "\njournal: %zu records (%zu rows) applied",
      journal_records_applied, journal_rows_applied);
  if (!journal_corruption.empty()) {
    out += StrFormat(
        "; dropped %zu records / %llu bytes (%s)%s",
        journal_records_dropped,
        static_cast<unsigned long long>(journal_bytes_dropped),
        journal_corruption.c_str(),
        journal_truncated ? ", tail truncated" : "");
  }
  for (const std::string& skipped : skipped_snapshots) {
    out += "\nskipped: " + skipped;
  }
  return out;
}

Result<DurableWarehouseStore> DurableWarehouseStore::Open(
    std::string dir, DurabilityOptions options) {
  if (options.keep_snapshots < 1) {
    return Status::InvalidArgument("keep_snapshots must be >= 1");
  }
  if (!FileExists(dir)) {
    return Status::NotFound("store directory '" + dir + "' does not exist");
  }
  DurableWarehouseStore store(std::move(dir), options);
  DDGMS_ASSIGN_OR_RETURN(std::vector<std::string> entries,
                         ListDirectory(store.dir_));
  for (const std::string& name : entries) {
    store.max_seq_seen_ = std::max(
        store.max_seq_seen_,
        GenerationFromName(name, "snapshot-", ".ddws"));
  }
  if (FileExists(store.ManifestPath())) {
    auto text = ReadFileBinary(store.ManifestPath());
    auto manifest =
        text.ok() ? ParseManifest(text.value()) : text.status();
    if (manifest.ok()) {
      store.seq_ = manifest.value().seq;
    } else {
      store.manifest_error_ = manifest.status().ToString();
    }
  }
  store.max_seq_seen_ = std::max(store.max_seq_seen_, store.seq_);
  return store;
}

std::string DurableWarehouseStore::SnapshotPath(uint64_t seq) const {
  return dir_ + StrFormat("/snapshot-%06llu.ddws",
                          static_cast<unsigned long long>(seq));
}

std::string DurableWarehouseStore::JournalPath(uint64_t seq) const {
  return dir_ + StrFormat("/journal-%06llu.wal",
                          static_cast<unsigned long long>(seq));
}

std::string DurableWarehouseStore::ManifestPath() const {
  return dir_ + "/MANIFEST";
}

Status DurableWarehouseStore::WriteManifest() {
  DDGMS_FAULT_POINT("persist.manifest.write");
  std::string snapshot_name = SnapshotPath(seq_).substr(dir_.size() + 1);
  std::string journal_name = JournalPath(seq_).substr(dir_.size() + 1);
  return WriteFileDurable(ManifestPath(),
                          FormatManifest(seq_, snapshot_name, journal_name),
                          options_.sync);
}

void DurableWarehouseStore::PruneGenerations() {
  auto entries = ListDirectory(dir_);
  if (!entries.ok()) return;
  for (const std::string& name : entries.value()) {
    // Leftover temp files from a commit that crashed mid-write.
    if (EndsWith(name, ".tmp")) {
      (void)RemoveFileIfExists(dir_ + "/" + name);
      continue;
    }
    uint64_t generation =
        std::max(GenerationFromName(name, "snapshot-", ".ddws"),
                 GenerationFromName(name, "journal-", ".wal"));
    if (generation != 0 &&
        generation + static_cast<uint64_t>(options_.keep_snapshots) <=
            seq_) {
      (void)RemoveFileIfExists(dir_ + "/" + name);
    }
  }
}

Status DurableWarehouseStore::OpenJournal() {
  DDGMS_ASSIGN_OR_RETURN(JournalWriter writer,
                         JournalWriter::Open(JournalPath(seq_)));
  journal_ = std::move(writer);
  return Status::OK();
}

Status DurableWarehouseStore::CommitSnapshot(const Warehouse& wh) {
  DDGMS_FAULT_POINT("persist.commit");
  TraceSpan span("persist.commit", "ddgms.persist.commit_latency_us");
  const uint64_t previous_seq = seq_;
  const uint64_t next = max_seq_seen_ + 1;
  // The old journal stays untouched until the MANIFEST swap commits
  // the new generation; only the writer handle is released.
  journal_.reset();
  DDGMS_RETURN_IF_ERROR(
      WriteSnapshotFile(wh, SnapshotPath(next), options_.sync));
  DDGMS_ASSIGN_OR_RETURN(JournalWriter writer,
                         JournalWriter::Open(JournalPath(next)));
  max_seq_seen_ = next;
  seq_ = next;
  Status manifest_status = WriteManifest();
  if (!manifest_status.ok()) {
    // The swap did not happen: the previous generation is still the
    // durable truth.
    seq_ = previous_seq;
    return manifest_status;
  }
  manifest_error_.clear();
  journal_ = std::move(writer);
  PruneGenerations();
  DDGMS_METRIC_INC("ddgms.persist.commits");
  DDGMS_LOG_INFO("persist.commit")
      .With("seq", seq_)
      .With("fact_rows", wh.num_fact_rows())
      .With("dir", dir_);
  return Status::OK();
}

Status DurableWarehouseStore::AppendBatch(const Table& batch) {
  if (!journal_.has_value()) {
    return Status::FailedPrecondition(
        "no current generation: CommitSnapshot, Load or Recover first");
  }
  DDGMS_RETURN_IF_ERROR(journal_->AppendBatch(batch, options_.sync));
  DDGMS_METRIC_INC("ddgms.persist.journal_appends");
  DDGMS_METRIC_ADD("ddgms.persist.journal_rows", batch.num_rows());
  return Status::OK();
}

Result<Warehouse> DurableWarehouseStore::ApplyJournal(
    Warehouse wh, uint64_t seq, bool strict, RecoveryReport* report) {
  const std::string journal_path = JournalPath(seq);
  std::vector<Table> batches;
  DDGMS_ASSIGN_OR_RETURN(
      JournalReplayStats stats,
      ReplayJournal(journal_path, [&](Table batch, size_t) {
        batches.push_back(std::move(batch));
        return Status::OK();
      }));
  if (strict && !stats.clean()) {
    return Status::DataLoss("journal '" + journal_path +
                            "' is corrupt: " + stats.corruption +
                            "; use recovery to salvage the intact prefix");
  }
  size_t applied = 0;
  size_t rows = 0;
  Status apply_failure = Status::OK();
  for (; applied < batches.size(); ++applied) {
    Status st = wh.AppendRows(batches[applied]);
    if (!st.ok()) {
      apply_failure = std::move(st);
      break;
    }
    rows += batches[applied].num_rows();
  }
  if (!apply_failure.ok()) {
    if (strict) {
      return Status::DataLoss(
          StrFormat("journal '%s' record %zu does not apply: %s",
                    journal_path.c_str(), applied,
                    apply_failure.ToString().c_str()));
    }
    // AppendRows is all or nothing, so `wh` holds exactly the prefix
    // that applied.
    stats.corruption =
        StrFormat("record %zu rejected by warehouse replay: %s", applied,
                  apply_failure.ToString().c_str());
    stats.valid_bytes =
        applied == 0 ? 0 : stats.record_end_offsets[applied - 1];
    auto file_size = FileSize(journal_path);
    stats.dropped_bytes =
        file_size.ok() ? file_size.value() - stats.valid_bytes : 0;
  }
  if (report != nullptr) {
    report->journal_records_applied = applied;
    report->journal_rows_applied = rows;
    report->journal_corruption = stats.corruption;
    report->journal_records_dropped = batches.size() - applied;
    report->journal_bytes_dropped = stats.dropped_bytes;
  }
  if (!stats.clean()) {
    // Cut the unusable tail so future appends extend a valid journal.
    Status truncate_status = TruncateJournalTail(journal_path, stats);
    if (report != nullptr) report->journal_truncated = truncate_status.ok();
    DDGMS_METRIC_INC("ddgms.persist.journal_truncations");
    DDGMS_LOG_WARN("persist.journal_truncated")
        .With("journal", journal_path)
        .With("valid_bytes", stats.valid_bytes)
        .With("dropped_bytes", stats.dropped_bytes)
        .With("why", stats.corruption);
  }
  return wh;
}

Result<Warehouse> DurableWarehouseStore::Load() {
  DDGMS_FAULT_POINT("persist.load");
  TraceSpan span("persist.load", "ddgms.persist.load_latency_us");
  if (!manifest_error_.empty()) {
    return Status::DataLoss("MANIFEST of '" + dir_ +
                            "' is unreadable: " + manifest_error_ +
                            "; use recovery");
  }
  if (seq_ == 0) {
    return Status::NotFound("no durable snapshot in '" + dir_ + "'");
  }
  DDGMS_ASSIGN_OR_RETURN(Warehouse wh, ReadSnapshotFile(SnapshotPath(seq_)));
  DDGMS_ASSIGN_OR_RETURN(
      wh, ApplyJournal(std::move(wh), seq_, /*strict=*/true, nullptr));
  DDGMS_RETURN_IF_ERROR(OpenJournal());
  DDGMS_METRIC_INC("ddgms.persist.loads");
  return wh;
}

Result<Warehouse> DurableWarehouseStore::Recover(RecoveryReport* report) {
  DDGMS_FAULT_POINT("persist.recover");
  if (report == nullptr) {
    return Status::InvalidArgument("recovery requires a report out-param");
  }
  *report = RecoveryReport{};
  TraceSpan span("persist.recover", "ddgms.persist.recover_latency_us");
  DDGMS_METRIC_INC("ddgms.persist.recoveries");
  report->manifest_intact = manifest_error_.empty();

  // Candidate generations, newest first. With an intact MANIFEST only
  // its generation and older ones count — a newer on-disk snapshot is
  // an unacknowledged commit that never became the durable truth.
  std::vector<uint64_t> candidates;
  DDGMS_ASSIGN_OR_RETURN(std::vector<std::string> entries,
                         ListDirectory(dir_));
  for (const std::string& name : entries) {
    uint64_t generation = GenerationFromName(name, "snapshot-", ".ddws");
    if (generation == 0) continue;
    if (report->manifest_intact && generation > seq_) continue;
    candidates.push_back(generation);
  }
  std::sort(candidates.begin(), candidates.end(),
            std::greater<uint64_t>());
  if (candidates.empty()) {
    return Status::DataLoss("no snapshot generations found in '" + dir_ +
                            "'");
  }

  for (uint64_t candidate : candidates) {
    const std::string snapshot_path = SnapshotPath(candidate);
    auto base = ReadSnapshotFile(snapshot_path);
    if (!base.ok()) {
      report->skipped_snapshots.push_back(
          snapshot_path + ": " + base.status().ToString());
      DDGMS_METRIC_INC("ddgms.persist.snapshots_skipped");
      continue;
    }
    auto recovered = ApplyJournal(std::move(base).value(), candidate,
                                  /*strict=*/false, report);
    if (!recovered.ok()) {
      report->skipped_snapshots.push_back(
          snapshot_path + ": journal replay failed: " +
          recovered.status().ToString());
      DDGMS_METRIC_INC("ddgms.persist.snapshots_skipped");
      continue;
    }
    report->seq = candidate;
    report->snapshot_file = snapshot_path;
    report->used_fallback = candidate != candidates.front();
    seq_ = candidate;
    // Re-point the MANIFEST at what actually recovered, so the next
    // Load agrees with what this process salvaged.
    DDGMS_RETURN_IF_ERROR(WriteManifest());
    manifest_error_.clear();
    DDGMS_RETURN_IF_ERROR(OpenJournal());
    DDGMS_LOG(report->clean() ? LogLevel::kInfo : LogLevel::kWarn,
              "persist.recover")
        .With("seq", seq_)
        .With("journal_records", report->journal_records_applied)
        .With("dropped_bytes", report->journal_bytes_dropped)
        .With("used_fallback", report->used_fallback ? 1 : 0);
    return recovered;
  }
  std::string detail = Join(report->skipped_snapshots, "; ");
  return Status::DataLoss("all snapshot generations in '" + dir_ +
                          "' are unreadable: " + detail);
}

}  // namespace ddgms::warehouse
