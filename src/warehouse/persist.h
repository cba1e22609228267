#ifndef DDGMS_WAREHOUSE_PERSIST_H_
#define DDGMS_WAREHOUSE_PERSIST_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "warehouse/journal.h"
#include "warehouse/warehouse.h"

namespace ddgms::warehouse {

/// -------------------------------------------------------------------
/// Durable warehouse storage
///
/// Two tiers live in this header:
///
///  * SaveWarehouse / LoadWarehouse — the original CSV directory
///    format (schema.txt + per-table .csv/.meta pairs), kept for
///    interchange with spreadsheet tooling. Empty strings round-trip
///    correctly (written as quoted "" so they stay distinct from
///    nulls; files written before this encoding still load, reading
///    bare empty fields as nulls as they always did).
///
///  * DurableWarehouseStore — the crash-safe binary tier: generation-
///    numbered snapshot files (snapshot.h) plus a write-ahead journal
///    (journal.h) per generation, tied together by a checksummed
///    MANIFEST. Layout of a store directory:
///
///      <dir>/MANIFEST               current generation pointer
///      <dir>/snapshot-<seq>.ddws    binary snapshot per generation
///      <dir>/journal-<seq>.wal      batches appended since snapshot
///
///    Commit protocol (CommitSnapshot): write snapshot-<seq+1> durably
///    (temp + fsync + rename + dir fsync), create its empty journal,
///    then atomically rewrite MANIFEST — the MANIFEST swap is the
///    commit point, so a crash anywhere in between leaves the previous
///    generation intact and current. Old generations are pruned after
///    commit, always retaining one predecessor as a recovery fallback.
///
///    Recovery (Recover): walk back from the MANIFEST generation
///    (directory scan when the MANIFEST itself is corrupt) to the
///    newest readable snapshot, replay its journal up to the first
///    corrupt or unappliable record, truncate the torn tail, and
///    report exactly what was salvaged and what was dropped. The
///    outcome is always "full recovery" or a loud Status — never
///    silently wrong data.
/// -------------------------------------------------------------------

/// Writes the warehouse under `dir` (which must exist) as CSV.
Status SaveWarehouse(const Warehouse& wh, const std::string& dir);

/// Loads a warehouse previously written by SaveWarehouse and
/// re-verifies integrity.
Result<Warehouse> LoadWarehouse(const std::string& dir);

/// Knobs for the binary durable tier.
struct DurabilityOptions {
  /// fsync data and directories at every commit point. Disable only in
  /// tests that do not simulate power loss — without it an OK from
  /// CommitSnapshot/AppendBatch does not survive a crash.
  bool sync = true;
  /// Snapshot generations kept on disk (the current one plus
  /// fallbacks). Minimum 1; the default keeps one predecessor so
  /// recovery survives a corrupt current snapshot.
  int keep_snapshots = 2;
};

/// What Recover() salvaged, and from where.
struct RecoveryReport {
  /// Generation the warehouse was recovered from.
  uint64_t seq = 0;
  /// Snapshot file the recovered state is based on.
  std::string snapshot_file;
  /// False when the MANIFEST was missing/corrupt and the generation had
  /// to be found by directory scan.
  bool manifest_intact = true;
  /// True when the MANIFEST's generation was unreadable and an older
  /// snapshot was used instead.
  bool used_fallback = false;
  /// Snapshots that failed verification, newest first ("file: why").
  std::vector<std::string> skipped_snapshots;
  /// Journal records decoded, verified and applied on top of the
  /// snapshot, and the fact rows they contributed.
  size_t journal_records_applied = 0;
  size_t journal_rows_applied = 0;
  /// The journal tail that could not be used: why replay stopped
  /// (empty when the journal was clean), and how much was cut off.
  std::string journal_corruption;
  size_t journal_records_dropped = 0;
  uint64_t journal_bytes_dropped = 0;
  /// True when the corrupt tail was truncated away so the journal is
  /// clean for subsequent appends.
  bool journal_truncated = false;

  /// True when nothing was lost: the manifest generation loaded and
  /// its journal replayed completely.
  bool clean() const {
    return manifest_intact && !used_fallback && journal_corruption.empty();
  }

  std::string ToString() const;
};

/// The crash-safe snapshot + write-ahead-journal store. One instance
/// owns a store directory between checkpoints; it is move-only (it
/// holds the open journal descriptor).
class DurableWarehouseStore {
 public:
  /// Opens (or initialises) the store in `dir`, which must exist. A
  /// corrupt MANIFEST does not fail Open — it is remembered and
  /// surfaced by Load (error) or Recover (fallback scan).
  static Result<DurableWarehouseStore> Open(std::string dir,
                                            DurabilityOptions options = {});

  /// Commits a new generation: snapshot of `wh`, fresh journal, then
  /// the atomic MANIFEST swap; prunes generations beyond
  /// options.keep_snapshots. On return the store accepts AppendBatch.
  Status CommitSnapshot(const Warehouse& wh);

  /// Durably appends one ingest batch (Warehouse::AppendRows source
  /// form) to the current generation's journal. FailedPrecondition
  /// until a generation exists (CommitSnapshot / Load / Recover).
  Status AppendBatch(const Table& batch);

  /// Strict load of the current generation: MANIFEST, snapshot and the
  /// complete journal must all verify and apply — any corruption is an
  /// error (use Recover to salvage). On success the store is ready for
  /// AppendBatch.
  Result<Warehouse> Load();

  /// Graceful degradation: recovers the newest intact state, details
  /// in `report` (required). Fails loudly only when no snapshot
  /// generation is readable at all. On success the store points at the
  /// recovered generation and is ready for AppendBatch.
  Result<Warehouse> Recover(RecoveryReport* report);

  /// Current generation number (0 = no snapshot committed yet).
  uint64_t seq() const { return seq_; }
  bool has_snapshot() const { return seq_ > 0; }
  const std::string& dir() const { return dir_; }
  const DurabilityOptions& options() const { return options_; }

  std::string SnapshotPath(uint64_t seq) const;
  std::string JournalPath(uint64_t seq) const;
  std::string ManifestPath() const;

 private:
  DurableWarehouseStore(std::string dir, DurabilityOptions options)
      : dir_(std::move(dir)), options_(options) {}

  /// Atomically points the MANIFEST at generation `seq_`.
  Status WriteManifest();
  /// Deletes generations older than the retention window plus any
  /// stray temp files.
  void PruneGenerations();
  /// Replays JournalPath(seq) on top of `wh`. Strict mode errors on
  /// any corruption or unappliable record; lenient mode stops at the
  /// first record that does not verify or apply (a rejected append
  /// changes nothing), keeps the prefix, and describes the dropped
  /// tail in `report`.
  Result<Warehouse> ApplyJournal(Warehouse wh, uint64_t seq, bool strict,
                                 RecoveryReport* report);
  /// Opens the journal writer for generation `seq_`.
  Status OpenJournal();

  std::string dir_;
  DurabilityOptions options_;
  uint64_t seq_ = 0;
  /// Newest generation seen on disk (>= seq_ when the MANIFEST lags a
  /// crashed commit); the next commit always goes above it.
  uint64_t max_seq_seen_ = 0;
  /// Empty when the MANIFEST was readable at Open.
  std::string manifest_error_;
  std::optional<JournalWriter> journal_;
};

}  // namespace ddgms::warehouse

#endif  // DDGMS_WAREHOUSE_PERSIST_H_
