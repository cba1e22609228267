#ifndef DDGMS_WAREHOUSE_WAREHOUSE_H_
#define DDGMS_WAREHOUSE_WAREHOUSE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/quarantine.h"
#include "common/result.h"
#include "common/sync.h"
#include "table/table.h"
#include "warehouse/schema_def.h"

namespace ddgms::warehouse {

/// Process-wide monotonic stamp source for Warehouse::lineage().
/// Starts at 1, so 0 is a safe "never seen" sentinel for caches.
uint64_t NextWarehouseLineage();

/// Surrogate keys of a dimension's members, found by attribute tuple.
/// Open addressing over the keys alone: the tuples stay in the member
/// table's typed columns, which every call passes in, so a copied or
/// moved warehouse keeps a valid index. Tuples match as
/// ColumnVector::EqualsAt pairs their cells: int64 5 and double 5.0 are
/// one member, and null is a member of its own.
class MemberIndex {
 public:
  /// Tuple columns, one per attribute, in the dimension's order.
  using Columns = std::span<const ColumnVector* const>;

  /// Hash of the tuple at row `row` of `cols`.
  static size_t HashRow(Columns cols, size_t row);

  /// The key whose tuple (row `key` of `members`) equals row `row` of
  /// `probe`, or -1. `hash` is HashRow(probe, row).
  int64_t Find(Columns members, Columns probe, size_t row,
               size_t hash) const;

  /// Indexes `key`, whose tuple is row `key` of `members`, under `hash`
  /// (HashRow(members, key)). The tuple must not be indexed yet.
  void Insert(Columns members, size_t key, size_t hash);

  size_t size() const { return size_; }

 private:
  std::vector<uint32_t> slots_;  // key + 1; 0 marks an empty slot
  size_t size_ = 0;
};

/// Dictionary codes of one attribute column of a dimension, the
/// projection index a cube query reads instead of the values: each
/// surrogate key has the code of its value, codes are numbered by first
/// appearance in key order, and null is a code of its own. Values match
/// as ValueEq pairs them within the column's type: in an int64 or
/// double column 5 and 5.0 share a code (NumericKey), while a string,
/// bool or date column matches only its own type. The lookup owns its
/// keys, so the codes survive the member column growing.
class AttributeCodes {
 public:
  /// Codes the rows of `col` past the last one coded: every row the
  /// first time, then the members appended since. Codes already given
  /// never change, and new values take the next codes.
  void Extend(const ColumnVector& col);

  /// The code of each surrogate key.
  std::span<const int32_t> code_of_key() const { return code_of_key_; }
  /// The first surrogate key holding each code.
  std::span<const size_t> first_key() const { return first_key_; }
  size_t num_codes() const { return first_key_.size(); }

  /// The code of the members equal to `v`, or -1 when none is.
  int32_t Find(const Value& v) const;

 private:
  DataType type_ = DataType::kNull;
  std::vector<int32_t> code_of_key_;
  std::vector<size_t> first_key_;
  int32_t null_code_ = -1;
  std::unordered_map<std::string, int32_t> strings_;  // a string column
  std::unordered_map<uint64_t, int32_t> numbers_;     // any other column
};

/// A populated dimension table: surrogate keys 0..n-1 (the row index)
/// plus one column per attribute. Member rows are unique attribute
/// tuples.
class Dimension {
 public:
  Dimension(DimensionDef def, Table table)
      : def_(std::move(def)), table_(std::move(table)) {}

  const DimensionDef& def() const { return def_; }
  const std::string& name() const { return def_.name; }
  const Table& table() const { return table_; }
  size_t num_members() const { return table_.num_rows(); }

  /// Value of `attribute` for surrogate key `key`.
  Result<Value> AttributeValue(int64_t key,
                               const std::string& attribute) const;

  /// True if `attribute` exists in this dimension.
  bool HasAttribute(const std::string& attribute) const;

  /// The hierarchy containing `attribute`, if any (first match).
  const Hierarchy* HierarchyOf(const std::string& attribute) const;

  /// The next-finer / next-coarser level relative to `attribute` inside
  /// its hierarchy; NotFound when at the end or not in a hierarchy.
  Result<std::string> FinerLevel(const std::string& attribute) const;
  Result<std::string> CoarserLevel(const std::string& attribute) const;

  /// The member index, or null while the dimension has had no append
  /// since it was loaded from disk.
  const MemberIndex* member_index() const {
    return index_ ? &*index_ : nullptr;
  }

  /// The dictionary codes of `attribute`, coded over every member on
  /// first use (safe from concurrent readers) and kept: appends extend
  /// them. Neither building nor loading a warehouse codes anything, and
  /// codes are never persisted. NotFound for an unknown attribute. The
  /// codes stay valid until the dimension changes.
  Result<const AttributeCodes*> Codes(const std::string& attribute) const;

 private:
  friend class Warehouse;  // appends extend members

  /// The member table's columns for def().attributes, in that order.
  Result<std::vector<const ColumnVector*>> AttributeColumns() const;

  /// The member index, built over every member first when it is not;
  /// `members` is AttributeColumns().
  MemberIndex& EnsureIndex(MemberIndex::Columns members);

  /// The AttributeCodes of each member-table column, each empty until a
  /// query first asks for it. The mutex lets concurrent readers build
  /// them; built codes are read without it, as the member table is, and
  /// only a mutation of the dimension (which excludes readers) changes
  /// them. Copies carry the built codes.
  class CodeCache {
   public:
    CodeCache() = default;
    CodeCache(const CodeCache& other) : by_column_(other.Clone()) {}
    CodeCache(CodeCache&& other) noexcept : by_column_(other.Take()) {}
    CodeCache& operator=(CodeCache other) noexcept;

    /// The codes of column `column` of `members`, built first when they
    /// are not.
    const AttributeCodes& Get(const Table& members, size_t column) const
        EXCLUDES(mu_);

    /// Extends the built codes over the members `members` gained.
    void Extend(const Table& members) EXCLUDES(mu_);

   private:
    using Slots = std::vector<std::unique_ptr<AttributeCodes>>;
    Slots Clone() const EXCLUDES(mu_);
    Slots Take() EXCLUDES(mu_);

    mutable Mutex mu_;
    // unique_ptr: growing the slots never moves codes a reader holds.
    mutable Slots by_column_ GUARDED_BY(mu_);
  };

  DimensionDef def_;
  Table table_;
  std::optional<MemberIndex> index_;
  CodeCache codes_;
};

/// Key-integrity summary produced by CheckIntegrity().
struct IntegrityReport {
  bool ok = true;
  size_t fact_rows = 0;
  std::vector<std::string> violations;

  std::string ToString() const;
};

/// A batch Warehouse::PrepareAppend resolved and checked: its fact rows
/// and the members it mints, staged as typed columns for
/// Warehouse::CommitAppend.
class PreparedAppend {
 private:
  friend class Warehouse;

  // The warehouse state it was checked against: lineage() and
  // num_fact_rows().
  uint64_t lineage_ = 0;
  size_t fact_rows_ = 0;
  Table fact_;  // typed like the fact table
  /// Per dimension, the minted members typed like its member table; a
  /// table without columns when the batch mints none there.
  std::vector<Table> members_;
};

/// A populated star schema: the fact table (one foreign-key column
/// "<Dimension>_key" per dimension, plus measures and the optional
/// degenerate key) and its dimension tables. This is the intermediary
/// layer of the DD-DGMS — every downstream feature (OLAP, prediction,
/// analytics, optimisation) reads from here.
class Warehouse {
 public:
  Warehouse(StarSchemaDef def, Table fact, std::vector<Dimension> dims)
      : def_(std::move(def)),
        fact_(std::move(fact)),
        dimensions_(std::move(dims)) {}

  const StarSchemaDef& def() const { return def_; }
  const Table& fact() const { return fact_; }
  size_t num_fact_rows() const { return fact_.num_rows(); }
  const std::vector<Dimension>& dimensions() const { return dimensions_; }

  /// Stamp of the current append chain: fresh at construction, on copy
  /// (construction or assignment) and at AddFeedbackDimension, kept by
  /// CommitAppend, and carried by a move, which leaves the source a
  /// fresh one. While it holds, the warehouse has only gained fact rows
  /// (and the members they mint) at its end: the rows, member keys and
  /// attribute codes it had are unchanged. So a cube computed under
  /// this stamp rolls forward by scanning just the rows appended since.
  /// CommitAppend is the only code that adds fact rows, so the pair
  /// (lineage(), num_fact_rows()) names a warehouse state exactly: a
  /// rebuild, reload or recovery that restores the same row count
  /// still has another lineage. Stamps come from NextWarehouseLineage,
  /// so none repeats. CommitAppend and AddFeedbackDimension are the
  /// only ways a warehouse changes in place, so the stamp sees every
  /// change.
  uint64_t lineage() const { return lineage_.value(); }

  /// Dimension lookup by name.
  Result<const Dimension*> dimension(const std::string& name) const;

  /// Name of the fact foreign-key column for a dimension.
  static std::string KeyColumnName(const std::string& dimension_name) {
    return dimension_name + "_key";
  }

  /// Surrogate key of `dimension_name` for fact row `fact_row`.
  Result<int64_t> FactKey(size_t fact_row,
                          const std::string& dimension_name) const;

  /// Finds which dimension owns `attribute`; error if none or ambiguous
  /// hits are resolved to the first declaring dimension.
  Result<const Dimension*> DimensionOfAttribute(
      const std::string& attribute) const;

  /// Materializes fact rows joined with the given dimension attributes
  /// (plus all measures). Used to hand cube subsets to the mining layer.
  Result<Table> JoinedView(const std::vector<std::string>& attributes) const;

  /// Registers a feedback dimension (paper: "further dimensions are
  /// introduced to capture user feedback"): `labeler` assigns each fact
  /// row a label; distinct labels become dimension members and the fact
  /// table gains the corresponding key column.
  Status AddFeedbackDimension(
      const std::string& dimension_name, const std::string& attribute,
      const std::function<Value(const Warehouse&, size_t fact_row)>&
          labeler);

  /// The one way rows enter the star schema (StarSchemaBuilder appends
  /// onto an empty warehouse), all or nothing: appends transformed
  /// source rows to the fact table, reusing existing dimension members
  /// and minting new ones with the keys a full rebuild over the same
  /// rows would give them. Costs O(source rows): each dimension's member
  /// index (kept by the last append, or built on the first append to a
  /// warehouse loaded from disk) finds existing members. The source
  /// must carry every column the schema references; a missing column
  /// is NotFound, and a value the fact or member table cannot hold is
  /// InvalidArgument. On error nothing changes: fact rows and members
  /// stay as they were. PrepareAppend + CommitAppend.
  Status AppendRows(const Table& source);

  /// The checking half of AppendRows: resolves every row's surrogate
  /// keys and type-checks the whole batch, staging it as typed columns.
  /// Changes nothing a reader can see (it may build member indexes).
  Result<PreparedAppend> PrepareAppend(const Table& source);

  /// The applying half of AppendRows; cannot fail. `batch` must come
  /// from PrepareAppend on this warehouse with no mutation in between.
  /// A table still empty (the fact table, or a dimension without
  /// members) takes the staged one whole, without a copy.
  void CommitAppend(PreparedAppend batch);

  /// Verifies foreign keys are in range and hierarchies are functional
  /// (each fine member maps to exactly one coarse member).
  IntegrityReport CheckIntegrity() const;

 private:
  /// The value behind lineage(), with its copy and move rules, so the
  /// warehouse keeps its implicit copy and move operations.
  class LineageStamp {
   public:
    LineageStamp() = default;
    LineageStamp(const LineageStamp&) {}
    LineageStamp(LineageStamp&& other) noexcept
        : value_(std::exchange(other.value_, NextWarehouseLineage())) {}
    LineageStamp& operator=(const LineageStamp&) {
      Renew();
      return *this;
    }
    LineageStamp& operator=(LineageStamp&& other) noexcept {
      value_ = std::exchange(other.value_, NextWarehouseLineage());
      return *this;
    }

    uint64_t value() const { return value_; }
    void Renew() { value_ = NextWarehouseLineage(); }

   private:
    uint64_t value_ = NextWarehouseLineage();
  };

  StarSchemaDef def_;
  Table fact_;
  std::vector<Dimension> dimensions_;
  LineageStamp lineage_;
};

/// The lenient rule of referential integrity: a source row whose tuple
/// in some dimension of `def` is null in every attribute references no
/// member (a partly null tuple, e.g. a diagnosis band for an
/// undiagnosed patient, is a member like any other). Quarantines each
/// such row of `source` under stage "star-schema", by its 1-based row
/// number with the first such dimension as the field, and returns the
/// rows left in order, or nullopt when it quarantines none (the caller
/// keeps `source`). NotFound when `source` lacks an attribute column.
Result<std::optional<Table>> QuarantineUnreferencedRows(
    const StarSchemaDef& def, const Table& source,
    QuarantineReport* quarantine);

/// How StarSchemaBuilder reacts to source rows that cannot be wired
/// into the star schema.
struct BuildOptions {
  /// kStrict (default): historical behaviour — any failure aborts the
  /// build. kLenient: the rows QuarantineUnreferencedRows finds are
  /// quarantined before any member is minted, and the build continues
  /// with the rest.
  ErrorMode error_mode = ErrorMode::kStrict;
  /// Sink for lenient-mode quarantined rows; may be null (rows are
  /// still skipped, not itemised).
  QuarantineReport* quarantine = nullptr;
};

/// Populates a Warehouse from a transformed source extract: an append
/// of every source row onto an empty warehouse whose member tables are
/// typed like their source attributes. Each source row becomes one fact
/// row; each dimension's attribute tuple is deduplicated into the
/// dimension table, keyed in order of first appearance.
class StarSchemaBuilder {
 public:
  explicit StarSchemaBuilder(StarSchemaDef def) : def_(std::move(def)) {}

  /// Builds and integrity-checks the warehouse (strict).
  Result<Warehouse> Build(const Table& source) const {
    return Build(source, {});
  }

  /// Builds with explicit robustness semantics (see BuildOptions).
  Result<Warehouse> Build(const Table& source,
                          const BuildOptions& options) const;

 private:
  StarSchemaDef def_;
};

}  // namespace ddgms::warehouse

#endif  // DDGMS_WAREHOUSE_WAREHOUSE_H_
