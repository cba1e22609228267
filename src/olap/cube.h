#ifndef DDGMS_OLAP_CUBE_H_
#define DDGMS_OLAP_CUBE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "olap/plan.h"
#include "table/aggregate.h"
#include "table/table.h"
#include "warehouse/warehouse.h"

namespace ddgms::olap {

/// One cube axis: group facts by this dimension attribute. An optional
/// member restriction limits the axis to the listed values (the "dice"
/// of the drag-and-drop interface in paper Fig 4).
struct AxisSpec {
  std::string dimension;
  std::string attribute;
  std::vector<Value> members;  // empty = all members

  std::string ToString() const;
};

/// One slicer: keep only facts whose dimension attribute is in `values`
/// (the WHERE clause of an MDX query; e.g. MedicalCondition.Diabetes =
/// "Yes" in paper Fig 5).
struct SlicerSpec {
  std::string dimension;
  std::string attribute;
  std::vector<Value> values;

  std::string ToString() const;
};

/// A multidimensional query: axes x slicers x measures. Measures use
/// AggSpec with `column` naming a warehouse measure ("" for count).
struct CubeQuery {
  std::vector<AxisSpec> axes;
  std::vector<SlicerSpec> slicers;
  std::vector<AggSpec> measures;
  /// Drop cells with zero contributing facts from ToTable()/Pivot().
  bool non_empty = true;

  std::string ToString() const;
};

/// Materialized result of a CubeQuery: its non-empty cells, each with
/// its member on every axis and its measures' state, retaining enough
/// context (warehouse + query) to support OLAP navigation:
///
///  * RollUp(axis)            — drop an axis, re-aggregating.
///  * RollUpToCoarser(axis)   — move the axis up its hierarchy.
///  * DrillDown(axis)         — move the axis down its hierarchy
///                              (paper Fig 5: AgeBand10 -> AgeBand5).
///  * Slice(dim, attr, v)     — fix one member and remove that axis.
///  * Dice(dim, attr, values) — restrict to a member subset.
///
/// RollUp, Slice and Dice derive their cube from this one's cells when
/// these cells hold every fact the answer needs: the warehouse still has
/// the lineage and fact-row count this cube was computed under, no
/// measure is count_distinct, the attribute is exactly one axis, and
/// that axis's member restriction (if any) covers the answer. RollUp
/// then merges the cells that share their other members, Slice keeps
/// one member's cells and drops the axis, and Dice keeps the listed
/// members' cells.
/// Every other navigation, and DrillDown and RollUpToCoarser always,
/// re-executes against the warehouse (ROLAP style). Either way the
/// result equals what CubeEngine returns for the navigated query, and a
/// Cube must not outlive its Warehouse.
///
/// A Cube is a handle on immutable cells: a copy shares them and costs
/// a reference count, and nothing changes them once they are built. So
/// a cube someone holds (an MdxResult, a navigation's parent) never
/// changes, and a default-constructed Cube stays empty. Rolling a cube
/// forward over the facts appended since it was computed
/// (CubeEngine::Extend, which the cube cache calls when every change
/// since was an append) builds new cells and leaves this cube as it
/// was.
class Cube {
 public:
  /// An empty cube: no axes, measures or cells.
  Cube();

  const CubeQuery& query() const;
  size_t num_axes() const { return query().axes.size(); }
  size_t num_measures() const { return query().measures.size(); }
  size_t num_cells() const;
  /// Total facts that passed the slicers.
  size_t facts_aggregated() const;

  /// Warehouse::lineage() and Warehouse::num_fact_rows() the cells were
  /// computed under (0 for an empty cube); a derived cube inherits its
  /// parent's. The cells are current while the warehouse has both.
  uint64_t lineage() const;
  size_t fact_rows() const;

  /// The members of axis `axis`: a member restriction's members in the
  /// listed order, or else the members the cells have, sorted. Unless
  /// non_empty is off, a restricted member no cell has is left out.
  const std::vector<Value>& AxisMembers(size_t axis) const;

  /// Aggregated value for a full coordinate tuple; Null for empty cells.
  Value CellValue(const std::vector<Value>& coords,
                  size_t measure_index = 0) const;

  /// Number of facts aggregated into a cell.
  size_t CellCount(const std::vector<Value>& coords) const;

  /// OLAP operations (see class comment).
  Result<Cube> RollUp(size_t axis) const;
  Result<Cube> RollUpToCoarser(size_t axis) const;
  Result<Cube> DrillDown(size_t axis) const;
  Result<Cube> Slice(const std::string& dimension,
                     const std::string& attribute, Value value) const;
  Result<Cube> Dice(const std::string& dimension,
                    const std::string& attribute,
                    std::vector<Value> values) const;

  /// Flattens to a table: one row per (non-empty) cell; axis columns
  /// then measure columns.
  Result<Table> ToTable() const;

  /// 2D cross-tab of one measure: rows = members of `row_axis`, columns
  /// = members of `col_axis` (requires exactly those two axes).
  Result<Table> Pivot(size_t row_axis, size_t col_axis,
                      size_t measure_index = 0) const;

  /// How PivotShare normalizes cells.
  enum class ShareBasis {
    kRow,    // cell / row total
    kColumn, // cell / column total
    kGrand,  // cell / grand total
  };

  /// Like Pivot but each cell is the measure's share of its row /
  /// column / grand total (the "proportion of females with diabetes"
  /// reading of paper Fig 5). Requires a numeric measure; empty
  /// denominators yield null cells.
  Result<Table> PivotShare(size_t row_axis, size_t col_axis,
                           ShareBasis basis,
                           size_t measure_index = 0) const;

  /// The k cells with the largest (or smallest) value of a numeric
  /// measure — "groups of patients at the edges of overlapping
  /// dimensions". Null-valued cells are skipped.
  struct RankedCell {
    std::vector<Value> coordinates;
    double value = 0.0;
    size_t fact_count = 0;
  };
  Result<std::vector<RankedCell>> TopCells(size_t k,
                                           size_t measure_index = 0,
                                           bool largest = true) const;

  /// Estimated heap footprint of the materialized cube: its cells'
  /// members and measure state, its cell index and its axes' members.
  /// This is the amount Execute, and a navigation that derives its
  /// cube from this one, charge to the "olap.cube" resource pool.
  uint64_t ApproxBytes() const;

 private:
  friend class CubeEngine;

  /// What a cube and its copies share (see cube.cc). Built once, then
  /// only read.
  struct Data;

  explicit Cube(std::shared_ptr<const Data> data) : data_(std::move(data)) {}

  /// The axis whose attribute is `attribute` of `dimension`, when
  /// exactly one axis is; nullopt otherwise.
  std::optional<size_t> SoleAxis(const std::string& dimension,
                                 const std::string& attribute) const;

  /// True when this cube's cells can still answer a navigation: the
  /// warehouse has not changed since they were computed and no
  /// measure is count_distinct.
  bool CellsCurrent() const;

  /// Builds the cube for `query` from this cube's cells. `query` is
  /// this cube's query navigated along `axis`: without that axis
  /// (roll-up, slice), or with its members restricted (dice).
  /// `member_of` maps each index into AxisMembers(axis) to the index
  /// of the member a cell there keeps in the diced axis's restriction
  /// (any value >= 0 when the axis goes), or to -1 to leave the cell
  /// out. InvalidArgument, as Execute, when the product of the member
  /// counts does not fit in 64 bits.
  Result<Cube> Derive(CubeQuery query, size_t axis,
                      const std::vector<int32_t>& member_of) const;

  std::shared_ptr<const Data> data_;
};

/// Executes CubeQueries against a Warehouse. Stateless aside from the
/// warehouse pointer; the warehouse must outlive the engine and all
/// cubes it produces.
///
/// One serial kernel answers every query. Resolve reads each axis and
/// slicer attribute's dictionary codes at rest (Dimension::Codes) and
/// looks up only the Values a restriction or slicer lists. The scan
/// takes the fact rows in blocks of 256. Per block, a first pass writes
/// each admitted row's mixed-radix cell index, and a second finds each
/// row's cell slot, opening slots in row order, and counts the rows in
/// four interleaved lanes; then each typed measure's arrays are summed
/// into its cells' partials, row by row. Materialize moves the slots'
/// arrays into the cube and boxes each seen axis member once. Cell
/// slots sit in a dense array while the product of the axis member
/// counts stays small, and in a hash of the packed index above that.
class CubeEngine {
 public:
  explicit CubeEngine(const warehouse::Warehouse* wh) : warehouse_(wh) {}

  /// Validates the query, scans the fact table once and aggregates,
  /// under a new "olap.cube.execute" Stage: a child of `parent` when it
  /// is non-null, holding one child operator per engine stage —
  /// resolve axes, resolve slicers, scan, materialize — with measured
  /// times, cardinalities and resource-pool byte deltas (EXPLAIN
  /// ANALYZE). InvalidArgument when the product of the axis member
  /// counts does not fit in 64 bits.
  Result<Cube> Execute(const CubeQuery& query,
                       PlanNode* parent = nullptr) const;

  /// Like Execute(query, parent), under `stage`: the caller's open
  /// "olap.cube.execute" record, which the engine annotates and hangs
  /// its stages beneath.
  Result<Cube> Execute(const CubeQuery& query, Stage* stage) const;

  /// True when Extend can bring `cube` up to date: this engine's
  /// warehouse computed it (Execute or Extend, not a navigation) under
  /// its current lineage(), and no measure is count_distinct, whose
  /// cells keep only their counts.
  bool CanExtend(const Cube& cube) const;

  /// Rolls `cube` forward over the fact rows appended since it was
  /// computed: it resumes each of its cells' running sums, in row
  /// order, over just those rows, under the same stages as Execute
  /// (the scan's rows_in counts the appended rows only). The result
  /// equals Execute(cube.query()) on the warehouse as it is now, to
  /// the bit, and `cube` is left as it was. FailedPrecondition unless
  /// CanExtend(cube).
  Result<Cube> Extend(const Cube& cube, PlanNode* parent = nullptr) const;

 private:
  /// Execute when `base` is null, otherwise Extend of `*base`.
  Result<Cube> Compute(const CubeQuery& query, const Cube::Data* base,
                       Stage* stage) const;

  const warehouse::Warehouse* warehouse_;
};

}  // namespace ddgms::olap

#endif  // DDGMS_OLAP_CUBE_H_
