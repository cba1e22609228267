#ifndef DDGMS_OLAP_CUBE_H_
#define DDGMS_OLAP_CUBE_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <unordered_map>
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

/// Materialized result of a CubeQuery: a sparse map from axis coordinates
/// to each cell's measure accumulators, retaining enough context
/// (warehouse + query) to support OLAP navigation:
///
///  * RollUp(axis)            — drop an axis, re-aggregating.
///  * RollUpToCoarser(axis)   — move the axis up its hierarchy.
///  * DrillDown(axis)         — move the axis down its hierarchy
///                              (paper Fig 5: AgeBand10 -> AgeBand5).
///  * Slice(dim, attr, v)     — fix one member and remove that axis.
///  * Dice(dim, attr, values) — restrict to a member subset.
///
/// RollUp, Slice and Dice derive their cube from this one's cells when
/// these cells hold every fact the answer needs: the warehouse is still
/// at the generation this cube was computed under, no measure is
/// count_distinct, the attribute is exactly one axis, and that axis's
/// member restriction (if any) covers the answer. RollUp then merges
/// the cells that share their other coordinates, Slice keeps one
/// member's cells and drops the axis, and Dice keeps the listed
/// members' cells. Every other navigation, and DrillDown and
/// RollUpToCoarser always, re-executes against the warehouse (ROLAP
/// style). Either way the result equals what CubeEngine returns for
/// the navigated query, and a Cube must not outlive its Warehouse.
class Cube {
 public:
  const CubeQuery& query() const { return query_; }
  size_t num_axes() const { return query_.axes.size(); }
  size_t num_measures() const { return query_.measures.size(); }
  size_t num_cells() const { return cells_.size(); }
  /// Total facts that passed the slicers.
  size_t facts_aggregated() const { return facts_aggregated_; }

  /// Distinct coordinate values seen on axis `axis`, sorted.
  const std::vector<Value>& AxisMembers(size_t axis) const {
    return axis_members_[axis];
  }

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

  /// Estimated heap footprint of the materialized cube (cells, their
  /// coordinate Values and measure accumulators, axis member lists).
  /// This is the amount Execute, and a navigation that derives its
  /// cube from this one, charge to the "olap.cube" resource pool.
  uint64_t ApproxBytes() const;

 private:
  friend class CubeEngine;

  /// The scan's accumulators, one per measure. Values come from
  /// Finish; navigation merges them. A count_distinct accumulator
  /// keeps only its count (DropDistinctValues).
  struct Cell {
    std::vector<Accumulator> accumulators;

    size_t fact_count() const { return accumulators.front().rows(); }
  };

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
  /// `member_of` maps a cell's coordinate on `axis` to the coordinate
  /// the cell keeps (unused when the axis goes), or to nullptr to
  /// leave the cell out.
  Cube Derive(CubeQuery query, size_t axis,
              const std::function<const Value*(const Value&)>& member_of)
      const;

  const warehouse::Warehouse* warehouse_ = nullptr;
  /// Warehouse::generation() the cells were computed under; a derived
  /// cube inherits its parent's.
  uint64_t generation_ = 0;
  CubeQuery query_;
  std::unordered_map<std::vector<Value>, Cell, ValueVectorHash,
                     ValueVectorEq>
      cells_;
  std::vector<std::vector<Value>> axis_members_;
  size_t facts_aggregated_ = 0;
};

/// Executes CubeQueries against a Warehouse. Stateless aside from the
/// warehouse pointer; the warehouse must outlive the engine and all
/// cubes it produces.
///
/// One serial kernel answers every query. Resolve reads each axis and
/// slicer attribute's dictionary codes at rest (Dimension::Codes) and
/// looks up only the Values a restriction or slicer lists. The scan
/// turns each admitted fact row into a mixed-radix cell index, counts
/// the row into that cell and adds the typed measure arrays into the
/// cell's flat partial sums; materialize folds each cell's partials into
/// its accumulators. Cell slots sit in a dense array while the product
/// of the axis member counts stays small, and in a hash of the packed
/// index above that.
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

 private:
  const warehouse::Warehouse* warehouse_;
};

}  // namespace ddgms::olap

#endif  // DDGMS_OLAP_CUBE_H_
