#ifndef DDGMS_MDX_EXECUTOR_H_
#define DDGMS_MDX_EXECUTOR_H_

#include <functional>
#include <string>
#include <vector>

#include "common/result.h"
#include "mdx/ast.h"
#include "olap/cache.h"
#include "olap/cube.h"
#include "olap/plan.h"
#include "warehouse/warehouse.h"

namespace ddgms::mdx {

/// EXPLAIN-style per-stage timing profile of one MDX execution. Always
/// populated, so callers can attach it to query output without
/// enabling the global metrics or trace collectors. Its times are the
/// plan tree's own clock readings, in fractional microseconds.
struct MdxProfile {
  struct Stage {
    std::string name;
    double micros = 0.0;
  };
  /// In execution order: parse, compile (axis/slicer/measure
  /// resolution), execute (cube cache or scan) — the root's children.
  std::vector<Stage> stages;
  /// The whole "mdx.execute" root, parse included.
  double total_micros = 0.0;

  // Shape of the compiled and executed query.
  size_t axes = 0;
  size_t slicers = 0;
  size_t measures = 0;
  size_t fact_rows = 0;
  size_t facts_aggregated = 0;
  size_t cells = 0;

  /// EXPLAIN ANALYZE operator tree rooted at "mdx.execute": per-stage
  /// times, cardinalities, cube-cache hit/rolled/miss and resource-pool
  /// byte deltas.
  olap::PlanNode plan;

  /// Renders an EXPLAIN-style table: the query shape line followed by
  /// one row per stage with its share of the total.
  std::string ToString() const;
};

/// Result of executing an MDX query: the underlying cube (through the
/// cube cache, sharing the cached cube's cells) plus the mapping of
/// cube axes onto the MDX COLUMNS / ROWS display axes.
struct MdxResult {
  olap::Cube cube;
  std::vector<size_t> column_axes;  // indices into cube.query().axes
  std::vector<size_t> row_axes;
  MdxProfile profile;

  /// Renders the result: with exactly one ROWS axis and one COLUMNS
  /// axis and a single measure, a 2D cross-tab (rows x columns);
  /// otherwise the flattened cell table.
  Result<Table> ToGrid() const;
};

/// Executes MDX against a Warehouse.
///
/// Member semantics:
///  * [Dim].[Attr].Members            — axis over all members
///  * [Dim].[Attr]                    — same (shorthand)
///  * [Dim].[Attr].[member]           — axis restricted to listed members
///                                      (several refs to the same level
///                                      merge, preserving order)
///  * [Dim].[Attr].[member].Children  — axis at the next-finer hierarchy
///                                      level, restricted to members
///                                      under `member`
///  * [Measures].[Count]              — count measure
///  * [Measures].[Sum(FBG)] etc.      — aggregate of a warehouse measure
///  * [Measures].[FBG]                — shorthand for Avg(FBG)
///
/// WHERE tuple members become slicers; measures may also appear there.
/// When no measure is named anywhere, Count is used.
class MdxExecutor {
 public:
  /// Maps a query's FROM cube name to the warehouse that answers it;
  /// the query then fails NotFound unless the warehouse's fact table
  /// has that name.
  using CubeResolver = std::function<Result<const warehouse::Warehouse*>(
      const std::string& cube_name)>;

  /// Answers every query from `wh`.
  explicit MdxExecutor(const warehouse::Warehouse* wh);
  explicit MdxExecutor(CubeResolver resolve_cube)
      : resolve_cube_(std::move(resolve_cube)) {}

  /// Parses and executes under one "mdx.execute" Stage, whose children
  /// are mdx.parse, mdx.compile and the cube's stage.
  Result<MdxResult> Execute(const std::string& query_text) const;

  /// Routes cube execution through `cache` (non-owning; may be null to
  /// detach). Ignored unless the cache was built over the warehouse a
  /// query resolves to. Hits and misses appear in the profile's plan
  /// tree.
  void set_cube_cache(olap::CachingCubeEngine* cache) { cache_ = cache; }

  /// Slow-query log: an execution whose profiled time meets or exceeds
  /// this threshold emits a warn-level "mdx.slow_query" flight-recorder
  /// event carrying the per-stage MdxProfile timings and the EXPLAIN
  /// ANALYZE plan as JSON. Process-wide; default 250000 us (250 ms).
  static void SetSlowQueryThresholdMicros(double micros);
  static double SlowQueryThresholdMicros();

  /// Test hook (same static-knob idiom as the slow-query threshold):
  /// every execution sleeps this long inside the execute stage, so
  /// watchdog / /queryz tests can observe a deliberately stalled query
  /// deterministically. 0 (the default) disables the sleep entirely.
  static void SetExecuteDelayMicrosForTesting(uint64_t micros);
  static uint64_t ExecuteDelayMicrosForTesting();

 private:
  CubeResolver resolve_cube_;
  olap::CachingCubeEngine* cache_ = nullptr;
};

}  // namespace ddgms::mdx

#endif  // DDGMS_MDX_EXECUTOR_H_
