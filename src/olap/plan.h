#ifndef DDGMS_OLAP_PLAN_H_
#define DDGMS_OLAP_PLAN_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/resource.h"
#include "common/trace.h"

namespace ddgms::olap {

/// -------------------------------------------------------------------
/// EXPLAIN ANALYZE plan tree
///
/// One node per executed operator, built while the query runs (this is
/// always an *analyze* plan — the numbers are measured, not
/// estimated). The MDX executor roots the tree at "mdx.execute"; the
/// cube engine hangs its stages (resolve axes/slicers, scan,
/// materialize) beneath it; the cube cache interposes a hit/miss node.
///
/// Each node is filled by the Stage (below) that also times the
/// operator's span. Per-operator bytes are ResourceMeter pool deltas
/// observed across the operator (see ScopedAccounting), so summing a
/// plan's operator bytes reconciles with the pool totals by
/// construction — the explain_test asserts this.
/// -------------------------------------------------------------------
struct PlanNode {
  /// Operator name, dotted "<layer>.<noun>[.<verb>]" like every other
  /// instrument ("mdx.execute", "olap.cube.scan").
  std::string op;
  /// Measured wall-clock time spent in this operator, including
  /// children (children of a well-formed plan never sum to more).
  uint64_t micros = 0;
  /// Input / output cardinality in the operator's natural unit (fact
  /// rows for scans, cells for materialization, result rows for
  /// grids). Zero when not meaningful.
  uint64_t rows_in = 0;
  uint64_t rows_out = 0;
  /// Bytes charged while this operator ran to the resource pool that
  /// was innermost when it opened (the cube engine's stages bill a pool
  /// the engine opens beneath its own node).
  uint64_t bytes = 0;
  /// Free-form operator detail ("slots"="dense", "cache"="hit").
  std::vector<std::pair<std::string, std::string>> props;
  std::vector<PlanNode> children;

  PlanNode() = default;
  explicit PlanNode(std::string op_name) : op(std::move(op_name)) {}

  void AddProp(const std::string& key, std::string value) {
    props.emplace_back(key, std::move(value));
  }
  void AddProp(const std::string& key, uint64_t value);

  /// Adds a child and returns a reference to it (stable only until the
  /// next AddChild on the same parent).
  PlanNode& AddChild(std::string op_name);

  /// This node's bytes plus all descendants'.
  uint64_t TotalBytes() const;

  /// Aligned tree rendering (the shell's `explain analyze` output):
  /// tree-drawn operator column, then time / rows / bytes columns.
  std::string ToString() const;
  /// {"op":...,"micros":...,...,"children":[...]}.
  std::string ToJson() const;
};

/// One instrumented stage of a query: a TraceSpan (with its optional
/// latency histogram) that also fills a plan node and sets the stage
/// /queryz shows for the thread's query. Its two clock readings feed
/// every sink that is on; with no plan node and every collector off it
/// reads no clock. Like any span it must close before a sibling opens.
class Stage : public TraceSpan {
 public:
  /// Opens `op` as a new child of `parent`, or with no plan node when
  /// `parent` is null. `query_stage` names the /queryz stage ("parse",
  /// "compile", "execute").
  Stage(PlanNode* parent, const char* op, const char* histogram = nullptr,
        const char* query_stage = nullptr);
  ~Stage() { Stop(); }

  /// nullptr without a plan.
  PlanNode* node() const { return node_; }

  /// Stops the span (see TraceSpan::Stop); the first call also fills
  /// the node's micros and its bytes: the charges, over the same
  /// interval, to the pool that was innermost when the stage opened.
  double Stop();

 private:
  PlanNode* node_ = nullptr;
  bool filled_ = false;
  const ResourcePool* pool_ = nullptr;
  uint64_t allocated_at_entry_ = 0;
};

}  // namespace ddgms::olap

#endif  // DDGMS_OLAP_PLAN_H_
