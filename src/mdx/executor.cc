#include "mdx/executor.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <utility>

#include "common/log.h"
#include "common/metrics.h"
#include "common/resource.h"
#include "common/strings.h"
#include "mdx/parser.h"

namespace ddgms::mdx {

using olap::AxisSpec;
using olap::Cube;
using olap::CubeQuery;
using olap::SlicerSpec;
using warehouse::Dimension;
using warehouse::Warehouse;

namespace {

/// Parses a measure spec text: "Count", "Fn(Measure)" or "Measure"
/// (shorthand for Avg).
Result<AggSpec> ParseMeasureSpec(const std::string& text,
                                 const Warehouse& wh) {
  std::string trimmed(Trim(text));
  if (EqualsIgnoreCase(trimmed, "count")) {
    return AggSpec{AggFn::kCount, "", "count"};
  }
  size_t open = trimmed.find('(');
  if (open != std::string::npos) {
    if (trimmed.back() != ')') {
      return Status::ParseError("malformed measure '" + trimmed + "'");
    }
    std::string fn_name = trimmed.substr(0, open);
    std::string column(
        Trim(trimmed.substr(open + 1, trimmed.size() - open - 2)));
    DDGMS_ASSIGN_OR_RETURN(AggFn fn, AggFnFromName(fn_name));
    if (!wh.fact().schema().HasField(column)) {
      return Status::NotFound("no measure column '" + column +
                              "' in fact table");
    }
    return AggSpec{fn, column, ToLower(fn_name) + "(" + column + ")"};
  }
  // Bare measure name: default aggregate is Avg.
  if (!wh.fact().schema().HasField(trimmed)) {
    return Status::NotFound("no measure column '" + trimmed +
                            "' in fact table");
  }
  return AggSpec{AggFn::kAvg, trimmed, "avg(" + trimmed + ")"};
}

/// Converts a bracketed member spelling to the attribute column's type.
Result<Value> ParseMemberValue(const std::string& text,
                               const ColumnVector& attr_col) {
  switch (attr_col.type()) {
    case DataType::kString:
      return Value::Str(text);
    case DataType::kInt64: {
      DDGMS_ASSIGN_OR_RETURN(int64_t v, ParseInt64(text));
      return Value::Int(v);
    }
    case DataType::kDouble: {
      DDGMS_ASSIGN_OR_RETURN(double v, ParseDouble(text));
      return Value::Real(v);
    }
    case DataType::kBool: {
      DDGMS_ASSIGN_OR_RETURN(bool v, ParseBool(text));
      return Value::Bool(v);
    }
    case DataType::kDate: {
      DDGMS_ASSIGN_OR_RETURN(Date v, Date::FromString(text));
      return Value::FromDate(v);
    }
    case DataType::kNull:
      break;
  }
  return Status::Internal("bad attribute type");
}

/// Accumulates a set expression into axis specs + measures.
class SetCompiler {
 public:
  SetCompiler(const Warehouse& wh, CubeQuery* query,
              std::vector<size_t>* axis_indices)
      : wh_(wh), query_(query), axis_indices_(axis_indices) {}

  Status Compile(const SetExpr& set) {
    if (set.is_crossjoin) {
      DDGMS_RETURN_IF_ERROR(Compile(*set.cross_left));
      return Compile(*set.cross_right);
    }
    for (const MemberRef& ref : set.members) {
      DDGMS_RETURN_IF_ERROR(CompileRef(ref));
    }
    return Status::OK();
  }

 private:
  Status CompileRef(const MemberRef& ref) {
    if (ref.path.empty()) {
      return Status::ParseError("empty member reference");
    }
    if (EqualsIgnoreCase(ref.path[0], "Measures")) {
      if (ref.path.size() != 2) {
        return Status::ParseError("measure reference must be "
                                  "[Measures].[spec]");
      }
      DDGMS_ASSIGN_OR_RETURN(AggSpec spec,
                             ParseMeasureSpec(ref.path[1], wh_));
      query_->measures.push_back(std::move(spec));
      return Status::OK();
    }
    if (ref.path.size() < 2 || ref.path.size() > 3) {
      return Status::ParseError(
          "member reference must be [Dimension].[Attribute] or "
          "[Dimension].[Attribute].[member]: " +
          ref.ToString());
    }
    const std::string& dim_name = ref.path[0];
    const std::string& attr = ref.path[1];
    DDGMS_ASSIGN_OR_RETURN(const Dimension* dim,
                           wh_.dimension(dim_name));
    DDGMS_ASSIGN_OR_RETURN(const ColumnVector* attr_col,
                           dim->table().ColumnByName(attr));
    if (ref.path.size() == 2) {
      // Level reference: a full axis over the level's members
      // (.Children of a level is the same set).
      AppendAxis(dim_name, attr, /*member=*/nullptr, attr_col);
      return Status::OK();
    }
    DDGMS_ASSIGN_OR_RETURN(Value member,
                           ParseMemberValue(ref.path[2], *attr_col));
    if (ref.suffix == MemberRef::Suffix::kChildren) {
      // [Dim].[Coarse].[member].Children: an axis at the next-finer
      // hierarchy level, restricted to the members under `member`.
      return AppendChildrenAxis(*dim, attr, member);
    }
    AppendAxis(dim_name, attr, &member, attr_col);
    return Status::OK();
  }

  Status AppendChildrenAxis(const Dimension& dim,
                            const std::string& coarse_attr,
                            const Value& parent) {
    DDGMS_ASSIGN_OR_RETURN(std::string fine_attr,
                           dim.FinerLevel(coarse_attr));
    DDGMS_ASSIGN_OR_RETURN(const ColumnVector* coarse_col,
                           dim.table().ColumnByName(coarse_attr));
    DDGMS_ASSIGN_OR_RETURN(const ColumnVector* fine_col,
                           dim.table().ColumnByName(fine_attr));
    AxisSpec spec;
    spec.dimension = dim.name();
    spec.attribute = fine_attr;
    std::vector<Value> seen;
    for (size_t i = 0; i < dim.table().num_rows(); ++i) {
      if (coarse_col->IsNull(i) ||
          !coarse_col->GetValue(i).Equals(parent)) {
        continue;
      }
      Value child = fine_col->GetValue(i);
      bool duplicate = false;
      for (const Value& v : seen) {
        if (v.Equals(child)) {
          duplicate = true;
          break;
        }
      }
      if (!duplicate) seen.push_back(child);
    }
    if (seen.empty()) {
      return Status::NotFound("member '" + parent.ToString() +
                              "' of level '" + coarse_attr +
                              "' has no children");
    }
    std::sort(seen.begin(), seen.end(),
              [](const Value& a, const Value& b) {
                return a.Compare(b) < 0;
              });
    spec.members = std::move(seen);
    axis_indices_->push_back(query_->axes.size());
    query_->axes.push_back(std::move(spec));
    return Status::OK();
  }

  void AppendAxis(const std::string& dim, const std::string& attr,
                  const Value* member, const ColumnVector*) {
    // Merge with the most recent axis for the same level so that
    // { [D].[A].[x], [D].[A].[y] } produces one axis with two members.
    if (!axis_indices_->empty()) {
      AxisSpec& last = query_->axes[axis_indices_->back()];
      if (last.dimension == dim && last.attribute == attr) {
        if (member != nullptr && !last.members.empty()) {
          last.members.push_back(*member);
        } else {
          // Mixing .Members with explicit members widens to all.
          last.members.clear();
        }
        return;
      }
    }
    AxisSpec spec;
    spec.dimension = dim;
    spec.attribute = attr;
    if (member != nullptr) spec.members.push_back(*member);
    axis_indices_->push_back(query_->axes.size());
    query_->axes.push_back(std::move(spec));
  }

  const Warehouse& wh_;
  CubeQuery* query_;
  std::vector<size_t>* axis_indices_;
};

/// Compiles the axes and WHERE clause of `query` into `cq`, noting
/// which of its axes go on COLUMNS and which on ROWS.
Status Compile(const MdxQuery& query, const Warehouse& wh, CubeQuery* cq,
               std::vector<size_t>* column_axes,
               std::vector<size_t>* row_axes) {
  bool any_non_empty = false;
  for (const AxisClause& axis : query.axes) {
    std::vector<size_t>* indices =
        axis.target == AxisClause::Target::kColumns ? column_axes : row_axes;
    SetCompiler compiler(wh, cq, indices);
    DDGMS_RETURN_IF_ERROR(compiler.Compile(axis.set));
    any_non_empty = any_non_empty || axis.non_empty;
  }
  cq->non_empty = any_non_empty || cq->non_empty;

  // WHERE: members become slicers; measures are selected.
  for (const MemberRef& ref : query.where) {
    if (!ref.path.empty() && EqualsIgnoreCase(ref.path[0], "Measures")) {
      if (ref.path.size() != 2) {
        return Status::ParseError(
            "measure reference must be [Measures].[spec]");
      }
      DDGMS_ASSIGN_OR_RETURN(AggSpec spec, ParseMeasureSpec(ref.path[1], wh));
      cq->measures.push_back(std::move(spec));
      continue;
    }
    if (ref.path.size() != 3) {
      return Status::ParseError(
          "WHERE member must be [Dimension].[Attribute].[member]: " +
          ref.ToString());
    }
    DDGMS_ASSIGN_OR_RETURN(const Dimension* dim, wh.dimension(ref.path[0]));
    DDGMS_ASSIGN_OR_RETURN(const ColumnVector* attr_col,
                           dim->table().ColumnByName(ref.path[1]));
    DDGMS_ASSIGN_OR_RETURN(Value member,
                           ParseMemberValue(ref.path[2], *attr_col));
    // Merge with an existing slicer on the same level (tuple of two
    // members of one level = either-of).
    bool merged = false;
    for (SlicerSpec& s : cq->slicers) {
      if (s.dimension == ref.path[0] && s.attribute == ref.path[1]) {
        s.values.push_back(member);
        merged = true;
        break;
      }
    }
    if (!merged) {
      cq->slicers.push_back(
          SlicerSpec{ref.path[0], ref.path[1], {std::move(member)}});
    }
  }

  if (cq->measures.empty()) {
    cq->measures.push_back(AggSpec{AggFn::kCount, "", "count"});
  }
  return Status::OK();
}

std::string FormatMicros(double us) {
  if (us < 1000.0) return StrFormat("%.1fus", us);
  if (us < 1e6) return StrFormat("%.2fms", us / 1000.0);
  return StrFormat("%.3fs", us / 1e6);
}

std::atomic<double> g_slow_query_threshold_us{250000.0};
std::atomic<uint64_t> g_execute_delay_us{0};

}  // namespace

void MdxExecutor::SetSlowQueryThresholdMicros(double micros) {
  g_slow_query_threshold_us.store(micros, std::memory_order_relaxed);
}

double MdxExecutor::SlowQueryThresholdMicros() {
  return g_slow_query_threshold_us.load(std::memory_order_relaxed);
}

void MdxExecutor::SetExecuteDelayMicrosForTesting(uint64_t micros) {
  g_execute_delay_us.store(micros, std::memory_order_relaxed);
}

uint64_t MdxExecutor::ExecuteDelayMicrosForTesting() {
  return g_execute_delay_us.load(std::memory_order_relaxed);
}

std::string MdxProfile::ToString() const {
  std::string out = StrFormat(
      "mdx profile: %zu axes, %zu slicers, %zu measures; "
      "%zu fact rows -> %zu cells (%zu facts aggregated)\n",
      axes, slicers, measures, fact_rows, cells, facts_aggregated);
  out += StrFormat("  %-10s %12s %8s\n", "stage", "time", "share");
  for (const Stage& stage : stages) {
    const double share =
        total_micros > 0.0 ? 100.0 * stage.micros / total_micros : 0.0;
    out += StrFormat("  %-10s %12s %7.1f%%\n", stage.name.c_str(),
                     FormatMicros(stage.micros).c_str(), share);
  }
  out += StrFormat("  %-10s %12s\n", "total",
                   FormatMicros(total_micros).c_str());
  return out;
}

Result<Table> MdxResult::ToGrid() const {
  if (row_axes.size() == 1 && column_axes.size() == 1 &&
      cube.num_measures() >= 1) {
    return cube.Pivot(row_axes[0], column_axes[0], 0);
  }
  return cube.ToTable();
}

MdxExecutor::MdxExecutor(const Warehouse* wh)
    : resolve_cube_([wh](const std::string&) -> Result<const Warehouse*> {
        return wh;
      }) {}

Result<MdxResult> MdxExecutor::Execute(const std::string& query_text) const {
  ScopedAccounting accounting("mdx");
  // The root is a Stage like its children: the one child of `top`
  // until it stops.
  olap::PlanNode top;
  olap::Stage root(&top, "mdx.execute", "ddgms.mdx.execute_latency_us");
  MdxQuery query;
  double parse_us = 0.0;
  {
    olap::Stage parse(root.node(), "mdx.parse", nullptr, "parse");
    DDGMS_ASSIGN_OR_RETURN(query, Parse(query_text));
    parse_us = parse.Stop();
  }
  DDGMS_ASSIGN_OR_RETURN(const Warehouse* wh,
                         resolve_cube_(query.cube_name));
  if (wh == nullptr) {
    return Status::InvalidArgument("MdxExecutor has no warehouse");
  }
  if (!EqualsIgnoreCase(query.cube_name, wh->def().fact_name)) {
    return Status::NotFound("no cube named '" + query.cube_name +
                            "' (fact table is '" + wh->def().fact_name +
                            "')");
  }
  CubeQuery cq;
  std::vector<size_t> column_axes;
  std::vector<size_t> row_axes;
  double compile_us = 0.0;
  {
    olap::Stage compile(root.node(), "mdx.compile", nullptr, "compile");
    DDGMS_RETURN_IF_ERROR(Compile(query, *wh, &cq, &column_axes, &row_axes));
    compile_us = compile.Stop();
    olap::PlanNode& node = *compile.node();
    node.rows_out = cq.axes.size();
    node.AddProp("axes", static_cast<uint64_t>(cq.axes.size()));
    node.AddProp("slicers", static_cast<uint64_t>(cq.slicers.size()));
    node.AddProp("measures", static_cast<uint64_t>(cq.measures.size()));
  }

  olap::Cube cube;
  double execute_us = 0.0;
  {
    // The cube's stage: the cache's node, or the engine's when uncached.
    const bool use_cache = cache_ != nullptr && cache_->warehouse() == wh;
    olap::Stage execute(
        root.node(), use_cache ? "olap.cube.cache" : "olap.cube.execute",
        use_cache ? nullptr : "ddgms.olap.execute_latency_us", "execute");
    if (const uint64_t delay_us = ExecuteDelayMicrosForTesting();
        delay_us > 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(delay_us));
    }
    if (use_cache) {
      DDGMS_ASSIGN_OR_RETURN(std::shared_ptr<const Cube> shared,
                             cache_->Execute(cq, &execute));
      cube = *shared;
    } else {
      DDGMS_ASSIGN_OR_RETURN(cube,
                             olap::CubeEngine(wh).Execute(cq, &execute));
    }
    execute_us = execute.Stop();
  }

  MdxResult result;
  result.cube = std::move(cube);
  result.column_axes = std::move(column_axes);
  result.row_axes = std::move(row_axes);

  MdxProfile& profile = result.profile;
  profile.stages = {MdxProfile::Stage{"parse", parse_us},
                    MdxProfile::Stage{"compile", compile_us},
                    MdxProfile::Stage{"execute", execute_us}};
  profile.axes = cq.axes.size();
  profile.slicers = cq.slicers.size();
  profile.measures = cq.measures.size();
  profile.fact_rows = wh->fact().num_rows();
  profile.facts_aggregated = result.cube.facts_aggregated();
  profile.cells = result.cube.num_cells();
  profile.total_micros = root.Stop();
  profile.plan = std::move(*root.node());
  profile.plan.rows_in = profile.fact_rows;
  profile.plan.rows_out = profile.cells;

  root.SetAttribute("axes", profile.axes);
  root.SetAttribute("cells", profile.cells);
  // Emitted while the root span is still open, so the record is
  // stamped with the enclosing mdx.execute span id.
  DDGMS_LOG_INFO("mdx.execute")
      .With("cube", query.cube_name)
      .With("axes", profile.axes)
      .With("cells", profile.cells)
      .With("total_us", profile.total_micros);
  if (profile.total_micros >= SlowQueryThresholdMicros()) {
    LogEvent slow(LogLevel::kWarn, "mdx.slow_query");
    slow.With("cube", query.cube_name)
        .With("cells", profile.cells)
        .With("total_us", profile.total_micros);
    for (const MdxProfile::Stage& stage : profile.stages) {
      slow.With(stage.name + "_us", stage.micros);
    }
    slow.With("plan", profile.plan.ToJson());
    DDGMS_METRIC_INC("ddgms.mdx.slow_queries");
  }
  DDGMS_METRIC_INC("ddgms.mdx.queries");
  return result;
}

}  // namespace ddgms::mdx
