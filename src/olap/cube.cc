#include "olap/cube.h"

#include <algorithm>
#include <bit>
#include <optional>
#include <span>
#include <unordered_map>
#include <unordered_set>

#include "common/annotations.h"
#include "common/log.h"
#include "common/metrics.h"
#include "common/resource.h"
#include "common/strings.h"
#include "common/trace.h"

namespace ddgms::olap {

using warehouse::Dimension;
using warehouse::Warehouse;

namespace {

/// Column type for an axis's members: the type of the first non-null
/// member (null sorts first), or string when every member is null.
DataType MemberType(const std::vector<Value>& members) {
  for (const Value& v : members) {
    if (!v.is_null()) return v.type();
  }
  return DataType::kString;
}

uint64_t ValueApproxBytes(const Value& v) {
  uint64_t bytes = sizeof(Value);
  if (v.type() == DataType::kString) bytes += v.string_value().size();
  return bytes;
}

/// A member restriction's members: duplicates under ValueEq dropped,
/// the first spelling kept, in the listed order.
std::vector<Value> DistinctMembers(const std::vector<Value>& listed) {
  std::vector<Value> out;
  std::unordered_set<Value, ValueHash, ValueEq> seen;
  for (const Value& m : listed) {
    if (seen.insert(m).second) out.push_back(m);
  }
  return out;
}

/// True when a measure of `query` is count_distinct. Such a cell keeps
/// only its count, which neither merges (navigation) nor resumes (a
/// roll forward).
bool CountsDistinct(const CubeQuery& query) {
  return std::any_of(query.measures.begin(), query.measures.end(),
                     [](const AggSpec& m) {
                       return m.fn == AggFn::kCountDistinct;
                     });
}

/// True when an axis with member restriction `restriction` (empty = all
/// members) admits the facts whose attribute equals `v`.
bool Admits(const std::vector<Value>& restriction, const Value& v) {
  return restriction.empty() ||
         std::any_of(restriction.begin(), restriction.end(),
                     [&v](const Value& m) { return m.Equals(v); });
}

/// Above this many possible cells (the product of the axis member
/// counts) the scan finds cell slots through a hash of the packed cell
/// index instead of a dense int32 array: 64Ki slots is a 256 KiB array,
/// and the [Telemetry] cube's Snapshot axis grows for as long as the
/// server runs.
constexpr uint64_t kDenseSlotLimit = uint64_t{1} << 16;

/// A resolved axis. Its members are a member restriction's Values
/// (deduplicated under ValueEq, first spelling kept), or else the
/// attribute's codes, each named by the first surrogate key holding it.
struct ResolvedAxis {
  const ColumnVector* column = nullptr;  // the attribute column
  std::vector<Value> restriction;
  std::vector<int32_t> restricted;    // member of each key, when restricted
  std::span<const size_t> first_key;  // by code, when unrestricted
  uint64_t stride = 0;                // mixed-radix place value

  size_t num_members() const {
    return restriction.empty() ? first_key.size() : restriction.size();
  }
};

/// An axis as the scan reads it, in plain pointers that the compiler
/// keeps in registers when the number of axes is fixed.
struct ScanAxis {
  const int64_t* keys;           // the fact's foreign-key column
  const int32_t* member_of_key;  // by surrogate key; -1 = off axis
  uint64_t stride;
};

/// A slicer as the scan reads it.
struct ScanSlicer {
  std::span<const int64_t> keys;
  std::vector<uint8_t> admit;  // by surrogate key
};

/// A measure the scan sums from typed arrays: an int64 or double column
/// under count_valid, sum, avg, variance or stddev.
struct TypedMeasure {
  std::span<const uint8_t> valid;
  std::span<const int64_t> ints;    // set for an int64 column
  std::span<const double> doubles;  // set for a double column
};

/// A measure fed boxed Values: min, max, count_distinct, or a column
/// type the typed path does not read.
struct BoxedMeasure {
  AggFn fn;
  const ColumnVector* column;
};

/// Where materialize finds a cell's accumulator state for one measure:
/// the cell's row count alone (count), a typed partial, or a boxed
/// accumulator.
struct MeasureSource {
  enum class Kind { kRows, kTyped, kBoxed };
  Kind kind;
  size_t index;  // into ScanInput::typed or ScanInput::boxed
};

struct ScanInput {
  size_t first_row = 0;  // the rows [first_row, rows) are scanned
  size_t rows = 0;
  std::vector<ScanAxis> axes;
  std::vector<ScanSlicer> slicers;
  std::vector<TypedMeasure> typed;
  std::vector<BoxedMeasure> boxed;
};

/// What the scan sums for one typed measure over one cell's rows, in
/// row order.
struct TypedPartial {
  size_t valid = 0;
  double sum = 0.0;
  double sum_sq = 0.0;
};

/// The partials of every cell the scan touches, in slots numbered in
/// first-touch order: a slot holds its cell's row count, one
/// TypedPartial per typed measure and one Accumulator per boxed
/// measure. A cell finds its slot through a dense int32 array indexed
/// by the packed cell index while the cell space is at most
/// kDenseSlotLimit, and through a hash of the same index above it.
class CellSlots {
 public:
  CellSlots(uint64_t cell_space, const ScanInput& in)
      : num_typed_(in.typed.size()),
        boxed_(in.boxed),
        dense_(cell_space <= kDenseSlotLimit) {
    if (dense_) slot_of_cell_.assign(cell_space, -1);
  }

  bool dense() const { return dense_; }
  size_t size() const { return cell_of_slot_.size(); }
  uint64_t cell(size_t slot) const { return cell_of_slot_[slot]; }
  size_t rows(size_t slot) const { return rows_[slot]; }
  // Through data(): a query may have no typed or no boxed measure.
  TypedPartial* typed(size_t slot) {
    return typed_.data() + slot * num_typed_;
  }
  Accumulator* boxed(size_t slot) {
    return boxed_accs_.data() + slot * boxed_.size();
  }

  /// Opens the slot of `cell` holding `rows` rows already, for a roll
  /// forward to fill with the rest of the cell's state before the scan
  /// continues it; returns the slot.
  size_t Seed(uint64_t cell, size_t rows) {
    const auto slot = static_cast<size_t>(Open(cell));
    rows_[slot] = rows;
    return slot;
  }

  /// Counts one row into `cell`, opening its slot on the first touch;
  /// returns the slot. Small enough to inline into the scan.
  size_t Touch(uint64_t cell) {
    int32_t slot = dense_ ? slot_of_cell_[cell] : HashedSlot(cell);
    if (slot < 0) slot = Open(cell);
    ++rows_[static_cast<size_t>(slot)];
    return static_cast<size_t>(slot);
  }

 private:
  __attribute__((noinline)) int32_t HashedSlot(uint64_t cell) const {
    auto it = hashed_.find(cell);
    return it == hashed_.end() ? -1 : it->second;
  }

  // Once per cell, not per row.
  __attribute__((noinline)) int32_t Open(uint64_t cell) {
    const auto slot = static_cast<int32_t>(cell_of_slot_.size());
    if (dense_) {
      slot_of_cell_[cell] = slot;
    } else {
      hashed_.emplace(cell, slot);
    }
    cell_of_slot_.push_back(cell);
    rows_.push_back(0);
    typed_.resize(typed_.size() + num_typed_);
    for (const BoxedMeasure& m : boxed_) boxed_accs_.emplace_back(m.fn);
    return slot;
  }

  const size_t num_typed_;
  const std::vector<BoxedMeasure>& boxed_;
  const bool dense_;
  std::vector<int32_t> slot_of_cell_;
  std::unordered_map<uint64_t, int32_t> hashed_;
  std::vector<uint64_t> cell_of_slot_;
  std::vector<size_t> rows_;
  std::vector<TypedPartial> typed_;
  std::vector<Accumulator> boxed_accs_;
};

/// Feeds the boxed measures of one admitted row. Kept out of the hot
/// scan because it boxes a Value per measure.
void AddBoxed(const std::vector<BoxedMeasure>& boxed, size_t row,
              Accumulator* accs) {
  for (size_t b = 0; b < boxed.size(); ++b) {
    accs[b].Add(boxed[b].column->GetValue(row));
  }
}

// The fact scan, once per fact row: rows a slicer rejects or that fall
// outside an axis restriction are skipped; every other row is counted
// into the cell at its mixed-radix index and added to that cell's typed
// partials. A null adds +0.0, which leaves each sum's bits as they were,
// so no branch depends on a measure or on which axis member a row has.
// `axes` has a fixed extent for the common cube shapes (see Scan).
// Returns the number of rows aggregated.
template <size_t kAxes>
DDGMS_HOT size_t ScanFacts(const ScanInput& in,
                           std::span<const ScanAxis, kAxes> axes,
                           CellSlots* slots) {
  const std::span<const ScanSlicer> slicers = in.slicers;
  const std::span<const TypedMeasure> typed = in.typed;
  const bool boxed = !in.boxed.empty();
  size_t admitted = 0;
  for (size_t row = in.first_row, rows = in.rows; row < rows; ++row) {
    // A slicer usually admits few rows, so a rejected row leaves early.
    bool keep = true;
    for (const ScanSlicer& s : slicers) {
      if (s.admit[static_cast<size_t>(s.keys[row])] == 0) {
        keep = false;
        break;
      }
    }
    if (!keep) continue;
    uint64_t cell = 0;
    for (const ScanAxis& axis : axes) {
      const int32_t member =
          axis.member_of_key[static_cast<size_t>(axis.keys[row])];
      keep &= member >= 0;
      // Wraps for an off-axis member, whose row is dropped anyway.
      cell += static_cast<uint64_t>(member) * axis.stride;
    }
    if (!keep) continue;
    const size_t slot = slots->Touch(cell);
    TypedPartial* partials = slots->typed(slot);
    for (size_t t = 0; t < typed.size(); ++t) {
      const TypedMeasure& m = typed[t];
      const uint64_t valid = m.valid[row] != 0 ? 1 : 0;
      const double v = m.ints.empty() ? m.doubles[row]
                                      : static_cast<double>(m.ints[row]);
      const double x =
          std::bit_cast<double>(std::bit_cast<uint64_t>(v) & (0 - valid));
      TypedPartial& p = partials[t];
      p.valid += valid;
      p.sum += x;
      p.sum_sq += x * x;
    }
    if (boxed) AddBoxed(in.boxed, row, slots->boxed(slot));
    ++admitted;
  }
  return admitted;
}

/// Runs ScanFacts with the axis loop unrolled for up to three axes, the
/// shapes of the paper's cubes.
size_t Scan(const ScanInput& in, CellSlots* slots) {
  const std::span<const ScanAxis> axes = in.axes;
  switch (axes.size()) {
    case 0:
      return ScanFacts<0>(in, axes.first<0>(), slots);
    case 1:
      return ScanFacts<1>(in, axes.first<1>(), slots);
    case 2:
      return ScanFacts<2>(in, axes.first<2>(), slots);
    case 3:
      return ScanFacts<3>(in, axes.first<3>(), slots);
    default:
      return ScanFacts<std::dynamic_extent>(in, axes, slots);
  }
}

}  // namespace

std::string AxisSpec::ToString() const {
  std::string out = "[" + dimension + "].[" + attribute + "]";
  if (!members.empty()) {
    out += "{";
    for (size_t i = 0; i < members.size(); ++i) {
      if (i > 0) out += ",";
      out += members[i].ToString();
    }
    out += "}";
  }
  return out;
}

std::string SlicerSpec::ToString() const {
  std::string out = "[" + dimension + "].[" + attribute + "] IN (";
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ",";
    out += values[i].ToString();
  }
  return out + ")";
}

std::string CubeQuery::ToString() const {
  std::string out = "axes:";
  for (const AxisSpec& a : axes) {
    out += " ";
    out += a.ToString();
  }
  if (!slicers.empty()) {
    out += " where:";
    for (const SlicerSpec& s : slicers) {
      out += " ";
      out += s.ToString();
    }
  }
  out += " measures:";
  for (const AggSpec& m : measures) {
    out += " ";
    out += AggFnName(m.fn);
    out += "(";
    out += m.column.empty() ? "*" : m.column;
    out += ")";
  }
  if (!non_empty) out += " include-empty";
  return out;
}

Cube::Cube() {
  // Every empty cube shares one Data, which is never freed.
  static const auto* const kEmpty =
      new std::shared_ptr<const Data>(std::make_shared<const Data>());
  data_ = *kEmpty;
}

// Pivot and share tables call this once per output cell.
DDGMS_HOT Value Cube::CellValue(const std::vector<Value>& coords,
                                size_t measure_index) const {
  auto it = data_->cells.find(coords);
  if (it == data_->cells.end() ||
      measure_index >= it->second.accumulators.size()) {
    return Value::Null();
  }
  return it->second.accumulators[measure_index].Finish();
}

size_t Cube::CellCount(const std::vector<Value>& coords) const {
  auto it = data_->cells.find(coords);
  return it == data_->cells.end() ? 0 : it->second.fact_count();
}

std::optional<size_t> Cube::SoleAxis(const std::string& dimension,
                                     const std::string& attribute) const {
  std::optional<size_t> found;
  for (size_t i = 0; i < query().axes.size(); ++i) {
    if (query().axes[i].dimension == dimension &&
        query().axes[i].attribute == attribute) {
      if (found) return std::nullopt;
      found = i;
    }
  }
  return found;
}

bool Cube::CellsCurrent() const {
  return data_->warehouse != nullptr &&
         data_->warehouse->generation() == data_->generation &&
         !CountsDistinct(query());
}

Cube Cube::Derive(
    CubeQuery query, size_t axis,
    const std::function<const Value*(const Value&)>& member_of) const {
  ScopedAccounting accounting("olap.cube");
  const bool drop_axis = query.axes.size() < num_axes();
  auto out = std::make_shared<Data>();
  out->warehouse = data_->warehouse;
  out->generation = data_->generation;
  out->lineage = data_->lineage;
  out->derived = true;
  out->query = std::move(query);
  for (const CellMap::value_type* entry : data_->order) {
    const auto& [coord, cell] = *entry;
    const Value* member = member_of(coord[axis]);
    if (member == nullptr) continue;
    std::vector<Value> key = coord;
    if (drop_axis) {
      key.erase(key.begin() + static_cast<ptrdiff_t>(axis));
    } else {
      key[axis] = *member;
    }
    auto [it, fresh] = out->cells.try_emplace(std::move(key), cell);
    if (fresh) {
      out->order.push_back(&*it);
    } else {
      for (size_t m = 0; m < cell.accumulators.size(); ++m) {
        it->second.accumulators[m].Merge(cell.accumulators[m]);
      }
    }
    out->facts_aggregated += cell.fact_count();
  }

  // Axis members follow the engine's rule: a restricted axis lists its
  // restriction in order, hiding unseen members unless non_empty is
  // off, and an unrestricted axis lists its seen members sorted. This
  // cube's lists are in that order and a derived cube sees no member
  // this one did not, so filtering them by what the derived cells see
  // is enough; a diced axis starts from its new restriction.
  const std::vector<AxisSpec>& axes = out->query.axes;
  out->axis_members.resize(axes.size());
  for (size_t a = 0; a < axes.size(); ++a) {
    std::vector<Value> members;
    if (a == axis && !drop_axis) {
      members = DistinctMembers(axes[a].members);
    } else {
      members = AxisMembers(drop_axis && a >= axis ? a + 1 : a);
    }
    if (!axes[a].members.empty() && !out->query.non_empty) {
      out->axis_members[a] = std::move(members);
      continue;
    }
    std::unordered_set<Value, ValueHash, ValueEq> seen;
    for (const auto& [coord, cell] : out->cells) seen.insert(coord[a]);
    for (Value& m : members) {
      if (seen.count(m) != 0) out->axis_members[a].push_back(std::move(m));
    }
  }
  Cube cube(std::move(out));
  DDGMS_RESOURCE_CHARGE(cube.ApproxBytes());
  return cube;
}

Result<Cube> Cube::RollUp(size_t axis) const {
  if (axis >= query().axes.size()) {
    return Status::OutOfRange(StrFormat("axis %zu out of range", axis));
  }
  TraceSpan span("olap.rollup", "ddgms.olap.op_latency_us:rollup");
  DDGMS_METRIC_INC("ddgms.olap.ops:rollup");
  DDGMS_LOG_DEBUG("olap.rollup").With("axis", axis);
  CubeQuery q = query();
  q.axes.erase(q.axes.begin() + static_cast<ptrdiff_t>(axis));
  // The engine answers without the axis's member restriction, so the
  // cells of a restricted axis hold too few facts.
  if (CellsCurrent() && query().axes[axis].members.empty()) {
    span.SetAttribute("from", "cube");
    return Derive(std::move(q), axis, [](const Value& v) { return &v; });
  }
  span.SetAttribute("from", "warehouse");
  return CubeEngine(data_->warehouse).Execute(q);
}

Result<Cube> Cube::RollUpToCoarser(size_t axis) const {
  if (axis >= query().axes.size()) {
    return Status::OutOfRange(StrFormat("axis %zu out of range", axis));
  }
  const AxisSpec& spec = query().axes[axis];
  DDGMS_ASSIGN_OR_RETURN(const Dimension* dim,
                         data_->warehouse->dimension(spec.dimension));
  DDGMS_ASSIGN_OR_RETURN(std::string coarser,
                         dim->CoarserLevel(spec.attribute));
  TraceSpan span("olap.rollup_to_coarser", "ddgms.olap.op_latency_us:rollup");
  span.SetAttribute("to", coarser);
  DDGMS_METRIC_INC("ddgms.olap.ops:rollup");
  DDGMS_LOG_DEBUG("olap.rollup_to_coarser").With("to", coarser);
  CubeQuery q = query();
  q.axes[axis].attribute = coarser;
  q.axes[axis].members.clear();  // member names change across levels
  return CubeEngine(data_->warehouse).Execute(q);
}

Result<Cube> Cube::DrillDown(size_t axis) const {
  if (axis >= query().axes.size()) {
    return Status::OutOfRange(StrFormat("axis %zu out of range", axis));
  }
  const AxisSpec& spec = query().axes[axis];
  DDGMS_ASSIGN_OR_RETURN(const Dimension* dim,
                         data_->warehouse->dimension(spec.dimension));
  DDGMS_ASSIGN_OR_RETURN(std::string finer,
                         dim->FinerLevel(spec.attribute));
  TraceSpan span("olap.drilldown", "ddgms.olap.op_latency_us:drilldown");
  span.SetAttribute("to", finer);
  DDGMS_METRIC_INC("ddgms.olap.ops:drilldown");
  DDGMS_LOG_DEBUG("olap.drilldown").With("to", finer);
  CubeQuery q = query();
  // Keep the coarse level as a slicer-free outer axis? The paper's
  // drill-down replaces the level while retaining any member
  // restriction semantics at the coarse level, which we express by
  // keeping the old axis restriction as a slicer.
  if (!spec.members.empty()) {
    q.slicers.push_back(
        SlicerSpec{spec.dimension, spec.attribute, spec.members});
  }
  q.axes[axis].attribute = finer;
  q.axes[axis].members.clear();
  return CubeEngine(data_->warehouse).Execute(q);
}

Result<Cube> Cube::Slice(const std::string& dimension,
                         const std::string& attribute, Value value) const {
  TraceSpan span("olap.slice", "ddgms.olap.op_latency_us:slice");
  span.SetAttribute("attribute", attribute);
  DDGMS_METRIC_INC("ddgms.olap.ops:slice");
  DDGMS_LOG_DEBUG("olap.slice")
      .With("dimension", dimension)
      .With("attribute", attribute);
  CubeQuery q = query();
  // If the sliced attribute is an axis, remove the axis.
  for (size_t i = 0; i < q.axes.size(); ++i) {
    if (q.axes[i].dimension == dimension &&
        q.axes[i].attribute == attribute) {
      q.axes.erase(q.axes.begin() + static_cast<ptrdiff_t>(i));
      break;
    }
  }
  q.slicers.push_back(SlicerSpec{dimension, attribute, {value}});
  const std::optional<size_t> axis = SoleAxis(dimension, attribute);
  if (axis && CellsCurrent() && Admits(query().axes[*axis].members, value)) {
    span.SetAttribute("from", "cube");
    return Derive(std::move(q), *axis, [&value](const Value& v) {
      return v.Equals(value) ? &value : nullptr;
    });
  }
  span.SetAttribute("from", "warehouse");
  return CubeEngine(data_->warehouse).Execute(q);
}

Result<Cube> Cube::Dice(const std::string& dimension,
                        const std::string& attribute,
                        std::vector<Value> values) const {
  TraceSpan span("olap.dice", "ddgms.olap.op_latency_us:dice");
  span.SetAttribute("attribute", attribute);
  DDGMS_METRIC_INC("ddgms.olap.ops:dice");
  DDGMS_LOG_DEBUG("olap.dice")
      .With("dimension", dimension)
      .With("attribute", attribute)
      .With("values", values.size());
  CubeQuery q = query();
  bool applied = false;
  for (AxisSpec& a : q.axes) {
    if (a.dimension == dimension && a.attribute == attribute) {
      a.members = values;
      applied = true;
      break;
    }
  }
  if (!applied) {
    q.slicers.push_back(
        SlicerSpec{dimension, attribute, std::move(values)});
  }
  // An empty list leaves the axis unrestricted, which the engine
  // answers.
  const std::optional<size_t> axis = SoleAxis(dimension, attribute);
  if (axis && CellsCurrent() && !values.empty() &&
      std::all_of(values.begin(), values.end(),
                  [this, &axis](const Value& v) {
                    return Admits(query().axes[*axis].members, v);
                  })) {
    span.SetAttribute("from", "cube");
    // A cell takes the first listed spelling of its member.
    return Derive(std::move(q), *axis,
                  [&values](const Value& v) -> const Value* {
                    for (const Value& m : values) {
                      if (m.Equals(v)) return &m;
                    }
                    return nullptr;
                  });
  }
  span.SetAttribute("from", "warehouse");
  return CubeEngine(data_->warehouse).Execute(q);
}

Result<Table> Cube::ToTable() const {
  std::vector<Field> fields;
  for (size_t ax = 0; ax < query().axes.size(); ++ax) {
    // Axis output column named after the attribute; type from members.
    fields.push_back(
        Field{query().axes[ax].attribute, MemberType(AxisMembers(ax))});
  }
  for (const AggSpec& m : query().measures) {
    DataType t;
    switch (m.fn) {
      case AggFn::kCount:
      case AggFn::kCountValid:
      case AggFn::kCountDistinct:
        t = DataType::kInt64;
        break;
      default:
        t = DataType::kDouble;
        break;
    }
    fields.push_back(Field{m.OutputName(), t});
  }
  DDGMS_ASSIGN_OR_RETURN(Schema schema, Schema::Make(std::move(fields)));
  Table out(std::move(schema));

  // Enumerate cells in sorted coordinate order for deterministic output.
  std::vector<const CellMap::value_type*> sorted = data_->order;
  std::sort(sorted.begin(), sorted.end(),
            [](const CellMap::value_type* x, const CellMap::value_type* y) {
              const std::vector<Value>& a = x->first;
              const std::vector<Value>& b = y->first;
              for (size_t i = 0; i < a.size() && i < b.size(); ++i) {
                int c = a[i].Compare(b[i]);
                if (c != 0) return c < 0;
              }
              return a.size() < b.size();
            });
  for (const CellMap::value_type* entry : sorted) {
    const auto& [coord, cell] = *entry;
    if (query().non_empty && cell.fact_count() == 0) continue;
    Row row = coord;
    for (const Accumulator& acc : cell.accumulators) {
      row.push_back(acc.Finish());
    }
    DDGMS_RETURN_IF_ERROR(out.AppendRow(row));
  }
  return out;
}

Result<Table> Cube::Pivot(size_t row_axis, size_t col_axis,
                          size_t measure_index) const {
  if (query().axes.size() != 2) {
    return Status::FailedPrecondition(
        StrFormat("Pivot needs exactly 2 axes; cube has %zu",
                  query().axes.size()));
  }
  if (row_axis >= 2 || col_axis >= 2 || row_axis == col_axis) {
    return Status::InvalidArgument("bad pivot axis indices");
  }
  if (measure_index >= query().measures.size()) {
    return Status::OutOfRange("measure index out of range");
  }
  const std::vector<Value>& rows = AxisMembers(row_axis);
  const std::vector<Value>& cols = AxisMembers(col_axis);

  DataType measure_type;
  switch (query().measures[measure_index].fn) {
    case AggFn::kCount:
    case AggFn::kCountValid:
    case AggFn::kCountDistinct:
      measure_type = DataType::kInt64;
      break;
    default:
      measure_type = DataType::kDouble;
      break;
  }
  std::vector<Field> fields;
  fields.push_back(
      Field{query().axes[row_axis].attribute, MemberType(rows)});
  for (const Value& c : cols) {
    fields.push_back(Field{c.ToString(), measure_type});
  }
  DDGMS_ASSIGN_OR_RETURN(Schema schema, Schema::Make(std::move(fields)));
  Table out(std::move(schema));
  for (const Value& r : rows) {
    Row row;
    row.push_back(r);
    for (const Value& c : cols) {
      std::vector<Value> coord(2);
      coord[row_axis] = r;
      coord[col_axis] = c;
      row.push_back(CellValue(coord, measure_index));
    }
    DDGMS_RETURN_IF_ERROR(out.AppendRow(row));
  }
  return out;
}

Result<Table> Cube::PivotShare(size_t row_axis, size_t col_axis,
                               ShareBasis basis,
                               size_t measure_index) const {
  DDGMS_ASSIGN_OR_RETURN(Table counts,
                         Pivot(row_axis, col_axis, measure_index));
  const size_t rows = counts.num_rows();
  const size_t cols = counts.num_columns();  // label + data columns
  // Collect numeric cells.
  std::vector<std::vector<double>> cell(rows,
                                        std::vector<double>(cols - 1, 0.0));
  std::vector<std::vector<bool>> valid(rows,
                                       std::vector<bool>(cols - 1, false));
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 1; c < cols; ++c) {
      Value v = counts.column(c).GetValue(r);
      Result<double> d = v.AsDouble();
      if (d.ok()) {
        cell[r][c - 1] = *d;
        valid[r][c - 1] = true;
      }
    }
  }
  auto denominator = [&](size_t r, size_t c) {
    double total = 0.0;
    switch (basis) {
      case ShareBasis::kRow:
        for (size_t j = 0; j + 1 < cols; ++j) {
          if (valid[r][j]) total += cell[r][j];
        }
        break;
      case ShareBasis::kColumn:
        for (size_t i = 0; i < rows; ++i) {
          if (valid[i][c]) total += cell[i][c];
        }
        break;
      case ShareBasis::kGrand:
        for (size_t i = 0; i < rows; ++i) {
          for (size_t j = 0; j + 1 < cols; ++j) {
            if (valid[i][j]) total += cell[i][j];
          }
        }
        break;
    }
    return total;
  };
  std::vector<Field> fields;
  fields.push_back(counts.schema().field(0));
  for (size_t c = 1; c < cols; ++c) {
    fields.push_back(
        Field{counts.schema().field(c).name, DataType::kDouble});
  }
  DDGMS_ASSIGN_OR_RETURN(Schema schema, Schema::Make(std::move(fields)));
  Table out(std::move(schema));
  for (size_t r = 0; r < rows; ++r) {
    Row row;
    row.push_back(counts.column(0).GetValue(r));
    for (size_t c = 0; c + 1 < cols; ++c) {
      double denom = denominator(r, c);
      if (!valid[r][c] || denom <= 0.0) {
        row.push_back(Value::Null());
      } else {
        row.push_back(Value::Real(cell[r][c] / denom));
      }
    }
    DDGMS_RETURN_IF_ERROR(out.AppendRow(row));
  }
  return out;
}

Result<std::vector<Cube::RankedCell>> Cube::TopCells(
    size_t k, size_t measure_index, bool largest) const {
  if (measure_index >= query().measures.size()) {
    return Status::OutOfRange("measure index out of range");
  }
  std::vector<RankedCell> ranked;
  ranked.reserve(data_->cells.size());
  for (const auto& [coord, cell] : data_->cells) {
    if (measure_index >= cell.accumulators.size()) continue;
    Result<double> v = cell.accumulators[measure_index].Finish().AsDouble();
    if (!v.ok()) continue;
    ranked.push_back(RankedCell{coord, *v, cell.fact_count()});
  }
  auto better = [largest](const RankedCell& a, const RankedCell& b) {
    if (a.value != b.value) {
      return largest ? a.value > b.value : a.value < b.value;
    }
    // Deterministic tie-break on coordinates.
    for (size_t i = 0; i < a.coordinates.size(); ++i) {
      int c = a.coordinates[i].Compare(b.coordinates[i]);
      if (c != 0) return c < 0;
    }
    return false;
  };
  std::sort(ranked.begin(), ranked.end(), better);
  if (ranked.size() > k) ranked.resize(k);
  return ranked;
}

uint64_t Cube::ApproxBytes() const {
  uint64_t bytes = 0;
  // Per cell: its hash-map node (bucket pointer, hash, vectors) and its
  // entry in the first-touch order.
  constexpr uint64_t kCellOverhead = sizeof(Cell) + 5 * sizeof(void*);
  for (const auto& [coord, cell] : data_->cells) {
    bytes += kCellOverhead;
    for (const Value& v : coord) bytes += ValueApproxBytes(v);
    for (const Accumulator& acc : cell.accumulators) {
      bytes += acc.ApproxBytes();
    }
  }
  for (const std::vector<Value>& members : data_->axis_members) {
    for (const Value& v : members) bytes += ValueApproxBytes(v);
  }
  bytes += data_->member_ids.size() * sizeof(int32_t);
  return bytes;
}

Result<Cube> CubeEngine::Execute(const CubeQuery& query,
                                 PlanNode* parent) const {
  Stage stage(parent, "olap.cube.execute", "ddgms.olap.execute_latency_us");
  return Execute(query, &stage);
}

Result<Cube> CubeEngine::Execute(const CubeQuery& query,
                                 Stage* stage) const {
  return Compute(query, nullptr, stage);
}

bool CubeEngine::CanExtend(const Cube& cube) const {
  const Cube::Data& data = *cube.data_;
  return warehouse_ != nullptr && data.warehouse == warehouse_ &&
         !data.derived && data.lineage == warehouse_->lineage() &&
         !CountsDistinct(data.query);
}

Result<Cube> CubeEngine::Extend(const Cube& cube, PlanNode* parent) const {
  if (!CanExtend(cube)) {
    return Status::FailedPrecondition("cube cannot roll forward: " +
                                      cube.query().ToString());
  }
  Stage stage(parent, "olap.cube.execute", "ddgms.olap.execute_latency_us");
  return Compute(cube.query(), cube.data_.get(), &stage);
}

Result<Cube> CubeEngine::Compute(const CubeQuery& query,
                                 const Cube::Data* base,
                                 Stage* stage) const {
  if (warehouse_ == nullptr) {
    return Status::InvalidArgument("CubeEngine has no warehouse");
  }
  if (query.measures.empty()) {
    return Status::InvalidArgument("cube query needs >= 1 measure");
  }

  const Table& fact = warehouse_->fact();
  ScanInput scan;
  scan.first_row = base == nullptr ? 0 : base->fact_rows;
  scan.rows = fact.num_rows();

  stage->SetAttribute("axes", query.axes.size());
  stage->SetAttribute("slicers", query.slicers.size());
  stage->SetAttribute("measures", query.measures.size());
  stage->SetAttribute("fact_rows", fact.num_rows());
  if (base != nullptr) stage->SetAttribute("from_row", scan.first_row);
  // The engine's stages bill this pool; its own node, opened outside
  // it, does not count their bytes again.
  ScopedAccounting accounting("olap.cube");
  PlanNode* plan = stage->node();
  if (plan != nullptr) plan->rows_in = scan.rows - scan.first_row;

  // One stage at a time: emplacing the next ends the last, so each
  // stage's span closes before its sibling's opens.
  std::optional<Stage> step;
  step.emplace(plan, "olap.cube.resolve_axes");
  // Resolve axes: read the attribute's codes at rest, map each
  // surrogate key to its member id on the axis (-1 = outside a member
  // restriction) and give the axis its mixed-radix place value. An
  // unrestricted axis's member ids are the codes themselves.
  uint64_t cell_space = 1;
  std::vector<ResolvedAxis> axes(query.axes.size());
  for (size_t a = 0; a < query.axes.size(); ++a) {
    const AxisSpec& spec = query.axes[a];
    DDGMS_ASSIGN_OR_RETURN(const Dimension* dim,
                           warehouse_->dimension(spec.dimension));
    if (!dim->HasAttribute(spec.attribute)) {
      return Status::NotFound("dimension '" + spec.dimension +
                              "' has no attribute '" + spec.attribute +
                              "'");
    }
    DDGMS_ASSIGN_OR_RETURN(
        const ColumnVector* key_col,
        fact.ColumnByName(Warehouse::KeyColumnName(spec.dimension)));
    DDGMS_ASSIGN_OR_RETURN(const ColumnVector* attr_col,
                           dim->table().ColumnByName(spec.attribute));
    DDGMS_ASSIGN_OR_RETURN(const warehouse::AttributeCodes* codes,
                           dim->Codes(spec.attribute));
    ResolvedAxis& axis = axes[a];
    axis.column = attr_col;
    axis.restriction = DistinctMembers(spec.members);
    const int32_t* member_of_key = codes->code_of_key().data();
    if (axis.restriction.empty()) {
      axis.first_key = codes->first_key();
    } else {
      std::vector<int32_t> member_of_code(codes->num_codes(), -1);
      for (size_t m = 0; m < axis.restriction.size(); ++m) {
        const int32_t code = codes->Find(axis.restriction[m]);
        if (code >= 0) {
          member_of_code[static_cast<size_t>(code)] = static_cast<int32_t>(m);
        }
      }
      axis.restricted.reserve(codes->code_of_key().size());
      for (int32_t code : codes->code_of_key()) {
        axis.restricted.push_back(member_of_code[static_cast<size_t>(code)]);
      }
      member_of_key = axis.restricted.data();
    }
    axis.stride = cell_space;
    if (__builtin_mul_overflow(cell_space, axis.num_members(),
                               &cell_space)) {
      return Status::InvalidArgument(
          "cube query has more cells than a 64-bit index can address: " +
          query.ToString());
    }
    scan.axes.push_back(
        ScanAxis{key_col->ints().data(), member_of_key, axis.stride});
  }
  step->Stop();
  if (PlanNode* node = step->node()) {
    node->rows_in = query.axes.size();
    uint64_t members = 0;
    for (const ResolvedAxis& a : axes) members += a.num_members();
    node->rows_out = members;
  }

  step.emplace(plan, "olap.cube.resolve_slicers");
  // Resolve slicers into per-surrogate-key admission flags: look up
  // only the listed values, then read the codes at rest.
  for (const SlicerSpec& spec : query.slicers) {
    DDGMS_ASSIGN_OR_RETURN(const Dimension* dim,
                           warehouse_->dimension(spec.dimension));
    DDGMS_ASSIGN_OR_RETURN(const warehouse::AttributeCodes* codes,
                           dim->Codes(spec.attribute));
    DDGMS_ASSIGN_OR_RETURN(
        const ColumnVector* key_col,
        fact.ColumnByName(Warehouse::KeyColumnName(spec.dimension)));
    std::vector<uint8_t> admit_code(codes->num_codes(), 0);
    for (const Value& v : spec.values) {
      const int32_t code = codes->Find(v);
      if (code >= 0) admit_code[static_cast<size_t>(code)] = 1;
    }
    ScanSlicer slicer;
    slicer.keys = key_col->ints();
    slicer.admit.reserve(codes->code_of_key().size());
    for (int32_t code : codes->code_of_key()) {
      slicer.admit.push_back(admit_code[static_cast<size_t>(code)]);
    }
    scan.slicers.push_back(std::move(slicer));
  }
  step->Stop();
  if (PlanNode* node = step->node()) {
    node->rows_in = query.slicers.size();
    uint64_t admitted = 0;
    for (const ScanSlicer& s : scan.slicers) {
      for (uint8_t a : s.admit) admitted += a;
    }
    node->rows_out = admitted;
  }

  // Resolve measures: a count reads only its cells' row counts, an
  // int64 or double column under the other sum-family functions is
  // summed from its typed arrays, and the rest stay boxed.
  std::vector<MeasureSource> sources;
  sources.reserve(query.measures.size());
  for (const AggSpec& spec : query.measures) {
    if (spec.column.empty()) {
      if (spec.fn != AggFn::kCount) {
        return Status::InvalidArgument(
            StrFormat("measure %s needs a column", AggFnName(spec.fn)));
      }
      sources.push_back({MeasureSource::Kind::kRows, 0});
      continue;
    }
    DDGMS_ASSIGN_OR_RETURN(const ColumnVector* col,
                           fact.ColumnByName(spec.column));
    const bool typed_fn = spec.fn != AggFn::kMin && spec.fn != AggFn::kMax &&
                          spec.fn != AggFn::kCountDistinct;
    if (spec.fn == AggFn::kCount) {
      sources.push_back({MeasureSource::Kind::kRows, 0});
    } else if (typed_fn && col->type() == DataType::kInt64) {
      sources.push_back({MeasureSource::Kind::kTyped, scan.typed.size()});
      scan.typed.push_back(TypedMeasure{col->validity(), col->ints(), {}});
    } else if (typed_fn && col->type() == DataType::kDouble) {
      sources.push_back({MeasureSource::Kind::kTyped, scan.typed.size()});
      scan.typed.push_back(TypedMeasure{col->validity(), {}, col->doubles()});
    } else {
      sources.push_back({MeasureSource::Kind::kBoxed, scan.boxed.size()});
      scan.boxed.push_back(BoxedMeasure{spec.fn, col});
    }
  }

  auto data = std::make_shared<Cube::Data>();
  data->warehouse = warehouse_;
  data->generation = warehouse_->generation();
  data->lineage = warehouse_->lineage();
  data->fact_rows = scan.rows;
  data->query = query;
  step.emplace(plan, "olap.cube.scan");
  CellSlots slots(cell_space, scan);
  if (base != nullptr) {
    // Roll forward: open the base's cells first, in its first-touch
    // order and holding its state, so the scan of the appended rows
    // continues each running sum and numbers new cells as a scan of
    // every row would. Member ids hold along the append chain; only the
    // strides grow with the member counts.
    const int32_t* ids = base->member_ids.data();
    for (const Cube::CellMap::value_type* entry : base->order) {
      const Cube::Cell& cell = entry->second;
      uint64_t index = 0;
      for (const ResolvedAxis& axis : axes) {
        index += static_cast<uint64_t>(*ids++) * axis.stride;
      }
      const size_t slot = slots.Seed(index, cell.fact_count());
      for (size_t m = 0; m < sources.size(); ++m) {
        const Accumulator& acc = cell.accumulators[m];
        if (sources[m].kind == MeasureSource::Kind::kTyped) {
          slots.typed(slot)[sources[m].index] =
              TypedPartial{acc.valid(), acc.sum(), acc.sum_sq()};
        } else if (sources[m].kind == MeasureSource::Kind::kBoxed) {
          slots.boxed(slot)[sources[m].index] = acc;
        }
      }
    }
    data->facts_aggregated = base->facts_aggregated;
  }
  const size_t admitted = Scan(scan, &slots);
  data->facts_aggregated += admitted;
  step->Stop();
  const char* slot_kind = slots.dense() ? "dense" : "hashed";
  if (PlanNode* node = step->node()) {
    node->rows_in = scan.rows - scan.first_row;
    node->rows_out = admitted;
    node->AddProp("slots", slot_kind);
    node->AddProp("groups", static_cast<uint64_t>(slots.size()));
  }

  step.emplace(plan, "olap.cube.materialize");
  // Materialize: decode each touched cell's packed index into member
  // ids, box its coordinates once and fold its partials into the
  // accumulators the cube keeps, where navigation can merge them.
  const size_t num_axes = axes.size();
  auto member_id = [&](uint64_t cell, size_t a) {
    return static_cast<size_t>(cell / axes[a].stride %
                               axes[a].num_members());
  };
  std::vector<std::vector<uint8_t>> seen(num_axes);
  for (size_t a = 0; a < num_axes; ++a) {
    seen[a].assign(axes[a].num_members(), 0);
  }
  for (size_t slot = 0; slot < slots.size(); ++slot) {
    for (size_t a = 0; a < num_axes; ++a) {
      seen[a][member_id(slots.cell(slot), a)] = 1;
    }
  }
  // Member Values: a restriction's own spelling, else the attribute at
  // the member's first surrogate key (boxed only for seen members).
  std::vector<std::vector<Value>> members(num_axes);
  for (size_t a = 0; a < num_axes; ++a) {
    if (!axes[a].restriction.empty()) {
      members[a] = axes[a].restriction;
      continue;
    }
    members[a].resize(axes[a].num_members());
    for (size_t m = 0; m < members[a].size(); ++m) {
      if (seen[a][m] != 0) {
        members[a][m] = axes[a].column->GetValue(axes[a].first_key[m]);
      }
    }
  }

  const size_t width = query.measures.size();
  data->cells.reserve(slots.size());
  data->order.reserve(slots.size());
  data->member_ids.reserve(slots.size() * num_axes);
  for (size_t slot = 0; slot < slots.size(); ++slot) {
    Cube::Cell cell;
    cell.accumulators.reserve(width);
    for (size_t m = 0; m < width; ++m) {
      const MeasureSource& source = sources[m];
      if (source.kind == MeasureSource::Kind::kBoxed) {
        Accumulator& acc = slots.boxed(slot)[source.index];
        // A cached cube must not hold every distinct fact value.
        acc.DropDistinctValues();
        cell.accumulators.push_back(std::move(acc));
        continue;
      }
      const TypedPartial partial = source.kind == MeasureSource::Kind::kTyped
                                       ? slots.typed(slot)[source.index]
                                       : TypedPartial{};
      cell.accumulators.emplace_back(query.measures[m].fn)
          .AddPartial(slots.rows(slot), partial.valid, partial.sum,
                      partial.sum_sq);
    }
    std::vector<Value> coord;
    coord.reserve(num_axes);
    for (size_t a = 0; a < num_axes; ++a) {
      const size_t member = member_id(slots.cell(slot), a);
      data->member_ids.push_back(static_cast<int32_t>(member));
      coord.push_back(members[a][member]);
    }
    data->order.push_back(
        &*data->cells.emplace(std::move(coord), std::move(cell)).first);
  }

  data->axis_members.resize(num_axes);
  for (size_t a = 0; a < num_axes; ++a) {
    std::vector<Value>& out = data->axis_members[a];
    if (!axes[a].restriction.empty()) {
      // An explicit member list fixes the axis order (clinical band
      // labels such as "<40" do not sort lexicographically).
      for (size_t m = 0; m < members[a].size(); ++m) {
        if (seen[a][m] != 0 || !query.non_empty) {
          out.push_back(members[a][m]);
        }
      }
      continue;
    }
    for (size_t m = 0; m < members[a].size(); ++m) {
      if (seen[a][m] != 0) out.push_back(std::move(members[a][m]));
    }
    std::sort(out.begin(), out.end(), [](const Value& x, const Value& y) {
      return x.Compare(y) < 0;
    });
  }

  Cube cube(std::move(data));
  // The cube's retained footprint is the engine's materialized output;
  // charge it to the active pool ("olap.cube" here, so the materialize
  // stage's byte delta below covers it by construction).
  DDGMS_RESOURCE_CHARGE(cube.ApproxBytes());
  step->Stop();
  if (PlanNode* node = step->node()) {
    node->rows_in = slots.size();
    node->rows_out = cube.num_cells();
  }
  step.reset();
  if (plan != nullptr) {
    plan->rows_out = cube.num_cells();
    plan->AddProp("cells", static_cast<uint64_t>(cube.num_cells()));
    plan->AddProp("facts_aggregated",
                  static_cast<uint64_t>(cube.facts_aggregated()));
  }

  stage->SetAttribute("slots", slot_kind);
  stage->SetAttribute("cells", cube.num_cells());
  stage->SetAttribute("facts_aggregated", cube.facts_aggregated());
  DDGMS_LOG_DEBUG("olap.cube.execute")
      .With("axes", query.axes.size())
      .With("cells", cube.num_cells())
      .With("facts_scanned", scan.rows - scan.first_row)
      .With("facts_aggregated", cube.facts_aggregated());
  DDGMS_METRIC_INC("ddgms.olap.queries");
  DDGMS_METRIC_ADD("ddgms.olap.cells_materialized", cube.num_cells());
  DDGMS_METRIC_ADD("ddgms.olap.facts_scanned", scan.rows - scan.first_row);
  DDGMS_METRIC_ADD("ddgms.olap.facts_aggregated", cube.facts_aggregated());
  return cube;
}

}  // namespace ddgms::olap
