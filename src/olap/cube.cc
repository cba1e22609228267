#include "olap/cube.h"

#include <algorithm>
#include <bit>
#include <numeric>
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

/// Column type of a measure's values.
DataType ResultType(AggFn fn) {
  switch (fn) {
    case AggFn::kCount:
    case AggFn::kCountValid:
    case AggFn::kCountDistinct:
      return DataType::kInt64;
    default:
      return DataType::kDouble;
  }
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

/// Above this many cells (the product of the axis member counts) a
/// cell is found through a hash of its packed index instead of a dense
/// int32 array: 64Ki slots is a 256 KiB array, and the [Telemetry]
/// cube's Snapshot axis grows for as long as the server runs.
constexpr uint64_t kDenseSlotLimit = uint64_t{1} << 16;

/// Fact rows the scan takes per block. A block's buffers (a cell index,
/// a row and a slot per row: 5 KiB) stay in a 32 KiB L1 data cache
/// beside the key columns and lookup arrays the passes read; at 2048
/// rows they alone would be 40 KiB.
constexpr size_t kBlockRows = 256;

/// Count lanes: consecutive admitted rows count into different lanes,
/// so rows of one cell do not each wait for the last one's increment.
constexpr size_t kCountLanes = 4;

/// Finds a cell by its packed index: through a dense int32 array while
/// the index space holds at most kDenseSlotLimit cells, and through a
/// hash above that.
class CellIndex {
 public:
  explicit CellIndex(uint64_t space) : dense_(space <= kDenseSlotLimit) {
    if (dense_) dense_cells_.assign(space, -1);
  }

  bool dense() const { return dense_; }

  /// The cell at `key`, or -1.
  int32_t Find(uint64_t key) const {
    return dense_ ? dense_cells_[key] : FindHashed(key);
  }

  void Insert(uint64_t key, int32_t cell) {
    if (dense_) {
      dense_cells_[key] = cell;
    } else {
      hashed_.emplace(key, cell);
    }
  }

  uint64_t ApproxBytes() const {
    // A hash node holds the pair, its next pointer and a bucket.
    return dense_cells_.capacity() * sizeof(int32_t) +
           hashed_.size() * (sizeof(std::pair<uint64_t, int32_t>) +
                             2 * sizeof(void*));
  }

 private:
  __attribute__((noinline)) int32_t FindHashed(uint64_t key) const {
    auto it = hashed_.find(key);
    return it == hashed_.end() ? -1 : it->second;
  }

  bool dense_;
  std::vector<int32_t> dense_cells_;
  std::unordered_map<uint64_t, int32_t> hashed_;
};

/// What the scan sums for one typed measure over one cell's rows, in
/// row order from +0.0 (so a sum never holds -0.0).
struct TypedPartial {
  size_t valid = 0;
  double sum = 0.0;
  double sum_sq = 0.0;
};

/// Where a cell keeps one measure's state: its row count alone (count),
/// a typed partial, or a boxed accumulator.
struct MeasureSource {
  enum class Kind { kRows, kTyped, kBoxed };
  Kind kind;
  size_t index;  // into a cell's typed partials or boxed accumulators
};

/// The measure state of cells 0, 1, ...: each cell's row count, its
/// typed partials (num_typed per cell) and its boxed accumulators
/// (one per boxed measure).
struct CellState {
  std::vector<size_t> rows;
  std::vector<TypedPartial> typed;
  std::vector<Accumulator> boxed;
};

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
  const int64_t* keys;
  std::vector<uint8_t> admit;  // by surrogate key: 1 or 0
};

/// A measure the scan sums from typed arrays: an int64 or double column
/// under count_valid, sum, avg, variance or stddev.
struct TypedMeasure {
  const uint8_t* valid;
  const int64_t* ints;    // set for an int64 column
  const double* doubles;  // set for a double column
};

/// A measure fed boxed Values: min, max, count_distinct, or a column
/// type the typed path does not read.
struct BoxedMeasure {
  AggFn fn;
  const ColumnVector* column;
};

struct ScanInput {
  size_t first_row = 0;  // the rows [first_row, rows) are scanned
  size_t rows = 0;
  std::vector<ScanAxis> axes;
  std::vector<ScanSlicer> slicers;
  std::vector<TypedMeasure> typed;
  std::vector<BoxedMeasure> boxed;
};

/// The cells a scan touches, in slots numbered in first-touch order:
/// each slot's packed cell index, its count lanes and its CellState.
class CellSlots {
 public:
  CellSlots(uint64_t cell_space, const ScanInput& in)
      : index_(cell_space), num_typed_(in.typed.size()), boxed_(in.boxed) {}

  bool dense() const { return index_.dense(); }
  size_t size() const { return cell_of_slot_.size(); }
  uint64_t cell(size_t slot) const { return cell_of_slot_[slot]; }
  CellState& state() { return state_; }
  // Through data(): a query may have no typed or no boxed measure.
  TypedPartial* typed(size_t slot) {
    return state_.typed.data() + slot * num_typed_;
  }
  Accumulator* boxed(size_t slot) {
    return state_.boxed.data() + slot * boxed_.size();
  }
  uint64_t* lanes() { return lanes_.data(); }

  /// The slot of `cell`, or -1 before its first touch.
  int32_t Find(uint64_t cell) const { return index_.Find(cell); }

  /// Opens the slot of `cell` holding `rows` rows already, for a roll
  /// forward to fill with the rest of the cell's state before the scan
  /// continues it; returns the slot.
  size_t Seed(uint64_t cell, size_t rows) {
    const auto slot = static_cast<size_t>(Open(cell));
    state_.rows[slot] = rows;
    return slot;
  }

  /// Adds each slot's count lanes to its row count.
  void FoldLanes() {
    for (size_t slot = 0; slot < size(); ++slot) {
      const uint64_t* lane = lanes_.data() + slot * kCountLanes;
      state_.rows[slot] += lane[0] + lane[1] + lane[2] + lane[3];
    }
  }

  /// Opens the slot of `cell`, which has none yet; returns it. Once per
  /// cell, not per row.
  __attribute__((noinline)) int32_t Open(uint64_t cell) {
    const auto slot = static_cast<int32_t>(cell_of_slot_.size());
    index_.Insert(cell, slot);
    cell_of_slot_.push_back(cell);
    lanes_.resize(lanes_.size() + kCountLanes);
    state_.rows.push_back(0);
    state_.typed.resize(state_.typed.size() + num_typed_);
    for (const BoxedMeasure& m : boxed_) state_.boxed.emplace_back(m.fn);
    return slot;
  }

 private:
  CellIndex index_;
  const size_t num_typed_;
  const std::vector<BoxedMeasure>& boxed_;
  std::vector<uint64_t> cell_of_slot_;
  std::vector<uint64_t> lanes_;  // kCountLanes per slot
  CellState state_;
};

/// One block's admitted rows: the passes below fill `cell` and `row`,
/// then `slot`, for the first `size` of them.
struct Block {
  size_t size = 0;
  uint64_t cell[kBlockRows];
  size_t row[kBlockRows];
  uint32_t slot[kBlockRows];
};

// Pass one, once per fact row of [begin, end): writes each row's
// mixed-radix cell index and row into the block, then keeps them only
// when every slicer admits the row and every axis has a member for it.
// No branch depends on a row. `axes` has a fixed extent for the common
// cube shapes (see Scan).
template <size_t kAxes>
DDGMS_HOT void IndexRows(size_t begin, size_t end,
                         std::span<const ScanAxis, kAxes> axes,
                         std::span<const ScanSlicer> slicers, Block* block) {
  size_t n = 0;
  for (size_t row = begin; row < end; ++row) {
    uint64_t keep = 1;
    for (const ScanSlicer& s : slicers) {
      keep &= s.admit[static_cast<size_t>(s.keys[row])];
    }
    uint64_t cell = 0;
    for (const ScanAxis& axis : axes) {
      const int32_t member =
          axis.member_of_key[static_cast<size_t>(axis.keys[row])];
      keep &= static_cast<uint64_t>(member >= 0);
      // Wraps for an off-axis member, whose row is dropped anyway.
      cell += static_cast<uint64_t>(member) * axis.stride;
    }
    block->cell[n] = cell;
    block->row[n] = row;
    n += keep;
  }
  block->size = n;
}

// Pass two, once per admitted row: finds each row's slot, opening slots
// in row order, and counts the row into one of the slot's lanes,
// consecutive rows into different lanes.
DDGMS_HOT void CountRows(Block* block, CellSlots* slots) {
  uint64_t* lanes = slots->lanes();
  for (size_t i = 0; i < block->size; ++i) {
    const uint64_t cell = block->cell[i];
    int32_t slot = slots->Find(cell);
    if (slot < 0) {
      slot = slots->Open(cell);
      lanes = slots->lanes();
    }
    block->slot[i] = static_cast<uint32_t>(slot);
    ++lanes[static_cast<size_t>(slot) * kCountLanes + i % kCountLanes];
  }
}

// Once per admitted row and typed measure: continues the row's cell's
// partial for measure `t` of `num_typed`. A null adds +0.0, which leaves
// each sum's bits as they were, so no branch depends on a value.
template <typename T>
DDGMS_HOT void SumRows(const Block& block, const uint8_t* valid,
                       const T* values, size_t t, size_t num_typed,
                       TypedPartial* partials) {
  for (size_t i = 0; i < block.size; ++i) {
    const size_t row = block.row[i];
    const uint64_t is_valid = valid[row] != 0 ? 1 : 0;
    const auto v = static_cast<double>(values[row]);
    const double x =
        std::bit_cast<double>(std::bit_cast<uint64_t>(v) & (0 - is_valid));
    TypedPartial& p = partials[block.slot[i] * num_typed + t];
    p.valid += is_valid;
    p.sum += x;
    p.sum_sq += x * x;
  }
}

/// Feeds the boxed measures of a block's admitted rows, in row order.
/// Kept out of the hot passes because it boxes a Value per row and
/// measure.
void AddBoxed(const Block& block, const std::vector<BoxedMeasure>& boxed,
              CellSlots* slots) {
  for (size_t i = 0; i < block.size; ++i) {
    Accumulator* accs = slots->boxed(block.slot[i]);
    for (size_t b = 0; b < boxed.size(); ++b) {
      accs[b].Add(boxed[b].column->GetValue(block.row[i]));
    }
  }
}

// The fact scan: rows a slicer rejects or that fall outside an axis
// restriction are skipped; every other row is counted into the cell at
// its mixed-radix index and added to that cell's measures. Each cell's
// sums run over its rows in row order. Returns the number of rows
// aggregated.
template <size_t kAxes>
size_t ScanFacts(const ScanInput& in, std::span<const ScanAxis, kAxes> axes,
                 CellSlots* slots) {
  const size_t num_typed = in.typed.size();
  Block block;
  size_t admitted = 0;
  for (size_t begin = in.first_row; begin < in.rows; begin += kBlockRows) {
    IndexRows<kAxes>(begin, std::min(in.rows, begin + kBlockRows), axes,
                     in.slicers, &block);
    CountRows(&block, slots);
    for (size_t t = 0; t < num_typed; ++t) {
      const TypedMeasure& m = in.typed[t];
      if (m.ints != nullptr) {
        SumRows(block, m.valid, m.ints, t, num_typed, slots->typed(0));
      } else {
        SumRows(block, m.valid, m.doubles, t, num_typed, slots->typed(0));
      }
    }
    if (!in.boxed.empty()) AddBoxed(block, in.boxed, slots);
    admitted += block.size;
  }
  slots->FoldLanes();
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

/// Sets `strides` to the mixed-radix place values over the member
/// counts of `axes`; returns their product, or nullopt past 64 bits.
std::optional<uint64_t> PlaceValues(
    const std::vector<std::vector<Value>>& axes,
    std::vector<uint64_t>* strides) {
  uint64_t space = 1;
  strides->resize(axes.size());
  for (size_t a = 0; a < axes.size(); ++a) {
    (*strides)[a] = space;
    if (__builtin_mul_overflow(space, axes[a].size(), &space)) {
      return std::nullopt;
    }
  }
  return space;
}

Status TooManyCells(const CubeQuery& query) {
  std::string message =
      "cube query has more cells than a 64-bit index can address: ";
  message += query.ToString();
  return Status::InvalidArgument(std::move(message));
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

/// The cells in first-touch order, the order a scan first reaches
/// them: each cell's index into AxisMembers on every axis, and its
/// measure state. Navigation merges cells in this order and a roll
/// forward keeps it, so a rolled cube navigates exactly as a fresh one.
/// Every cell holds at least one fact.
struct Cube::Data {
  const Warehouse* warehouse = nullptr;
  uint64_t lineage = 0;
  /// The fact rows [0, fact_rows) the cells sum. For a cube the engine
  /// computed, each sum runs over its cell's rows in row order, so
  /// Extend can resume it. A derived cube merged its parent's sums,
  /// which resuming would not reproduce, so it never rolls forward.
  size_t fact_rows = 0;
  bool derived = false;
  CubeQuery query;
  /// Where a cell keeps each measure's state.
  std::vector<MeasureSource> sources;
  size_t num_typed = 0;
  size_t num_boxed = 0;
  /// Each axis's members, boxed once (AxisMembers), and, for a cube the
  /// engine computed, each member's id in the scan: the attribute's
  /// code, or the index in the member restriction. Both ids hold along
  /// an append chain, so Extend places a cell without hashing Values.
  std::vector<std::vector<Value>> axis_members;
  std::vector<std::vector<int32_t>> scan_ids;
  /// Cell c's member on axis a is axis_members[a][members[c * axes + a]].
  std::vector<int32_t> members;
  CellState state;
  /// Finds a cell by its members' mixed-radix index over the axes'
  /// member counts (place values in `strides`).
  std::vector<uint64_t> strides;
  CellIndex index{1};
  size_t facts_aggregated = 0;

  size_t num_cells() const { return state.rows.size(); }

  /// The index of `v` in axis_members[axis], or -1: a binary search on
  /// an unrestricted (sorted) axis, a scan of a restriction.
  int32_t FindMember(size_t axis, const Value& v) const {
    const std::vector<Value>& members = axis_members[axis];
    if (query.axes[axis].members.empty()) {
      auto it = std::lower_bound(
          members.begin(), members.end(), v,
          [](const Value& m, const Value& x) { return m.Compare(x) < 0; });
      return it != members.end() && it->Equals(v)
                 ? static_cast<int32_t>(it - members.begin())
                 : -1;
    }
    for (size_t m = 0; m < members.size(); ++m) {
      if (members[m].Equals(v)) return static_cast<int32_t>(m);
    }
    return -1;
  }

  /// The cell at `coords` (one member per axis), or -1.
  int32_t FindCell(const std::vector<Value>& coords) const {
    if (coords.size() != axis_members.size()) return -1;
    uint64_t key = 0;
    for (size_t a = 0; a < coords.size(); ++a) {
      const int32_t member = FindMember(a, coords[a]);
      if (member < 0) return -1;
      key += static_cast<uint64_t>(member) * strides[a];
    }
    return index.Find(key);
  }

  /// The cell's value of measure `m`.
  Value Measure(size_t cell, size_t m) const {
    const MeasureSource& source = sources[m];
    switch (source.kind) {
      case MeasureSource::Kind::kRows:
        return Value::Int(static_cast<int64_t>(state.rows[cell]));
      case MeasureSource::Kind::kTyped: {
        const TypedPartial& p = state.typed[cell * num_typed + source.index];
        return FinishSums(query.measures[m].fn, state.rows[cell], p.valid,
                          p.sum, p.sum_sq);
      }
      case MeasureSource::Kind::kBoxed:
        break;
    }
    return state.boxed[cell * num_boxed + source.index].Finish();
  }

  /// Appends the cell's value of measure `m` to `column`; a null for
  /// cell -1.
  Status AppendMeasure(int32_t cell, size_t m, ColumnVector* column) const {
    if (cell < 0) {
      column->AppendNull();
      return Status::OK();
    }
    const auto c = static_cast<size_t>(cell);
    if (sources[m].kind == MeasureSource::Kind::kRows) {
      column->AppendInt(static_cast<int64_t>(state.rows[c]));
      return Status::OK();
    }
    return column->Append(Measure(c, m));
  }
};

Cube::Cube() {
  // Every empty cube shares one Data, which is never freed.
  static const auto* const kEmpty =
      new std::shared_ptr<const Data>(std::make_shared<const Data>());
  data_ = *kEmpty;
}

const CubeQuery& Cube::query() const { return data_->query; }
size_t Cube::num_cells() const { return data_->num_cells(); }
size_t Cube::facts_aggregated() const { return data_->facts_aggregated; }
uint64_t Cube::lineage() const { return data_->lineage; }
size_t Cube::fact_rows() const { return data_->fact_rows; }

const std::vector<Value>& Cube::AxisMembers(size_t axis) const {
  return data_->axis_members[axis];
}

Value Cube::CellValue(const std::vector<Value>& coords,
                      size_t measure_index) const {
  const int32_t cell = data_->FindCell(coords);
  if (cell < 0 || measure_index >= num_measures()) return Value::Null();
  return data_->Measure(static_cast<size_t>(cell), measure_index);
}

size_t Cube::CellCount(const std::vector<Value>& coords) const {
  const int32_t cell = data_->FindCell(coords);
  return cell < 0 ? 0 : data_->state.rows[static_cast<size_t>(cell)];
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
         data_->warehouse->lineage() == data_->lineage &&
         data_->warehouse->num_fact_rows() == data_->fact_rows &&
         !CountsDistinct(query());
}

Result<Cube> Cube::Derive(CubeQuery query, size_t axis,
                          const std::vector<int32_t>& member_of) const {
  ScopedAccounting accounting("olap.cube");
  const Data& in = *data_;
  const bool drop_axis = query.axes.size() < num_axes();
  const size_t in_axes = num_axes();
  const size_t out_axes = query.axes.size();
  // The input axis each output axis comes from, and the members it may
  // have: a diced axis's restriction, any other axis's own.
  std::vector<size_t> from(out_axes);
  std::vector<std::vector<Value>> candidates(out_axes);
  for (size_t a = 0; a < out_axes; ++a) {
    from[a] = drop_axis && a >= axis ? a + 1 : a;
    candidates[a] = from[a] == axis
                        ? DistinctMembers(query.axes[a].members)
                        : in.axis_members[from[a]];
  }
  // The candidate index of cell c's member on output axis a, or -1 for
  // a cell left out.
  auto candidate = [&](size_t c, size_t a) {
    const int32_t m = in.members[c * in_axes + from[a]];
    return from[a] == axis ? member_of[static_cast<size_t>(m)] : m;
  };
  auto kept = [&](size_t c) {
    return member_of[static_cast<size_t>(in.members[c * in_axes + axis])] >=
           0;
  };

  // Axis members follow the engine's rule: a restricted axis lists its
  // restriction in order, hiding unseen members unless non_empty is
  // off, and an unrestricted axis lists its seen members sorted. The
  // candidates are in that order and a derived cube sees no member
  // this one did not, so keeping the seen ones is enough. `position`
  // first marks with 0 the candidates a kept cell has, then holds each
  // candidate's index in the derived axis's members (-1 if absent).
  std::vector<std::vector<int32_t>> position(out_axes);
  for (size_t a = 0; a < out_axes; ++a) {
    position[a].assign(candidates[a].size(), -1);
  }
  const size_t in_cells = in.num_cells();
  for (size_t c = 0; c < in_cells; ++c) {
    if (!kept(c)) continue;
    for (size_t a = 0; a < out_axes; ++a) {
      position[a][static_cast<size_t>(candidate(c, a))] = 0;
    }
  }
  auto out = std::make_shared<Data>();
  out->axis_members.resize(out_axes);
  for (size_t a = 0; a < out_axes; ++a) {
    const bool all = !query.axes[a].members.empty() && !query.non_empty;
    std::vector<Value>& members = out->axis_members[a];
    for (size_t m = 0; m < candidates[a].size(); ++m) {
      if (all || position[a][m] == 0) {
        position[a][m] = static_cast<int32_t>(members.size());
        members.push_back(std::move(candidates[a][m]));
      }
    }
  }
  const std::optional<uint64_t> space =
      PlaceValues(out->axis_members, &out->strides);
  if (!space) return TooManyCells(query);

  out->warehouse = in.warehouse;
  out->lineage = in.lineage;
  out->fact_rows = in.fact_rows;
  out->derived = true;
  out->query = std::move(query);
  out->sources = in.sources;
  out->num_typed = in.num_typed;
  out->num_boxed = in.num_boxed;
  out->index = CellIndex(*space);
  // Merge the kept cells in first-touch order: the first cell to land
  // on an output cell opens it with its state, and later ones add
  // theirs.
  CellState& state = out->state;
  const size_t num_typed = in.num_typed;
  const size_t num_boxed = in.num_boxed;
  for (size_t c = 0; c < in_cells; ++c) {
    if (!kept(c)) continue;
    uint64_t key = 0;
    for (size_t a = 0; a < out_axes; ++a) {
      key += static_cast<uint64_t>(
                 position[a][static_cast<size_t>(candidate(c, a))]) *
             out->strides[a];
    }
    const TypedPartial* typed = in.state.typed.data() + c * num_typed;
    const Accumulator* boxed = in.state.boxed.data() + c * num_boxed;
    const int32_t found = out->index.Find(key);
    if (found < 0) {
      out->index.Insert(key, static_cast<int32_t>(state.rows.size()));
      for (size_t a = 0; a < out_axes; ++a) {
        out->members.push_back(
            position[a][static_cast<size_t>(candidate(c, a))]);
      }
      state.rows.push_back(in.state.rows[c]);
      state.typed.insert(state.typed.end(), typed, typed + num_typed);
      state.boxed.insert(state.boxed.end(), boxed, boxed + num_boxed);
    } else {
      const auto o = static_cast<size_t>(found);
      state.rows[o] += in.state.rows[c];
      for (size_t t = 0; t < num_typed; ++t) {
        TypedPartial& p = state.typed[o * num_typed + t];
        p.valid += typed[t].valid;
        p.sum += typed[t].sum;
        p.sum_sq += typed[t].sum_sq;
      }
      for (size_t b = 0; b < num_boxed; ++b) {
        state.boxed[o * num_boxed + b].Merge(boxed[b]);
      }
    }
    out->facts_aggregated += in.state.rows[c];
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
    return Derive(std::move(q), axis,
                  std::vector<int32_t>(AxisMembers(axis).size(), 0));
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
    std::vector<int32_t> member_of(AxisMembers(*axis).size(), -1);
    if (const int32_t m = data_->FindMember(*axis, value); m >= 0) {
      member_of[static_cast<size_t>(m)] = 0;
    }
    return Derive(std::move(q), *axis, member_of);
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
    // A cell takes the first listed spelling of its member: its index
    // in the restriction without duplicates.
    const std::vector<Value> listed = DistinctMembers(values);
    const std::vector<Value>& members = AxisMembers(*axis);
    std::vector<int32_t> member_of(members.size(), -1);
    for (size_t m = 0; m < members.size(); ++m) {
      for (size_t i = 0; i < listed.size(); ++i) {
        if (listed[i].Equals(members[m])) {
          member_of[m] = static_cast<int32_t>(i);
          break;
        }
      }
    }
    return Derive(std::move(q), *axis, member_of);
  }
  span.SetAttribute("from", "warehouse");
  return CubeEngine(data_->warehouse).Execute(q);
}

Result<Table> Cube::ToTable() const {
  const Data& data = *data_;
  const size_t num_axes = this->num_axes();
  std::vector<Field> fields;
  for (size_t ax = 0; ax < num_axes; ++ax) {
    // Axis output column named after the attribute; type from members.
    fields.push_back(
        Field{query().axes[ax].attribute, MemberType(AxisMembers(ax))});
  }
  for (const AggSpec& m : query().measures) {
    fields.push_back(Field{m.OutputName(), ResultType(m.fn)});
  }
  DDGMS_ASSIGN_OR_RETURN(Schema schema, Schema::Make(std::move(fields)));
  Table out(std::move(schema));

  // Cells in sorted coordinate order for deterministic output: each
  // member's rank in its axis's sorted order (a restricted axis lists
  // its members in the restriction's order).
  std::vector<std::vector<int32_t>> rank(num_axes);
  for (size_t a = 0; a < num_axes; ++a) {
    const std::vector<Value>& members = AxisMembers(a);
    std::vector<int32_t> sorted(members.size());
    std::iota(sorted.begin(), sorted.end(), 0);
    if (!query().axes[a].members.empty()) {
      std::sort(sorted.begin(), sorted.end(), [&](int32_t x, int32_t y) {
        return members[static_cast<size_t>(x)].Compare(
                   members[static_cast<size_t>(y)]) < 0;
      });
    }
    rank[a].resize(members.size());
    for (size_t r = 0; r < sorted.size(); ++r) {
      rank[a][static_cast<size_t>(sorted[r])] = static_cast<int32_t>(r);
    }
  }
  auto member = [&](size_t cell, size_t a) {
    return static_cast<size_t>(data.members[cell * num_axes + a]);
  };
  std::vector<size_t> cells(num_cells());
  std::iota(cells.begin(), cells.end(), size_t{0});
  std::sort(cells.begin(), cells.end(), [&](size_t x, size_t y) {
    for (size_t a = 0; a < num_axes; ++a) {
      const int32_t rx = rank[a][member(x, a)];
      const int32_t ry = rank[a][member(y, a)];
      if (rx != ry) return rx < ry;
    }
    return false;
  });
  for (size_t c = 0; c < num_axes + num_measures(); ++c) {
    out.mutable_column(c)->Reserve(cells.size());
  }
  for (size_t cell : cells) {
    for (size_t a = 0; a < num_axes; ++a) {
      DDGMS_RETURN_IF_ERROR(
          out.mutable_column(a)->Append(AxisMembers(a)[member(cell, a)]));
    }
    for (size_t m = 0; m < num_measures(); ++m) {
      DDGMS_RETURN_IF_ERROR(data.AppendMeasure(
          static_cast<int32_t>(cell), m, out.mutable_column(num_axes + m)));
    }
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
  const Data& data = *data_;
  const std::vector<Value>& rows = AxisMembers(row_axis);
  const std::vector<Value>& cols = AxisMembers(col_axis);
  const DataType measure_type = ResultType(query().measures[measure_index].fn);
  std::vector<Field> fields;
  fields.push_back(
      Field{query().axes[row_axis].attribute, MemberType(rows)});
  for (const Value& c : cols) {
    fields.push_back(Field{c.ToString(), measure_type});
  }
  DDGMS_ASSIGN_OR_RETURN(Schema schema, Schema::Make(std::move(fields)));
  Table out(std::move(schema));

  // The cell at each (row member, column member), -1 where none is.
  std::vector<int32_t> grid(rows.size() * cols.size(), -1);
  for (size_t cell = 0; cell < num_cells(); ++cell) {
    const auto r = static_cast<size_t>(data.members[cell * 2 + row_axis]);
    const auto c = static_cast<size_t>(data.members[cell * 2 + col_axis]);
    grid[r * cols.size() + c] = static_cast<int32_t>(cell);
  }
  for (size_t c = 0; c <= cols.size(); ++c) {
    out.mutable_column(c)->Reserve(rows.size());
  }
  for (size_t r = 0; r < rows.size(); ++r) {
    DDGMS_RETURN_IF_ERROR(out.mutable_column(0)->Append(rows[r]));
    for (size_t c = 0; c < cols.size(); ++c) {
      DDGMS_RETURN_IF_ERROR(data.AppendMeasure(grid[r * cols.size() + c],
                                               measure_index,
                                               out.mutable_column(1 + c)));
    }
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
  const Data& data = *data_;
  const size_t num_axes = this->num_axes();
  std::vector<RankedCell> ranked;
  ranked.reserve(num_cells());
  for (size_t cell = 0; cell < num_cells(); ++cell) {
    Result<double> v = data.Measure(cell, measure_index).AsDouble();
    if (!v.ok()) continue;
    RankedCell& out = ranked.emplace_back();
    out.coordinates.reserve(num_axes);
    for (size_t a = 0; a < num_axes; ++a) {
      out.coordinates.push_back(AxisMembers(a)[static_cast<size_t>(
          data.members[cell * num_axes + a])]);
    }
    out.value = *v;
    out.fact_count = data.state.rows[cell];
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
  const Data& data = *data_;
  uint64_t bytes = data.members.size() * sizeof(int32_t) +
                   data.state.rows.size() * sizeof(size_t) +
                   data.state.typed.size() * sizeof(TypedPartial) +
                   data.index.ApproxBytes();
  for (const Accumulator& acc : data.state.boxed) bytes += acc.ApproxBytes();
  for (const std::vector<Value>& members : data.axis_members) {
    for (const Value& v : members) bytes += ValueApproxBytes(v);
  }
  for (const std::vector<int32_t>& ids : data.scan_ids) {
    bytes += ids.size() * sizeof(int32_t);
  }
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
      return TooManyCells(query);
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
    slicer.keys = key_col->ints().data();
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
      scan.typed.push_back(TypedMeasure{col->validity().data(),
                                        col->ints().data(), nullptr});
    } else if (typed_fn && col->type() == DataType::kDouble) {
      sources.push_back({MeasureSource::Kind::kTyped, scan.typed.size()});
      scan.typed.push_back(TypedMeasure{col->validity().data(), nullptr,
                                        col->doubles().data()});
    } else {
      sources.push_back({MeasureSource::Kind::kBoxed, scan.boxed.size()});
      scan.boxed.push_back(BoxedMeasure{spec.fn, col});
    }
  }

  auto data = std::make_shared<Cube::Data>();
  data->warehouse = warehouse_;
  data->lineage = warehouse_->lineage();
  data->fact_rows = scan.rows;
  data->query = query;
  data->sources = std::move(sources);
  data->num_typed = scan.typed.size();
  data->num_boxed = scan.boxed.size();
  step.emplace(plan, "olap.cube.scan");
  CellSlots slots(cell_space, scan);
  const size_t num_axes = axes.size();
  if (base != nullptr) {
    // Roll forward: open the base's cells first, in its first-touch
    // order and holding its state, so the scan of the appended rows
    // continues each running sum and numbers new cells as a scan of
    // every row would. Member ids hold along the append chain; only the
    // strides grow with the member counts.
    for (size_t c = 0; c < base->num_cells(); ++c) {
      uint64_t index = 0;
      for (size_t a = 0; a < num_axes; ++a) {
        const auto member =
            static_cast<size_t>(base->members[c * num_axes + a]);
        index += static_cast<uint64_t>(base->scan_ids[a][member]) *
                 axes[a].stride;
      }
      const size_t slot = slots.Seed(index, base->state.rows[c]);
      std::copy_n(base->state.typed.data() + c * base->num_typed,
                  base->num_typed, slots.typed(slot));
      std::copy_n(base->state.boxed.data() + c * base->num_boxed,
                  base->num_boxed, slots.boxed(slot));
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
  // Materialize: decode each slot's packed index into its member id on
  // each axis, box each seen member once, number the members in
  // AxisMembers order, and move the slots' state into the cube.
  const size_t num_cells = slots.size();
  std::vector<int32_t>& cell_members = data->members;
  cell_members.resize(num_cells * num_axes);
  std::vector<std::vector<uint8_t>> seen(num_axes);
  for (size_t a = 0; a < num_axes; ++a) {
    const uint64_t stride = axes[a].stride;
    const uint64_t count = axes[a].num_members();
    seen[a].assign(count, 0);
    for (size_t c = 0; c < num_cells; ++c) {
      const auto id = static_cast<size_t>(slots.cell(c) / stride % count);
      cell_members[c * num_axes + a] = static_cast<int32_t>(id);
      seen[a][id] = 1;
    }
  }
  data->axis_members.resize(num_axes);
  data->scan_ids.resize(num_axes);
  std::vector<std::vector<int32_t>> position(num_axes);
  for (size_t a = 0; a < num_axes; ++a) {
    ResolvedAxis& axis = axes[a];
    std::vector<Value>& members = data->axis_members[a];
    std::vector<int32_t>& scan_ids = data->scan_ids[a];
    if (!axis.restriction.empty()) {
      // An explicit member list fixes the axis order (clinical band
      // labels such as "<40" do not sort lexicographically).
      for (size_t m = 0; m < axis.restriction.size(); ++m) {
        if (seen[a][m] != 0 || !query.non_empty) {
          members.push_back(std::move(axis.restriction[m]));
          scan_ids.push_back(static_cast<int32_t>(m));
        }
      }
    } else {
      // The attribute at each seen code's first surrogate key, sorted.
      std::vector<Value> by_code(seen[a].size());
      for (size_t m = 0; m < seen[a].size(); ++m) {
        if (seen[a][m] == 0) continue;
        by_code[m] = axis.column->GetValue(axis.first_key[m]);
        scan_ids.push_back(static_cast<int32_t>(m));
      }
      std::sort(scan_ids.begin(), scan_ids.end(),
                [&by_code](int32_t x, int32_t y) {
                  return by_code[static_cast<size_t>(x)].Compare(
                             by_code[static_cast<size_t>(y)]) < 0;
                });
      members.reserve(scan_ids.size());
      for (int32_t id : scan_ids) {
        members.push_back(std::move(by_code[static_cast<size_t>(id)]));
      }
    }
    position[a].assign(axis.num_members(), -1);
    for (size_t m = 0; m < scan_ids.size(); ++m) {
      position[a][static_cast<size_t>(scan_ids[m])] =
          static_cast<int32_t>(m);
    }
  }
  // Every member index fits: the members are at most the scan's.
  const uint64_t space = *PlaceValues(data->axis_members, &data->strides);
  data->index = CellIndex(space);
  for (size_t c = 0; c < num_cells; ++c) {
    uint64_t key = 0;
    for (size_t a = 0; a < num_axes; ++a) {
      int32_t& member = cell_members[c * num_axes + a];
      member = position[a][static_cast<size_t>(member)];
      key += static_cast<uint64_t>(member) * data->strides[a];
    }
    data->index.Insert(key, static_cast<int32_t>(c));
  }
  data->state = std::move(slots.state());
  // A cached cube must not hold every distinct fact value.
  for (Accumulator& acc : data->state.boxed) acc.DropDistinctValues();

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
