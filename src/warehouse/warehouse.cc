#include "warehouse/warehouse.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <limits>
#include <unordered_map>
#include <utility>

#include "common/csv.h"
#include "common/faults.h"
#include "common/log.h"
#include "common/metrics.h"
#include "common/resource.h"
#include "common/strings.h"
#include "common/trace.h"

namespace ddgms::warehouse {

namespace {

/// True if a column of type `to` can hold a non-null `from` value, as
/// ColumnVector::Append allows: the same type, or int64 into double.
bool Holds(DataType to, DataType from) {
  return from == to || (to == DataType::kDouble && from == DataType::kInt64);
}

Status CannotHold(DataType from, const ColumnVector& to) {
  return Status::InvalidArgument(
      StrFormat("cannot append %s value to %s column '%s'",
                DataTypeName(from), DataTypeName(to.type()),
                to.name().c_str()));
}

}  // namespace

uint64_t NextWarehouseLineage() {
  static std::atomic<uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

size_t MemberIndex::HashRow(Columns cols, size_t row) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const ColumnVector* col : cols) {
    h = (h ^ col->HashAt(row)) * 0x100000001b3ULL;
  }
  return h ^ (h >> 29);
}

int64_t MemberIndex::Find(Columns members, Columns probe, size_t row,
                          size_t hash) const {
  if (slots_.empty()) return -1;
  const size_t mask = slots_.size() - 1;
  for (size_t s = hash & mask;; s = (s + 1) & mask) {
    if (slots_[s] == 0) return -1;
    const size_t key = slots_[s] - 1;
    bool equal = true;
    for (size_t a = 0; a < members.size() && equal; ++a) {
      equal = members[a]->EqualsAt(key, *probe[a], row);
    }
    if (equal) return static_cast<int64_t>(key);
  }
}

void MemberIndex::Insert(Columns members, size_t key, size_t hash) {
  assert(key + 1 < std::numeric_limits<uint32_t>::max());
  // Linear probing at most half full: a miss ends within a few slots.
  if (2 * (size_ + 1) > slots_.size()) {
    std::vector<uint32_t> old = std::move(slots_);
    slots_.assign(std::max<size_t>(16, 2 * old.size()), 0);
    const size_t mask = slots_.size() - 1;
    for (uint32_t slot : old) {
      if (slot == 0) continue;
      size_t s = HashRow(members, slot - 1) & mask;
      while (slots_[s] != 0) s = (s + 1) & mask;
      slots_[s] = slot;
    }
  }
  const size_t mask = slots_.size() - 1;
  size_t s = hash & mask;
  while (slots_[s] != 0) s = (s + 1) & mask;
  slots_[s] = static_cast<uint32_t>(key + 1);
  ++size_;
}

namespace {

/// The key `numbers_` holds for a non-null `v` of a column of type
/// `type`, or nullopt when `v` never equals that column's values.
std::optional<uint64_t> NumberKey(DataType type, const Value& v) {
  switch (type) {
    case DataType::kInt64:
    case DataType::kDouble:
      if (v.type() == DataType::kInt64) {
        return NumericKey(static_cast<double>(v.int_value()));
      }
      if (v.type() == DataType::kDouble) return NumericKey(v.double_value());
      return std::nullopt;
    case DataType::kBool:
      if (v.type() != DataType::kBool) return std::nullopt;
      return uint64_t{v.bool_value() ? 1u : 0u};
    case DataType::kDate:
      if (v.type() != DataType::kDate) return std::nullopt;
      return static_cast<uint64_t>(v.date_value().days_since_epoch());
    case DataType::kString:
    case DataType::kNull:
      break;
  }
  return std::nullopt;
}

/// NumberKey of the non-null row `row` of `col`, read from its typed
/// storage.
uint64_t NumberKeyAt(const ColumnVector& col, size_t row) {
  switch (col.type()) {
    case DataType::kInt64:
      return NumericKey(static_cast<double>(col.ints()[row]));
    case DataType::kDouble:
      return NumericKey(col.doubles()[row]);
    case DataType::kBool:
      return uint64_t{col.bools()[row]};
    case DataType::kDate:
      return static_cast<uint64_t>(col.dates()[row]);
    case DataType::kString:
    case DataType::kNull:
      break;
  }
  return 0;
}

}  // namespace

void AttributeCodes::Extend(const ColumnVector& col) {
  type_ = col.type();
  const std::span<const uint8_t> valid = col.validity();
  const size_t from = code_of_key_.size();
  code_of_key_.resize(valid.size());
  for (size_t key = from; key < valid.size(); ++key) {
    const auto next = static_cast<int32_t>(first_key_.size());
    int32_t code = next;
    if (valid[key] == 0) {
      if (null_code_ < 0) null_code_ = next;
      code = null_code_;
    } else if (type_ == DataType::kString) {
      code = strings_.try_emplace(col.strings()[key], next).first->second;
    } else {
      code = numbers_.try_emplace(NumberKeyAt(col, key), next).first->second;
    }
    if (code == next) first_key_.push_back(key);
    code_of_key_[key] = code;
  }
}

int32_t AttributeCodes::Find(const Value& v) const {
  if (v.is_null()) return null_code_;
  if (type_ == DataType::kString) {
    if (v.type() != DataType::kString) return -1;
    auto it = strings_.find(v.string_value());
    return it == strings_.end() ? -1 : it->second;
  }
  const std::optional<uint64_t> key = NumberKey(type_, v);
  if (!key) return -1;
  auto it = numbers_.find(*key);
  return it == numbers_.end() ? -1 : it->second;
}

Dimension::CodeCache& Dimension::CodeCache::operator=(
    CodeCache other) noexcept {
  Slots taken = other.Take();
  MutexLock lock(mu_);
  by_column_ = std::move(taken);
  return *this;
}

const AttributeCodes& Dimension::CodeCache::Get(const Table& members,
                                                size_t column) const {
  MutexLock lock(mu_);
  if (by_column_.size() <= column) by_column_.resize(column + 1);
  std::unique_ptr<AttributeCodes>& codes = by_column_[column];
  if (codes == nullptr) {
    codes = std::make_unique<AttributeCodes>();
    codes->Extend(members.column(column));
  }
  assert(codes->code_of_key().size() == members.num_rows());  // not stale
  return *codes;
}

void Dimension::CodeCache::Extend(const Table& members) {
  MutexLock lock(mu_);
  for (size_t c = 0; c < by_column_.size(); ++c) {
    if (by_column_[c] != nullptr) by_column_[c]->Extend(members.column(c));
  }
}

Dimension::CodeCache::Slots Dimension::CodeCache::Clone() const {
  MutexLock lock(mu_);
  Slots out(by_column_.size());
  for (size_t c = 0; c < by_column_.size(); ++c) {
    if (by_column_[c] != nullptr) {
      out[c] = std::make_unique<AttributeCodes>(*by_column_[c]);
    }
  }
  return out;
}

Dimension::CodeCache::Slots Dimension::CodeCache::Take() {
  MutexLock lock(mu_);
  return std::exchange(by_column_, Slots());
}

Result<Value> Dimension::AttributeValue(int64_t key,
                                        const std::string& attribute) const {
  if (key < 0 || static_cast<size_t>(key) >= table_.num_rows()) {
    return Status::OutOfRange(
        StrFormat("key %lld out of range for dimension '%s' (%zu members)",
                  static_cast<long long>(key), name().c_str(),
                  table_.num_rows()));
  }
  return table_.GetCell(static_cast<size_t>(key), attribute);
}

bool Dimension::HasAttribute(const std::string& attribute) const {
  return table_.schema().HasField(attribute);
}

const Hierarchy* Dimension::HierarchyOf(const std::string& attribute) const {
  for (const Hierarchy& h : def_.hierarchies) {
    for (const std::string& level : h.levels) {
      if (level == attribute) return &h;
    }
  }
  return nullptr;
}

Result<std::string> Dimension::FinerLevel(
    const std::string& attribute) const {
  const Hierarchy* h = HierarchyOf(attribute);
  if (h == nullptr) {
    return Status::NotFound("attribute '" + attribute +
                            "' is not in a hierarchy of dimension '" +
                            name() + "'");
  }
  for (size_t i = 0; i + 1 < h->levels.size(); ++i) {
    if (h->levels[i] == attribute) return h->levels[i + 1];
  }
  return Status::NotFound("attribute '" + attribute +
                          "' is the finest level of hierarchy '" + h->name +
                          "'");
}

Result<std::string> Dimension::CoarserLevel(
    const std::string& attribute) const {
  const Hierarchy* h = HierarchyOf(attribute);
  if (h == nullptr) {
    return Status::NotFound("attribute '" + attribute +
                            "' is not in a hierarchy of dimension '" +
                            name() + "'");
  }
  for (size_t i = 1; i < h->levels.size(); ++i) {
    if (h->levels[i] == attribute) return h->levels[i - 1];
  }
  return Status::NotFound("attribute '" + attribute +
                          "' is the coarsest level of hierarchy '" +
                          h->name + "'");
}

Result<std::vector<const ColumnVector*>> Dimension::AttributeColumns()
    const {
  std::vector<const ColumnVector*> cols;
  cols.reserve(def_.attributes.size());
  for (const std::string& attr : def_.attributes) {
    DDGMS_ASSIGN_OR_RETURN(const ColumnVector* col,
                           table_.ColumnByName(attr));
    cols.push_back(col);
  }
  return cols;
}

Result<const AttributeCodes*> Dimension::Codes(
    const std::string& attribute) const {
  DDGMS_ASSIGN_OR_RETURN(size_t column, table_.schema().FieldIndex(attribute));
  return &codes_.Get(table_, column);
}

MemberIndex& Dimension::EnsureIndex(MemberIndex::Columns members) {
  if (index_) return *index_;
  MemberIndex& index = index_.emplace();
  for (size_t key = 0; key < num_members(); ++key) {
    const size_t hash = MemberIndex::HashRow(members, key);
    // A table read from disk may repeat a tuple; its first key wins.
    if (index.Find(members, members, key, hash) < 0) {
      index.Insert(members, key, hash);
    }
  }
  return index;
}

std::string IntegrityReport::ToString() const {
  std::string out = StrFormat("integrity: %s (%zu fact rows)",
                              ok ? "OK" : "VIOLATIONS", fact_rows);
  for (const std::string& v : violations) {
    out += "\n  " + v;
  }
  return out;
}

Result<const Dimension*> Warehouse::dimension(
    const std::string& name) const {
  for (const Dimension& d : dimensions_) {
    if (d.name() == name) return &d;
  }
  return Status::NotFound("no dimension named '" + name + "'");
}

Result<int64_t> Warehouse::FactKey(size_t fact_row,
                                   const std::string& dimension_name) const {
  DDGMS_ASSIGN_OR_RETURN(const ColumnVector* col,
                         fact_.ColumnByName(KeyColumnName(dimension_name)));
  if (fact_row >= col->size()) {
    return Status::OutOfRange(StrFormat("fact row %zu out of range",
                                        fact_row));
  }
  return col->IntAt(fact_row);
}

Result<const Dimension*> Warehouse::DimensionOfAttribute(
    const std::string& attribute) const {
  for (const Dimension& d : dimensions_) {
    if (d.HasAttribute(attribute)) return &d;
  }
  return Status::NotFound("no dimension declares attribute '" + attribute +
                          "'");
}

Result<Table> Warehouse::JoinedView(
    const std::vector<std::string>& attributes) const {
  // Resolve each attribute to (dimension, key column).
  struct Source {
    const Dimension* dim;
    const ColumnVector* key_col;
    const ColumnVector* attr_col;
  };
  std::vector<Source> sources;
  sources.reserve(attributes.size());
  std::vector<Field> fields;
  for (const std::string& attr : attributes) {
    DDGMS_ASSIGN_OR_RETURN(const Dimension* dim,
                           DimensionOfAttribute(attr));
    DDGMS_ASSIGN_OR_RETURN(const ColumnVector* key_col,
                           fact_.ColumnByName(KeyColumnName(dim->name())));
    DDGMS_ASSIGN_OR_RETURN(const ColumnVector* attr_col,
                           dim->table().ColumnByName(attr));
    sources.push_back(Source{dim, key_col, attr_col});
    fields.push_back(Field{attr, attr_col->type()});
  }
  std::vector<const ColumnVector*> measure_cols;
  for (const MeasureDef& m : def_.measures) {
    DDGMS_ASSIGN_OR_RETURN(const ColumnVector* col,
                           fact_.ColumnByName(m.name));
    measure_cols.push_back(col);
    fields.push_back(Field{m.name, col->type()});
  }
  DDGMS_ASSIGN_OR_RETURN(Schema schema, Schema::Make(std::move(fields)));
  Table out(std::move(schema));
  const size_t n = fact_.num_rows();
  for (size_t i = 0; i < n; ++i) {
    Row row;
    row.reserve(sources.size() + measure_cols.size());
    for (const Source& src : sources) {
      int64_t key = src.key_col->IntAt(i);
      row.push_back(src.attr_col->GetValue(static_cast<size_t>(key)));
    }
    for (const ColumnVector* col : measure_cols) {
      row.push_back(col->GetValue(i));
    }
    DDGMS_RETURN_IF_ERROR(out.AppendRow(row));
  }
  return out;
}

Status Warehouse::AddFeedbackDimension(
    const std::string& dimension_name, const std::string& attribute,
    const std::function<Value(const Warehouse&, size_t fact_row)>&
        labeler) {
  if (dimension(dimension_name).ok()) {
    return Status::AlreadyExists("dimension '" + dimension_name +
                                 "' already exists");
  }
  // Label every fact row, deduplicating labels into members.
  std::unordered_map<Value, int64_t, ValueHash, ValueEq> member_keys;
  std::vector<Value> members;
  ColumnVector key_col(KeyColumnName(dimension_name), DataType::kInt64);
  const size_t n = fact_.num_rows();
  DataType label_type = DataType::kString;
  for (size_t i = 0; i < n; ++i) {
    Value label = labeler(*this, i);
    if (!label.is_null()) label_type = label.type();
    auto [it, inserted] =
        member_keys.emplace(label, static_cast<int64_t>(members.size()));
    if (inserted) members.push_back(label);
    key_col.AppendInt(it->second);
  }

  DDGMS_ASSIGN_OR_RETURN(Schema dim_schema,
                         Schema::Make({Field{attribute, label_type}}));
  Table dim_table(std::move(dim_schema));
  for (const Value& m : members) {
    DDGMS_RETURN_IF_ERROR(dim_table.AppendRow({m}));
  }
  DimensionDef dim_def;
  dim_def.name = dimension_name;
  dim_def.attributes = {attribute};
  DDGMS_RETURN_IF_ERROR(fact_.AddColumn(std::move(key_col)));
  dimensions_.emplace_back(std::move(dim_def), std::move(dim_table));
  def_.dimensions.push_back(dimensions_.back().def());
  lineage_.Renew();
  return Status::OK();
}

Status Warehouse::AppendRows(const Table& source) {
  DDGMS_ASSIGN_OR_RETURN(PreparedAppend batch, PrepareAppend(source));
  CommitAppend(std::move(batch));
  return Status::OK();
}

Result<PreparedAppend> Warehouse::PrepareAppend(const Table& source) {
  DDGMS_FAULT_POINT("warehouse.append_rows");
  PreparedAppend batch;
  batch.lineage_ = lineage();
  batch.fact_rows_ = num_fact_rows();
  batch.fact_ = Table(fact_.schema());
  batch.members_.resize(dimensions_.size());

  // Resolve the source columns of every dimension attribute, measure
  // and the degenerate key, and where each lands in the fact table.
  struct DimPlan {
    std::vector<const ColumnVector*> from;     // source attribute columns
    std::vector<const ColumnVector*> members;  // member table's columns
    const MemberIndex* index = nullptr;        // over the members
    // The batch's new members, staged typed like the member table.
    std::vector<ColumnVector*> mint_to;
    std::vector<const ColumnVector*> minted;
    MemberIndex minted_index;
    ColumnVector* keys = nullptr;  // staged fact key column
  };
  struct ValuePlan {
    const ColumnVector* from;
    DataType from_type;  // as the fact row holds it: a bool measure is int64
    ColumnVector* to;    // staged fact column
  };
  std::vector<DimPlan> dims(dimensions_.size());
  for (size_t d = 0; d < dimensions_.size(); ++d) {
    Dimension& dim = dimensions_[d];
    for (const std::string& attr : dim.def().attributes) {
      DDGMS_ASSIGN_OR_RETURN(const ColumnVector* col,
                             source.ColumnByName(attr));
      dims[d].from.push_back(col);
    }
    DDGMS_ASSIGN_OR_RETURN(dims[d].members, dim.AttributeColumns());
    dims[d].index = &dim.EnsureIndex(dims[d].members);
  }
  std::vector<ValuePlan> values;
  for (const MeasureDef& m : def_.measures) {
    DDGMS_ASSIGN_OR_RETURN(const ColumnVector* from,
                           source.ColumnByName(m.source_column));
    DDGMS_ASSIGN_OR_RETURN(ColumnVector* to,
                           batch.fact_.MutableColumnByName(m.name));
    const DataType type =
        from->type() == DataType::kBool ? DataType::kInt64 : from->type();
    values.push_back(ValuePlan{from, type, to});
  }
  if (!def_.degenerate_key.empty()) {
    DDGMS_ASSIGN_OR_RETURN(const ColumnVector* from,
                           source.ColumnByName(def_.degenerate_key));
    DDGMS_ASSIGN_OR_RETURN(ColumnVector* to, batch.fact_.MutableColumnByName(
                                                 def_.degenerate_key));
    // It precedes the measures in the fact table, and a row's first
    // value the table cannot hold is the one reported.
    values.insert(values.begin(), ValuePlan{from, from->type(), to});
  }
  for (size_t d = 0; d < dimensions_.size(); ++d) {
    DDGMS_ASSIGN_OR_RETURN(dims[d].keys,
                           batch.fact_.MutableColumnByName(
                               KeyColumnName(dimensions_[d].name())));
  }
  if (dims.size() + values.size() != fact_.num_columns()) {
    return Status::FailedPrecondition(
        "fact table columns do not match the star-schema definition");
  }

  const size_t n = source.num_rows();
  for (size_t c = 0; c < batch.fact_.num_columns(); ++c) {
    batch.fact_.mutable_column(c)->Reserve(n);
  }
  for (size_t i = 0; i < n; ++i) {
    for (size_t d = 0; d < dims.size(); ++d) {
      DimPlan& plan = dims[d];
      const Dimension& dim = dimensions_[d];
      const size_t hash = MemberIndex::HashRow(plan.from, i);
      int64_t key = plan.index->Find(plan.members, plan.from, i, hash);
      if (key < 0) {
        int64_t minted = plan.minted_index.Find(plan.minted, plan.from, i,
                                                hash);
        if (minted < 0) {
          // A new member: it must fit the member table's columns.
          if (dim.table().num_columns() != plan.members.size()) {
            return Status::InvalidArgument(StrFormat(
                "row has %zu values; table has %zu columns",
                plan.members.size(), dim.table().num_columns()));
          }
          for (size_t a = 0; a < plan.from.size(); ++a) {
            if (!plan.from[a]->IsNull(i) &&
                !Holds(plan.members[a]->type(), plan.from[a]->type())) {
              return CannotHold(plan.from[a]->type(), *plan.members[a]);
            }
          }
          Table& staged = batch.members_[d];
          if (plan.minted.empty()) {
            staged = Table(dim.table().schema());
            for (const std::string& attr : dim.def().attributes) {
              DDGMS_ASSIGN_OR_RETURN(ColumnVector* col,
                                     staged.MutableColumnByName(attr));
              plan.mint_to.push_back(col);
              plan.minted.push_back(col);
            }
          }
          minted = static_cast<int64_t>(staged.num_rows());
          for (size_t a = 0; a < plan.from.size(); ++a) {
            plan.mint_to[a]->AppendFrom(*plan.from[a], i);
          }
          plan.minted_index.Insert(plan.minted, static_cast<size_t>(minted),
                                   hash);
        }
        key = static_cast<int64_t>(dim.num_members()) + minted;
      }
      plan.keys->AppendInt(key);
    }
    for (const ValuePlan& v : values) {
      if (!v.from->IsNull(i) && !Holds(v.to->type(), v.from_type)) {
        return CannotHold(v.from_type, *v.to);
      }
      v.to->AppendFrom(*v.from, i);
    }
  }
  return batch;
}

namespace {

/// Appends `staged`, which has `to`'s schema, to `to`: an empty `to`
/// takes it whole.
void ConcatStaged(Table* to, Table staged) {
  if (to->num_rows() == 0) {
    *to = std::move(staged);
    return;
  }
  Status st = to->Concat(staged);
  assert(st.ok());
  st.IgnoreError();
}

}  // namespace

void Warehouse::CommitAppend(PreparedAppend batch) {
  assert(batch.lineage_ == lineage() && batch.fact_rows_ == num_fact_rows());
  for (size_t d = 0; d < dimensions_.size(); ++d) {
    Table& minted = batch.members_[d];
    if (minted.num_rows() == 0) continue;
    Dimension& dim = dimensions_[d];
    // PrepareAppend built the index, resolved the attribute columns and
    // staged the members with the member table's schema, so none of
    // this can fail.
    MemberIndex& index = *dim.index_;
    const size_t first = dim.num_members();
    ConcatStaged(&dim.table_, std::move(minted));
    // Read after the concatenation, which may replace the columns.
    const std::vector<const ColumnVector*> members =
        dim.AttributeColumns().value();
    for (size_t key = first; key < dim.num_members(); ++key) {
      index.Insert(members, key, MemberIndex::HashRow(members, key));
    }
    dim.codes_.Extend(dim.table_);
  }
  ConcatStaged(&fact_, std::move(batch.fact_));
}

IntegrityReport Warehouse::CheckIntegrity() const {
  IntegrityReport report;
  report.fact_rows = fact_.num_rows();

  // Foreign keys must exist and be in range.
  for (const Dimension& dim : dimensions_) {
    auto col = fact_.ColumnByName(KeyColumnName(dim.name()));
    if (!col.ok()) {
      report.ok = false;
      report.violations.push_back("fact table missing key column for '" +
                                  dim.name() + "'");
      continue;
    }
    if ((*col)->type() != DataType::kInt64) {
      report.ok = false;
      report.violations.push_back(
          StrFormat("key column for dimension '%s' holds %s, not int64",
                    dim.name().c_str(), DataTypeName((*col)->type())));
      continue;
    }
    for (size_t i = 0; i < (*col)->size(); ++i) {
      if ((*col)->IsNull(i)) {
        report.ok = false;
        report.violations.push_back(
            StrFormat("null key for dimension '%s' at fact row %zu",
                      dim.name().c_str(), i));
        break;
      }
      int64_t key = (*col)->IntAt(i);
      if (key < 0 || static_cast<size_t>(key) >= dim.num_members()) {
        report.ok = false;
        report.violations.push_back(StrFormat(
            "dangling key %lld for dimension '%s' at fact row %zu",
            static_cast<long long>(key), dim.name().c_str(), i));
        break;
      }
    }
  }

  // Hierarchies must be functional: fine value -> unique coarse value.
  for (const Dimension& dim : dimensions_) {
    for (const Hierarchy& h : dim.def().hierarchies) {
      for (size_t lvl = 0; lvl + 1 < h.levels.size(); ++lvl) {
        const std::string& coarse = h.levels[lvl];
        const std::string& fine = h.levels[lvl + 1];
        auto coarse_col = dim.table().ColumnByName(coarse);
        auto fine_col = dim.table().ColumnByName(fine);
        if (!coarse_col.ok() || !fine_col.ok()) {
          report.ok = false;
          report.violations.push_back("hierarchy '" + h.name +
                                      "' references missing attribute");
          continue;
        }
        std::unordered_map<Value, Value, ValueHash, ValueEq> mapping;
        for (size_t i = 0; i < dim.num_members(); ++i) {
          Value f = (*fine_col)->GetValue(i);
          Value c = (*coarse_col)->GetValue(i);
          auto [it, inserted] = mapping.emplace(f, c);
          if (!inserted && !it->second.Equals(c)) {
            report.ok = false;
            report.violations.push_back(StrFormat(
                "hierarchy '%s': fine member '%s' maps to both '%s' and "
                "'%s'",
                h.name.c_str(), f.ToString().c_str(),
                it->second.ToString().c_str(), c.ToString().c_str()));
          }
        }
      }
    }
  }
  return report;
}

Result<std::optional<Table>> QuarantineUnreferencedRows(
    const StarSchemaDef& def, const Table& source,
    QuarantineReport* quarantine) {
  std::vector<std::vector<const ColumnVector*>> tuples;
  for (const DimensionDef& dim : def.dimensions) {
    std::vector<const ColumnVector*>& cols = tuples.emplace_back();
    for (const std::string& attr : dim.attributes) {
      DDGMS_ASSIGN_OR_RETURN(const ColumnVector* col,
                             source.ColumnByName(attr));
      cols.push_back(col);
    }
  }
  std::vector<size_t> kept;
  for (size_t i = 0; i < source.num_rows(); ++i) {
    size_t d = 0;
    while (d < tuples.size() &&
           !std::all_of(tuples[d].begin(), tuples[d].end(),
                        [i](const ColumnVector* col) { return col->IsNull(i); })) {
      ++d;
    }
    if (d == tuples.size()) {
      kept.push_back(i);
      continue;
    }
    const std::string& name = def.dimensions[d].name;
    std::vector<std::string> cells;
    for (const Value& v : source.GetRow(i)) cells.push_back(v.ToString());
    DDGMS_METRIC_INC("ddgms.warehouse.ri_rejects");
    quarantine->Add(
        "star-schema", i + 1, name,
        Status::FailedPrecondition(StrFormat(
            "all-null tuple references no member of dimension '%s'",
            name.c_str())),
        TruncateForQuarantine(FormatCsvLine(cells)));
  }
  if (kept.size() == source.num_rows()) return std::optional<Table>();
  return std::optional<Table>(source.Take(kept));
}

Result<Warehouse> StarSchemaBuilder::Build(
    const Table& source, const BuildOptions& options) const {
  DDGMS_FAULT_POINT("warehouse.build");
  DDGMS_RETURN_IF_ERROR(def_.Validate());
  TraceSpan build_span("warehouse.build", "ddgms.warehouse.build_latency_us");
  build_span.SetAttribute("source_rows", source.num_rows());
  build_span.SetAttribute("dimensions", def_.dimensions.size());
  build_span.SetAttribute("measures", def_.measures.size());
  ScopedAccounting accounting("warehouse");
  QuarantineReport local_sink;
  QuarantineReport* quarantine =
      options.quarantine != nullptr ? options.quarantine : &local_sink;

  // An empty warehouse typed like the source: member tables like their
  // attributes, the fact table with a key per dimension, the degenerate
  // key, and the measures (a bool measure stored as int64).
  std::vector<Dimension> dimensions;
  std::vector<Field> fact_fields;
  for (const DimensionDef& dim_def : def_.dimensions) {
    std::vector<Field> fields;
    for (const std::string& attr : dim_def.attributes) {
      DDGMS_ASSIGN_OR_RETURN(const ColumnVector* col,
                             source.ColumnByName(attr));
      fields.push_back(Field{attr, col->type()});
    }
    DDGMS_ASSIGN_OR_RETURN(Schema schema, Schema::Make(std::move(fields)));
    dimensions.emplace_back(dim_def, Table(std::move(schema)));
    fact_fields.push_back(
        Field{Warehouse::KeyColumnName(dim_def.name), DataType::kInt64});
  }
  if (!def_.degenerate_key.empty()) {
    DDGMS_ASSIGN_OR_RETURN(const ColumnVector* col,
                           source.ColumnByName(def_.degenerate_key));
    fact_fields.push_back(Field{def_.degenerate_key, col->type()});
  }
  for (const MeasureDef& m : def_.measures) {
    DDGMS_ASSIGN_OR_RETURN(const ColumnVector* col,
                           source.ColumnByName(m.source_column));
    if (!IsNumeric(col->type()) && col->type() != DataType::kBool) {
      return Status::InvalidArgument(
          StrFormat("measure '%s' source column '%s' is not numeric",
                    m.name.c_str(), m.source_column.c_str()));
    }
    fact_fields.push_back(Field{
        m.name,
        col->type() == DataType::kBool ? DataType::kInt64 : col->type()});
  }
  DDGMS_ASSIGN_OR_RETURN(Schema fact_schema,
                         Schema::Make(std::move(fact_fields)));
  Warehouse wh(def_, Table(std::move(fact_schema)), std::move(dimensions));

  std::optional<Table> kept;
  if (options.error_mode == ErrorMode::kLenient) {
    DDGMS_ASSIGN_OR_RETURN(kept,
                           QuarantineUnreferencedRows(def_, source, quarantine));
  }
  DDGMS_ASSIGN_OR_RETURN(PreparedAppend rows,
                         wh.PrepareAppend(kept ? *kept : source));
  wh.CommitAppend(std::move(rows));
  size_t surrogate_keys = 0;
  for (const Dimension& dim : wh.dimensions()) {
    surrogate_keys += dim.num_members();
  }

  IntegrityReport report;
  {
    TraceSpan check_span("warehouse.integrity_check");
    report = wh.CheckIntegrity();
    check_span.SetAttribute("violations", report.violations.size());
  }
  if (!report.ok) {
    DDGMS_LOG_ERROR("warehouse.integrity")
        .With("fact", def_.fact_name)
        .With("violations", report.violations.size())
        .Message(report.violations.empty() ? "" : report.violations.front());
    return Status::DataLoss("built warehouse failed integrity check:\n" +
                            report.ToString());
  }

  build_span.SetAttribute("fact_rows", wh.fact().num_rows());
  build_span.SetAttribute("surrogate_keys", surrogate_keys);
  DDGMS_LOG_INFO("warehouse.build")
      .With("fact", def_.fact_name)
      .With("fact_rows", wh.fact().num_rows())
      .With("dimensions", def_.dimensions.size())
      .With("surrogate_keys", surrogate_keys)
      .With("quarantined", quarantine->size());
  DDGMS_METRIC_INC("ddgms.warehouse.builds");
  DDGMS_METRIC_ADD("ddgms.warehouse.fact_rows_built",
                   wh.fact().num_rows());
  DDGMS_METRIC_ADD("ddgms.warehouse.surrogate_keys_allocated",
                   surrogate_keys);
  return wh;
}

}  // namespace ddgms::warehouse
