#include "olap/cache.h"

#include <bit>
#include <charconv>

#include "common/metrics.h"
#include "common/resource.h"

namespace ddgms::olap {

namespace {

/// Cached cubes live in the cache's pool regardless of which thread's
/// query inserted or evicted them.
void ChargeCache(uint64_t bytes) {
  if (!ResourceMeter::Enabled() || bytes == 0) return;
  ResourceMeter::Global().GetPool("olap.cube.cache").Charge(bytes);
}

void ReleaseCache(uint64_t bytes) {
  if (!ResourceMeter::Enabled() || bytes == 0) return;
  ResourceMeter::Global().GetPool("olap.cube.cache").Release(bytes);
}

// The cache key is a prefix-free encoding: every number ends in ':',
// every string and list is preceded by its length, and every Value by
// its type, so distinct queries never share a key.
void PutNumber(uint64_t n, std::string* key) {
  char digits[20];
  const auto [end, ec] = std::to_chars(digits, digits + sizeof(digits), n);
  key->append(digits, end);
  key->push_back(':');
}

void PutString(const std::string& s, std::string* key) {
  PutNumber(s.size(), key);
  key->append(s);
}

void PutValues(const std::vector<Value>& values, std::string* key) {
  PutNumber(values.size(), key);
  for (const Value& v : values) {
    switch (v.type()) {
      case DataType::kNull:
        key->push_back('n');
        break;
      case DataType::kBool:
        key->push_back(v.bool_value() ? 't' : 'f');
        break;
      case DataType::kInt64:
        key->push_back('i');
        PutNumber(std::bit_cast<uint64_t>(v.int_value()), key);
        break;
      case DataType::kDouble:
        key->push_back('d');
        PutNumber(std::bit_cast<uint64_t>(v.double_value()), key);
        break;
      case DataType::kString:
        key->push_back('s');
        PutString(v.string_value(), key);
        break;
      case DataType::kDate:
        key->push_back('D');
        PutNumber(std::bit_cast<uint32_t>(v.date_value().days_since_epoch()),
                  key);
        break;
    }
  }
}

/// The cache key of `query`. CubeQuery::ToString, kept for logs, is no
/// key: it joins members with an unquoted ',', prints Null like "" and
/// Int 5 like "5", and leaves out measure aliases.
std::string CacheKey(const CubeQuery& query) {
  std::string key;
  PutNumber(query.axes.size(), &key);
  for (const AxisSpec& axis : query.axes) {
    PutString(axis.dimension, &key);
    PutString(axis.attribute, &key);
    PutValues(axis.members, &key);
  }
  PutNumber(query.slicers.size(), &key);
  for (const SlicerSpec& slicer : query.slicers) {
    PutString(slicer.dimension, &key);
    PutString(slicer.attribute, &key);
    PutValues(slicer.values, &key);
  }
  PutNumber(query.measures.size(), &key);
  for (const AggSpec& measure : query.measures) {
    PutNumber(static_cast<uint64_t>(measure.fn), &key);
    PutString(measure.column, &key);
    PutString(measure.alias, &key);
  }
  key.push_back(query.non_empty ? 'e' : 'a');
  return key;
}

}  // namespace

CachingCubeEngine::~CachingCubeEngine() {
  for (const Entry& e : lru_) ReleaseCache(e.charged_bytes);
}

Result<std::shared_ptr<const Cube>> CachingCubeEngine::Execute(
    const CubeQuery& query, Stage* stage) {
  if (warehouse_ == nullptr) {
    return Status::InvalidArgument("engine has no warehouse");
  }
  PlanNode* plan = stage->node();
  const CubeEngine engine(warehouse_);
  std::string key = CacheKey(query);
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second);
    Entry& entry = *it->second;
    const Cube& cached = *entry.cube;
    if (cached.lineage() == warehouse_->lineage() &&
        cached.fact_rows() == warehouse_->num_fact_rows()) {
      ++hits_;
      DDGMS_METRIC_INC("ddgms.olap.cache.hits");
      if (plan != nullptr) {
        plan->AddProp("cache", "hit");
        plan->rows_out = cached.num_cells();
      }
      return entry.cube;
    }
    if (engine.CanExtend(cached)) {
      ++rolls_;
      DDGMS_METRIC_INC("ddgms.olap.cache.rolls");
      if (plan != nullptr) plan->AddProp("cache", "rolled");
      DDGMS_ASSIGN_OR_RETURN(Cube rolled, engine.Extend(cached, plan));
      if (plan != nullptr) plan->rows_out = rolled.num_cells();
      return Store(&entry, std::move(rolled));
    }
    // A count_distinct cube recomputes along its chain too, but only a
    // chain that ended invalidates.
    if (cached.lineage() != warehouse_->lineage()) {
      DDGMS_METRIC_INC("ddgms.olap.cache.invalidations");
    }
  }
  ++misses_;
  DDGMS_METRIC_INC("ddgms.olap.cache.misses");
  if (plan != nullptr) plan->AddProp("cache", "miss");
  DDGMS_ASSIGN_OR_RETURN(Cube cube, engine.Execute(query, plan));
  if (plan != nullptr) plan->rows_out = cube.num_cells();
  if (it == entries_.end()) {
    lru_.push_front(Entry{std::move(key), nullptr, 0});
    it = entries_.emplace(lru_.front().key, lru_.begin()).first;
  }
  std::shared_ptr<const Cube> stored = Store(&*it->second, std::move(cube));
  while (entries_.size() > capacity_) {
    DDGMS_METRIC_INC("ddgms.olap.cache.evictions");
    EvictOne();
  }
  return stored;
}

std::shared_ptr<const Cube> CachingCubeEngine::Store(Entry* entry,
                                                     Cube cube) {
  ReleaseCache(entry->charged_bytes);
  entry->charged_bytes = ResourceMeter::Enabled() ? cube.ApproxBytes() : 0;
  ChargeCache(entry->charged_bytes);
  entry->cube = std::make_shared<const Cube>(std::move(cube));
  return entry->cube;
}

void CachingCubeEngine::EvictOne() {
  ReleaseCache(lru_.back().charged_bytes);
  entries_.erase(lru_.back().key);
  lru_.pop_back();
}

}  // namespace ddgms::olap
