#include "olap/cache.h"

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

}  // namespace

CachingCubeEngine::~CachingCubeEngine() {
  for (const Entry& e : lru_) ReleaseCache(e.charged_bytes);
}

Result<std::shared_ptr<const Cube>> CachingCubeEngine::Execute(
    const CubeQuery& query, Stage* stage) {
  if (warehouse_ == nullptr) {
    return Status::InvalidArgument("engine has no warehouse");
  }
  // Drift guard: a changed generation stamp means the warehouse was
  // rebuilt, extended, reloaded or recovered under us — including
  // reloads that restore the same fact-row count with different data.
  if (warehouse_->generation() != cached_generation_) {
    if (cached_generation_ != 0) {
      DDGMS_METRIC_INC("ddgms.olap.cache.invalidations");
    }
    Invalidate();
    cached_generation_ = warehouse_->generation();
  }
  PlanNode* plan = stage->node();
  std::string key = query.ToString();
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    ++hits_;
    DDGMS_METRIC_INC("ddgms.olap.cache.hits");
    lru_.splice(lru_.begin(), lru_, it->second);
    if (plan != nullptr) {
      plan->AddProp("cache", "hit");
      plan->rows_out = it->second->cube->num_cells();
    }
    return it->second->cube;
  }
  ++misses_;
  DDGMS_METRIC_INC("ddgms.olap.cache.misses");
  if (plan != nullptr) plan->AddProp("cache", "miss");
  DDGMS_ASSIGN_OR_RETURN(Cube cube,
                         CubeEngine(warehouse_).Execute(query, plan));
  const uint64_t bytes = ResourceMeter::Enabled() ? cube.ApproxBytes() : 0;
  auto shared = std::make_shared<const Cube>(std::move(cube));
  lru_.push_front(Entry{key, shared, bytes});
  entries_[key] = lru_.begin();
  ChargeCache(bytes);
  while (entries_.size() > capacity_) {
    DDGMS_METRIC_INC("ddgms.olap.cache.evictions");
    EvictOne();
  }
  if (plan != nullptr) plan->rows_out = shared->num_cells();
  return shared;
}

void CachingCubeEngine::EvictOne() {
  ReleaseCache(lru_.back().charged_bytes);
  entries_.erase(lru_.back().key);
  lru_.pop_back();
}

void CachingCubeEngine::Invalidate() {
  for (const Entry& e : lru_) ReleaseCache(e.charged_bytes);
  lru_.clear();
  entries_.clear();
}

}  // namespace ddgms::olap
