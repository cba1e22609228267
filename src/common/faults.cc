#include "common/faults.h"

#include "common/log.h"
#include "common/metrics.h"

namespace ddgms {

FaultRegistry& FaultRegistry::Global() {
  static FaultRegistry* registry = new FaultRegistry();
  return *registry;
}

void FaultRegistry::Arm(const std::string& point, FaultPlan plan) {
  {
    MutexLock lock(mu_);
    PointState& state = points_[point];
    state.plan = std::move(plan);
    state.armed = true;
    state.injected = 0;
    state.rng.Reseed(state.plan.seed);
  }
  Enable();
}

void FaultRegistry::Disarm(const std::string& point) {
  MutexLock lock(mu_);
  auto it = points_.find(point);
  if (it != points_.end()) it->second.armed = false;
}

void FaultRegistry::Reset() {
  Disable();
  MutexLock lock(mu_);
  points_.clear();
}

Status FaultRegistry::OnHit(const std::string& point) {
  DDGMS_METRIC_INC("ddgms.faults.hits");
  MutexLock lock(mu_);
  PointState& state = points_[point];
  const size_t hit = state.hits++;  // 0-based index of this hit
  if (!state.armed) return Status::OK();

  const FaultPlan& plan = state.plan;
  bool fire = false;
  if (plan.fail_first > 0 && hit < plan.fail_first) fire = true;
  if (plan.every_n > 0 && (hit + 1) % plan.every_n == 0) fire = true;
  if (plan.probability > 0.0 && state.rng.Bernoulli(plan.probability)) {
    fire = true;
  }
  if (!fire) return Status::OK();

  ++state.injected;
  if (MetricsRegistry::Enabled()) {
    MetricsRegistry& registry = MetricsRegistry::Global();
    registry.GetCounter("ddgms.faults.injected").Increment();
    registry.GetCounter("ddgms.faults.injected:" + point).Increment();
  }
  std::string message = plan.message.empty()
                            ? "injected fault at '" + point + "'"
                            : plan.message;
  DDGMS_LOG_WARN("faults.injected")
      .With("point", point)
      .With("hit", hit + 1)
      .Message(message);
  return Status(plan.code, std::move(message));
}

size_t FaultRegistry::hits(const std::string& point) const {
  MutexLock lock(mu_);
  auto it = points_.find(point);
  return it == points_.end() ? 0 : it->second.hits;
}

size_t FaultRegistry::injected(const std::string& point) const {
  MutexLock lock(mu_);
  auto it = points_.find(point);
  return it == points_.end() ? 0 : it->second.injected;
}

std::vector<std::string> FaultRegistry::SeenPoints() const {
  MutexLock lock(mu_);
  std::vector<std::string> names;
  names.reserve(points_.size());
  for (const auto& [name, state] : points_) {
    names.push_back(name);
  }
  return names;
}

ScopedFault::ScopedFault(std::string point, FaultPlan plan)
    : point_(std::move(point)) {
  FaultRegistry::Global().Arm(point_, std::move(plan));
}

ScopedFault::~ScopedFault() { FaultRegistry::Global().Disarm(point_); }

}  // namespace ddgms
