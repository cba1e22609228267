#ifndef DDGMS_COMMON_FAULTS_H_
#define DDGMS_COMMON_FAULTS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "common/sync.h"

namespace ddgms {

/// -------------------------------------------------------------------
/// Fault injection
///
/// Named injection points are compiled into hot load/transform paths
/// via DDGMS_FAULT_POINT("name"). They are inert by default: the macro
/// guards on one relaxed atomic-bool load, so disabled builds pay a
/// single predictable branch and nothing else. Tests (and chaos
/// harnesses) arm points with deterministic trigger schedules to
/// rehearse transient-failure handling without touching real I/O.
/// -------------------------------------------------------------------

/// When an armed injection point fails. Schedules compose: a hit fails
/// if ANY enabled trigger fires. All triggers are deterministic —
/// `probability` draws from an Rng seeded with `seed`, so a given plan
/// always fails the same hit indices.
struct FaultPlan {
  StatusCode code = StatusCode::kInternal;
  /// Message carried by the injected Status; defaults to
  /// "injected fault at '<point>'".
  std::string message;
  /// Fail the first N hits (transient-outage shape; N=0 disables).
  size_t fail_first = 0;
  /// Fail every Nth hit, 1-based (periodic-fault shape; 0 disables).
  size_t every_n = 0;
  /// Fail each hit with this probability, drawn deterministically from
  /// `seed` (flaky-network shape; 0.0 disables).
  double probability = 0.0;
  uint64_t seed = 42;
};

/// Process-wide registry of injection points. All methods are
/// thread-safe. The registry also counts hits per point whenever it is
/// enabled (even for unarmed points), which lets tests discover every
/// injection point a given flow passes through.
class FaultRegistry {
 public:
  static FaultRegistry& Global();

  /// Master switch. Enable() alone (no armed plans) observes hit
  /// counts without injecting anything; Disable() restores the
  /// zero-cost inert state. Arm() enables automatically.
  void Enable() { enabled_.store(true, std::memory_order_relaxed); }
  void Disable() { enabled_.store(false, std::memory_order_relaxed); }
  bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Arms `point` with `plan` (replacing any previous plan) and
  /// enables the registry.
  void Arm(const std::string& point, FaultPlan plan) EXCLUDES(mu_);

  /// Disarms one point (its hit counters are kept).
  void Disarm(const std::string& point) EXCLUDES(mu_);

  /// Disarms everything, clears counters, and disables the registry.
  void Reset() EXCLUDES(mu_);

  /// Called by DDGMS_FAULT_POINT when the registry is enabled. Counts
  /// the hit and returns the injected Status if the point is armed and
  /// its schedule fires; OK otherwise.
  Status OnHit(const std::string& point) EXCLUDES(mu_);

  /// Times `point` was passed while the registry was enabled.
  size_t hits(const std::string& point) const EXCLUDES(mu_);

  /// Times a fault was actually injected at `point`.
  size_t injected(const std::string& point) const EXCLUDES(mu_);

  /// Every point name seen (hit or armed) since the last Reset().
  std::vector<std::string> SeenPoints() const EXCLUDES(mu_);

 private:
  FaultRegistry() = default;

  struct PointState {
    FaultPlan plan;
    bool armed = false;
    size_t hits = 0;
    size_t injected = 0;
    Rng rng{42};
  };

  mutable Mutex mu_;
  std::atomic<bool> enabled_{false};
  std::map<std::string, PointState> points_ GUARDED_BY(mu_);
};

/// RAII arm/disarm for tests: arms `point` on construction, disarms it
/// on destruction (the registry stays enabled if other points remain
/// armed; Reset() is the heavy hammer).
class ScopedFault {
 public:
  ScopedFault(std::string point, FaultPlan plan);
  ~ScopedFault();

  ScopedFault(const ScopedFault&) = delete;
  ScopedFault& operator=(const ScopedFault&) = delete;

 private:
  std::string point_;
};

/// Declares a fault-injection point. Usable in any function returning
/// Status or Result<T> (Result converts from Status implicitly).
/// Zero-cost when the registry is disabled: one relaxed atomic load.
#define DDGMS_FAULT_POINT(point)                                   \
  do {                                                             \
    if (::ddgms::FaultRegistry::Global().enabled()) {              \
      ::ddgms::Status _ddgms_fault =                               \
          ::ddgms::FaultRegistry::Global().OnHit(point);           \
      if (!_ddgms_fault.ok()) return _ddgms_fault;                 \
    }                                                              \
  } while (false)

}  // namespace ddgms

#endif  // DDGMS_COMMON_FAULTS_H_
