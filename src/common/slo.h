#ifndef DDGMS_COMMON_SLO_H_
#define DDGMS_COMMON_SLO_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "common/sync.h"

namespace ddgms {

/// -------------------------------------------------------------------
/// SLO engine: declarative objectives + multi-window burn-rate alerts
///
/// An SloDef declares one objective over instruments the process
/// already records — a latency target on a histogram, an error-rate
/// ceiling over a pair of counters, or a stall budget on an event
/// counter. The engine derives windowed views through WindowRegistry
/// and, on every evaluation, computes a *burn rate* per window:
///
///   burn = bad_fraction / error_budget      (budget = 1 - objective)
///
/// A burn of 1.0 consumes the error budget exactly at the sustainable
/// pace; 10 means the budget burns ten times too fast. Following the
/// multi-window discipline, an alert fires only when BOTH the fast
/// window (is it happening *now*?) and the slow window (has it been
/// happening long enough to matter?) exceed the firing threshold —
/// short blips age out of the fast window before the slow window
/// corroborates, so single outliers do not page.
///
/// Per-SLO state machine: ok → warning → firing → resolved → ok.
/// Every transition emits a structured `slo.<state>` flight-recorder
/// event and the engine maintains ddgms.slo.* gauges (state, fast and
/// slow burn per SLO) so scrapers see alert history. Like the other
/// subsystems the engine is inert behind one relaxed atomic gate;
/// evaluation is driven either by the background evaluator thread
/// (StartEvaluator) or explicitly with EvaluateAt() for deterministic
/// tests.
/// -------------------------------------------------------------------

enum class SloKind {
  /// Fraction of histogram observations at/below latency_target_us
  /// must be >= objective.
  kLatency,
  /// error_counter / total_counter must stay <= 1 - objective.
  kErrorRate,
  /// stall_counter increments per hour must stay <= allowed_per_hour.
  kStallBudget,
};

const char* SloKindName(SloKind kind);

enum class SloState {
  kOk = 0,
  kWarning = 1,
  kFiring = 2,
  /// A firing alert whose burn dropped back under the warning
  /// threshold; decays to kOk on the next healthy evaluation.
  kResolved = 3,
};

const char* SloStateName(SloState state);

/// One declarative objective. `name` is the stable lower_snake_case
/// identity used as the :detail suffix of the ddgms.slo.* gauges.
struct SloDef {
  std::string name;
  SloKind kind = SloKind::kLatency;
  std::string description;

  /// kLatency: the observed histogram and the target bound.
  std::string latency_histogram;
  double latency_target_us = 250000;

  /// kErrorRate: failures / attempts counters. total_counter must
  /// count every attempt (successes and failures).
  std::string error_counter;
  std::string total_counter;

  /// kLatency + kErrorRate: required good fraction (0 < objective < 1).
  double objective = 0.99;

  /// kStallBudget: the monotonic event counter and its hourly budget.
  std::string stall_counter;
  double allowed_per_hour = 6.0;

  /// Multi-window burn-rate parameters.
  int64_t fast_window_seconds = 60;
  int64_t slow_window_seconds = 300;
  double firing_burn_rate = 10.0;
  double warning_burn_rate = 1.0;
};

/// Point-in-time view of one SLO's state machine.
struct SloStatus {
  std::string name;
  SloKind kind = SloKind::kLatency;
  std::string description;
  SloState state = SloState::kOk;
  double fast_burn_rate = 0.0;
  double slow_burn_rate = 0.0;
  /// Events seen in the fast window on the last evaluation.
  uint64_t fast_window_count = 0;
  uint64_t transitions = 0;
  /// Time of the last state change (TickAt timeline), -1 when none.
  int64_t last_transition_us = -1;

  std::string ToString() const;
  std::string ToJson() const;
};

struct SloEvaluatorOptions {
  /// Evaluation (and window tick) cadence.
  int period_ms = 1000;
};

/// The global SLO engine. All methods are thread-safe.
class SloEngine {
 public:
  static SloEngine& Global();

  /// Master switch (one relaxed atomic; same idiom as MetricsRegistry).
  static void Enable() { enabled_.store(true, std::memory_order_relaxed); }
  static void Disable() { enabled_.store(false, std::memory_order_relaxed); }
  static bool Enabled() { return enabled_.load(std::memory_order_relaxed); }

  /// Registers one SLO and tracks its instruments over the fast/slow
  /// windows. InvalidArgument on a malformed definition or a
  /// duplicate name.
  Status Register(const SloDef& def) EXCLUDES(mu_);

  /// The stock objectives the shell installs: mdx_latency (execute
  /// histogram vs 250ms), server_availability (HTTP 5xx rate) and
  /// query_stalls (watchdog stall budget). Idempotent.
  Status RegisterDefaultSlos() EXCLUDES(mu_);

  /// Ticks the WindowRegistry, recomputes every burn rate and runs the
  /// state machines, emitting slo.* events and updating ddgms.slo.*
  /// gauges on transitions. No-op while disabled. Evaluate() uses the
  /// steady clock; EvaluateAt() is for deterministic tests.
  void Evaluate() EXCLUDES(mu_);
  void EvaluateAt(int64_t now_us) EXCLUDES(mu_);

  std::vector<SloStatus> Snapshot() const EXCLUDES(mu_);
  /// {"enabled":...,"evaluator_running":...,"slos":[...]}
  std::string ToJson() const EXCLUDES(mu_);

  size_t slo_count() const EXCLUDES(mu_);

  /// Spawns the evaluator thread. FailedPrecondition when already
  /// running; InvalidArgument on a non-positive period.
  Status StartEvaluator(SloEvaluatorOptions options = {}) EXCLUDES(mu_);
  /// Joins the evaluator. FailedPrecondition when not running.
  Status StopEvaluator() EXCLUDES(mu_);
  bool evaluator_running() const EXCLUDES(mu_);

  /// Drops every SLO (stops the evaluator first if needed).
  void ResetForTesting() EXCLUDES(mu_);

 private:
  struct Slo {
    SloDef def;
    SloState state = SloState::kOk;
    double fast_burn = 0.0;
    double slow_burn = 0.0;
    uint64_t fast_count = 0;
    uint64_t transitions = 0;
    int64_t last_transition_us = -1;
  };

  SloEngine() = default;

  void EvaluatorLoop(SloEvaluatorOptions options);
  /// Computes the burn rate of `def` over one window length.
  static void BurnOver(const SloDef& def, int64_t window_seconds,
                       double* burn, uint64_t* count);

  mutable Mutex mu_;
  std::vector<Slo> slos_ GUARDED_BY(mu_);
  bool evaluator_running_ GUARDED_BY(mu_) = false;
  bool defaults_registered_ GUARDED_BY(mu_) = false;
  std::thread evaluator_;
  CondVar evaluator_cv_;
  std::atomic<bool> evaluator_stop_{false};
  static std::atomic<bool> enabled_;
};

}  // namespace ddgms

#endif  // DDGMS_COMMON_SLO_H_
