#ifndef DDGMS_SERVER_ANOMALY_H_
#define DDGMS_SERVER_ANOMALY_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <string>
#include <thread>
#include <vector>

#include "common/result.h"
#include "common/sync.h"

namespace ddgms::server {

/// -------------------------------------------------------------------
/// AnomalyScanner: decision guidance applied to the system itself
///
/// A background thread that periodically reads one MetricsRegistry
/// snapshot and turns each watched instrument into one point of a time
/// series:
///
///   histogram          the mean of the observations since the last
///                      scan (Δsum / Δcount); no point when there were
///                      none
///   counter or gauge   its change since the last scan
///
/// The first scan that sees an instrument only records its reading.
/// Each target keeps its last kHistoryPoints points in a fixed ring,
/// and a scan that adds a point scores it with the robust z-score
///
///   z = 0.6745 * (x - median) / MAD
///
/// over the ring (MAD = median absolute deviation; 0.6745 rescales MAD
/// to the standard deviation of a normal distribution), which unlike a
/// plain z-score is not dragged around by the outliers it is trying to
/// find. A point whose |z| reaches kZThreshold becomes an
/// AnomalyFinding, once: an `anomaly.detected` flight-recorder event, a
/// ddgms.anomaly.detections counter bump, and an entry in the bounded
/// recent-findings list served on /alertz.
///
/// Default watched signals: MDX execution latency (mean of
/// ddgms.mdx.execute_latency_us per scan), quarantine growth (change of
/// ddgms.quarantine.rows) and resource-pool growth (change of
/// ddgms.resource.bytes_current:total, published by the scan when the
/// resource meter is on).
///
/// The scanner reads the registry only: it runs no query, drains no
/// ring and holds no facade, so it never touches the facade's
/// unsynchronized query path and outlives any facade swap.
/// -------------------------------------------------------------------

/// One watched signal.
struct AnomalyTarget {
  /// Stable lower_snake_case identity ("mdx_latency_spike").
  std::string name;
  /// MetricsRegistry instrument; its kind decides what one point is
  /// (see the class comment).
  std::string instrument;
};

/// One flagged outlier.
struct AnomalyFinding {
  std::string target;      // AnomalyTarget::name
  int64_t scan = 0;        // scan number (1-based) that added the point
  double value = 0.0;      // the outlying mean / change
  double median = 0.0;     // history median
  double mad = 0.0;        // median absolute deviation
  double robust_z = 0.0;   // 0.6745 * (value - median) / MAD

  std::string ToString() const;
  std::string ToJson() const;
};

struct AnomalyScannerOptions {
  /// Scan cadence of the background thread.
  int period_ms = 5000;
  /// Watched signals; DefaultTargets() when empty.
  std::vector<AnomalyTarget> targets;
};

/// Periodically scores registry instruments and flags robust-z
/// outliers. All methods are thread-safe.
class AnomalyScanner {
 public:
  /// |robust z| at/above this flags the newest point.
  static constexpr double kZThreshold = 3.5;
  /// A history shorter than this is never scored (median/MAD need
  /// history before "outlier" means anything).
  static constexpr size_t kMinPoints = 5;
  /// Points kept per target: 10 minutes at the default 5 s period.
  static constexpr size_t kHistoryPoints = 120;
  /// Recent findings kept for /alertz.
  static constexpr size_t kMaxFindings = 256;

  explicit AnomalyScanner(AnomalyScannerOptions options = {});
  ~AnomalyScanner();

  AnomalyScanner(const AnomalyScanner&) = delete;
  AnomalyScanner& operator=(const AnomalyScanner&) = delete;

  /// The stock watched signals (see class comment).
  static std::vector<AnomalyTarget> DefaultTargets();

  /// Spawns the scan thread. FailedPrecondition when already running.
  Status Start() EXCLUDES(mu_);
  /// Joins the scan thread. FailedPrecondition when not running.
  Status Stop() EXCLUDES(mu_);
  bool running() const EXCLUDES(mu_);

  /// One synchronous scan; returns the findings it flagged (already
  /// appended to the recent list). Deterministic tests drive this
  /// instead of racing the thread.
  std::vector<AnomalyFinding> ScanOnce() EXCLUDES(mu_);

  /// Newest-last recent findings (at most kMaxFindings).
  std::vector<AnomalyFinding> findings() const EXCLUDES(mu_);
  /// Completed scans (monotonic).
  uint64_t scans() const EXCLUDES(mu_);

  /// {"running":...,"scans":...,"z_threshold":...,"findings":[...]}
  std::string ToJson() const EXCLUDES(mu_);

 private:
  /// One target's last reading and its newest points.
  struct Series {
    bool seen = false;
    /// Counter or gauge value, or a histogram's sum.
    double last_value = 0.0;
    /// A histogram's observation count.
    uint64_t last_count = 0;
    std::array<double, kHistoryPoints> points{};
    size_t next = 0;  // ring slot the next point goes to
    size_t size = 0;  // points held, at most kHistoryPoints
  };

  void ScanLoop() EXCLUDES(mu_);

  const AnomalyScannerOptions options_;

  mutable Mutex mu_;
  /// Parallel to options_.targets.
  std::vector<Series> series_ GUARDED_BY(mu_);
  std::deque<AnomalyFinding> findings_ GUARDED_BY(mu_);
  uint64_t scans_ GUARDED_BY(mu_) = 0;
  bool running_ GUARDED_BY(mu_) = false;
  CondVar cv_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

}  // namespace ddgms::server

#endif  // DDGMS_SERVER_ANOMALY_H_
