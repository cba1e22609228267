#ifndef DDGMS_COMMON_RESOURCE_H_
#define DDGMS_COMMON_RESOURCE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/sync.h"

namespace ddgms {

/// -------------------------------------------------------------------
/// Resource accounting
///
/// A process-wide registry of named, hierarchical byte-accounting
/// pools: every layer that materializes data (ETL output, warehouse
/// tables, OLAP cubes, the cube cache, MDX results) charges the bytes
/// it allocates — and releases what it retires — to a pool, so "where
/// does memory go per query?" has a first-class answer that EXPLAIN
/// ANALYZE and the metrics registry can both report.
///
/// Pools form a hierarchy by dotted name: charging "olap.cube.cache"
/// also charges its ancestors "olap.cube" and "olap", plus the
/// implicit process root ("total"). A charge is one relaxed atomic
/// add per ancestor (depth <= 3 in practice) plus a peak CAS.
///
/// Attribution is thread-scoped: a ScopedAccounting RAII guard names
/// the pool that anonymous charge sites (column appends, generic
/// table code) should bill while the guard is the innermost one on
/// the thread. Subsystem entry points open a guard for their pool
/// ("etl", "warehouse", "olap.cube", "mdx"); charges
/// outside any guard land in "other".
///
/// Semantics: pools account *charge events*, not live objects. A
/// subsystem that never calls Release (e.g. ETL, whose output tables
/// are owned by callers) reads as cumulative attribution; a subsystem
/// that does (the cube cache releases evicted cubes) reads as live
/// bytes, and allocated - freed == current holds at all times.
///
/// Like common/metrics the whole subsystem is compiled in but inert
/// by default: every charge is guarded by one relaxed atomic-bool
/// load. Call ResourceMeter::Enable() (the shell does this at
/// startup) to start accounting.
///
/// Naming convention: dotted "<layer>[.<noun>[.<noun>]]" from the
/// same registered layer list ddgms_lint enforces for metric and
/// span names ("etl", "olap.cube", "olap.cube.cache").
/// -------------------------------------------------------------------

/// One accounting pool. Counters are atomics; references returned by
/// ResourceMeter::GetPool() are stable for the process lifetime and
/// may be cached by hot paths.
class ResourcePool {
 public:
  const std::string& name() const { return name_; }
  /// Enclosing pool ("olap.cube" -> "olap"); the root pool for
  /// top-level pools; nullptr only for the root itself.
  const ResourcePool* parent() const { return parent_; }

  /// Adds `bytes` to this pool and every ancestor (allocated, current,
  /// peak, charge count). Callers normally go through the
  /// DDGMS_RESOURCE_* macros so disabled builds skip the call.
  void Charge(uint64_t bytes);
  /// Subtracts `bytes` from the live total of this pool and every
  /// ancestor (freed, current, release count).
  void Release(uint64_t bytes);

  uint64_t allocated() const {
    return allocated_.load(std::memory_order_relaxed);
  }
  uint64_t freed() const { return freed_.load(std::memory_order_relaxed); }
  /// allocated - freed. May transiently differ from the subtraction of
  /// the two reads above under concurrency; conserved at quiescence.
  int64_t current() const {
    return current_.load(std::memory_order_relaxed);
  }
  /// High-water mark of current().
  int64_t peak() const { return peak_.load(std::memory_order_relaxed); }
  uint64_t charges() const {
    return charges_.load(std::memory_order_relaxed);
  }
  uint64_t releases() const {
    return releases_.load(std::memory_order_relaxed);
  }

  void ResetValues();

 private:
  friend class ResourceMeter;
  ResourcePool(std::string name, ResourcePool* parent)
      : name_(std::move(name)), parent_(parent) {}

  std::string name_;
  ResourcePool* parent_;
  std::atomic<uint64_t> allocated_{0};
  std::atomic<uint64_t> freed_{0};
  std::atomic<int64_t> current_{0};
  std::atomic<int64_t> peak_{0};
  std::atomic<uint64_t> charges_{0};
  std::atomic<uint64_t> releases_{0};
};

/// Point-in-time copy of one pool's counters.
struct ResourcePoolStats {
  std::string name;
  uint64_t allocated = 0;
  uint64_t freed = 0;
  int64_t current = 0;
  int64_t peak = 0;
  uint64_t charges = 0;
  uint64_t releases = 0;
};

/// Point-in-time view of every pool, sorted by name; the root pool is
/// listed first under the name "total".
struct ResourceSnapshot {
  std::vector<ResourcePoolStats> pools;

  /// Stats for a pool by exact name (nullptr when absent).
  const ResourcePoolStats* pool(const std::string& name) const;

  /// Human-readable aligned listing (the shell's `stats` resource
  /// section).
  std::string ToString() const;
  /// {"total":{...},"etl":{...},...}
  std::string ToJson() const;
};

/// The global pool registry. All methods are thread-safe.
class ResourceMeter {
 public:
  static ResourceMeter& Global();

  /// Master switch (one relaxed atomic, shared by all charge sites).
  static void Enable() { enabled_.store(true, std::memory_order_relaxed); }
  static void Disable() {
    enabled_.store(false, std::memory_order_relaxed);
  }
  static bool Enabled() {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Finds or creates a pool (and its dotted-prefix ancestors).
  /// Returned references are stable for the process lifetime.
  ResourcePool& GetPool(const std::string& name) EXCLUDES(mu_);

  /// The implicit root every charge rolls up into; its peak is the
  /// process-wide attributed high-water mark (bench reports surface it
  /// as meter_peak_bytes).
  ResourcePool& root() { return root_; }

  ResourceSnapshot Snapshot() const EXCLUDES(mu_);

  /// Publishes every pool's live/peak bytes as metrics-registry gauges
  /// ("ddgms.resource.bytes_current:<pool>" /
  /// "ddgms.resource.bytes_peak:<pool>") so dashboards and the anomaly
  /// scanner see resource attribution alongside every other
  /// instrument. No-op while the metrics registry is disabled.
  void PublishToMetrics() const EXCLUDES(mu_);

  /// Zeroes every pool's counters. Registrations (and outstanding
  /// references) stay valid.
  void ResetValues() EXCLUDES(mu_);

  /// Charges/releases against the calling thread's innermost
  /// ScopedAccounting pool ("other" when no guard is open). Callers
  /// normally go through the DDGMS_RESOURCE_* macros.
  static void ChargeCurrent(uint64_t bytes);
  static void ReleaseCurrent(uint64_t bytes);

 private:
  ResourceMeter() : root_("total", nullptr) {}

  ResourcePool root_;
  mutable Mutex mu_;
  std::map<std::string, std::unique_ptr<ResourcePool>> pools_
      GUARDED_BY(mu_);
  static std::atomic<bool> enabled_;
};

/// RAII attribution guard: names the pool that anonymous charge sites
/// on this thread bill while this guard is the innermost one. When the
/// meter is disabled at construction the guard is fully inert (no
/// registry lookup, no TLS write).
class ScopedAccounting {
 public:
  /// `pool_name` should be a stable dotted identifier ("olap.cube");
  /// disabled call sites never build strings.
  explicit ScopedAccounting(const char* pool_name);
  ~ScopedAccounting();

  ScopedAccounting(const ScopedAccounting&) = delete;
  ScopedAccounting& operator=(const ScopedAccounting&) = delete;

  bool active() const { return pool_ != nullptr; }
  /// Bytes charged to the pool since this guard opened (0 when inert).
  /// Single-threaded reading: concurrent charges by other threads to
  /// the same pool are included.
  uint64_t BytesCharged() const;
  /// Bytes released from the pool since this guard opened (0 when
  /// inert).
  uint64_t BytesReleased() const;

  /// The calling thread's innermost active pool (nullptr when none).
  static ResourcePool* Current();

 private:
  ResourcePool* pool_ = nullptr;
  ResourcePool* saved_ = nullptr;
  uint64_t allocated_at_entry_ = 0;
  uint64_t freed_at_entry_ = 0;
};

/// Call-site helpers matching the DDGMS_METRIC_* idiom: one relaxed
/// load on the disabled path; `bytes` is not evaluated while disabled.
#define DDGMS_RESOURCE_CHARGE(bytes)                       \
  do {                                                     \
    if (::ddgms::ResourceMeter::Enabled()) {               \
      ::ddgms::ResourceMeter::ChargeCurrent(bytes);        \
    }                                                      \
  } while (false)

#define DDGMS_RESOURCE_RELEASE(bytes)                      \
  do {                                                     \
    if (::ddgms::ResourceMeter::Enabled()) {               \
      ::ddgms::ResourceMeter::ReleaseCurrent(bytes);       \
    }                                                      \
  } while (false)

}  // namespace ddgms

#endif  // DDGMS_COMMON_RESOURCE_H_
