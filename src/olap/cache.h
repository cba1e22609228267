#ifndef DDGMS_OLAP_CACHE_H_
#define DDGMS_OLAP_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>

#include "common/result.h"
#include "olap/cube.h"

namespace ddgms::olap {

/// CubeEngine with an LRU cache of materialized cubes, keyed by the
/// canonical query string. Clinical analysis sessions re-issue the same
/// multivariate queries (drill-down and back, re-rendering); caching
/// turns those into dictionary hits.
///
/// Every Execute first compares the warehouse's generation stamp with
/// the one the cache was filled under and drops all entries on a
/// mismatch, so rebuilds, incremental appends, feedback dimensions and
/// durable-store reloads/recoveries (which all bump the stamp, even
/// when the fact-row count comes back identical) can never serve stale
/// cubes. Invalidate() remains for callers that mutate the warehouse
/// through a side channel the stamp cannot see.
///
/// Observability: hits, misses, evictions and invalidations are
/// exported as "ddgms.olap.cache.*" counters, and retained cube bytes
/// are charged to (and released from) the "olap.cube.cache" resource
/// pool, so the cache's live footprint is always attributable.
class CachingCubeEngine {
 public:
  explicit CachingCubeEngine(const warehouse::Warehouse* wh,
                             size_t capacity = 64)
      : warehouse_(wh), capacity_(capacity) {}
  ~CachingCubeEngine();

  /// Executes (or returns a cached) cube. The returned pointer stays
  /// valid as long as the caller holds it (shared ownership), even if
  /// the entry is evicted.
  Result<std::shared_ptr<const Cube>> Execute(const CubeQuery& query) {
    Stage stage(nullptr, "olap.cube.cache");
    return Execute(query, &stage);
  }

  /// Like Execute(query), under `stage`: the caller's open
  /// "olap.cube.cache" record. Its plan node, when it has one, gets a
  /// hit/miss prop and, on a miss, the engine's stage plan as its
  /// child (EXPLAIN ANALYZE).
  Result<std::shared_ptr<const Cube>> Execute(const CubeQuery& query,
                                              Stage* stage);

  /// Drops all cached cubes.
  void Invalidate();

  const warehouse::Warehouse* warehouse() const { return warehouse_; }

  size_t hits() const { return hits_; }
  size_t misses() const { return misses_; }
  size_t size() const { return entries_.size(); }

 private:
  struct Entry {
    std::string key;
    std::shared_ptr<const Cube> cube;
    /// ApproxBytes at insert, remembered so the eventual release
    /// matches the charge exactly.
    uint64_t charged_bytes = 0;
  };

  /// Removes the LRU tail entry, releasing its charge.
  void EvictOne();

  const warehouse::Warehouse* warehouse_;
  size_t capacity_;
  std::list<Entry> lru_;  // front = most recent
  std::unordered_map<std::string, std::list<Entry>::iterator> entries_;
  /// Warehouse::generation() the cached cubes were computed from; 0 =
  /// nothing cached yet (generations start at 1).
  uint64_t cached_generation_ = 0;
  size_t hits_ = 0;
  size_t misses_ = 0;
};

}  // namespace ddgms::olap

#endif  // DDGMS_OLAP_CACHE_H_
