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

/// CubeEngine with an LRU cache of materialized cubes. Clinical
/// analysis sessions re-issue the same multivariate queries (drill-down
/// and back, re-rendering); caching turns those into dictionary hits.
/// Entries are keyed on an injective encoding of the whole CubeQuery
/// (typed, length-prefixed members and slicer values, measure aliases,
/// non_empty), so two queries share an entry only when they are equal.
///
/// Each entry is checked against the warehouse when a query finds it:
///  * hit — the warehouse still has the lineage and fact-row count the
///    cube was computed under;
///  * rolled — every change since was an append (the cube's lineage is
///    the warehouse's), so CubeEngine::Extend rolls the cube forward
///    over just the appended fact rows and the entry keeps the result;
///  * miss — otherwise: a rebuild, a reload or recovery, a feedback
///    dimension or an assignment ended the cube's append chain (an
///    invalidation), or a count_distinct measure, whose cells keep only
///    their counts, cannot roll. The cube is computed afresh.
/// The stamps see every change: a warehouse changes in place only
/// through CommitAppend and AddFeedbackDimension, so the rule has no
/// exception and the cache needs no manual invalidation.
///
/// Observability: hits, rolls, misses, evictions and invalidations are
/// exported as "ddgms.olap.cache.*" counters, and retained cube bytes
/// are charged to (and released from) the "olap.cube.cache" resource
/// pool, so the cache's live footprint is always attributable.
class CachingCubeEngine {
 public:
  explicit CachingCubeEngine(const warehouse::Warehouse* wh,
                             size_t capacity = 64)
      : warehouse_(wh), capacity_(capacity) {}
  ~CachingCubeEngine();

  /// Executes (or returns a cached, or rolls forward a cached) cube.
  /// The returned pointer stays valid as long as the caller holds it
  /// (shared ownership), even if the entry is evicted or rolled.
  Result<std::shared_ptr<const Cube>> Execute(const CubeQuery& query) {
    Stage stage(nullptr, "olap.cube.cache");
    return Execute(query, &stage);
  }

  /// Like Execute(query), under `stage`: the caller's open
  /// "olap.cube.cache" record. Its plan node, when it has one, gets a
  /// hit/rolled/miss prop and, unless it is a hit, the engine's stage
  /// plan as its child (EXPLAIN ANALYZE).
  Result<std::shared_ptr<const Cube>> Execute(const CubeQuery& query,
                                              Stage* stage);

  const warehouse::Warehouse* warehouse() const { return warehouse_; }

  size_t hits() const { return hits_; }
  size_t rolls() const { return rolls_; }
  size_t misses() const { return misses_; }
  size_t size() const { return entries_.size(); }

 private:
  struct Entry {
    std::string key;
    std::shared_ptr<const Cube> cube;
    /// ApproxBytes when the cube was stored, remembered so the eventual
    /// release matches the charge exactly.
    uint64_t charged_bytes = 0;
  };

  /// Puts `cube` in `entry`, moving the entry's pool charge from its
  /// old cube to this one; returns the stored cube.
  static std::shared_ptr<const Cube> Store(Entry* entry, Cube cube);

  /// Removes the LRU tail entry, releasing its charge.
  void EvictOne();

  const warehouse::Warehouse* warehouse_;
  size_t capacity_;
  std::list<Entry> lru_;  // front = most recent
  std::unordered_map<std::string, std::list<Entry>::iterator> entries_;
  size_t hits_ = 0;
  size_t rolls_ = 0;
  size_t misses_ = 0;
};

}  // namespace ddgms::olap

#endif  // DDGMS_OLAP_CACHE_H_
