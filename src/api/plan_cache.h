// PlanCache: the Database's LRU cache of compiled query plans.
//
// Parsing and planning a query -- twig-run collapse, positional
// detection, tag interning, the pushdown cost model -- is pure CPU work
// repeated verbatim for every run of a hot query. The Database therefore
// keeps one bounded LRU map from (query string + the SEMANTIC session
// options: backend, pushdown, twig, pushdown_selectivity, cost_model --
// plus the pinned snapshot's epoch) to the immutable xpath::CompiledPlan
// those options produce over that snapshot. Sessions whose semantic
// options differ never share an entry (a kPaged plan's pushdown
// decision is meaningless for kCompressed), and a commit retires every
// older epoch's plans at once; options that only shape
// execution (staircase skips, num_threads, private pools) are NOT part
// of the key, so sessions differing only in those serve each other's
// plans. See Session::PlanKey for the key encoding.
//
// Entries hold shared_ptr<const CompiledPlan>: a hit hands the caller a
// reference that stays valid even if the entry is evicted mid-query.
// All methods are internally synchronized (one mutex -- the cache is
// touched once per query, not once per page).

#ifndef STAIRJOIN_API_PLAN_CACHE_H_
#define STAIRJOIN_API_PLAN_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>

#include "util/thread_annotations.h"
#include "xpath/plan.h"

namespace sj {

/// \brief Bounded, thread-safe LRU map from plan key to compiled plan.
class PlanCache {
 public:
  /// Lifetime counters (folded into DatabaseStats by TotalStats, which
  /// adds the sessions' local memo serves to `hits`).
  struct Stats {
    uint64_t hits = 0;       ///< Lookup found an entry
    uint64_t misses = 0;     ///< Lookup found nothing
    uint64_t evictions = 0;  ///< entries displaced by capacity
  };

  /// A successful lookup: the shared plan plus how often this entry has
  /// been served (including this time) -- the number EXPLAIN reports.
  struct Hit {
    std::shared_ptr<const xpath::CompiledPlan> plan;
    uint64_t hits = 0;
  };

  /// `capacity` is the maximum entry count; 0 disables the cache
  /// (Lookup always misses, Insert drops the plan).
  explicit PlanCache(size_t capacity) : capacity_(capacity) {}

  PlanCache(const PlanCache&) = delete;
  PlanCache& operator=(const PlanCache&) = delete;

  /// Finds `key`, marking the entry most-recently-used.
  std::optional<Hit> Lookup(const std::string& key) SJ_EXCLUDES(mu_);

  /// Caches `plan` under `key` as most-recently-used, displacing the
  /// least-recently-used entries while over capacity. Re-inserting an
  /// existing key replaces its plan (and resets its hit count) without
  /// counting an eviction.
  void Insert(const std::string& key,
              std::shared_ptr<const xpath::CompiledPlan> plan)
      SJ_EXCLUDES(mu_);

  /// A consistent snapshot of the lifetime counters.
  Stats stats() const SJ_EXCLUDES(mu_);

  /// Current entry count (for tests).
  size_t size() const SJ_EXCLUDES(mu_);

  /// Maximum entry count (also the bound sessions use for their local
  /// plan memos).
  size_t capacity() const { return capacity_; }

 private:
  struct Entry {
    std::shared_ptr<const xpath::CompiledPlan> plan;
    /// Position in lru_ (front = most recently used).
    std::list<std::string>::iterator lru_pos;
    uint64_t hits = 0;
  };

  const size_t capacity_;
  mutable Mutex mu_;
  /// Keys in recency order, front = most recently used.
  std::list<std::string> lru_ SJ_GUARDED_BY(mu_);
  std::unordered_map<std::string, Entry> entries_ SJ_GUARDED_BY(mu_);
  Stats stats_ SJ_GUARDED_BY(mu_);
};

}  // namespace sj

#endif  // STAIRJOIN_API_PLAN_CACHE_H_
