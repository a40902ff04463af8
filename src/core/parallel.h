// Parallel partitioned staircase join (in-memory backend shim).
//
// Section 3.2 of the paper observes that the staircase partitions of the
// pre/post plane are disjoint and jointly cover all candidate nodes, which
// "naturally leads to a parallel XPath execution strategy": each worker
// scans a contiguous run of partitions and the per-worker results
// concatenate -- still duplicate-free and in document order.
//
// The partitioned driver itself is backend-generic
// (core/staircase_impl.h); this entry point instantiates it with
// MemoryDocAccessor, the evaluator (xpath/backend_dispatch.h) with the
// session image's accessor.

#ifndef STAIRJOIN_CORE_PARALLEL_H_
#define STAIRJOIN_CORE_PARALLEL_H_

#include <cstddef>

#include "core/staircase_join.h"
#include "util/thread_annotations.h"

namespace sj {

namespace internal {

/// \brief The parallel join's work queue: contiguous index chunks of the
/// pruned context, claimed by workers under a mutex.
///
/// The partitions of one document are wildly skewed (one context node
/// under the root may own most of the document), so a static
/// one-range-per-worker split leaves workers idle behind the largest
/// partition. Instead the driver cuts the context into several chunks
/// per worker and each worker claims the next unclaimed chunk here when
/// it finishes its current one. Chunks are handed out in index order;
/// per-chunk results concatenate in chunk order, so the merged result is
/// identical to the serial join's.
///
/// The cursor position is guarded by `mu` (compile-time enforced via
/// Clang Thread Safety Analysis); a worker whose Next returns false
/// terminates -- the queue only ever drains.
class ChunkQueue {
 public:
  /// Queue over `total` items cut into at most `chunks` contiguous
  /// chunks of near-equal size (at least one item each).
  ChunkQueue(size_t total, size_t chunks);

  /// Claims the next chunk as [*lo, *hi) with chunk index *index;
  /// returns false when the queue is drained.
  bool Next(size_t* index, size_t* lo, size_t* hi) SJ_EXCLUDES(mu_);

  /// Number of chunks the queue will hand out in total.
  size_t chunk_count() const { return chunk_count_; }

 private:
  const size_t total_;
  const size_t per_;          ///< items per chunk (last chunk may be short)
  const size_t chunk_count_;  ///< ceil(total / per)
  Mutex mu_;
  size_t next_ SJ_GUARDED_BY(mu_) = 0;  ///< next unclaimed chunk index
};

/// Chunks handed out per worker: enough granularity to rebalance skewed
/// partitions, few enough that queue claims stay off the profile.
inline constexpr size_t kChunksPerWorker = 4;

}  // namespace internal

/// \brief StaircaseJoin distributed over `num_threads` workers.
///
/// Semantics and result are identical to StaircaseJoin (same options
/// contract). Supported for the descendant/ancestor (+ -or-self) axes;
/// following/preceding degenerate to one region query after pruning and are
/// delegated to the serial join. num_threads < 2 also delegates.
Result<NodeSequence> ParallelStaircaseJoin(const DocTable& doc,
                                           const NodeSequence& context,
                                           Axis axis,
                                           const StaircaseOptions& options,
                                           unsigned num_threads,
                                           JoinStats* stats = nullptr);

}  // namespace sj

#endif  // STAIRJOIN_CORE_PARALLEL_H_
