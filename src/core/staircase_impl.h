// Backend-generic staircase-join drivers (Algorithms 1-4), internal.
//
// This header holds the ONE implementation of the paper's algorithms:
// fused pruning (Algorithm 1), the partition loop (Algorithm 2) over the
// scan kernels of core/kernels.h (Algorithms 2-4), and the degenerate
// following/preceding region queries (Section 3.1). Everything is
// parameterized over a DocAccessor (core/doc_accessor.h); the public
// entry points instantiate it with the in-memory backend
// (core/staircase_join.cc, core/parallel.cc), and the evaluator with the
// pool-backed one (storage/compressed_accessor.h).

#ifndef STAIRJOIN_CORE_STAIRCASE_IMPL_H_
#define STAIRJOIN_CORE_STAIRCASE_IMPL_H_

#include <algorithm>
#include <iterator>
#include <thread>
#include <utility>
#include <vector>

#include "core/doc_accessor.h"
#include "core/kernels.h"
#include "core/parallel.h"
#include "core/staircase_join.h"
#include "util/result.h"

namespace sj::internal {

template <DocAccessor A>
Status ValidateContext(const A& acc, const NodeSequence& context) {
  if (context.empty()) return Status::OK();
  if (context.back() >= acc.size()) {
    return Status::InvalidArgument("context node out of range");
  }
  if (!IsDocumentOrder(context)) {
    return Status::InvalidArgument(
        "context must be duplicate-free and in document order");
  }
  return Status::OK();
}

/// Algorithm 1 and its axis duals as a separate pass (Section 3.1); the
/// join drivers below prune on the fly, this exists for the ablation bench
/// and for the parallel driver's partition assignment.
template <DocAccessor A>
NodeSequence PruneContextOver(A& acc, const NodeSequence& context, Axis axis) {
  NodeSequence kept;
  if (context.empty()) return kept;
  switch (axis) {
    case Axis::kDescendant:
    case Axis::kDescendantOrSelf: {
      // Algorithm 1: keep nodes with strictly growing postorder ranks; a
      // later node with a smaller rank lies inside the previous survivor.
      uint32_t prev = 0;
      bool first = true;
      for (NodeId c : context) {
        uint32_t post = acc.Post(c);
        if (first || post > prev) {
          kept.push_back(c);
          prev = post;
          first = false;
        }
      }
      return kept;
    }
    case Axis::kAncestor:
    case Axis::kAncestorOrSelf: {
      // Dual of Algorithm 1: drop nodes that are ancestors of a later
      // context node (scan right-to-left keeping postorder minima).
      uint32_t prev = 0;
      bool first = true;
      for (size_t k = context.size(); k-- > 0;) {
        NodeId c = context[k];
        uint32_t post = acc.Post(c);
        if (first || post < prev) {
          kept.push_back(c);
          prev = post;
          first = false;
        }
      }
      std::reverse(kept.begin(), kept.end());
      return kept;
    }
    case Axis::kFollowing: {
      // All context nodes except the one with the minimum postorder rank
      // are covered (Section 3.1, via the empty S region of Fig. 7a).
      NodeId m = context.front();
      uint32_t best = acc.Post(m);
      for (NodeId c : context) {
        uint32_t post = acc.Post(c);
        if (post < best) {
          best = post;
          m = c;
        }
      }
      kept.push_back(m);
      return kept;
    }
    case Axis::kPreceding: {
      // Dual: only the maximum preorder rank survives.
      kept.push_back(context.back());
      return kept;
    }
    default:
      return context;  // non-staircase axes: nothing to prune
  }
}

/// Descendant / descendant-or-self driver with fused (on-the-fly) pruning:
/// a context node whose postorder rank does not exceed the pending
/// boundary is a descendant of the pending context node and is dropped
/// (Algorithm 1 inlined into Algorithm 2's partition loop).
template <DocAccessor A>
void JoinDesc(const NodeSequence& context, bool or_self, SkipMode mode,
              Scan<A>& s) {
  NodeId pending = context.front();
  uint32_t pending_post = s.acc.Post(pending);
  ++s.stats.pruned_context_size;
  for (size_t k = 1; k < context.size(); ++k) {
    NodeId c = context[k];
    uint32_t c_post = s.acc.Post(c);
    if (c_post < pending_post) continue;  // pruned: c inside pending
    ++s.stats.pruned_context_size;
    if (or_self) s.AppendSelf(pending);
    ScanPartitionDesc(s, mode, static_cast<uint64_t>(pending) + 1, c - 1,
                      pending_post);
    pending = c;
    pending_post = c_post;
  }
  if (or_self) s.AppendSelf(pending);
  ScanPartitionDesc(s, mode, static_cast<uint64_t>(pending) + 1,
                    s.acc.size() - 1, pending_post);
}

/// Ancestor / ancestor-or-self driver with fused pruning: when the next
/// context node is a descendant of the pending one, the pending node's
/// ancestor set is covered and the pending node is dropped; its partition
/// simply extends (descendants of a node are contiguous in pre order, so
/// one-step lookahead suffices).
template <DocAccessor A>
void JoinAnc(const NodeSequence& context, bool or_self, SkipMode mode,
             Scan<A>& s) {
  uint64_t window_start = 0;
  NodeId pending = context.front();
  uint32_t pending_post = s.acc.Post(pending);
  for (size_t k = 1; k < context.size(); ++k) {
    NodeId c = context[k];
    uint32_t c_post = s.acc.Post(c);
    if (pending_post > c_post) {  // pending is an ancestor of c: pruned
      pending = c;
      pending_post = c_post;
      continue;
    }
    ++s.stats.pruned_context_size;
    if (pending > 0) {
      ScanPartitionAnc(s, mode, window_start, pending - 1, pending_post);
    }
    if (or_self) s.AppendSelf(pending);
    window_start = static_cast<uint64_t>(pending) + 1;
    pending = c;
    pending_post = c_post;
  }
  ++s.stats.pruned_context_size;
  if (pending > 0) {
    ScanPartitionAnc(s, mode, window_start, pending - 1, pending_post);
  }
  if (or_self) s.AppendSelf(pending);
}

/// Following: pruning reduces the context to the node with the minimum
/// postorder rank; the join degenerates to a single region query
/// (Section 3.1). The first following node has pre rank
/// post(m) + level(m) + 1, so after at most h scanned descendants the
/// remainder is a pure copy.
template <DocAccessor A>
void JoinFollowing(const NodeSequence& context, SkipMode mode, Scan<A>& s) {
  NodeId m = context.front();
  uint32_t best = s.acc.Post(m);
  for (NodeId c : context) {
    uint32_t post = s.acc.Post(c);
    if (post < best) {
      best = post;
      m = c;
    }
  }
  ++s.stats.pruned_context_size;
  const uint64_t n = s.acc.size();
  if (mode == SkipMode::kNone) {
    // Basic region query: scan everything right of the context node.
    for (uint64_t j = static_cast<uint64_t>(m) + 1; j < n; ++j) {
      ++s.stats.nodes_scanned;
      if (s.acc.Post(j) > best) s.Append(j);
    }
    return;
  }
  uint64_t i = std::max<uint64_t>(static_cast<uint64_t>(m) + 1,
                                  static_cast<uint64_t>(best) + 1);
  if (i > static_cast<uint64_t>(m) + 1) {
    s.stats.nodes_skipped += i - (static_cast<uint64_t>(m) + 1);
    s.acc.SkipTo(i);
  }
  // Scan phase: at most level(m) <= h descendants remain before the first
  // following node.
  for (; i < n; ++i) {
    ++s.stats.nodes_scanned;
    if (s.acc.Post(i) > best) {
      s.Append(i);
      ++i;
      break;
    }
  }
  // Copy phase: every node from the first following node onwards follows m.
  for (; i < n; ++i) {
    ++s.stats.nodes_copied;
    s.Append(i);
  }
}

/// Preceding: pruning keeps only the node with the maximum preorder rank
/// (the last one, the context being pre-sorted). Everything left of it is
/// preceding except its <= h ancestors, so the plain scan already touches
/// only pre(M) nodes.
template <DocAccessor A>
void JoinPreceding(const NodeSequence& context, Scan<A>& s) {
  NodeId big = context.back();
  ++s.stats.pruned_context_size;
  uint32_t bound = s.acc.Post(big);
  for (uint64_t i = 0; i < big; ++i) {
    ++s.stats.nodes_scanned;
    if (s.acc.Post(i) < bound) s.Append(i);
  }
}

/// Self nodes are part of an -or-self result even when they are attribute
/// nodes, but a *pruned* attribute context node is only reachable through
/// another context node's partition scan, which filters attributes. Merge
/// such selves back in (rare: attribute context nodes nested inside
/// another context node's subtree).
template <DocAccessor A>
void MergeLostAttributeSelves(A& acc, const NodeSequence& context,
                              NodeSequence& result) {
  NodeSequence lost;
  for (NodeId c : context) {
    if (acc.Kind(c) == kAttrKind &&
        !std::binary_search(result.begin(), result.end(), c)) {
      lost.push_back(c);
    }
  }
  if (!lost.empty()) {
    NodeSequence merged;
    merged.reserve(result.size() + lost.size());
    std::merge(result.begin(), result.end(), lost.begin(), lost.end(),
               std::back_inserter(merged));
    result = std::move(merged);
  }
}

/// The staircase join over any backend: validation, pruning, partition
/// scans, -or-self repair, stats. The public StaircaseJoin is a thin
/// shim around this function over the in-memory columns.
template <DocAccessor A>
Result<NodeSequence> StaircaseJoinOver(A& acc, const NodeSequence& context,
                                       Axis axis,
                                       const StaircaseOptions& options,
                                       JoinStats* stats) {
  if (!IsStaircaseAxis(axis)) {
    return Status::Unsupported(std::string("staircase join on axis ") +
                               std::string(AxisName(axis)));
  }
  SJ_RETURN_NOT_OK(ValidateContext(acc, context));

  NodeSequence result;
  JoinStats local;
  local.context_size = context.size();
  if (context.empty() || acc.size() == 0) {
    if (stats != nullptr) *stats = local;
    return result;
  }

  // A separate pruning pass when fused pruning is disabled (the fused loop
  // below then finds nothing left to prune; see the ablation bench).
  const NodeSequence* ctx = &context;
  NodeSequence prepruned;
  if (!options.prune_on_the_fly) {
    prepruned = PruneContextOver(acc, context, axis);
    ctx = &prepruned;
  }

  Scan<A> s{acc, !options.keep_attributes, options.use_exact_level, &result,
            local};

  switch (axis) {
    case Axis::kDescendant:
    case Axis::kDescendantOrSelf:
      if (ctx->size() == 1) {
        // Eq. (1) lower-bound reservation for single-context steps:
        // size >= post - pre (at most h short; exactness would need a
        // Level read, which on a paged backend faults a page this join
        // never otherwise touches). Signed + clamped: post < pre for
        // deep leaves, and a failed backend reads 0.
        NodeId c = ctx->front();
        int64_t hint = static_cast<int64_t>(acc.Post(c)) - c + 1;
        if (hint > 1) result.reserve(static_cast<size_t>(hint));
      }
      JoinDesc(*ctx, axis == Axis::kDescendantOrSelf, options.skip_mode, s);
      break;
    case Axis::kAncestor:
    case Axis::kAncestorOrSelf:
      JoinAnc(*ctx, axis == Axis::kAncestorOrSelf, options.skip_mode, s);
      break;
    case Axis::kFollowing:
      JoinFollowing(*ctx, options.skip_mode, s);
      break;
    case Axis::kPreceding:
      JoinPreceding(*ctx, s);
      break;
    default:
      return Status::Internal("unreachable");
  }

  if (axis == Axis::kDescendantOrSelf && !options.keep_attributes) {
    MergeLostAttributeSelves(acc, context, result);
  }

  if (!acc.ok()) return acc.status();

  s.stats.result_size = result.size();
  if (stats != nullptr) *stats = s.stats;
  return result;
}

// --- parallel partitioned driver --------------------------------------------

/// Scans the descendant partitions of kept[lo, hi); partition k ends just
/// before kept[k+1] (kept[hi] belongs to the next worker; the global last
/// partition ends at the document end).
template <DocAccessor A>
void ParallelWorkerDesc(A& acc, const NodeSequence& kept, size_t lo,
                        size_t hi, bool or_self,
                        const StaircaseOptions& options, NodeSequence* result,
                        JoinStats* stats) {
  Scan<A> s{acc, !options.keep_attributes, options.use_exact_level, result,
            JoinStats{}};
  for (size_t k = lo; k < hi; ++k) {
    NodeId c = kept[k];
    uint64_t end = k + 1 < kept.size() ? kept[k + 1] - 1 : acc.size() - 1;
    ++s.stats.pruned_context_size;
    if (or_self) s.AppendSelf(c);
    ScanPartitionDesc(s, options.skip_mode, static_cast<uint64_t>(c) + 1, end,
                      acc.Post(c));
  }
  s.stats.result_size = result->size();
  *stats = s.stats;
}

/// Scans the ancestor partitions of kept[lo, hi); partition k starts just
/// after kept[k-1] (the global first partition starts at the document
/// begin).
template <DocAccessor A>
void ParallelWorkerAnc(A& acc, const NodeSequence& kept, size_t lo, size_t hi,
                       bool or_self, const StaircaseOptions& options,
                       NodeSequence* result, JoinStats* stats) {
  Scan<A> s{acc, !options.keep_attributes, options.use_exact_level, result,
            JoinStats{}};
  for (size_t k = lo; k < hi; ++k) {
    NodeId c = kept[k];
    uint64_t start = k > 0 ? static_cast<uint64_t>(kept[k - 1]) + 1 : 0;
    ++s.stats.pruned_context_size;
    if (c > 0) {
      ScanPartitionAnc(s, options.skip_mode, start, c - 1, acc.Post(c));
    }
    if (or_self) s.AppendSelf(c);
  }
  s.stats.result_size = result->size();
  *stats = s.stats;
}

/// The partitioned parallel staircase join over any backend: Section 3.2's
/// observation that the staircase partitions are disjoint and jointly
/// cover all candidates. `make_accessor` produces one independent cursor
/// per worker (for a paged backend each cursor holds its own pinned
/// pages over a shared, thread-safe buffer pool).
///
/// The gate lives here, once for every backend: only the descendant/
/// ancestor (+ -or-self) axes with at least two workers and |context| >=
/// 2 run partitioned; everything else runs the serial join over one
/// accessor. `pool_capacity` (0: no pool) caps the workers so each can
/// hold its column pages pinned at once: the staircase kernels read only
/// the post/kind/level columns (three pinned pages per worker), and the
/// driver's own pruning accessor holds one more.
template <typename Factory>
Result<NodeSequence> ParallelStaircaseJoinOver(Factory&& make_accessor,
                                               const NodeSequence& context,
                                               Axis axis,
                                               const StaircaseOptions& options,
                                               unsigned num_threads,
                                               JoinStats* stats,
                                               size_t pool_capacity = 0) {
  const bool desc =
      axis == Axis::kDescendant || axis == Axis::kDescendantOrSelf;
  const bool anc = axis == Axis::kAncestor || axis == Axis::kAncestorOrSelf;
  unsigned workers = num_threads;
  if (pool_capacity > 0) {
    workers = std::min(workers, std::max(1u, static_cast<unsigned>(
                                                 (pool_capacity - 1) / 3)));
  }
  if ((!desc && !anc) || workers < 2 || context.size() < 2) {
    auto acc = make_accessor();
    return StaircaseJoinOver(acc, context, axis, options, stats);
  }

  auto main_acc = make_accessor();
  SJ_RETURN_NOT_OK(ValidateContext(main_acc, context));

  NodeSequence kept = PruneContextOver(main_acc, context, axis);
  if (!main_acc.ok()) return main_acc.status();
  if (workers > kept.size()) workers = static_cast<unsigned>(kept.size());

  const bool or_self =
      axis == Axis::kDescendantOrSelf || axis == Axis::kAncestorOrSelf;

  // Dynamic load balancing: the context is cut into several chunks per
  // worker and each worker claims the next one from the mutex-guarded
  // queue when it finishes its current chunk (ChunkQueue, core/parallel.h)
  // -- a static one-range-per-worker split would leave workers idle
  // behind the largest partition. Per-chunk results concatenate in chunk
  // order, so the merged result is identical to the serial join's.
  ChunkQueue queue(kept.size(), static_cast<size_t>(workers) *
                                    kChunksPerWorker);
  std::vector<NodeSequence> results(queue.chunk_count());
  std::vector<JoinStats> worker_stats(workers);
  std::vector<Status> worker_status(workers);
  std::vector<std::thread> threads;
  threads.reserve(workers);
  for (unsigned t = 0; t < workers; ++t) {
    threads.emplace_back([&, t] {
      auto acc = make_accessor();
      size_t chunk, lo, hi;
      while (acc.ok() && queue.Next(&chunk, &lo, &hi)) {
        JoinStats chunk_stats;
        if (desc) {
          ParallelWorkerDesc(acc, kept, lo, hi, or_self, options,
                             &results[chunk], &chunk_stats);
        } else {
          ParallelWorkerAnc(acc, kept, lo, hi, or_self, options,
                            &results[chunk], &chunk_stats);
        }
        worker_stats[t].MergeFrom(chunk_stats);
      }
      worker_status[t] = acc.status();
    });
  }
  for (auto& th : threads) th.join();
  for (const Status& ws : worker_status) SJ_RETURN_NOT_OK(ws);

  size_t total = 0;
  for (const auto& r : results) total += r.size();
  NodeSequence result;
  result.reserve(total);
  for (auto& r : results) {
    result.insert(result.end(), r.begin(), r.end());
  }

  if (axis == Axis::kDescendantOrSelf && !options.keep_attributes) {
    MergeLostAttributeSelves(main_acc, context, result);
  }
  if (!main_acc.ok()) return main_acc.status();

  if (stats != nullptr) {
    JoinStats merged;
    for (const auto& ws : worker_stats) merged.MergeFrom(ws);
    merged.context_size = context.size();
    merged.result_size = result.size();
    merged.workers = threads.size() > 1 ? threads.size() : 1;
    *stats = merged;
  }
  return result;
}

}  // namespace sj::internal

#endif  // STAIRJOIN_CORE_STAIRCASE_IMPL_H_
