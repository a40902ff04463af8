// Internal scan kernels of the staircase join (Algorithms 2-4), generic
// over the storage backend (core/doc_accessor.h).
//
// This header is internal to the library: the stable entry points are
// StaircaseJoin (core/staircase_join.h) and ParallelStaircaseJoin
// (core/parallel.h); the evaluator drives the same joins over every
// backend's accessor (xpath/backend_dispatch.h). The
// kernels are exposed here so that the join drivers, the parallel workers
// and the micro benchmarks all instantiate exactly the same loops.

#ifndef STAIRJOIN_CORE_KERNELS_H_
#define STAIRJOIN_CORE_KERNELS_H_

#include <algorithm>
#include <cstdint>

#include "core/doc_accessor.h"
#include "core/staircase_join.h"
#include "core/stats.h"
#include "encoding/doc_table.h"

namespace sj::internal {

inline constexpr uint8_t kAttrKind = static_cast<uint8_t>(NodeKind::kAttribute);

/// Shared scan state: the backend cursor plus counters.
template <DocAccessor A>
struct Scan {
  A& acc;
  bool filter_attributes;
  bool use_exact_level;
  NodeSequence* result;
  JoinStats stats;

  void Append(uint64_t pre) {
    if (!filter_attributes || acc.Kind(pre) != kAttrKind) {
      result->push_back(static_cast<NodeId>(pre));
    }
  }

  /// Appends a context node itself (-or-self variants). Self nodes are
  /// exempt from attribute filtering: only *axis* results exclude
  /// attributes; the self node is part of the result by definition.
  void AppendSelf(NodeId c) { result->push_back(c); }
};

// --- descendant -------------------------------------------------------------

/// Algorithm 2's scanpartition with theta = '<' (descendant): scans
/// [pre1, pre2] (inclusive) against `post_bound`.
template <DocAccessor A>
void ScanPartitionDescBasic(Scan<A>& s, uint64_t pre1, uint64_t pre2,
                            uint32_t post_bound) {
  for (uint64_t i = pre1; i <= pre2; ++i) {
    ++s.stats.nodes_scanned;
    if (s.acc.Post(i) < post_bound) s.Append(i);
  }
}

/// Algorithm 3: terminates at the first node outside the boundary; the
/// remainder of the partition is an empty Z region (paper Fig. 7b/9).
template <DocAccessor A>
void ScanPartitionDescSkip(Scan<A>& s, uint64_t pre1, uint64_t pre2,
                           uint32_t post_bound) {
  for (uint64_t i = pre1; i <= pre2; ++i) {
    ++s.stats.nodes_scanned;
    if (s.acc.Post(i) < post_bound) {
      s.Append(i);
    } else {
      s.stats.nodes_skipped += pre2 - i;  // nodes i+1 .. pre2 never touched
      s.acc.SkipTo(pre2 + 1);
      return;
    }
  }
}

/// Algorithm 4: estimation-based skipping. The first post(c) - pre(c)
/// nodes after context node c are guaranteed descendants (Eq. (1) with
/// level >= 0); they are copied without postorder comparisons -- on a
/// paged backend that means without reading postorder pages at all. At
/// most h candidates remain for the scan phase.
template <DocAccessor A>
void ScanPartitionDescEstimated(Scan<A>& s, uint64_t pre1, uint64_t pre2,
                                uint32_t post_bound) {
  // `post_bound` is post(c) and pre1 is pre(c)+1, so the copy phase covers
  // pre ranks [pre(c)+1, post(c)], clamped to the partition.
  uint64_t estimate = std::min<uint64_t>(pre2, post_bound);
  uint64_t i = pre1;
  if (s.filter_attributes) {
    for (; i <= estimate; ++i) {
      ++s.stats.nodes_copied;
      if (s.acc.Kind(i) != kAttrKind) {
        s.result->push_back(static_cast<NodeId>(i));
      }
    }
  } else if (estimate >= i) {
    // Branch-free bulk copy: the cache-bound fast path of Section 4.2/4.3.
    // No column is read at all, so this is backend-independent.
    size_t count = static_cast<size_t>(estimate - i + 1);
    size_t old = s.result->size();
    s.result->resize(old + count);
    NodeId* out = s.result->data() + old;
    for (size_t k = 0; k < count; ++k) {
      out[k] = static_cast<NodeId>(i + k);
    }
    s.stats.nodes_copied += count;
    i = estimate + 1;
    s.acc.SkipTo(i);
  }
  for (; i <= pre2; ++i) {
    ++s.stats.nodes_scanned;
    if (s.acc.Post(i) < post_bound) {
      s.Append(i);
    } else {
      s.stats.nodes_skipped += pre2 - i;
      s.acc.SkipTo(pre2 + 1);
      return;
    }
  }
}

template <DocAccessor A>
void ScanPartitionDesc(Scan<A>& s, SkipMode mode, uint64_t pre1,
                       uint64_t pre2, uint32_t post_bound) {
  if (pre1 > pre2) return;
  switch (mode) {
    case SkipMode::kNone:
      ScanPartitionDescBasic(s, pre1, pre2, post_bound);
      break;
    case SkipMode::kSkip:
      ScanPartitionDescSkip(s, pre1, pre2, post_bound);
      break;
    case SkipMode::kEstimated:
      ScanPartitionDescEstimated(s, pre1, pre2, post_bound);
      break;
  }
}

// --- ancestor ---------------------------------------------------------------

/// Algorithm 2's scanpartition with theta = '>' (ancestor). Attribute
/// nodes never pass (they close before any later node opens), so no kind
/// filtering is needed on this path.
template <DocAccessor A>
void ScanPartitionAncBasic(Scan<A>& s, uint64_t pre1, uint64_t pre2,
                           uint32_t post_bound) {
  for (uint64_t i = pre1; i <= pre2; ++i) {
    ++s.stats.nodes_scanned;
    if (s.acc.Post(i) > post_bound) {
      s.result->push_back(static_cast<NodeId>(i));
    }
  }
}

/// Section 3.3 skipping for ancestor: a node v below the boundary is in
/// the preceding region of the context node, and so is v's entire subtree;
/// Eq. (1) estimates its size as post(v) - pre(v) (exact with the level
/// term, maximally h too small without it).
template <DocAccessor A>
void ScanPartitionAncSkip(Scan<A>& s, uint64_t pre1, uint64_t pre2,
                          uint32_t post_bound) {
  uint64_t i = pre1;
  while (i <= pre2) {
    ++s.stats.nodes_scanned;
    uint32_t post = s.acc.Post(i);
    if (post > post_bound) {
      s.result->push_back(static_cast<NodeId>(i));
      ++i;
    } else {
      uint64_t subtree = post >= i ? post - i : 0;
      if (s.use_exact_level) subtree = post - i + s.acc.Level(i);
      uint64_t next = std::min(i + subtree + 1, pre2 + 1);
      s.stats.nodes_skipped += next - i - 1;
      if (next > i + 1) s.acc.SkipTo(next);  // may leap whole pages
      i = next;
    }
  }
}

template <DocAccessor A>
void ScanPartitionAnc(Scan<A>& s, SkipMode mode, uint64_t pre1,
                      uint64_t pre2, uint32_t post_bound) {
  if (pre1 > pre2) return;
  if (mode == SkipMode::kNone) {
    ScanPartitionAncBasic(s, pre1, pre2, post_bound);
  } else {
    ScanPartitionAncSkip(s, pre1, pre2, post_bound);
  }
}

}  // namespace sj::internal

#endif  // STAIRJOIN_CORE_KERNELS_H_
