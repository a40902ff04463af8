// Backend-generic *fragment* staircase-join drivers, internal.
//
// This header holds the ONE implementation of the paper's Section 4.4
// name-test pushdown (`nametest(scj(doc, cs), n) == scj(nametest(doc, n),
// cs)`): the staircase join run directly over a pre-sorted per-tag
// projection. It is the fragment-shaped sibling of core/staircase_impl.h
// -- Algorithms 1-4 exist exactly once per shape: kernels.h /
// staircase_impl.h for whole documents, this file for fragments.
//
// Everything is parameterized over a FragmentCursor (the fragment's
// pre/post columns, core/fragment_cursor.h) plus a DocAccessor (the
// context nodes' postorder ranks, core/doc_accessor.h), so one body
// serves the in-memory TagView and the buffer-pool-backed paged
// fragments (storage/paged_tags.h).
//
// Skipping on a fragment uses binary search on the pre column instead of
// pre-rank arithmetic -- fragment slots are not dense in pre order. The
// JoinStats counters keep the kernels.h semantics, with "node" meaning
// "fragment slot": nodes_scanned are slots touched with a postorder
// comparison, nodes_copied are slots appended without one (their post
// column is never read -- on a paged backend, never faulted), and
// nodes_skipped are slots never touched at all.

#ifndef STAIRJOIN_CORE_FRAGMENT_IMPL_H_
#define STAIRJOIN_CORE_FRAGMENT_IMPL_H_

#include <algorithm>
#include <cstdint>

#include "core/doc_accessor.h"
#include "core/fragment_cursor.h"
#include "core/staircase_impl.h"
#include "core/staircase_join.h"
#include "util/result.h"

namespace sj::internal {

/// Descendant / descendant-or-self over a fragment. One partition per
/// surviving context node, scanned against its postorder rank
/// (Algorithm 2); skipping ends a partition at the first Z-region slot
/// (Algorithm 3); estimation copies the guaranteed-descendant slots --
/// fragment pre ranks <= post(c), Eq. (1) -- without reading the post
/// column (Algorithm 4).
template <FragmentCursor F, DocAccessor A>
void FragJoinDesc(F& frag, A& acc, const NodeSequence& kept, bool or_self,
                  SkipMode mode, NodeSequence* result, JoinStats* stats) {
  const uint64_t n = acc.size();
  for (size_t k = 0; k < kept.size(); ++k) {
    NodeId c = kept[k];
    uint64_t limit = k + 1 < kept.size() ? kept[k + 1] - 1 : n - 1;
    uint32_t bound = acc.Post(c);
    size_t j = frag.LowerBound(c);
    if (j < frag.size() && frag.Pre(j) == c) {
      // The context node itself carries the fragment's tag.
      if (or_self) result->push_back(c);
      ++j;
    }
    if (mode == SkipMode::kEstimated) {
      // Copy phase: slots with pre <= post(c) are guaranteed descendants
      // of c (Eq. (1)); no postorder comparison needed.
      size_t guaranteed = frag.LowerBound(static_cast<uint64_t>(bound) + 1);
      for (; j < guaranteed; ++j) {
        ++stats->nodes_copied;
        result->push_back(frag.Pre(j));
      }
    }
    for (; j < frag.size(); ++j) {
      NodeId pre = frag.Pre(j);
      if (pre > limit) break;
      ++stats->nodes_scanned;
      if (frag.Post(j) < bound) {
        result->push_back(pre);
      } else if (mode != SkipMode::kNone) {
        // Z region: no later slot in this partition matches. The final
        // partition ends the fragment, so its slot count needs no
        // LowerBound (which on a paged backend would fault a page only
        // to count the slots skipping promises never to touch).
        size_t end = limit + 1 >= n ? frag.size() : frag.LowerBound(limit + 1);
        stats->nodes_skipped += end - j - 1;
        frag.SkipTo(end);
        break;
      }
    }
  }
}

/// Ancestor / ancestor-or-self over a fragment. One window per surviving
/// context node; a slot below the boundary heads a subtree that entirely
/// precedes the context node, so skipping resumes past its guaranteed
/// descendants -- the first slot with pre > post (Section 3.3, with the
/// binary search standing in for pre-rank arithmetic).
template <FragmentCursor F, DocAccessor A>
void FragJoinAnc(F& frag, A& acc, const NodeSequence& kept, bool or_self,
                 SkipMode mode, NodeSequence* result, JoinStats* stats) {
  uint64_t window_start = 0;
  for (size_t k = 0; k < kept.size(); ++k) {
    NodeId c = kept[k];
    uint32_t bound = acc.Post(c);
    size_t j = frag.LowerBound(window_start);
    size_t end = frag.LowerBound(c);  // slots with pre < pre(c)
    while (j < end) {
      ++stats->nodes_scanned;
      uint32_t post = frag.Post(j);
      if (post > bound) {
        result->push_back(frag.Pre(j));
        ++j;
      } else if (mode == SkipMode::kNone) {
        ++j;
      } else {
        size_t next = frag.LowerBound(static_cast<uint64_t>(post) + 1);
        next = std::max(next, j + 1);
        stats->nodes_skipped += next - j - 1;
        frag.SkipTo(next);
        j = next;
      }
    }
    if (or_self && end < frag.size() && frag.Pre(end) == c) {
      result->push_back(c);
    }
    window_start = static_cast<uint64_t>(c) + 1;
  }
}

/// Following over a fragment: a single region query from the minimum-
/// postorder context node m (Section 3.1). Skipping jumps straight to the
/// first slot with pre > post(m) -- everything before it is a descendant
/// of m -- and after the first hit the remainder is a pure copy.
template <FragmentCursor F, DocAccessor A>
void FragJoinFollowing(F& frag, A& acc, NodeId m, SkipMode mode,
                       NodeSequence* result, JoinStats* stats) {
  uint32_t bound = acc.Post(m);
  size_t j = frag.LowerBound(static_cast<uint64_t>(m) + 1);
  if (mode != SkipMode::kNone) {
    size_t start = frag.LowerBound(static_cast<uint64_t>(bound) + 1);
    if (start > j) {
      stats->nodes_skipped += start - j;
      frag.SkipTo(start);
      j = start;
    }
  }
  bool copying = false;
  for (; j < frag.size(); ++j) {
    if (copying) {
      ++stats->nodes_copied;
      result->push_back(frag.Pre(j));
      continue;
    }
    ++stats->nodes_scanned;
    if (frag.Post(j) > bound) {
      result->push_back(frag.Pre(j));
      if (mode != SkipMode::kNone) copying = true;
    }
  }
}

/// Preceding over a fragment: a single region query left of the maximum-
/// preorder context node. Slots that fail the postorder test are
/// ancestors of the context node (<= h of them), so nothing can be
/// skipped -- but under kEstimated every *hit* v opens a comparison-free
/// copy phase over v's guaranteed descendants (fragment pre ranks
/// <= post(v), Eq. (1)): a preceding node's whole subtree precedes.
template <FragmentCursor F, DocAccessor A>
void FragJoinPreceding(F& frag, A& acc, NodeId big, SkipMode mode,
                       NodeSequence* result, JoinStats* stats) {
  uint32_t bound = acc.Post(big);
  size_t end = frag.LowerBound(big);  // slots with pre < pre(big)
  size_t j = 0;
  while (j < end) {
    ++stats->nodes_scanned;
    uint32_t post = frag.Post(j);
    if (post < bound) {
      result->push_back(frag.Pre(j));
      ++j;
      if (mode == SkipMode::kEstimated) {
        size_t next =
            std::min(frag.LowerBound(static_cast<uint64_t>(post) + 1), end);
        for (; j < next; ++j) {
          ++stats->nodes_copied;
          result->push_back(frag.Pre(j));
        }
      }
    } else {
      ++j;  // an ancestor of the context node: not preceding
    }
  }
}

/// The fragment staircase join over any backend pair: validation, pruning
/// (Algorithm 1 over the *document* accessor -- context nodes are doc
/// rows), the per-axis fragment drivers above, stats. StaircaseJoinView
/// (core/tag_view.cc) is a thin shim around this function.
///
/// -or-self semantics: a context node contributes itself iff it is a
/// member of the fragment (found by binary search on the pre column), so
/// no tag column is consulted at all -- on a paged backend even the self
/// test is charged to the pool.
template <FragmentCursor F, DocAccessor A>
Result<NodeSequence> FragmentStaircaseJoinOver(F& frag, A& acc,
                                               const NodeSequence& context,
                                               Axis axis,
                                               const StaircaseOptions& options,
                                               JoinStats* stats) {
  if (!IsStaircaseAxis(axis)) {
    return Status::Unsupported(std::string("staircase view join on axis ") +
                               std::string(AxisName(axis)));
  }
  SJ_RETURN_NOT_OK(ValidateContext(acc, context));

  NodeSequence result;
  JoinStats local;
  local.context_size = context.size();
  if (context.empty() || frag.size() == 0) {
    // An empty fragment has no members, so even -or-self contributes
    // nothing (a self node matching the name test would be in the
    // fragment).
    if (stats != nullptr) *stats = local;
    return result;
  }

  NodeSequence kept = PruneContextOver(acc, context, axis);
  local.pruned_context_size = kept.size();

  switch (axis) {
    case Axis::kDescendant:
    case Axis::kDescendantOrSelf:
      FragJoinDesc(frag, acc, kept, axis == Axis::kDescendantOrSelf,
                   options.skip_mode, &result, &local);
      break;
    case Axis::kAncestor:
    case Axis::kAncestorOrSelf:
      FragJoinAnc(frag, acc, kept, axis == Axis::kAncestorOrSelf,
                  options.skip_mode, &result, &local);
      break;
    case Axis::kFollowing:
      FragJoinFollowing(frag, acc, kept.front(), options.skip_mode, &result,
                        &local);
      break;
    case Axis::kPreceding:
      FragJoinPreceding(frag, acc, kept.front(), options.skip_mode, &result,
                        &local);
      break;
    default:
      return Status::Internal("unreachable");
  }

  if (!acc.ok()) return acc.status();
  if (!frag.ok()) return frag.status();

  local.result_size = result.size();
  if (stats != nullptr) *stats = local;
  return result;
}

}  // namespace sj::internal

#endif  // STAIRJOIN_CORE_FRAGMENT_IMPL_H_
