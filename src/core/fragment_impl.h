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
// serves the in-memory TagView and the buffer-pool-backed fragments
// (storage/compressed_tags.h).
//
// Skipping on a fragment uses binary search on the pre column instead of
// pre-rank arithmetic -- fragment slots are not dense in pre order. The
// descendant and ancestor joins are one forward pass over the fragment,
// as the document joins are one pass over the document: each context
// node's partition starts where the previous one ended, and a short
// forward probe (LowerBoundFrom) stands in for a binary search wherever
// the next bound lies a few slots ahead. The JoinStats counters keep the
// kernels.h semantics, with "node" meaning "fragment slot":
// nodes_scanned are slots touched with a postorder comparison,
// nodes_copied are slots appended without one (their post column is
// never read -- on a paged backend, never faulted), and nodes_skipped
// are slots never touched at all.
//
// The positional rank selection at the end of the file reuses the same
// cursors for a different question: not "every match of the axis" but
// "the k-th (or last) match per context node", answered by probing the
// fragment at the group's bounds instead of scanning the group.

#ifndef STAIRJOIN_CORE_FRAGMENT_IMPL_H_
#define STAIRJOIN_CORE_FRAGMENT_IMPL_H_

#include <algorithm>
#include <cstdint>

#include "core/axis_impl.h"
#include "core/doc_accessor.h"
#include "core/fragment_cursor.h"
#include "core/staircase_impl.h"
#include "core/staircase_join.h"
#include "util/result.h"

namespace sj::internal {

/// Slots LowerBoundFrom tests one by one before it falls back to a
/// binary search.
inline constexpr size_t kFragmentProbeSlots = 8;

/// LowerBound(pre) for a caller that knows the answer is at slot `from`
/// or later: a forward seek. Consecutive context nodes of a join mostly
/// land a few slots apart, so the seek probes the next
/// kFragmentProbeSlots slots in order and binary-searches only for a
/// long jump -- the amortised `seek` of Leapfrog Triejoin. The probed
/// slots are ones the caller's scan reads next anyway.
template <FragmentCursor F>
size_t LowerBoundFrom(F& frag, size_t from, uint64_t pre) {
  const size_t stop = std::min(frag.size(), from + kFragmentProbeSlots);
  for (size_t j = from; j < stop; ++j) {
    if (frag.Pre(j) >= pre) return j;
  }
  return stop == frag.size() ? stop : frag.LowerBound(pre);
}

/// Descendant / descendant-or-self over a fragment: one forward pass.
/// One partition per surviving context node, scanned against its
/// postorder rank (Algorithm 2); skipping ends a partition at the first
/// Z-region slot (Algorithm 3); estimation copies the guaranteed-
/// descendant slots -- fragment pre ranks <= post(c), Eq. (1) -- without
/// reading the post column, their end found by a forward seek
/// (Algorithm 4). Every partition ends at the slot where the next one
/// starts, so only the first context node is searched for.
template <FragmentCursor F, DocAccessor A>
void FragJoinDesc(F& frag, A& acc, const NodeSequence& kept, bool or_self,
                  SkipMode mode, NodeSequence* result, JoinStats* stats) {
  const uint64_t n = acc.size();
  size_t j = frag.LowerBound(kept.front());
  for (size_t k = 0; k < kept.size(); ++k) {
    NodeId c = kept[k];
    uint64_t limit = k + 1 < kept.size() ? kept[k + 1] - 1 : n - 1;
    uint32_t bound = acc.Post(c);
    if (j < frag.size() && frag.Pre(j) == c) {
      // The context node itself carries the fragment's tag.
      if (or_self) result->push_back(c);
      ++j;
    }
    if (mode == SkipMode::kEstimated) {
      // Copy phase: slots with pre <= post(c) are guaranteed descendants
      // of c (Eq. (1)); no postorder comparison needed.
      size_t guaranteed =
          LowerBoundFrom(frag, j, static_cast<uint64_t>(bound) + 1);
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
        j = end;
        break;
      }
    }
  }
}

/// Ancestor / ancestor-or-self over a fragment: one forward pass. One
/// window per surviving context node c, the slots between the previous
/// window's end and c, its end found by a forward seek. A slot below the
/// boundary heads a subtree that entirely precedes c, so skipping
/// resumes past its guaranteed descendants -- the first slot with pre >
/// post (Section 3.3, with the binary search standing in for pre-rank
/// arithmetic).
template <FragmentCursor F, DocAccessor A>
void FragJoinAnc(F& frag, A& acc, const NodeSequence& kept, bool or_self,
                 SkipMode mode, NodeSequence* result, JoinStats* stats) {
  size_t j = 0;
  for (size_t k = 0; k < kept.size(); ++k) {
    NodeId c = kept[k];
    uint32_t bound = acc.Post(c);
    // Slots with pre < pre(c). The first window binary-searches: its
    // scan reads only post ranks from slot 0 on, so probing pre ranks
    // there could fault a page the join never needs.
    size_t end = k == 0 ? frag.LowerBound(c) : LowerBoundFrom(frag, j, c);
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
    // The next window starts past c's own slot: pruning leaves no
    // context node that is an ancestor of another, so c is no candidate
    // for the windows to come. The last window has none.
    if ((or_self || k + 1 < kept.size()) && j < frag.size() &&
        frag.Pre(j) == c) {
      if (or_self) result->push_back(c);
      ++j;
    }
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
/// <= post(v), Eq. (1)), its end found by a forward seek: a preceding
/// node's whole subtree precedes.
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
        size_t next = std::min(
            LowerBoundFrom(frag, j, static_cast<uint64_t>(post) + 1), end);
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
/// member of the fragment (the pre rank at the slot the forward pass
/// reaches c on), so no tag column is consulted at all -- on a paged
/// backend even the self test is charged to the pool.
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

/// A positional step's leading rank predicate, counted in axis order:
/// `[position]` or `[last()]`.
struct PositionalRank {
  bool last = false;
  uint64_t position = 1;  ///< 1-based; unused when `last`
};

/// The axes PositionalRankSelectOver serves. Parent, ancestor(-or-self)
/// and self read at most h nodes per context node through the document
/// scan already; attribute nodes have no tag fragment.
constexpr bool IsFragmentRankAxis(Axis axis) {
  switch (axis) {
    case Axis::kChild:
    case Axis::kDescendant:
    case Axis::kDescendantOrSelf:
    case Axis::kFollowing:
    case Axis::kPreceding:
    case Axis::kFollowingSibling:
    case Axis::kPrecedingSibling:
      return true;
    default:
      return false;
  }
}

/// The `nth` fragment member (1-based, in document order, or from the
/// back when `backward`) among the element slots in pre range [lo, hi]
/// at `level` -- the children of one parent, or a run of them. A slot
/// deeper than `level` lies inside the subtree of a group member x (its
/// ancestor at `level`, reached through Parent reads), and every slot of
/// x's subtree is deeper too: the forward walk jumps past end(x), the
/// backward walk resumes at the last slot with pre <= x (x itself when
/// it carries the tag). The neighbouring slot is tested before a binary
/// search, so the walk visits at most one slot per group member, as the
/// document scan visits one node per member.
template <FragmentCursor F, DocAccessor A>
NodeId FragSiblingSelect(F& frag, A& acc, uint64_t lo, uint64_t hi,
                         uint32_t level, bool backward, uint64_t nth,
                         JoinStats* stats) {
  if (hi < lo) return kNilNode;
  uint64_t count = 0;
  // The group member containing the slot at pre rank p: p itself when p
  // sits at `level`. The climb is bounded by the level, so failed reads
  // (zeros) still terminate.
  auto member_of = [&acc, level](NodeId p) {
    uint64_t x = p;
    for (uint32_t lv = acc.Level(p); lv > level; --lv) x = acc.Parent(x);
    return x;
  };
  if (!backward) {
    size_t s = frag.LowerBound(lo);
    while (s < frag.size()) {
      const NodeId p = frag.Pre(s);
      if (p > hi) break;
      ++stats->nodes_scanned;
      const uint64_t x = member_of(p);
      if (x == p && ++count == nth) return p;
      const uint64_t end = SubtreeEndOver(acc, x);
      size_t next = s + 1;
      if (next < frag.size() && frag.Pre(next) <= end) {
        next = std::max(next, frag.LowerBound(end + 1));
        stats->nodes_skipped += next - s - 1;
        frag.SkipTo(next);
      }
      s = next;
    }
    return kNilNode;
  }
  size_t s = frag.LowerBound(hi + 1);  // slots below s have pre <= hi
  while (s > 0) {
    const size_t t = s - 1;
    const NodeId p = frag.Pre(t);
    if (p < lo) break;
    ++stats->nodes_scanned;
    const uint64_t x = member_of(p);
    if (x == p && ++count == nth) return p;
    s = t;
    if (x != p && t > 0 && frag.Pre(t - 1) > x) {
      s = std::min(t, frag.LowerBound(x + 1));
      stats->nodes_skipped += t - s;
    }
  }
  return kNilNode;
}

/// The `nth` member (1-based, from the front or the back) of the
/// contiguous slot range [lo, hi) -- a descendant or following group is
/// every fragment slot between two pre bounds, so ranking is slot
/// arithmetic: one Pre read, no comparison.
template <FragmentCursor F>
NodeId FragRangeSelect(F& frag, size_t lo, size_t hi, bool backward,
                       uint64_t nth, JoinStats* stats) {
  if (hi <= lo || hi - lo < nth) return kNilNode;
  ++stats->nodes_copied;
  stats->nodes_skipped += nth - 1;
  return frag.Pre(backward ? hi - nth : lo + nth - 1);
}

/// \brief Positional rank selection over one tag fragment: for each
/// context node c, the `rank`-th match of `<axis>::T` (T the fragment's
/// tag), read with fragment probes instead of building c's whole axis
/// group. Per axis (end(v) = SubtreeEndOver(acc, v)):
///
///   descendant(-or-self)  slots [LowerBound(c+1) (or c), LowerBound(
///                         end(c)+1)): [k] is one slot read, [last()]
///                         the slot before the end;
///   following             slots [LowerBound(end(c)+1), size());
///   child, following-     FragSiblingSelect over c's children, resp.
///   and preceding-sibling the parent's children after / before c;
///   preceding             a walk outward from LowerBound(c)-1 (for
///                         [k]) or from slot 0 (for [last()]) that
///                         skips the <= h ancestors of c by their post
///                         rank.
///
/// Reverse axes count [k] from c outward, so preceding(-sibling) [k]
/// walks backward and [last()] forward. Output: one group per context
/// node holding its match or nothing, in context order -- the shape of
/// PositionalAxisStepOver, so the caller applies the step's remaining
/// predicates per group. Stats: nodes_scanned are slots compared (a
/// level or post test), nodes_copied slots selected by arithmetic alone,
/// nodes_skipped slots passed over without a read.
template <FragmentCursor F, DocAccessor A>
Result<PositionalGroups> PositionalRankSelectOver(F& frag, A& acc,
                                                  const NodeSequence& context,
                                                  Axis axis,
                                                  PositionalRank rank,
                                                  JoinStats* stats) {
  if (!IsFragmentRankAxis(axis)) {
    return Status::Unsupported(
        std::string("positional rank selection on axis ") +
        std::string(AxisName(axis)));
  }
  SJ_RETURN_NOT_OK(ValidateContext(acc, context));
  PositionalGroups groups;
  groups.offsets.reserve(context.size() + 1);
  groups.offsets.push_back(0);
  JoinStats local;
  local.context_size = context.size();
  local.pruned_context_size = context.size();
  const bool reverse =
      axis == Axis::kPreceding || axis == Axis::kPrecedingSibling;
  // Which end of the document-order group the rank counts from.
  const bool backward = rank.last != reverse;
  const uint64_t nth = rank.last ? 1 : rank.position;

  for (NodeId c : context) {
    NodeId hit = kNilNode;
    if (frag.size() > 0) {
      switch (axis) {
        case Axis::kDescendant:
        case Axis::kDescendantOrSelf: {
          const uint64_t end = SubtreeEndOver(acc, c);
          const size_t lo = frag.LowerBound(
              axis == Axis::kDescendant ? uint64_t{c} + 1 : uint64_t{c});
          if (backward) {
            hit = FragRangeSelect(frag, lo, frag.LowerBound(end + 1), true,
                                  nth, &local);
          } else if (lo + nth - 1 < frag.size()) {
            // [k] needs no upper bound probe: one slot read, tested
            // against end(c).
            ++local.nodes_scanned;
            local.nodes_skipped += nth - 1;
            const NodeId p = frag.Pre(lo + nth - 1);
            if (p <= end) hit = p;
          }
          break;
        }
        case Axis::kFollowing:
          hit = FragRangeSelect(frag,
                                frag.LowerBound(SubtreeEndOver(acc, c) + 1),
                                frag.size(), backward, nth, &local);
          break;
        case Axis::kChild:
          hit = FragSiblingSelect(frag, acc, uint64_t{c} + 1,
                                  SubtreeEndOver(acc, c),
                                  uint32_t{acc.Level(c)} + 1, backward, nth,
                                  &local);
          break;
        case Axis::kFollowingSibling:
        case Axis::kPrecedingSibling: {
          if (acc.Kind(c) == kAttrKind) break;
          const NodeId p = acc.Parent(c);
          if (p == kNilNode) break;
          const bool following = axis == Axis::kFollowingSibling;
          const uint64_t lo =
              following ? SubtreeEndOver(acc, c) + 1 : uint64_t{p} + 1;
          const uint64_t hi = following ? SubtreeEndOver(acc, p)
                                        : uint64_t{c} - 1;  // c excluded
          if (lo <= hi) {
            hit = FragSiblingSelect(frag, acc, lo, hi, acc.Level(c), backward,
                                    nth, &local);
          }
          break;
        }
        case Axis::kPreceding: {
          // Slots left of c are preceding unless they are ancestors of c
          // (post > post(c)); at most h of them interleave the walk.
          const uint32_t bound = acc.Post(c);
          const size_t end = frag.LowerBound(c);
          uint64_t count = 0;
          for (size_t i = 0; i < end; ++i) {
            const size_t t = backward ? end - 1 - i : i;
            ++local.nodes_scanned;
            if (frag.Post(t) < bound && ++count == nth) {
              hit = frag.Pre(t);
              break;
            }
          }
          break;
        }
        default:
          return Status::Internal("unreachable");
      }
    }
    if (hit != kNilNode) groups.nodes.push_back(hit);
    groups.offsets.push_back(groups.nodes.size());
  }

  if (!acc.ok()) return acc.status();
  if (!frag.ok()) return frag.status();
  local.result_size = groups.nodes.size();
  if (stats != nullptr) *stats = local;
  return groups;
}

}  // namespace sj::internal

#endif  // STAIRJOIN_CORE_FRAGMENT_IMPL_H_
