// Backend-generic set-at-a-time kernels for the non-staircase axes,
// internal.
//
// This header holds the ONE implementation of the child / parent /
// attribute / following-sibling / preceding-sibling / self axis steps,
// parameterized over a DocAccessor (core/doc_accessor.h) exactly like
// the staircase kernels of core/kernels.h. The public entry point is
// AxisCursorStep (core/axis_step.cc, in-memory backend); the evaluator
// runs the same kernels over every backend's accessor
// (xpath/backend_dispatch.h); baselines/naive.h remains as the
// per-context oracle only.
//
// The three sibling-shaped axes (child, following-sibling,
// preceding-sibling) reduce to the same sorted-context merge: each
// surviving context node opens one *frame* -- a pre-rank interval
// scanned with subtree jumps (a sibling's whole subtree is stepped over
// via Eq. (1), so interior nodes are never touched; on a paged backend,
// never faulted). Frame regions are laminar (two regions are disjoint
// or properly nested, because sibling ranges live inside parent
// subtrees), so a stack merges them into duplicate-free document-order
// output without a sort: a frame revealed inside another frame's jump
// runs to completion before the outer frame resumes.
//
// Covered-context pruning mirrors Algorithm 1: following-siblings of a
// later same-parent context node are a subset of the earliest one's
// (dually, preceding-siblings of an earlier one are covered by the
// latest), so only one frame per parent survives. Child sets of
// distinct context nodes are disjoint, so child frames need no pruning.
//
// JoinStats keep the kernels.h semantics: nodes_scanned are candidate
// positions examined (one Kind read, plus a Tag read iff the folded
// node test needs it), nodes_skipped are positions jumped over, and
// pruned_context_size counts the frames actually scanned.

#ifndef STAIRJOIN_CORE_AXIS_IMPL_H_
#define STAIRJOIN_CORE_AXIS_IMPL_H_

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "bat/operators.h"
#include "core/axis_step.h"
#include "core/doc_accessor.h"
#include "core/staircase_impl.h"
#include "util/result.h"

namespace sj::internal {

/// The subtree of v spans pre ranks [v, post(v) + level(v)] -- Eq. (1)
/// with the exact level term.
template <DocAccessor A>
uint64_t SubtreeEndOver(A& acc, uint64_t v) {
  return static_cast<uint64_t>(acc.Post(v)) + acc.Level(v);
}

/// One sibling-scan frame: candidate positions [v, end], visited with
/// subtree jumps.
struct AxisFrame {
  uint64_t v = 0;    ///< next candidate position
  uint64_t end = 0;  ///< last position of the frame (inclusive)
};

/// Merges sibling frames (sorted by start, laminar regions -- see file
/// comment) over one cursor into duplicate-free document-order output.
template <DocAccessor A>
void MergeSiblingFrames(A& acc, const std::vector<AxisFrame>& frames,
                        AxisNodeTest test, NodeSequence* result,
                        JoinStats* stats) {
  std::vector<AxisFrame> stack;
  size_t j = 0;
  const size_t m = frames.size();
  while (j < m || !stack.empty()) {
    if (stack.empty()) {
      stack.push_back(frames[j++]);
      continue;
    }
    if (j < m && frames[j].v < stack.back().v) {
      // The next frame lies inside a subtree the top frame jumped over;
      // its emissions precede the top frame's next candidate.
      stack.push_back(frames[j++]);
      continue;
    }
    AxisFrame& f = stack.back();
    if (f.v > f.end) {
      stack.pop_back();
      continue;
    }
    const uint64_t w = f.v;
    ++stats->nodes_scanned;
    const uint8_t kind = acc.Kind(w);
    if (kind == kAttrKind) {
      // Attribute nodes are ranked between their owner and its first
      // child; they are not children/siblings. Step over.
      f.v = w + 1;
      continue;
    }
    if (test.Matches(acc, w, kind)) result->push_back(static_cast<NodeId>(w));
    // A failed backend reads 0, which can place the subtree end left of
    // w; clamp so the cursor always advances (reads of 0 must still
    // terminate -- the driver surfaces the sticky error afterwards).
    const uint64_t wend = SubtreeEndOver(acc, w);
    f.v = std::max(w + 1, wend + 1);
    if (wend > w) {
      stats->nodes_skipped += wend - w;
      // Announce the jump so a paged backend can release the pages it
      // holds; the next read is either the jump target or a nested
      // frame's start, whichever comes first.
      uint64_t next = f.v;
      if (j < m && frames[j].v < next) next = frames[j].v;
      acc.SkipTo(next);
    }
  }
}

/// child: one frame per context node over its own subtree (child sets
/// of distinct nodes are disjoint; context order == start order).
template <DocAccessor A>
std::vector<AxisFrame> ChildFrames(A& acc, const NodeSequence& context) {
  std::vector<AxisFrame> frames;
  frames.reserve(context.size());
  for (NodeId c : context) {
    uint64_t end = SubtreeEndOver(acc, c);
    if (end > c) frames.push_back({static_cast<uint64_t>(c) + 1, end});
  }
  return frames;
}

/// The (parent, context) pairs of the sibling axes: attribute nodes and
/// the root have no siblings.
template <DocAccessor A>
std::vector<std::pair<NodeId, NodeId>> SiblingPairs(
    A& acc, const NodeSequence& context) {
  std::vector<std::pair<NodeId, NodeId>> pairs;
  pairs.reserve(context.size());
  for (NodeId c : context) {
    if (acc.Kind(c) == kAttrKind) continue;
    NodeId p = acc.Parent(c);
    if (p == kNilNode) continue;
    pairs.emplace_back(p, c);
  }
  std::sort(pairs.begin(), pairs.end());
  return pairs;
}

/// following-sibling: one frame per distinct parent, opened by its
/// *earliest* context child (later same-parent context nodes are
/// covered), scanning from past the child's subtree to the parent's
/// subtree end.
template <DocAccessor A>
std::vector<AxisFrame> FollowingSiblingFrames(A& acc,
                                              const NodeSequence& context) {
  std::vector<std::pair<NodeId, NodeId>> pairs = SiblingPairs(acc, context);
  std::vector<AxisFrame> frames;
  frames.reserve(pairs.size());
  for (size_t i = 0; i < pairs.size(); ++i) {
    if (i > 0 && pairs[i].first == pairs[i - 1].first) continue;  // covered
    uint64_t v = SubtreeEndOver(acc, pairs[i].second) + 1;
    uint64_t end = SubtreeEndOver(acc, pairs[i].first);
    if (v <= end) frames.push_back({v, end});
  }
  // Frame starts follow subtree ends, not context order (a nested
  // context node's siblings can precede an enclosing one's).
  std::sort(frames.begin(), frames.end(),
            [](const AxisFrame& a, const AxisFrame& b) { return a.v < b.v; });
  return frames;
}

/// preceding-sibling: one frame per distinct parent, opened by its
/// *latest* context child, scanning from the parent's first child up to
/// (excluding) the context child. Sorting by parent already sorts the
/// frames by start.
template <DocAccessor A>
std::vector<AxisFrame> PrecedingSiblingFrames(A& acc,
                                              const NodeSequence& context) {
  std::vector<std::pair<NodeId, NodeId>> pairs = SiblingPairs(acc, context);
  std::vector<AxisFrame> frames;
  frames.reserve(pairs.size());
  for (size_t i = 0; i < pairs.size(); ++i) {
    if (i + 1 < pairs.size() && pairs[i + 1].first == pairs[i].first) {
      continue;  // covered by the later same-parent context node
    }
    NodeId p = pairs[i].first;
    NodeId c = pairs[i].second;
    if (c > static_cast<uint64_t>(p) + 1) {
      frames.push_back({static_cast<uint64_t>(p) + 1,
                        static_cast<uint64_t>(c) - 1});
    }
  }
  return frames;
}

/// parent: one Parent read per context node, test folded. Parents of a
/// sorted context are *nearly* sorted (siblings share one, nested
/// contexts interleave), so the common case dedups adjacent repeats and
/// only genuinely out-of-order output pays a sort.
template <DocAccessor A>
void ParentKernel(A& acc, const NodeSequence& context, AxisNodeTest test,
                  NodeSequence* result, JoinStats* stats) {
  bool sorted = true;
  for (NodeId c : context) {
    NodeId p = acc.Parent(c);
    if (p == kNilNode) continue;
    ++stats->nodes_scanned;
    if (!test.accept_all && !test.Matches(acc, p, acc.Kind(p))) continue;
    if (!result->empty()) {
      if (result->back() == p) {
        ++stats->duplicates_removed;
        continue;
      }
      if (result->back() > p) sorted = false;
    }
    result->push_back(p);
  }
  if (!sorted) {
    size_t before = result->size();
    *result = bat::SortUnique(std::move(*result));
    stats->duplicates_removed += before - result->size();
  }
}

/// attribute: attribute nodes are ranked directly after their owner, so
/// each context node's attributes are one contiguous scan stopped by
/// the first non-attribute (or foreign-owner) position. Output order
/// follows context order because the ranges cannot interleave.
template <DocAccessor A>
void AttributeKernel(A& acc, const NodeSequence& context, AxisNodeTest test,
                     NodeSequence* result, JoinStats* stats) {
  const uint64_t n = acc.size();
  for (NodeId c : context) {
    for (uint64_t v = static_cast<uint64_t>(c) + 1; v < n; ++v) {
      ++stats->nodes_scanned;
      if (acc.Kind(v) != kAttrKind || acc.Parent(v) != c) break;
      if (test.Matches(acc, v, kAttrKind)) {
        result->push_back(static_cast<NodeId>(v));
      }
    }
  }
}

/// self: the context filtered by the node test.
template <DocAccessor A>
void SelfKernel(A& acc, const NodeSequence& context, AxisNodeTest test,
                NodeSequence* result, JoinStats* stats) {
  for (NodeId c : context) {
    ++stats->nodes_scanned;
    if (test.accept_all || test.Matches(acc, c, acc.Kind(c))) {
      result->push_back(c);
    }
  }
}

/// Node-test filter over a document-order sequence (the set-at-a-time
/// replacement for per-node FilterByTest loops after a staircase-axis
/// join): sequential kind/tag reads through the backend.
template <DocAccessor A>
NodeSequence FilterSequenceOver(A& acc, const NodeSequence& nodes,
                                AxisNodeTest test) {
  if (test.accept_all) return nodes;
  NodeSequence out;
  out.reserve(nodes.size());
  for (NodeId v : nodes) {
    if (test.Matches(acc, v, acc.Kind(v))) out.push_back(v);
  }
  return out;
}

/// The non-staircase axis step over any backend: validation, frame
/// construction with covered-context pruning, the merge scan, stats.
/// AxisCursorStep is a thin shim around this function.
template <DocAccessor A>
Result<NodeSequence> AxisStepOver(A& acc, const NodeSequence& context,
                                  Axis axis, const AxisNodeTest& test,
                                  JoinStats* stats) {
  if (!IsCursorAxis(axis)) {
    return Status::Unsupported(std::string("axis cursor step on axis ") +
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

  switch (axis) {
    case Axis::kChild: {
      std::vector<AxisFrame> frames = ChildFrames(acc, context);
      local.pruned_context_size = frames.size();
      MergeSiblingFrames(acc, frames, test, &result, &local);
      break;
    }
    case Axis::kFollowingSibling: {
      std::vector<AxisFrame> frames = FollowingSiblingFrames(acc, context);
      local.pruned_context_size = frames.size();
      MergeSiblingFrames(acc, frames, test, &result, &local);
      break;
    }
    case Axis::kPrecedingSibling: {
      std::vector<AxisFrame> frames = PrecedingSiblingFrames(acc, context);
      local.pruned_context_size = frames.size();
      MergeSiblingFrames(acc, frames, test, &result, &local);
      break;
    }
    case Axis::kParent:
      local.pruned_context_size = context.size();
      ParentKernel(acc, context, test, &result, &local);
      break;
    case Axis::kAttribute:
      local.pruned_context_size = context.size();
      AttributeKernel(acc, context, test, &result, &local);
      break;
    case Axis::kSelf:
      local.pruned_context_size = context.size();
      SelfKernel(acc, context, test, &result, &local);
      break;
    default:
      return Status::Internal("unreachable");
  }

  if (!acc.ok()) return acc.status();

  local.result_size = result.size();
  if (stats != nullptr) *stats = local;
  return result;
}

/// Per-context-node output of the positional axis steps: `nodes` holds
/// group k's matches in document order at
/// [offsets[k], offsets[k+1]); offsets.size() == context.size() + 1.
/// Groups may overlap in content (two context nodes can share
/// descendants) -- positional ranking is per context node, which is
/// exactly why covered-context pruning must NOT apply here. Produced by
/// the document scan below (whole groups) and by the fragment rank
/// selection of core/fragment_impl.h (at most one node per group).
struct PositionalGroups {
  NodeSequence nodes;
  std::vector<size_t> offsets;
};

/// \brief The set-at-a-time positional axis step: one cursor pass per
/// context frame with the node test folded in, producing the per-context
/// groups a positional predicate ranks within. Replaces the per-context
/// naive fallback (which bypassed the buffer pool) -- every candidate
/// read below is charged to the backend, subtree jumps announce SkipTo.
///
/// This document scan reads each context node's whole axis group. A
/// name-test step led by [k] or [last()] on the child, descendant(-or-
/// self), following(-sibling) and preceding(-sibling) axes skips it when
/// the image has tag fragments and pushdown is not kNever: it reads the
/// one ranked match with PositionalRankSelectOver (core/fragment_impl.h).
/// The scan keeps kind tests and `*`, the attribute, parent,
/// ancestor(-or-self) and self axes, and steps whose first predicate is
/// an existence test.
///
/// Group contents reproduce baselines/naive.cc AppendPerContext
/// semantics exactly (it is the oracle the tests compare against):
/// self/or-self emit the context node itself subject only to the node
/// test; descendant/following/preceding exclude attribute nodes; child
/// and the sibling axes step over attribute ranks and jump whole
/// sibling subtrees; ancestors come out root-first (document order).
/// Reverse-axis rank reordering is the caller's job.
template <DocAccessor A>
Result<PositionalGroups> PositionalAxisStepOver(A& acc,
                                                const NodeSequence& context,
                                                Axis axis,
                                                const AxisNodeTest& test,
                                                JoinStats* stats) {
  SJ_RETURN_NOT_OK(ValidateContext(acc, context));
  PositionalGroups groups;
  groups.offsets.reserve(context.size() + 1);
  groups.offsets.push_back(0);
  JoinStats local;
  local.context_size = context.size();
  // Every frame scans: positions are per context node, so no frame is
  // covered by another.
  local.pruned_context_size = context.size();
  const uint64_t n = acc.size();
  AxisNodeTest t = test;  // Matches() is non-const (tag reads)

  // One candidate visit: kind read + folded test.
  auto emit = [&](uint64_t v, bool allow_attr) {
    ++local.nodes_scanned;
    const uint8_t kind = acc.Kind(v);
    if (!allow_attr && kind == kAttrKind) return false;
    if (t.Matches(acc, v, kind)) {
      groups.nodes.push_back(static_cast<NodeId>(v));
      return true;
    }
    return false;
  };

  for (NodeId c : context) {
    switch (axis) {
      case Axis::kSelf: {
        emit(c, true);
        break;
      }
      case Axis::kChild: {
        const uint64_t end = SubtreeEndOver(acc, c);
        uint64_t v = static_cast<uint64_t>(c) + 1;
        while (v <= end && v < n) {
          ++local.nodes_scanned;
          const uint8_t kind = acc.Kind(v);
          if (kind == kAttrKind) {
            ++v;
            continue;
          }
          if (t.Matches(acc, v, kind)) {
            groups.nodes.push_back(static_cast<NodeId>(v));
          }
          const uint64_t vend = SubtreeEndOver(acc, v);
          const uint64_t next = std::max(v + 1, vend + 1);
          if (vend > v) {
            local.nodes_skipped += vend - v;
            acc.SkipTo(next);
          }
          v = next;
        }
        break;
      }
      case Axis::kAttribute: {
        for (uint64_t v = static_cast<uint64_t>(c) + 1; v < n; ++v) {
          ++local.nodes_scanned;
          if (acc.Kind(v) != kAttrKind || acc.Parent(v) != c) break;
          if (t.Matches(acc, v, kAttrKind)) {
            groups.nodes.push_back(static_cast<NodeId>(v));
          }
        }
        break;
      }
      case Axis::kParent: {
        const NodeId p = acc.Parent(c);
        if (p != kNilNode) emit(p, true);
        break;
      }
      case Axis::kAncestor:
      case Axis::kAncestorOrSelf: {
        // Parent chain runs leaf-to-root; document order is root-first.
        std::vector<NodeId> chain;
        for (NodeId p = acc.Parent(c); p != kNilNode; p = acc.Parent(p)) {
          ++local.nodes_scanned;
          if (t.Matches(acc, p, acc.Kind(p))) chain.push_back(p);
        }
        std::reverse(chain.begin(), chain.end());
        groups.nodes.insert(groups.nodes.end(), chain.begin(), chain.end());
        if (axis == Axis::kAncestorOrSelf) emit(c, true);
        break;
      }
      case Axis::kDescendant:
      case Axis::kDescendantOrSelf: {
        if (axis == Axis::kDescendantOrSelf) emit(c, true);
        const uint64_t end = SubtreeEndOver(acc, c);
        for (uint64_t v = static_cast<uint64_t>(c) + 1; v <= end && v < n;
             ++v) {
          emit(v, false);
        }
        break;
      }
      case Axis::kFollowing: {
        const uint64_t start = SubtreeEndOver(acc, c) + 1;
        for (uint64_t v = start; v < n; ++v) emit(v, false);
        break;
      }
      case Axis::kPreceding: {
        const auto post_c = acc.Post(c);
        for (uint64_t v = 0; v < static_cast<uint64_t>(c); ++v) {
          ++local.nodes_scanned;
          const uint8_t kind = acc.Kind(v);
          if (kind == kAttrKind) continue;
          if (acc.Post(v) >= post_c) continue;  // ancestor, not preceding
          if (t.Matches(acc, v, kind)) {
            groups.nodes.push_back(static_cast<NodeId>(v));
          }
        }
        break;
      }
      case Axis::kFollowingSibling:
      case Axis::kPrecedingSibling: {
        if (acc.Kind(c) == kAttrKind) break;
        const NodeId p = acc.Parent(c);
        if (p == kNilNode) break;
        uint64_t v;
        uint64_t end;
        if (axis == Axis::kFollowingSibling) {
          v = SubtreeEndOver(acc, c) + 1;
          end = SubtreeEndOver(acc, p);
        } else {
          v = static_cast<uint64_t>(p) + 1;
          end = static_cast<uint64_t>(c) - 1;  // context node excluded
        }
        while (v < n && v <= end) {
          ++local.nodes_scanned;
          const uint8_t kind = acc.Kind(v);
          if (kind == kAttrKind) {
            ++v;
            continue;
          }
          if (t.Matches(acc, v, kind)) {
            groups.nodes.push_back(static_cast<NodeId>(v));
          }
          const uint64_t vend = SubtreeEndOver(acc, v);
          const uint64_t next = std::max(v + 1, vend + 1);
          if (vend > v) {
            local.nodes_skipped += vend - v;
            acc.SkipTo(next);
          }
          v = next;
        }
        break;
      }
    }
    groups.offsets.push_back(groups.nodes.size());
  }

  if (!acc.ok()) return acc.status();
  local.result_size = groups.nodes.size();
  if (stats != nullptr) *stats = local;
  return groups;
}

}  // namespace sj::internal

#endif  // STAIRJOIN_CORE_AXIS_IMPL_H_
