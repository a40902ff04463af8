// Backend-generic holistic twig-join driver, internal.
//
// This header holds the ONE implementation of the twig operator
// (core/twig_join.h): a k-way pre-order merge of the context sequence
// (level 0) and one FragmentCursor per chain level, with per-level
// ancestor stacks for the structural checks and a leapfrog-style seek
// cascade for skipping. It is the k-ary sibling of core/fragment_impl.h
// -- every operator body exists exactly once per shape, generic over the
// storage backend (FragmentCursor + DocAccessor).
//
// Sweep invariant: streams are consumed in global pre-rank order (ties
// go to the lower level). When node v of level i is processed, level
// i-1's stack -- after popping every entry e with post(e) < post(v),
// which can never again contain a later node -- holds exactly the
// already-processed satisfied level-(i-1) nodes on v's ancestor-or-self
// path, innermost on top. That makes the axis checks O(1) against the
// top of the stack:
//
//   descendant          stack nonempty, ignoring an equal-pre self entry
//   descendant-or-self  stack nonempty
//   child               deepest strict-ancestor entry is v's parent,
//                       tested via level(v) == level(entry) + 1 (the
//                       1-byte level column; cheaper than parent pages)
//
// A satisfied node of an inner level is pushed onto its own stack; the
// final level emits to the result instead -- pre-order emission over a
// duplicate-free stream yields a sorted, duplicate-free result with NO
// intermediate node list at any level.
//
// Leapfrogging: whenever level i-1's stack is empty, no level-i node
// before the next unprocessed level-(i-1) candidate can be satisfied, so
// cursor i seeks (LowerBound + SkipTo) to that pre rank (+1 for the
// strict axes) -- the jumped slots are never touched, which on the
// paged backends means fragment pages never faulted. The bounds cascade
// through the levels in one pass, so one starved supporter fast-forwards
// the whole tail of the chain, and an exhausted supporter drains it.
//
// Error model: sticky, as everywhere else. Failed reads return 0 (and
// LowerBound returns size()), slots still advance, so the sweep
// terminates; the driver checks ok() once per cursor at the end.

#ifndef STAIRJOIN_CORE_TWIG_IMPL_H_
#define STAIRJOIN_CORE_TWIG_IMPL_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "core/doc_accessor.h"
#include "core/fragment_cursor.h"
#include "core/staircase_impl.h"
#include "core/twig_join.h"
#include "util/result.h"

namespace sj::internal {

/// A satisfied node still able to support later nodes of the level
/// below. `level` is only filled when the consuming axis is kChild.
struct TwigStackEntry {
  NodeId pre = 0;
  uint32_t post = 0;
  uint8_t level = 0;
};

/// Pops entries whose subtree ended before `post` -- they precede the
/// current node entirely and can never support it or any later node.
inline void TwigPopEnded(std::vector<TwigStackEntry>* stack, uint32_t post) {
  while (!stack->empty() && stack->back().post < post) stack->pop_back();
}

/// The holistic twig join over any backend pair (see file comment).
/// `cursors[i]` is the fragment of `levels[i]`; both have size k >= 1.
/// Cursors are borrowed and must start at slot 0 / a fresh state.
template <FragmentCursor F, DocAccessor A>
Result<NodeSequence> TwigJoinOver(const std::vector<F*>& cursors, A& acc,
                                  const NodeSequence& context,
                                  const std::vector<TwigLevel>& levels,
                                  const StaircaseOptions& options,
                                  JoinStats* stats,
                                  std::vector<TwigLevelStats>* level_stats) {
  const size_t k = cursors.size();
  if (k == 0 || levels.size() != k) {
    return Status::InvalidArgument("twig join needs one cursor per level");
  }
  for (const TwigLevel& level : levels) {
    if (!IsTwigAxis(level.axis)) {
      return Status::Unsupported(std::string("twig join on axis ") +
                                 std::string(AxisName(level.axis)));
    }
  }
  SJ_RETURN_NOT_OK(ValidateContext(acc, context));

  JoinStats local;
  local.context_size = context.size();
  // The ancestor stacks subsume Algorithm 1: a covered context node just
  // lands on the stack below its coverer and changes nothing.
  local.pruned_context_size = context.size();
  std::vector<TwigLevelStats> per_level(k);
  for (size_t i = 0; i < k; ++i) {
    per_level[i].tag = levels[i].tag;
    per_level[i].fragment_size = cursors[i]->size();
  }

  NodeSequence result;
  const bool seek = options.skip_mode != SkipMode::kNone;
  constexpr uint64_t kDone = ~uint64_t{0};

  // stacks[0] holds context nodes (always satisfied); stacks[i] holds
  // satisfied level-i nodes (1 <= i < k). Level k emits, needing no
  // stack. store_level[s]: the axis consuming stack s is kChild.
  std::vector<std::vector<TwigStackEntry>> stacks(k);
  std::vector<bool> store_level(k);
  for (size_t i = 0; i < k; ++i) {
    store_level[i] = levels[i].axis == Axis::kChild;
  }

  size_t ctx_pos = 0;
  std::vector<size_t> slot(k, 0);
  // Cached pre rank at slot[i] (kDone when exhausted), so the k-way min
  // does not re-read cursor pages per iteration.
  std::vector<uint64_t> head(k);
  for (size_t i = 0; i < k; ++i) {
    head[i] = cursors[i]->size() > 0 ? cursors[i]->Pre(0) : kDone;
  }
  if (context.empty()) {
    if (stats != nullptr) *stats = local;
    if (level_stats != nullptr) *level_stats = std::move(per_level);
    return result;
  }

  while (true) {
    if (seek) {
      // Seek cascade, top level down: an empty supporter stack bounds
      // where the next satisfiable node of this level can start.
      for (size_t i = 0; i < k; ++i) {
        if (!stacks[i].empty()) continue;
        const uint64_t floor =
            i == 0 ? (ctx_pos < context.size() ? context[ctx_pos] : kDone)
                   : head[i - 1];
        const uint64_t strict =
            levels[i].axis == Axis::kDescendantOrSelf ? 0 : 1;
        const uint64_t bound = floor == kDone ? kDone : floor + strict;
        if (head[i] == kDone || head[i] >= bound) continue;
        size_t target;
        if (bound == kDone) {
          // The supporter stream is drained: this level -- and through
          // the cascade the whole tail -- can never match again.
          target = cursors[i]->size();
        } else {
          target = cursors[i]->LowerBound(bound);
        }
        if (target > slot[i]) {
          per_level[i].slots_skipped += target - slot[i];
          cursors[i]->SkipTo(target);
          slot[i] = target;
          head[i] = target < cursors[i]->size() ? cursors[i]->Pre(target)
                                                : kDone;
        }
      }
    }
    // The final level's stream is spent: nothing can be emitted anymore,
    // whatever the inner streams still hold.
    if (head[k - 1] == kDone) break;

    // Next node in global pre order; ties go to the lower level so a
    // node shared by adjacent streams supports its own -or-self copy.
    uint64_t best =
        ctx_pos < context.size() ? context[ctx_pos] : kDone;
    size_t best_level = 0;  // 0 = context, i + 1 = cursor i
    for (size_t i = 0; i < k; ++i) {
      if (head[i] < best) {
        best = head[i];
        best_level = i + 1;
      }
    }
    if (best == kDone) break;

    acc.SkipTo(best);  // the sweep reads doc columns in pre order
    if (best_level == 0) {
      const NodeId c = context[ctx_pos++];
      const uint32_t post = acc.Post(c);
      TwigPopEnded(&stacks[0], post);
      TwigStackEntry entry{c, post, 0};
      if (store_level[0]) entry.level = acc.Level(c);
      stacks[0].push_back(entry);
      continue;
    }

    const size_t i = best_level - 1;
    const NodeId v = static_cast<NodeId>(best);
    const uint32_t post = cursors[i]->Post(slot[i]);
    ++per_level[i].slots_scanned;
    ++slot[i];
    head[i] = slot[i] < cursors[i]->size() ? cursors[i]->Pre(slot[i]) : kDone;

    std::vector<TwigStackEntry>& sup = stacks[i];
    TwigPopEnded(&sup, post);
    bool satisfied = false;
    uint8_t v_level = 0;
    bool have_level = false;
    switch (levels[i].axis) {
      case Axis::kDescendantOrSelf:
        satisfied = !sup.empty();
        break;
      case Axis::kDescendant:
        // An equal-pre entry is v itself (pushed by a lower stream this
        // iteration's tie); only entries below it are strict ancestors.
        satisfied = !sup.empty() && (sup.back().pre != v || sup.size() > 1);
        break;
      case Axis::kChild: {
        size_t n = sup.size();
        if (n > 0 && sup.back().pre == v) --n;
        if (n > 0) {
          v_level = acc.Level(v);
          have_level = true;
          // The deepest strict-ancestor entry is the only one that can
          // be the parent (ancestors form a chain, one per level).
          satisfied = static_cast<uint32_t>(sup[n - 1].level) + 1 == v_level;
        }
        break;
      }
      default:
        break;  // unreachable: IsTwigAxis was checked above
    }
    if (!satisfied) continue;
    if (i + 1 == k) {
      result.push_back(v);
      continue;
    }
    std::vector<TwigStackEntry>& own = stacks[i + 1];
    TwigPopEnded(&own, post);
    TwigStackEntry entry{v, post, 0};
    if (store_level[i + 1]) {
      entry.level = have_level ? v_level : acc.Level(v);
    }
    own.push_back(entry);
  }

  if (!acc.ok()) return acc.status();
  for (size_t i = 0; i < k; ++i) {
    if (!cursors[i]->ok()) return cursors[i]->status();
    local.nodes_scanned += per_level[i].slots_scanned;
    local.nodes_skipped += per_level[i].slots_skipped;
  }
  local.result_size = result.size();
  if (stats != nullptr) *stats = local;
  if (level_stats != nullptr) *level_stats = std::move(per_level);
  return result;
}

/// TwigJoinOver with cursors it builds and owns: `make_cursor(tag)`
/// returns one level's cursor by value, `make_accessor()` the accessor,
/// built after the cursors. Cursors may hold PageGuards (pinned state,
/// non-movable), so each is constructed in place on the heap and the
/// join borrows raw pointers.
template <typename MakeCursor, typename MakeAccessor>
Result<NodeSequence> TwigJoinWithOwnedCursors(
    MakeCursor&& make_cursor, MakeAccessor&& make_accessor,
    const NodeSequence& context, const std::vector<TwigLevel>& levels,
    const StaircaseOptions& options, JoinStats* stats,
    std::vector<TwigLevelStats>* level_stats) {
  using Cursor = decltype(make_cursor(TagId{}));
  std::vector<std::unique_ptr<Cursor>> owned;
  std::vector<Cursor*> cursors;
  owned.reserve(levels.size());
  cursors.reserve(levels.size());
  for (const TwigLevel& level : levels) {
    owned.emplace_back(new Cursor(make_cursor(level.tag)));
    cursors.push_back(owned.back().get());
  }
  auto acc = make_accessor();
  return TwigJoinOver(cursors, acc, context, levels, options, stats,
                      level_stats);
}

}  // namespace sj::internal

#endif  // STAIRJOIN_CORE_TWIG_IMPL_H_
