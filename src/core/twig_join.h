// Holistic twig join: a run of name-test descendant/child steps as ONE
// k-way merge over per-tag fragment cursors.
//
// The step-at-a-time evaluator materializes every intermediate context of
// a chain like /site//open_auction//bidder//increase -- exactly the
// blowup paper Fig. 11 measures. The twig join instead merges the k
// pre-sorted tag fragments (core/tag_view.h) and the context sequence in
// one global pre-order sweep: per-level ancestor stacks decide the
// structural (descendant vs child) relation in O(1) amortized per node,
// and a leapfrog-style seek cascade advances the least-supported cursor
// past regions that cannot contain matches instead of scanning them --
// the Leapfrog Triejoin idea transplanted onto the pre/post plane. No
// intermediate node list is ever built; only the final level emits.
//
// One backend-generic implementation lives in core/twig_impl.h; this
// header holds the shared plan/stats types and the in-memory shim. The
// evaluator runs the same body over every backend's fragment cursors
// (xpath/backend_dispatch.h).

#ifndef STAIRJOIN_CORE_TWIG_JOIN_H_
#define STAIRJOIN_CORE_TWIG_JOIN_H_

#include <vector>

#include "core/staircase_join.h"
#include "core/tag_view.h"
#include "encoding/doc_table.h"
#include "util/result.h"

namespace sj {

/// True for the axes a twig level may carry. The twig join evaluates
/// downward chains only: child and descendant(-or-self). (Upward axes
/// would need the dual merge direction; they stay step-at-a-time.)
inline bool IsTwigAxis(Axis axis) {
  return axis == Axis::kChild || axis == Axis::kDescendant ||
         axis == Axis::kDescendantOrSelf;
}

/// \brief One level of a twig chain: `axis::tag` relative to the level
/// above (level 0 is the context sequence).
///
/// `tag` may be kNoTag (a never-interned name): its fragment is empty,
/// so the join returns the empty sequence in O(k) -- the same
/// short-circuit the single-step evaluator applies to unknown tags.
struct TwigLevel {
  Axis axis = Axis::kDescendant;
  TagId tag = kNoTag;
};

/// \brief Per-cursor counters of one twig join, for EXPLAIN's
/// "cursor skips" report. "Slot" means fragment slot, as in
/// core/fragment_impl.h.
struct TwigLevelStats {
  TagId tag = kNoTag;
  /// Total slots of this level's fragment.
  uint64_t fragment_size = 0;
  /// Slots touched with a postorder comparison.
  uint64_t slots_scanned = 0;
  /// Slots the leapfrog seeks jumped over (never touched).
  uint64_t slots_skipped = 0;
};

/// \brief Holistic twig join over the in-memory tag fragments.
///
/// Evaluates context/levels[0]/levels[1]/.../levels[k-1] in one merge;
/// the result contains the final level's matches only, in document
/// order, duplicate free. Every level's axis must satisfy IsTwigAxis.
/// JoinStats keep the kernels.h semantics with "node" meaning "fragment
/// slot" (summed over the k cursors; `pruned_context_size` equals
/// `context_size` -- the ancestor stacks subsume pruning). A thin shim
/// over the backend-generic body (core/twig_impl.h) instantiated with
/// MemoryFragmentCursor; `options.skip_mode == kNone` disables the seek
/// cascade (every stream is scanned end to end), any other mode enables
/// it.
Result<NodeSequence> TwigJoin(const DocTable& doc, const TagIndex& tags,
                              const NodeSequence& context,
                              const std::vector<TwigLevel>& levels,
                              const StaircaseOptions& options = {},
                              JoinStats* stats = nullptr,
                              std::vector<TwigLevelStats>* level_stats =
                                  nullptr);

}  // namespace sj

#endif  // STAIRJOIN_CORE_TWIG_JOIN_H_
