// Set-at-a-time evaluation of the non-staircase XPath axes.
//
// The staircase join covers the four partitioning axes; a location path
// also takes child / parent / attribute / following-sibling /
// preceding-sibling / self steps. Historically those fell back to
// per-context evaluation over the in-memory parent column
// (baselines/naive.h) -- which on the paged backend silently bypassed
// the buffer pool. This module evaluates them set-at-a-time over the
// DocAccessor cursor concept instead: one pass over the sorted context,
// duplicate-free document-order output, subtree skipping, and the
// step's node test folded into the scan so no per-node post-filter over
// resident columns remains. The kernel bodies live in core/axis_impl.h
// (internal, backend-generic); AxisCursorStep below instantiates them
// with the in-memory backend, the evaluator (xpath/backend_dispatch.h)
// with the session image's accessor.

#ifndef STAIRJOIN_CORE_AXIS_STEP_H_
#define STAIRJOIN_CORE_AXIS_STEP_H_

#include "core/axis.h"
#include "core/doc_accessor.h"
#include "core/stats.h"
#include "encoding/doc_table.h"
#include "util/result.h"

namespace sj {

/// \brief A node test compiled against the encoding: kind byte plus an
/// optional tag code, evaluable through any DocAccessor.
///
/// The xpath layer lowers its NodeTest into this form once per step
/// (name lookups against the resident TagDictionary happen there); the
/// kernels then test candidates with at most one Kind and one Tag read
/// -- both charged to the backend.
struct AxisNodeTest {
  /// node(): every candidate passes, no column is read for the test.
  bool accept_all = true;
  /// Required kind byte when !accept_all (NodeKind, uint8_t-encoded).
  uint8_t kind = 0;
  /// When true, the candidate's tag code must equal `tag` as well.
  bool match_tag = false;
  TagId tag = kNoTag;

  /// Compiles "kind must be `k`".
  static AxisNodeTest OfKind(NodeKind k) {
    return AxisNodeTest{false, static_cast<uint8_t>(k), false, kNoTag};
  }
  /// Compiles "kind must be `k` and tag must be `t`".
  static AxisNodeTest OfKindAndTag(NodeKind k, TagId t) {
    return AxisNodeTest{false, static_cast<uint8_t>(k), true, t};
  }

  /// Evaluates the test given an already-read kind byte, reading the tag
  /// column only when needed.
  template <DocAccessor A>
  bool Matches(A& acc, uint64_t pre, uint8_t kind_byte) {
    if (accept_all) return true;
    if (kind_byte != kind) return false;
    return !match_tag || acc.Tag(pre) == tag;
  }
};

/// True for the axes AxisCursorStep evaluates (the complement of
/// IsStaircaseAxis over the supported axis set).
constexpr bool IsCursorAxis(Axis axis) {
  switch (axis) {
    case Axis::kChild:
    case Axis::kParent:
    case Axis::kAttribute:
    case Axis::kFollowingSibling:
    case Axis::kPrecedingSibling:
    case Axis::kSelf:
      return true;
    default:
      return false;
  }
}

/// \brief Evaluates one non-staircase axis step set-at-a-time over the
/// in-memory DocTable columns.
///
/// `context` must be duplicate free and in document order; the result
/// is too. `test` is folded into the scan (attribute filtering follows
/// the XPath data model: attribute nodes are attribute-axis results
/// only). `stats` uses the kernels.h semantics: nodes_scanned are
/// candidate positions examined, nodes_skipped are positions jumped
/// over (subtree skipping), pruned_context_size counts the context
/// nodes that actually opened a scan after covered-context pruning.
Result<NodeSequence> AxisCursorStep(const DocTable& doc,
                                    const NodeSequence& context, Axis axis,
                                    const AxisNodeTest& test = {},
                                    JoinStats* stats = nullptr);

}  // namespace sj

#endif  // STAIRJOIN_CORE_AXIS_STEP_H_
