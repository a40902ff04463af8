// Tag views: the document projected to the element nodes of one tag.
//
// Two paper features build on these projections:
//   * name-test pushdown (Section 4.4, Experiment 3):
//     nametest(scj(doc, cs), n) == scj(nametest(doc, n), cs) -- the pre/post
//     region properties remain valid on any pre-sorted subset of the plane,
//     so the staircase join can run directly over the projection;
//   * fragmentation by tag name (Section 6, Future Research: Q1 dropped
//     from 345 ms to 39 ms): TagIndex materializes all projections once at
//     load time and queries touch only the fragments they name.

#ifndef STAIRJOIN_CORE_TAG_VIEW_H_
#define STAIRJOIN_CORE_TAG_VIEW_H_

#include <memory>
#include <vector>

#include "core/staircase_join.h"
#include "encoding/doc_table.h"
#include "util/result.h"

namespace sj {

/// \brief Pre-sorted projection of the doc table to one element tag.
struct TagView {
  TagId tag = kNoTag;
  /// Pre ranks of the element nodes carrying `tag`, ascending.
  std::vector<NodeId> pre;
  /// Postorder ranks, parallel to `pre`.
  std::vector<uint32_t> post;

  size_t size() const { return pre.size(); }
};

/// \brief Builds the projection for one tag (elements only; one doc scan).
TagView BuildTagView(const DocTable& doc, TagId tag);

/// \brief Fragmentation by tag name: one TagView per element tag, built in
/// a single scan of the document.
class TagIndex {
 public:
  /// Fragments `doc` (kept by reference; must outlive the index).
  explicit TagIndex(const DocTable& doc);

  /// The fragment for `tag` (empty view for unknown/attribute-only tags).
  const TagView& view(TagId tag) const;

  /// Number of element nodes carrying `tag` (0 for unknown tags) -- the
  /// selectivity statistic the pushdown cost model uses.
  uint64_t tag_count(TagId tag) const;

  /// Total bytes materialized by the index (for the bench report).
  uint64_t memory_bytes() const;

 private:
  std::vector<TagView> views_;  // indexed by TagId
  TagView empty_;
};

/// \brief Staircase join over a tag view: evaluates `context/axis::tag` in
/// one pass over the (usually tiny) projection instead of the document.
///
/// A thin shim over the backend-generic fragment join
/// (core/fragment_impl.h) instantiated with MemoryFragmentCursor; the
/// pool-backed backends run the same body through the evaluator's
/// cursors (xpath/backend_dispatch.h).
///
/// Supports the staircase axes. Skipping uses binary search on the
/// projection's pre column instead of pre-rank arithmetic. The context is
/// a sequence of *document* nodes; the result contains view nodes only and
/// is in document order, duplicate free. For the -or-self axes a context
/// node contributes itself iff it is a member of the view.
Result<NodeSequence> StaircaseJoinView(const DocTable& doc,
                                       const TagView& view,
                                       const NodeSequence& context, Axis axis,
                                       const StaircaseOptions& options = {},
                                       JoinStats* stats = nullptr);

}  // namespace sj

#endif  // STAIRJOIN_CORE_TAG_VIEW_H_
