// The storage-backend cursor abstraction of the *fragment* staircase join.
//
// A tag fragment is the document projected to the element nodes of one
// tag, pre-sorted (core/tag_view.h). The Section 4.4 pushdown algorithms
// only ever touch a fragment through slot-addressed pre/post reads,
// searches on the pre column ("where does doc pre rank p land in this
// fragment?") and forward jumps. The joins walk forward: a bound a few
// slots ahead is found by probing those slots (LowerBoundFrom in
// core/fragment_impl.h), a farther one by LowerBound's binary search.
// That access pattern is captured here as the FragmentCursor concept so
// the fragment join bodies (core/fragment_impl.h) exist exactly once,
// generic over the backend:
//
//   * MemoryFragmentCursor (below) reads the TagView vectors directly;
//     every method inlines to an array access or a std::lower_bound, so
//     the instantiated join compiles to the historical in-memory loops;
//   * storage::CompressedFragmentCursor reads per-fragment pre/post
//     column blocks (raw pages or FOR/delta-coded) through a BufferPool,
//     so pushdown turns "nodes never touched" into fragment pages never
//     read.
//
// Contract: reads are valid for slots in [0, size()); LowerBound(pre)
// returns the first slot whose pre rank is >= pre (size() if none). A
// backend whose reads can fail records the first error, returns zeros
// (resp. size() from LowerBound) from then on, and the driver checks
// ok() once per join. Joins announce forward jumps via SkipTo(slot)
// *before* resuming reads at `slot`, which lets a paged backend release
// the pages the jump leaves behind.

#ifndef STAIRJOIN_CORE_FRAGMENT_CURSOR_H_
#define STAIRJOIN_CORE_FRAGMENT_CURSOR_H_

#include <algorithm>
#include <concepts>
#include <cstdint>

#include "core/tag_view.h"
#include "util/status.h"

namespace sj {

/// \brief Slot-cursor access to one pre-sorted tag fragment (see file
/// comment).
template <typename C>
concept FragmentCursor = requires(C c, const C cc, size_t slot, uint64_t pre) {
  { cc.size() } -> std::convertible_to<size_t>;
  { c.Pre(slot) } -> std::convertible_to<NodeId>;
  { c.Post(slot) } -> std::convertible_to<uint32_t>;
  { c.LowerBound(pre) } -> std::convertible_to<size_t>;
  { c.SkipTo(slot) };
  { cc.ok() } -> std::convertible_to<bool>;
  { cc.status() } -> std::convertible_to<Status>;
};

/// \brief FragmentCursor over the in-memory TagView vectors.
///
/// Borrows the view's columns; the view must outlive the cursor.
/// Infallible: ok() is always true.
class MemoryFragmentCursor {
 public:
  explicit MemoryFragmentCursor(const TagView& view)
      : pre_(view.pre.data()),
        post_(view.post.data()),
        size_(view.pre.size()) {}

  size_t size() const { return size_; }
  NodeId Pre(size_t slot) const { return pre_[slot]; }
  uint32_t Post(size_t slot) const { return post_[slot]; }
  size_t LowerBound(uint64_t pre) const {
    return static_cast<size_t>(std::lower_bound(pre_, pre_ + size_, pre) -
                               pre_);
  }
  void SkipTo(size_t) const {}  // random access: jumps cost nothing
  bool ok() const { return true; }
  Status status() const { return Status::OK(); }

 private:
  const NodeId* pre_;
  const uint32_t* post_;
  size_t size_;
};

static_assert(FragmentCursor<MemoryFragmentCursor>);

}  // namespace sj

#endif  // STAIRJOIN_CORE_FRAGMENT_CURSOR_H_
