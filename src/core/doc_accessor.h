// The storage-backend cursor abstraction of the staircase join and of
// the non-staircase axis steps.
//
// The Section 3/4 algorithms only ever touch the doc encoding through
// sequential post/kind/level reads over a pre-rank range plus forward
// jumps ("skipping"); the remaining XPath axes (child, parent, siblings,
// attribute, self) and the node-test filter additionally read the
// parent and tag columns. That access pattern is captured here as the
// DocAccessor concept so the algorithm bodies (core/kernels.h,
// core/staircase_impl.h and core/axis_impl.h) exist exactly once,
// generic over the backend:
//
//   * MemoryDocAccessor (below) reads the DocTable BATs directly; every
//     method inlines to a raw array access, so the instantiated kernels
//     compile to the same loops as the historical in-memory join;
//   * storage::CompressedDocAccessor reads columns (raw pages or
//     FOR/delta-coded blocks) through a BufferPool, so the same kernels
//     turn "nodes never touched" into disk pages never read (the
//     paper's Section 6 disk-based outlook).
//
// Contract: reads are valid for pre ranks in [0, size()). A backend whose
// reads can fail (e.g. a buffer pool with every frame pinned) records the
// first error and returns zeros from then on; the driver checks ok() once
// per join and discards the result on failure. Kernels announce forward
// jumps via SkipTo(pre) *before* resuming reads at `pre`, which lets a
// paged backend release the pages it holds between the two positions.

#ifndef STAIRJOIN_CORE_DOC_ACCESSOR_H_
#define STAIRJOIN_CORE_DOC_ACCESSOR_H_

#include <concepts>
#include <cstdint>

#include "encoding/doc_table.h"
#include "util/status.h"

namespace sj {

/// \brief Column-cursor access to one document encoding (see file comment).
template <typename A>
concept DocAccessor = requires(A a, const A ca, uint64_t pre) {
  { ca.size() } -> std::convertible_to<size_t>;
  { a.Post(pre) } -> std::convertible_to<uint32_t>;
  { a.Kind(pre) } -> std::convertible_to<uint8_t>;
  { a.Level(pre) } -> std::convertible_to<uint8_t>;
  { a.Parent(pre) } -> std::convertible_to<NodeId>;
  { a.Tag(pre) } -> std::convertible_to<TagId>;
  { a.SkipTo(pre) };
  { ca.ok() } -> std::convertible_to<bool>;
  { ca.status() } -> std::convertible_to<Status>;
};

/// \brief DocAccessor over the in-memory DocTable BATs.
///
/// Borrows the table's columns; the table must outlive the accessor.
/// Infallible: ok() is always true.
class MemoryDocAccessor {
 public:
  explicit MemoryDocAccessor(const DocTable& doc)
      : post_(doc.posts().data()),
        kind_(doc.kinds().data()),
        level_(doc.levels().data()),
        parent_(doc.parents().data()),
        tag_(doc.tags_column().data()),
        size_(doc.size()) {}

  size_t size() const { return size_; }
  uint32_t Post(uint64_t pre) const { return post_[pre]; }
  uint8_t Kind(uint64_t pre) const { return kind_[pre]; }
  uint8_t Level(uint64_t pre) const { return level_[pre]; }
  NodeId Parent(uint64_t pre) const { return parent_[pre]; }
  TagId Tag(uint64_t pre) const { return tag_[pre]; }
  void SkipTo(uint64_t) const {}  // random access: jumps cost nothing
  bool ok() const { return true; }
  Status status() const { return Status::OK(); }

 private:
  const uint32_t* post_;
  const uint8_t* kind_;
  const uint8_t* level_;
  const uint32_t* parent_;
  const uint32_t* tag_;
  size_t size_;
};

static_assert(DocAccessor<MemoryDocAccessor>);

}  // namespace sj

#endif  // STAIRJOIN_CORE_DOC_ACCESSOR_H_
