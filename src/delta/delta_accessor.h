// Merging cursors: the edited document as a DocAccessor / FragmentCursor.
//
// `DeltaDocAccessor<Base>` and `DeltaFragmentCursor<Base>` present the
// merged (base + overlay) document in dense LOGICAL pre/post ranks while
// satisfying the exact cursor concepts the core kernels are written
// against -- `core/staircase_impl.h`, `axis_impl.h`, `fragment_impl.h`
// and `twig_impl.h` run unmodified over an edited document. Reads that
// resolve to base ranks go through the wrapped backend accessor (and so
// keep charging the BufferPool on paged/compressed backends); reads that
// resolve to inserted nodes are resident array lookups in the Overlay.
//
// The Base cursor is constructed IN PLACE from forwarded constructor
// arguments: pool-backed accessors own non-movable PageGuards, so the
// wrapper can never require moving one.

#ifndef STAIRJOIN_DELTA_DELTA_ACCESSOR_H_
#define STAIRJOIN_DELTA_DELTA_ACCESSOR_H_

#include <algorithm>
#include <cstdint>
#include <utility>

#include "core/doc_accessor.h"
#include "core/fragment_cursor.h"
#include "delta/overlay.h"

namespace sj::delta {

/// \brief DocAccessor over the merged document (see file comment).
///
/// Borrows the overlay (and whatever the base accessor borrows); both
/// must outlive the accessor. Errors surface through the base accessor's
/// sticky status; overlay reads are infallible.
template <typename Base>
class DeltaDocAccessor {
 public:
  template <typename... Args>
  explicit DeltaDocAccessor(const Overlay& overlay, Args&&... args)
      : ov_(&overlay), base_(std::forward<Args>(args)...) {}

  size_t size() const { return ov_->logical_size(); }

  uint32_t Post(uint64_t pre) {
    Location loc = ov_->LocatePre(pre, &pre_hint_);
    if (loc.from_delta) return ov_->DeltaPost(loc.src);
    return static_cast<uint32_t>(ov_->BasePostToLogical(base_.Post(loc.src)));
  }

  uint8_t Kind(uint64_t pre) {
    Location loc = ov_->LocatePre(pre, &pre_hint_);
    return loc.from_delta ? ov_->DeltaKind(loc.src) : base_.Kind(loc.src);
  }

  uint8_t Level(uint64_t pre) {
    Location loc = ov_->LocatePre(pre, &pre_hint_);
    return loc.from_delta ? ov_->DeltaLevel(loc.src) : base_.Level(loc.src);
  }

  NodeId Parent(uint64_t pre) {
    Location loc = ov_->LocatePre(pre, &pre_hint_);
    if (loc.from_delta) return ov_->DeltaParent(loc.src);
    NodeId bp = base_.Parent(loc.src);
    if (bp == kNilNode) return kNilNode;
    // A surviving node's ancestors all survive (deletes take whole
    // subtrees) and base parents are never rewired, so the map is total.
    return static_cast<NodeId>(ov_->BasePreToLogical(bp));
  }

  TagId Tag(uint64_t pre) {
    Location loc = ov_->LocatePre(pre, &pre_hint_);
    // Base TagIds keep their values in the merged dictionary.
    return loc.from_delta ? ov_->DeltaTag(loc.src) : base_.Tag(loc.src);
  }

  void SkipTo(uint64_t pre) {
    if (pre >= ov_->logical_size()) return;
    Location loc = ov_->LocatePre(pre, &pre_hint_);
    if (loc.from_delta) {
      // The jump lands in resident data; announce the next base rank so
      // a paged base can still prefetch where the scan re-enters it.
      base_.SkipTo(ov_->LowerBoundBasePre(pre));
    } else {
      base_.SkipTo(loc.src);
    }
  }

  bool ok() const { return base_.ok(); }
  Status status() const { return base_.status(); }

 private:
  const Overlay* ov_;
  Base base_;
  size_t pre_hint_ = 0;
};

static_assert(DocAccessor<DeltaDocAccessor<MemoryDocAccessor>>);

/// \brief FragmentCursor over the merged per-tag fragment.
///
/// Slot segments splice surviving base slots (read through the wrapped
/// backend cursor) with resident delta entries; each segment carries the
/// logical pre of its first node, so LowerBound stays a resident binary
/// search plus at most one base-cursor LowerBound (fence-key reads).
template <typename Base>
class DeltaFragmentCursor {
 public:
  template <typename... Args>
  explicit DeltaFragmentCursor(const Overlay& overlay, TagId tag,
                               Args&&... args)
      : ov_(&overlay),
        fo_(&overlay.fragment(tag)),
        base_(std::forward<Args>(args)...) {}

  size_t size() const { return fo_->merged_count; }

  NodeId Pre(size_t slot) {
    const SlotSegment& s = Seg(slot);
    size_t src = s.src + (slot - s.lslot);
    if (s.from_delta) return fo_->delta_pre[src];
    return static_cast<NodeId>(ov_->BasePreToLogical(base_.Pre(src)));
  }

  uint32_t Post(size_t slot) {
    const SlotSegment& s = Seg(slot);
    size_t src = s.src + (slot - s.lslot);
    if (s.from_delta) return fo_->delta_post[src];
    return static_cast<uint32_t>(ov_->BasePostToLogical(base_.Post(src)));
  }

  size_t LowerBound(uint64_t pre) {
    const auto& segs = fo_->slots;
    if (segs.empty()) return 0;
    // Last segment whose first node is at or before the target; every
    // earlier slot precedes the target, every later segment follows it.
    auto it = std::upper_bound(
        segs.begin(), segs.end(), pre,
        [](uint64_t v, const SlotSegment& s) { return v < s.first_lpre; });
    if (it == segs.begin()) return 0;
    const SlotSegment& s = *(it - 1);
    if (s.from_delta) {
      const uint32_t* lo = fo_->delta_pre.data() + s.src;
      size_t off = static_cast<size_t>(
          std::lower_bound(lo, lo + s.count, pre) - lo);
      return s.lslot + off;
    }
    // Translate the logical target into base pre space (resident), let
    // the base cursor do its fence-key search, clamp to the segment.
    size_t bslot = base_.LowerBound(ov_->LowerBoundBasePre(pre));
    bslot = std::clamp<size_t>(bslot, s.src, s.src + s.count);
    return s.lslot + (bslot - s.src);
  }

  void SkipTo(size_t slot) {
    if (slot >= fo_->merged_count) return;
    const SlotSegment& s = Seg(slot);
    if (!s.from_delta) base_.SkipTo(s.src + (slot - s.lslot));
  }

  bool ok() const { return base_.ok(); }
  Status status() const { return base_.status(); }

 private:
  const SlotSegment& Seg(size_t slot) {
    const auto& segs = fo_->slots;
    if (hint_ < segs.size() && segs[hint_].lslot <= slot &&
        slot < segs[hint_].lslot + segs[hint_].count) {
      return segs[hint_];
    }
    if (hint_ + 1 < segs.size() && segs[hint_ + 1].lslot <= slot &&
        slot < segs[hint_ + 1].lslot + segs[hint_ + 1].count) {
      return segs[++hint_];
    }
    auto it = std::upper_bound(
        segs.begin(), segs.end(), slot,
        [](size_t v, const SlotSegment& s) { return v < s.lslot; });
    hint_ = static_cast<size_t>(it - segs.begin()) - 1;
    return segs[hint_];
  }

  const Overlay* ov_;
  const FragmentOverlay* fo_;
  Base base_;
  size_t hint_ = 0;
};

static_assert(FragmentCursor<DeltaFragmentCursor<MemoryFragmentCursor>>);

}  // namespace sj::delta

#endif  // STAIRJOIN_DELTA_DELTA_ACCESSOR_H_
