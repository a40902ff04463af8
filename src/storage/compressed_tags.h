// Pool-backed tag fragments: fragmentation by tag name behind the
// buffer pool, in either column layout.
//
// CompressedTagIndex lays every element tag's pre/post fragment columns
// (core/tag_view.h) out as CompressedColumns (storage/compressed_doc.h)
// behind the shared BufferPool: FOR/delta-coded for the compressed
// backend -- a fragment's strictly monotone pre list is the codec's best
// case (small positive deltas) -- or one raw page per block for the
// paged backend. CompressedFragmentCursor implements the FragmentCursor
// concept (core/fragment_cursor.h) over one such fragment; the
// evaluator builds it at its one fragment-cursor construction site
// (xpath/backend_dispatch.h) for the ONE fragment and twig join bodies
// (core/fragment_impl.h, core/twig_impl.h). Name-test pushdown (paper
// Section 4.4) then turns "nodes never touched" into fragment pages
// never read -- coded, strictly fewer of them than raw.
//
// Only the block directories and the per-block fence keys (the first
// pre rank in each pre block, for IO-free block location during binary
// search) stay memory-resident. Integrity mirrors CompressedDocTable:
// the source digest, plus per-column digests over the encoded bytes of
// the coded layout, re-checked by ValidateImage at Database open time.

#ifndef STAIRJOIN_STORAGE_COMPRESSED_TAGS_H_
#define STAIRJOIN_STORAGE_COMPRESSED_TAGS_H_

#include <memory>
#include <vector>

#include "core/fragment_cursor.h"
#include "encoding/doc_table.h"
#include "storage/buffer_pool.h"
#include "storage/compressed_accessor.h"
#include "storage/compressed_doc.h"

namespace sj::storage {

/// \brief One tag's pool-backed projection: block directories + resident
/// fences.
struct CompressedFragment {
  TagId tag = kNoTag;
  /// Number of element nodes carrying the tag (== slots).
  uint32_t size = 0;
  /// Image of the fragment's pre column.
  CompressedColumn pre;
  /// Image of the fragment's post column, block-parallel to `pre`.
  CompressedColumn post;
  /// First pre rank in each pre block (resident fence keys, so
  /// LowerBound decodes at most one block).
  std::vector<NodeId> fence_pre;
};

/// \brief Fragmentation by tag name on disk pages: one image per element
/// tag, built in a single scan of the document.
class CompressedTagIndex {
 public:
  /// Writes every tag fragment of `doc` onto `disk` (borrowed; must
  /// outlive this) in `layout`, allocating pages fragment by fragment in
  /// TagId order, pre column before post. Use the same disk as the
  /// document's images so one BufferPool serves everything. Materializes
  /// a transient TagIndex; callers that already hold one should pass it
  /// to the overload below and skip the second projection scan.
  static Result<std::unique_ptr<CompressedTagIndex>> Create(
      const DocTable& doc, SimulatedDisk* disk,
      ColumnLayout layout = ColumnLayout::kCoded);

  /// Same, reusing an already-built `index` over `doc` instead of
  /// materializing the projections a second time (Database::BuildImages
  /// passes its resident TagIndex here).
  static Result<std::unique_ptr<CompressedTagIndex>> Create(
      const DocTable& doc, const TagIndex& index, SimulatedDisk* disk,
      ColumnLayout layout = ColumnLayout::kCoded);

  /// The fragment for `tag` (empty fragment for unknown/attribute-only
  /// tags).
  const CompressedFragment& fragment(TagId tag) const {
    if (tag == kNoTag || tag >= fragments_.size()) return empty_;
    return fragments_[tag];
  }

  /// Number of element nodes carrying `tag` -- the selectivity statistic
  /// the pushdown cost model uses (resident; reading it faults nothing).
  uint64_t tag_count(TagId tag) const { return fragment(tag).size; }

  /// FragmentColumnsDigest of the source table, captured at Create time.
  uint64_t source_digest() const { return source_digest_; }

  /// Total pages written for all fragments (for the bench report).
  size_t page_count() const { return page_count_; }

  /// Re-reads every coded fragment's blocks from `disk` and verifies
  /// them against the captured image digests; a corrupt or stale block
  /// fails with InvalidArgument naming the fragment column.
  Status ValidateImage(const SimulatedDisk& disk) const;

 private:
  CompressedTagIndex() = default;

  std::vector<CompressedFragment> fragments_;  // indexed by TagId
  CompressedFragment empty_;
  uint64_t source_digest_ = 0;
  size_t page_count_ = 0;
};

/// \brief FragmentCursor over one pool-backed fragment of either layout.
///
/// Borrows the fragment and the pool; both must outlive the cursor. One
/// cursor holds up to two pinned pages (one per column) plus two
/// decoded-block frames. LowerBound locates the block through the
/// resident fence keys and binary-searches inside it, so a
/// whole-fragment search costs at most one page pin and one decode.
/// Sticky-error like CompressedDocAccessor: reads return 0 (LowerBound:
/// size()) after the first failure and the join surfaces status() once.
class CompressedFragmentCursor {
 public:
  CompressedFragmentCursor(const CompressedFragment& frag, BufferPool* pool)
      : frag_(&frag),
        pool_(pool),
        pre_(frag.pre, pool),
        post_(frag.post, pool) {}

  size_t size() const { return frag_->size; }

  NodeId Pre(size_t slot) {
    if (!status_.ok()) return 0;
    return pre_.At(slot, &status_);
  }

  uint32_t Post(size_t slot) {
    if (!status_.ok()) return 0;
    return post_.At(slot, &status_);
  }

  /// First slot with pre rank >= `pre` (size() if none, or after a
  /// failure). Fence keys narrow the search to one decoded block.
  size_t LowerBound(uint64_t pre) {
    if (!status_.ok() || frag_->size == 0) return frag_->size;
    const std::vector<NodeId>& fence = frag_->fence_pre;
    if (pre <= fence.front()) return 0;
    // Last block whose first pre rank is < `pre`; the answer lies in it
    // (or right past its end, which is the next block's first slot).
    size_t block = static_cast<size_t>(
                       std::lower_bound(fence.begin(), fence.end(), pre) -
                       fence.begin()) -
                   1;
    const bool raw = frag_->pre.layout == ColumnLayout::kRaw;
    const size_t per_block = pre_.block_values();
    size_t lo = block * per_block;
    size_t hi = std::min<size_t>(lo + frag_->pre.BlockValueCount(block),
                                 frag_->size);
    // A seek lands here next: the pre block is decoded immediately below
    // and the join reads the slot's post rank right after, so announce
    // both blocks' pages -- plus a one-block readahead window for the
    // forward scan that follows -- as one batched fault.
    if (pool_->prefetch_enabled()) {
      PageId hints[4];
      size_t count = 0;
      hints[count++] = pre_.PageFor(lo);
      hints[count++] = post_.PageFor(lo);
      if (lo + per_block < frag_->size) {
        hints[count++] = pre_.PageFor(lo + per_block);
        hints[count++] = post_.PageFor(lo + per_block);
      }
      pool_->Prefetch({hints, count});
    }
    // A raw block switch would only announce the pages just hinted.
    while (lo < hi) {
      size_t mid = lo + (hi - lo) / 2;
      if (pre_.At(mid, &status_, /*announce=*/!raw) < pre) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    if (!status_.ok()) return frag_->size;
    return lo;
  }

  /// A join jumps to `slot`: drop held pages the jump leaves behind so
  /// the pool can evict them, and -- when prefetching is on -- announce
  /// the landing blocks' pages as one batched fault.
  void SkipTo(size_t slot) {
    if (pool_->prefetch_enabled() && slot < frag_->size) {
      // Landing blocks' pages plus a one-block readahead window per
      // column: the leapfrog scans forward from the landing slot, so
      // the next block's page rides the same seek. The window exists
      // when the next raw block does, or when a coded block's length
      // past `slot` is still inside the fragment.
      PageId hints[4];
      size_t count = 0;
      AddSkipHint(pre_.guard(), pre_.PageFor(slot), hints, &count);
      AddSkipHint(post_.guard(), post_.PageFor(slot), hints, &count);
      const size_t next = pre_.NextBlockStart(slot);
      if (frag_->pre.layout == ColumnLayout::kRaw
              ? next < frag_->size
              : slot + pre_.block_values() < frag_->size) {
        AddSkipHint(pre_.guard(), pre_.PageFor(next), hints, &count);
        AddSkipHint(post_.guard(), post_.PageFor(next), hints, &count);
      }
      if (count > 0) pool_->Prefetch({hints, count});
    }
    pre_.SkipTo(slot);
    post_.SkipTo(slot);
  }

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

 private:
  const CompressedFragment* frag_;
  BufferPool* pool_;
  CompressedColumnCursor pre_;
  CompressedColumnCursor post_;
  Status status_;
};

static_assert(FragmentCursor<CompressedFragmentCursor>);

}  // namespace sj::storage

#endif  // STAIRJOIN_STORAGE_COMPRESSED_TAGS_H_
