// Paged tag fragments: fragmentation by tag name behind the buffer pool.
//
// PagedTagIndex lays every element tag's pre/post fragment columns
// (core/tag_view.h) out in disk pages behind the shared BufferPool, with
// a per-fragment page directory. PagedFragmentCursor implements the
// FragmentCursor concept (core/fragment_cursor.h) over one such
// fragment; the evaluator builds it at its one fragment-cursor
// construction site (xpath/backend_dispatch.h) and hands it to the ONE
// fragment join body (core/fragment_impl.h) and twig body
// (core/twig_impl.h). Name-test pushdown (paper Section 4.4) then turns
// "nodes never touched" into fragment pages never read, instead of
// silently bypassing the pool through the memory-resident TagIndex.
//
// Only the page directory and the per-page fence keys (the first pre
// rank on each pre page, for IO-free page location during binary
// search) stay memory-resident -- the same directory-vs-data split
// PagedDocTable uses for its column page tables.

#ifndef STAIRJOIN_STORAGE_PAGED_TAGS_H_
#define STAIRJOIN_STORAGE_PAGED_TAGS_H_

#include <cstring>
#include <memory>
#include <vector>

#include "core/fragment_cursor.h"
#include "encoding/doc_table.h"
#include "storage/buffer_pool.h"
#include "storage/paged_accessor.h"
#include "storage/paged_doc.h"

namespace sj::storage {

/// \brief One tag's paged projection: page directory + resident fences.
struct PagedFragment {
  TagId tag = kNoTag;
  /// Number of element nodes carrying the tag (== slots).
  uint32_t size = 0;
  /// Pages of the fragment's pre column (kRanksPerPage slots each).
  std::vector<PageId> pre_pages;
  /// Pages of the fragment's post column, parallel to pre_pages.
  std::vector<PageId> post_pages;
  /// First pre rank on each pre page (resident fence keys, so
  /// LowerBound touches at most one data page).
  std::vector<NodeId> fence_pre;
};

/// \brief Fragmentation by tag name on disk pages: one paged pre/post
/// fragment per element tag, built in a single scan of the document.
class PagedTagIndex {
 public:
  /// Writes every tag fragment of `doc` onto `disk` (borrowed; must
  /// outlive this). Use the same disk as the document's PagedDocTable so
  /// one BufferPool serves both.
  static Result<std::unique_ptr<PagedTagIndex>> Create(const DocTable& doc,
                                                       SimulatedDisk* disk);

  /// The fragment for `tag` (empty fragment for unknown/attribute-only
  /// tags).
  const PagedFragment& fragment(TagId tag) const {
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

  /// Resident bytes of the page directory + fence keys.
  uint64_t directory_bytes() const;

 private:
  PagedTagIndex() = default;

  std::vector<PagedFragment> fragments_;  // indexed by TagId
  PagedFragment empty_;
  uint64_t source_digest_ = 0;
  size_t page_count_ = 0;
};

/// \brief FragmentCursor over one paged fragment behind a buffer pool.
///
/// Borrows the fragment and the pool; both must outlive the cursor. One
/// cursor holds up to two pinned pages (one per column); sequential
/// scans pin each page of their range once. LowerBound locates the page
/// through the resident fence keys and binary-searches inside it, so a
/// whole-fragment search costs at most one page pin. Sticky-error like
/// PagedDocAccessor: reads return 0 (LowerBound: size()) after the
/// first pool failure and the join surfaces status() once.
class PagedFragmentCursor {
 public:
  PagedFragmentCursor(const PagedFragment& frag, BufferPool* pool)
      : frag_(&frag), pool_(pool), pre_guard_(pool), post_guard_(pool) {}

  size_t size() const { return frag_->size; }

  NodeId Pre(size_t slot) {
    if (!status_.ok()) return 0;
    const size_t p = slot / kRanksPerPage;
    pre_guard_.AnnounceSwitch(frag_->pre_pages[p],
                              frag_->pre_pages[PageAhead(p)]);
    const uint8_t* page = pre_guard_.Get(frag_->pre_pages[p], &status_);
    if (page == nullptr) return 0;
    uint32_t value;
    std::memcpy(&value, page + (slot % kRanksPerPage) * sizeof(uint32_t),
                sizeof(uint32_t));
    return value;
  }

  uint32_t Post(size_t slot) {
    if (!status_.ok()) return 0;
    const size_t p = slot / kRanksPerPage;
    post_guard_.AnnounceSwitch(frag_->post_pages[p],
                               frag_->post_pages[PageAhead(p)]);
    const uint8_t* page = post_guard_.Get(frag_->post_pages[p], &status_);
    if (page == nullptr) return 0;
    uint32_t value;
    std::memcpy(&value, page + (slot % kRanksPerPage) * sizeof(uint32_t),
                sizeof(uint32_t));
    return value;
  }

  /// First slot with pre rank >= `pre` (size() if none, or after a pool
  /// failure). Fence keys narrow the search to one pre page.
  size_t LowerBound(uint64_t pre) {
    if (!status_.ok() || frag_->size == 0) return frag_->size;
    const std::vector<NodeId>& fence = frag_->fence_pre;
    if (pre <= fence.front()) return 0;
    // Last page whose first pre rank is < `pre`; the answer lies on it
    // (or right past its end, which is the next page's first slot).
    size_t page = static_cast<size_t>(
                      std::lower_bound(fence.begin(), fence.end(), pre) -
                      fence.begin()) -
                  1;
    // A seek lands here next: the pre page is read immediately below and
    // the join reads the slot's post rank right after, so announce both
    // pages -- plus a one-page readahead window for the forward scan
    // that follows -- as one batched fault instead of synchronous seeks.
    if (pool_->prefetch_enabled()) {
      PageId hints[4];
      size_t count = 0;
      hints[count++] = frag_->pre_pages[page];
      hints[count++] = frag_->post_pages[page];
      if (page + 1 < frag_->pre_pages.size()) {
        hints[count++] = frag_->pre_pages[page + 1];
        hints[count++] = frag_->post_pages[page + 1];
      }
      pool_->Prefetch({hints, count});
    }
    const uint8_t* bytes = pre_guard_.Get(frag_->pre_pages[page], &status_);
    if (bytes == nullptr) return frag_->size;
    size_t begin = page * kRanksPerPage;
    size_t lo = begin;
    size_t hi = std::min<size_t>(begin + kRanksPerPage, frag_->size);
    while (lo < hi) {
      size_t mid = lo + (hi - lo) / 2;
      uint32_t value;
      std::memcpy(&value, bytes + (mid - begin) * sizeof(uint32_t),
                  sizeof(uint32_t));
      if (value < pre) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  }

  /// A join jumps to `slot`: drop held pages the jump leaves behind so
  /// the pool can evict them (pages in between are never read), and --
  /// when prefetching is on -- announce the landing pages of the columns
  /// being scanned as one batched fault.
  void SkipTo(size_t slot) {
    if (slot >= frag_->size) {
      pre_guard_.Release();
      post_guard_.Release();
      return;
    }
    if (pool_->prefetch_enabled()) {
      // Landing pages plus a one-page readahead window per column (see
      // PagedDocAccessor::SkipTo): the leapfrog scans forward from the
      // landing slot, so the next page rides the same seek.
      PageId hints[4];
      size_t count = 0;
      const size_t page = slot / kRanksPerPage;
      AddSkipHint(pre_guard_, frag_->pre_pages[page], hints, &count);
      AddSkipHint(post_guard_, frag_->post_pages[page], hints, &count);
      if (page + 1 < frag_->pre_pages.size()) {
        AddSkipHint(pre_guard_, frag_->pre_pages[page + 1], hints, &count);
        AddSkipHint(post_guard_, frag_->post_pages[page + 1], hints, &count);
      }
      if (count > 0) pool_->Prefetch({hints, count});
    }
    pre_guard_.ReleaseUnless(frag_->pre_pages[slot / kRanksPerPage]);
    post_guard_.ReleaseUnless(frag_->post_pages[slot / kRanksPerPage]);
  }

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

 private:
  /// The page index after `p` (clamped to `p` on the last page, which
  /// degenerates the readahead hint into the landing page itself): the
  /// second half of AnnounceSwitch hints.
  size_t PageAhead(size_t p) const {
    return p + 1 < frag_->pre_pages.size() ? p + 1 : p;
  }

  const PagedFragment* frag_;
  BufferPool* pool_;
  PageGuard pre_guard_;
  PageGuard post_guard_;
  Status status_;
};

static_assert(FragmentCursor<PagedFragmentCursor>);

}  // namespace sj::storage

#endif  // STAIRJOIN_STORAGE_PAGED_TAGS_H_
