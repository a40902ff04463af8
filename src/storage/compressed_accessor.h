// CompressedDocAccessor: the pool-backed backend of the staircase join
// and the non-staircase axis cursors, over either column layout.
//
// Implements the DocAccessor concept (core/doc_accessor.h) over a
// CompressedDocTable: every post/kind/level/parent/tag read pins the
// page holding the rank's block through the BufferPool. A coded block is
// decoded at most once per visit into a small per-column frame cache --
// sequential scans decode each block exactly once, and reads within the
// cached block touch neither the pool nor the codec. A raw block is read
// straight from its pinned page, so sequential scans pin each page of
// their range once. SkipTo releases the pages a jump leaves behind
// (block-granular via the resident directory), which is how the paper's
// "nodes never touched" become pages never read -- and, coded, strictly
// fewer of them than the raw image at equal page size.
//
// Error model: Pin can fail (e.g. every frame pinned in an undersized
// pool), and so can decoding a block. The accessor is sticky-error --
// the first failure is recorded, subsequent reads return 0 without
// touching the pool, and the join driver surfaces status() once at the
// end (kernel loops stay branch-lean and remain bounded because reads of
// 0 still advance the scans).

#ifndef STAIRJOIN_STORAGE_COMPRESSED_ACCESSOR_H_
#define STAIRJOIN_STORAGE_COMPRESSED_ACCESSOR_H_

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>

#include "core/doc_accessor.h"
#include "encoding/block_codec.h"
#include "storage/buffer_pool.h"
#include "storage/compressed_doc.h"

namespace sj::storage {

/// Keeps at most one page pinned; switching to another page unpins the
/// previous one. Sequential scans touch each page of their range once.
class PageGuard {
 public:
  explicit PageGuard(BufferPool* pool) : pool_(pool) {}
  ~PageGuard() { Release(); }
  PageGuard(const PageGuard&) = delete;
  PageGuard& operator=(const PageGuard&) = delete;

  /// The bytes of page `id`, pinning it if needed; nullptr on pool
  /// failure (the error lands in `status` if it is still OK).
  const uint8_t* Get(PageId id, Status* status) {
    if (holding_ && id == held_) return data_;
    Release();
    Result<const uint8_t*> pinned = pool_->Pin(id);
    if (!pinned.ok()) {
      if (status->ok()) *status = pinned.status();
      return nullptr;
    }
    data_ = pinned.value();
    held_ = id;
    holding_ = true;
    return data_;
  }

  /// Unpins the held page unless it is page `id`.
  void ReleaseUnless(PageId id) {
    if (holding_ && held_ != id) Release();
  }

  void Release() {
    if (holding_) {
      (void)pool_->Unpin(held_);
      holding_ = false;
    }
  }

  /// True while a page is pinned (i.e. the column is actively scanning).
  bool holding() const { return holding_; }

  /// The pinned page id (meaningful only while holding()).
  PageId held() const { return held_; }

  /// Announces that the next read moves this guard to `page`, with
  /// `next` as the column's following page (the readahead window): when
  /// the column is actively scanning elsewhere and prefetching is on,
  /// both pages are handed to BufferPool::Prefetch as one batched
  /// fault. Cursors call this right before Get on every page switch, so
  /// sequential boundary crossings batch exactly like SkipTo leaps --
  /// and since a scan that crossed into `page` usually keeps going,
  /// `next` rides the same seek for the cheap per-page transfer cost
  /// instead of its own synchronous fault. Pass `next == page` at
  /// end-of-column (the duplicate is dropped, leaving a degenerate
  /// single-page hint that Prefetch ignores). No-op when not scanning,
  /// not switching, or prefetch is off.
  void AnnounceSwitch(PageId page, PageId next) {
    if (!holding_ || held_ == page || !pool_->prefetch_enabled()) return;
    const PageId hints[2] = {page, next};
    pool_->Prefetch(hints);
  }

 private:
  BufferPool* pool_;
  PageId held_ = 0;
  bool holding_ = false;
  const uint8_t* data_ = nullptr;
};

/// Appends `target` to the hint list `out` iff `guard` is actively
/// scanning (holding a page) and the jump moves it to a different page
/// -- the two signals that the kernel reads this column and that the
/// read will fault without help. Shared by the SkipTo hint emission of
/// every pool-backed cursor.
inline void AddSkipHint(const PageGuard& guard, PageId target, PageId* out,
                        size_t* count) {
  if (guard.holding() && guard.held() != target) out[(*count)++] = target;
}

/// Which page a block switch announces as its readahead window. The two
/// rules differ only near a column's tail, and the committed prefetch-on
/// fault baselines pin both.
enum class Readahead : uint8_t {
  /// The first page past the landing page; the landing page itself on
  /// the column's last page.
  kNextPage,
  /// The page one block past the read index; the landing page when that
  /// index is past the column end (raw doc columns).
  kRankAhead,
};

/// One column's read cursor: a PageGuard over the block's page plus,
/// for the coded layout, the decoded block cached in the frame. Holds at
/// most one pinned page; moving to a block on another page unpins the
/// previous one (coded blocks sharing a page cost a single pin per
/// visit).
class CompressedColumnCursor {
 public:
  CompressedColumnCursor(const CompressedColumn& col, BufferPool* pool,
                         Readahead readahead = Readahead::kNextPage)
      : col_(&col),
        guard_(pool),
        raw_(col.layout == ColumnLayout::kRaw),
        narrow_(raw_ && col.raw_width == 1),
        readahead_(readahead),
        shift_(static_cast<uint32_t>(std::countr_zero(col.BlockValues()))),
        mask_(col.BlockValues() - 1) {}

  /// Value at `index`; 0 after a failure (recorded in *status).
  /// `announce` = false skips the readahead hint of a block switch (a
  /// caller that has just hinted the landing pages itself).
  uint32_t At(uint64_t index, Status* status, bool announce = true) {
    const size_t b = static_cast<size_t>(index >> shift_);
    if (b != block_ && !Load(b, index, status, announce)) return 0;
    const size_t slot = static_cast<size_t>(index & mask_);
    if (narrow_) return frame_[slot];
    uint32_t value;
    std::memcpy(&value, frame_ + slot * sizeof(uint32_t), sizeof(uint32_t));
    return value;
  }

  /// A kernel jumps to `index`: drop the held page unless the target
  /// block lives on it. A decoded frame stays valid -- it is a copy; a
  /// raw block is read from the pool frame, so it goes with its page.
  void SkipTo(uint64_t index) {
    if (!guard_.holding()) return;  // an idle column has nothing to drop
    if (index >= col_->values) {
      guard_.Release();
    } else {
      guard_.ReleaseUnless(PageFor(index));
    }
    if (raw_ && !guard_.holding()) block_ = kNoBlock;
  }

  /// The disk page holding `index`'s block (for prefetch hints).
  PageId PageFor(uint64_t index) const {
    return col_->blocks[static_cast<size_t>(index >> shift_)].page;
  }

  /// Values per full block of the column.
  size_t block_values() const { return mask_ + 1; }

  /// The first index of the block after `index`'s.
  uint64_t NextBlockStart(uint64_t index) const {
    return ((index >> shift_) + 1) << shift_;
  }

  /// The guard the hint emission inspects (holding()/held()).
  const PageGuard& guard() const { return guard_; }

 private:
  static constexpr size_t kNoBlock = static_cast<size_t>(-1);

  bool Load(size_t b, uint64_t index, Status* status, bool announce) {
    block_ = kNoBlock;
    const CompressedBlockRef& ref = col_->blocks[b];
    // Announce the page switch with the column's NEXT page as the
    // readahead window, so sequential block-boundary crossings batch
    // like SkipTo leaps.
    if (announce) guard_.AnnounceSwitch(ref.page, NextPage(b, index));
    const uint8_t* page = guard_.Get(ref.page, status);
    if (page == nullptr) return false;
    if (raw_) {
      frame_ = page;
    } else {
      Status decoded = encoding::DecodeBlock(
          page + ref.offset, ref.bytes, col_->BlockValueCount(b), decoded_);
      if (!decoded.ok()) {
        if (status->ok()) *status = decoded;
        return false;
      }
    }
    block_ = b;
    return true;
  }

  /// The readahead page of a switch into block `b` at `index`, per
  /// readahead_. Several coded blocks share a page, so kNextPage is the
  /// page of the first block past the landing page -- block page ids are
  /// non-decreasing (BlockPageWriter appends), hence the binary search.
  PageId NextPage(size_t b, uint64_t index) const {
    const PageId page = col_->blocks[b].page;
    if (readahead_ == Readahead::kRankAhead) {
      return index + block_values() < col_->values ? col_->blocks[b + 1].page
                                                   : page;
    }
    auto it = std::upper_bound(
        col_->blocks.begin() + static_cast<ptrdiff_t>(b), col_->blocks.end(),
        page, [](PageId p, const CompressedBlockRef& r) { return p < r.page; });
    return it != col_->blocks.end() ? it->page : page;
  }

  const CompressedColumn* col_;
  PageGuard guard_;
  bool raw_;
  bool narrow_;  // raw byte values (kind/level); else uint32 frames
  Readahead readahead_;
  uint32_t shift_;
  size_t mask_;
  size_t block_ = kNoBlock;
  uint32_t decoded_[encoding::kBlockValues];
  // The loaded block's values: the decoded frame, or the pinned raw page.
  const uint8_t* frame_ = reinterpret_cast<const uint8_t*>(decoded_);
};

/// \brief DocAccessor over pool-backed columns of either layout.
///
/// Borrows the table and the pool; both must outlive the accessor. One
/// accessor holds up to five pinned pages (one per column actually
/// read; the staircase kernels touch at most post/kind/level, the axis
/// cursors additionally parent/tag) plus five decoded-block frames.
/// Accessors are not thread-safe, but independent accessors may share
/// one pool (BufferPool is internally synchronized) -- the parallel join
/// gives each worker its own.
class CompressedDocAccessor {
 public:
  CompressedDocAccessor(const CompressedDocTable& doc, BufferPool* pool)
      : size_(doc.size()),
        raw_(doc.layout() == ColumnLayout::kRaw),
        pool_(pool),
        post_(doc.post(), pool, ReadaheadOf(doc)),
        kind_(doc.kind(), pool, ReadaheadOf(doc)),
        level_(doc.level(), pool, ReadaheadOf(doc)),
        parent_(doc.parent(), pool, ReadaheadOf(doc)),
        tag_(doc.tag(), pool, ReadaheadOf(doc)) {}

  size_t size() const { return size_; }

  uint32_t Post(uint64_t pre) {
    if (!status_.ok()) return 0;
    return post_.At(pre, &status_);
  }
  uint8_t Kind(uint64_t pre) {
    if (!status_.ok()) return 0;
    return static_cast<uint8_t>(kind_.At(pre, &status_));
  }
  uint8_t Level(uint64_t pre) {
    if (!status_.ok()) return 0;
    return static_cast<uint8_t>(level_.At(pre, &status_));
  }
  NodeId Parent(uint64_t pre) {
    if (!status_.ok()) return 0;
    return parent_.At(pre, &status_);
  }
  TagId Tag(uint64_t pre) {
    if (!status_.ok()) return 0;
    return tag_.At(pre, &status_);
  }

  /// A kernel jumps to pre rank `pre`: release the pages the jump
  /// leaves behind so the pool can evict them, and -- when prefetching
  /// is on -- announce the landing blocks' pages of the columns being
  /// scanned so the pool faults them in ONE batched read.
  void SkipTo(uint64_t pre) {
    if (pool_->prefetch_enabled() && pre < size_) HintSkip(pre);
    post_.SkipTo(pre);
    kind_.SkipTo(pre);
    level_.SkipTo(pre);
    parent_.SkipTo(pre);
    tag_.SkipTo(pre);
  }

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

 private:
  static Readahead ReadaheadOf(const CompressedDocTable& doc) {
    return doc.layout() == ColumnLayout::kRaw ? Readahead::kRankAhead
                                              : Readahead::kNextPage;
  }

  /// SkipTo's prefetch hints: the landing block's page per active
  /// column, plus a one-block readahead window -- a leap is usually
  /// followed by a forward scan, so the next block's page rides the same
  /// seek for a kBatchTransferDivisor-times cheaper transfer. Raw byte
  /// columns hold four times as many values per block; their window
  /// hints follow the rank columns'.
  void HintSkip(uint64_t pre) {
    PageId hints[10];
    size_t count = 0;
    AddSkipHint(post_.guard(), post_.PageFor(pre), hints, &count);
    AddSkipHint(kind_.guard(), kind_.PageFor(pre), hints, &count);
    AddSkipHint(level_.guard(), level_.PageFor(pre), hints, &count);
    AddSkipHint(parent_.guard(), parent_.PageFor(pre), hints, &count);
    AddSkipHint(tag_.guard(), tag_.PageFor(pre), hints, &count);
    AddAheadHint(post_, pre, hints, &count);
    if (raw_) {
      AddAheadHint(parent_, pre, hints, &count);
      AddAheadHint(tag_, pre, hints, &count);
    }
    AddAheadHint(kind_, pre, hints, &count);
    AddAheadHint(level_, pre, hints, &count);
    if (!raw_) {
      AddAheadHint(parent_, pre, hints, &count);
      AddAheadHint(tag_, pre, hints, &count);
    }
    if (count > 0) pool_->Prefetch({hints, count});
  }

  /// SkipTo's readahead hint for `col`: the page one block past `pre`.
  void AddAheadHint(const CompressedColumnCursor& col, uint64_t pre,
                    PageId* hints, size_t* count) const {
    const uint64_t ahead = pre + col.block_values();
    if (ahead < size_) AddSkipHint(col.guard(), col.PageFor(ahead), hints,
                                   count);
  }

  size_t size_;
  bool raw_;
  BufferPool* pool_;
  CompressedColumnCursor post_;
  CompressedColumnCursor kind_;
  CompressedColumnCursor level_;
  CompressedColumnCursor parent_;
  CompressedColumnCursor tag_;
  Status status_;
};

static_assert(DocAccessor<CompressedDocAccessor>);

}  // namespace sj::storage

#endif  // STAIRJOIN_STORAGE_COMPRESSED_ACCESSOR_H_
