// Paged document columns.
//
// PagedDocTable lays the doc encoding's post/kind/level/parent/tag
// columns out in disk pages (column-wise, 2048 ranks or 8192 kind/level
// bytes per page) behind a BufferPool. This file holds the image only:
// the join algorithms live ONCE in core/ (core/staircase_impl.h,
// core/axis_impl.h), generic over the DocAccessor concept, and read the
// image through PagedDocAccessor (storage/paged_accessor.h), which the
// evaluator builds at its one accessor-construction site
// (xpath/backend_dispatch.h). Skipping then turns the paper's "nodes
// never touched" directly into disk pages never read.

#ifndef STAIRJOIN_STORAGE_PAGED_DOC_H_
#define STAIRJOIN_STORAGE_PAGED_DOC_H_

#include <memory>

#include "encoding/doc_table.h"
#include "storage/buffer_pool.h"

namespace sj::storage {

/// Post ranks per page.
inline constexpr uint32_t kRanksPerPage =
    static_cast<uint32_t>(kPageSize / sizeof(uint32_t));

/// Lays one uint32 rank column out on `disk` (kRanksPerPage values per
/// page, zero-padded) and appends the page ids to `pages`. The shared
/// page format of the document post column and the fragment pre/post
/// columns -- they live behind the same BufferPool.
Status WriteRankColumn(SimulatedDisk* disk, std::span<const uint32_t> column,
                       std::vector<PageId>* pages);

/// \brief Column-wise paged image of a DocTable (post/kind/level columns).
class PagedDocTable {
 public:
  /// Writes `doc`'s columns onto `disk` (borrowed; must outlive this).
  static Result<std::unique_ptr<PagedDocTable>> Create(const DocTable& doc,
                                                       SimulatedDisk* disk);

  /// Number of encoded nodes.
  size_t size() const { return size_; }
  /// Document height (Eq. (1) bound), copied from the source table.
  uint32_t height() const { return height_; }

  /// Page holding post(v).
  PageId PostPage(NodeId v) const {
    return post_pages_[v / kRanksPerPage];
  }
  /// Page holding kind(v).
  PageId KindPage(NodeId v) const { return kind_pages_[v / kPageSize]; }
  /// Page holding level(v).
  PageId LevelPage(NodeId v) const { return level_pages_[v / kPageSize]; }
  /// Page holding parent(v).
  PageId ParentPage(NodeId v) const {
    return parent_pages_[v / kRanksPerPage];
  }
  /// Page holding tag(v).
  PageId TagPage(NodeId v) const { return tag_pages_[v / kRanksPerPage]; }

  /// Total pages used by the post column.
  size_t post_page_count() const { return post_pages_.size(); }

  /// DocColumnsDigest of the source table, captured at Create time.
  uint64_t source_digest() const { return source_digest_; }

  /// Reads post(v) through the pool (pins and unpins one page).
  Result<uint32_t> PostAt(BufferPool* pool, NodeId v) const;

 private:
  PagedDocTable() = default;

  size_t size_ = 0;
  uint32_t height_ = 0;
  uint64_t source_digest_ = 0;
  std::vector<PageId> post_pages_;
  std::vector<PageId> kind_pages_;
  std::vector<PageId> level_pages_;
  std::vector<PageId> parent_pages_;
  std::vector<PageId> tag_pages_;
};

}  // namespace sj::storage

#endif  // STAIRJOIN_STORAGE_PAGED_DOC_H_
