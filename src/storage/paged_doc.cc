#include "storage/paged_doc.h"

#include <algorithm>
#include <cstring>

namespace sj::storage {
namespace {

/// Writes one byte-addressed column (kind/level) onto `disk`.
Status WriteByteColumn(SimulatedDisk* disk, std::span<const uint8_t> column,
                       std::vector<PageId>* pages) {
  for (size_t start = 0; start < column.size(); start += kPageSize) {
    PageId id = disk->Allocate();
    Page page;
    std::memset(page.bytes, 0, kPageSize);
    size_t count = std::min<size_t>(kPageSize, column.size() - start);
    std::memcpy(page.bytes, column.data() + start, count);
    SJ_RETURN_NOT_OK(disk->Write(id, page));
    pages->push_back(id);
  }
  return Status::OK();
}

}  // namespace

Status WriteRankColumn(SimulatedDisk* disk, std::span<const uint32_t> column,
                       std::vector<PageId>* pages) {
  for (size_t start = 0; start < column.size(); start += kRanksPerPage) {
    PageId id = disk->Allocate();
    Page page;
    std::memset(page.bytes, 0, kPageSize);
    size_t count = std::min<size_t>(kRanksPerPage, column.size() - start);
    std::memcpy(page.bytes, column.data() + start, count * sizeof(uint32_t));
    SJ_RETURN_NOT_OK(disk->Write(id, page));
    pages->push_back(id);
  }
  return Status::OK();
}

Result<std::unique_ptr<PagedDocTable>> PagedDocTable::Create(
    const DocTable& doc, SimulatedDisk* disk) {
  if (disk == nullptr) {
    return Status::InvalidArgument("PagedDocTable: disk must not be null");
  }
  auto paged = std::unique_ptr<PagedDocTable>(new PagedDocTable());
  paged->size_ = doc.size();
  paged->height_ = doc.height();
  paged->source_digest_ = DocColumnsDigest(doc);

  SJ_RETURN_NOT_OK(WriteRankColumn(disk, doc.posts(), &paged->post_pages_));
  SJ_RETURN_NOT_OK(WriteByteColumn(disk, doc.kinds(), &paged->kind_pages_));
  SJ_RETURN_NOT_OK(WriteByteColumn(disk, doc.levels(), &paged->level_pages_));
  SJ_RETURN_NOT_OK(
      WriteRankColumn(disk, doc.parents(), &paged->parent_pages_));
  SJ_RETURN_NOT_OK(
      WriteRankColumn(disk, doc.tags_column(), &paged->tag_pages_));
  return paged;
}

Result<uint32_t> PagedDocTable::PostAt(BufferPool* pool, NodeId v) const {
  if (v >= size_) return Status::OutOfRange("node id out of range");
  SJ_ASSIGN_OR_RETURN(const uint8_t* page, pool->Pin(PostPage(v)));
  uint32_t value;
  std::memcpy(&value, page + (v % kRanksPerPage) * sizeof(uint32_t),
              sizeof(uint32_t));
  SJ_RETURN_NOT_OK(pool->Unpin(PostPage(v)));
  return value;
}

}  // namespace sj::storage
