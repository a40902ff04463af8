#include "storage/paged_tags.h"

#include "core/tag_view.h"

namespace sj::storage {

Result<std::unique_ptr<PagedTagIndex>> PagedTagIndex::Create(
    const DocTable& doc, SimulatedDisk* disk) {
  if (disk == nullptr) {
    return Status::InvalidArgument("PagedTagIndex: disk must not be null");
  }
  auto paged = std::unique_ptr<PagedTagIndex>(new PagedTagIndex());
  paged->source_digest_ = FragmentColumnsDigest(doc);

  // One scan of the document materializes every projection (transient;
  // only the page images and the directory survive).
  TagIndex index(doc);
  paged->fragments_.resize(doc.tags().size());
  for (size_t t = 0; t < paged->fragments_.size(); ++t) {
    const TagView& view = index.view(static_cast<TagId>(t));
    PagedFragment& frag = paged->fragments_[t];
    frag.tag = static_cast<TagId>(t);
    frag.size = static_cast<uint32_t>(view.size());
    SJ_RETURN_NOT_OK(WriteRankColumn(disk, view.pre, &frag.pre_pages));
    SJ_RETURN_NOT_OK(WriteRankColumn(disk, view.post, &frag.post_pages));
    frag.fence_pre.reserve(frag.pre_pages.size());
    for (size_t start = 0; start < view.size(); start += kRanksPerPage) {
      frag.fence_pre.push_back(view.pre[start]);
    }
    paged->page_count_ += frag.pre_pages.size() + frag.post_pages.size();
  }
  return paged;
}

uint64_t PagedTagIndex::directory_bytes() const {
  uint64_t bytes = 0;
  for (const PagedFragment& frag : fragments_) {
    bytes += sizeof(PagedFragment) +
             (frag.pre_pages.capacity() + frag.post_pages.capacity()) *
                 sizeof(PageId) +
             frag.fence_pre.capacity() * sizeof(NodeId);
  }
  return bytes;
}

}  // namespace sj::storage
