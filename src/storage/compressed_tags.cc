#include "storage/compressed_tags.h"

#include <memory>
#include <string>

#include "core/tag_view.h"

namespace sj::storage {

Result<std::unique_ptr<CompressedTagIndex>> CompressedTagIndex::Create(
    const DocTable& doc, SimulatedDisk* disk, ColumnLayout layout) {
  // One scan of the document materializes every projection (transient;
  // only the encoded images and the directories survive).
  TagIndex index(doc);
  return Create(doc, index, disk, layout);
}

Result<std::unique_ptr<CompressedTagIndex>> CompressedTagIndex::Create(
    const DocTable& doc, const TagIndex& index, SimulatedDisk* disk,
    ColumnLayout layout) {
  if (disk == nullptr) {
    return Status::InvalidArgument(
        "CompressedTagIndex: disk must not be null");
  }
  auto compressed =
      std::unique_ptr<CompressedTagIndex>(new CompressedTagIndex());
  compressed->source_digest_ = FragmentColumnsDigest(doc);
  compressed->fragments_.resize(doc.tags().size());
  for (size_t t = 0; t < compressed->fragments_.size(); ++t) {
    const TagView& view = index.view(static_cast<TagId>(t));
    CompressedFragment& frag = compressed->fragments_[t];
    frag.tag = static_cast<TagId>(t);
    frag.size = static_cast<uint32_t>(view.size());
    SJ_RETURN_NOT_OK(WriteCompressedColumn(disk, layout, view.pre, &frag.pre,
                                           &frag.fence_pre));
    SJ_RETURN_NOT_OK(
        WriteCompressedColumn(disk, layout, view.post, &frag.post));
    compressed->page_count_ += frag.pre.pages.size() + frag.post.pages.size();
  }
  return compressed;
}

Status CompressedTagIndex::ValidateImage(const SimulatedDisk& disk) const {
  for (const CompressedFragment& frag : fragments_) {
    const std::string tag = std::to_string(frag.tag);
    SJ_RETURN_NOT_OK(ValidateCompressedColumn(
        disk, frag.pre, "fragment pre column of tag " + tag));
    SJ_RETURN_NOT_OK(ValidateCompressedColumn(
        disk, frag.post, "fragment post column of tag " + tag));
  }
  return Status::OK();
}

}  // namespace sj::storage
