#include "storage/compressed_doc.h"

#include <algorithm>
#include <cstring>

namespace sj::storage {
namespace {

constexpr uint64_t kFnvBasis = 0xCBF29CE484222325ULL;

/// Packs encoded blocks onto disk pages, first-fit in block order; a
/// block never spans pages. Also folds every encoded byte into the
/// column's image digest, so the digest covers exactly what lands on
/// disk.
class BlockPageWriter {
 public:
  explicit BlockPageWriter(SimulatedDisk* disk, CompressedColumn* column)
      : disk_(disk), column_(column) {
    column_->image_digest = kFnvBasis;
  }

  Status Append(const uint8_t* data, size_t bytes) {
    if (open_ && used_ + bytes > kPageSize) SJ_RETURN_NOT_OK(Flush());
    if (!open_) {
      id_ = disk_->Allocate();
      column_->pages.push_back(id_);
      std::memset(page_.bytes, 0, kPageSize);
      used_ = 0;
      open_ = true;
    }
    std::memcpy(page_.bytes + used_, data, bytes);
    column_->blocks.push_back({id_, static_cast<uint16_t>(used_),
                               static_cast<uint16_t>(bytes)});
    column_->image_digest = FnvMixBytes(column_->image_digest, data, bytes);
    column_->encoded_bytes += bytes;
    used_ += bytes;
    return Status::OK();
  }

  Status Flush() {
    if (!open_) return Status::OK();
    open_ = false;
    return disk_->Write(id_, page_);
  }

 private:
  SimulatedDisk* disk_;
  CompressedColumn* column_;
  Page page_;
  size_t used_ = 0;
  PageId id_ = 0;
  bool open_ = false;
};

/// WriteCompressedColumn for a byte column (kind/level), widened
/// block-wise; FOR packs the handful of distinct kinds/levels into a
/// few bits per value.
Status WriteCompressedByteColumn(SimulatedDisk* disk,
                                 std::span<const uint8_t> values,
                                 CompressedColumn* column) {
  column->values = values.size();
  BlockPageWriter writer(disk, column);
  uint8_t scratch[encoding::MaxEncodedBlockBytes(encoding::kBlockValues)];
  uint32_t widened[encoding::kBlockValues];
  for (size_t start = 0; start < values.size();
       start += encoding::kBlockValues) {
    const size_t count =
        std::min(encoding::kBlockValues, values.size() - start);
    for (size_t i = 0; i < count; ++i) widened[i] = values[start + i];
    const size_t bytes = encoding::EncodeBlock(
        std::span<const uint32_t>(widened, count), scratch);
    SJ_RETURN_NOT_OK(writer.Append(scratch, bytes));
  }
  return writer.Flush();
}

}  // namespace

uint64_t FnvMixBytes(uint64_t h, const uint8_t* data, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    h ^= data[i];
    h *= 0x100000001B3ULL;  // FNV prime
  }
  return h;
}

Status WriteCompressedColumn(SimulatedDisk* disk,
                             std::span<const uint32_t> values,
                             CompressedColumn* column,
                             std::vector<uint32_t>* fence_pre) {
  column->values = values.size();
  BlockPageWriter writer(disk, column);
  uint8_t scratch[encoding::MaxEncodedBlockBytes(encoding::kBlockValues)];
  for (size_t start = 0; start < values.size();
       start += encoding::kBlockValues) {
    const size_t count =
        std::min(encoding::kBlockValues, values.size() - start);
    const size_t bytes =
        encoding::EncodeBlock(values.subspan(start, count), scratch);
    SJ_RETURN_NOT_OK(writer.Append(scratch, bytes));
    if (fence_pre != nullptr) fence_pre->push_back(values[start]);
  }
  return writer.Flush();
}

Status ValidateCompressedColumn(const SimulatedDisk& disk,
                                const CompressedColumn& column,
                                const std::string& what) {
  uint64_t h = kFnvBasis;
  Page page;
  PageId loaded = 0;
  bool have_page = false;
  for (const CompressedBlockRef& ref : column.blocks) {
    if (static_cast<size_t>(ref.offset) + ref.bytes > kPageSize) {
      return Status::InvalidArgument("compressed image: the " + what +
                                     "'s block directory overruns a page");
    }
    if (!have_page || loaded != ref.page) {
      SJ_RETURN_NOT_OK(disk.Read(ref.page, &page));
      loaded = ref.page;
      have_page = true;
    }
    h = FnvMixBytes(h, page.bytes + ref.offset, ref.bytes);
  }
  if (h != column.image_digest) {
    return Status::InvalidArgument(
        "corrupt compressed image: the " + what +
        "'s encoded blocks digest to " + std::to_string(h) +
        " but the directory expects " + std::to_string(column.image_digest) +
        "; a block is corrupt or stale");
  }
  return Status::OK();
}

Result<std::unique_ptr<CompressedDocTable>> CompressedDocTable::Create(
    const DocTable& doc, SimulatedDisk* disk) {
  if (disk == nullptr) {
    return Status::InvalidArgument(
        "CompressedDocTable: disk must not be null");
  }
  auto compressed =
      std::unique_ptr<CompressedDocTable>(new CompressedDocTable());
  compressed->size_ = doc.size();
  compressed->height_ = doc.height();
  compressed->source_digest_ = DocColumnsDigest(doc);

  SJ_RETURN_NOT_OK(
      WriteCompressedColumn(disk, doc.posts(), &compressed->post_));
  SJ_RETURN_NOT_OK(
      WriteCompressedByteColumn(disk, doc.kinds(), &compressed->kind_));
  SJ_RETURN_NOT_OK(
      WriteCompressedByteColumn(disk, doc.levels(), &compressed->level_));
  SJ_RETURN_NOT_OK(
      WriteCompressedColumn(disk, doc.parents(), &compressed->parent_));
  SJ_RETURN_NOT_OK(
      WriteCompressedColumn(disk, doc.tags_column(), &compressed->tag_));
  return compressed;
}

size_t CompressedDocTable::page_count() const {
  return post_.pages.size() + kind_.pages.size() + level_.pages.size() +
         parent_.pages.size() + tag_.pages.size();
}

uint64_t CompressedDocTable::encoded_bytes() const {
  return post_.encoded_bytes + kind_.encoded_bytes + level_.encoded_bytes +
         parent_.encoded_bytes + tag_.encoded_bytes;
}

Status CompressedDocTable::ValidateImage(const SimulatedDisk& disk) const {
  SJ_RETURN_NOT_OK(ValidateCompressedColumn(disk, post_, "post column"));
  SJ_RETURN_NOT_OK(ValidateCompressedColumn(disk, kind_, "kind column"));
  SJ_RETURN_NOT_OK(ValidateCompressedColumn(disk, level_, "level column"));
  SJ_RETURN_NOT_OK(ValidateCompressedColumn(disk, parent_, "parent column"));
  SJ_RETURN_NOT_OK(ValidateCompressedColumn(disk, tag_, "tag column"));
  return Status::OK();
}

}  // namespace sj::storage
