#include "storage/compressed_doc.h"

#include <algorithm>
#include <cstring>
#include <type_traits>

namespace sj::storage {
namespace {

constexpr uint64_t kFnvBasis = 0xCBF29CE484222325ULL;

/// Packs blocks onto disk pages, first-fit in block order; a block never
/// spans pages, so every full raw block gets a page of its own. For the
/// coded layout it also folds every encoded byte into the column's image
/// digest, so the digest covers exactly what lands on disk.
class BlockPageWriter {
 public:
  explicit BlockPageWriter(SimulatedDisk* disk, CompressedColumn* column)
      : disk_(disk), column_(column) {
    if (column_->layout == ColumnLayout::kCoded) {
      column_->image_digest = kFnvBasis;
    }
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
    if (column_->layout == ColumnLayout::kCoded) {
      column_->image_digest = FnvMixBytes(column_->image_digest, data, bytes);
    }
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

/// Writes one column of `T` values (uint32 ranks, or kind/level bytes)
/// block by block: raw blocks are copied as they are, coded blocks are
/// widened to uint32 where needed and encoded -- FOR packs the handful of
/// distinct kinds/levels into a few bits per value.
template <typename T>
Status WriteColumn(SimulatedDisk* disk, ColumnLayout layout,
                   std::span<const T> values, CompressedColumn* column,
                   std::vector<uint32_t>* fence_pre = nullptr) {
  column->layout = layout;
  column->raw_width = sizeof(T);
  column->values = values.size();
  const size_t per_block = column->BlockValues();
  BlockPageWriter writer(disk, column);
  uint8_t scratch[encoding::MaxEncodedBlockBytes(encoding::kBlockValues)];
  uint32_t widened[encoding::kBlockValues];
  for (size_t start = 0; start < values.size(); start += per_block) {
    const size_t count = std::min(per_block, values.size() - start);
    const std::span<const T> block = values.subspan(start, count);
    if (fence_pre != nullptr) fence_pre->push_back(block.front());
    if (layout == ColumnLayout::kRaw) {
      SJ_RETURN_NOT_OK(writer.Append(
          reinterpret_cast<const uint8_t*>(block.data()), block.size_bytes()));
      continue;
    }
    std::span<const uint32_t> wide;
    if constexpr (std::is_same_v<T, uint32_t>) {
      wide = block;
    } else {
      std::copy(block.begin(), block.end(), widened);
      wide = std::span<const uint32_t>(widened, count);
    }
    const size_t bytes = encoding::EncodeBlock(wide, scratch);
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

Status WriteCompressedColumn(SimulatedDisk* disk, ColumnLayout layout,
                             std::span<const uint32_t> values,
                             CompressedColumn* column,
                             std::vector<uint32_t>* fence_pre) {
  return WriteColumn(disk, layout, values, column, fence_pre);
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
    if (column.layout == ColumnLayout::kRaw) continue;
    if (!have_page || loaded != ref.page) {
      SJ_RETURN_NOT_OK(disk.Read(ref.page, &page));
      loaded = ref.page;
      have_page = true;
    }
    h = FnvMixBytes(h, page.bytes + ref.offset, ref.bytes);
  }
  if (column.layout == ColumnLayout::kCoded && h != column.image_digest) {
    return Status::InvalidArgument(
        "corrupt compressed image: the " + what +
        "'s encoded blocks digest to " + std::to_string(h) +
        " but the directory expects " + std::to_string(column.image_digest) +
        "; a block is corrupt or stale");
  }
  return Status::OK();
}

Result<std::unique_ptr<CompressedDocTable>> CompressedDocTable::Create(
    const DocTable& doc, SimulatedDisk* disk, ColumnLayout layout) {
  if (disk == nullptr) {
    return Status::InvalidArgument(
        "CompressedDocTable: disk must not be null");
  }
  auto compressed =
      std::unique_ptr<CompressedDocTable>(new CompressedDocTable());
  compressed->size_ = doc.size();
  compressed->height_ = doc.height();
  compressed->source_digest_ = DocColumnsDigest(doc);

  SJ_RETURN_NOT_OK(WriteColumn(disk, layout, doc.posts(), &compressed->post_));
  SJ_RETURN_NOT_OK(WriteColumn(disk, layout, doc.kinds(), &compressed->kind_));
  SJ_RETURN_NOT_OK(
      WriteColumn(disk, layout, doc.levels(), &compressed->level_));
  SJ_RETURN_NOT_OK(
      WriteColumn(disk, layout, doc.parents(), &compressed->parent_));
  SJ_RETURN_NOT_OK(
      WriteColumn(disk, layout, doc.tags_column(), &compressed->tag_));
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
