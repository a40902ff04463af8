// Pool-backed document columns, in one of two layouts.
//
// CompressedDocTable lays the doc encoding's post/kind/level/parent/tag
// columns out on disk pages behind a BufferPool, block by block. A
// column's ColumnLayout picks the block format:
//
//   * kCoded -- block-wise FOR/delta images (encoding/block_codec.h),
//     packed first-fit onto pages. The StorageBackend::kCompressed image:
//     a coded column occupies a fraction of the pages of its raw image,
//     so the same staircase scan faults strictly fewer pages at equal
//     page size -- skipping saves *compressed* pages never read.
//   * kRaw -- one uncompressed page per block (2048 ranks, or 8192
//     kind/level bytes) at offset 0, with no header: the block's width
//     lives in the directory. The StorageBackend::kPaged image, where
//     the paper's "nodes never touched" are disk pages never read.
//
// The join algorithms live ONCE in core/ (core/staircase_impl.h,
// core/axis_impl.h), generic over the DocAccessor concept, and read
// either layout through CompressedDocAccessor
// (storage/compressed_accessor.h), built at the evaluator's one
// accessor-construction site (xpath/backend_dispatch.h).
//
// Only the block directory (page id + offset + size per block) stays
// memory-resident. Integrity: the table carries the source digest of the
// document it images, checked at open time; every coded column also
// carries an FNV-1a digest over its *encoded* page bytes, captured at
// Create time, and ValidateImage re-reads the disk image and rejects
// corrupt or stale blocks with a Status naming the column. Raw columns
// carry no byte digest (hashing every page would cost more than writing
// it), so their coherence rests on the source digest alone.

#ifndef STAIRJOIN_STORAGE_COMPRESSED_DOC_H_
#define STAIRJOIN_STORAGE_COMPRESSED_DOC_H_

#include <algorithm>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "encoding/block_codec.h"
#include "encoding/doc_table.h"
#include "storage/buffer_pool.h"

namespace sj::storage {

/// How a column's blocks sit on its pages (see the file comment).
enum class ColumnLayout : uint8_t {
  kCoded,  ///< FOR/delta blocks of kBlockValues values, packed first-fit
  kRaw,    ///< one headerless page of raw values per block
};

/// One block's location in the disk image. Blocks never span pages;
/// several coded blocks share a page, a raw block fills its own.
struct CompressedBlockRef {
  PageId page = 0;
  uint16_t offset = 0;  ///< byte offset of the block inside its page
  uint16_t bytes = 0;   ///< stored size (a coded block's header included)
};

/// \brief One column's image: resident block directory plus, for the
/// coded layout, the digest of the encoded bytes.
struct CompressedColumn {
  ColumnLayout layout = ColumnLayout::kCoded;
  /// Bytes per value of a raw block: 4, or 1 for kind/level (coded
  /// blocks carry their width in their header).
  uint8_t raw_width = sizeof(uint32_t);
  /// Total values (block b holds values [b * BlockValues(), ...), the
  /// last block possibly short).
  uint64_t values = 0;
  std::vector<CompressedBlockRef> blocks;
  /// Pages of this column's image, in allocation order.
  std::vector<PageId> pages;
  /// FNV-1a over the encoded block bytes, in block order (coded only).
  uint64_t image_digest = 0;
  /// Total stored bytes (for compression-ratio reporting).
  uint64_t encoded_bytes = 0;

  /// Values per full block: kBlockValues when coded, one page of
  /// `raw_width`-byte values when raw. Always a power of two.
  size_t BlockValues() const {
    return layout == ColumnLayout::kRaw ? kPageSize / raw_width
                                        : encoding::kBlockValues;
  }

  /// Number of values stored in block `b`.
  size_t BlockValueCount(size_t b) const {
    const uint64_t start = static_cast<uint64_t>(b) * BlockValues();
    return static_cast<size_t>(
        std::min<uint64_t>(BlockValues(), values - start));
  }
};

/// Continues an FNV-1a digest over raw bytes (the coded images are
/// digested byte-wise; encoding/doc_table.cc mixes the source columns
/// with the same FNV-1a step).
uint64_t FnvMixBytes(uint64_t h, const uint8_t* data, size_t n);

/// Writes one uint32 column block-wise onto `disk` in `layout`: blocks
/// are packed first-fit onto fresh pages (never spanning one; a raw
/// block fills its page), and the directory -- plus, when coded, the
/// image digest -- lands in `column`. When `fence_pre` is non-null the
/// first value of every block is appended to it -- the resident fence
/// keys of a fragment pre column. The shared writing path of
/// CompressedDocTable and CompressedTagIndex.
Status WriteCompressedColumn(SimulatedDisk* disk, ColumnLayout layout,
                             std::span<const uint32_t> values,
                             CompressedColumn* column,
                             std::vector<uint32_t>* fence_pre = nullptr);

/// Recomputes a coded `column`'s image digest from the disk image and
/// compares it with the captured one; a mismatch (or a directory entry
/// that overruns its page) fails with InvalidArgument naming `what`. A
/// raw column has only its directory checked.
Status ValidateCompressedColumn(const SimulatedDisk& disk,
                                const CompressedColumn& column,
                                const std::string& what);

/// \brief Pool-backed image of a DocTable's five columns, all in one
/// layout.
class CompressedDocTable {
 public:
  /// Writes `doc`'s columns onto `disk` (borrowed; must outlive this) in
  /// `layout`, allocating pages column by column: post, kind, level,
  /// parent, tag.
  static Result<std::unique_ptr<CompressedDocTable>> Create(
      const DocTable& doc, SimulatedDisk* disk,
      ColumnLayout layout = ColumnLayout::kCoded);

  /// Number of encoded nodes.
  size_t size() const { return size_; }
  /// Document height (Eq. (1) bound), copied from the source table.
  uint32_t height() const { return height_; }
  /// The layout every column was written in.
  ColumnLayout layout() const { return post_.layout; }

  const CompressedColumn& post() const { return post_; }
  const CompressedColumn& kind() const { return kind_; }
  const CompressedColumn& level() const { return level_; }
  const CompressedColumn& parent() const { return parent_; }
  const CompressedColumn& tag() const { return tag_; }

  /// DocColumnsDigest of the source table, captured at Create time (the
  /// coherence check against the resident document; image_digest covers
  /// the encoded bytes themselves).
  uint64_t source_digest() const { return source_digest_; }

  /// Total pages of the image.
  size_t page_count() const;
  /// Total stored bytes over all five columns.
  uint64_t encoded_bytes() const;

  /// Re-reads every coded column's blocks from `disk` and verifies them
  /// against the captured image digests. A corrupt or stale block fails
  /// with InvalidArgument naming the column. Database::BuildImages calls
  /// it on adopted images at open time, so damage never surfaces lazily
  /// mid-query.
  Status ValidateImage(const SimulatedDisk& disk) const;

 private:
  CompressedDocTable() = default;

  size_t size_ = 0;
  uint32_t height_ = 0;
  uint64_t source_digest_ = 0;
  CompressedColumn post_;
  CompressedColumn kind_;
  CompressedColumn level_;
  CompressedColumn parent_;
  CompressedColumn tag_;
};

}  // namespace sj::storage

#endif  // STAIRJOIN_STORAGE_COMPRESSED_DOC_H_
