// Compressed document columns.
//
// CompressedDocTable lays the doc encoding's post/kind/level/parent/tag
// columns out as block-wise FOR/delta images (encoding/block_codec.h) on
// disk pages behind a BufferPool: the third DocAccessor backend the
// cursor abstractions were built for. The join algorithms live ONCE in
// core/ (core/staircase_impl.h, core/axis_impl.h), generic over the
// DocAccessor concept, and read this image through
// CompressedDocAccessor (storage/compressed_accessor.h), built at the
// evaluator's one accessor-construction site (xpath/backend_dispatch.h).
// Because a compressed column occupies a fraction of the pages of its
// uncompressed image, the same staircase scan faults strictly fewer
// pages at equal page size -- skipping saves *compressed* pages never
// read, the Leapfrog-style "touch less data per seek" payoff.
//
// Only the block directory (page id + offset + encoded size per block)
// stays memory-resident, the same directory-vs-data split the paged
// backend uses. Integrity: every column carries an FNV-1a digest over
// its *encoded* page bytes, captured at Create time; ValidateImage
// re-reads the disk image and rejects corrupt or stale blocks with a
// Status naming the column -- Database::Finish calls it at open time.

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

/// One encoded block's location in the disk image. Blocks never span
/// pages; several blocks share a page.
struct CompressedBlockRef {
  PageId page = 0;
  uint16_t offset = 0;  ///< byte offset of the block inside its page
  uint16_t bytes = 0;   ///< encoded size, header included
};

/// \brief One column's compressed image: resident block directory plus
/// the digest of the encoded bytes.
struct CompressedColumn {
  /// Total decoded values (block b holds values
  /// [b * kBlockValues, ...), the last block possibly short).
  uint64_t values = 0;
  std::vector<CompressedBlockRef> blocks;
  /// Pages of this column's image, in allocation order.
  std::vector<PageId> pages;
  /// FNV-1a over the encoded block bytes, in block order.
  uint64_t image_digest = 0;
  /// Total encoded bytes (for compression-ratio reporting).
  uint64_t encoded_bytes = 0;

  /// Number of values decoded from block `b`.
  size_t BlockValueCount(size_t b) const {
    const uint64_t start = static_cast<uint64_t>(b) * encoding::kBlockValues;
    return static_cast<size_t>(
        std::min<uint64_t>(encoding::kBlockValues, values - start));
  }
};

/// Continues an FNV-1a digest over raw bytes (the compressed images are
/// digested byte-wise; encoding/doc_table.cc mixes the source columns
/// with the same FNV-1a step).
uint64_t FnvMixBytes(uint64_t h, const uint8_t* data, size_t n);

/// Encodes one uint32 column block-wise onto `disk`: blocks are packed
/// first-fit onto fresh pages (never spanning one), the directory and
/// the image digest land in `column`. When `fence_pre` is non-null the
/// first value of every block is appended to it -- the resident fence
/// keys of a fragment pre column. The shared encoding path of
/// CompressedDocTable and CompressedTagIndex.
Status WriteCompressedColumn(SimulatedDisk* disk,
                             std::span<const uint32_t> values,
                             CompressedColumn* column,
                             std::vector<uint32_t>* fence_pre = nullptr);

/// Recomputes `column`'s image digest from the disk image and compares
/// it with the captured one; a mismatch (or a directory entry that
/// overruns its page) fails with InvalidArgument naming `what`.
Status ValidateCompressedColumn(const SimulatedDisk& disk,
                                const CompressedColumn& column,
                                const std::string& what);

/// \brief Block-compressed image of a DocTable's five columns.
class CompressedDocTable {
 public:
  /// Encodes `doc`'s columns onto `disk` (borrowed; must outlive this).
  static Result<std::unique_ptr<CompressedDocTable>> Create(
      const DocTable& doc, SimulatedDisk* disk);

  /// Number of encoded nodes.
  size_t size() const { return size_; }
  /// Document height (Eq. (1) bound), copied from the source table.
  uint32_t height() const { return height_; }

  const CompressedColumn& post() const { return post_; }
  const CompressedColumn& kind() const { return kind_; }
  const CompressedColumn& level() const { return level_; }
  const CompressedColumn& parent() const { return parent_; }
  const CompressedColumn& tag() const { return tag_; }

  /// DocColumnsDigest of the source table, captured at Create time (the
  /// coherence check against the resident document; image_digest covers
  /// the encoded bytes themselves).
  uint64_t source_digest() const { return source_digest_; }

  /// Total pages of the compressed image.
  size_t page_count() const;
  /// Total encoded bytes over all five columns.
  uint64_t encoded_bytes() const;

  /// Re-reads every column's blocks from `disk` and verifies them
  /// against the captured image digests. A corrupt or stale block fails
  /// with InvalidArgument naming the column. Called by Database::Finish
  /// at open time, so damage never surfaces lazily mid-query.
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
