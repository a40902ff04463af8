// DatabaseImages + DatabaseSnapshot: the MVCC spine of updatable
// documents.
//
// A DatabaseImages is one coherent, immutable set of backend images for
// one encoded document -- the resident DocTable, the tag fragments and
// the pool-backed paged/compressed images, exactly what an unedited
// Database used to own directly. A DatabaseSnapshot stamps a set of
// images with an epoch and (after edits) a delta overlay: epoch 0 is the
// pristine open, each EditTxn::Commit publishes epoch+1 over the SAME
// images with a larger overlay, and Database::Compact() publishes
// epoch+1 over freshly rebuilt images with no overlay.
//
// Snapshots are immutable and shared: every Session::Run pins the
// current snapshot (shared_ptr), so a commit or compaction concurrent
// with a running query can never pull images or overlay out from under
// it -- readers drain on their own schedule, writers never wait for
// them (snapshot isolation).

#ifndef STAIRJOIN_API_SNAPSHOT_H_
#define STAIRJOIN_API_SNAPSHOT_H_

#include <memory>
#include <mutex>
#include <optional>
#include <utility>

#include "core/tag_view.h"
#include "delta/overlay.h"
#include "encoding/builder.h"
#include "encoding/doc_table.h"
#include "storage/buffer_pool.h"
#include "storage/compressed_doc.h"
#include "storage/compressed_tags.h"
#include "util/result.h"
#include "xpath/cost_model.h"

namespace sj {

/// \brief One pool-backed image on the database's disk: doc columns plus
/// tag fragments, both in one ColumnLayout.
struct PooledImage {
  std::unique_ptr<storage::CompressedDocTable> doc;
  std::unique_ptr<storage::CompressedTagIndex> tags;
};

/// \brief One coherent, immutable set of backend images over one encoded
/// document (see file comment). `doc`, `tag_index` and `doc_stats` are
/// never null; the rest may be, per the open-time DatabaseOptions: a
/// PooledImage without its build_* flag (or adopted by FromParts without
/// its tag fragments), and `disk` + `pool` without any pool-backed
/// image. Reached only through a held DatabaseSnapshot, which keeps them
/// alive.
struct DatabaseImages {
  std::unique_ptr<DocTable> doc;
  std::unique_ptr<TagIndex> tag_index;
  std::unique_ptr<storage::SimulatedDisk> disk;
  PooledImage paged;       ///< raw layout, StorageBackend::kPaged
  PooledImage compressed;  ///< coded layout, StorageBackend::kCompressed
  /// Internally synchronized; shared by every session on these images.
  std::unique_ptr<storage::BufferPool> pool;
  /// Planner statistics of `doc` (level histogram, per-tag counts and
  /// level spreads), collected in one O(doc) pass at image-build time.
  /// Shared read-only by every session; rebuilt by compaction together
  /// with the images, so it always describes `doc` exactly.
  std::unique_ptr<xpath::DocStatistics> doc_stats;
  /// Pre ranks (in `doc`) of the gathered document elements when the
  /// images encode a directory collection; empty otherwise.
  NodeSequence base_document_roots;
};

/// \brief An epoch-stamped, immutable view of the database: images plus
/// (possibly) a delta overlay describing edits not yet compacted.
class DatabaseSnapshot {
 public:
  DatabaseSnapshot(uint64_t epoch,
                   std::shared_ptr<const DatabaseImages> images,
                   std::shared_ptr<const delta::Overlay> overlay,
                   NodeSequence document_roots, BuildOptions build)
      : epoch_(epoch),
        images_(std::move(images)),
        overlay_(std::move(overlay)),
        document_roots_(std::move(document_roots)),
        build_(std::move(build)) {}

  /// 0 = pristine open; +1 per published commit or compaction.
  uint64_t epoch() const { return epoch_; }

  const DatabaseImages& images() const { return *images_; }
  /// The images, pinnable (a commit republishes the same set).
  const std::shared_ptr<const DatabaseImages>& images_ptr() const {
    return images_;
  }

  /// The delta overlay; null on pristine/compacted snapshots. May be
  /// non-null but empty when edits cancelled out -- use edited() to ask
  /// "does this snapshot differ from its base images".
  const delta::Overlay* overlay() const { return overlay_.get(); }
  const std::shared_ptr<const delta::Overlay>& overlay_ptr() const {
    return overlay_;
  }
  bool edited() const { return overlay_ != nullptr && !overlay_->empty(); }
  /// Resident delta nodes carried by this snapshot (0 when pristine).
  uint64_t delta_nodes() const {
    return overlay_ != nullptr ? overlay_->delta_size() : 0;
  }

  /// Node count of the (merged) document this snapshot presents.
  uint64_t logical_size() const {
    return edited() ? overlay_->logical_size() : images_->doc->size();
  }

  /// Logical pre ranks of the document elements (collections); tracks
  /// deletes/compaction across epochs.
  const NodeSequence& document_roots() const { return document_roots_; }

  /// The merged document as a resident DocTable in logical pre ranks:
  /// the base table itself when the snapshot is unedited, otherwise a
  /// lazily materialized (once, thread-safe) fold of base + overlay.
  /// The evaluator never reads it (its joins merge base and delta
  /// through the overlay cursors); it serves callers that need whole
  /// nodes of the edited document, such as the tests' path oracle.
  /// Borrowed, valid while the snapshot lives.
  Result<const DocTable*> MergedDoc() const;

 private:
  uint64_t epoch_ = 0;
  std::shared_ptr<const DatabaseImages> images_;
  std::shared_ptr<const delta::Overlay> overlay_;
  NodeSequence document_roots_;
  /// Encoding options of the database, for the materialization fold.
  BuildOptions build_;
  mutable std::once_flag merged_once_;
  mutable std::unique_ptr<DocTable> merged_;
  mutable Status merged_status_;
};

}  // namespace sj

#endif  // STAIRJOIN_API_SNAPSHOT_H_
