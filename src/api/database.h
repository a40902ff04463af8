// Database: the coherent, thread-safe set of backend images for one
// document (or collection), opened once and shared by any number of
// Sessions.
//
// Opening a database builds (or adopts) the resident DocTable, the
// resident tag fragments (TagIndex), and -- unless disabled -- two
// pool-backed images on one SimulatedDisk behind one sharded BufferPool:
// the paged image (CompressedDocTable + CompressedTagIndex in the raw
// page layout) and the compressed one (the same types, FOR/delta coded).
// The column/fragment digests are validated HERE, at open time: a stale
// or mismatched image is rejected with a Status naming the failing
// column set, instead of surfacing lazily on some thread's first query.
//
// The images themselves stay immutable forever; what varies is WHICH
// images-plus-overlay a query sees. The database publishes epoch-stamped
// DatabaseSnapshots (api/snapshot.h): BeginEdit() opens a transaction
// against the current snapshot, its Commit() publishes the same images
// with a grown delta overlay as epoch+1, and Compact() folds the overlay
// into freshly rebuilt (and re-digested) images. Sessions pin a snapshot
// per Run, so readers on other threads are never blocked or invalidated
// by writers (snapshot isolation; see api/snapshot.h).

#ifndef STAIRJOIN_API_DATABASE_H_
#define STAIRJOIN_API_DATABASE_H_

#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "api/plan_cache.h"
#include "api/session.h"
#include "api/snapshot.h"
#include "core/tag_view.h"
#include "delta/overlay.h"
#include "encoding/builder.h"
#include "encoding/doc_table.h"
#include "storage/buffer_pool.h"
#include "storage/compressed_doc.h"
#include "storage/compressed_tags.h"
#include "util/result.h"
#include "util/thread_annotations.h"
#include "xmlgen/xmark.h"

namespace sj {

class Database;

/// \brief Open-time configuration: which backend images to build.
struct DatabaseOptions {
  /// Encoding options for the documents (value storage etc.).
  BuildOptions build;
  /// Build the resident tag fragments (name-test pushdown on the memory
  /// backend; also the selectivity statistics of kAuto pushdown).
  bool build_tag_index = true;
  /// Build the paged image: disk + raw-page doc columns + raw-page tag
  /// fragments + shared buffer pool. Off saves the page-out for purely
  /// in-memory use; sessions then cannot choose StorageBackend::kPaged.
  bool build_paged = true;
  /// Build the compressed image: block-wise FOR/delta doc columns +
  /// compressed tag fragments on the same disk, behind the same shared
  /// pool. Off saves the encode pass; sessions then cannot choose
  /// StorageBackend::kCompressed.
  bool build_compressed = true;
  /// Capacity of the shared buffer pool, in pages.
  size_t pool_pages = 256;
  /// Latch shards of the shared pool; 0 picks one per hardware thread
  /// (capped at 16). 1 degenerates to a single global latch.
  size_t pool_shards = 0;
  /// Capacity of the plan cache (entries); 0 disables it and every query
  /// parses and plans afresh.
  size_t plan_cache_entries = 64;
  /// Turn SkipTo/LowerBound prefetch hints into batched pool reads
  /// (BufferPool::Prefetch) on the shared pool AND every session's
  /// private pool. Off by default: fault counts then stay exactly the
  /// numbers the paper experiments (and the committed baselines) count.
  bool prefetch = false;
};

/// \brief Lifetime counters of one Database: how many sessions were
/// created and what they ran. A consistent cross-session snapshot (the
/// counters are updated under one mutex), the seed of the ROADMAP's
/// query-serving layer (hit rates, admission control need exactly these).
struct DatabaseStats {
  uint64_t sessions_created = 0;  ///< successful CreateSession calls
  uint64_t queries_run = 0;       ///< successful Session::Run calls
  uint64_t queries_failed = 0;    ///< Run calls that returned a Status
  uint64_t result_nodes = 0;      ///< result cardinality, summed
  uint64_t plan_cache_hits = 0;       ///< cached-plan serves, memo included
  uint64_t plan_cache_misses = 0;     ///< queries that parsed + planned
  uint64_t plan_cache_evictions = 0;  ///< plans displaced by capacity
  uint64_t edits_committed = 0;   ///< EditTxn::Commit calls that published
  uint64_t delta_nodes = 0;       ///< resident delta nodes, current snapshot
  uint64_t compactions = 0;       ///< Compact calls that folded a delta
  uint64_t snapshots_pinned = 0;  ///< session snapshot binds + rebinds
};

/// \brief One edit transaction against a pinned snapshot.
///
/// Created by Database::BeginEdit(); single-threaded, like a Session.
/// Edit coordinates are LOGICAL pre ranks of the transaction's working
/// state: ops compose, each seeing the document as left by the previous
/// one. Nothing is visible to queries until Commit() publishes the new
/// snapshot; dropping the transaction uncommitted discards it. The
/// transaction holds no lock while open -- concurrency control is
/// optimistic: Commit fails (and the transaction stays discardable) when
/// another edit published since BeginEdit, so retrying means re-running
/// the edit script against a fresh BeginEdit.
class EditTxn {
 public:
  EditTxn(EditTxn&&) = default;
  EditTxn& operator=(EditTxn&&) = default;
  EditTxn(const EditTxn&) = delete;
  EditTxn& operator=(const EditTxn&) = delete;

  /// Parses `fragment_xml` (one element) and appends it as the last
  /// child of element `parent` (after its attributes and children).
  Status InsertLastChild(NodeId parent, std::string_view fragment_xml);

  /// Removes the subtree rooted at `v` (attributes included). The
  /// document root (logical 0) is not deletable.
  Status DeleteSubtree(NodeId v);

  /// Replaces the subtree rooted at `v` with a parsed fragment, keeping
  /// its position among siblings. `v` must not be an attribute.
  Status ReplaceSubtree(NodeId v, std::string_view fragment_xml);

  /// Node count of the transaction's working document.
  uint64_t logical_size() const;

  /// Edit ops successfully applied so far.
  uint64_t ops_applied() const;

  /// Publishes the edits as the next snapshot epoch. A transaction with
  /// no applied ops commits as a no-op (no epoch bump). Fails with
  /// kInvalidArgument when another transaction committed since
  /// BeginEdit (optimistic conflict: epochs only grow, so the only
  /// continuation is to begin a fresh edit and re-apply the script).
  /// Success spends the transaction.
  Status Commit();

 private:
  friend class Database;

  EditTxn(Database* db, std::shared_ptr<const DatabaseSnapshot> snap);

  Database* db_;
  std::shared_ptr<const DatabaseSnapshot> snap_;
  std::unique_ptr<delta::OverlayBuilder> builder_;
};

/// \brief A thread-safe set of backend images + snapshots over one
/// document; the factory for Sessions.
class Database {
 public:
  /// Parses XML text and opens a database over it.
  static Result<std::unique_ptr<Database>> FromXml(
      std::string_view xml, DatabaseOptions options = {});

  /// Generates an XMark-style instance and opens a database over it.
  static Result<std::unique_ptr<Database>> FromXmark(
      const xmlgen::XMarkOptions& gen, DatabaseOptions options = {});

  /// Opens a database over an XML file, or -- when `path` is a directory
  /// -- over every `*.xml` file in it (sorted by name), gathered under a
  /// virtual root as a collection (paper footnote 1); document_roots()
  /// then maps results back to their source documents.
  static Result<std::unique_ptr<Database>> Open(
      const std::string& path, DatabaseOptions options = {});

  /// Opens a database over an already-encoded table (takes ownership).
  static Result<std::unique_ptr<Database>> FromTable(
      std::unique_ptr<DocTable> doc, DatabaseOptions options = {});

  /// Adopts externally built backend images instead of paging `doc` out
  /// afresh. This is where image coherence is enforced: the paged doc
  /// columns and tag fragments (ColumnLayout::kRaw) are digest-checked
  /// against `doc` and a mismatch is rejected with a Status naming the
  /// failing column set -- at open time, not on the first paged query.
  /// `tag_index`, `paged_doc` and `paged_tags` may be null (the
  /// corresponding features are then unavailable); `paged_doc` requires
  /// `disk`. `options.build`/`build_*`/pool sizing apply to the pool
  /// only.
  static Result<std::unique_ptr<Database>> FromParts(
      std::unique_ptr<DocTable> doc, std::unique_ptr<TagIndex> tag_index,
      std::unique_ptr<storage::SimulatedDisk> disk,
      std::unique_ptr<storage::CompressedDocTable> paged_doc,
      std::unique_ptr<storage::CompressedTagIndex> paged_tags,
      DatabaseOptions options = {});

  /// Same, additionally adopting compressed images (ColumnLayout::kCoded).
  /// The compressed doc columns and fragments are digest-checked against
  /// `doc` AND their on-disk encoded blocks are re-read and verified
  /// against the image digests, so a corrupt (bit-flipped) or stale
  /// compressed block is rejected here with a Status naming the column
  /// -- never served to a query. `compressed_doc` requires `disk`.
  static Result<std::unique_ptr<Database>> FromParts(
      std::unique_ptr<DocTable> doc, std::unique_ptr<TagIndex> tag_index,
      std::unique_ptr<storage::SimulatedDisk> disk,
      std::unique_ptr<storage::CompressedDocTable> paged_doc,
      std::unique_ptr<storage::CompressedTagIndex> paged_tags,
      std::unique_ptr<storage::CompressedDocTable> compressed_doc,
      std::unique_ptr<storage::CompressedTagIndex> compressed_tags,
      DatabaseOptions options);

  /// Creates a query session. Cheap (no digest passes, no allocation
  /// beyond the evaluator); fails when the options name a backend the
  /// database was not opened with. The session binds the current
  /// snapshot and follows later commits/compactions on its next Run.
  Result<Session> CreateSession(SessionOptions options = {}) const;

  /// Opens an edit transaction against the current snapshot (see
  /// EditTxn). Any number may be open concurrently; the first to Commit
  /// wins, later ones fail their optimistic check.
  EditTxn BeginEdit();

  /// Folds the current snapshot's delta overlay into freshly rebuilt
  /// paged + compressed images (same DatabaseOptions as the open) and
  /// publishes them as the next epoch with no overlay. A no-op (OK,
  /// no epoch bump, no counter) when the current snapshot carries no
  /// edits. Queries over the compacted snapshot are node-identical to
  /// the overlay they replaced; sessions pinning older epochs keep
  /// their images alive and drain on their own schedule.
  Status Compact() SJ_EXCLUDES(edit_mu_);

  /// The current snapshot (pinned; never null). The cheap, always-safe
  /// way to hold a consistent view across edits and compactions.
  std::shared_ptr<const DatabaseSnapshot> CurrentSnapshot() const
      SJ_EXCLUDES(snapshot_mu_);

  /// The encoded document (collection) of the CURRENT snapshot -- the
  /// base table under any uncompacted edits. Borrowed: stable until a
  /// Compact replaces the images; hold CurrentSnapshot() across
  /// compactions instead.
  const DocTable& doc() const { return *CurrentSnapshot()->images().doc; }

  /// True when sessions may choose StorageBackend::kPaged.
  bool has_paged_backend() const {
    return CurrentSnapshot()->images().paged.doc != nullptr;
  }
  /// True when sessions may choose StorageBackend::kCompressed.
  bool has_compressed_backend() const {
    return CurrentSnapshot()->images().compressed.doc != nullptr;
  }

  /// Resident tag fragments; null when disabled at open time. Borrowed
  /// from the current snapshot, like doc().
  const TagIndex* tag_index() const {
    return CurrentSnapshot()->images().tag_index.get();
  }
  /// Paged (raw-layout) doc columns; null without a paged image.
  const storage::CompressedDocTable* paged_doc() const {
    return CurrentSnapshot()->images().paged.doc.get();
  }
  /// Paged (raw-layout) tag fragments; null without a paged image.
  const storage::CompressedTagIndex* paged_tags() const {
    return CurrentSnapshot()->images().paged.tags.get();
  }
  /// Compressed doc columns; null without a compressed image.
  const storage::CompressedDocTable* compressed_doc() const {
    return CurrentSnapshot()->images().compressed.doc.get();
  }
  /// Compressed tag fragments; null without a compressed image.
  const storage::CompressedTagIndex* compressed_tags() const {
    return CurrentSnapshot()->images().compressed.tags.get();
  }
  /// The shared buffer pool (internally synchronized); null without a
  /// pool-backed image. Exposed for experiment control (cold starts,
  /// fault accounting).
  storage::BufferPool* buffer_pool() const {
    return CurrentSnapshot()->images().pool.get();
  }
  /// The disk image behind the pool-backed backends; null without one.
  storage::SimulatedDisk* disk() const {
    return CurrentSnapshot()->images().disk.get();
  }

  /// DocColumnsDigest of doc() (memoized on the table); absent on a
  /// database opened without any pool-backed image (nothing to validate
  /// -- the resident columns ARE the document).
  std::optional<uint64_t> doc_digest() const {
    const DatabaseImages& images = CurrentSnapshot()->images();
    if (images.paged.doc == nullptr && images.compressed.doc == nullptr) {
      return std::nullopt;
    }
    return DocColumnsDigest(*images.doc);
  }

  /// Logical pre ranks of the gathered document elements when the
  /// database was opened over a directory; empty otherwise. Tracks
  /// deletes across epochs.
  const NodeSequence& document_roots() const {
    return CurrentSnapshot()->document_roots();
  }

  /// A consistent snapshot of the lifetime counters (taken under the
  /// stats mutex; safe to call concurrently with running sessions). The
  /// plan-cache counters are folded in from the cache's own latch.
  DatabaseStats TotalStats() const SJ_EXCLUDES(stats_mu_);

  /// Planner statistics of the CURRENT snapshot's base document: size,
  /// level histogram, per-tag fragment counts and level spreads --
  /// exactly what feeds the cost model (xpath/cost_model.h). Borrowed
  /// from the current snapshot (rebuilt by compaction); never null.
  /// Describes the BASE images: uncompacted edits are layered on top by
  /// the planner through the snapshot's merged tag dictionary.
  const DocStatistics& Statistics() const {
    return *CurrentSnapshot()->images().doc_stats;
  }

  /// The plan cache; null when disabled (plan_cache_entries == 0).
  /// Exposed for tests (entry counts); sessions go through Run.
  PlanCache* plan_cache() const { return plan_cache_.get(); }

  /// Whether this database turns cursor prefetch hints into batched
  /// pool reads (DatabaseOptions::prefetch).
  bool prefetch_enabled() const { return prefetch_; }

 private:
  friend class Session;  // reports query completion into stats_
  friend class EditTxn;  // publishes snapshots under edit_mu_

  Database() = default;

  /// Called by Session::Run on completion (any thread). `memo_served`:
  /// the plan came from the session's local memo, a plan-cache hit the
  /// shared cache never saw.
  void RecordQuery(bool ok, uint64_t result_nodes, bool memo_served) const
      SJ_EXCLUDES(stats_mu_);

  /// Called per session snapshot bind/rebind.
  void RecordSnapshotPinned() const SJ_EXCLUDES(stats_mu_);

  /// Session wiring against one pinned snapshot: evaluator options (and
  /// the private pool, when requested) resolved from the snapshot's
  /// images + overlay. Shared by CreateSession and Session's rebind.
  Result<xpath::EvalOptions> MakeEvalOptions(
      const std::shared_ptr<const DatabaseSnapshot>& snap,
      const SessionOptions& options,
      std::unique_ptr<storage::BufferPool>* private_pool) const;

  /// Builds the missing images per `options`, digest-validates whatever
  /// pool-backed images are present, and opens the pool. The shared
  /// image factory of open and Compact.
  static Result<std::shared_ptr<const DatabaseImages>> BuildImages(
      std::unique_ptr<DatabaseImages> images, const DatabaseOptions& options,
      bool build_missing);

  /// BuildImages + database assembly: publishes epoch 0.
  static Result<std::unique_ptr<Database>> Finish(
      std::unique_ptr<DatabaseImages> images, DatabaseOptions options,
      bool build_missing, NodeSequence document_roots);

  /// Swaps in the next snapshot and updates the edit counters.
  /// `compaction` picks which counter the publish increments.
  void PublishSnapshot(std::shared_ptr<const DatabaseSnapshot> next,
                       bool compaction)
      SJ_EXCLUDES(snapshot_mu_, stats_mu_);

  /// Open-time configuration, kept for Compact's image rebuild and the
  /// sessions' private pools.
  DatabaseOptions options_;
  /// Internally synchronized, like the pool; null when disabled.
  std::unique_ptr<PlanCache> plan_cache_;
  bool prefetch_ = false;

  /// Serializes Commit and Compact (writers); never held while queries
  /// run. Ordered before snapshot_mu_ and stats_mu_.
  Mutex edit_mu_;

  /// The published snapshot chain's head. Readers copy the shared_ptr
  /// under the latch and go; writers swap under edit_mu_ + this.
  mutable Mutex snapshot_mu_;
  std::shared_ptr<const DatabaseSnapshot> snapshot_
      SJ_GUARDED_BY(snapshot_mu_);

  /// Lifetime counters, written by every session's Run (any thread).
  mutable Mutex stats_mu_;
  mutable DatabaseStats stats_ SJ_GUARDED_BY(stats_mu_);
};

}  // namespace sj

#endif  // STAIRJOIN_API_DATABASE_H_
