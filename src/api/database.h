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
//
// Callers reach the images the same way: through a held snapshot
// (CurrentSnapshot(), then snap->images()) or a session's pool(). The
// Database hands out no references into whichever snapshot is current,
// since a Compact frees the images it replaces as soon as the last
// holder lets go.

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

  /// Node count of the transaction's working document; 0 once the
  /// transaction is spent, like ops_applied().
  uint64_t logical_size() const;

  /// Edit ops successfully applied so far.
  uint64_t ops_applied() const;

  /// Publishes the edits as the next snapshot epoch. A transaction with
  /// no applied ops commits as a no-op (no epoch bump). Fails with
  /// kInvalidArgument when another transaction committed since
  /// BeginEdit (optimistic conflict: epochs only grow, so the only
  /// continuation is to begin a fresh edit and re-apply the script).
  /// Success (no-op included) spends the transaction and releases its
  /// pinned snapshot, so a spent transaction left in scope keeps no
  /// superseded images alive; a failed commit keeps both.
  Status Commit();

 private:
  friend class Database;

  EditTxn(Database* db, std::shared_ptr<const DatabaseSnapshot> snap);

  Database* db_;
  /// Both null once the transaction is spent.
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
  /// virtual root as a collection (paper footnote 1); a snapshot's
  /// document_roots() then maps results back to their source documents.
  static Result<std::unique_ptr<Database>> Open(
      const std::string& path, DatabaseOptions options = {});

  /// Opens a database over an already-encoded table (takes ownership).
  static Result<std::unique_ptr<Database>> FromTable(
      std::unique_ptr<DocTable> doc, DatabaseOptions options = {});

  /// Adopts externally built backend images instead of paging `doc` out
  /// afresh. This is where image coherence is enforced: the pool-backed
  /// doc columns and tag fragments are digest-checked against `doc`, and
  /// a mismatch is rejected with a Status naming the failing column set
  /// -- at open time, not on the first paged query. Adopted compressed
  /// images (ColumnLayout::kCoded) additionally get their on-disk encoded
  /// blocks re-read and verified against the image digests, so a corrupt
  /// (bit-flipped) block is never served to a query. A null `tag_index`
  /// is built from `doc`. Every other image may be null (the
  /// corresponding backend is then unavailable, or runs without
  /// fragments when only its tag fragments are missing); a pool-backed
  /// image requires `disk` and the layout of its backend
  /// (kRaw for paged, kCoded for compressed). `options.build`/`build_*`/
  /// pool sizing apply to the pool only.
  static Result<std::unique_ptr<Database>> FromParts(
      std::unique_ptr<DocTable> doc, std::unique_ptr<TagIndex> tag_index,
      std::unique_ptr<storage::SimulatedDisk> disk,
      std::unique_ptr<storage::CompressedDocTable> paged_doc,
      std::unique_ptr<storage::CompressedTagIndex> paged_tags,
      std::unique_ptr<storage::CompressedDocTable> compressed_doc,
      std::unique_ptr<storage::CompressedTagIndex> compressed_tags,
      DatabaseOptions options = {});

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

  /// The current snapshot (pinned; never null) -- the one way to reach
  /// the database's images: snap->images() stays valid for as long as
  /// `snap` is held, across any later edits and compactions.
  std::shared_ptr<const DatabaseSnapshot> CurrentSnapshot() const
      SJ_EXCLUDES(snapshot_mu_);

  /// True when sessions may choose StorageBackend::kPaged.
  bool has_paged_backend() const {
    return CurrentSnapshot()->images().paged.doc != nullptr;
  }
  /// True when sessions may choose StorageBackend::kCompressed.
  bool has_compressed_backend() const {
    return CurrentSnapshot()->images().compressed.doc != nullptr;
  }

  /// Borrowed from the CURRENT snapshot: dangling once a Compact
  /// replaces the images. Kept only because the benchmark harness
  /// (perfbench/sjbench.cc) calls them and changes only with a benchmark
  /// revision, which is to retire them (ROADMAP). Nothing else may call
  /// them (sj-lint rule `unpinned-image`): hold CurrentSnapshot().
  storage::SimulatedDisk* disk() const {
    return CurrentSnapshot()->images().disk.get();
  }
  const storage::CompressedDocTable* compressed_doc() const {
    return CurrentSnapshot()->images().compressed.doc.get();
  }
  const storage::CompressedTagIndex* compressed_tags() const {
    return CurrentSnapshot()->images().compressed.tags.get();
  }

  /// A consistent snapshot of the lifetime counters (taken under the
  /// stats mutex; safe to call concurrently with running sessions). The
  /// plan-cache counters are folded in from the cache's own latch.
  DatabaseStats TotalStats() const SJ_EXCLUDES(stats_mu_);

  /// The plan cache; null when disabled (plan_cache_entries == 0).
  /// Exposed for tests (entry counts); sessions go through Run.
  PlanCache* plan_cache() const { return plan_cache_.get(); }

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
