#include "api/database.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>
#include <utility>

#include "encoding/collection.h"
#include "encoding/loader.h"
#include "xpath/backend_dispatch.h"

namespace sj {
namespace {

/// Default latch shards of the shared pool: one per hardware thread,
/// floored at 4 (I/O-bound sessions outnumber cores, and a faulting
/// session sleeps holding its shard's latch) and capped at 16 (more
/// shards only fragment the LRU).
size_t DefaultPoolShards() {
  unsigned hw = std::thread::hardware_concurrency();
  return std::min<size_t>(std::max<size_t>(hw, 4), 16);
}

Result<std::string> ReadFileText(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::IoError("cannot open " + path.string());
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) {
    return Status::IoError("cannot read " + path.string());
  }
  return std::move(buffer).str();
}

}  // namespace

Result<std::shared_ptr<const DatabaseImages>> Database::BuildImages(
    std::unique_ptr<DatabaseImages> img, const DatabaseOptions& options,
    bool build_missing) {
  const DocTable& doc = *img->doc;
  if (build_missing && options.build_tag_index && img->tag_index == nullptr) {
    img->tag_index = std::make_unique<TagIndex>(doc);
  }
  // The two pool-backed images share one disk (one pool serves both),
  // built in this order: page ids pick the pool shard, so the allocation
  // order is part of every fault count.
  struct Pooled {
    const char* name;
    storage::ColumnLayout layout;
    bool build;
    PooledImage* image;
    bool built_here = false;
  };
  Pooled pooled[] = {
      {"paged", storage::ColumnLayout::kRaw, options.build_paged,
       &img->paged},
      {"compressed", storage::ColumnLayout::kCoded, options.build_compressed,
       &img->compressed},
  };
  for (Pooled& p : pooled) {
    if (!build_missing || !p.build || p.image->doc != nullptr) continue;
    if (img->disk == nullptr) {
      img->disk = std::make_unique<storage::SimulatedDisk>();
    }
    SJ_ASSIGN_OR_RETURN(
        p.image->doc,
        storage::CompressedDocTable::Create(doc, img->disk.get(), p.layout));
    // Reuse the resident TagIndex when it exists; encoding should not
    // pay a second projection scan of the whole document.
    if (img->tag_index != nullptr) {
      SJ_ASSIGN_OR_RETURN(
          p.image->tags,
          storage::CompressedTagIndex::Create(doc, *img->tag_index,
                                              img->disk.get(), p.layout));
    } else {
      SJ_ASSIGN_OR_RETURN(p.image->tags,
                          storage::CompressedTagIndex::Create(
                              doc, img->disk.get(), p.layout));
    }
    p.built_here = true;
  }

  // Open-time validation of both images: each must carry the layout of
  // its backend and the digests of THIS document's columns. A stale
  // image (rebuilt document, image of a different document) is rejected
  // here with the failing column set named -- not lazily on the first
  // query. The document computes its digests once (the image Creates
  // above already paid that pass), and sessions get the validated images
  // through one image handle, so neither session creation nor any query
  // repeats it. Adopted coded images also get their encoded blocks
  // re-read (ValidateImage), so bit rot never surfaces as silent wrong
  // query results; images built in this very call are coherent by
  // construction and skip that pass.
  for (const Pooled& p : pooled) {
    const std::string name = p.name;
    const storage::CompressedDocTable* table = p.image->doc.get();
    const storage::CompressedTagIndex* tags = p.image->tags.get();
    if (table != nullptr) {
      if (img->disk == nullptr) {
        return Status::InvalidArgument(
            name + " document image adopted without its disk");
      }
      if (table->layout() != p.layout) {
        return Status::InvalidArgument(
            name + " document image adopted in the wrong column layout");
      }
      if (table->size() != doc.size() ||
          table->source_digest() != DocColumnsDigest(doc)) {
        return Status::InvalidArgument(
            "stale " + name +
            " image: the document column set "
            "(post/kind/level/parent/tag) has digest " +
            std::to_string(table->source_digest()) +
            " but this document's columns digest to " +
            std::to_string(DocColumnsDigest(doc)) + "; the " + name +
            " table does not image this document");
      }
      if (!p.built_here) SJ_RETURN_NOT_OK(table->ValidateImage(*img->disk));
    }
    if (tags != nullptr) {
      if (table == nullptr) {
        return Status::InvalidArgument(
            name + " tag fragments adopted without a " + name +
            " document image");
      }
      if (tags->source_digest() != FragmentColumnsDigest(doc)) {
        return Status::InvalidArgument(
            "stale " + name +
            " image: the tag fragment column set (per-tag "
            "pre/post) has digest " +
            std::to_string(tags->source_digest()) +
            " but this document's fragments digest to " +
            std::to_string(FragmentColumnsDigest(doc)) + "; the " + name +
            " tag index does not image this document");
      }
      if (!p.built_here) SJ_RETURN_NOT_OK(tags->ValidateImage(*img->disk));
    }
  }

  if (img->paged.doc != nullptr || img->compressed.doc != nullptr) {
    size_t shards = options.pool_shards > 0 ? options.pool_shards
                                            : DefaultPoolShards();
    img->pool = std::make_unique<storage::BufferPool>(
        img->disk.get(), options.pool_pages, shards);
    img->pool->set_prefetch_enabled(options.prefetch);
  }
  // Planner statistics: one O(doc) pass at image-build time (open and
  // every compaction), shared read-only by all sessions on these images.
  img->doc_stats = std::make_unique<xpath::DocStatistics>(
      xpath::DocStatistics::Collect(doc));
  return std::shared_ptr<const DatabaseImages>(std::move(img));
}

Result<std::unique_ptr<Database>> Database::Finish(
    std::unique_ptr<DatabaseImages> images, DatabaseOptions options,
    bool build_missing, NodeSequence document_roots) {
  images->base_document_roots = document_roots;
  SJ_ASSIGN_OR_RETURN(std::shared_ptr<const DatabaseImages> built,
                      BuildImages(std::move(images), options, build_missing));
  std::unique_ptr<Database> db(new Database());
  if (options.plan_cache_entries > 0) {
    db->plan_cache_ = std::make_unique<PlanCache>(options.plan_cache_entries);
  }
  {
    MutexLock lock(db->snapshot_mu_);
    db->snapshot_ = std::make_shared<DatabaseSnapshot>(
        /*epoch=*/0, std::move(built), /*overlay=*/nullptr,
        std::move(document_roots), options.build);
  }
  db->options_ = std::move(options);
  return db;
}

Result<std::unique_ptr<Database>> Database::FromXml(std::string_view xml,
                                                    DatabaseOptions options) {
  SJ_ASSIGN_OR_RETURN(std::unique_ptr<DocTable> doc,
                      LoadDocument(xml, options.build));
  return FromTable(std::move(doc), std::move(options));
}

Result<std::unique_ptr<Database>> Database::FromXmark(
    const xmlgen::XMarkOptions& gen, DatabaseOptions options) {
  SJ_ASSIGN_OR_RETURN(std::unique_ptr<DocTable> doc,
                      xmlgen::GenerateXMarkDocument(gen, options.build));
  return FromTable(std::move(doc), std::move(options));
}

Result<std::unique_ptr<Database>> Database::Open(const std::string& path,
                                                 DatabaseOptions options) {
  namespace fs = std::filesystem;
  std::error_code ec;
  if (fs::is_directory(path, ec)) {
    std::vector<fs::path> files;
    // Non-throwing iteration: a directory that turns unreadable
    // mid-listing must surface as a Status, not an exception (on error,
    // increment(ec) parks the iterator at end and the check below fires).
    for (fs::directory_iterator it(path, ec), end; !ec && it != end;
         it.increment(ec)) {
      std::error_code entry_ec;
      if (it->is_regular_file(entry_ec) &&
          it->path().extension() == ".xml") {
        files.push_back(it->path());
      }
    }
    if (ec) {
      return Status::IoError("cannot list " + path + ": " + ec.message());
    }
    if (files.empty()) {
      return Status::NotFound("no .xml files in " + path);
    }
    std::sort(files.begin(), files.end());
    CollectionBuilder collection(options.build);
    for (const fs::path& file : files) {
      SJ_ASSIGN_OR_RETURN(std::string text, ReadFileText(file));
      SJ_RETURN_NOT_OK(collection.AddDocumentText(text));
    }
    SJ_ASSIGN_OR_RETURN(std::unique_ptr<DocTable> doc, collection.Finish());
    auto images = std::make_unique<DatabaseImages>();
    images->doc = std::move(doc);
    return Finish(std::move(images), std::move(options),
                  /*build_missing=*/true, collection.document_roots());
  }
  SJ_ASSIGN_OR_RETURN(std::unique_ptr<DocTable> doc,
                      LoadDocumentFile(path, options.build));
  return FromTable(std::move(doc), std::move(options));
}

Result<std::unique_ptr<Database>> Database::FromTable(
    std::unique_ptr<DocTable> doc, DatabaseOptions options) {
  if (doc == nullptr) {
    return Status::InvalidArgument("Database::FromTable: null table");
  }
  auto images = std::make_unique<DatabaseImages>();
  images->doc = std::move(doc);
  return Finish(std::move(images), std::move(options),
                /*build_missing=*/true, {});
}

Result<std::unique_ptr<Database>> Database::FromParts(
    std::unique_ptr<DocTable> doc, std::unique_ptr<TagIndex> tag_index,
    std::unique_ptr<storage::SimulatedDisk> disk,
    std::unique_ptr<storage::CompressedDocTable> paged_doc,
    std::unique_ptr<storage::CompressedTagIndex> paged_tags,
    std::unique_ptr<storage::CompressedDocTable> compressed_doc,
    std::unique_ptr<storage::CompressedTagIndex> compressed_tags,
    DatabaseOptions options) {
  if (doc == nullptr) {
    return Status::InvalidArgument("Database::FromParts: null table");
  }
  auto images = std::make_unique<DatabaseImages>();
  images->doc = std::move(doc);
  images->tag_index = std::move(tag_index);
  images->disk = std::move(disk);
  images->paged = {std::move(paged_doc), std::move(paged_tags)};
  images->compressed = {std::move(compressed_doc), std::move(compressed_tags)};
  return Finish(std::move(images), std::move(options),
                /*build_missing=*/false, {});
}

std::shared_ptr<const DatabaseSnapshot> Database::CurrentSnapshot() const {
  MutexLock lock(snapshot_mu_);
  return snapshot_;
}

Result<xpath::EvalOptions> Database::MakeEvalOptions(
    const std::shared_ptr<const DatabaseSnapshot>& snap,
    const SessionOptions& options,
    std::unique_ptr<storage::BufferPool>* private_pool) const {
  const DatabaseImages& img = snap->images();
  xpath::EvalOptions eval;
  eval.staircase = options.staircase;
  eval.hints = options.hints;
  eval.num_threads = options.num_threads;
  // Planner statistics describe the BASE document; under an overlay the
  // estimator layers merged per-tag counts on top (see MakeEstimator).
  eval.doc_stats = img.doc_stats.get();

  // The one image handle: the backend's images, already digest-checked
  // against this document when the image set was built (BuildImages),
  // plus the pool its reads are charged to.
  std::unique_ptr<storage::BufferPool> pool;
  auto session_pool = [&]() -> storage::BufferPool* {
    if (options.private_pool_pages == 0) return img.pool.get();
    pool = std::make_unique<storage::BufferPool>(img.disk.get(),
                                                 options.private_pool_pages);
    pool->set_prefetch_enabled(options_.prefetch);
    return pool.get();
  };
  SJ_ASSIGN_OR_RETURN(
      eval.image,
      xpath::BackendDispatch::MakeImage(options.backend, img, session_pool));
  eval.snapshot_epoch = snap->epoch();
  if (snap->edited()) eval.overlay = snap->overlay();
  *private_pool = std::move(pool);
  return eval;
}

Result<Session> Database::CreateSession(SessionOptions options) const {
  std::shared_ptr<const DatabaseSnapshot> snap = CurrentSnapshot();
  std::unique_ptr<storage::BufferPool> private_pool;
  SJ_ASSIGN_OR_RETURN(xpath::EvalOptions eval,
                      MakeEvalOptions(snap, options, &private_pool));
  {
    MutexLock lock(stats_mu_);
    ++stats_.sessions_created;
    ++stats_.snapshots_pinned;
  }
  return Session(this, std::move(options), std::move(snap),
                 std::move(private_pool), eval);
}

EditTxn Database::BeginEdit() {
  return EditTxn(this, CurrentSnapshot());
}

Status Database::Compact() {
  MutexLock edit_lock(edit_mu_);
  std::shared_ptr<const DatabaseSnapshot> cur = CurrentSnapshot();
  if (!cur->edited()) return Status::OK();
  SJ_ASSIGN_OR_RETURN(
      std::unique_ptr<DocTable> merged,
      delta::MaterializeMerged(*cur->images().doc, *cur->overlay(),
                               options_.build));
  auto images = std::make_unique<DatabaseImages>();
  images->doc = std::move(merged);
  // The merged table's pre ranks ARE the old snapshot's logical ranks,
  // so the logical document roots carry over verbatim as base roots.
  images->base_document_roots = cur->document_roots();
  SJ_ASSIGN_OR_RETURN(
      std::shared_ptr<const DatabaseImages> built,
      BuildImages(std::move(images), options_, /*build_missing=*/true));
  // The rebuilt images sit on a fresh disk; it keeps simulating the
  // device the old one did.
  if (built->disk != nullptr && cur->images().disk != nullptr) {
    built->disk->set_read_latency_micros(
        cur->images().disk->read_latency_micros());
  }
  PublishSnapshot(std::make_shared<DatabaseSnapshot>(
                      cur->epoch() + 1, std::move(built), /*overlay=*/nullptr,
                      cur->document_roots(), options_.build),
                  /*compaction=*/true);
  return Status::OK();
}

void Database::PublishSnapshot(std::shared_ptr<const DatabaseSnapshot> next,
                               bool compaction) {
  const uint64_t delta_nodes = next->delta_nodes();
  {
    MutexLock lock(snapshot_mu_);
    snapshot_ = std::move(next);
  }
  MutexLock lock(stats_mu_);
  if (compaction) {
    ++stats_.compactions;
  } else {
    ++stats_.edits_committed;
  }
  stats_.delta_nodes = delta_nodes;
}

EditTxn::EditTxn(Database* db, std::shared_ptr<const DatabaseSnapshot> snap)
    : db_(db),
      snap_(std::move(snap)),
      builder_(std::make_unique<delta::OverlayBuilder>(
          *snap_->images().doc, snap_->images().tag_index.get(),
          snap_->overlay_ptr())) {}

Status EditTxn::InsertLastChild(NodeId parent, std::string_view fragment_xml) {
  if (builder_ == nullptr) {
    return Status::InvalidArgument("edit on a committed transaction");
  }
  return builder_->InsertLastChild(parent, fragment_xml);
}

Status EditTxn::DeleteSubtree(NodeId v) {
  if (builder_ == nullptr) {
    return Status::InvalidArgument("edit on a committed transaction");
  }
  return builder_->DeleteSubtree(v);
}

Status EditTxn::ReplaceSubtree(NodeId v, std::string_view fragment_xml) {
  if (builder_ == nullptr) {
    return Status::InvalidArgument("edit on a committed transaction");
  }
  return builder_->ReplaceSubtree(v, fragment_xml);
}

uint64_t EditTxn::logical_size() const {
  return builder_ != nullptr ? builder_->logical_size() : 0;
}

uint64_t EditTxn::ops_applied() const {
  return builder_ != nullptr ? builder_->ops_applied() : 0;
}

Status EditTxn::Commit() {
  if (builder_ == nullptr) {
    return Status::InvalidArgument("commit on a committed transaction");
  }
  if (builder_->ops_applied() == 0) {
    // Nothing to publish; spend the transaction without an epoch bump.
    builder_.reset();
    snap_.reset();
    return Status::OK();
  }
  MutexLock edit_lock(db_->edit_mu_);
  std::shared_ptr<const DatabaseSnapshot> cur = db_->CurrentSnapshot();
  if (cur->epoch() != snap_->epoch()) {
    // Optimistic conflict: the transaction applied its edits against a
    // snapshot that is no longer current. (There is no first-updater
    // block to wait out -- the winner already committed -- so the only
    // correct continuation is to re-apply the script on a fresh edit.)
    return Status::InvalidArgument(
        "snapshot conflict: another edit committed epoch " +
        std::to_string(cur->epoch()) + " after this transaction began at " +
        std::to_string(snap_->epoch()) + "; begin a fresh edit and retry");
  }
  SJ_ASSIGN_OR_RETURN(std::shared_ptr<const delta::Overlay> overlay,
                      builder_->Finish());
  builder_.reset();
  // Surviving document roots, remapped into the new logical rank space
  // (a deleted document vanishes from the collection's root list).
  NodeSequence roots;
  roots.reserve(snap_->images().base_document_roots.size());
  for (NodeId r : snap_->images().base_document_roots) {
    if (std::optional<uint64_t> l = overlay->TryBasePreToLogical(r)) {
      roots.push_back(static_cast<NodeId>(*l));
    }
  }
  db_->PublishSnapshot(
      std::make_shared<DatabaseSnapshot>(cur->epoch() + 1,
                                         snap_->images_ptr(),
                                         std::move(overlay), std::move(roots),
                                         db_->options_.build),
      /*compaction=*/false);
  snap_.reset();
  return Status::OK();
}

DatabaseStats Database::TotalStats() const {
  DatabaseStats snapshot;
  {
    MutexLock lock(stats_mu_);
    snapshot = stats_;
  }
  if (plan_cache_ != nullptr) {
    const PlanCache::Stats cache = plan_cache_->stats();
    snapshot.plan_cache_hits += cache.hits;  // stats_ holds the memo serves
    snapshot.plan_cache_misses = cache.misses;
    snapshot.plan_cache_evictions = cache.evictions;
  }
  return snapshot;
}

void Database::RecordQuery(bool ok, uint64_t result_nodes,
                           bool memo_served) const {
  MutexLock lock(stats_mu_);
  if (memo_served) ++stats_.plan_cache_hits;
  if (ok) {
    ++stats_.queries_run;
    stats_.result_nodes += result_nodes;
  } else {
    ++stats_.queries_failed;
  }
}

void Database::RecordSnapshotPinned() const {
  MutexLock lock(stats_mu_);
  ++stats_.snapshots_pinned;
}

}  // namespace sj
