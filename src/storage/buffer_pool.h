// Paged storage substrate: simulated disk + sharded LRU buffer pool.
//
// The paper's future-work section asks how staircase join behaves in a
// *disk-based* RDBMS. This module provides the substrate to study that on
// a laptop: fixed-size pages on a simulated disk (a RAM image with fault
// accounting -- see DESIGN.md substitutions) behind a pinning LRU buffer
// pool. The pool-backed staircase join (storage/compressed_accessor.h)
// runs the Section 3 algorithms against it; skipping then saves page
// *faults*, not just CPU.

#ifndef STAIRJOIN_STORAGE_BUFFER_POOL_H_
#define STAIRJOIN_STORAGE_BUFFER_POOL_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "util/result.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace sj::storage {

/// Page size in bytes (2048 x 4-byte ranks per page).
inline constexpr size_t kPageSize = 8192;

/// Page identifier on a disk.
using PageId = uint32_t;

/// \brief A fixed-size page image.
struct Page {
  uint8_t bytes[kPageSize];
};

/// Per-page transfer cost of a batched read, as a divisor of the seek
/// latency: page 2..n of one request each cost read_latency_micros /
/// kBatchTransferDivisor. The 10:1 seek-to-transfer ratio is the classic
/// rotating-disk shape; the exact value only matters for the *relative*
/// win of batching, which benches measure in wall-clock.
inline constexpr uint32_t kBatchTransferDivisor = 10;

/// \brief Simulated disk: an array of pages with read accounting.
///
/// Reads memcpy the page image (so buffer frames are genuinely distinct
/// from the "disk"), and count as faults in the statistics. Each page is
/// held without its trailing zero bytes, which reads restore: column
/// images leave many pages mostly empty (every tag fragment column
/// starts on its own page), and the device stays in RAM.
class SimulatedDisk {
 public:
  /// Appends a page; returns its id.
  PageId Allocate();

  /// Number of pages.
  size_t page_count() const { return pages_.size(); }

  /// Copies page `id` into `out`; OutOfRange for bad ids.
  Status Read(PageId id, Page* out) const;

  /// Copies pages `ids[i]` into `*outs[i]` as ONE device request: the
  /// seek latency is charged once, plus a per-page transfer cost of
  /// read_latency_micros() / kBatchTransferDivisor for each page after
  /// the first (a single-page batch costs exactly what Read costs).
  /// Every page still counts in reads(); the request counts once in
  /// batch_reads(). OutOfRange if any id is bad (no page is read).
  Status ReadBatch(std::span<const PageId> ids,
                   std::span<Page* const> outs) const;

  /// Total batched requests served via ReadBatch.
  uint64_t batch_reads() const {
    return batch_reads_.load(std::memory_order_relaxed);
  }

  /// Overwrites page `id`; OutOfRange for bad ids.
  Status Write(PageId id, const Page& in);

  /// Total Read calls served (the "physical I/O" count).
  uint64_t reads() const { return reads_.load(std::memory_order_relaxed); }

  /// Simulated per-read latency in microseconds (default 0: RAM-speed).
  /// With a latency, every fault costs wall time like a real device --
  /// the concurrency experiments use this to show that a pool which
  /// faults while holding one global latch serializes every session
  /// behind each disk read, while the sharded latch overlaps them.
  void set_read_latency_micros(uint32_t micros) {
    read_latency_micros_.store(micros, std::memory_order_relaxed);
  }
  uint32_t read_latency_micros() const {
    return read_latency_micros_.load(std::memory_order_relaxed);
  }

 private:
  /// The page image `id` with its trailing zeros restored.
  void CopyOut(PageId id, Page* out) const;

  /// Page images without their trailing zero bytes.
  std::vector<std::vector<uint8_t>> pages_;
  // Atomic so that pools on different threads may share one disk.
  mutable std::atomic<uint64_t> reads_{0};
  mutable std::atomic<uint64_t> batch_reads_{0};
  std::atomic<uint32_t> read_latency_micros_{0};
};

/// Buffer pool counters.
struct PoolStats {
  uint64_t pins = 0;        ///< logical page requests
  uint64_t hits = 0;        ///< served from a resident frame
  uint64_t faults = 0;      ///< required a disk read
  uint64_t evictions = 0;   ///< clean frames dropped for replacement
  uint64_t prefetched = 0;  ///< faults issued by Prefetch (also in faults)

  void MergeFrom(const PoolStats& other) {
    pins += other.pins;
    hits += other.hits;
    faults += other.faults;
    evictions += other.evictions;
    prefetched += other.prefetched;
  }
};

/// \brief Pinning LRU buffer pool over a SimulatedDisk, with a sharded
/// latch for concurrent callers.
///
/// Pin returns a stable pointer to the frame holding the page and holds
/// the frame until the matching Unpin; unpinned frames are replaced in
/// least-recently-used order when capacity is exceeded.
///
/// Thread safety: the page table, LRU list and counters are partitioned
/// into `latch_shards` independently latched shards (pages map to shards
/// round-robin by id, so the interleaved column pages of one document
/// spread evenly). Pin/Unpin on different shards never contend, which is
/// what lets many concurrent sessions share one pool without serializing
/// on a single global mutex. Counters are kept exactly: each shard's
/// PoolStats is updated under its own latch and stats() aggregates the
/// shards; read it quiesced for a consistent cross-shard snapshot. Frame
/// pointers stay valid while pinned regardless of concurrent evictions.
///
/// Sharding trades LRU globality for concurrency: each shard runs LRU
/// over its own slice of the capacity (capacity is split evenly, every
/// shard gets at least one frame). With latch_shards == 1 (the default)
/// the behavior is the classic single-latch global-LRU pool.
class BufferPool {
 public:
  /// Creates a pool of `capacity_pages` frames over `disk` (borrowed),
  /// partitioned into `latch_shards` shards (clamped to [1,
  /// capacity_pages] so every shard owns at least one frame).
  BufferPool(SimulatedDisk* disk, size_t capacity_pages,
             size_t latch_shards = 1);

  /// Pins page `id` and returns its frame bytes; faults it in if needed.
  /// Fails with Internal when every frame of the page's shard is pinned
  /// (pool too small for the concurrent pin set).
  Result<const uint8_t*> Pin(PageId id);

  /// Releases one pin on `id`; InvalidArgument if not pinned.
  Status Unpin(PageId id);

  /// Prefetch hint: faults the absent pages among `ids` in ONE batched
  /// disk request (SimulatedDisk::ReadBatch -- one seek, per-page
  /// transfer) and parks them unpinned at the LRU tail, so the pins the
  /// cursor issues right after a SkipTo leap land as hits.
  ///
  /// Strictly best-effort and never an error: a no-op unless
  /// set_prefetch_enabled(true); out-of-range ids, duplicate ids,
  /// already-resident pages and shards whose frames are all pinned are
  /// silently skipped. A wrong or stale hint therefore costs at most the
  /// absent pages it named -- it can never evict a pinned frame, replace
  /// a resident page, or surface a wrong result. Prefetched pages count
  /// in both `faults` (they are disk reads) and `prefetched`.
  ///
  /// Hints that boil down to fewer than two absent pages are dropped: a
  /// batch of one amortizes no seek, so it could only match the cost of
  /// the on-demand fault while risking a wasted read.
  void Prefetch(std::span<const PageId> ids);

  /// Prefetch hints are dropped unless enabled (default off, so exact
  /// fault accounting of existing experiments is untouched).
  void set_prefetch_enabled(bool enabled) {
    prefetch_enabled_.store(enabled, std::memory_order_relaxed);
  }
  bool prefetch_enabled() const {
    return prefetch_enabled_.load(std::memory_order_relaxed);
  }

  /// Counters since construction (aggregated over the shards; each shard
  /// is copied under its latch).
  PoolStats stats() const;

  /// Zeroes the counters (keeps resident pages).
  void ResetStats();

  /// Drops every unpinned frame (a cold start for experiments).
  void FlushAll();

  /// Number of frames currently holding pages.
  size_t resident_pages() const;

  size_t capacity() const { return capacity_; }
  size_t shard_count() const { return shards_.size(); }

 private:
  struct Frame {
    Page page;
    uint32_t pin_count = 0;
    std::list<PageId>::iterator lru_pos;  // valid iff pin_count == 0
    bool in_lru = false;
  };

  /// One independently latched slice of the pool. The frame table, LRU
  /// list and counters are all guarded by the shard latch -- enforced at
  /// compile time by Clang Thread Safety Analysis (-DSJ_THREAD_SAFETY=ON).
  struct Shard {
    mutable Mutex mu;
    /// Set once in the BufferPool constructor, before the pool is shared;
    /// immutable afterwards, hence not guarded.
    size_t capacity = 0;
    std::unordered_map<PageId, std::unique_ptr<Frame>> frames
        SJ_GUARDED_BY(mu);
    std::list<PageId> lru SJ_GUARDED_BY(mu);  // front = least recently used
    PoolStats stats SJ_GUARDED_BY(mu);
  };

  Shard& ShardFor(PageId id) { return shards_[id % shards_.size()]; }

  static Status EvictOne(Shard* shard) SJ_REQUIRES(shard->mu);

  SimulatedDisk* disk_;
  size_t capacity_;
  std::atomic<bool> prefetch_enabled_{false};
  std::vector<Shard> shards_;
};

}  // namespace sj::storage

#endif  // STAIRJOIN_STORAGE_BUFFER_POOL_H_
