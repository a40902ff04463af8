#include "storage/buffer_pool.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <thread>

namespace sj::storage {

PageId SimulatedDisk::Allocate() {
  pages_.emplace_back();  // all zeros until written
  return static_cast<PageId>(pages_.size() - 1);
}

void SimulatedDisk::CopyOut(PageId id, Page* out) const {
  const std::vector<uint8_t>& stored = pages_[id];
  if (!stored.empty()) std::memcpy(out->bytes, stored.data(), stored.size());
  std::memset(out->bytes + stored.size(), 0, kPageSize - stored.size());
}

Status SimulatedDisk::Read(PageId id, Page* out) const {
  if (id >= pages_.size()) {
    return Status::OutOfRange("disk read past end: page " +
                              std::to_string(id));
  }
  reads_.fetch_add(1, std::memory_order_relaxed);
  uint32_t latency = read_latency_micros_.load(std::memory_order_relaxed);
  if (latency > 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(latency));
  }
  CopyOut(id, out);
  return Status::OK();
}

Status SimulatedDisk::ReadBatch(std::span<const PageId> ids,
                                std::span<Page* const> outs) const {
  if (ids.size() != outs.size()) {
    return Status::InvalidArgument("ReadBatch: ids/outs size mismatch");
  }
  if (ids.empty()) return Status::OK();
  for (PageId id : ids) {
    if (id >= pages_.size()) {
      return Status::OutOfRange("disk batch read past end: page " +
                                std::to_string(id));
    }
  }
  reads_.fetch_add(ids.size(), std::memory_order_relaxed);
  batch_reads_.fetch_add(1, std::memory_order_relaxed);
  uint32_t latency = read_latency_micros_.load(std::memory_order_relaxed);
  if (latency > 0) {
    // One seek for the request, then a transfer cost per extra page --
    // this is exactly why prefetching N pages beats N cold Pin calls.
    uint64_t micros =
        latency + (ids.size() - 1) *
                      static_cast<uint64_t>(latency / kBatchTransferDivisor);
    std::this_thread::sleep_for(std::chrono::microseconds(micros));
  }
  for (size_t i = 0; i < ids.size(); ++i) {
    CopyOut(ids[i], outs[i]);
  }
  return Status::OK();
}

Status SimulatedDisk::Write(PageId id, const Page& in) {
  if (id >= pages_.size()) {
    return Status::OutOfRange("disk write past end: page " +
                              std::to_string(id));
  }
  // Trim the zero tail a word at a time (coded and fragment pages are
  // often mostly tail), then byte by byte.
  size_t len = kPageSize;
  uint64_t word = 0;
  while (len >= sizeof(word)) {
    std::memcpy(&word, in.bytes + len - sizeof(word), sizeof(word));
    if (word != 0) break;
    len -= sizeof(word);
  }
  while (len > 0 && in.bytes[len - 1] == 0) --len;
  pages_[id].assign(in.bytes, in.bytes + len);
  return Status::OK();
}

BufferPool::BufferPool(SimulatedDisk* disk, size_t capacity_pages,
                       size_t latch_shards)
    : disk_(disk), capacity_(capacity_pages > 0 ? capacity_pages : 1) {
  size_t shards = latch_shards > 0 ? latch_shards : 1;
  if (shards > capacity_) shards = capacity_;
  shards_ = std::vector<Shard>(shards);
  // Split the capacity evenly; the first capacity_ % shards shards absorb
  // the remainder so the total is exact.
  for (size_t i = 0; i < shards; ++i) {
    shards_[i].capacity = capacity_ / shards + (i < capacity_ % shards ? 1 : 0);
  }
}

Status BufferPool::EvictOne(Shard* shard) {
  if (shard->lru.empty()) {
    return Status::Internal("buffer pool exhausted: all frames pinned");
  }
  PageId victim = shard->lru.front();
  shard->lru.pop_front();
  ++shard->stats.evictions;
  shard->frames.erase(victim);
  return Status::OK();
}

Result<const uint8_t*> BufferPool::Pin(PageId id) {
  Shard& shard = ShardFor(id);
  MutexLock lock(shard.mu);
  ++shard.stats.pins;
  auto it = shard.frames.find(id);
  if (it != shard.frames.end()) {
    ++shard.stats.hits;
    Frame* frame = it->second.get();
    if (frame->pin_count == 0 && frame->in_lru) {
      shard.lru.erase(frame->lru_pos);
      frame->in_lru = false;
    }
    ++frame->pin_count;
    return static_cast<const uint8_t*>(frame->page.bytes);
  }

  ++shard.stats.faults;
  while (shard.frames.size() >= shard.capacity) {
    SJ_RETURN_NOT_OK(EvictOne(&shard));
  }
  auto frame = std::make_unique<Frame>();
  SJ_RETURN_NOT_OK(disk_->Read(id, &frame->page));
  frame->pin_count = 1;
  const uint8_t* bytes = frame->page.bytes;
  shard.frames.emplace(id, std::move(frame));
  return bytes;
}

Status BufferPool::Unpin(PageId id) {
  Shard& shard = ShardFor(id);
  MutexLock lock(shard.mu);
  auto it = shard.frames.find(id);
  if (it == shard.frames.end() || it->second->pin_count == 0) {
    return Status::InvalidArgument("Unpin of page that is not pinned");
  }
  Frame* frame = it->second.get();
  --frame->pin_count;
  if (frame->pin_count == 0) {
    frame->lru_pos = shard.lru.insert(shard.lru.end(), id);
    frame->in_lru = true;
  }
  return Status::OK();
}

void BufferPool::Prefetch(std::span<const PageId> ids) {
  if (ids.empty() || !prefetch_enabled()) return;

  // Filter the hint down to pages actually worth a disk read: in-range,
  // not a duplicate within this batch, not already resident. Hint lists
  // are tiny (one page per active column), so linear dedup is fine.
  std::vector<PageId> needed;
  needed.reserve(ids.size());
  for (PageId id : ids) {
    if (static_cast<size_t>(id) >= disk_->page_count()) continue;
    if (std::find(needed.begin(), needed.end(), id) != needed.end()) continue;
    Shard& shard = ShardFor(id);
    MutexLock lock(shard.mu);
    if (shard.frames.find(id) != shard.frames.end()) continue;
    needed.push_back(id);
  }
  // A batch of one has no seek to amortize -- it costs exactly what the
  // on-demand fault would, plus the risk of being wasted if the cursor
  // never reads the page. Let degenerate hints fault on demand instead.
  if (needed.size() < 2) return;

  std::vector<std::unique_ptr<Frame>> frames;
  std::vector<Page*> pages;
  frames.reserve(needed.size());
  pages.reserve(needed.size());
  for (size_t i = 0; i < needed.size(); ++i) {
    frames.push_back(std::make_unique<Frame>());
    pages.push_back(&frames.back()->page);
  }
  // The ids were validated above, so a failure here cannot happen; if it
  // somehow did, dropping the hint is the correct (best-effort) response.
  if (!disk_->ReadBatch(needed, pages).ok()) return;

  for (size_t i = 0; i < needed.size(); ++i) {
    PageId id = needed[i];
    Shard& shard = ShardFor(id);
    MutexLock lock(shard.mu);
    // Another session may have faulted the page in while we were reading
    // off-latch; their frame may already be pinned, so ours is dropped.
    if (shard.frames.find(id) != shard.frames.end()) continue;
    while (shard.frames.size() >= shard.capacity) {
      if (!EvictOne(&shard).ok()) break;
    }
    if (shard.frames.size() >= shard.capacity) continue;  // all pinned
    Frame* frame = frames[i].get();
    frame->pin_count = 0;
    frame->lru_pos = shard.lru.insert(shard.lru.end(), id);
    frame->in_lru = true;
    ++shard.stats.faults;
    ++shard.stats.prefetched;
    shard.frames.emplace(id, std::move(frames[i]));
  }
}

PoolStats BufferPool::stats() const {
  PoolStats total;
  for (const Shard& shard : shards_) {
    MutexLock lock(shard.mu);
    total.MergeFrom(shard.stats);
  }
  return total;
}

void BufferPool::ResetStats() {
  for (Shard& shard : shards_) {
    MutexLock lock(shard.mu);
    shard.stats = PoolStats{};
  }
}

void BufferPool::FlushAll() {
  for (Shard& shard : shards_) {
    MutexLock lock(shard.mu);
    for (PageId id : shard.lru) shard.frames.erase(id);
    shard.lru.clear();
  }
}

size_t BufferPool::resident_pages() const {
  size_t total = 0;
  for (const Shard& shard : shards_) {
    MutexLock lock(shard.mu);
    total += shard.frames.size();
  }
  return total;
}

}  // namespace sj::storage
