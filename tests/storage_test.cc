// Tests for the paged-storage substrate: simulated disk, LRU buffer pool
// semantics, the raw page layout's columns, and the paged staircase join
// (results identical to the in-memory join; skipping saves page faults).

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "core/staircase_impl.h"
#include "encoding/loader.h"
#include "storage/buffer_pool.h"
#include "storage/compressed_accessor.h"
#include "storage/compressed_doc.h"
#include "test_util.h"
#include "util/rng.h"

namespace sj::storage {
namespace {

using sj::testing::RandomContext;
using sj::testing::RandomDocument;

TEST(SimulatedDiskTest, AllocateReadWrite) {
  SimulatedDisk disk;
  PageId a = disk.Allocate();
  PageId b = disk.Allocate();
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(b, 1u);
  Page page;
  page.bytes[0] = 42;
  page.bytes[kPageSize - 1] = 7;
  ASSERT_TRUE(disk.Write(b, page).ok());
  Page out;
  ASSERT_TRUE(disk.Read(b, &out).ok());
  EXPECT_EQ(out.bytes[0], 42);
  EXPECT_EQ(out.bytes[kPageSize - 1], 7);
  EXPECT_EQ(disk.reads(), 1u);
  EXPECT_FALSE(disk.Read(9, &out).ok());
  EXPECT_FALSE(disk.Write(9, page).ok());
}

TEST(SimulatedDiskTest, PagesReadBackWithTheirZeroTails) {
  SimulatedDisk disk;
  const PageId p = disk.Allocate();
  Page out;
  std::memset(out.bytes, 0xAB, kPageSize);
  // Never written: all zeros, whatever the frame held before.
  ASSERT_TRUE(disk.Read(p, &out).ok());
  for (uint8_t b : out.bytes) ASSERT_EQ(b, 0);

  Page page{};
  page.bytes[0] = 1;
  page.bytes[100] = 2;  // bytes 101.. are the zero tail
  ASSERT_TRUE(disk.Write(p, page).ok());
  std::memset(out.bytes, 0xAB, kPageSize);
  ASSERT_TRUE(disk.Read(p, &out).ok());
  EXPECT_EQ(std::memcmp(out.bytes, page.bytes, kPageSize), 0);

  // A shorter image overwrites the longer one, tail included.
  page.bytes[100] = 0;
  ASSERT_TRUE(disk.Write(p, page).ok());
  Page* outs[] = {&out};
  const PageId ids[] = {p};
  std::memset(out.bytes, 0xAB, kPageSize);
  ASSERT_TRUE(disk.ReadBatch(ids, outs).ok());
  EXPECT_EQ(std::memcmp(out.bytes, page.bytes, kPageSize), 0);
}

TEST(BufferPoolTest, HitAfterFault) {
  SimulatedDisk disk;
  PageId p = disk.Allocate();
  BufferPool pool(&disk, 4);
  ASSERT_TRUE(pool.Pin(p).ok());
  ASSERT_TRUE(pool.Unpin(p).ok());
  ASSERT_TRUE(pool.Pin(p).ok());
  ASSERT_TRUE(pool.Unpin(p).ok());
  EXPECT_EQ(pool.stats().pins, 2u);
  EXPECT_EQ(pool.stats().faults, 1u);
  EXPECT_EQ(pool.stats().hits, 1u);
}

TEST(BufferPoolTest, EvictsLeastRecentlyUsed) {
  SimulatedDisk disk;
  PageId p0 = disk.Allocate(), p1 = disk.Allocate(), p2 = disk.Allocate();
  BufferPool pool(&disk, 2);
  auto touch = [&](PageId p) {
    ASSERT_TRUE(pool.Pin(p).ok());
    ASSERT_TRUE(pool.Unpin(p).ok());
  };
  touch(p0);
  touch(p1);
  touch(p0);  // p1 is now LRU
  touch(p2);  // evicts p1
  EXPECT_EQ(pool.stats().evictions, 1u);
  touch(p0);  // still resident
  EXPECT_EQ(pool.stats().faults, 3u);  // p0, p1, p2
  touch(p1);  // was evicted: faults again
  EXPECT_EQ(pool.stats().faults, 4u);
}

TEST(BufferPoolTest, PinnedPagesSurviveEviction) {
  SimulatedDisk disk;
  PageId p0 = disk.Allocate(), p1 = disk.Allocate(), p2 = disk.Allocate();
  BufferPool pool(&disk, 2);
  auto pinned = pool.Pin(p0);
  ASSERT_TRUE(pinned.ok());
  ASSERT_TRUE(pool.Pin(p1).ok());
  ASSERT_TRUE(pool.Unpin(p1).ok());
  // p1 is evictable, p0 is not.
  ASSERT_TRUE(pool.Pin(p2).ok());
  EXPECT_EQ(pool.stats().evictions, 1u);
  ASSERT_TRUE(pool.Unpin(p2).ok());
  // Re-pinning p0 is a hit (still resident, still pinned once).
  ASSERT_TRUE(pool.Pin(p0).ok());
  EXPECT_EQ(pool.stats().hits, 1u);
  ASSERT_TRUE(pool.Unpin(p0).ok());
  ASSERT_TRUE(pool.Unpin(p0).ok());
}

TEST(BufferPoolTest, AllFramesPinnedFails) {
  SimulatedDisk disk;
  PageId p0 = disk.Allocate(), p1 = disk.Allocate();
  BufferPool pool(&disk, 1);
  ASSERT_TRUE(pool.Pin(p0).ok());
  EXPECT_FALSE(pool.Pin(p1).ok());
  ASSERT_TRUE(pool.Unpin(p0).ok());
  EXPECT_TRUE(pool.Pin(p1).ok());
}

TEST(BufferPoolTest, UnpinWithoutPinRejected) {
  SimulatedDisk disk;
  PageId p = disk.Allocate();
  BufferPool pool(&disk, 2);
  EXPECT_FALSE(pool.Unpin(p).ok());
}

TEST(BufferPoolTest, FlushAllColdStart) {
  SimulatedDisk disk;
  PageId p = disk.Allocate();
  BufferPool pool(&disk, 2);
  ASSERT_TRUE(pool.Pin(p).ok());
  ASSERT_TRUE(pool.Unpin(p).ok());
  pool.FlushAll();
  EXPECT_EQ(pool.resident_pages(), 0u);
  ASSERT_TRUE(pool.Pin(p).ok());
  EXPECT_EQ(pool.stats().faults, 2u);
  ASSERT_TRUE(pool.Unpin(p).ok());
}

TEST(ShardedBufferPoolTest, ShardCountClampsToCapacity) {
  SimulatedDisk disk;
  EXPECT_EQ(BufferPool(&disk, 64, 8).shard_count(), 8u);
  EXPECT_EQ(BufferPool(&disk, 2, 8).shard_count(), 2u);   // >= 1 frame/shard
  EXPECT_EQ(BufferPool(&disk, 64).shard_count(), 1u);     // default: global
  EXPECT_EQ(BufferPool(&disk, 64, 0).shard_count(), 1u);
}

TEST(ShardedBufferPoolTest, CountersStayExactAcrossShards) {
  SimulatedDisk disk;
  std::vector<PageId> pages;
  for (int i = 0; i < 32; ++i) pages.push_back(disk.Allocate());
  BufferPool pool(&disk, 64, 8);
  for (PageId p : pages) {
    ASSERT_TRUE(pool.Pin(p).ok());
    ASSERT_TRUE(pool.Unpin(p).ok());
  }
  for (PageId p : pages) {
    ASSERT_TRUE(pool.Pin(p).ok());
    ASSERT_TRUE(pool.Unpin(p).ok());
  }
  const PoolStats ps = pool.stats();
  EXPECT_EQ(ps.pins, 64u);
  EXPECT_EQ(ps.faults, 32u);
  EXPECT_EQ(ps.hits, 32u);
  EXPECT_EQ(ps.evictions, 0u);
  EXPECT_EQ(pool.resident_pages(), 32u);
  pool.FlushAll();
  EXPECT_EQ(pool.resident_pages(), 0u);
  pool.ResetStats();
  EXPECT_EQ(pool.stats().pins, 0u);
}

TEST(ShardedBufferPoolTest, EvictionIsPerShard) {
  // 4 shards x 1 frame: pages 0 and 4 share shard 0, page 1 lives on
  // shard 1. Re-pinning page 4 evicts page 0 (its shard's only frame)
  // but leaves page 1 resident.
  SimulatedDisk disk;
  for (int i = 0; i < 5; ++i) disk.Allocate();
  BufferPool pool(&disk, 4, 4);
  auto touch = [&](PageId p) {
    ASSERT_TRUE(pool.Pin(p).ok());
    ASSERT_TRUE(pool.Unpin(p).ok());
  };
  touch(0);
  touch(1);
  touch(4);  // evicts 0
  EXPECT_EQ(pool.stats().evictions, 1u);
  touch(1);  // still resident
  EXPECT_EQ(pool.stats().hits, 1u);
  touch(0);  // faults again
  EXPECT_EQ(pool.stats().faults, 4u);
}

TEST(ShardedBufferPoolTest, ConcurrentPinsKeepExactCounters) {
  SimulatedDisk disk;
  std::vector<PageId> pages;
  for (int i = 0; i < 64; ++i) pages.push_back(disk.Allocate());
  BufferPool pool(&disk, 128, 8);
  constexpr int kThreads = 8;
  constexpr int kIterations = 400;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(static_cast<uint64_t>(t) * 977 + 11);
      for (int i = 0; i < kIterations; ++i) {
        PageId p = pages[rng.Below(pages.size())];
        auto pinned = pool.Pin(p);
        ASSERT_TRUE(pinned.ok()) << pinned.status();
        ASSERT_TRUE(pool.Unpin(p).ok());
      }
    });
  }
  for (std::thread& th : threads) th.join();
  const PoolStats ps = pool.stats();
  // Exactness: every pin is either a hit or a fault, none lost.
  EXPECT_EQ(ps.pins, static_cast<uint64_t>(kThreads) * kIterations);
  EXPECT_EQ(ps.hits + ps.faults, ps.pins);
  // Capacity exceeds the page universe: faults == distinct pages touched,
  // and the disk saw exactly one read per fault.
  EXPECT_LE(ps.faults, pages.size());
  EXPECT_EQ(disk.reads(), ps.faults);
}

/// The paged backend's image of `doc`: every column in the raw layout.
std::unique_ptr<CompressedDocTable> RawTable(const DocTable& doc,
                                             SimulatedDisk* disk) {
  return CompressedDocTable::Create(doc, disk, ColumnLayout::kRaw).value();
}

TEST(PagedDocTest, RandomReadsMatchDocTable) {
  auto doc = RandomDocument(7, {.target_nodes = 5000});
  SimulatedDisk disk;
  auto paged = RawTable(*doc, &disk);
  BufferPool pool(&disk, 8);
  EXPECT_EQ(paged->size(), doc->size());
  EXPECT_EQ(paged->height(), doc->height());
  EXPECT_EQ(paged->layout(), ColumnLayout::kRaw);
  CompressedDocAccessor acc(*paged, &pool);
  Rng rng(3);
  for (int i = 0; i < 200; ++i) {
    NodeId v = static_cast<NodeId>(rng.Below(doc->size()));
    EXPECT_EQ(acc.Post(v), doc->post(v));
    EXPECT_EQ(acc.Kind(v), static_cast<uint8_t>(doc->kind(v)));
    EXPECT_EQ(acc.Level(v), doc->level(v));
    EXPECT_EQ(acc.Parent(v), doc->parent(v));
    EXPECT_EQ(acc.Tag(v), doc->tag(v));
  }
  EXPECT_TRUE(acc.ok()) << acc.status();
}

/// A document of exactly `nodes` nodes under one root: three-node
/// a/b/text runs (mixed kinds, levels and parents), padded with leaves.
std::unique_ptr<DocTable> DocumentOfSize(size_t nodes) {
  std::string xml = "<r>";
  size_t left = nodes - 1;
  for (; left >= 3; left -= 3) xml += "<a><b>t</b></a>";
  for (; left > 0; --left) xml += "<c/>";
  xml += "</r>";
  return LoadDocument(xml).value();
}

struct RawColumnCase {
  const char* column;
  size_t per_page;  // values per raw page: 2048 ranks or 8192 bytes
  const CompressedColumn& (CompressedDocTable::*image)() const;
  uint32_t (*want)(const DocTable&, NodeId);
};

// For both raw widths, at one value short of a page, exactly a page and
// one value past it: the column reads back equal to the DocTable, and a
// sequential scan pins each of its pages exactly once.
TEST(PagedDocTest, RawColumnsReadBackAndScanEachPageOnce) {
  const RawColumnCase cases[] = {
      {"post", kPageSize / sizeof(uint32_t), &CompressedDocTable::post,
       [](const DocTable& d, NodeId v) { return d.post(v); }},
      {"parent", kPageSize / sizeof(uint32_t), &CompressedDocTable::parent,
       [](const DocTable& d, NodeId v) { return d.parent(v); }},
      {"tag", kPageSize / sizeof(uint32_t), &CompressedDocTable::tag,
       [](const DocTable& d, NodeId v) { return d.tag(v); }},
      {"kind", kPageSize, &CompressedDocTable::kind,
       [](const DocTable& d, NodeId v) {
         return static_cast<uint32_t>(d.kind(v));
       }},
      {"level", kPageSize, &CompressedDocTable::level,
       [](const DocTable& d, NodeId v) {
         return static_cast<uint32_t>(d.level(v));
       }},
  };
  for (const RawColumnCase& c : cases) {
    for (size_t nodes : {c.per_page - 1, c.per_page, c.per_page + 1}) {
      SCOPED_TRACE(std::string(c.column) + " nodes=" + std::to_string(nodes));
      auto doc = DocumentOfSize(nodes);
      ASSERT_EQ(doc->size(), nodes);
      SimulatedDisk disk;
      auto paged = RawTable(*doc, &disk);
      const CompressedColumn& column = ((*paged).*c.image)();
      const size_t pages = (nodes + c.per_page - 1) / c.per_page;
      ASSERT_EQ(column.pages.size(), pages);
      ASSERT_EQ(column.blocks.size(), pages);
      EXPECT_EQ(column.BlockValues(), c.per_page);
      BufferPool pool(&disk, 4);
      {
        CompressedColumnCursor cursor(column, &pool);
        Status status;
        for (size_t v = 0; v < nodes; ++v) {
          ASSERT_EQ(cursor.At(v, &status),
                    c.want(*doc, static_cast<NodeId>(v)))
              << "value " << v;
        }
        ASSERT_TRUE(status.ok()) << status;
      }
      EXPECT_EQ(pool.stats().pins, pages);
      EXPECT_EQ(pool.stats().faults, pages);
    }
  }
}

using PagedParam = std::tuple<uint64_t, Axis, SkipMode, size_t>;

class PagedJoinPropertyTest : public ::testing::TestWithParam<PagedParam> {};

TEST_P(PagedJoinPropertyTest, MatchesInMemoryJoin) {
  auto [seed, axis, mode, pool_pages] = GetParam();
  auto doc = RandomDocument(seed, {.target_nodes = 4000});
  SimulatedDisk disk;
  auto paged = RawTable(*doc, &disk);
  BufferPool pool(&disk, pool_pages);
  Rng rng(seed ^ 0xBEEF);
  for (uint32_t percent : {5u, 30u}) {
    NodeSequence ctx = RandomContext(rng, *doc, percent);
    StaircaseOptions opt;
    opt.skip_mode = mode;
    JoinStats mem_stats, paged_stats;
    auto expected = StaircaseJoin(*doc, ctx, axis, opt, &mem_stats);
    CompressedDocAccessor acc(*paged, &pool);
    auto got =
        internal::StaircaseJoinOver(acc, ctx, axis, opt, &paged_stats);
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_EQ(got.value(), expected.value())
        << AxisName(axis) << " seed " << seed << " pool " << pool_pages;
    EXPECT_EQ(paged_stats.result_size, mem_stats.result_size);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, PagedJoinPropertyTest,
    ::testing::Combine(
        ::testing::Values(11, 12),
        ::testing::Values(Axis::kDescendant, Axis::kDescendantOrSelf,
                          Axis::kAncestor, Axis::kAncestorOrSelf,
                          Axis::kFollowing, Axis::kPreceding),
        ::testing::Values(SkipMode::kNone, SkipMode::kSkip,
                          SkipMode::kEstimated),
        ::testing::Values(size_t{3}, size_t{64})));

TEST(PagedJoinTest, SkippingSavesPageFaults) {
  // A sparse context deep in a large document: without skipping the scan
  // pins every post page after the first context node; with estimation the
  // guaranteed-descendant copy phase reads no post pages at all.
  auto doc = RandomDocument(21, {.target_nodes = 60000});
  SimulatedDisk disk;
  auto paged = RawTable(*doc, &disk);
  NodeSequence ctx = {doc->root()};

  StaircaseOptions none, est;
  none.skip_mode = SkipMode::kNone;
  est.skip_mode = SkipMode::kEstimated;
  est.keep_attributes = true;  // pure copy: no kind pages either

  BufferPool cold_none(&disk, 4);
  CompressedDocAccessor none_acc(*paged, &cold_none);
  (void)internal::StaircaseJoinOver(none_acc, ctx, Axis::kDescendant, none,
                                    nullptr);
  BufferPool cold_est(&disk, 4);
  CompressedDocAccessor est_acc(*paged, &cold_est);
  (void)internal::StaircaseJoinOver(est_acc, ctx, Axis::kDescendant, est,
                                    nullptr);

  EXPECT_GT(cold_none.stats().faults, 0u);
  // (root)/descendant with estimation: only the root's own post page.
  EXPECT_LE(cold_est.stats().faults, 2u);
  EXPECT_LT(cold_est.stats().faults, cold_none.stats().faults);
}

TEST(PagedJoinTest, RejectsBadInput) {
  auto doc = RandomDocument(31);
  SimulatedDisk disk;
  auto paged = RawTable(*doc, &disk);
  BufferPool pool(&disk, 4);
  CompressedDocAccessor acc(*paged, &pool);
  auto join = [&acc](const NodeSequence& ctx, Axis axis) {
    return internal::StaircaseJoinOver(acc, ctx, axis, {}, nullptr);
  };
  EXPECT_FALSE(join({3, 1}, Axis::kDescendant).ok());
  // Non-staircase axes are rejected; following/preceding are supported
  // since the join runs through the backend-generic kernels.
  EXPECT_FALSE(join({0}, Axis::kChild).ok());
  EXPECT_TRUE(join({0}, Axis::kFollowing).ok());
  EXPECT_FALSE(
      CompressedDocTable::Create(*doc, nullptr, ColumnLayout::kRaw).ok());
}

}  // namespace
}  // namespace sj::storage
