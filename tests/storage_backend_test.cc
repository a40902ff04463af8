// Backend equivalence for the unified staircase join: the ONE set of
// Section 3/4 kernels (core/staircase_impl.h), instantiated with the
// in-memory cursor, the buffer-pool cursor AND the compressed-block
// cursor, must return byte-identical NodeSequences for every staircase
// axis and skip mode -- and the pool-backed instantiations must turn
// skipping into page faults saved (the compressed one into strictly
// fewer of them). Also drives whole queries end-to-end over the paged
// and compressed backends through the Database/Session facade (which
// owns the backend wiring and validates image digests at open time).

#include <gtest/gtest.h>

#include <cstring>

#include "api/database.h"
#include "core/doc_accessor.h"
#include "core/staircase_impl.h"
#include "storage/compressed_accessor.h"
#include "storage/compressed_doc.h"
#include "test_util.h"
#include "util/rng.h"

namespace sj::storage {
namespace {

using sj::testing::RandomContext;
using sj::testing::RandomDocOptions;
using sj::testing::RandomDocument;

constexpr ColumnLayout kRaw = ColumnLayout::kRaw;

constexpr Axis kStaircaseAxes[] = {
    Axis::kDescendant, Axis::kDescendantOrSelf, Axis::kAncestor,
    Axis::kAncestorOrSelf, Axis::kFollowing, Axis::kPreceding,
};
constexpr SkipMode kSkipModes[] = {SkipMode::kNone, SkipMode::kSkip,
                                   SkipMode::kEstimated};

/// Bytewise equality: the acceptance bar is byte-identical sequences, not
/// just element-wise EXPECT_EQ.
bool BytesEqual(const NodeSequence& a, const NodeSequence& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(NodeId)) == 0);
}

/// The generic staircase join over a fresh `Acc` on `table` and `pool`
/// (its pages are unpinned on return, as between two query steps).
template <typename Acc, typename Table>
Result<NodeSequence> StaircaseVia(const Table& table, BufferPool* pool,
                                  const NodeSequence& ctx, Axis axis,
                                  const StaircaseOptions& opt = {},
                                  JoinStats* stats = nullptr) {
  Acc acc(table, pool);
  return internal::StaircaseJoinOver(acc, ctx, axis, opt, stats);
}

/// The partitioned parallel driver over one `Acc` per worker, with the
/// worker count capped by the pool's pin budget.
template <typename Acc, typename Table>
Result<NodeSequence> ParallelStaircaseVia(const Table& table, BufferPool* pool,
                                          const NodeSequence& ctx, Axis axis,
                                          const StaircaseOptions& opt,
                                          unsigned threads) {
  return internal::ParallelStaircaseJoinOver(
      [&table, pool] { return Acc(table, pool); }, ctx, axis, opt, threads,
      nullptr, pool->capacity());
}

TEST(DocAccessorTest, MemoryAndPagedCursorsReadTheSameColumns) {
  // Seeds are chosen so the generator actually produces multi-page
  // documents (its top-level fanout is seed-sensitive).
  auto doc = RandomDocument(11, {.target_nodes = 60000});
  ASSERT_GT(doc->size(), 10000u);
  SimulatedDisk disk;
  auto paged = CompressedDocTable::Create(*doc, &disk, kRaw).value();
  BufferPool pool(&disk, 8);
  MemoryDocAccessor mem(*doc);
  CompressedDocAccessor io(*paged, &pool);
  ASSERT_EQ(mem.size(), io.size());
  Rng rng(5);
  for (int i = 0; i < 500; ++i) {
    uint64_t pre = rng.Below(doc->size());
    EXPECT_EQ(mem.Post(pre), io.Post(pre)) << "pre " << pre;
    EXPECT_EQ(mem.Kind(pre), io.Kind(pre)) << "pre " << pre;
    EXPECT_EQ(mem.Level(pre), io.Level(pre)) << "pre " << pre;
    EXPECT_EQ(mem.Parent(pre), io.Parent(pre)) << "pre " << pre;
    EXPECT_EQ(mem.Tag(pre), io.Tag(pre)) << "pre " << pre;
    if (i % 7 == 0) io.SkipTo(rng.Below(doc->size() + 1));
  }
  EXPECT_TRUE(io.ok()) << io.status();
}

TEST(DocAccessorTest, CompressedCursorReadsAllFiveColumnsExactly) {
  auto doc = RandomDocument(11, {.target_nodes = 60000,
                                 .attribute_percent = 30});
  ASSERT_GT(doc->size(), 10000u);
  SimulatedDisk disk;
  auto compressed = CompressedDocTable::Create(*doc, &disk).value();
  // Decoding never alters the columns: the compressed image must be a
  // strict shrink of the raw one.
  ASSERT_LT(compressed->encoded_bytes(), doc->size() * 14);
  BufferPool pool(&disk, 8);
  MemoryDocAccessor mem(*doc);
  CompressedDocAccessor io(*compressed, &pool);
  ASSERT_EQ(mem.size(), io.size());
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    uint64_t pre = rng.Below(doc->size());
    EXPECT_EQ(mem.Post(pre), io.Post(pre)) << "pre " << pre;
    EXPECT_EQ(mem.Kind(pre), io.Kind(pre)) << "pre " << pre;
    EXPECT_EQ(mem.Level(pre), io.Level(pre)) << "pre " << pre;
    EXPECT_EQ(mem.Parent(pre), io.Parent(pre)) << "pre " << pre;
    EXPECT_EQ(mem.Tag(pre), io.Tag(pre)) << "pre " << pre;
    if (i % 7 == 0) io.SkipTo(rng.Below(doc->size() + 1));
  }
  EXPECT_TRUE(io.ok()) << io.status();
}

TEST(DocAccessorTest, CompressedCursorIsStickyOnPoolExhaustion) {
  auto doc = RandomDocument(78, {.target_nodes = 500});
  SimulatedDisk disk;
  auto compressed = CompressedDocTable::Create(*doc, &disk).value();
  BufferPool pool(&disk, 1);
  // Starve the accessor: an outside pin occupies the single frame.
  ASSERT_TRUE(pool.Pin(compressed->kind().pages.front()).ok());
  CompressedDocAccessor io(*compressed, &pool);
  (void)io.Post(0);
  EXPECT_FALSE(io.ok());
  (void)io.Post(1);  // still failed, no crash, no new pins
  EXPECT_FALSE(io.status().ok());
  // And the join surfaces the error instead of returning garbage.
  auto r = StaircaseVia<CompressedDocAccessor>(*compressed, &pool, {0},
                                               Axis::kDescendant);
  EXPECT_FALSE(r.ok());
  ASSERT_TRUE(pool.Unpin(compressed->kind().pages.front()).ok());
}

TEST(DocAccessorTest, PagedCursorIsStickyOnPoolExhaustion) {
  auto doc = RandomDocument(78, {.target_nodes = 500});
  SimulatedDisk disk;
  auto paged = CompressedDocTable::Create(*doc, &disk, kRaw).value();
  BufferPool pool(&disk, 1);
  // Starve the accessor: an outside pin occupies the single frame.
  ASSERT_TRUE(pool.Pin(paged->kind().pages.front()).ok());
  CompressedDocAccessor io(*paged, &pool);
  (void)io.Post(0);
  EXPECT_FALSE(io.ok());
  (void)io.Post(1);  // still failed, no crash, no new pins
  EXPECT_FALSE(io.status().ok());
  // And the join surfaces the error instead of returning garbage.
  auto r = StaircaseVia<CompressedDocAccessor>(*paged, &pool, {0},
                                               Axis::kDescendant);
  EXPECT_FALSE(r.ok());
  ASSERT_TRUE(pool.Unpin(paged->kind().pages.front()).ok());
}

class BackendEquivalenceTest : public ::testing::TestWithParam<uint64_t> {};

/// The satellite acceptance matrix: all staircase axes x all skip modes x
/// both pruning flavors on randomized mixed-kind trees, serial and
/// parallel paged AND compressed joins all byte-identical to the
/// in-memory join, with identical node-touch counters.
TEST_P(BackendEquivalenceTest, PoolBackendJoinsAreByteIdenticalToMemory) {
  const uint64_t seed = GetParam();
  RandomDocOptions doc_opt;
  doc_opt.target_nodes = 60000;  // seeds below yield 11k-29k actual nodes
  auto doc = RandomDocument(seed, doc_opt);
  ASSERT_GT(doc->size(), 10000u) << "degenerate random doc for seed " << seed;
  SimulatedDisk disk;
  auto paged = CompressedDocTable::Create(*doc, &disk, kRaw).value();
  auto compressed = CompressedDocTable::Create(*doc, &disk).value();
  BufferPool pool(&disk, 16);
  Rng rng(seed * 31 + 7);
  for (uint32_t percent : {2u, 25u}) {
    NodeSequence ctx = RandomContext(rng, *doc, percent);
    for (Axis axis : kStaircaseAxes) {
      for (SkipMode mode : kSkipModes) {
        for (bool fused : {true, false}) {
          StaircaseOptions opt;
          opt.skip_mode = mode;
          opt.prune_on_the_fly = fused;
          JoinStats mem_stats, io_stats, zip_stats;
          auto expected = StaircaseJoin(*doc, ctx, axis, opt, &mem_stats);
          ASSERT_TRUE(expected.ok()) << expected.status();
          auto got = StaircaseVia<CompressedDocAccessor>(
              *paged, &pool, ctx, axis, opt, &io_stats);
          ASSERT_TRUE(got.ok()) << got.status();
          EXPECT_TRUE(BytesEqual(got.value(), expected.value()))
              << AxisName(axis) << " mode " << static_cast<int>(mode)
              << " fused " << fused << " seed " << seed;
          auto zip = StaircaseVia<CompressedDocAccessor>(
              *compressed, &pool, ctx, axis, opt, &zip_stats);
          ASSERT_TRUE(zip.ok()) << zip.status();
          EXPECT_TRUE(BytesEqual(zip.value(), expected.value()))
              << "compressed " << AxisName(axis) << " mode "
              << static_cast<int>(mode) << " fused " << fused << " seed "
              << seed;
          // The unified kernels also touch the same number of nodes.
          EXPECT_EQ(io_stats.nodes_scanned, mem_stats.nodes_scanned);
          EXPECT_EQ(io_stats.nodes_copied, mem_stats.nodes_copied);
          EXPECT_EQ(io_stats.nodes_skipped, mem_stats.nodes_skipped);
          EXPECT_EQ(zip_stats.nodes_scanned, mem_stats.nodes_scanned);
          EXPECT_EQ(zip_stats.nodes_copied, mem_stats.nodes_copied);
          EXPECT_EQ(zip_stats.nodes_skipped, mem_stats.nodes_skipped);

          auto par = ParallelStaircaseVia<CompressedDocAccessor>(
              *paged, &pool, ctx, axis, opt, 4);
          ASSERT_TRUE(par.ok()) << par.status();
          EXPECT_TRUE(BytesEqual(par.value(), expected.value()))
              << "parallel " << AxisName(axis) << " seed " << seed;
          auto zpar = ParallelStaircaseVia<CompressedDocAccessor>(
              *compressed, &pool, ctx, axis, opt, 4);
          ASSERT_TRUE(zpar.ok()) << zpar.status();
          EXPECT_TRUE(BytesEqual(zpar.value(), expected.value()))
              << "parallel compressed " << AxisName(axis) << " seed " << seed;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BackendEquivalenceTest,
                         ::testing::Values(11, 13, 17, 21, 29));

TEST(BackendEquivalenceTest, KeepAttributesAndExactLevelMatchToo) {
  auto doc = RandomDocument(13, {.target_nodes = 20000,
                                 .attribute_percent = 60});
  SimulatedDisk disk;
  auto paged = CompressedDocTable::Create(*doc, &disk, kRaw).value();
  auto compressed = CompressedDocTable::Create(*doc, &disk).value();
  BufferPool pool(&disk, 16);
  Rng rng(17);
  NodeSequence ctx = RandomContext(rng, *doc, 10);
  for (Axis axis : kStaircaseAxes) {
    for (bool keep_attributes : {false, true}) {
      StaircaseOptions opt;
      opt.keep_attributes = keep_attributes;
      opt.use_exact_level = true;  // exercises the pool-backed level column
      auto expected = StaircaseJoin(*doc, ctx, axis, opt);
      auto got =
          StaircaseVia<CompressedDocAccessor>(*paged, &pool, ctx, axis, opt);
      ASSERT_TRUE(got.ok()) << got.status();
      EXPECT_TRUE(BytesEqual(got.value(), expected.value()))
          << AxisName(axis) << " keep_attributes " << keep_attributes;
      auto zip = StaircaseVia<CompressedDocAccessor>(*compressed, &pool, ctx,
                                                     axis, opt);
      ASSERT_TRUE(zip.ok()) << zip.status();
      EXPECT_TRUE(BytesEqual(zip.value(), expected.value()))
          << "compressed " << AxisName(axis) << " keep_attributes "
          << keep_attributes;
    }
  }
}

TEST(PagedEvaluatorTest, MultiStepPathsMatchMemoryBackend) {
  auto db = Database::FromTable(RandomDocument(13, {.target_nodes = 60000}))
                .value();
  SessionOptions io_opt;
  io_opt.backend = StorageBackend::kPaged;
  SessionOptions zip_opt;
  zip_opt.backend = StorageBackend::kCompressed;
  Session mem = std::move(db->CreateSession()).value();
  Session io = std::move(db->CreateSession(io_opt)).value();
  Session zip = std::move(db->CreateSession(zip_opt)).value();

  const char* queries[] = {
      "/descendant::t0/descendant::t1",
      "/descendant-or-self::node()/ancestor::t2",
      "/descendant::t1/following::t0",
      "/descendant::t3/preceding::node()",
      "/descendant::t0[descendant::t1]/descendant::node()",
  };
  for (const char* q : queries) {
    auto expected = mem.Run(q);
    auto got = io.Run(q);
    auto zipped = zip.Run(q);
    ASSERT_TRUE(expected.ok()) << q << ": " << expected.status();
    ASSERT_TRUE(got.ok()) << q << ": " << got.status();
    ASSERT_TRUE(zipped.ok()) << q << ": " << zipped.status();
    EXPECT_TRUE(BytesEqual(got.value().nodes, expected.value().nodes)) << q;
    EXPECT_TRUE(BytesEqual(zipped.value().nodes, expected.value().nodes))
        << q;
  }
  EXPECT_GT(io.pool()->stats().pins, 0u);  // the pool zip shares
  // EXPLAIN names the compressed path.
  auto r = zip.Run("/descendant::t0/descendant::node()");
  ASSERT_TRUE(r.ok());
  EXPECT_NE(r.value().Explain().find("via compressed staircase join"),
            std::string::npos)
      << r.value().Explain();
}

TEST(PagedEvaluatorTest, ParallelWorkersMatchOverSharedPool) {
  auto db = Database::FromTable(RandomDocument(17, {.target_nodes = 60000}))
                .value();
  SessionOptions io_opt;
  io_opt.backend = StorageBackend::kPaged;
  io_opt.num_threads = 4;
  Session mem = std::move(db->CreateSession()).value();
  Session io = std::move(db->CreateSession(io_opt)).value();
  auto expected = mem.Run("/descendant::t0/descendant::node()");
  auto got = io.Run("/descendant::t0/descendant::node()");
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_TRUE(BytesEqual(got.value().nodes, expected.value().nodes));
}

TEST(DatabaseOpenTest, StalePagedImageRejectedAtOpenTime) {
  // The paged image of a *different* document must be rejected when the
  // database is opened -- with the failing column set named -- not on
  // some session's first paged query.
  auto doc = RandomDocument(9, {.target_nodes = 500});
  auto other = RandomDocument(10, {.target_nodes = 800});
  auto disk = std::make_unique<SimulatedDisk>();
  auto paged_other =
      CompressedDocTable::Create(*other, disk.get(), kRaw).value();
  auto db = Database::FromParts(std::move(doc), nullptr, std::move(disk),
                                std::move(paged_other), nullptr,
                                nullptr, nullptr);
  ASSERT_FALSE(db.ok());
  EXPECT_NE(db.status().ToString().find("post/kind/level/parent/tag"),
            std::string::npos)
      << db.status();

  // Equal node counts are not enough: a chain and a flat tree of the
  // same size have different post columns, caught by the digest check.
  auto chain = sj::LoadDocument("<a><b><c/></b></a>").value();
  auto flat = sj::LoadDocument("<a><b/><c/></a>").value();
  ASSERT_EQ(chain->size(), flat->size());
  auto disk2 = std::make_unique<SimulatedDisk>();
  auto paged_chain =
      CompressedDocTable::Create(*chain, disk2.get(), kRaw).value();
  auto spoofed = Database::FromParts(std::move(flat), nullptr,
                                     std::move(disk2),
                                     std::move(paged_chain), nullptr,
                                     nullptr, nullptr);
  ASSERT_FALSE(spoofed.ok());
  EXPECT_NE(spoofed.status().ToString().find("stale paged image"),
            std::string::npos)
      << spoofed.status();

  // The genuine pairing passes validation and serves paged queries.
  auto chain2 = sj::LoadDocument("<a><b><c/></b></a>").value();
  auto disk3 = std::make_unique<SimulatedDisk>();
  auto paged_chain2 =
      CompressedDocTable::Create(*chain2, disk3.get(), kRaw).value();
  auto genuine = Database::FromParts(std::move(chain2), nullptr,
                                     std::move(disk3),
                                     std::move(paged_chain2), nullptr,
                                     nullptr, nullptr);
  ASSERT_TRUE(genuine.ok()) << genuine.status();
  SessionOptions paged_opt;
  paged_opt.backend = StorageBackend::kPaged;
  auto r = std::move(genuine.value()->CreateSession(paged_opt)).value()
               .Run("/descendant::b");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r.value().nodes.size(), 1u);
}

TEST(DatabaseOpenTest, PagedImageWithoutDiskRejected) {
  auto doc = RandomDocument(9, {.target_nodes = 500});
  auto disk = std::make_unique<SimulatedDisk>();
  auto paged = CompressedDocTable::Create(*doc, disk.get(), kRaw).value();
  // Adopting the paged table while dropping its disk is incoherent.
  auto db = Database::FromParts(std::move(doc), nullptr, nullptr,
                                std::move(paged), nullptr, nullptr, nullptr);
  EXPECT_FALSE(db.ok());
}

TEST(DatabaseOpenTest, ImageInTheOtherLayoutRejected) {
  // A coded image adopted as the paged one (or a raw image as the
  // compressed one) would be served under the wrong backend's label and
  // costs, so the open rejects it.
  auto doc = RandomDocument(9, {.target_nodes = 500});
  auto disk = std::make_unique<SimulatedDisk>();
  auto coded = CompressedDocTable::Create(*doc, disk.get()).value();
  auto db = Database::FromParts(std::move(doc), nullptr, std::move(disk),
                                std::move(coded), nullptr, nullptr, nullptr);
  ASSERT_FALSE(db.ok());
  EXPECT_NE(db.status().ToString().find("wrong column layout"),
            std::string::npos)
      << db.status();

  auto doc2 = RandomDocument(9, {.target_nodes = 500});
  auto disk2 = std::make_unique<SimulatedDisk>();
  auto raw = CompressedDocTable::Create(*doc2, disk2.get(), kRaw).value();
  auto db2 = Database::FromParts(std::move(doc2), nullptr, std::move(disk2),
                                 nullptr, nullptr, std::move(raw), nullptr,
                                 DatabaseOptions{});
  EXPECT_FALSE(db2.ok());
}

TEST(PagedEvaluatorTest, SkippingSavesFaultsOnMultiStepQuery) {
  // The acceptance-criteria experiment in test form: a full location path
  // over the buffer-pool backend faults fewer pages under kEstimated than
  // under kNone. Private per-session pools keep the two runs cold and
  // independent.
  auto doc = RandomDocument(21, {.target_nodes = 60000});
  ASSERT_GT(doc->size(), 20000u);
  auto db = Database::FromTable(std::move(doc)).value();

  auto faults_with = [&](SkipMode mode) {
    SessionOptions opt;
    opt.backend = StorageBackend::kPaged;
    opt.hints.pushdown = PushdownMode::kNever;
    // Step-at-a-time on purpose: this experiment isolates the staircase
    // join's skip machinery; the twig join reads so few doc pages that
    // the two skip modes tie.
    opt.hints.twig = TwigMode::kNever;
    opt.staircase.skip_mode = mode;
    opt.private_pool_pages = 8;
    Session io = std::move(db->CreateSession(opt)).value();
    auto r = io.Run("/descendant::t0/descendant::t1");
    EXPECT_TRUE(r.ok()) << r.status();
    return io.pool()->stats().faults;
  };
  uint64_t faults_none = faults_with(SkipMode::kNone);
  uint64_t faults_est = faults_with(SkipMode::kEstimated);
  EXPECT_LT(faults_est, faults_none);
}

TEST(CompressedEvaluatorTest, FaultsStrictlyFewerPagesThanPagedBackend) {
  // The tentpole acceptance experiment in test form: the SAME query over
  // the SAME document at the SAME page and pool size faults strictly
  // fewer pages on the compressed backend, because the identical scan
  // touches blocks that occupy a fraction of the pages. Cold private
  // pools keep the runs independent.
  auto db = Database::FromTable(RandomDocument(21, {.target_nodes = 60000}))
                .value();
  ASSERT_GT(db->CurrentSnapshot()->logical_size(), 20000u);
  auto faults_with = [&](StorageBackend backend) {
    SessionOptions opt;
    opt.backend = backend;
    opt.hints.pushdown = PushdownMode::kNever;
    opt.private_pool_pages = 64;
    Session s = std::move(db->CreateSession(opt)).value();
    auto r = s.Run("/descendant::t0/descendant::t1");
    EXPECT_TRUE(r.ok()) << r.status();
    return s.pool()->stats().faults;
  };
  uint64_t paged_faults = faults_with(StorageBackend::kPaged);
  uint64_t compressed_faults = faults_with(StorageBackend::kCompressed);
  EXPECT_GT(compressed_faults, 0u);
  EXPECT_LT(compressed_faults, paged_faults);
}

TEST(DatabaseOpenTest, StaleCompressedImageRejectedAtOpenTime) {
  // A compressed image of a *different* document must be rejected when
  // the database is opened, naming the failing column set.
  auto doc = RandomDocument(9, {.target_nodes = 500});
  auto other = RandomDocument(10, {.target_nodes = 800});
  auto disk = std::make_unique<SimulatedDisk>();
  auto compressed_other =
      CompressedDocTable::Create(*other, disk.get()).value();
  DatabaseOptions open;
  open.build_paged = false;
  open.build_compressed = false;
  auto db = Database::FromParts(std::move(doc), nullptr, std::move(disk),
                                nullptr, nullptr,
                                std::move(compressed_other), nullptr, open);
  ASSERT_FALSE(db.ok());
  EXPECT_NE(db.status().ToString().find("stale compressed image"),
            std::string::npos)
      << db.status();
  EXPECT_NE(db.status().ToString().find("post/kind/level/parent/tag"),
            std::string::npos)
      << db.status();
}

TEST(DatabaseOpenTest, BitFlippedCompressedBlockRejectedAtOpenTime) {
  // Digest coverage of the compressed image itself: flip ONE bit inside
  // an encoded post block on disk and the open must fail with a Status
  // naming the damaged column -- the corrupt block is never served.
  auto doc = RandomDocument(9, {.target_nodes = 5000});
  auto disk = std::make_unique<SimulatedDisk>();
  auto compressed = CompressedDocTable::Create(*doc, disk.get()).value();
  const CompressedBlockRef& block = compressed->post().blocks.front();
  Page page;
  ASSERT_TRUE(disk->Read(block.page, &page).ok());
  page.bytes[block.offset + encoding::kBlockHeaderBytes] ^= 0x04;
  ASSERT_TRUE(disk->Write(block.page, page).ok());

  DatabaseOptions open;
  open.build_paged = false;
  open.build_compressed = false;
  auto db = Database::FromParts(std::move(doc), nullptr, std::move(disk),
                                nullptr, nullptr, std::move(compressed),
                                nullptr, open);
  ASSERT_FALSE(db.ok());
  EXPECT_NE(db.status().ToString().find("corrupt compressed image"),
            std::string::npos)
      << db.status();
  EXPECT_NE(db.status().ToString().find("post column"), std::string::npos)
      << db.status();

  // The undamaged pairing passes validation and serves compressed
  // queries.
  auto doc2 = RandomDocument(9, {.target_nodes = 5000});
  auto disk2 = std::make_unique<SimulatedDisk>();
  auto compressed2 = CompressedDocTable::Create(*doc2, disk2.get()).value();
  auto tags2 = CompressedTagIndex::Create(*doc2, disk2.get()).value();
  auto genuine = Database::FromParts(std::move(doc2), nullptr,
                                     std::move(disk2), nullptr, nullptr,
                                     std::move(compressed2), std::move(tags2),
                                     open);
  ASSERT_TRUE(genuine.ok()) << genuine.status();
  EXPECT_FALSE(genuine.value()->has_paged_backend());
  SessionOptions opt;
  opt.backend = StorageBackend::kCompressed;
  auto r = std::move(genuine.value()->CreateSession(opt)).value()
               .Run("/descendant::t0");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_GT(r.value().nodes.size(), 0u);
}

TEST(DatabaseOpenTest, CompressedImageWithoutDiskRejected) {
  auto doc = RandomDocument(9, {.target_nodes = 500});
  auto disk = std::make_unique<SimulatedDisk>();
  auto compressed = CompressedDocTable::Create(*doc, disk.get()).value();
  DatabaseOptions open;
  open.build_paged = false;
  open.build_compressed = false;
  // Adopting the compressed table while dropping its disk is incoherent.
  auto db = Database::FromParts(std::move(doc), nullptr, nullptr, nullptr,
                                nullptr, std::move(compressed), nullptr,
                                open);
  EXPECT_FALSE(db.ok());
}

TEST(DatabaseOpenTest, SessionWithoutCompressedImageRejected) {
  DatabaseOptions open;
  open.build_compressed = false;
  auto db = Database::FromTable(RandomDocument(9, {.target_nodes = 500}),
                                open)
                .value();
  SessionOptions opt;
  opt.backend = StorageBackend::kCompressed;
  auto session = db->CreateSession(opt);
  ASSERT_FALSE(session.ok());
  EXPECT_NE(session.status().ToString().find("build_compressed"),
            std::string::npos)
      << session.status();
}

}  // namespace
}  // namespace sj::storage
