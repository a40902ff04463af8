// Backend equivalence for the set-at-a-time axis cursors: the ONE set of
// non-staircase axis kernels (core/axis_impl.h), instantiated with the
// in-memory cursor and with the buffer-pool cursor, must return
// byte-identical duplicate-free document-order sequences for every
// cursor axis -- matching both the per-context naive baseline and the
// region-definition oracle -- and the paged instantiation must charge
// its parent/tag/kind reads to the BufferPool. Also drives whole queries
// that mix staircase and non-staircase steps end-to-end on the paged
// backend through the Database/Session facade.

#include <gtest/gtest.h>

#include <cstring>

#include "api/database.h"
#include "baselines/naive.h"
#include "bat/operators.h"
#include "core/axis_impl.h"
#include "core/axis_step.h"
#include "storage/compressed_accessor.h"
#include "storage/compressed_doc.h"
#include "test_util.h"
#include "util/rng.h"

namespace sj::storage {
namespace {

using sj::testing::LoadPaperExample;
using sj::testing::RandomContext;
using sj::testing::RandomDocOptions;
using sj::testing::RandomDocument;
using sj::testing::RegionOracle;

constexpr ColumnLayout kRaw = ColumnLayout::kRaw;

constexpr Axis kCursorAxes[] = {
    Axis::kChild,          Axis::kParent,           Axis::kAttribute,
    Axis::kFollowingSibling, Axis::kPrecedingSibling, Axis::kSelf,
};

bool BytesEqual(const NodeSequence& a, const NodeSequence& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(NodeId)) == 0);
}

/// The generic axis kernels over a fresh `Acc` on `table` and `pool` (its
/// pages are unpinned on return, as between two query steps).
template <typename Acc, typename Table>
Result<NodeSequence> AxisStepVia(const Table& table, BufferPool* pool,
                                 const NodeSequence& ctx, Axis axis,
                                 const AxisNodeTest& test = {},
                                 JoinStats* stats = nullptr) {
  Acc acc(table, pool);
  return internal::AxisStepOver(acc, ctx, axis, test, stats);
}

/// Context union its ancestor closure: nested context nodes are the
/// stress case of the frame-merge kernels (sibling regions interleave).
NodeSequence WithAncestors(const DocTable& doc, const NodeSequence& ctx) {
  NodeSequence all = ctx;
  for (NodeId c : ctx) {
    for (NodeId p = doc.parent(c); p != kNilNode; p = doc.parent(p)) {
      all.push_back(p);
    }
  }
  return bat::SortUnique(std::move(all));
}

/// Independent filter oracle for the folded node test.
NodeSequence FilterOracle(const DocTable& doc, const NodeSequence& nodes,
                          const AxisNodeTest& test) {
  if (test.accept_all) return nodes;
  NodeSequence out;
  for (NodeId v : nodes) {
    if (static_cast<uint8_t>(doc.kind(v)) != test.kind) continue;
    if (test.match_tag && doc.tag(v) != test.tag) continue;
    out.push_back(v);
  }
  return out;
}

TEST(AxisCursorTest, MatchesBothOraclesOnPaperExample) {
  auto doc = LoadPaperExample();
  const NodeSequence contexts[] = {
      {0}, {0, 1, 2}, {1, 4}, {2, 6, 9}, {0, 4, 5, 8},
      {0, 1, 2, 3, 4, 5, 6, 7, 8, 9},
  };
  for (const NodeSequence& ctx : contexts) {
    for (Axis axis : kCursorAxes) {
      JoinStats stats;
      auto got = AxisCursorStep(*doc, ctx, axis, {}, &stats);
      ASSERT_TRUE(got.ok()) << AxisName(axis) << ": " << got.status();
      auto naive = NaiveAxisStep(*doc, ctx, axis);
      ASSERT_TRUE(naive.ok());
      EXPECT_TRUE(BytesEqual(got.value(), naive.value()))
          << AxisName(axis) << " ctx size " << ctx.size();
      EXPECT_TRUE(BytesEqual(got.value(), RegionOracle(*doc, ctx, axis)))
          << AxisName(axis);
      EXPECT_TRUE(IsDocumentOrder(got.value())) << AxisName(axis);
      EXPECT_EQ(stats.result_size, got.value().size());
    }
  }
}

/// Axis x tree shape x context pattern x backend: the satellite matrix.
/// Tree shapes vary fanout/attribute/text density; context patterns are
/// sparse, dense, and ancestor-closed (nested); both backends must be
/// byte-identical to each other and to the two independent oracles.
class AxisBackendEquivalenceTest : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(AxisBackendEquivalenceTest, CursorStepsAreByteIdenticalAcrossBackends) {
  const uint64_t seed = GetParam();
  const RandomDocOptions shapes[] = {
      {.target_nodes = 20000},                       // default mixed tree
      {.target_nodes = 20000, .max_children = 12},   // wide
      {.target_nodes = 20000, .attribute_percent = 60, .text_percent = 10},
  };  // the deep shape is deterministic: see DeepChainsStressTheFrameMerge
  size_t exercised = 0;
  for (size_t shape = 0; shape < std::size(shapes); ++shape) {
    auto doc = RandomDocument(seed, shapes[shape]);
    // The generator's top-level fanout is seed-sensitive; a degenerate
    // tree exercises nothing, so skip it (coverage asserted below).
    if (doc->size() < 500) continue;
    ++exercised;
    SimulatedDisk disk;
    auto paged = CompressedDocTable::Create(*doc, &disk, kRaw).value();
    auto compressed = CompressedDocTable::Create(*doc, &disk).value();
    BufferPool pool(&disk, 16);
    Rng rng(seed * 131 + shape);
    NodeSequence sparse = RandomContext(rng, *doc, 2);
    NodeSequence dense = RandomContext(rng, *doc, 25);
    NodeSequence nested = WithAncestors(*doc, sparse);
    for (const NodeSequence* ctx : {&sparse, &dense, &nested}) {
      if (ctx->empty()) continue;
      for (Axis axis : kCursorAxes) {
        JoinStats mem_stats, io_stats, zip_stats;
        auto expected = AxisCursorStep(*doc, *ctx, axis, {}, &mem_stats);
        ASSERT_TRUE(expected.ok()) << expected.status();
        auto got = AxisStepVia<CompressedDocAccessor>(*paged, &pool, *ctx,
                                                      axis, {}, &io_stats);
        ASSERT_TRUE(got.ok()) << got.status();
        EXPECT_TRUE(BytesEqual(got.value(), expected.value()))
            << AxisName(axis) << " seed " << seed << " shape " << shape;
        auto zip = AxisStepVia<CompressedDocAccessor>(
            *compressed, &pool, *ctx, axis, {}, &zip_stats);
        ASSERT_TRUE(zip.ok()) << zip.status();
        EXPECT_TRUE(BytesEqual(zip.value(), expected.value()))
            << "compressed " << AxisName(axis) << " seed " << seed
            << " shape " << shape;
        // The unified kernels touch the same nodes on every backend.
        EXPECT_EQ(io_stats.nodes_scanned, mem_stats.nodes_scanned);
        EXPECT_EQ(io_stats.nodes_skipped, mem_stats.nodes_skipped);
        EXPECT_EQ(io_stats.pruned_context_size,
                  mem_stats.pruned_context_size);
        EXPECT_EQ(zip_stats.nodes_scanned, mem_stats.nodes_scanned);
        EXPECT_EQ(zip_stats.nodes_skipped, mem_stats.nodes_skipped);
        EXPECT_EQ(zip_stats.pruned_context_size,
                  mem_stats.pruned_context_size);
        // And both agree with the two independent oracles.
        auto naive = NaiveAxisStep(*doc, *ctx, axis);
        ASSERT_TRUE(naive.ok());
        EXPECT_TRUE(BytesEqual(expected.value(), naive.value()))
            << AxisName(axis) << " seed " << seed << " shape " << shape;
        EXPECT_TRUE(
            BytesEqual(expected.value(), RegionOracle(*doc, *ctx, axis)))
            << AxisName(axis) << " seed " << seed << " shape " << shape;
        EXPECT_TRUE(IsDocumentOrder(expected.value())) << AxisName(axis);
      }
    }
  }
  EXPECT_GE(exercised, 2u) << "seed " << seed << " produced only "
                           << "degenerate trees";
}

INSTANTIATE_TEST_SUITE_P(Seeds, AxisBackendEquivalenceTest,
                         ::testing::Values(5, 7, 17, 21, 37));

TEST(AxisCursorTest, DeepChainsStressTheFrameMerge) {
  // A deterministic deep tree: a 120-deep chain (the level column is a
  // uint8, bounding document height) where every chain node also has a
  // leaf sibling pair: sibling regions nest 120 deep, the worst case for
  // the frame-merge stack.
  std::string xml;
  const int depth = 120;
  for (int i = 0; i < depth; ++i) xml += "<d><l/>";
  xml += "<x/>";
  for (int i = 0; i < depth; ++i) xml += "<r/></d>";
  auto doc = LoadDocument(xml).value();
  ASSERT_GT(doc->size(), 2u * static_cast<unsigned>(depth));
  SimulatedDisk disk;
  auto paged = CompressedDocTable::Create(*doc, &disk, kRaw).value();
  BufferPool pool(&disk, 8);
  // Context: every chain node plus every third leaf (ancestor-nested by
  // construction).
  NodeSequence ctx;
  for (NodeId v = 0; v < doc->size(); v += (v % 3 == 0 ? 1 : 2)) {
    ctx.push_back(v);
  }
  ctx = bat::SortUnique(std::move(ctx));
  auto compressed = CompressedDocTable::Create(*doc, &disk).value();
  for (Axis axis : kCursorAxes) {
    auto expected = NaiveAxisStep(*doc, ctx, axis);
    ASSERT_TRUE(expected.ok());
    auto mem = AxisCursorStep(*doc, ctx, axis);
    ASSERT_TRUE(mem.ok()) << mem.status();
    auto io = AxisStepVia<CompressedDocAccessor>(*paged, &pool, ctx, axis);
    ASSERT_TRUE(io.ok()) << io.status();
    auto zip =
        AxisStepVia<CompressedDocAccessor>(*compressed, &pool, ctx, axis);
    ASSERT_TRUE(zip.ok()) << zip.status();
    EXPECT_TRUE(BytesEqual(mem.value(), expected.value())) << AxisName(axis);
    EXPECT_TRUE(BytesEqual(io.value(), expected.value())) << AxisName(axis);
    EXPECT_TRUE(BytesEqual(zip.value(), expected.value())) << AxisName(axis);
    EXPECT_TRUE(BytesEqual(mem.value(), RegionOracle(*doc, ctx, axis)))
        << AxisName(axis);
  }
}

TEST(AxisCursorTest, FoldedNodeTestMatchesPostFiltering) {
  auto doc = RandomDocument(19, {.target_nodes = 6000,
                                 .attribute_percent = 40});
  Rng rng(7);
  NodeSequence ctx = RandomContext(rng, *doc, 20);
  ASSERT_FALSE(ctx.empty());
  std::optional<TagId> t1 = doc->tags().Lookup("t1");
  ASSERT_TRUE(t1.has_value());
  const AxisNodeTest tests[] = {
      AxisNodeTest{},
      AxisNodeTest::OfKind(NodeKind::kElement),
      AxisNodeTest::OfKind(NodeKind::kText),
      AxisNodeTest::OfKindAndTag(NodeKind::kElement, *t1),
      AxisNodeTest::OfKindAndTag(NodeKind::kAttribute, *t1),
  };
  for (Axis axis : kCursorAxes) {
    for (const AxisNodeTest& test : tests) {
      auto got = AxisCursorStep(*doc, ctx, axis, test);
      ASSERT_TRUE(got.ok()) << got.status();
      auto raw = NaiveAxisStep(*doc, ctx, axis);
      ASSERT_TRUE(raw.ok());
      EXPECT_TRUE(
          BytesEqual(got.value(), FilterOracle(*doc, raw.value(), test)))
          << AxisName(axis);
    }
  }
}

TEST(AxisCursorTest, StatsKeepNaiveParityAndAvoidDuplicates) {
  auto doc = RandomDocument(9, {.target_nodes = 8000});
  Rng rng(3);
  // A dense context maximizes same-parent overlap: the naive plan pays
  // duplicate elimination, the cursor kernels never produce duplicates.
  NodeSequence ctx = RandomContext(rng, *doc, 40);
  bool saw_sibling_duplicates = false;
  for (Axis axis : kCursorAxes) {
    JoinStats cursor, naive;
    auto got = AxisCursorStep(*doc, ctx, axis, {}, &cursor);
    auto base = NaiveAxisStep(*doc, ctx, axis, &naive);
    ASSERT_TRUE(got.ok() && base.ok()) << AxisName(axis);
    EXPECT_EQ(cursor.result_size, naive.result_size) << AxisName(axis);
    EXPECT_EQ(cursor.context_size, naive.context_size) << AxisName(axis);
    EXPECT_TRUE(IsDocumentOrder(got.value())) << AxisName(axis);
    // Covered-context pruning never scans more partitions than context
    // nodes.
    EXPECT_LE(cursor.pruned_context_size, cursor.context_size)
        << AxisName(axis);
    if ((axis == Axis::kFollowingSibling ||
         axis == Axis::kPrecedingSibling) &&
        naive.duplicates_removed > 0) {
      saw_sibling_duplicates = true;
    }
  }
  // The experiment is only meaningful if the naive plan actually paid
  // for duplicates somewhere.
  EXPECT_TRUE(saw_sibling_duplicates);
}

TEST(PagedAxisCursorTest, ColdPoolStepsChargeFaults) {
  auto doc = RandomDocument(7, {.target_nodes = 30000,
                                .attribute_percent = 40});
  ASSERT_GT(doc->size(), 10000u);
  SimulatedDisk disk;
  auto paged = CompressedDocTable::Create(*doc, &disk, kRaw).value();
  Rng rng(9);
  NodeSequence ctx = RandomContext(rng, *doc, 10);
  std::optional<TagId> t0 = doc->tags().Lookup("t0");
  ASSERT_TRUE(t0.has_value());
  for (Axis axis : kCursorAxes) {
    BufferPool pool(&disk, 16);
    // self with node() touches no column at all; fold a name test so
    // even that step must read kind/tag through the pool.
    AxisNodeTest test = AxisNodeTest::OfKindAndTag(
        axis == Axis::kAttribute ? NodeKind::kAttribute : NodeKind::kElement,
        *t0);
    auto r =
        AxisStepVia<CompressedDocAccessor>(*paged, &pool, ctx, axis, test);
    ASSERT_TRUE(r.ok()) << AxisName(axis) << ": " << r.status();
    EXPECT_GT(pool.stats().faults, 0u)
        << AxisName(axis) << " read no pages on a cold pool";
  }
}

TEST(CompressedAxisCursorTest, ColdPoolStepsChargeFaultsButFewerThanPaged) {
  auto doc = RandomDocument(7, {.target_nodes = 30000,
                                .attribute_percent = 40});
  ASSERT_GT(doc->size(), 10000u);
  SimulatedDisk disk;
  auto paged = CompressedDocTable::Create(*doc, &disk, kRaw).value();
  auto compressed = CompressedDocTable::Create(*doc, &disk).value();
  Rng rng(9);
  NodeSequence ctx = RandomContext(rng, *doc, 10);
  std::optional<TagId> t0 = doc->tags().Lookup("t0");
  ASSERT_TRUE(t0.has_value());
  for (Axis axis : kCursorAxes) {
    AxisNodeTest test = AxisNodeTest::OfKindAndTag(
        axis == Axis::kAttribute ? NodeKind::kAttribute : NodeKind::kElement,
        *t0);
    BufferPool paged_pool(&disk, 16);
    auto r = AxisStepVia<CompressedDocAccessor>(*paged, &paged_pool, ctx,
                                                axis, test);
    ASSERT_TRUE(r.ok()) << AxisName(axis) << ": " << r.status();
    BufferPool zip_pool(&disk, 16);
    auto z = AxisStepVia<CompressedDocAccessor>(*compressed, &zip_pool, ctx,
                                                axis, test);
    ASSERT_TRUE(z.ok()) << AxisName(axis) << ": " << z.status();
    // Every step charges the pool -- and the compressed image never
    // needs more pages than the uncompressed one for the same reads.
    EXPECT_GT(zip_pool.stats().faults, 0u)
        << AxisName(axis) << " read no pages on a cold pool";
    EXPECT_LE(zip_pool.stats().faults, paged_pool.stats().faults)
        << AxisName(axis);
  }
}

TEST(PagedAxisCursorTest, SurfacesPoolExhaustion) {
  auto doc = RandomDocument(33, {.target_nodes = 500});
  SimulatedDisk disk;
  auto paged = CompressedDocTable::Create(*doc, &disk, kRaw).value();
  BufferPool pool(&disk, 1);
  ASSERT_TRUE(pool.Pin(paged->kind().pages.front()).ok());  // starve the cursor
  auto r =
      AxisStepVia<CompressedDocAccessor>(*paged, &pool, {0}, Axis::kChild);
  EXPECT_FALSE(r.ok());
  ASSERT_TRUE(pool.Unpin(paged->kind().pages.front()).ok());
}

TEST(PagedAxisCursorTest, TerminatesOnMidScanPoolExhaustion) {
  // The error contract: a failed backend returns 0 from every read and
  // the kernels must still terminate (the driver surfaces the sticky
  // status once). Pool of 3: the frame build holds post+level, the
  // merge scan pins kind, and the folded name test's tag pin is the
  // fourth -- it fails mid-scan, so subtree ends read as 0 and the
  // frame cursor must clamp forward instead of spinning.
  auto doc = LoadDocument("<a><b/><b/><b/><b/><b/><b/></a>").value();
  SimulatedDisk disk;
  auto paged = CompressedDocTable::Create(*doc, &disk, kRaw).value();
  BufferPool pool(&disk, 3);
  std::optional<TagId> b = doc->tags().Lookup("b");
  ASSERT_TRUE(b.has_value());
  auto r = AxisStepVia<CompressedDocAccessor>(
      *paged, &pool, {0}, Axis::kChild,
      AxisNodeTest::OfKindAndTag(NodeKind::kElement, *b));
  EXPECT_FALSE(r.ok());
}

TEST(PagedAxisCursorTest, StaleTagColumnPagesAreRejected) {
  // Identical structure (post/kind/level/parent), different tag column:
  // the extended DocColumnsDigest must tell the images apart, so a
  // paged table built from the wrong document is rejected when the
  // database adopts it (Database::FromParts) instead of silently serving
  // stale tag pages to the folded node tests.
  auto doc_b = LoadDocument("<a><b/><b/></a>").value();
  auto doc_c = LoadDocument("<a><c/><b/></a>").value();
  ASSERT_NE(DocColumnsDigest(*doc_b), DocColumnsDigest(*doc_c));
  auto disk = std::make_unique<SimulatedDisk>();
  auto paged_wrong =
      CompressedDocTable::Create(*doc_c, disk.get(), kRaw).value();
  auto spoofed = Database::FromParts(std::move(doc_b), nullptr,
                                     std::move(disk),
                                     std::move(paged_wrong), nullptr);
  EXPECT_FALSE(spoofed.ok());

  auto doc_b2 = LoadDocument("<a><b/><b/></a>").value();
  auto disk2 = std::make_unique<SimulatedDisk>();
  auto paged_right =
      CompressedDocTable::Create(*doc_b2, disk2.get(), kRaw).value();
  auto genuine = Database::FromParts(std::move(doc_b2), nullptr,
                                     std::move(disk2),
                                     std::move(paged_right), nullptr);
  ASSERT_TRUE(genuine.ok()) << genuine.status();
  SessionOptions paged_opt;
  paged_opt.backend = StorageBackend::kPaged;
  auto r = std::move(genuine.value()->CreateSession(paged_opt)).value()
               .Run("/child::b");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r.value().nodes.size(), 2u);
}

TEST(PagedEvaluatorAxisTest, MixedAxisQueriesMatchMemoryAndChargeThePool) {
  auto db = Database::FromTable(RandomDocument(7, {.target_nodes = 60000,
                                                   .attribute_percent = 30}))
                .value();
  ASSERT_GT(db->doc().size(), 10000u);
  SessionOptions io_opt;
  io_opt.backend = StorageBackend::kPaged;
  io_opt.hints.pushdown = PushdownMode::kNever;  // faults come from the doc scan
  // This test pins the per-step axis-cursor paths; eligible name-test
  // runs would otherwise collapse into the twig join
  // (twig_join_test.cc covers that plan shape).
  io_opt.hints.twig = TwigMode::kNever;
  SessionOptions zip_opt = io_opt;
  zip_opt.backend = StorageBackend::kCompressed;
  Session mem = std::move(db->CreateSession()).value();
  Session io = std::move(db->CreateSession(io_opt)).value();
  Session zip = std::move(db->CreateSession(zip_opt)).value();
  storage::BufferPool* pool = db->buffer_pool();

  const char* queries[] = {
      "/descendant::t0/child::t1",
      "/descendant::t0/child::node()/parent::t0",
      "/descendant::t1/following-sibling::node()",
      "/descendant::t2/preceding-sibling::t1",
      "/descendant::t0/attribute::node()",
      "/descendant::t0/child::t1/descendant::t2",
      "/child::node()/child::node()/self::t1",
  };
  for (const char* q : queries) {
    auto expected = mem.Run(q);
    pool->FlushAll();
    pool->ResetStats();
    auto got = io.Run(q);
    ASSERT_TRUE(expected.ok()) << q << ": " << expected.status();
    ASSERT_TRUE(got.ok()) << q << ": " << got.status();
    EXPECT_TRUE(BytesEqual(got.value().nodes, expected.value().nodes)) << q;
    // Every step reads through the pool: a cold pool must fault for the
    // staircase steps AND the axis-cursor steps.
    EXPECT_GT(pool->stats().faults, 0u) << q;
    // No step of a staircase-engine plan runs per-context anymore.
    EXPECT_EQ(got.value().Explain().find("per-context"), std::string::npos)
        << got.value().Explain();
    // The compressed backend runs the same plan over compressed blocks.
    pool->FlushAll();
    pool->ResetStats();
    auto zipped = zip.Run(q);
    ASSERT_TRUE(zipped.ok()) << q << ": " << zipped.status();
    EXPECT_TRUE(BytesEqual(zipped.value().nodes, expected.value().nodes))
        << q;
    EXPECT_GT(pool->stats().faults, 0u) << q;
  }
  // EXPLAIN names the new paths.
  auto r = io.Run("/descendant::t0/child::t1");
  ASSERT_TRUE(r.ok());
  EXPECT_NE(r.value().Explain().find("via paged child-axis cursor join"),
            std::string::npos)
      << r.value().Explain();
  auto rz = zip.Run("/descendant::t0/child::t1");
  ASSERT_TRUE(rz.ok());
  EXPECT_NE(rz.value().Explain().find("via compressed child-axis cursor join"),
            std::string::npos)
      << rz.value().Explain();
}

TEST(EvaluatorTraceTest, ShortCircuitedStepsStayInExplain) {
  DatabaseOptions open;
  open.build_paged = false;
  auto db = Database::FromTable(LoadPaperExample(), open).value();
  // Short-circuit tracing is a step-at-a-time behavior; under kAuto the
  // all-child query below would collapse into one twig join instead.
  SessionOptions opt;
  opt.hints.twig = TwigMode::kNever;
  Session session = std::move(db->CreateSession(opt)).value();
  // b(c) has no grandchildren: step 3 runs on an empty context and step
  // 4 onwards must still be listed.
  auto r = session.Run("/child::b/child::c/child::c/child::c");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.value().nodes.empty());
  const QueryResult& result = r.value();
  ASSERT_EQ(result.trace.size(), 4u) << result.Explain();
  EXPECT_NE(result.trace[3].description.find("short-circuited"),
            std::string::npos)
      << result.Explain();
  EXPECT_NE(result.Explain().find("step 4"), std::string::npos);
}

TEST(EvaluatorTraceTest, PositionalStepsRunSetAtATimeOnPagedBackend) {
  auto db = Database::FromTable(LoadPaperExample()).value();
  SessionOptions io_opt;
  io_opt.backend = StorageBackend::kPaged;
  Session io = std::move(db->CreateSession(io_opt)).value();
  auto r = io.Run("/child::e/child::f[1]");
  ASSERT_TRUE(r.ok());
  const std::string explain = r.value().Explain();
  // The positional rank join reads through the pool like every other
  // operator: no per-context evaluation, no memory-resident bypass.
  EXPECT_NE(explain.find("positional rank join"), std::string::npos)
      << explain;
  EXPECT_NE(explain.find("(buffer pool)"), std::string::npos) << explain;
  EXPECT_EQ(explain.find("bypasses buffer pool"), std::string::npos)
      << explain;
  EXPECT_EQ(explain.find("per-context evaluation"), std::string::npos)
      << explain;

  // And a cold pool actually faults for it.
  storage::BufferPool* pool = db->buffer_pool();
  pool->FlushAll();
  pool->ResetStats();
  auto rf = io.Run("/child::e/child::f[1]");
  ASSERT_TRUE(rf.ok());
  EXPECT_GT(pool->stats().faults, 0u) << rf.value().Explain();

  Session mem = std::move(db->CreateSession()).value();
  auto rm = mem.Run("/child::e/child::f[1]");
  ASSERT_TRUE(rm.ok());
  EXPECT_NE(rm.value().Explain().find("positional rank join"),
            std::string::npos)
      << rm.value().Explain();
  EXPECT_EQ(rm.value().Explain().find("bypasses buffer pool"),
            std::string::npos)
      << rm.value().Explain();
  // Node-identical across backends.
  EXPECT_EQ(rm.value().nodes, r.value().nodes);
}

}  // namespace
}  // namespace sj::storage
