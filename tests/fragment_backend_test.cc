// Backend equivalence for the unified *fragment* staircase join: the ONE
// set of Section 4.4 pushdown drivers (core/fragment_impl.h),
// instantiated with the in-memory TagView cursor and with the
// buffer-pool fragment cursor, must return byte-identical NodeSequences
// -- equal to FilterByTest(StaircaseJoin(...)) -- for every staircase
// axis x skip mode x random tree shape, with JoinStats meaning the same
// thing as the kernels.h stats. Also drives the paged name-test pushdown
// end-to-end through the Database/Session facade: faults are charged to
// the pool, EXPLAIN names the paged fragment path, and digest mismatches
// are rejected when the database is opened.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "api/database.h"
#include "core/fragment_cursor.h"
#include "core/fragment_impl.h"
#include "core/staircase_join.h"
#include "core/tag_view.h"
#include "encoding/loader.h"
#include "storage/compressed_tags.h"
#include "test_util.h"
#include "util/rng.h"

namespace sj::storage {
namespace {

using sj::testing::RandomContext;
using sj::testing::RandomDocument;

constexpr ColumnLayout kRaw = ColumnLayout::kRaw;

constexpr Axis kStaircaseAxes[] = {
    Axis::kDescendant, Axis::kDescendantOrSelf, Axis::kAncestor,
    Axis::kAncestorOrSelf, Axis::kFollowing, Axis::kPreceding,
};
constexpr SkipMode kSkipModes[] = {SkipMode::kNone, SkipMode::kSkip,
                                   SkipMode::kEstimated};

bool BytesEqual(const NodeSequence& a, const NodeSequence& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(NodeId)) == 0);
}

/// The generic fragment join over fresh cursors: `Cursor` over `tag`'s
/// fragment of `tags`, `Acc` over `doc`, both charged to `pool` (their
/// pages are unpinned on return, as between two query steps).
template <typename Cursor, typename Acc, typename Tags, typename Table>
Result<NodeSequence> PushdownVia(const Tags& tags, TagId tag,
                                 const Table& doc, BufferPool* pool,
                                 const NodeSequence& ctx, Axis axis,
                                 const StaircaseOptions& opt = {},
                                 JoinStats* stats = nullptr) {
  Cursor frag(tags.fragment(tag), pool);
  Acc acc(doc, pool);
  return internal::FragmentStaircaseJoinOver(frag, acc, ctx, axis, opt,
                                             stats);
}

bool StatsEqual(const JoinStats& a, const JoinStats& b) {
  return a.context_size == b.context_size &&
         a.pruned_context_size == b.pruned_context_size &&
         a.nodes_scanned == b.nodes_scanned &&
         a.nodes_copied == b.nodes_copied &&
         a.nodes_skipped == b.nodes_skipped && a.result_size == b.result_size;
}

/// The pushdown-equivalence oracle: join over the document, filter the
/// name test afterwards (elements of `tag` only).
NodeSequence JoinThenFilter(const DocTable& doc, const NodeSequence& ctx,
                            Axis axis, TagId tag, const StaircaseOptions& opt) {
  NodeSequence joined = StaircaseJoin(doc, ctx, axis, opt).value();
  NodeSequence out;
  for (NodeId v : joined) {
    if (doc.kind(v) == NodeKind::kElement && doc.tag(v) == tag) {
      out.push_back(v);
    }
  }
  return out;
}

/// A context guaranteed to contain fragment members (so the -or-self
/// axes exercise matching selves), mixed with other random nodes.
NodeSequence SelfMatchingContext(Rng& rng, const DocTable& doc,
                                 const TagView& view) {
  NodeSequence ctx = RandomContext(rng, doc, 10);
  for (size_t i = 0; i < view.size(); i += 3) {
    ctx.push_back(view.pre[i]);
  }
  std::sort(ctx.begin(), ctx.end());
  ctx.erase(std::unique(ctx.begin(), ctx.end()), ctx.end());
  return ctx;
}

class FragmentBackendTest : public ::testing::TestWithParam<uint64_t> {};

/// One document's images on every backend -- the resident TagIndex, the
/// paged and the compressed document and fragment images -- behind one
/// small pool.
struct BackendImages {
  explicit BackendImages(const DocTable& d)
      : doc(d),
        index(d),
        paged_doc(CompressedDocTable::Create(d, &disk, kRaw).value()),
        paged_tags(CompressedTagIndex::Create(d, &disk, kRaw).value()),
        compressed_doc(CompressedDocTable::Create(d, &disk).value()),
        compressed_tags(CompressedTagIndex::Create(d, &disk).value()) {}

  const DocTable& doc;
  TagIndex index;
  SimulatedDisk disk;
  std::unique_ptr<CompressedDocTable> paged_doc;
  std::unique_ptr<CompressedTagIndex> paged_tags;
  std::unique_ptr<CompressedDocTable> compressed_doc;
  std::unique_ptr<CompressedTagIndex> compressed_tags;
  BufferPool pool{&disk, 16};
};

/// The fragment join of `tag` on the memory, paged and compressed
/// cursors. The three must agree byte for byte and in JoinStats; `out`
/// and `stats` receive the memory backend's result.
void JoinOnEveryBackend(BackendImages& im, TagId tag, const NodeSequence& ctx,
                        Axis axis, const StaircaseOptions& opt,
                        const std::string& where, NodeSequence* out,
                        JoinStats* stats) {
  JoinStats io_stats, zip_stats;
  auto mem = StaircaseJoinView(im.doc, im.index.view(tag), ctx, axis, opt,
                               stats);
  ASSERT_TRUE(mem.ok()) << mem.status();
  auto io = PushdownVia<CompressedFragmentCursor, CompressedDocAccessor>(
      *im.paged_tags, tag, *im.paged_doc, &im.pool, ctx, axis, opt,
      &io_stats);
  ASSERT_TRUE(io.ok()) << io.status();
  auto zip = PushdownVia<CompressedFragmentCursor, CompressedDocAccessor>(
      *im.compressed_tags, tag, *im.compressed_doc, &im.pool, ctx, axis, opt,
      &zip_stats);
  ASSERT_TRUE(zip.ok()) << zip.status();
  EXPECT_TRUE(BytesEqual(io.value(), mem.value())) << "paged " << where;
  EXPECT_TRUE(StatsEqual(io_stats, *stats)) << "paged " << where;
  EXPECT_TRUE(BytesEqual(zip.value(), mem.value())) << "compressed " << where;
  EXPECT_TRUE(StatsEqual(zip_stats, *stats)) << "compressed " << where;
  *out = std::move(mem).value();
}

/// The satellite acceptance matrix: both fragment backends equal the
/// join-then-filter oracle for every staircase axis x skip mode on
/// randomized mixed-kind trees, with byte-identical results, identical
/// JoinStats between the backends, and kernels-consistent stats
/// semantics (scanned = compared, copied = appended without comparison,
/// skipped = never touched; kNone touches everything it looks at).
TEST_P(FragmentBackendTest, BothBackendsEqualJoinThenFilter) {
  const uint64_t seed = GetParam();
  auto doc = RandomDocument(seed, {.target_nodes = 20000,
                                   .attribute_percent = 30});
  ASSERT_GT(doc->size(), 500u) << "degenerate random doc for seed " << seed;
  BackendImages im(*doc);
  Rng rng(seed * 17 + 3);

  // t0/t3: populated fragments; a0: attribute-only tag (empty fragment);
  // 999999: never-interned tag id (empty fragment).
  std::vector<TagId> tags;
  for (const char* name : {"t0", "t3", "a0"}) {
    std::optional<TagId> tag = doc->tags().Lookup(name);
    if (tag.has_value()) tags.push_back(*tag);
  }
  tags.push_back(999999);

  for (TagId tag : tags) {
    const TagView& view = im.index.view(tag);
    NodeSequence contexts[] = {RandomContext(rng, *doc, 5),
                               RandomContext(rng, *doc, 30),
                               SelfMatchingContext(rng, *doc, view)};
    for (const NodeSequence& ctx : contexts) {
      for (Axis axis : kStaircaseAxes) {
        for (SkipMode mode : kSkipModes) {
          StaircaseOptions opt;
          opt.skip_mode = mode;
          const std::string where =
              std::string(AxisName(axis)) + " mode " +
              std::to_string(static_cast<int>(mode)) + " tag " +
              std::to_string(tag) + " seed " + std::to_string(seed);
          NodeSequence mem;
          JoinStats mem_stats;
          ASSERT_NO_FATAL_FAILURE(JoinOnEveryBackend(
              im, tag, ctx, axis, opt, where, &mem, &mem_stats));
          EXPECT_EQ(mem, JoinThenFilter(*doc, ctx, axis, tag, opt)) << where;

          // Kernels-consistent stats semantics, fragment slots being the
          // unit: every slot is scanned, copied, or skipped at most once.
          EXPECT_LE(mem_stats.nodes_scanned + mem_stats.nodes_copied +
                        mem_stats.nodes_skipped,
                    view.size())
              << where;
          if (mode == SkipMode::kNone) {
            EXPECT_EQ(mem_stats.nodes_copied, 0u);
            EXPECT_EQ(mem_stats.nodes_skipped, 0u);
          }
        }
      }
    }
  }
}

/// Slots the fragment joins test one by one before they fall back to a
/// binary search when seeking forward.
constexpr size_t kProbeWindow = internal::kFragmentProbeSlots;

/// RegionOracle restricted to the elements of `tag`: the axis straight
/// from the pre/post predicates, sharing no code with src/core.
NodeSequence RegionOracleForTag(const DocTable& doc, const NodeSequence& ctx,
                                Axis axis, TagId tag) {
  NodeSequence out;
  for (NodeId v : sj::testing::RegionOracle(doc, ctx, axis)) {
    if (doc.kind(v) == NodeKind::kElement && doc.tag(v) == tag) {
      out.push_back(v);
    }
  }
  return out;
}

/// Context shapes around the fragment joins' forward seek: dense ones
/// (every node, every fragment slot) where each seek is a short step,
/// strided ones whose steps land just inside, on, and just past the
/// probe window (and far past it, where the seek falls back to a binary
/// search), a root-to-leaf chain that ancestor pruning collapses to one
/// node, and the one-node extremes.
std::vector<std::pair<std::string, NodeSequence>> ProbeWindowContexts(
    Rng& rng, const DocTable& doc, const TagView& view) {
  std::vector<std::pair<std::string, NodeSequence>> shapes;
  NodeSequence every_node(doc.size());
  std::iota(every_node.begin(), every_node.end(), NodeId{0});
  shapes.emplace_back("every node", std::move(every_node));
  shapes.emplace_back("every slot", view.pre);
  for (size_t k : {kProbeWindow - 1, kProbeWindow, kProbeWindow + 1,
                   2 * kProbeWindow}) {
    NodeSequence strided;
    for (size_t i = 0; i < view.size(); i += k) strided.push_back(view.pre[i]);
    if (strided.empty()) strided.push_back(doc.root());
    shapes.emplace_back("every " + std::to_string(k) + "th slot",
                        std::move(strided));
  }
  NodeId deepest = doc.root();
  for (NodeId v = 0; v < doc.size(); ++v) {
    if (doc.level(v) > doc.level(deepest)) deepest = v;
  }
  NodeSequence chain;
  for (NodeId v = deepest; v != kNilNode; v = doc.parent(v)) {
    chain.push_back(v);
  }
  std::reverse(chain.begin(), chain.end());
  shapes.emplace_back("root-to-leaf chain", std::move(chain));
  shapes.emplace_back("single node",
                      NodeSequence{static_cast<NodeId>(rng.Below(doc.size()))});
  shapes.emplace_back("last node",
                      NodeSequence{static_cast<NodeId>(doc.size() - 1)});
  return shapes;
}

/// The fragment joins over context shapes sized around the forward
/// seek's probe window, on every backend, against two oracles: the
/// document join filtered afterwards, and the region predicates
/// (RegionOracle), which share no code with the engine. The backends
/// agree byte for byte and stat for stat.
TEST_P(FragmentBackendTest, ProbeWindowShapesMatchRegionOracle) {
  const uint64_t seed = GetParam();
  auto doc = RandomDocument(seed, {.target_nodes = 6000,
                                   .max_children = 12,
                                   .attribute_percent = 30,
                                   .tag_alphabet = 2});
  ASSERT_GT(doc->size(), 500u) << "degenerate random doc for seed " << seed;
  BackendImages im(*doc);
  Rng rng(seed * 31 + 7);

  for (const char* name : {"t0", "t1"}) {
    std::optional<TagId> found = doc->tags().Lookup(name);
    ASSERT_TRUE(found.has_value()) << name << " seed " << seed;
    const TagId tag = *found;
    const TagView& view = im.index.view(tag);
    ASSERT_GT(view.size(), 4 * kProbeWindow) << name << " seed " << seed;
    for (const auto& [shape, ctx] : ProbeWindowContexts(rng, *doc, view)) {
      for (Axis axis : kStaircaseAxes) {
        const NodeSequence region = RegionOracleForTag(*doc, ctx, axis, tag);
        for (SkipMode mode : kSkipModes) {
          StaircaseOptions opt;
          opt.skip_mode = mode;
          const std::string where =
              std::string(AxisName(axis)) + " mode " +
              std::to_string(static_cast<int>(mode)) + " tag " + name +
              " context " + shape + " seed " + std::to_string(seed);
          NodeSequence mem;
          JoinStats mem_stats;
          ASSERT_NO_FATAL_FAILURE(JoinOnEveryBackend(
              im, tag, ctx, axis, opt, where, &mem, &mem_stats));
          EXPECT_EQ(mem, region) << where;
          EXPECT_EQ(mem, JoinThenFilter(*doc, ctx, axis, tag, opt)) << where;
          EXPECT_LE(mem_stats.nodes_scanned + mem_stats.nodes_copied +
                        mem_stats.nodes_skipped,
                    view.size())
              << where;
        }
      }
    }
  }
}

// Seeds are chosen so the generator produces non-degenerate documents
// (its top-level fanout is seed-sensitive).
INSTANTIATE_TEST_SUITE_P(Seeds, FragmentBackendTest,
                         ::testing::Values(41, 42, 43, 45));

/// On a document whose elements all carry ONE tag, the fragment is the
/// document, so the view join's JoinStats must match the document
/// kernels field-for-field -- the sharpest form of "view-join stats mean
/// the same thing as kernels.h stats". (Sole sanctioned divergence:
/// kEstimated preceding, where the fragment join has a guaranteed-
/// descendant copy phase the document kernel lacks; its scanned+copied
/// must equal the kernel's scanned.)
TEST(FragmentStatsTest, StatsMatchDocKernelsOnSingleTagDocument) {
  std::string xml = "<t>";
  for (int i = 0; i < 400; ++i) {
    xml += (i % 3 == 0) ? "<t><t/><t/></t>" : "<t/>";
  }
  xml += "</t>";
  auto doc = LoadDocument(xml).value();
  TagIndex index(*doc);
  TagId t = doc->tags().Lookup("t").value();
  ASSERT_EQ(index.tag_count(t), doc->size());

  Rng rng(7);
  NodeSequence ctx = RandomContext(rng, *doc, 15);
  for (Axis axis : kStaircaseAxes) {
    for (SkipMode mode : kSkipModes) {
      StaircaseOptions opt;
      opt.skip_mode = mode;
      JoinStats view_stats, doc_stats;
      auto via_view =
          StaircaseJoinView(*doc, index.view(t), ctx, axis, opt, &view_stats);
      auto via_doc = StaircaseJoin(*doc, ctx, axis, opt, &doc_stats);
      ASSERT_TRUE(via_view.ok() && via_doc.ok());
      EXPECT_EQ(via_view.value(), via_doc.value()) << AxisName(axis);
      if (axis == Axis::kPreceding && mode == SkipMode::kEstimated) {
        EXPECT_EQ(view_stats.nodes_scanned + view_stats.nodes_copied,
                  doc_stats.nodes_scanned);
        EXPECT_GT(view_stats.nodes_copied, 0u);
        continue;
      }
      EXPECT_EQ(view_stats.nodes_scanned, doc_stats.nodes_scanned)
          << AxisName(axis) << " mode " << static_cast<int>(mode);
      EXPECT_EQ(view_stats.nodes_copied, doc_stats.nodes_copied)
          << AxisName(axis) << " mode " << static_cast<int>(mode);
      EXPECT_EQ(view_stats.nodes_skipped, doc_stats.nodes_skipped)
          << AxisName(axis) << " mode " << static_cast<int>(mode);
    }
  }
}

TEST(PagedFragmentCursorTest, MultiPageLowerBoundMatchesMemory) {
  // 5000 single-tag elements: the pre/post columns span multiple pages.
  std::string xml = "<t>";
  for (int i = 0; i < 4999; ++i) xml += "<t/>";
  xml += "</t>";
  auto doc = LoadDocument(xml).value();
  TagIndex index(*doc);
  TagId t = doc->tags().Lookup("t").value();
  const TagView& view = index.view(t);
  ASSERT_GT(view.size(), kPageSize / sizeof(uint32_t));

  SimulatedDisk disk;
  auto paged_tags = CompressedTagIndex::Create(*doc, &disk, kRaw).value();
  ASSERT_GT(paged_tags->fragment(t).pre.pages.size(), 1u);
  BufferPool pool(&disk, 4);
  MemoryFragmentCursor mem(view);
  CompressedFragmentCursor io(paged_tags->fragment(t), &pool);
  ASSERT_EQ(mem.size(), io.size());
  Rng rng(3);
  for (int i = 0; i < 500; ++i) {
    uint64_t pre = rng.Below(doc->size() + 2);
    EXPECT_EQ(mem.LowerBound(pre), io.LowerBound(pre)) << "pre " << pre;
    size_t slot = rng.Below(view.size());
    EXPECT_EQ(mem.Pre(slot), io.Pre(slot)) << "slot " << slot;
    EXPECT_EQ(mem.Post(slot), io.Post(slot)) << "slot " << slot;
    if (i % 9 == 0) io.SkipTo(rng.Below(view.size() + 1));
  }
  EXPECT_TRUE(io.ok()) << io.status();
}

TEST(CompressedFragmentCursorTest, MultiBlockLowerBoundMatchesMemory) {
  // 5000 single-tag elements: the fragment spans multiple blocks, so
  // LowerBound exercises the resident fence keys + in-block search.
  std::string xml = "<t>";
  for (int i = 0; i < 4999; ++i) xml += "<t/>";
  xml += "</t>";
  auto doc = LoadDocument(xml).value();
  TagIndex index(*doc);
  TagId t = doc->tags().Lookup("t").value();
  const TagView& view = index.view(t);

  SimulatedDisk disk;
  auto compressed_tags = CompressedTagIndex::Create(*doc, &disk).value();
  ASSERT_GT(compressed_tags->fragment(t).pre.blocks.size(), 1u);
  ASSERT_EQ(compressed_tags->fragment(t).fence_pre.size(),
            compressed_tags->fragment(t).pre.blocks.size());
  BufferPool pool(&disk, 4);
  MemoryFragmentCursor mem(view);
  CompressedFragmentCursor zip(compressed_tags->fragment(t), &pool);
  ASSERT_EQ(mem.size(), zip.size());
  Rng rng(3);
  for (int i = 0; i < 500; ++i) {
    uint64_t pre = rng.Below(doc->size() + 2);
    EXPECT_EQ(mem.LowerBound(pre), zip.LowerBound(pre)) << "pre " << pre;
    size_t slot = rng.Below(view.size());
    EXPECT_EQ(mem.Pre(slot), zip.Pre(slot)) << "slot " << slot;
    EXPECT_EQ(mem.Post(slot), zip.Post(slot)) << "slot " << slot;
    if (i % 9 == 0) zip.SkipTo(rng.Below(view.size() + 1));
  }
  EXPECT_TRUE(zip.ok()) << zip.status();
}

TEST(PagedFragmentCursorTest, StickyErrorOnPoolExhaustion) {
  auto doc = RandomDocument(51, {.target_nodes = 3000});
  SimulatedDisk disk;
  auto paged_doc = CompressedDocTable::Create(*doc, &disk, kRaw).value();
  auto paged_tags = CompressedTagIndex::Create(*doc, &disk, kRaw).value();
  TagId t = doc->tags().Lookup("t0").value();
  ASSERT_GT(paged_tags->tag_count(t), 0u);
  BufferPool pool(&disk, 1);
  // Starve the cursor: an outside pin occupies the single frame.
  ASSERT_TRUE(pool.Pin(paged_doc->kind().pages.front()).ok());
  CompressedFragmentCursor io(paged_tags->fragment(t), &pool);
  (void)io.Pre(0);
  EXPECT_FALSE(io.ok());
  EXPECT_EQ(io.LowerBound(0), io.size());  // terminates joins quickly
  // And the join surfaces the error instead of returning garbage.
  auto r = PushdownVia<CompressedFragmentCursor, CompressedDocAccessor>(
      *paged_tags, t, *paged_doc, &pool, {0}, Axis::kDescendant);
  EXPECT_FALSE(r.ok());
  ASSERT_TRUE(pool.Unpin(paged_doc->kind().pages.front()).ok());
}

/// The ISSUE's acceptance experiment: with StorageBackend::kPaged and
/// PushdownMode::kAlways, a name-test step must charge pool faults on a
/// cold pool (the memory-resident TagIndex is NOT consulted), EXPLAIN
/// must name the paged fragment path, and results must be byte-identical
/// to the in-memory engine.
TEST(PagedPushdownTest, PushdownChargesThePoolAndMatchesMemory) {
  auto db = Database::FromTable(RandomDocument(13, {.target_nodes = 60000}))
                .value();
  ASSERT_GT(db->doc().size(), 10000u);
  BufferPool* pool = db->buffer_pool();

  // The resident TagIndex stays built: faults prove the paged path does
  // not fall back to (or silently prefer) the resident fragments.
  ASSERT_NE(db->tag_index(), nullptr);
  SessionOptions mem_opt;
  mem_opt.hints.pushdown = PushdownMode::kAlways;
  // Pins the per-step fragment-pushdown path; the twig join would
  // otherwise collapse the descendant chains (twig_join_test.cc).
  mem_opt.hints.twig = TwigMode::kNever;
  Session mem = std::move(db->CreateSession(mem_opt)).value();

  SessionOptions io_opt = mem_opt;
  io_opt.backend = StorageBackend::kPaged;
  Session io = std::move(db->CreateSession(io_opt)).value();

  const char* queries[] = {
      "/descendant::t0",
      "/descendant::t0/descendant::t1",
      "/descendant-or-self::t2/ancestor::t0",
      "/descendant::t1/following::t3",
      "/descendant::t3/preceding::t1",
  };
  std::string last_explain;
  for (const char* q : queries) {
    pool->FlushAll();
    pool->ResetStats();
    auto expected = mem.Run(q);
    auto got = io.Run(q);
    ASSERT_TRUE(expected.ok()) << q << ": " << expected.status();
    ASSERT_TRUE(got.ok()) << q << ": " << got.status();
    EXPECT_TRUE(BytesEqual(got.value().nodes, expected.value().nodes)) << q;
    EXPECT_GT(pool->stats().faults, 0u) << q;
    last_explain = got.value().Explain();
    EXPECT_NE(last_explain.find("via paged staircase join over tag fragment"),
              std::string::npos)
        << last_explain;
  }
  EXPECT_NE(last_explain.find("tag fragment 't3'"), std::string::npos);

  // The compressed backend: same contract, compressed fragment images,
  // EXPLAIN names the compressed fragment path.
  SessionOptions zip_opt = mem_opt;
  zip_opt.backend = StorageBackend::kCompressed;
  Session zip = std::move(db->CreateSession(zip_opt)).value();
  for (const char* q : queries) {
    pool->FlushAll();
    pool->ResetStats();
    auto expected = mem.Run(q);
    auto got = zip.Run(q);
    ASSERT_TRUE(got.ok()) << q << ": " << got.status();
    EXPECT_TRUE(BytesEqual(got.value().nodes, expected.value().nodes)) << q;
    EXPECT_GT(pool->stats().faults, 0u) << q;
    EXPECT_NE(got.value().Explain().find(
                  "via compressed staircase join over tag fragment"),
              std::string::npos)
        << got.value().Explain();
  }
}

TEST(CompressedPushdownTest, BitFlippedFragmentBlockRejectedAtOpenTime) {
  // The fragment images are digest-covered too: flip one byte inside an
  // encoded fragment block and the open must fail naming the fragment
  // column, not serve the damaged fragment to a pushed-down step.
  auto doc = RandomDocument(13, {.target_nodes = 5000});
  auto disk = std::make_unique<SimulatedDisk>();
  auto compressed_doc = CompressedDocTable::Create(*doc, disk.get()).value();
  auto compressed_tags =
      CompressedTagIndex::Create(*doc, disk.get()).value();
  TagId t0 = doc->tags().Lookup("t0").value();
  const CompressedFragment& frag = compressed_tags->fragment(t0);
  ASSERT_GT(frag.pre.blocks.size(), 0u);
  const CompressedBlockRef& block = frag.pre.blocks.front();
  Page page;
  ASSERT_TRUE(disk->Read(block.page, &page).ok());
  page.bytes[block.offset + encoding::kBlockHeaderBytes / 2] ^= 0x10;
  ASSERT_TRUE(disk->Write(block.page, page).ok());

  DatabaseOptions open;
  open.build_paged = false;
  open.build_compressed = false;
  auto db = Database::FromParts(std::move(doc), nullptr, std::move(disk),
                                nullptr, nullptr, std::move(compressed_doc),
                                std::move(compressed_tags), open);
  ASSERT_FALSE(db.ok());
  EXPECT_NE(db.status().ToString().find("corrupt compressed image"),
            std::string::npos)
      << db.status();
  EXPECT_NE(db.status().ToString().find("fragment pre column"),
            std::string::npos)
      << db.status();
}

/// Regression for the headline bug: on a database adopted without paged
/// tag fragments, pushdown must NOT engage on the paged backend (the
/// resident TagIndex would bypass the pool) -- the step runs the paged
/// document join instead.
TEST(PagedPushdownTest, MemoryTagIndexDoesNotBypassThePool) {
  auto doc = RandomDocument(17, {.target_nodes = 20000});
  auto index = std::make_unique<TagIndex>(*doc);
  auto disk = std::make_unique<SimulatedDisk>();
  auto paged_doc = CompressedDocTable::Create(*doc, disk.get(), kRaw).value();
  auto db = Database::FromParts(std::move(doc), std::move(index),
                                std::move(disk), std::move(paged_doc),
                                /*paged_tags=*/nullptr)
                .value();

  SessionOptions io_opt;
  io_opt.backend = StorageBackend::kPaged;
  io_opt.hints.pushdown = PushdownMode::kAlways;
  Session io = std::move(db->CreateSession(io_opt)).value();
  auto r = io.Run("/descendant::t0");
  ASSERT_TRUE(r.ok()) << r.status();
  std::string explain = r.value().Explain();
  EXPECT_EQ(explain.find("tag fragment"), std::string::npos) << explain;
  EXPECT_NE(explain.find("via paged staircase join (buffer pool)"),
            std::string::npos)
      << explain;
  EXPECT_GT(db->buffer_pool()->stats().faults, 0u);
}

TEST(PagedPushdownTest, DigestMismatchIsRejectedAtOpenTime) {
  // Same post/kind/level columns, different tag column: both the doc
  // digest (which covers parent/tag since the axis cursors page them)
  // and the fragment digest must tell these apart -- and the database
  // must reject the stale fragment image when it is adopted, naming the
  // fragment column set, not on the first pushed-down query.
  auto doc_b = LoadDocument("<a><b/><b/></a>").value();
  auto doc_c = LoadDocument("<a><c/><b/></a>").value();
  auto disk = std::make_unique<SimulatedDisk>();
  auto paged_doc = CompressedDocTable::Create(*doc_b, disk.get(), kRaw).value();
  auto wrong_tags =
      CompressedTagIndex::Create(*doc_c, disk.get(), kRaw).value();
  ASSERT_NE(paged_doc->source_digest(), DocColumnsDigest(*doc_c));
  ASSERT_NE(wrong_tags->source_digest(), FragmentColumnsDigest(*doc_b));

  auto spoofed = Database::FromParts(std::move(doc_b), nullptr,
                                     std::move(disk), std::move(paged_doc),
                                     std::move(wrong_tags));
  ASSERT_FALSE(spoofed.ok());
  EXPECT_NE(spoofed.status().ToString().find("tag fragment column set"),
            std::string::npos)
      << spoofed.status();

  auto doc_b2 = LoadDocument("<a><b/><b/></a>").value();
  auto disk2 = std::make_unique<SimulatedDisk>();
  auto paged_doc2 =
      CompressedDocTable::Create(*doc_b2, disk2.get(), kRaw).value();
  auto right_tags =
      CompressedTagIndex::Create(*doc_b2, disk2.get(), kRaw).value();
  auto genuine = Database::FromParts(std::move(doc_b2), nullptr,
                                     std::move(disk2), std::move(paged_doc2),
                                     std::move(right_tags));
  ASSERT_TRUE(genuine.ok()) << genuine.status();
  SessionOptions opt;
  opt.backend = StorageBackend::kPaged;
  opt.hints.pushdown = PushdownMode::kAlways;
  auto r = std::move(genuine.value()->CreateSession(opt)).value()
               .Run("/descendant::b");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r.value().nodes.size(), 2u);
}

}  // namespace
}  // namespace sj::storage
