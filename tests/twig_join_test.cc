// The holistic twig join (core/twig_impl.h): one k-way leapfrog merge
// over per-tag fragment cursors must return exactly what k materialized
// steps and the path oracle return -- byte-identical, duplicate-free,
// document-order -- on every backend, for every eligible path shape,
// including documents where a tag nests inside itself (the case that
// breaks naive stack-free intersections). Also pins the plan-extraction
// boundaries (what collapses, what falls back), the zero-intermediate /
// fewer-faults property on the paged backend, and the stats contract of
// the raw kernel.

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "api/database.h"
#include "core/tag_view.h"
#include "core/twig_join.h"
#include "path_oracle.h"
#include "storage/compressed_doc.h"
#include "test_util.h"

namespace sj {
namespace {

using sj::testing::LoadPaperExample;
using sj::testing::RandomDocOptions;
using sj::testing::RandomDocument;

bool BytesEqual(const NodeSequence& a, const NodeSequence& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(NodeId)) == 0);
}

QueryResult MustRun(Session& session, const std::string& q) {
  auto r = session.Run(q);
  EXPECT_TRUE(r.ok()) << q << ": " << r.status();
  return std::move(r).value();
}

Session MakeSession(Database& db, StorageBackend backend, TwigMode twig) {
  SessionOptions opt;
  opt.backend = backend;
  opt.hints.twig = twig;
  auto s = db.CreateSession(opt);
  EXPECT_TRUE(s.ok()) << s.status();
  return std::move(s).value();
}

/// The path oracle's answer to `q` over `db`'s document.
NodeSequence Oracle(const Database& db, const std::string& q) {
  auto snap = db.CurrentSnapshot();
  auto r = sj::testing::PathOracle(*snap->images().doc, q);
  EXPECT_TRUE(r.ok()) << q << ": " << r.status();
  return r.ok() ? std::move(r).value() : NodeSequence{};
}

/// Twig (kAuto) vs step-at-a-time (kNever) vs the path oracle, across
/// all three storage backends, for one query.
void ExpectTwigMatrix(Database& db, const std::string& q) {
  const NodeSequence oracle = Oracle(db, q);
  constexpr StorageBackend kBackends[] = {StorageBackend::kMemory,
                                          StorageBackend::kPaged,
                                          StorageBackend::kCompressed};
  for (StorageBackend backend : kBackends) {
    Session twig = MakeSession(db, backend, TwigMode::kAuto);
    Session step = MakeSession(db, backend, TwigMode::kNever);
    const QueryResult via_twig = MustRun(twig, q);
    const QueryResult via_steps = MustRun(step, q);
    EXPECT_TRUE(BytesEqual(via_twig.nodes, oracle))
        << q << " backend=" << static_cast<int>(backend) << "\n"
        << via_twig.Explain();
    EXPECT_TRUE(BytesEqual(via_steps.nodes, oracle))
        << q << " backend=" << static_cast<int>(backend);
  }
}

/// A document whose tags nest inside themselves: the supporter stacks
/// must hold MULTIPLE live ancestors per level at once.
std::unique_ptr<DocTable> RecursiveDocument() {
  return LoadDocument(
             "<a><a><b><a><b><c/><b><c/></b></b><c/></a><a/></b>"
             "<b><a><c/></a></b></a><b><b><c/></b></b><c/></a>")
      .value();
}

TEST(TwigJoinTest, MatrixMatchesStepAtATimeAndOracle) {
  {
    auto db = Database::FromTable(LoadPaperExample()).value();
    for (const char* q : {
             "/descendant::e/child::f/child::g",
             "/descendant::a/descendant::e/descendant::j",
             "/descendant-or-self::a/descendant::f/child::h",
             "//e//f",
             "//a//i//j",
             "/descendant::e/child::i/child::j",
         }) {
      ExpectTwigMatrix(*db, q);
    }
  }
  {
    auto db = Database::FromTable(RecursiveDocument()).value();
    for (const char* q : {
             "/descendant::a/descendant::b/descendant::c",
             "/descendant::a/child::b/child::c",
             "//a//b//c",
             "/descendant::b/descendant::a/child::b",
             "/descendant-or-self::a/descendant-or-self::b/descendant::c",
             "/descendant::a/descendant::a/descendant::b",
         }) {
      ExpectTwigMatrix(*db, q);
    }
  }
  // Deep and bushy random documents with a small tag alphabet, so the
  // chains produce dense recursive nesting of every tag.
  for (uint64_t seed : {3u, 4u}) {
    auto db = Database::FromTable(
                  RandomDocument(seed, {.target_nodes = 4000,
                                        .max_children = seed == 3 ? 2u : 8u,
                                        .tag_alphabet = 3}))
                  .value();
    for (const char* q : {
             "/descendant::t0/descendant::t1/descendant::t2",
             "/descendant::t0/child::t1/child::t2",
             "//t1//t0//t2",
             "/descendant::t2/descendant::t2/child::t1",
             "/descendant-or-self::t0/descendant::t1/descendant::t0",
         }) {
      ExpectTwigMatrix(*db, q);
    }
  }
}

TEST(TwigJoinTest, ExplainShowsCollapseOnAllBackends) {
  auto db = Database::FromTable(RandomDocument(7, {.target_nodes = 5000}))
                .value();
  const std::string q = "/descendant::t0/descendant::t1/child::t2";
  struct Case {
    StorageBackend backend;
    const char* label;
  } cases[] = {
      {StorageBackend::kMemory, "via twig join over fragments"},
      {StorageBackend::kPaged, "via paged twig join over fragments"},
      {StorageBackend::kCompressed, "via compressed twig join over fragments"},
  };
  for (const Case& c : cases) {
    Session s = MakeSession(*db, c.backend, TwigMode::kAuto);
    const QueryResult r = MustRun(s, q);
    const std::string explain = r.Explain();
    EXPECT_NE(explain.find(c.label), std::string::npos) << explain;
    EXPECT_NE(explain.find("'t0'→'t1'→'t2', k=3"),
              std::string::npos)
        << explain;
    EXPECT_NE(explain.find("cursor skips:"), std::string::npos) << explain;
    // One EXPLAIN entry per query step: the twig entry plus one
    // "subsumed" marker per collapsed step -- no vanishing steps.
    ASSERT_EQ(r.trace.size(), 3u) << explain;
    EXPECT_NE(r.trace[1].description.find("subsumed by twig join (step 1)"),
              std::string::npos)
        << explain;
    EXPECT_NE(r.trace[2].description.find("subsumed by twig join (step 1)"),
              std::string::npos)
        << explain;
    // The collapse materializes no intermediate context sequences.
    EXPECT_EQ(r.trace[0].stats.nodes_copied, 0u);
  }
}

TEST(TwigJoinTest, IneligibleRunsFallBackToStepAtATime) {
  auto db = Database::FromTable(RandomDocument(11, {.target_nodes = 5000}))
                .value();
  Session s = MakeSession(*db, StorageBackend::kMemory, TwigMode::kAuto);
  // Each query is twig-ineligible for a different reason; all must run
  // step-at-a-time (no "twig join" in EXPLAIN) and still be correct.
  const char* ineligible[] = {
      "/descendant::t0",                         // single level
      "//t0",                                    // desugars to one level
      "/descendant::t0/child::node()",           // non-name test
      "/descendant::t0[child::t1]/descendant::t1",  // predicate splits
      "/descendant::t0/descendant::t1[1]",       // positional predicate
      "/descendant::t0/parent::t0",              // non-twig axis
      "/descendant::t0/ancestor::t1",            // non-twig axis
  };
  for (const char* q : ineligible) {
    const QueryResult r = MustRun(s, q);
    EXPECT_EQ(r.Explain().find("twig join"), std::string::npos)
        << q << "\n" << r.Explain();
    EXPECT_TRUE(BytesEqual(r.nodes, Oracle(*db, q))) << q;
  }
  // A predicate in the middle splits one long run into two collapses.
  const QueryResult split = MustRun(
      s, "/descendant::t0/descendant::t1[child::t2]/child::t2/child::t3");
  EXPECT_EQ(split.trace.size(), 4u) << split.Explain();
  EXPECT_NE(split.Explain().find("k=2"), std::string::npos)
      << split.Explain();
  // kNever disables the collapse wholesale.
  Session never = MakeSession(*db, StorageBackend::kMemory, TwigMode::kNever);
  const QueryResult r =
      MustRun(never, "/descendant::t0/descendant::t1/descendant::t2");
  EXPECT_EQ(r.Explain().find("twig join"), std::string::npos) << r.Explain();
  // Without the backend's fragment index there is nothing to leapfrog
  // over: silent fallback, same answer. Only a pool image adopted without
  // its tag fragments lacks one.
  std::unique_ptr<DocTable> doc = RandomDocument(11, {.target_nodes = 5000});
  auto disk = std::make_unique<storage::SimulatedDisk>();
  auto paged = storage::CompressedDocTable::Create(
      *doc, disk.get(), storage::ColumnLayout::kRaw);
  ASSERT_TRUE(paged.ok()) << paged.status();
  auto bare = Database::FromParts(std::move(doc), nullptr, std::move(disk),
                                  std::move(paged).value(), nullptr, nullptr,
                                  nullptr)
                  .value();
  Session no_index =
      MakeSession(*bare, StorageBackend::kPaged, TwigMode::kAuto);
  const QueryResult fallback =
      MustRun(no_index, "/descendant::t0/descendant::t1/descendant::t2");
  EXPECT_EQ(fallback.Explain().find("twig join"), std::string::npos)
      << fallback.Explain();
  EXPECT_TRUE(BytesEqual(
      fallback.nodes,
      Oracle(*db, "/descendant::t0/descendant::t1/descendant::t2")));
}

TEST(TwigJoinTest, UnknownTagIsAnEmptyFragmentNotAFallback) {
  auto db = Database::FromTable(LoadPaperExample()).value();
  Session s = MakeSession(*db, StorageBackend::kMemory, TwigMode::kAuto);
  const QueryResult r = MustRun(s, "/descendant::e/descendant::zzz");
  EXPECT_NE(r.Explain().find("twig join"), std::string::npos) << r.Explain();
  EXPECT_TRUE(r.nodes.empty());
}

TEST(TwigJoinTest, ColdPoolTwigFaultsAtMostStepAtATime) {
  // The Fig. 11-style property in test form: at equal (private) pool
  // size, the twig plan reads only the k fragments plus the doc columns
  // it probes, while step-at-a-time scans and materializes after every
  // step -- so the twig run must never fault more.
  auto db = Database::FromTable(RandomDocument(21, {.target_nodes = 60000}))
                .value();
  ASSERT_GT(db->CurrentSnapshot()->logical_size(), 20000u);
  const char* chains[] = {
      "/descendant::t0/descendant::t1/descendant::t2",
      "/descendant::t1/child::t2/child::t3",
      "//t0//t1//t2//t3",
  };
  for (StorageBackend backend :
       {StorageBackend::kPaged, StorageBackend::kCompressed}) {
    for (const char* q : chains) {
      auto faults_with = [&](TwigMode twig) {
        SessionOptions opt;
        opt.backend = backend;
        opt.hints.twig = twig;
        opt.private_pool_pages = 64;
        Session io = std::move(db->CreateSession(opt)).value();
        auto r = io.Run(q);
        EXPECT_TRUE(r.ok()) << q << ": " << r.status();
        if (twig == TwigMode::kAuto) {
          EXPECT_NE(r.value().Explain().find("twig join"), std::string::npos)
              << r.value().Explain();
          EXPECT_EQ(r.value().totals.nodes_copied, 0u) << q;
        }
        return io.pool()->stats().faults;
      };
      const uint64_t twig_faults = faults_with(TwigMode::kAuto);
      const uint64_t step_faults = faults_with(TwigMode::kNever);
      EXPECT_LE(twig_faults, step_faults)
          << q << " backend=" << static_cast<int>(backend);
    }
  }
}

TEST(TwigJoinTest, KernelStatsAreSelfConsistent) {
  auto doc = RandomDocument(5, {.target_nodes = 8000, .tag_alphabet = 4});
  TagIndex tags(*doc);
  std::vector<TwigLevel> levels;
  for (const char* name : {"t0", "t1", "t2"}) {
    auto tag = doc->tags().Lookup(name);
    ASSERT_TRUE(tag.has_value()) << name;
    levels.push_back({Axis::kDescendant, *tag});
  }
  JoinStats stats;
  std::vector<TwigLevelStats> per_level;
  NodeSequence context{0};
  auto r = TwigJoin(*doc, tags, context, levels, {}, &stats, &per_level);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(stats.result_size, r.value().size());
  EXPECT_EQ(stats.nodes_copied, 0u);
  EXPECT_EQ(stats.context_size, 1u);
  ASSERT_EQ(per_level.size(), levels.size());
  uint64_t scanned = 0, skipped = 0;
  for (size_t i = 0; i < per_level.size(); ++i) {
    EXPECT_EQ(per_level[i].tag, levels[i].tag);
    EXPECT_EQ(per_level[i].fragment_size, tags.view(levels[i].tag).size());
    // A fragment slot is consumed at most once: scanned or skipped.
    EXPECT_LE(per_level[i].slots_scanned + per_level[i].slots_skipped,
              per_level[i].fragment_size);
    scanned += per_level[i].slots_scanned;
    skipped += per_level[i].slots_skipped;
  }
  EXPECT_EQ(stats.nodes_scanned, scanned);
  EXPECT_EQ(stats.nodes_skipped, skipped);
  // Seeks disabled: every slot up to exhaustion is scanned, none skipped.
  JoinStats no_skip;
  StaircaseOptions opts;
  opts.skip_mode = SkipMode::kNone;
  std::vector<TwigLevelStats> no_skip_levels;
  auto r2 = TwigJoin(*doc, tags, context, levels, opts, &no_skip,
                     &no_skip_levels);
  ASSERT_TRUE(r2.ok()) << r2.status();
  EXPECT_TRUE(BytesEqual(r2.value(), r.value()));
  EXPECT_EQ(no_skip.nodes_skipped, 0u);
  EXPECT_GE(no_skip.nodes_scanned, stats.nodes_scanned);
}

}  // namespace
}  // namespace sj
