// Cost-based planner tests: estimator sanity against exact tag counts,
// plan-choice boundaries (the estimates flip pushdown with context size
// and backend; pinned hints override them), the
// merged-dictionary bugfix on edited snapshots (fresh overlay tags get
// real counts), and positional set-at-a-time equivalence against the
// per-context path oracle (tests/path_oracle.h) across axis x backend x
// predicate position.

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string>
#include <vector>

#include "api/database.h"
#include "path_oracle.h"
#include "test_util.h"
#include "xpath/cost_model.h"

namespace sj {
namespace {

using xpath::CardinalityEstimator;
using xpath::ContextEstimate;
using xpath::DocStatistics;

/// A two-level tree whose planner arithmetic is checkable by hand:
/// 6000 <a> children of the root, each with one <b> child, plus three
/// selective <c> leaves. n = 1 + 6000 + 6000 + 3 = 12004.
std::unique_ptr<Database> MakePlannerDoc() {
  std::string xml = "<r>";
  for (int i = 0; i < 6000; ++i) xml += "<a><b/></a>";
  xml += "<c/><c/><c/>";
  xml += "</r>";
  auto db = Database::FromXml(xml);
  EXPECT_TRUE(db.ok()) << db.status();
  return std::move(db).value();
}

TagId TagOf(const Database& db, const std::string& name) {
  auto id = db.CurrentSnapshot()->images().doc->tags().Lookup(name);
  EXPECT_TRUE(id.has_value()) << name;
  return id.value_or(kNoTag);
}

/// An estimator over a pristine snapshot's own statistics (paged units
/// by default; the per-tag counts come straight from the collected
/// statistics). Reads `snap`'s images: hold it while the estimator lives.
CardinalityEstimator MakeEstimator(
    const DatabaseSnapshot& snap,
    xpath::BackendCosts costs = xpath::kPagedCosts) {
  const DocStatistics& stats = *snap.images().doc_stats;
  return CardinalityEstimator(
      &stats, snap.images().doc->size(), costs, [&stats](TagId t) {
        return t < stats.tag_counts.size() ? stats.tag_counts[t] : uint64_t{0};
      });
}

TEST(DocStatisticsTest, CollectMatchesDocument) {
  auto db = MakePlannerDoc();
  auto snap = db->CurrentSnapshot();
  const DocStatistics& stats = *snap->images().doc_stats;
  const DocTable& doc = *snap->images().doc;
  EXPECT_EQ(stats.doc_size, doc.size());
  // The histogram partitions the document.
  const uint64_t histogram_sum = std::accumulate(
      stats.level_histogram.begin(), stats.level_histogram.end(), uint64_t{0});
  EXPECT_EQ(histogram_sum, doc.size());
  EXPECT_EQ(stats.level_histogram[0], 1u);     // the root
  EXPECT_EQ(stats.level_histogram[1], 6003u);  // 6000 a + 3 c
  EXPECT_EQ(stats.level_histogram[2], 6000u);  // the b's
  EXPECT_EQ(stats.max_level, 2);
  // Per-tag counts and level spreads are exact.
  const TagId a = TagOf(*db, "a");
  const TagId b = TagOf(*db, "b");
  const TagId c = TagOf(*db, "c");
  EXPECT_EQ(stats.tag_counts[a], 6000u);
  EXPECT_EQ(stats.tag_counts[b], 6000u);
  EXPECT_EQ(stats.tag_counts[c], 3u);
  EXPECT_EQ(stats.tag_min_level[a], 1);
  EXPECT_EQ(stats.tag_max_level[a], 1);
  EXPECT_EQ(stats.tag_min_level[b], 2);
  EXPECT_EQ(stats.tag_max_level[b], 2);
}

TEST(DocStatisticsTest, CollectOnXmarkMatchesTagIndex) {
  xmlgen::XMarkOptions gen;
  gen.size_mb = 0.1;
  auto db = Database::FromXmark(gen).value();
  auto snap = db->CurrentSnapshot();
  const DocStatistics& stats = *snap->images().doc_stats;
  const DocTable& doc = *snap->images().doc;
  ASSERT_NE(snap->images().tag_index, nullptr);
  // The fragment sizes ARE the per-tag counts; Collect must agree with
  // the TagIndex for every interned element tag.
  for (TagId t = 0; t < doc.tags().size(); ++t) {
    uint64_t brute = 0;
    for (size_t i = 0; i < doc.size(); ++i) {
      if (doc.kind(i) == NodeKind::kElement && doc.tag(i) == t) ++brute;
    }
    ASSERT_LT(t, stats.tag_counts.size());
    // Attribute tags share the dictionary; Collect counts every tagged
    // node, so the stat is >= the element-only brute count and exact
    // when the name never appears as an attribute.
    EXPECT_GE(stats.tag_counts[t], brute) << doc.tags().Name(t);
  }
}

TEST(CardinalityEstimatorTest, DescendantFromRootIsExact) {
  auto db = MakePlannerDoc();
  auto snap = db->CurrentSnapshot();
  CardinalityEstimator est = MakeEstimator(*snap);
  // The root covers its whole level band, so a descendant name test
  // estimates to exactly the fragment size.
  EXPECT_DOUBLE_EQ(est.Root().rows, 1.0);
  EXPECT_DOUBLE_EQ(
      est.EstimateStep(est.Root(), Axis::kDescendant, TagOf(*db, "b")).rows,
      6000.0);
  EXPECT_DOUBLE_EQ(
      est.EstimateStep(est.Root(), Axis::kDescendant, TagOf(*db, "c")).rows,
      3.0);
}

TEST(CardinalityEstimatorTest, MonotoneInFragmentSize) {
  auto db = MakePlannerDoc();
  auto snap = db->CurrentSnapshot();
  CardinalityEstimator est = MakeEstimator(*snap);
  const double big =
      est.EstimateStep(est.Root(), Axis::kDescendant, TagOf(*db, "a")).rows;
  const double small =
      est.EstimateStep(est.Root(), Axis::kDescendant, TagOf(*db, "c")).rows;
  EXPECT_GT(big, small);
}

TEST(CardinalityEstimatorTest, LevelSpreadZeroesImpossibleSteps) {
  auto db = MakePlannerDoc();
  auto snap = db->CurrentSnapshot();
  CardinalityEstimator est = MakeEstimator(*snap);
  // child::r under the root: r only lives at level 0, the child band is
  // [1,1] -- the spread gate zeroes the estimate.
  EXPECT_DOUBLE_EQ(
      est.EstimateStep(est.Root(), Axis::kChild, TagOf(*db, "r")).rows, 0.0);
  // child::b two levels down ([3,3]) is equally impossible.
  const ContextEstimate deep{100.0, 3, 3};
  EXPECT_DOUBLE_EQ(est.EstimateStep(deep, Axis::kChild, TagOf(*db, "b")).rows,
                   0.0);
  // ...but from the a-band [1,1] it is nearly the full fragment (the
  // three c's dilute the band's coverage to 6000/6003).
  const ContextEstimate a_band{6000.0, 1, 1};
  EXPECT_NEAR(est.EstimateStep(a_band, Axis::kChild, TagOf(*db, "b")).rows,
              6000.0, 5.0);
}

TEST(CardinalityEstimatorTest, ParentAndAncestorRespectTheTag) {
  auto db = MakePlannerDoc();
  auto snap = db->CurrentSnapshot();
  CardinalityEstimator est = MakeEstimator(*snap);
  const ContextEstimate b_band{6000.0, 2, 2};
  for (Axis axis : {Axis::kParent, Axis::kAncestor}) {
    // Without a name test the level band bounds the output (the 6003
    // nodes at level 1 plus the root for ancestor)...
    EXPECT_GT(est.EstimateStep(b_band, axis, kNoTag).rows, 6000.0 - 1.0)
        << AxisName(axis);
    // ...a tag bounds it by its node count: three c's at level 1...
    EXPECT_DOUBLE_EQ(est.EstimateStep(b_band, axis, TagOf(*db, "c")).rows,
                     3.0)
        << AxisName(axis);
    // ...and a tag whose spread misses the band estimates to zero.
    EXPECT_DOUBLE_EQ(est.EstimateStep(b_band, axis, TagOf(*db, "b")).rows,
                     0.0)
        << AxisName(axis);
  }
}

TEST(CardinalityEstimatorTest, PredicateEstimates) {
  auto db = MakePlannerDoc();
  auto snap = db->CurrentSnapshot();
  CardinalityEstimator est = MakeEstimator(*snap);
  // Positional: at most one row per context node.
  EXPECT_DOUBLE_EQ(est.EstimatePredicate(10.0, 4.0, /*positional=*/true), 4.0);
  // Existence: the fixed selectivity guess.
  EXPECT_DOUBLE_EQ(est.EstimatePredicate(10.0, 4.0, /*positional=*/false),
                   10.0 * xpath::kExistsPredicateSelectivity);
}

/// The op token of step `step` (1-based) of `r`'s PlanSummary.
std::string OpOf(const QueryResult& r, size_t step) {
  const std::vector<PlanStepSummary> summary = r.PlanSummary();
  EXPECT_GE(summary.size(), step);
  if (summary.size() < step) return "";
  EXPECT_EQ(summary[step - 1].step, step);
  return summary[step - 1].op;
}

TEST(CostBasedPlannerTest, ContextSizeFlipsPushdown) {
  auto db = MakePlannerDoc();
  SessionOptions opt;
  opt.backend = StorageBackend::kPaged;
  opt.hints.twig = TwigMode::kNever;  // plan individual steps
  Session s = std::move(db->CreateSession(opt)).value();

  // Small context (the root): the fragment join reads ~3 u32 pages and
  // pays one probe; the doc-scan staircase join reads the whole 12k-node
  // region. Pushdown wins.
  auto selective = s.Run("/descendant::b");
  ASSERT_TRUE(selective.ok());
  EXPECT_EQ(OpOf(selective.value(), 1), "pushdown")
      << selective.value().Explain();

  // Large context (6000 a's): the per-context seeks dominate and the
  // shared doc scan wins -- same tag, flipped by context size.
  auto wide = s.Run("/child::a/descendant::b");
  ASSERT_TRUE(wide.ok());
  EXPECT_EQ(OpOf(wide.value(), 1), "axis-cursor") << wide.value().Explain();
  EXPECT_EQ(OpOf(wide.value(), 2), "staircase") << wide.value().Explain();

  // The planner's choice always matches the cheaper estimate.
  auto snap = db->CurrentSnapshot();
  CardinalityEstimator est = MakeEstimator(*snap, xpath::kPagedCosts);
  const TagId b = TagOf(*db, "b");
  EXPECT_LT(est.PushdownCost(est.Root(), Axis::kDescendant, b),
            est.StaircaseCost(est.Root(), Axis::kDescendant, true));
  const ContextEstimate a_band =
      est.EstimateStep(est.Root(), Axis::kChild, TagOf(*db, "a"));
  EXPECT_GT(est.PushdownCost(a_band, Axis::kDescendant, b),
            est.StaircaseCost(a_band, Axis::kDescendant, true));
}

TEST(CostBasedPlannerTest, ResidentSeeksAreFree) {
  // On the memory backend the fragment join's per-context seek is a
  // forward probe over slots it reads anyway, so the 6000-context step
  // that the paged backend leaves to the doc scan pushes down.
  auto db = MakePlannerDoc();
  SessionOptions opt;
  opt.hints.twig = TwigMode::kNever;
  Session s = std::move(db->CreateSession(opt)).value();
  auto wide = s.Run("/child::a/descendant::b");
  ASSERT_TRUE(wide.ok());
  EXPECT_EQ(OpOf(wide.value(), 2), "pushdown") << wide.value().Explain();
}

TEST(CostBasedPlannerTest, FollowingAndPrecedingPayOneSeek) {
  // Following and preceding prune any context to one node, so 6000 a's
  // cost the fragment join one seek -- it wins on every backend.
  auto db = MakePlannerDoc();
  NodeSequence reference[2];
  for (StorageBackend backend :
       {StorageBackend::kMemory, StorageBackend::kPaged,
        StorageBackend::kCompressed}) {
    SessionOptions opt;
    opt.backend = backend;
    opt.hints.twig = TwigMode::kNever;
    Session s = std::move(db->CreateSession(opt)).value();
    const char* queries[] = {"/child::a/following::b",
                             "/child::a/preceding::b"};
    for (size_t q = 0; q < 2; ++q) {
      auto r = s.Run(queries[q]);
      ASSERT_TRUE(r.ok()) << queries[q];
      EXPECT_EQ(OpOf(r.value(), 2), "pushdown")
          << "backend " << static_cast<int>(backend) << "\n"
          << r.value().Explain();
      if (backend == StorageBackend::kMemory) {
        reference[q] = r.value().nodes;
        EXPECT_FALSE(reference[q].empty()) << queries[q];
      } else {
        EXPECT_EQ(r.value().nodes, reference[q]) << queries[q];
      }
    }
  }
}

TEST(CostBasedPlannerTest, ChoiceMatchesEstimatesOnEveryBackend) {
  auto db = MakePlannerDoc();
  const struct {
    StorageBackend backend;
    xpath::BackendCosts costs;
  } backends[] = {{StorageBackend::kMemory, xpath::kMemoryCosts},
                  {StorageBackend::kPaged, xpath::kPagedCosts},
                  {StorageBackend::kCompressed, xpath::kCompressedCosts}};
  const TagId a = TagOf(*db, "a");
  const TagId b = TagOf(*db, "b");
  NodeSequence reference;
  for (const auto& [backend, costs] : backends) {
    SessionOptions opt;
    opt.backend = backend;
    opt.hints.twig = TwigMode::kNever;
    Session s = std::move(db->CreateSession(opt)).value();
    auto r = s.Run("/child::a/descendant::b");
    ASSERT_TRUE(r.ok());
    // The planner's kAuto choice is exactly the cheaper estimate under
    // this backend's cost units -- on every backend.
    auto snap = db->CurrentSnapshot();
    CardinalityEstimator est = MakeEstimator(*snap, costs);
    const ContextEstimate a_band =
        est.EstimateStep(est.Root(), Axis::kChild, a);
    const char* want = est.PushdownCost(a_band, Axis::kDescendant, b) <
                               est.StaircaseCost(a_band, Axis::kDescendant,
                                                 /*name_filter=*/true)
                           ? "pushdown"
                           : "staircase";
    EXPECT_EQ(OpOf(r.value(), 2), want)
        << "backend " << static_cast<int>(backend) << "\n"
        << r.value().Explain();
    // Node-identical across backends.
    if (reference.empty()) {
      reference = r.value().nodes;
    } else {
      EXPECT_EQ(r.value().nodes, reference);
    }
  }
}

TEST(CostBasedPlannerTest, HintsPinOverEstimates) {
  auto db = MakePlannerDoc();
  SessionOptions opt;
  opt.backend = StorageBackend::kPaged;
  opt.hints.twig = TwigMode::kNever;

  // kNever beats a pushdown-favoring estimate...
  SessionOptions never = opt;
  never.hints.pushdown = PushdownMode::kNever;
  Session sn = std::move(db->CreateSession(never)).value();
  auto rn = sn.Run("/descendant::b");
  ASSERT_TRUE(rn.ok());
  EXPECT_EQ(OpOf(rn.value(), 1), "staircase") << rn.value().Explain();

  // ...and kAlways beats a staircase-favoring one.
  SessionOptions always = opt;
  always.hints.pushdown = PushdownMode::kAlways;
  Session sa = std::move(db->CreateSession(always)).value();
  auto ra = sa.Run("/child::a/descendant::b");
  ASSERT_TRUE(ra.ok());
  EXPECT_EQ(OpOf(ra.value(), 2), "pushdown") << ra.value().Explain();
}

TEST(CostBasedPlannerTest, ExplainCarriesEstimateAndActual) {
  auto db = MakePlannerDoc();
  SessionOptions opt;
  opt.hints.twig = TwigMode::kNever;
  Session s = std::move(db->CreateSession(opt)).value();
  auto r = s.Run("/descendant::b");
  ASSERT_TRUE(r.ok());
  // The estimate is exact here, and EXPLAIN prints both numbers.
  const std::vector<PlanStepSummary> summary = r.value().PlanSummary();
  ASSERT_EQ(summary.size(), 1u);
  EXPECT_EQ(summary[0].estimated_rows, 6000u);
  EXPECT_EQ(summary[0].actual_rows, 6000u);
  EXPECT_NE(r.value().Explain().find(" est=6000 act=6000"), std::string::npos)
      << r.value().Explain();
}

TEST(CostBasedPlannerTest, CompiledAndFreshPlansAgree) {
  auto db = MakePlannerDoc();
  SessionOptions opt;
  opt.backend = StorageBackend::kPaged;
  Session s = std::move(db->CreateSession(opt)).value();
  auto first = s.Run("/child::a/descendant::b");
  auto second = s.Run("/child::a/descendant::b");
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_FALSE(first.value().plan_cached);
  EXPECT_TRUE(second.value().plan_cached);
  // The cached plan froze the same operators and estimates the fresh
  // plan derived (PlanPath is deterministic in statistics + options).
  const auto a = first.value().PlanSummary();
  const auto b = second.value().PlanSummary();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].op, b[i].op);
    EXPECT_EQ(a[i].estimated_rows, b[i].estimated_rows);
    EXPECT_EQ(a[i].actual_rows, b[i].actual_rows);
  }
}

TEST(CostBasedPlannerTest, EditedSnapshotUsesMergedTagCounts) {
  auto db = Database::FromXml("<r><a/><a/><a/></r>").value();
  EditTxn txn = db->BeginEdit();
  ASSERT_TRUE(txn.InsertLastChild(0, "<zzz/>").ok());
  ASSERT_TRUE(txn.InsertLastChild(0, "<zzz/>").ok());
  ASSERT_TRUE(txn.InsertLastChild(0, "<zzz/>").ok());
  ASSERT_TRUE(txn.Commit().ok());

  SessionOptions opt;
  opt.hints.twig = TwigMode::kNever;
  Session s = std::move(db->CreateSession(opt)).value();
  // zzz exists only in the delta: the base statistics never saw it, so a
  // stale read would estimate 0 (or fall back to document size). The
  // estimator reads the snapshot's MERGED fragment counts instead.
  auto r = s.Run("/descendant::zzz");
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r.value().snapshot_epoch, 0u);
  ASSERT_EQ(r.value().nodes.size(), 3u);
  const std::vector<PlanStepSummary> summary = r.value().PlanSummary();
  ASSERT_EQ(summary.size(), 1u);
  EXPECT_EQ(summary[0].estimated_rows, 3u) << r.value().Explain();
  EXPECT_EQ(summary[0].actual_rows, 3u);

  // An edited count of a base tag is merged too: delete one a.
  EditTxn txn2 = db->BeginEdit();
  ASSERT_TRUE(txn2.DeleteSubtree(1).ok());
  ASSERT_TRUE(txn2.Commit().ok());
  auto ra = s.Run("/descendant::a");
  ASSERT_TRUE(ra.ok());
  ASSERT_EQ(ra.value().nodes.size(), 2u);
  EXPECT_EQ(ra.value().PlanSummary()[0].estimated_rows, 2u)
      << ra.value().Explain();
}

// --- positional set-at-a-time equivalence ----------------------------------

constexpr const char* kPositionalQueries[] = {
    "/descendant::t0/child::t1[1]",
    "/descendant::t0/child::t1[2]",
    "/descendant::t0/child::node()[last()]",
    "/descendant::t1/following-sibling::node()[1]",
    "/descendant::t2/preceding-sibling::node()[last()]",
    "/descendant::t2/ancestor::t0[1]",
    "/descendant::t0/descendant::t1[2]",
    "/descendant::t0/attribute::node()[1]",
    "/child::node()/child::node()[2]/self::t1",
    "/descendant::t1/parent::node()[1]",
    "/descendant::t0/following::t1[3]",
    "/descendant::t2/preceding::node()[2]",
    "/descendant::t0/descendant-or-self::node()[2]",
    "/descendant::t1/ancestor-or-self::node()[1]",
};

TEST(PositionalRankJoinTest, MatchesPerContextOracleAcrossBackends) {
  auto doc_xml = sj::testing::RandomDocumentXml(1234, {});
  auto db = Database::FromXml(doc_xml).value();

  const StorageBackend backends[] = {StorageBackend::kMemory,
                                     StorageBackend::kPaged,
                                     StorageBackend::kCompressed};
  for (StorageBackend backend : backends) {
    SessionOptions opt;
    opt.backend = backend;
    Session s = std::move(db->CreateSession(opt)).value();
    auto snap = db->CurrentSnapshot();
    for (const char* q : kPositionalQueries) {
      auto expected = sj::testing::PathOracle(*snap->images().doc, q);
      auto got = s.Run(q);
      ASSERT_TRUE(expected.ok()) << q << ": " << expected.status();
      ASSERT_TRUE(got.ok()) << q << ": " << got.status();
      EXPECT_EQ(got.value().nodes, expected.value())
          << q << " on backend " << static_cast<int>(backend) << "\n"
          << got.value().Explain();
    }
  }
}

TEST(PositionalRankJoinTest, FragmentRankFollowsThePushdownGate) {
  sj::testing::RandomDocOptions doc_options;
  doc_options.target_nodes = 1500;
  doc_options.max_children = 12;  // 1404 nodes: every step below matches
  auto db = Database::FromXml(sj::testing::RandomDocumentXml(13, doc_options))
                .value();
  struct Case {
    const char* query;
    bool over_fragment;  ///< under pushdown kAuto / kAlways
  };
  const Case cases[] = {
      {"/descendant::t0/child::t1[2]", true},
      {"/descendant::t0/descendant::t1[last()]", true},
      {"/descendant::t0/following::t1[3]", true},
      {"/descendant::t2/preceding-sibling::t1[1]", true},
      {"/descendant::t0/child::t1[2][child::t2]", true},
      {"/descendant::t0/child::t1[child::t2][1]", false},  // existence first
      {"/descendant::t0/child::*[2]", false},              // no name test
      {"/descendant::t2/ancestor::t0[1]", false},  // <= h nodes per context
      {"/descendant::t1/parent::t0[1]", false},
  };
  for (PushdownMode pushdown :
       {PushdownMode::kAuto, PushdownMode::kAlways, PushdownMode::kNever}) {
    SessionOptions opt;
    opt.hints.pushdown = pushdown;
    Session s = std::move(db->CreateSession(opt)).value();
    for (const Case& c : cases) {
      auto r = s.Run(c.query);
      ASSERT_TRUE(r.ok()) << c.query << ": " << r.status();
      const std::string& step = r.value().trace.back().description;
      ASSERT_NE(step.find("positional rank join"), std::string::npos)
          << c.query << ": " << step;
      EXPECT_EQ(step.find("positional rank join over tag fragment") !=
                    std::string::npos,
                c.over_fragment && pushdown != PushdownMode::kNever)
          << c.query << " pushdown " << static_cast<int>(pushdown) << ": "
          << step;
      EXPECT_EQ(r.value().PlanSummary().back().op, "positional") << c.query;
    }
  }
}

TEST(PositionalRankJoinTest, ColdPoolChargesFaults) {
  auto doc_xml = sj::testing::RandomDocumentXml(99, {});
  auto db = Database::FromXml(doc_xml).value();
  SessionOptions opt;
  opt.backend = StorageBackend::kPaged;
  Session s = std::move(db->CreateSession(opt)).value();
  storage::BufferPool* pool = s.pool();
  ASSERT_NE(pool, nullptr);
  pool->FlushAll();
  pool->ResetStats();
  auto r = s.Run("/descendant::t0/child::t1[2]");
  ASSERT_TRUE(r.ok());
  // The positional rank join reads through the pool -- a cold pool
  // faults, and the per-step summaries account for them.
  EXPECT_GT(pool->stats().faults, 0u) << r.value().Explain();
  uint64_t summed = 0;
  for (const PlanStepSummary& step : r.value().PlanSummary()) {
    summed += step.faults;
  }
  EXPECT_GT(summed, 0u) << r.value().Explain();
}

}  // namespace
}  // namespace sj
