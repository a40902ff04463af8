// End-to-end integration tests: the full pipeline (generate -> serialize ->
// parse -> encode -> query) and the paper's workload queries evaluated by
// every strategy and baseline on one XMark-style instance, checked
// against the path oracle.

#include <gtest/gtest.h>

#include "api/database.h"
#include "baselines/mpmgjn.h"
#include "baselines/naive.h"
#include "baselines/sql_plan.h"
#include "core/parallel.h"
#include "core/staircase_join.h"
#include "core/tag_view.h"
#include "encoding/loader.h"
#include "path_oracle.h"
#include "xmlgen/xmark.h"

namespace sj {
namespace {

class XMarkPipelineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    xmlgen::XMarkOptions opt;
    opt.size_mb = 1.1;
    db_ = Database::FromXmark(opt).value().release();
    snap_ = db_->CurrentSnapshot();
    doc_ = snap_->images().doc.get();
    index_ = snap_->images().tag_index.get();
  }
  static void TearDownTestSuite() {
    doc_ = nullptr;
    index_ = nullptr;
    snap_.reset();
    delete db_;
    db_ = nullptr;
  }

  /// Runs `query` in a fresh session; aborts the test on failure.
  static NodeSequence Run(const char* query, SessionOptions opts = {}) {
    auto session = db_->CreateSession(opts);
    EXPECT_TRUE(session.ok()) << session.status();
    auto r = session.value().Run(query);
    EXPECT_TRUE(r.ok()) << query << ": " << r.status();
    return r.ok() ? std::move(r).value().nodes : NodeSequence{};
  }

  static Database* db_;
  /// Pins the images doc_ and index_ point into.
  static std::shared_ptr<const DatabaseSnapshot> snap_;
  static const DocTable* doc_;
  static const TagIndex* index_;
};

Database* XMarkPipelineTest::db_ = nullptr;
std::shared_ptr<const DatabaseSnapshot> XMarkPipelineTest::snap_;
const DocTable* XMarkPipelineTest::doc_ = nullptr;
const TagIndex* XMarkPipelineTest::index_ = nullptr;

TEST_F(XMarkPipelineTest, Q1AllStrategiesAgree) {
  SessionOptions pushdown;
  pushdown.hints.pushdown = PushdownMode::kAlways;
  SessionOptions no_pushdown;
  no_pushdown.hints.pushdown = PushdownMode::kNever;
  SessionOptions parallel = no_pushdown;
  parallel.num_threads = 4;
  SessionOptions paged;
  paged.backend = StorageBackend::kPaged;

  NodeSequence expected = Run(xmlgen::kQ1, no_pushdown);
  EXPECT_GT(expected.size(), 0u);
  EXPECT_EQ(testing::PathOracle(*doc_, xmlgen::kQ1).value(), expected);
  for (const SessionOptions& opts : {pushdown, parallel, paged}) {
    EXPECT_EQ(Run(xmlgen::kQ1, opts), expected);
  }
}

TEST_F(XMarkPipelineTest, Q2AllStrategiesAgreeIncludingRewrite) {
  NodeSequence q2 = Run(xmlgen::kQ2);
  EXPECT_GT(q2.size(), 0u);
  EXPECT_EQ(Run(xmlgen::kQ2Rewrite), q2);
  EXPECT_EQ(testing::PathOracle(*doc_, xmlgen::kQ2).value(), q2);
  SessionOptions paged;
  paged.backend = StorageBackend::kPaged;
  EXPECT_EQ(Run(xmlgen::kQ2, paged), q2);
}

TEST_F(XMarkPipelineTest, Q2StepsMatchSqlPlanAndMpmgjn) {
  // Step 1: /descendant::increase.
  TagId increase = doc_->tags().Lookup("increase").value();
  TagId bidder = doc_->tags().Lookup("bidder").value();
  NodeSequence s1 =
      StaircaseJoinView(*doc_, index_->view(increase), {doc_->root()},
                        Axis::kDescendant)
          .value();
  SqlPlanEvaluator sql(*doc_);
  EXPECT_EQ(sql.AxisStep({doc_->root()}, Axis::kDescendant, increase).value(),
            s1);

  // Step 2: ancestor::bidder via view join, MPMGJN, and naive + filter.
  NodeSequence s2 =
      StaircaseJoinView(*doc_, index_->view(bidder), s1, Axis::kAncestor)
          .value();
  const TagView& bview = index_->view(bidder);
  JoinList blist;
  blist.pre = bview.pre;
  blist.post = bview.post;
  EXPECT_EQ(
      MpmgjnAncestors(blist, MakeJoinList(*doc_, s1), doc_->height()).value(),
      s2);
  NodeSequence naive_anc = NaiveAxisStep(*doc_, s1, Axis::kAncestor).value();
  NodeSequence filtered;
  for (NodeId v : naive_anc) {
    if (doc_->kind(v) == NodeKind::kElement && doc_->tag(v) == bidder) {
      filtered.push_back(v);
    }
  }
  EXPECT_EQ(filtered, s2);
}

TEST_F(XMarkPipelineTest, DuplicateRatioMatchesPaperExperiment1) {
  // Experiment 1: the naive ancestor step of Q2 produces ~70-75% duplicates
  // (increase nodes sit at level 4; many paths share open_auction etc.).
  TagId increase = doc_->tags().Lookup("increase").value();
  NodeSequence s1 =
      StaircaseJoinView(*doc_, index_->view(increase), {doc_->root()},
                        Axis::kDescendant)
          .value();
  JoinStats stats;
  (void)NaiveAxisStep(*doc_, s1, Axis::kAncestor, &stats).value();
  double dup_ratio = static_cast<double>(stats.duplicates_removed) /
                     static_cast<double>(stats.candidates_produced);
  EXPECT_GT(dup_ratio, 0.60);
  EXPECT_LT(dup_ratio, 0.85);
  // Every increase path has length 4 to the root.
  EXPECT_EQ(stats.candidates_produced, 4 * s1.size());
}

TEST_F(XMarkPipelineTest, SkippingBoundHoldsOnXMark) {
  // Section 3.3: |touched| <= |result| + |context| for the descendant step.
  TagId profile = doc_->tags().Lookup("profile").value();
  NodeSequence profiles = index_->view(profile).pre;
  StaircaseOptions opt;
  opt.skip_mode = SkipMode::kSkip;
  opt.keep_attributes = true;
  JoinStats stats;
  NodeSequence r =
      StaircaseJoin(*doc_, profiles, Axis::kDescendant, opt, &stats).value();
  EXPECT_LE(stats.nodes_accessed(), r.size() + profiles.size());
  // ... and without skipping the scan covers the tail of the plane.
  StaircaseOptions none;
  none.skip_mode = SkipMode::kNone;
  JoinStats nstats;
  (void)StaircaseJoin(*doc_, profiles, Axis::kDescendant, none, &nstats);
  // The skipping factor grows with document size (Fig. 11(c)); at this
  // small scale a >2x reduction already shows the mechanism.
  EXPECT_GT(nstats.nodes_accessed(), 2 * stats.nodes_accessed());
  EXPECT_EQ(stats.nodes_accessed() + stats.nodes_skipped,
            nstats.nodes_accessed());
}

TEST_F(XMarkPipelineTest, SerializeParseRoundTripPreservesQueries) {
  xmlgen::XMarkOptions opt;
  opt.size_mb = 0.3;
  std::string text = xmlgen::GenerateXMarkText(opt).value();
  auto direct = Database::FromXmark(opt).value();
  auto reparsed = Database::FromXml(text).value();
  Session s1 = std::move(direct->CreateSession()).value();
  Session s2 = std::move(reparsed->CreateSession()).value();
  for (const char* q : {xmlgen::kQ1, xmlgen::kQ2,
                        "/descendant::person/child::name",
                        "/descendant::item/attribute::id"}) {
    EXPECT_EQ(s1.Run(q).value().nodes, s2.Run(q).value().nodes) << q;
  }
}

TEST_F(XMarkPipelineTest, ParallelAgreesOnXMark) {
  TagId profile = doc_->tags().Lookup("profile").value();
  NodeSequence profiles = index_->view(profile).pre;
  NodeSequence serial =
      StaircaseJoin(*doc_, profiles, Axis::kDescendant).value();
  for (unsigned threads : {2u, 4u, 8u}) {
    EXPECT_EQ(ParallelStaircaseJoin(*doc_, profiles, Axis::kDescendant, {},
                                    threads)
                  .value(),
              serial);
  }
}

}  // namespace
}  // namespace sj
