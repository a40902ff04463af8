// Tests for XPath evaluation through the public Database/Session facade:
// hand-checked queries on a small document, every backend x pushdown x
// twig session == the path oracle (tests/path_oracle.h) on random
// documents x random queries (pristine, edited and compacted), pushdown
// equivalence, predicates, and the EXPLAIN trace carried inside
// QueryResult.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "api/database.h"
#include "core/axis.h"
#include "core/tag_view.h"
#include "encoding/loader.h"
#include "path_oracle.h"
#include "test_util.h"
#include "util/rng.h"
#include "xpath/evaluator.h"
#include "xpath/parser.h"

namespace sj {
namespace {

// <site>
//   <people><person id="p0"><name>n</name><profile><education>e
//     </education></profile></person>
//            <person id="p1"><name>m</name></person></people>
//   <auctions><auction><bidder><increase>i</increase></bidder>
//             <bidder><increase>j</increase></bidder></auction></auctions>
// </site>
constexpr const char* kSmallDoc =
    "<site><people><person id=\"p0\"><name>n</name><profile><education>e"
    "</education></profile></person><person id=\"p1\"><name>m</name>"
    "</person></people><auctions><auction><bidder><increase>i</increase>"
    "</bidder><bidder><increase>j</increase></bidder></auction></auctions>"
    "</site>";

class XPathEvaluatorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    DatabaseOptions open;
    open.build_paged = false;  // backend equivalence lives in other suites
    db_ = Database::FromXml(kSmallDoc, open).value();
    doc_ = &db_->doc();
  }

  QueryResult RunQuery(const std::string& q, SessionOptions opts = {}) {
    auto session = db_->CreateSession(opts);
    EXPECT_TRUE(session.ok()) << session.status();
    auto r = session.value().Run(q);
    EXPECT_TRUE(r.ok()) << q << ": " << r.status();
    return r.ok() ? std::move(r).value() : QueryResult{};
  }

  NodeSequence Eval(const std::string& q, SessionOptions opts = {}) {
    return RunQuery(q, opts).nodes;
  }

  /// Names (tags / "#text" etc.) of the result nodes, for readable asserts.
  std::vector<std::string> Names(const NodeSequence& nodes) {
    std::vector<std::string> out;
    for (NodeId v : nodes) {
      switch (doc_->kind(v)) {
        case NodeKind::kElement:
          out.push_back(doc_->tags().Name(doc_->tag(v)));
          break;
        case NodeKind::kAttribute:
          out.push_back("@" + doc_->tags().Name(doc_->tag(v)));
          break;
        case NodeKind::kText:
          out.push_back("#text:" + std::string(doc_->value(v)));
          break;
        default:
          out.push_back("#other");
      }
    }
    return out;
  }

  std::unique_ptr<Database> db_;
  const DocTable* doc_ = nullptr;
};

TEST_F(XPathEvaluatorTest, DescendantNameTest) {
  EXPECT_EQ(Names(Eval("/descendant::education")),
            (std::vector<std::string>{"education"}));
  EXPECT_EQ(Names(Eval("/descendant::person")),
            (std::vector<std::string>{"person", "person"}));
}

TEST_F(XPathEvaluatorTest, PaperQ2Shape) {
  NodeSequence bidders = Eval("/descendant::increase/ancestor::bidder");
  EXPECT_EQ(Names(bidders), (std::vector<std::string>{"bidder", "bidder"}));
}

TEST_F(XPathEvaluatorTest, Q2RewriteEquivalence) {
  EXPECT_EQ(Eval("/descendant::increase/ancestor::bidder"),
            Eval("/descendant::bidder[descendant::increase]"));
}

TEST_F(XPathEvaluatorTest, ChildStepsFollowDocumentStructure) {
  EXPECT_EQ(Names(Eval("/child::people/child::person/child::name")),
            (std::vector<std::string>{"name", "name"}));
  // Default axis is child.
  EXPECT_EQ(Eval("/people/person/name"),
            Eval("/child::people/child::person/child::name"));
}

TEST_F(XPathEvaluatorTest, AttributesOnlyViaAttributeAxis) {
  EXPECT_EQ(Names(Eval("/descendant::person/attribute::id")),
            (std::vector<std::string>{"@id", "@id"}));
  // descendant never returns attributes.
  for (NodeId v : Eval("/descendant::node()")) {
    EXPECT_NE(doc_->kind(v), NodeKind::kAttribute);
  }
}

TEST_F(XPathEvaluatorTest, TextNodes) {
  auto texts = Names(Eval("/descendant::education/child::text()"));
  ASSERT_EQ(texts.size(), 1u);
  EXPECT_EQ(texts[0], "#text:e");
}

TEST_F(XPathEvaluatorTest, ParentAndSelf) {
  EXPECT_EQ(Names(Eval("/descendant::profile/parent::*")),
            (std::vector<std::string>{"person"}));
  EXPECT_EQ(Names(Eval("/self::site")), (std::vector<std::string>{"site"}));
  EXPECT_TRUE(Eval("/self::nosuch").empty());
}

TEST_F(XPathEvaluatorTest, FollowingPreceding) {
  // people precedes auctions.
  NodeSequence foll = Eval("/child::people/following::auction");
  EXPECT_EQ(Names(foll), (std::vector<std::string>{"auction"}));
  NodeSequence prec = Eval("/child::auctions/preceding::name");
  EXPECT_EQ(prec.size(), 2u);
}

TEST_F(XPathEvaluatorTest, SiblingAxes) {
  EXPECT_EQ(Names(Eval("/child::people/following-sibling::*")),
            (std::vector<std::string>{"auctions"}));
  EXPECT_EQ(Names(Eval("/child::auctions/preceding-sibling::*")),
            (std::vector<std::string>{"people"}));
}

TEST_F(XPathEvaluatorTest, PredicateFiltersContext) {
  EXPECT_EQ(Names(Eval("/descendant::person[child::profile]")).size(), 1u);
  EXPECT_EQ(Names(Eval("/descendant::person[child::name]")).size(), 2u);
  EXPECT_TRUE(Eval("/descendant::person[child::nosuch]").empty());
}

TEST_F(XPathEvaluatorTest, UnknownTagYieldsEmpty) {
  EXPECT_TRUE(Eval("/descendant::doesnotexist").empty());
  EXPECT_TRUE(Eval("/descendant::doesnotexist/ancestor::person").empty());
}

TEST_F(XPathEvaluatorTest, DoubleSlash) {
  EXPECT_EQ(Eval("//education"), Eval("/descendant::education"));
  EXPECT_EQ(Eval("//person//increase").size(), 0u);
  EXPECT_EQ(Eval("//auction//increase").size(), 2u);
}

TEST_F(XPathEvaluatorTest, UnionMergesBranches) {
  EXPECT_EQ(Eval("/descendant::name | /descendant::increase").size(), 4u);
  // Branch traces are concatenated, not replaced.
  QueryResult r = RunQuery("/descendant::name | /descendant::increase");
  EXPECT_EQ(r.trace.size(), 2u);
}

TEST_F(XPathEvaluatorTest, PushdownModesAgree) {
  for (const char* q :
       {"/descendant::education", "/descendant::increase/ancestor::bidder",
        "/descendant::person/descendant::name"}) {
    SessionOptions never, always;
    never.hints.pushdown = PushdownMode::kNever;
    always.hints.pushdown = PushdownMode::kAlways;
    EXPECT_EQ(Eval(q, never), Eval(q, always)) << q;
  }
}

TEST_F(XPathEvaluatorTest, TraceRecordsStrategy) {
  SessionOptions opts;
  opts.hints.pushdown = PushdownMode::kAlways;
  QueryResult r = RunQuery("/descendant::education", opts);
  ASSERT_EQ(r.trace.size(), 1u);
  EXPECT_NE(r.trace[0].description.find("pushdown"), std::string::npos);
  EXPECT_NE(r.Explain().find("step 1"), std::string::npos);
  EXPECT_EQ(r.totals.result_size, r.nodes.size());
  opts.hints.pushdown = PushdownMode::kNever;
  QueryResult r2 = RunQuery("/descendant::education", opts);
  ASSERT_EQ(r2.trace.size(), 1u);
  EXPECT_EQ(r2.trace[0].description.find("pushdown"), std::string::npos);
}

TEST_F(XPathEvaluatorTest, RelativePathUsesGivenContext) {
  Session session = std::move(db_->CreateSession()).value();
  // From the first bidder only one increase is reachable.
  NodeSequence bidders =
      session.Run("/descendant::bidder").value().nodes;
  ASSERT_EQ(bidders.size(), 2u);
  EXPECT_EQ(session.Run("descendant::increase", {bidders[0]})
                .value().nodes.size(),
            1u);
  EXPECT_EQ(session.Run("descendant::increase", bidders).value().nodes.size(),
            2u);
}

TEST_F(XPathEvaluatorTest, MatchesPathOracleOnSmallDoc) {
  for (const char* q :
       {"/descendant::name", "/descendant::increase/ancestor::bidder",
        "/descendant::person/following::increase",
        "/child::people/descendant-or-self::*"}) {
    EXPECT_EQ(Eval(q), sj::testing::PathOracle(*doc_, q).value()) << q;
  }
}

// --- Random queries against the path oracle ---------------------------------

constexpr const char* kTags[] = {"t0", "t1", "t2", "t3", "t4", "t5"};
constexpr const char* kAttributes[] = {"a0", "a1", "b0"};
/// Axis values run from kAncestor to kSelf (core/axis.h).
constexpr uint64_t kAxisCount = static_cast<uint64_t>(Axis::kSelf) + 1;

constexpr const char* kAppendedSubtree =
    "<t1 a0=\"v\"><t2>x</t2><t0><t6/></t0></t1>";
constexpr const char* kNestedSubtree = "<t3><t0/>y<t1/></t3>";

std::string RandomPredicate(Rng& rng, int depth);

/// A random relative path of 1-3 steps: every axis, name / `*` /
/// `node()` / `text()` tests, `//` separators, and (above the nesting
/// limit) predicates. A path that starts at the document element mostly
/// opens with a downward axis -- from the root every other axis is
/// empty or the root itself.
std::string RandomPath(Rng& rng, int depth, bool from_root) {
  std::string q;
  const size_t steps = 1 + rng.Below(depth == 0 ? 3 : 2);
  for (size_t i = 0; i < steps; ++i) {
    if (i > 0) q += rng.Percent(15) ? "//" : "/";
    Axis axis = static_cast<Axis>(rng.Below(kAxisCount));
    if (i == 0 && from_root && rng.Percent(80)) {
      axis = rng.Percent(50) ? Axis::kDescendant : Axis::kDescendantOrSelf;
    }
    q += std::string(AxisName(axis)) + "::";
    switch (rng.Below(8)) {
      case 0:
        q += "node()";
        break;
      case 1:
      case 2:
        q += "*";
        break;
      case 3:
        q += "text()";
        break;
      default:
        if (axis == Axis::kAttribute) {
          q += kAttributes[rng.Below(std::size(kAttributes))];
        } else {
          q += kTags[rng.Below(std::size(kTags))];
        }
        break;
    }
    if (depth < 2 && rng.Percent(35)) q += RandomPredicate(rng, depth + 1);
  }
  return q;
}

/// `[k]`, `[last()]`, an absolute existence test, or a relative one
/// (which may carry predicates of its own).
std::string RandomPredicate(Rng& rng, int depth) {
  switch (rng.Below(5)) {
    case 0:
      return "[" + std::to_string(1 + rng.Below(3)) + "]";
    case 1:
      return "[last()]";
    case 2:
      return "[/" + RandomPath(rng, depth, /*from_root=*/true) + "]";
    default:
      return "[" + RandomPath(rng, depth, /*from_root=*/false) + "]";
  }
}

/// A random absolute query, sometimes a two-branch union.
std::string RandomQuery(Rng& rng) {
  auto branch = [&rng] {
    return (rng.Percent(15) ? "//" : "/") +
           RandomPath(rng, 0, /*from_root=*/true);
  };
  std::string q = branch();
  if (rng.Percent(20)) q += " | " + branch();
  return q;
}

/// The first element at `level` in document order (the root if none).
NodeId FirstElementAt(const DocTable& doc, uint32_t level) {
  for (NodeId v = 0; v < doc.size(); ++v) {
    if (doc.kind(v) == NodeKind::kElement && doc.level(v) == level) return v;
  }
  return doc.root();
}

/// Three commits: a subtree (with a fresh tag) appended under the root, a
/// level-2 element deleted, a subtree inserted under a level-1 element.
/// Edit coordinates are located on the merged document of each commit's
/// starting snapshot.
void EditDocument(Database& db) {
  for (int edit = 0; edit < 3; ++edit) {
    EditTxn txn = db.BeginEdit();
    auto merged = db.CurrentSnapshot()->MergedDoc();
    ASSERT_TRUE(merged.ok()) << merged.status();
    const DocTable& doc = *merged.value();
    Status status;
    if (edit == 0) {
      status = txn.InsertLastChild(doc.root(), kAppendedSubtree);
    } else if (edit == 1 && FirstElementAt(doc, 2) != doc.root()) {
      status = txn.DeleteSubtree(FirstElementAt(doc, 2));
    } else if (edit == 2) {
      status = txn.InsertLastChild(FirstElementAt(doc, 1), kNestedSubtree);
    }
    ASSERT_TRUE(status.ok()) << status;
    ASSERT_TRUE(txn.Commit().ok());
  }
}

/// "backend B pushdown P twig T", for failure messages.
std::string Label(const SessionOptions& o) {
  return "backend " + std::to_string(static_cast<int>(o.backend)) +
         " pushdown " + std::to_string(static_cast<int>(o.hints.pushdown)) +
         " twig " + std::to_string(static_cast<int>(o.hints.twig));
}

class XPathEnginePropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(XPathEnginePropertyTest, MatchesPathOracle) {
  const std::string xml = sj::testing::RandomDocumentXml(GetParam(), {});
  auto db = Database::FromXml(xml).value();
  Rng rng(GetParam() * 31 + 7);
  std::vector<std::string> queries;
  for (int i = 0; i < 40; ++i) queries.push_back(RandomQuery(rng));

  // Every backend x pushdown x twig session; each follows the database
  // through the edits and the compaction below.
  std::vector<Session> sessions;
  for (StorageBackend backend :
       {StorageBackend::kMemory, StorageBackend::kPaged,
        StorageBackend::kCompressed}) {
    for (PushdownMode pushdown :
         {PushdownMode::kAuto, PushdownMode::kAlways, PushdownMode::kNever}) {
      for (TwigMode twig : {TwigMode::kAuto, TwigMode::kNever}) {
        SessionOptions options;
        options.backend = backend;
        options.hints.pushdown = pushdown;
        options.hints.twig = twig;
        sessions.push_back(std::move(db->CreateSession(options)).value());
      }
    }
  }

  auto check = [&](const char* snapshot) {
    auto snap = db->CurrentSnapshot();
    const DocTable& doc = *snap->MergedDoc().value();
    for (const std::string& q : queries) {
      auto expected = sj::testing::PathOracle(doc, q);
      ASSERT_TRUE(expected.ok()) << q << ": " << expected.status();
      for (Session& session : sessions) {
        auto got = session.Run(q);
        ASSERT_TRUE(got.ok()) << q << ": " << got.status();
        EXPECT_EQ(got.value().nodes, expected.value())
            << q << " " << snapshot << " " << Label(session.options());
      }
    }
  };
  check("pristine");
  EditDocument(*db);
  ASSERT_TRUE(db->CurrentSnapshot()->edited());
  check("edited");
  ASSERT_TRUE(db->Compact().ok());
  check("compacted");
}

INSTANTIATE_TEST_SUITE_P(Seeds, XPathEnginePropertyTest,
                         ::testing::Values(301, 302, 303, 304, 305));

TEST_F(XPathEvaluatorTest, CompilePlansEveryPredicatePath) {
  xpath::Evaluator evaluator(*doc_);
  const xpath::CompiledPlan plan = evaluator.Compile(
      xpath::ParseXPathUnion("/descendant::person[child::name][1]"
                             "[child::profile[child::education]][last()]")
          .value());
  ASSERT_EQ(plan.branches.size(), 1u);
  const xpath::Step& step = plan.expr.branches[0].steps[0];
  const xpath::PlannedStep& planned = plan.branches[0].steps[0];
  // One slot per predicate, in predicate order.
  ASSERT_EQ(planned.predicate_paths.size(), step.predicates.size());
  ASSERT_EQ(planned.predicate_paths.size(), 4u);
  // [1] and [last()] have no path to plan.
  EXPECT_TRUE(planned.predicate_paths[1].steps.empty());
  EXPECT_TRUE(planned.predicate_paths[3].steps.empty());
  // child::name is planned like a branch step.
  ASSERT_EQ(planned.predicate_paths[0].steps.size(), 1u);
  EXPECT_EQ(planned.predicate_paths[0].steps[0].tag,
            doc_->tags().Lookup("name"));
  // child::profile[child::education]: the nested predicate is planned
  // too, one level down.
  const xpath::PlannedPath& outer = planned.predicate_paths[2];
  ASSERT_EQ(outer.steps.size(), 1u);
  EXPECT_EQ(outer.steps[0].tag, doc_->tags().Lookup("profile"));
  ASSERT_EQ(outer.steps[0].predicate_paths.size(), 1u);
  const xpath::PlannedPath& inner = outer.steps[0].predicate_paths[0];
  ASSERT_EQ(inner.steps.size(), 1u);
  EXPECT_EQ(inner.steps[0].tag, doc_->tags().Lookup("education"));
  EXPECT_TRUE(inner.steps[0].predicate_paths.empty());

  // The compiled plan runs to the answer of the session facade.
  auto nodes = evaluator.Evaluate(plan, {});
  ASSERT_TRUE(nodes.ok()) << nodes.status();
  EXPECT_EQ(Names(nodes.value()), (std::vector<std::string>{"person"}));
}

TEST(XPathEvaluatorErrorTest, BadInputs) {
  DatabaseOptions open;
  open.build_paged = false;
  auto db = Database::FromXml(kSmallDoc, open).value();
  Session session = std::move(db->CreateSession()).value();
  EXPECT_FALSE(session.Run("///").ok());
  EXPECT_FALSE(session.Run("child::a", {5, 2}).ok());   // unsorted context
  EXPECT_FALSE(session.Run("child::a", {9999}).ok());   // out of range
}

TEST(DatabaseOpenTest, PagedBackendRequiresPagedImage) {
  DatabaseOptions open;
  open.build_paged = false;
  auto db = Database::FromXml(kSmallDoc, open).value();
  SessionOptions paged;
  paged.backend = StorageBackend::kPaged;
  auto session = db->CreateSession(paged);
  EXPECT_FALSE(session.ok());
  EXPECT_NE(session.status().ToString().find("paged"), std::string::npos);
}

}  // namespace
}  // namespace sj
