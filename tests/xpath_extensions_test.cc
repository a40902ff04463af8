// Tests for the XPath extensions beyond the paper's fragment: positional
// predicates (forward and reverse axes), union expressions, and the
// multi-document collection (paper footnote 1).

#include <gtest/gtest.h>

#include "core/tag_view.h"
#include "encoding/collection.h"
#include "encoding/loader.h"
#include "path_oracle.h"
#include "test_util.h"
#include "xmlgen/xmark.h"
#include "xpath/evaluator.h"
#include "xpath/parser.h"

namespace sj::xpath {
namespace {

/// Compiles and evaluates `query` from `context` (default: the document
/// element) -- the one evaluation route.
NodeSequence EvalQuery(Evaluator& ev, const std::string& query,
                       NodeSequence context = {0}) {
  auto expr = ParseXPathUnion(query);
  EXPECT_TRUE(expr.ok()) << query << ": " << expr.status();
  if (!expr.ok()) return {};
  auto r = ev.Evaluate(ev.Compile(std::move(expr).value()), context);
  EXPECT_TRUE(r.ok()) << query << ": " << r.status();
  return r.ok() ? std::move(r).value() : NodeSequence{};
}

constexpr const char* kListDoc =
    "<list><item>a</item><item>b</item><item>c</item>"
    "<group><item>d</item><item>e</item></group></list>";

class PositionalTest : public ::testing::Test {
 protected:
  void SetUp() override { doc_ = LoadDocument(kListDoc).value(); }

  std::vector<std::string> Texts(const NodeSequence& nodes) {
    std::vector<std::string> out;
    for (NodeId v : nodes) {
      for (NodeId u = v + 1; u < doc_->size() && doc_->IsDescendant(u, v);
           ++u) {
        if (doc_->kind(u) == NodeKind::kText) {
          out.emplace_back(doc_->value(u));
          break;
        }
      }
    }
    return out;
  }

  NodeSequence Eval(const std::string& q) {
    Evaluator ev(*doc_);
    return EvalQuery(ev, q);
  }

  std::unique_ptr<DocTable> doc_;
};

TEST_F(PositionalTest, ChildPosition) {
  EXPECT_EQ(Texts(Eval("/child::item[1]")),
            (std::vector<std::string>{"a"}));
  EXPECT_EQ(Texts(Eval("/child::item[3]")),
            (std::vector<std::string>{"c"}));
  EXPECT_TRUE(Eval("/child::item[4]").empty());  // only 3 direct items
}

TEST_F(PositionalTest, LastFunction) {
  EXPECT_EQ(Texts(Eval("/child::item[last()]")),
            (std::vector<std::string>{"c"}));
  EXPECT_EQ(Texts(Eval("/descendant::item[last()]")),
            (std::vector<std::string>{"e"}));
}

TEST_F(PositionalTest, PositionIsPerContextNode) {
  // child::item[1] from (list, group): the first item of EACH context.
  EXPECT_EQ(Texts(Eval("/descendant-or-self::*/child::item[1]")),
            (std::vector<std::string>{"a", "d"}));
}

TEST_F(PositionalTest, ReverseAxisCountsOutward) {
  // ancestor::*[1] of the nested items is the nearest ancestor (group).
  auto doc = LoadDocument(kListDoc).value();
  Evaluator ev(*doc);
  NodeSequence nested = EvalQuery(ev, "/child::group/child::item");
  ASSERT_EQ(nested.size(), 2u);
  NodeSequence r = EvalQuery(ev, "ancestor::*[1]", {nested[0]});
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(doc->tags().Name(doc->tag(r[0])), "group");
  r = EvalQuery(ev, "ancestor::*[2]", {nested[0]});
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(doc->tags().Name(doc->tag(r[0])), "list");
}

TEST_F(PositionalTest, PositionalCombinesWithExists) {
  // Second item that has a text child == "b".
  EXPECT_EQ(Texts(Eval("/child::item[child::text()][2]")),
            (std::vector<std::string>{"b"}));
  // Positional then existence.
  EXPECT_EQ(Texts(Eval("/child::item[2][child::text()]")),
            (std::vector<std::string>{"b"}));
}

TEST_F(PositionalTest, ParserRejectsPositionZero) {
  EXPECT_FALSE(ParseXPath("item[0]").ok());
  EXPECT_TRUE(ParseXPath("item[1]").ok());
  EXPECT_TRUE(ParseXPath("item[last()]").ok());
}

TEST_F(PositionalTest, ToStringRoundTrip) {
  for (const char* q : {"child::item[2]", "child::item[last()]",
                        "descendant::item[1][child::text()]"}) {
    LocationPath p = ParseXPath(q).value();
    EXPECT_EQ(ToString(p), q);
  }
}

TEST(UnionTest, MergesBranchesInDocumentOrder) {
  auto doc = LoadDocument(kListDoc).value();
  Evaluator ev(*doc);
  NodeSequence u = EvalQuery(ev, "/child::group | /child::item");
  // items (pre 1,3,5) come before group (pre 7) in document order.
  ASSERT_EQ(u.size(), 4u);
  EXPECT_TRUE(IsDocumentOrder(u));
  EXPECT_EQ(doc->tags().Name(doc->tag(u[3])), "group");
}

TEST(UnionTest, DeduplicatesOverlappingBranches) {
  auto doc = LoadDocument(kListDoc).value();
  Evaluator ev(*doc);
  EXPECT_EQ(EvalQuery(ev, "//item | //item"), EvalQuery(ev, "//item"));
}

TEST(UnionTest, SingleBranchEqualsPlainPath) {
  auto doc = LoadDocument(kListDoc).value();
  Evaluator ev(*doc);
  EXPECT_EQ(EvalQuery(ev, "/descendant::item"),
            sj::testing::PathOracle(*doc, "/descendant::item").value());
}

TEST(UnionTest, ParseErrors) {
  EXPECT_FALSE(ParseXPathUnion("a |").ok());
  EXPECT_FALSE(ParseXPathUnion("| a").ok());
  EXPECT_FALSE(ParseXPathUnion("a | b |").ok());
}

TEST(UnionTest, ExplainCoversEveryBranch) {
  auto doc = LoadDocument(kListDoc).value();
  Evaluator ev(*doc);
  const std::string q = "/child::group/child::item | /child::item";
  EXPECT_EQ(EvalQuery(ev, q).size(), 5u);
  // Two steps from the first branch + one from the second: clearing the
  // trace per branch used to leave only the final branch visible.
  ASSERT_EQ(ev.last_trace().size(), 3u);
  EXPECT_NE(ev.last_trace()[0].description.find("group"), std::string::npos);
  EXPECT_NE(ExplainTrace(ev.last_trace()).find("step 3"), std::string::npos);
  // A following Evaluate starts a fresh trace again.
  EXPECT_EQ(EvalQuery(ev, "/child::item").size(), 3u);
  EXPECT_EQ(ev.last_trace().size(), 1u);
}

TEST(PredicateTest, AbsolutePredicatePathsAreContextInvariant) {
  auto doc = LoadDocument(kListDoc).value();
  Evaluator ev(*doc);
  // The verdict comes from the document root, not the context node: all
  // nodes survive a true absolute predicate, none survive a false one
  // (evaluated once per step, reused for every context node).
  EXPECT_EQ(EvalQuery(ev, "//item[/child::group]"), EvalQuery(ev, "//item"));
  EXPECT_TRUE(EvalQuery(ev, "//item[/child::nope]").empty());
  // Same on the positional rank join.
  EXPECT_EQ(EvalQuery(ev, "/child::item[2][/child::group]"),
            EvalQuery(ev, "/child::item[2]"));
  EXPECT_TRUE(EvalQuery(ev, "/child::item[2][/child::nope]").empty());
}

// --- Collections (paper footnote 1) -----------------------------------------

TEST(CollectionTest, GathersDocumentsUnderVirtualRoot) {
  CollectionBuilder builder;
  ASSERT_TRUE(builder.AddDocumentText("<a><b/></a>").ok());
  ASSERT_TRUE(builder.AddDocumentText("<a><b/><b/></a>").ok());
  ASSERT_TRUE(builder.AddDocumentText("<c/>").ok());
  EXPECT_EQ(builder.document_count(), 3u);
  auto doc = builder.Finish().value();
  NodeSequence roots = builder.document_roots();
  ASSERT_EQ(roots.size(), 3u);
  EXPECT_EQ(doc->tags().Name(doc->tag(doc->root())), "collection");
  EXPECT_EQ(doc->level(roots[0]), 1u);

  // Queries span all documents.
  Evaluator ev(*doc);
  EXPECT_EQ(EvalQuery(ev, "/descendant::b").size(), 3u);
  EXPECT_EQ(EvalQuery(ev, "/child::a").size(), 2u);
}

TEST(CollectionTest, DocumentOfAttributesResults) {
  CollectionBuilder builder;
  ASSERT_TRUE(builder.AddDocumentText("<a><b/></a>").ok());
  ASSERT_TRUE(builder.AddDocumentText("<a><b x=\"1\"/></a>").ok());
  auto doc = builder.Finish().value();
  NodeSequence roots = builder.document_roots();

  Evaluator ev(*doc);
  NodeSequence bs = EvalQuery(ev, "/descendant::b");
  ASSERT_EQ(bs.size(), 2u);
  EXPECT_EQ(DocumentOf(roots, *doc, bs[0]), 0u);
  EXPECT_EQ(DocumentOf(roots, *doc, bs[1]), 1u);
  EXPECT_EQ(DocumentOf(roots, *doc, roots[1]), 1u);
  // The virtual root belongs to no document.
  EXPECT_EQ(DocumentOf(roots, *doc, doc->root()), roots.size());
}

TEST(CollectionTest, MixesParsedAndGeneratedDocuments) {
  CollectionBuilder builder;
  ASSERT_TRUE(builder.AddDocumentText("<site><x/></site>").ok());
  xmlgen::XMarkOptions opt;
  opt.size_mb = 0.2;
  ASSERT_TRUE(builder
                  .AddDocumentEvents([&](xml::EventHandler* h) {
                    return xmlgen::GenerateXMark(opt, h);
                  })
                  .ok());
  auto doc = builder.Finish().value();
  EXPECT_EQ(builder.document_roots().size(), 2u);
  Evaluator ev(*doc);
  // Both site elements, one per document.
  EXPECT_EQ(EvalQuery(ev, "/child::site").size(), 2u);
  // The XMark content is reachable through the virtual root.
  EXPECT_GT(EvalQuery(ev, "/descendant::bidder").size(), 0u);
}

TEST(CollectionTest, Errors) {
  CollectionBuilder empty;
  EXPECT_FALSE(empty.Finish().ok());
  CollectionBuilder builder;
  ASSERT_TRUE(builder.AddDocumentText("<a/>").ok());
  EXPECT_FALSE(builder.AddDocumentText("not xml").ok());
  auto doc = builder.Finish();
  // The failed document's prefix was absorbed; the collection still
  // finishes with the successfully added document... unless the parse
  // failure left an unbalanced element, which Finish reports.
  (void)doc;
  CollectionBuilder done;
  ASSERT_TRUE(done.AddDocumentText("<a/>").ok());
  ASSERT_TRUE(done.Finish().ok());
  EXPECT_FALSE(done.Finish().ok());
  EXPECT_FALSE(done.AddDocumentText("<b/>").ok());
}

}  // namespace
}  // namespace sj::xpath
