// The path oracle (tests/path_oracle.h) pinned on its own: hand-derived
// answers over the document of paper Fig. 1/2,
//   a(b(c), d, e(f(g, h), i(j)))   pre: a0 b1 c2 d3 e4 f5 g6 h7 i8 j9,
// so the reference every evaluator equivalence test trusts is itself
// checked against the figure, not against the evaluator.

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "path_oracle.h"

namespace sj::testing {
namespace {

class PathOracleTest : public ::testing::Test {
 protected:
  void SetUp() override { doc_ = LoadPaperExample(); }

  /// `query` from `context`; fails the test on a parse error.
  NodeSequence Eval(const std::string& query, const NodeSequence& context) {
    auto r = PathOracle(*doc_, query, context);
    EXPECT_TRUE(r.ok()) << query << ": " << r.status();
    return r.ok() ? r.value() : NodeSequence{};
  }

  /// `query` from the document element a.
  NodeSequence Eval(const std::string& query) { return Eval(query, {0}); }

  std::unique_ptr<DocTable> doc_;
};

constexpr NodeId kF = 5;

TEST_F(PathOracleTest, EveryAxisFromContextNodeF) {
  // Fig. 2: the four major axes partition the plane around f.
  EXPECT_EQ(Eval("ancestor::node()", {kF}), (NodeSequence{0, 4}));
  EXPECT_EQ(Eval("descendant::node()", {kF}), (NodeSequence{6, 7}));
  EXPECT_EQ(Eval("preceding::node()", {kF}), (NodeSequence{1, 2, 3}));
  EXPECT_EQ(Eval("following::node()", {kF}), (NodeSequence{8, 9}));
  EXPECT_EQ(Eval("ancestor-or-self::node()", {kF}), (NodeSequence{0, 4, 5}));
  EXPECT_EQ(Eval("descendant-or-self::node()", {kF}), (NodeSequence{5, 6, 7}));
  EXPECT_EQ(Eval("self::node()", {kF}), (NodeSequence{5}));
  EXPECT_EQ(Eval("child::node()", {kF}), (NodeSequence{6, 7}));
  EXPECT_EQ(Eval("parent::node()", {kF}), (NodeSequence{4}));
  EXPECT_EQ(Eval("following-sibling::node()", {kF}), (NodeSequence{8}));
  EXPECT_TRUE(Eval("preceding-sibling::node()", {kF}).empty());
  EXPECT_TRUE(Eval("attribute::node()", {kF}).empty());
}

TEST_F(PathOracleTest, ReverseAxisRanksCountOutward) {
  // preceding of f in axis order: d, c, b (nearest first).
  EXPECT_EQ(Eval("preceding::*[1]", {kF}), (NodeSequence{3}));
  EXPECT_EQ(Eval("preceding::*[2]", {kF}), (NodeSequence{2}));
  EXPECT_EQ(Eval("preceding::*[last()]", {kF}), (NodeSequence{1}));
  // ancestor of j in axis order: i, e, a.
  EXPECT_EQ(Eval("ancestor::*[2]", {9}), (NodeSequence{4}));
  EXPECT_EQ(Eval("ancestor::*[last()]", {9}), (NodeSequence{0}));
  EXPECT_TRUE(Eval("ancestor::*[4]", {9}).empty());
}

TEST_F(PathOracleTest, ForwardRanksArePerContextNode) {
  EXPECT_EQ(Eval("/descendant::*[3]"), (NodeSequence{3}));
  EXPECT_EQ(Eval("/child::*[last()]"), (NodeSequence{4}));
  // The first child of each of a, b, e, f, i.
  EXPECT_EQ(Eval("/descendant-or-self::*/child::*[1]"),
            (NodeSequence{1, 2, 5, 6, 9}));
  // Predicates apply in turn: [2] ranks what [child::*] kept (b, e).
  EXPECT_EQ(Eval("/child::*[child::*][2]"), (NodeSequence{4}));
}

TEST_F(PathOracleTest, NestedExistencePredicate) {
  // Elements with a child that has a child: a (via b/c) and e (via f/g).
  EXPECT_EQ(Eval("/descendant-or-self::*[child::*[child::*]]"),
            (NodeSequence{0, 4}));
}

TEST_F(PathOracleTest, AbsolutePredicateIsContextInvariant) {
  EXPECT_EQ(Eval("child::*[/child::d]", {kF}), (NodeSequence{6, 7}));
  EXPECT_TRUE(Eval("child::*[/child::c]", {kF}).empty());
}

TEST_F(PathOracleTest, UnionMergesInDocumentOrder) {
  EXPECT_EQ(Eval("/descendant::h | /child::b | /descendant::c | /child::b"),
            (NodeSequence{1, 2, 7}));
}

TEST(PathOracleAttributeTest, AttributesOnlyOnTheAttributeAxis) {
  // a0 @x1 b2 @y3 c4.
  auto doc = LoadDocument("<a x=\"1\"><b y=\"2\"/><c/></a>").value();
  EXPECT_EQ(PathOracle(*doc, "/attribute::x").value(), (NodeSequence{1}));
  EXPECT_EQ(PathOracle(*doc, "/descendant::node()").value(),
            (NodeSequence{2, 4}));
  EXPECT_EQ(PathOracle(*doc, "/descendant::b/attribute::*").value(),
            (NodeSequence{3}));
  EXPECT_EQ(PathOracle(*doc, "/child::*[attribute::y]").value(),
            (NodeSequence{2}));
}

}  // namespace
}  // namespace sj::testing
