// Tests for re-serialization from the columnar encoding: subtree text must
// round-trip through parse -> encode -> serialize for arbitrary documents.

#include <gtest/gtest.h>

#include "api/database.h"
#include "encoding/loader.h"
#include "encoding/serialize.h"
#include "test_util.h"

namespace sj {
namespace {

/// Opens a query-only database (no paged image) over `xml`.
std::unique_ptr<Database> OpenXml(const std::string& xml) {
  DatabaseOptions open;
  open.build_paged = false;
  return Database::FromXml(xml, open).value();
}

TEST(SerializeTest, WholeDocumentRoundTrip) {
  const std::string xml =
      "<a x=\"1&amp;2\"><b>t&lt;u</b><c/><!--note--><?pi data?>tail</a>";
  auto doc = LoadDocument(xml).value();
  EXPECT_EQ(SerializeSubtree(*doc, doc->root()).value(), xml);
}

TEST(SerializeTest, InnerSubtree) {
  auto db = OpenXml("<a><b i=\"7\"><c>x</c></b><d/></a>");
  Session session = std::move(db->CreateSession()).value();
  NodeSequence b = session.Run("/descendant::b").value().nodes;
  ASSERT_EQ(b.size(), 1u);
  auto snap = db->CurrentSnapshot();
  EXPECT_EQ(SerializeSubtree(*snap->images().doc, b[0]).value(),
            "<b i=\"7\"><c>x</c></b>");
}

TEST(SerializeTest, TextAndCommentNodes) {
  auto doc = LoadDocument("<a>hi<!--c--></a>").value();
  // Text node (pre 1) serializes as its (escaped) content.
  EXPECT_EQ(SerializeSubtree(*doc, 1).value(), "hi");
  EXPECT_EQ(SerializeSubtree(*doc, 2).value(), "<!--c-->");
}

TEST(SerializeTest, SequenceConcatenatesInOrder) {
  auto db = OpenXml("<a><b>1</b><b>2</b><c v=\"9\"/></a>");
  Session session = std::move(db->CreateSession()).value();
  NodeSequence bs = session.Run("/descendant::b").value().nodes;
  auto snap = db->CurrentSnapshot();
  const DocTable& doc = *snap->images().doc;
  EXPECT_EQ(SerializeSequence(doc, bs).value(), "<b>1</b><b>2</b>");
  // Attribute in a sequence -> its string value.
  NodeSequence attr =
      session.Run("/descendant::c/attribute::v").value().nodes;
  EXPECT_EQ(SerializeSequence(doc, attr).value(), "9");
}

TEST(SerializeTest, ErrorsAndEdgeCases) {
  auto doc = LoadDocument("<a x=\"1\"/>").value();
  EXPECT_FALSE(SerializeSubtree(*doc, 99).ok());
  EXPECT_FALSE(SerializeSubtree(*doc, 1).ok());  // attribute node
  EXPECT_FALSE(EmitSubtree(*doc, 0, nullptr).ok());
  BuildOptions no_values;
  no_values.store_values = false;
  auto bare = LoadDocument("<a>t</a>", no_values).value();
  EXPECT_FALSE(SerializeSubtree(*bare, 0).ok());
}

TEST(SerializeTest, RandomDocumentsRoundTrip) {
  // parse(serialize(parse(x))) must encode identically to parse(x).
  for (uint64_t seed : {91u, 92u, 93u, 94u}) {
    std::string xml = testing::RandomDocumentXml(seed, {});
    auto doc = LoadDocument(xml).value();
    std::string out = SerializeSubtree(*doc, doc->root()).value();
    auto doc2 = LoadDocument(out).value();
    ASSERT_EQ(doc->size(), doc2->size()) << "seed " << seed;
    for (NodeId v = 0; v < doc->size(); ++v) {
      ASSERT_EQ(doc->post(v), doc2->post(v)) << "seed " << seed;
      ASSERT_EQ(doc->kind(v), doc2->kind(v)) << "seed " << seed;
      ASSERT_EQ(doc->tag(v), doc2->tag(v)) << "seed " << seed;
      ASSERT_EQ(doc->value(v), doc2->value(v)) << "seed " << seed;
    }
  }
}

TEST(SerializeTest, QueryResultsFromXMarkParseBack) {
  auto db = OpenXml(testing::RandomDocumentXml(77, {.target_nodes = 400}));
  Session session = std::move(db->CreateSession()).value();
  NodeSequence nodes = session.Run("/descendant::t1").value().nodes;
  if (nodes.empty()) GTEST_SKIP() << "no t1 in this instance";
  auto snap = db->CurrentSnapshot();
  const DocTable& doc = *snap->images().doc;
  for (NodeId v : nodes) {
    std::string text = SerializeSubtree(doc, v).value();
    auto reparsed = LoadDocument(text);
    ASSERT_TRUE(reparsed.ok()) << reparsed.status();
    EXPECT_EQ(reparsed.value()->size(), doc.subtree_size(v) + 1);
  }
}

}  // namespace
}  // namespace sj
