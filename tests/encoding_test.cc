// Tests for the pre/post document encoding (DocTable, builder, loader):
// the paper's Fig. 2 example table, Eq. (1), the region partition of
// Fig. 1, and the empty-region lemmas of Fig. 7 -- as properties over
// randomly generated documents.

#include <gtest/gtest.h>

#include <set>
#include <thread>
#include <vector>

#include "encoding/loader.h"
#include "test_util.h"
#include "util/rng.h"
#include "xml/dom.h"

namespace sj {
namespace {

using testing::LoadPaperExample;
using testing::RandomDocOptions;
using testing::RandomDocument;

TEST(TagDictionaryTest, InternAndLookup) {
  TagDictionary dict;
  TagId a = dict.Intern("site");
  TagId b = dict.Intern("item");
  EXPECT_NE(a, b);
  EXPECT_EQ(dict.Intern("site"), a);
  EXPECT_EQ(dict.Lookup("item"), b);
  // Never-interned names are std::nullopt, NOT kNoTag: kNoTag is the
  // legitimate tag column value of text/comment nodes.
  EXPECT_EQ(dict.Lookup("nope"), std::nullopt);
  EXPECT_EQ(dict.Name(a), "site");
  EXPECT_EQ(dict.size(), 2u);
}

TEST(TagDictionaryTest, LookupBySubstringView) {
  TagDictionary dict;
  const std::string text = "site item";
  const std::string_view view(text);
  TagId site = dict.Intern(view.substr(0, 4));
  EXPECT_EQ(dict.Lookup(view.substr(5)), std::nullopt);
  TagId item = dict.Intern(view.substr(5));
  EXPECT_EQ(dict.Lookup(view.substr(0, 4)), site);
  EXPECT_EQ(dict.Lookup(view.substr(5)), item);
  EXPECT_EQ(dict.Lookup(view.substr(0, 3)), std::nullopt);  // "sit"
  EXPECT_EQ(dict.Name(item), "item");
}

TEST(EncodingTest, ColumnDigestsAgreeAcrossThreads) {
  // The digests are memoized on the table behind std::call_once; racing
  // first calls must all see the one computed pair (TSan covers the
  // memo), and the two digests stay distinct.
  auto doc = RandomDocument(7, RandomDocOptions{});
  std::vector<uint64_t> docs(4);
  std::vector<uint64_t> frags(4);
  std::vector<std::thread> threads;
  for (size_t i = 0; i < docs.size(); ++i) {
    threads.emplace_back([&, i] {
      if (i % 2 == 0) {
        frags[i] = FragmentColumnsDigest(*doc);
        docs[i] = DocColumnsDigest(*doc);
      } else {
        docs[i] = DocColumnsDigest(*doc);
        frags[i] = FragmentColumnsDigest(*doc);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (size_t i = 1; i < docs.size(); ++i) {
    EXPECT_EQ(docs[i], docs[0]);
    EXPECT_EQ(frags[i], frags[0]);
  }
  EXPECT_NE(docs[0], frags[0]);
}

TEST(EncodingTest, PaperFigure2Table) {
  auto doc = LoadPaperExample();
  ASSERT_EQ(doc->size(), 10u);
  // Expected <pre, post> pairs from paper Fig. 2.
  const uint32_t expected_post[10] = {9, 1, 0, 2, 8, 5, 3, 4, 7, 6};
  const char* names = "abcdefghij";
  for (NodeId v = 0; v < 10; ++v) {
    EXPECT_EQ(doc->post(v), expected_post[v]) << "node " << names[v];
    EXPECT_EQ(doc->tags().Name(doc->tag(v)), std::string(1, names[v]));
  }
  EXPECT_EQ(doc->height(), 3u);  // a/e/f/g is the longest path
  EXPECT_EQ(doc->root(), 0u);
}

TEST(EncodingTest, PaperExampleRegions) {
  auto doc = LoadPaperExample();
  const NodeId f = 5, g = 6;
  // f/preceding = (b, c, d) = pre 1, 2, 3  (paper Section 2).
  NodeSequence prec;
  for (NodeId v = 0; v < doc->size(); ++v) {
    if (doc->IsPreceding(v, f)) prec.push_back(v);
  }
  EXPECT_EQ(prec, (NodeSequence{1, 2, 3}));
  // g/ancestor = (a, e, f) = pre 0, 4, 5.
  NodeSequence anc;
  for (NodeId v = 0; v < doc->size(); ++v) {
    if (doc->IsAncestor(v, g)) anc.push_back(v);
  }
  EXPECT_EQ(anc, (NodeSequence{0, 4, 5}));
}

TEST(EncodingTest, LevelsAndParents) {
  auto doc = LoadPaperExample();
  EXPECT_EQ(doc->level(0), 0u);                // a
  EXPECT_EQ(doc->parent(0), kNilNode);
  EXPECT_EQ(doc->level(1), 1u);                // b
  EXPECT_EQ(doc->parent(1), 0u);
  EXPECT_EQ(doc->level(6), 3u);                // g
  EXPECT_EQ(doc->parent(6), 5u);               // f
}

TEST(EncodingTest, AttributesRankedAfterOwner) {
  auto doc = LoadDocument("<a x=\"1\" y=\"2\"><b z=\"3\"/></a>").value();
  ASSERT_EQ(doc->size(), 5u);
  EXPECT_EQ(doc->kind(0), NodeKind::kElement);    // a
  EXPECT_EQ(doc->kind(1), NodeKind::kAttribute);  // @x
  EXPECT_EQ(doc->kind(2), NodeKind::kAttribute);  // @y
  EXPECT_EQ(doc->kind(3), NodeKind::kElement);    // b
  EXPECT_EQ(doc->kind(4), NodeKind::kAttribute);  // @z
  EXPECT_EQ(doc->parent(1), 0u);
  EXPECT_EQ(doc->parent(4), 3u);
  EXPECT_EQ(doc->attribute_count(), 3u);
  // Attributes are leaves: their subtrees are empty.
  EXPECT_EQ(doc->subtree_size(1), 0u);
}

TEST(EncodingTest, ValuesStoredWhenRequested) {
  auto doc = LoadDocument("<a x=\"v1\">hello<!--note--></a>").value();
  ASSERT_TRUE(doc->has_values());
  EXPECT_EQ(doc->value(1), "v1");
  EXPECT_EQ(doc->value(2), "hello");
  EXPECT_EQ(doc->value(3), "note");
  EXPECT_EQ(doc->value(0), "");  // elements carry no value
}

TEST(EncodingTest, ValuesSkippedWhenDisabled) {
  BuildOptions opts;
  opts.store_values = false;
  auto doc = LoadDocument("<a>hello</a>", opts).value();
  EXPECT_FALSE(doc->has_values());
  EXPECT_EQ(doc->value(1), "");
}

TEST(EncodingTest, EmptyDocumentRejected) {
  EXPECT_FALSE(LoadDocument("").ok());
  EXPECT_FALSE(LoadDocument("   ").ok());
}

TEST(EncodingTest, CheckNodeValidatesRange) {
  auto doc = LoadPaperExample();
  EXPECT_TRUE(doc->CheckNode(9).ok());
  EXPECT_EQ(doc->CheckNode(10).code(), StatusCode::kOutOfRange);
}

TEST(EncodingTest, DebugStringMentionsKindAndRanks) {
  auto doc = LoadDocument("<a x=\"1\">t</a>").value();
  EXPECT_NE(doc->DebugString(0).find("element a"), std::string::npos);
  EXPECT_NE(doc->DebugString(1).find("attribute @x"), std::string::npos);
  EXPECT_NE(doc->DebugString(2).find("text"), std::string::npos);
}

// --- Properties over random documents --------------------------------------

class EncodingPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EncodingPropertyTest, PrePostAreDensePermutations) {
  auto doc = RandomDocument(GetParam());
  std::set<uint32_t> posts;
  for (NodeId v = 0; v < doc->size(); ++v) posts.insert(doc->post(v));
  EXPECT_EQ(posts.size(), doc->size());
  EXPECT_EQ(*posts.begin(), 0u);
  EXPECT_EQ(*posts.rbegin(), doc->size() - 1);
}

TEST_P(EncodingPropertyTest, EquationOneHolds) {
  // |(v)/descendant| = post(v) - pre(v) + level(v)   (paper Eq. (1)).
  auto doc = RandomDocument(GetParam());
  for (NodeId v = 0; v < doc->size(); ++v) {
    uint64_t count = 0;
    for (NodeId u = 0; u < doc->size(); ++u) {
      count += doc->IsDescendant(u, v) ? 1u : 0u;
    }
    EXPECT_EQ(count, static_cast<uint64_t>(doc->post(v)) - v + doc->level(v));
    EXPECT_EQ(count, doc->subtree_size(v));
    EXPECT_LE(doc->level(v), doc->height());
  }
}

TEST_P(EncodingPropertyTest, FourRegionsPartitionTheDocument) {
  // Fig. 1: context node + its four regions cover the document exactly.
  auto doc = RandomDocument(GetParam());
  Rng rng(GetParam() * 7 + 1);
  for (int trial = 0; trial < 10; ++trial) {
    NodeId c = static_cast<NodeId>(rng.Below(doc->size()));
    for (NodeId v = 0; v < doc->size(); ++v) {
      int regions = (doc->IsDescendant(v, c) ? 1 : 0) +
                    (doc->IsAncestor(v, c) ? 1 : 0) +
                    (doc->IsFollowing(v, c) ? 1 : 0) +
                    (doc->IsPreceding(v, c) ? 1 : 0);
      EXPECT_EQ(regions, v == c ? 0 : 1)
          << "node " << v << " vs context " << c;
    }
  }
}

TEST_P(EncodingPropertyTest, ParentChainMatchesAncestorRegion) {
  auto doc = RandomDocument(GetParam());
  for (NodeId v = 0; v < doc->size(); ++v) {
    std::set<NodeId> chain;
    for (NodeId p = doc->parent(v); p != kNilNode; p = doc->parent(p)) {
      chain.insert(p);
    }
    EXPECT_EQ(chain.size(), doc->level(v));
    for (NodeId u = 0; u < doc->size(); ++u) {
      EXPECT_EQ(chain.count(u) > 0, doc->IsAncestor(u, v));
    }
  }
}

TEST_P(EncodingPropertyTest, Figure7EmptyRegionLemmas) {
  auto doc = RandomDocument(GetParam());
  Rng rng(GetParam() * 13 + 5);
  for (int trial = 0; trial < 20; ++trial) {
    NodeId a = static_cast<NodeId>(rng.Below(doc->size()));
    NodeId b = static_cast<NodeId>(rng.Below(doc->size()));
    if (a >= b) continue;
    if (doc->IsDescendant(b, a)) {
      // Fig. 7(a): an ancestor of b can neither precede nor follow a.
      for (NodeId v = 0; v < doc->size(); ++v) {
        if (doc->IsAncestor(v, b)) {
          EXPECT_FALSE(doc->IsPreceding(v, a));
          EXPECT_FALSE(doc->IsFollowing(v, a));
        }
      }
    } else if (doc->IsFollowing(b, a)) {
      // Fig. 7(b): a and b have no common descendants (region Z empty).
      for (NodeId v = 0; v < doc->size(); ++v) {
        EXPECT_FALSE(doc->IsDescendant(v, a) && doc->IsDescendant(v, b));
      }
    }
  }
}

TEST_P(EncodingPropertyTest, RoundTripThroughSerializer) {
  // text -> DocTable == text -> DOM -> serialize -> DocTable.
  std::string xml = testing::RandomDocumentXml(GetParam(), {});
  auto direct = LoadDocument(xml).value();
  auto dom = xml::ParseToDom(xml).value();
  auto via_dom = LoadDocument(xml::Serialize(*dom)).value();
  ASSERT_EQ(direct->size(), via_dom->size());
  for (NodeId v = 0; v < direct->size(); ++v) {
    EXPECT_EQ(direct->post(v), via_dom->post(v));
    EXPECT_EQ(direct->level(v), via_dom->level(v));
    EXPECT_EQ(direct->kind(v), via_dom->kind(v));
    EXPECT_EQ(direct->parent(v), via_dom->parent(v));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EncodingPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 42, 1234));

}  // namespace
}  // namespace sj
