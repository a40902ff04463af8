// Positional steps, tested differentially against an oracle that shares
// no code with the evaluator: each context node's axis group comes from
// RegionOracle (the pre/post region predicates of test_util.h), filtered
// by the name test, reversed for reverse axes, then ranked. Every
// combination of axis (all but attribute), predicate chain and name test
// -- including a name that is never interned and one that only the edits
// introduce -- runs on three backends, three snapshot states (pristine,
// edited through the delta overlay, compacted) and three pushdown hints,
// over random documents of three shapes: deep, bushy and recursive.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "api/database.h"
#include "core/axis.h"
#include "test_util.h"
#include "util/rng.h"

namespace sj {
namespace {

constexpr Axis kAxes[] = {
    Axis::kChild,          Axis::kDescendant,       Axis::kDescendantOrSelf,
    Axis::kParent,         Axis::kAncestor,         Axis::kAncestorOrSelf,
    Axis::kFollowing,      Axis::kPreceding,        Axis::kFollowingSibling,
    Axis::kPrecedingSibling, Axis::kSelf,
};

/// Name tests: base tags, a name no state interns, and a name only the
/// edit script introduces.
constexpr const char* kNames[] = {"t0", "t1", "t2", "nosuchtag", "fresh"};

/// The element name the existence predicates look for among children.
constexpr const char* kChildTag = "t1";

/// One predicate of the oracle's chain.
struct OracleOp {
  enum Kind { kPosition, kLast, kHasChild } kind;
  size_t position = 0;
};

struct PredicateCase {
  const char* text;
  std::vector<OracleOp> ops;
};

std::vector<PredicateCase> PredicateCases() {
  return {
      {"[1]", {{OracleOp::kPosition, 1}}},
      {"[2]", {{OracleOp::kPosition, 2}}},
      {"[3]", {{OracleOp::kPosition, 3}}},
      {"[last()]", {{OracleOp::kLast}}},
      {"[2][child::t1]", {{OracleOp::kPosition, 2}, {OracleOp::kHasChild}}},
      {"[child::t1][1]", {{OracleOp::kHasChild}, {OracleOp::kPosition, 1}}},
  };
}

bool IsReverse(Axis axis) {
  return axis == Axis::kParent || axis == Axis::kAncestor ||
         axis == Axis::kAncestorOrSelf || axis == Axis::kPreceding ||
         axis == Axis::kPrecedingSibling;
}

bool IsElementNamed(const DocTable& doc, NodeId v, const std::string& name) {
  return doc.kind(v) == NodeKind::kElement && doc.tag(v) != kNoTag &&
         doc.tags().Name(doc.tag(v)) == name;
}

/// has_child[v]: v has an element child named `name`.
std::vector<bool> HasChildNamed(const DocTable& doc, const std::string& name) {
  std::vector<bool> has_child(doc.size(), false);
  for (NodeId w = 0; w < doc.size(); ++w) {
    if (doc.parent(w) != kNilNode && IsElementNamed(doc, w, name)) {
      has_child[doc.parent(w)] = true;
    }
  }
  return has_child;
}

/// The expected result of `<axis>::<name><predicates>` from `context`.
/// `groups[k]` is context[k]'s RegionOracle group for the axis.
NodeSequence OracleResult(const DocTable& doc,
                          const std::vector<NodeSequence>& groups, Axis axis,
                          const std::string& name,
                          const std::vector<bool>& has_child,
                          const std::vector<OracleOp>& ops) {
  NodeSequence out;
  for (const NodeSequence& group : groups) {
    NodeSequence nodes;
    for (NodeId v : group) {
      if (IsElementNamed(doc, v, name)) nodes.push_back(v);
    }
    if (IsReverse(axis)) std::reverse(nodes.begin(), nodes.end());
    for (const OracleOp& op : ops) {
      NodeSequence kept;
      switch (op.kind) {
        case OracleOp::kPosition:
          if (op.position <= nodes.size()) {
            kept.push_back(nodes[op.position - 1]);
          }
          break;
        case OracleOp::kLast:
          if (!nodes.empty()) kept.push_back(nodes.back());
          break;
        case OracleOp::kHasChild:
          for (NodeId v : nodes) {
            if (has_child[v]) kept.push_back(v);
          }
          break;
      }
      nodes = std::move(kept);
    }
    out.insert(out.end(), nodes.begin(), nodes.end());
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

/// An edit-script fragment; about half carry the edit-only tag "fresh".
std::string EditFragmentXml(Rng& rng) {
  switch (rng.Below(4)) {
    case 0:
      return "<fresh><t1/><fresh><t0/><t1>x</t1></fresh></fresh>";
    case 1:
      return "<t1><fresh/><t2/><fresh><t1/></fresh></t1>";
    case 2:
      return "<t0><t1/><t1><t2/></t1></t0>";
    default:
      return "<t2>y<t0/><t2/></t2>";
  }
}

/// A short edit script: `commits` commits of random inserts, deletes and
/// replaces over the working document.
void ApplyEdits(Database* db, uint64_t seed, int commits) {
  Rng rng(seed * 7919 + 1);
  for (int commit = 0; commit < commits; ++commit) {
    EditTxn txn = db->BeginEdit();
    for (int op = 0; op < 5; ++op) {
      const uint64_t size = txn.logical_size();
      const NodeId v = 1 + static_cast<NodeId>(rng.Below(size - 1));
      switch (rng.Below(3)) {
        case 0:  // fails harmlessly on a non-element target
          (void)txn.InsertLastChild(v, EditFragmentXml(rng));
          break;
        case 1:
          if (size > 40) (void)txn.DeleteSubtree(v);
          break;
        default:
          (void)txn.ReplaceSubtree(v, EditFragmentXml(rng));
          break;
      }
    }
    ASSERT_TRUE(txn.Commit().ok());
  }
}

struct Shape {
  const char* name;
  uint64_t seed;
  sj::testing::RandomDocOptions options;
  /// >0: the document is a spine of this many nested elements, each
  /// holding a random subtree before and after the next spine level.
  int spine = 0;
};

sj::testing::RandomDocOptions ShapeOptions(size_t target_nodes,
                                           uint32_t max_children,
                                           uint32_t alphabet) {
  sj::testing::RandomDocOptions options;
  options.target_nodes = target_nodes;
  options.max_children = max_children;
  options.tag_alphabet = alphabet;
  return options;
}

std::string ShapeXml(const Shape& shape) {
  if (shape.spine == 0) {
    return sj::testing::RandomDocumentXml(shape.seed, shape.options);
  }
  std::string xml;
  uint64_t seed = shape.seed * 1000;
  for (int level = 0; level < shape.spine; ++level) {
    xml += "<t" + std::to_string(level % 3) + ">";
    xml += sj::testing::RandomDocumentXml(seed++, shape.options);
  }
  for (int level = shape.spine - 1; level >= 0; --level) {
    xml += sj::testing::RandomDocumentXml(seed++, shape.options);
    xml += "</t" + std::to_string(level % 3) + ">";
  }
  return xml;
}

void PrintTo(const Shape& shape, std::ostream* os) { *os << shape.name; }

class PositionalRankTest : public ::testing::TestWithParam<Shape> {};

/// Runs every (axis, name, predicate) query from a random context on one
/// snapshot state under all nine backend x pushdown configurations.
void CheckState(const Database& db, const std::string& state, uint64_t seed) {
  auto merged = db.CurrentSnapshot()->MergedDoc();
  ASSERT_TRUE(merged.ok()) << merged.status();
  const DocTable& doc = *merged.value();
  ASSERT_GT(doc.size(), 200u) << state;
  Rng rng(seed);
  const NodeSequence context = sj::testing::RandomContext(rng, doc, 2);

  const std::vector<PredicateCase> predicates = PredicateCases();
  const std::vector<bool> has_child = HasChildNamed(doc, kChildTag);
  struct Case {
    std::string query;
    NodeSequence want;
  };
  std::vector<Case> cases;
  for (Axis axis : kAxes) {
    std::vector<NodeSequence> groups;
    groups.reserve(context.size());
    for (NodeId c : context) {
      groups.push_back(sj::testing::RegionOracle(doc, {c}, axis));
    }
    for (const char* name : kNames) {
      for (const PredicateCase& pred : predicates) {
        cases.push_back({std::string(AxisName(axis)) + "::" + name +
                             pred.text,
                         OracleResult(doc, groups, axis, name, has_child,
                                      pred.ops)});
      }
    }
  }

  for (StorageBackend backend :
       {StorageBackend::kMemory, StorageBackend::kPaged,
        StorageBackend::kCompressed}) {
    for (PushdownMode pushdown :
         {PushdownMode::kAuto, PushdownMode::kAlways, PushdownMode::kNever}) {
      SessionOptions options;
      options.backend = backend;
      options.hints.pushdown = pushdown;
      if (backend != StorageBackend::kMemory) {
        options.private_pool_pages = 16;  // small: evictions mid-query
      }
      auto session = db.CreateSession(options);
      ASSERT_TRUE(session.ok()) << session.status();
      for (const Case& c : cases) {
        auto r = session.value().Run(c.query, context);
        ASSERT_TRUE(r.ok()) << c.query << ": " << r.status();
        ASSERT_EQ(r.value().nodes, c.want)
            << state << " backend=" << static_cast<int>(backend)
            << " pushdown=" << static_cast<int>(pushdown) << " query "
            << c.query;
      }
    }
  }
}

TEST_P(PositionalRankTest, MatchesRegionOracle) {
  const Shape& shape = GetParam();
  const std::string xml = ShapeXml(shape);
  auto open = [&xml]() -> std::unique_ptr<Database> {
    auto db = Database::FromXml(xml);
    EXPECT_TRUE(db.ok()) << db.status();
    return db.ok() ? std::move(db).value() : nullptr;
  };
  auto pristine = open();
  auto edited = open();
  auto compacted = open();
  ASSERT_NE(pristine, nullptr);
  ASSERT_NE(edited, nullptr);
  ASSERT_NE(compacted, nullptr);
  ApplyEdits(edited.get(), shape.seed, 3);
  ApplyEdits(compacted.get(), shape.seed, 3);
  ASSERT_TRUE(compacted->Compact().ok());
  ASSERT_NE(edited->CurrentSnapshot()->overlay(), nullptr);
  auto merged = edited->CurrentSnapshot()->MergedDoc();
  ASSERT_TRUE(merged.ok()) << merged.status();
  ASSERT_TRUE(merged.value()->tags().Lookup("fresh").has_value())
      << "the edit script must introduce the edit-only tag";

  CheckState(*pristine, "pristine", shape.seed);
  CheckState(*edited, "edited", shape.seed);
  CheckState(*compacted, "compacted", shape.seed);
}

// The fixed seed budget: two documents per shape.
INSTANTIATE_TEST_SUITE_P(
    Shapes, PositionalRankTest,
    ::testing::Values(Shape{"deep_a", 11, ShapeOptions(60, 4, 4), 24},
                      Shape{"deep_b", 12, ShapeOptions(60, 4, 4), 24},
                      Shape{"bushy_a", 13, ShapeOptions(1500, 12, 5)},
                      Shape{"bushy_b", 14, ShapeOptions(1500, 12, 5)},
                      Shape{"recursive_a", 21, ShapeOptions(4000, 5, 3)},
                      Shape{"recursive_b", 26, ShapeOptions(4000, 5, 3)}),
    [](const ::testing::TestParamInfo<Shape>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace sj
