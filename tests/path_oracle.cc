#include "path_oracle.h"

#include <algorithm>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace sj::testing {
namespace {

using xpath::LocationPath;
using xpath::NodeTestKind;
using xpath::Predicate;
using xpath::Step;

/// XPath reverse axes: their positions count from the context node
/// outward, against document order.
bool IsReverseAxis(Axis axis) {
  return axis == Axis::kAncestor || axis == Axis::kAncestorOrSelf ||
         axis == Axis::kParent || axis == Axis::kPreceding ||
         axis == Axis::kPrecedingSibling;
}

bool HasName(const DocTable& doc, NodeId v, const std::string& name) {
  return doc.tag(v) != kNoTag && doc.tags().Name(doc.tag(v)) == name;
}

/// The node test, read straight off the kind and tag columns. Name tests
/// and `*` select the axis' principal node kind: attributes on the
/// attribute axis, elements everywhere else.
bool PassesTest(const DocTable& doc, const Step& step, NodeId v) {
  const NodeKind principal = step.axis == Axis::kAttribute
                                 ? NodeKind::kAttribute
                                 : NodeKind::kElement;
  const NodeKind kind = doc.kind(v);
  switch (step.test.kind) {
    case NodeTestKind::kAnyNode:
      return true;
    case NodeTestKind::kAnyName:
      return kind == principal;
    case NodeTestKind::kName:
      return kind == principal && HasName(doc, v, step.test.name);
    case NodeTestKind::kText:
      return kind == NodeKind::kText;
    case NodeTestKind::kComment:
      return kind == NodeKind::kComment;
    case NodeTestKind::kPi:
      return kind == NodeKind::kProcessingInstruction &&
             (step.test.name.empty() || HasName(doc, v, step.test.name));
  }
  return false;
}

NodeSequence Root(const DocTable& doc) {
  return doc.empty() ? NodeSequence{} : NodeSequence{doc.root()};
}

NodeSequence EvalPath(const DocTable& doc, const LocationPath& path,
                      const NodeSequence& context);

/// An existence predicate holds at v when its path selects a node from
/// v (an absolute path starts at the document element instead).
bool Holds(const DocTable& doc, const Predicate& pred, NodeId v) {
  return !EvalPath(doc, *pred.path, {v}).empty();
}

/// One step: each context node's group is its region (RegionOracle),
/// node-tested, put in axis order, then narrowed by the predicates in
/// turn -- a position indexes the group surviving the predicates before
/// it. The groups' union is returned in document order.
NodeSequence EvalStep(const DocTable& doc, const Step& step,
                      const NodeSequence& context) {
  // An existence verdict depends on the node alone (on nothing, for an
  // absolute path), not on the group: memoized across the step's groups.
  std::map<std::pair<const Predicate*, NodeId>, bool> verdicts;
  NodeSequence out;
  for (NodeId c : context) {
    NodeSequence group;
    for (NodeId v : RegionOracle(doc, {c}, step.axis)) {
      if (PassesTest(doc, step, v)) group.push_back(v);
    }
    if (IsReverseAxis(step.axis)) std::reverse(group.begin(), group.end());
    for (const Predicate& pred : step.predicates) {
      NodeSequence kept;
      switch (pred.kind) {
        case Predicate::Kind::kPosition:
          if (pred.position >= 1 && pred.position <= group.size()) {
            kept.push_back(group[pred.position - 1]);
          }
          break;
        case Predicate::Kind::kLast:
          if (!group.empty()) kept.push_back(group.back());
          break;
        case Predicate::Kind::kExists:
          for (NodeId v : group) {
            const NodeId at = pred.path->absolute ? doc.root() : v;
            auto [verdict, fresh] = verdicts.try_emplace({&pred, at});
            if (fresh) verdict->second = Holds(doc, pred, v);
            if (verdict->second) kept.push_back(v);
          }
          break;
      }
      group = std::move(kept);
    }
    out.insert(out.end(), group.begin(), group.end());
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

NodeSequence EvalPath(const DocTable& doc, const LocationPath& path,
                      const NodeSequence& context) {
  NodeSequence current = path.absolute ? Root(doc) : context;
  for (const Step& step : path.steps) {
    if (current.empty()) break;
    current = EvalStep(doc, step, current);
  }
  return current;
}

}  // namespace

NodeSequence PathOracle(const DocTable& doc, const xpath::UnionExpr& expr,
                        const NodeSequence& context) {
  NodeSequence merged;
  for (const LocationPath& branch : expr.branches) {
    const NodeSequence r = EvalPath(doc, branch, context);
    merged.insert(merged.end(), r.begin(), r.end());
  }
  std::sort(merged.begin(), merged.end());
  merged.erase(std::unique(merged.begin(), merged.end()), merged.end());
  return merged;
}

Result<NodeSequence> PathOracle(const DocTable& doc, std::string_view query,
                                const NodeSequence& context) {
  SJ_ASSIGN_OR_RETURN(xpath::UnionExpr expr, xpath::ParseXPathUnion(query));
  return PathOracle(doc, expr, context);
}

Result<NodeSequence> PathOracle(const DocTable& doc, std::string_view query) {
  return PathOracle(doc, query, Root(doc));
}

}  // namespace sj::testing
