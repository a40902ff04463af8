// A tour of the pre/post plane on the paper's Figure 1/2 document:
// prints the encoding table and evaluates every supported axis from
// context node f, reproducing the regions shown in the paper.
//
//   $ ./build/examples/axis_tour

#include <cstdio>
#include <string>

#include "api/database.h"
#include "core/staircase_join.h"
#include "util/table_printer.h"

namespace {

// Figure 1: a(b(c), d, e(f(g, h), i(j))); f is the paper's context node.
constexpr const char* kFigure1 =
    "<a><b><c/></b><d/><e><f><g/><h/></f><i><j/></i></e></a>";

std::string NameList(const sj::DocTable& doc, const sj::NodeSequence& nodes) {
  std::string out = "(";
  for (size_t i = 0; i < nodes.size(); ++i) {
    if (i > 0) out += ", ";
    out += doc.tags().Name(doc.tag(nodes[i]));
  }
  return out + ")";
}

}  // namespace

int main() {
  sj::DatabaseOptions open;
  open.build_paged = false;
  auto db = sj::Database::FromXml(kFigure1, open).value();
  // A held snapshot pins the images its references point into.
  auto snap = db->CurrentSnapshot();
  const sj::DocTable& doc = *snap->images().doc;

  std::printf("pre/post encoding (paper Fig. 2):\n");
  sj::TablePrinter encoding({"node", "pre", "post", "level", "subtree"});
  for (sj::NodeId v = 0; v < doc.size(); ++v) {
    encoding.AddRow({doc.tags().Name(doc.tag(v)), std::to_string(v),
                     std::to_string(doc.post(v)),
                     std::to_string(doc.level(v)),
                     std::to_string(doc.subtree_size(v))});
  }
  encoding.Print();

  const sj::NodeId f = 5;
  std::printf("\naxes from context node f = <pre %u, post %u>:\n", f,
              doc.post(f));
  sj::Session session = std::move(db->CreateSession()).value();
  sj::TablePrinter axes({"axis", "result"});
  for (const char* axis :
       {"preceding", "descendant", "ancestor", "following", "parent",
        "child", "self", "ancestor-or-self", "descendant-or-self",
        "following-sibling", "preceding-sibling"}) {
    std::string query = std::string(axis) + "::node()";
    auto result = session.Run(query, {f}).value().nodes;
    axes.AddRow({axis, NameList(doc, result)});
  }
  axes.Print();

  // The staircase of a multi-node context (paper Fig. 4/8): pruning the
  // ancestor-or-self context (d,e,f,h,i,j) down to (d,h,j).
  sj::NodeSequence context = {3, 4, 5, 7, 8, 9};
  sj::NodeSequence pruned =
      PruneContext(doc, context, sj::Axis::kAncestorOrSelf);
  std::printf("\npruning the ancestor-or-self context %s: staircase %s\n",
              NameList(doc, context).c_str(), NameList(doc, pruned).c_str());
  auto anc = StaircaseJoin(doc, context, sj::Axis::kAncestorOrSelf).value();
  std::printf("ancestor-or-self result: %s  (paper: (a,d,e,f,h,i,j))\n",
              NameList(doc, anc).c_str());
  return 0;
}
