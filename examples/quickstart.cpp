// Quickstart: open a Database over an XML document, create a Session,
// run XPath queries, and inspect results and the executed plan.
//
//   $ ./build/quickstart
//
// Database/Session is the public API: the database owns every backend
// image (resident columns, tag fragments, paged image + buffer pool) and
// is immutable and thread-safe once open; a session is a cheap per-thread
// handle whose Run() returns a self-contained QueryResult.

#include <cstdio>
#include <string>

#include "api/database.h"

namespace {

constexpr const char* kCatalog = R"(<catalog>
  <book id="b1" year="1994"><title>TCP/IP Illustrated</title>
    <author><last>Stevens</last><first>W.</first></author>
    <price>65.95</price></book>
  <book id="b2" year="2003"><title>XQuery from the Experts</title>
    <author><last>Katz</last><first>Howard</first></author>
    <price>39.95</price></book>
  <book id="b3" year="2000"><title>Data on the Web</title>
    <author><last>Abiteboul</last><first>Serge</first></author>
    <author><last>Buneman</last><first>Peter</first></author>
    <price>34.95</price></book>
</catalog>)";

}  // namespace

int main() {
  // 1. Open the database: parses + encodes the document, builds the tag
  //    fragments and the paged image, and validates their digests -- all
  //    up front, so queries never fail on stale wiring.
  auto db_result = sj::Database::FromXml(kCatalog);
  if (!db_result.ok()) {
    std::fprintf(stderr, "open failed: %s\n",
                 db_result.status().ToString().c_str());
    return 1;
  }
  std::unique_ptr<sj::Database> db = std::move(db_result).value();
  // The encoded document lives in the database's images, reached
  // through a snapshot: holding it keeps `doc` valid across any later
  // edits and compactions.
  std::shared_ptr<const sj::DatabaseSnapshot> snap = db->CurrentSnapshot();
  const sj::DocTable& doc = *snap->images().doc;
  std::printf("encoded %zu nodes, height %u, %llu attributes\n\n",
              doc.size(), doc.height(),
              static_cast<unsigned long long>(doc.attribute_count()));

  // 2. Create a session. Any number of sessions (one per thread) may
  //    share the database; this one keeps the defaults (in-memory
  //    backend, cost-based operator choice -- SessionOptions::hints
  //    carries the PlanHints for pinning operators explicitly).
  auto session_result = db->CreateSession();
  if (!session_result.ok()) {
    std::fprintf(stderr, "session failed: %s\n",
                 session_result.status().ToString().c_str());
    return 1;
  }
  sj::Session session = std::move(session_result).value();

  // 3. Run XPath queries.
  const char* queries[] = {
      "/descendant::title",
      "/descendant::author/child::last",
      "/descendant::last/ancestor::book",
      "/descendant::book[descendant::last]/attribute::id",
      "//book/price",
  };
  sj::QueryResult last;
  for (const char* query : queries) {
    auto result = session.Run(query);
    if (!result.ok()) {
      std::fprintf(stderr, "%s -> %s\n", query,
                   result.status().ToString().c_str());
      return 1;
    }
    last = std::move(result).value();
    std::printf("%s\n", query);
    for (sj::NodeId v : last.nodes) {
      // Print the node plus its text content (first text child / value).
      std::string text;
      if (doc.kind(v) == sj::NodeKind::kAttribute) {
        text = std::string(doc.value(v));
      } else {
        for (sj::NodeId u = v + 1; u < doc.size() && doc.IsDescendant(u, v);
             ++u) {
          if (doc.kind(u) == sj::NodeKind::kText) {
            text = std::string(doc.value(u));
            break;
          }
        }
      }
      std::printf("  %-44s %s\n", doc.DebugString(v).c_str(), text.c_str());
    }
    std::printf("\n");
  }

  // 4. EXPLAIN the last query plan. The trace travels inside the
  //    QueryResult -- nothing is read back from shared evaluator state.
  std::printf("plan of the last query:\n%s", last.Explain().c_str());

  // 5. The same plan, structurally: operator chosen per step plus the
  //    cost model's estimate vs the actual row count (and pool faults,
  //    zero here on the in-memory backend).
  std::printf("\nplan summary:\n");
  for (const sj::PlanStepSummary& s : last.PlanSummary()) {
    std::printf("  step %zu: %-12s est=%llu act=%llu faults=%llu\n", s.step,
                s.op.c_str(), static_cast<unsigned long long>(s.estimated_rows),
                static_cast<unsigned long long>(s.actual_rows),
                static_cast<unsigned long long>(s.faults));
  }
  return 0;
}
