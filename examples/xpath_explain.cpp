// Command-line XPath runner with plan EXPLAIN: evaluates queries against an
// XML file, a directory of XML files (opened as a collection), or a
// generated XMark instance, and shows what the optimizer decided
// (staircase join, name-test pushdown, per-context fallback).
//
//   $ ./build/xpath_explain <file.xml|dir|xmark:SIZE_MB> <xpath> ...
//   $ ./build/xpath_explain xmark:1.1 "/descendant::education"
//
// With no arguments, runs a demonstration query set on xmark:1.1.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "api/database.h"

namespace {

sj::Result<std::unique_ptr<sj::Database>> OpenSource(const std::string& src) {
  if (src.rfind("xmark:", 0) == 0) {
    sj::xmlgen::XMarkOptions opt;
    opt.size_mb = std::atof(src.c_str() + 6);
    if (opt.size_mb <= 0) {
      return sj::Status::InvalidArgument("bad xmark size: " + src);
    }
    return sj::Database::FromXmark(opt);
  }
  return sj::Database::Open(src);
}

}  // namespace

int main(int argc, char** argv) {
  std::string source = argc > 1 ? argv[1] : "xmark:1.1";
  std::vector<std::string> queries;
  for (int i = 2; i < argc; ++i) queries.emplace_back(argv[i]);
  if (queries.empty()) {
    queries = {sj::xmlgen::kQ1, sj::xmlgen::kQ2, sj::xmlgen::kQ2Rewrite,
               "/descendant::person/attribute::id",
               "/descendant::keyword/ancestor::description"};
  }

  auto db_result = OpenSource(source);
  if (!db_result.ok()) {
    std::fprintf(stderr, "cannot open %s: %s\n", source.c_str(),
                 db_result.status().ToString().c_str());
    return 1;
  }
  auto db = std::move(db_result).value();
  auto snap = db->CurrentSnapshot();
  const sj::DocTable& doc = *snap->images().doc;
  std::printf("database: %s (%zu nodes, height %u, %zu tags)\n\n",
              source.c_str(), doc.size(), doc.height(), doc.tags().size());

  auto session_result = db->CreateSession();
  if (!session_result.ok()) {
    std::fprintf(stderr, "%s\n", session_result.status().ToString().c_str());
    return 1;
  }
  sj::Session session = std::move(session_result).value();
  for (const std::string& query : queries) {
    auto result = session.Run(query);  // unions included
    if (!result.ok()) {
      std::fprintf(stderr, "%s\n  error: %s\n\n", query.c_str(),
                   result.status().ToString().c_str());
      continue;
    }
    const sj::QueryResult& r = result.value();
    std::printf("%s\n  -> %zu nodes in %.2f ms\n", query.c_str(),
                r.nodes.size(), r.millis);
    std::printf("%s", r.Explain().c_str());
    // Show the first few result nodes.
    size_t shown = 0;
    for (sj::NodeId v : r.nodes) {
      if (shown++ == 3) {
        std::printf("  ...\n");
        break;
      }
      std::printf("  %s\n", doc.DebugString(v).c_str());
    }
    std::printf("\n");
  }
  return 0;
}
