// The paper's workload end-to-end: generate an XMark-style instance, run
// Q1 and Q2 with different execution strategies, and print intermediate
// result sizes (compare with paper Table 1) and timings.
//
//   $ ./build/examples/xmark_queries [size_mb]     (default 11)

#include <cstdio>
#include <cstdlib>

#include "api/database.h"
#include "util/table_printer.h"
#include "util/timer.h"

int main(int argc, char** argv) {
  double size_mb = argc > 1 ? std::atof(argv[1]) : 11.0;
  if (size_mb <= 0) {
    std::fprintf(stderr, "usage: %s [size_mb]\n", argv[0]);
    return 1;
  }

  sj::xmlgen::XMarkOptions gen;
  gen.size_mb = size_mb;
  gen.rich_text = false;  // join benches only need structure
  sj::DatabaseOptions open;
  open.build.store_values = false;
  open.build_paged = false;  // in-memory strategies only

  sj::Timer load_timer;
  auto db_result = sj::Database::FromXmark(gen, open);
  if (!db_result.ok()) {
    std::fprintf(stderr, "%s\n", db_result.status().ToString().c_str());
    return 1;
  }
  auto db = std::move(db_result).value();
  auto snap = db->CurrentSnapshot();
  const sj::DocTable& doc = *snap->images().doc;
  std::printf("opened %.1f MB-equivalent: %zu nodes (height %u) in %.0f ms "
              "(incl. tag fragments: %zu tags, %.1f MB)\n\n",
              size_mb, doc.size(), doc.height(), load_timer.ElapsedMillis(),
              doc.tags().size(),
              static_cast<double>(snap->images().tag_index->memory_bytes()) /
                  1048576.0);

  struct Strategy {
    const char* name;
    sj::SessionOptions options;
  };
  Strategy strategies[] = {
      {"staircase join", [] {
         sj::SessionOptions o;
         o.hints.pushdown = sj::PushdownMode::kNever;
         return o;
       }()},
      {"scj + name-test pushdown", [] {
         sj::SessionOptions o;
         o.hints.pushdown = sj::PushdownMode::kAlways;
         return o;
       }()},
      {"scj parallel (4 workers)", [] {
         sj::SessionOptions o;
         o.hints.pushdown = sj::PushdownMode::kNever;
         o.num_threads = 4;
         return o;
       }()},
  };

  for (const char* query : {sj::xmlgen::kQ1, sj::xmlgen::kQ2}) {
    std::printf("query: %s\n", query);
    sj::TablePrinter table({"strategy", "result", "time [ms]"});
    for (const Strategy& strategy : strategies) {
      auto session = db->CreateSession(strategy.options);
      if (!session.ok()) {
        std::fprintf(stderr, "%s\n", session.status().ToString().c_str());
        return 1;
      }
      auto r = session.value().Run(query);
      if (!r.ok()) {
        std::fprintf(stderr, "%s\n", r.status().ToString().c_str());
        return 1;
      }
      table.AddRow({strategy.name,
                    sj::TablePrinter::Count(r.value().nodes.size()),
                    sj::TablePrinter::Fixed(r.value().millis, 2)});
    }
    table.Print();

    // Show the executed plan of the default strategy.
    auto session = db->CreateSession();
    auto r = session.value().Run(query);
    std::printf("%s\n", r.ok() ? r.value().Explain().c_str() : "");
  }
  return 0;
}
