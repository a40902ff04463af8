// FW1 -- Future work (paper Section 6): staircase join in a disk-based
// RDBMS. A full multi-step XPath query runs through a Session over the
// paged/BufferPool backend -- every staircase step reads its columns
// through an LRU buffer pool over a simulated disk -- and the experiment
// reports page faults under the three skip modes and several buffer
// sizes. Skipping turns "nodes never touched" into pages never read: the
// disk-based payoff the paper anticipates, now for whole location paths
// rather than a single join. Each configuration gets a private cold pool
// (SessionOptions::private_pool_pages), so runs never warm each other.

#include "bench_util.h"

namespace sj::bench {
namespace {

constexpr const char* kQuery =
    "/descendant::people/descendant::profile/descendant::interest";

void Run() {
  PrintHeader("FW1 (Section 6, future work)",
              "paged XPath evaluation: page faults for "
              "//people//profile//interest");
  double mb = BenchSizes().size() > 2 ? BenchSizes()[2] : BenchSizes().back();
  DatabaseOptions open;
  open.build_tag_index = false;  // this experiment joins over the document
  auto db = MakeDatabase(mb, open);
  std::printf("document %s: %zu nodes, %zu post pages of %zu bytes\n\n",
              SizeLabel(mb).c_str(), db->doc().size(),
              db->paged_doc()->post().pages.size(), storage::kPageSize);

  TablePrinter t({"buffer [pages]", "skip mode", "page faults", "page pins",
                  "hit rate", "result", "time [ms]"});
  for (size_t pool_pages : {size_t{8}, size_t{64}, size_t{1024}}) {
    struct ModeRow {
      const char* name;
      SkipMode mode;
    };
    for (ModeRow m : {ModeRow{"none", SkipMode::kNone},
                      ModeRow{"skip", SkipMode::kSkip},
                      ModeRow{"estimated", SkipMode::kEstimated}}) {
      SessionOptions opt;
      opt.backend = StorageBackend::kPaged;
      opt.hints.pushdown = PushdownMode::kNever;  // measure the document scan
      // Step-at-a-time on purpose: this bench contrasts the staircase
      // join's skip modes; the twig join would collapse the chain and
      // equalize the rows (bench_twig_paths.cc measures the twig).
      opt.hints.twig = TwigMode::kNever;
      opt.staircase.skip_mode = m.mode;
      opt.private_pool_pages = pool_pages;  // cold pool per configuration
      auto session = db->CreateSession(opt);
      if (!session.ok()) {
        std::fprintf(stderr, "session failed: %s\n",
                     session.status().ToString().c_str());
        std::abort();
      }
      auto r = session.value().Run(kQuery);
      if (!r.ok()) {
        std::fprintf(stderr, "query failed: %s\n",
                     r.status().ToString().c_str());
        std::abort();
      }
      const storage::PoolStats ps = session.value().pool()->stats();
      t.AddRow({std::to_string(pool_pages), m.name,
                TablePrinter::Count(ps.faults), TablePrinter::Count(ps.pins),
                TablePrinter::Fixed(
                    100.0 * static_cast<double>(ps.hits) /
                        static_cast<double>(ps.pins),
                    1) + " %",
                TablePrinter::Count(r.value().nodes.size()),
                TablePrinter::Fixed(r.value().millis, 2)});
    }
  }
  t.Print();
  std::printf("shape: 'none' faults every post page right of the first "
              "context node on every step regardless of buffer size; "
              "skipping touches only result pages\n");
}

}  // namespace
}  // namespace sj::bench

int main() {
  sj::bench::Run();
  return 0;
}
