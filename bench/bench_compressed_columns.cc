// CC1 -- Compressed (FOR/delta) columns behind the buffer pool: the same
// XMark queries over the paged and the compressed backend at EQUAL page
// size and EQUAL pool size, cold, through the Database/Session facade.
// The compressed image packs the same ranks into a fraction of the
// pages, so the identical staircase scan faults strictly fewer of them
// -- the Leapfrog-style "touch less data per seek" payoff the ISSUE
// names. Results land in BENCH_compressed_columns.json as
//   {"query", "backend", "size_mb", "faults", "skipped", "result", "ms"}
// records; faults/skipped/result are deterministic and gated by the CI
// perf-regression job against bench/baselines/.

#include <vector>

#include "bench_util.h"

namespace sj::bench {
namespace {

/// Descendant scans and a following region query over the XMark schema;
/// the acceptance bar is strictly fewer compressed faults on at least
/// two of them (this bench enforces it on all three).
constexpr const char* kQueries[] = {
    "/descendant::people/descendant::profile/descendant::interest",
    "/descendant::open_auction/descendant::bidder",
    "/descendant::person/following::open_auction",
};

constexpr size_t kPoolPages = 64;

struct ColdRun {
  uint64_t faults = 0;
  uint64_t skipped = 0;
  size_t result = 0;
  double ms = -1;
};

ColdRun RunCold(Session& session, const char* query) {
  ColdRun out;
  for (int rep = 0; rep < BenchReps(); ++rep) {
    session.pool()->FlushAll();
    session.pool()->ResetStats();
    auto r = session.Run(query);
    if (!r.ok()) {
      std::fprintf(stderr, "query failed: %s\n",
                   r.status().ToString().c_str());
      std::abort();
    }
    out.faults = session.pool()->stats().faults;
    out.skipped = r.value().totals.nodes_skipped;
    out.result = r.value().nodes.size();
    if (out.ms < 0 || r.value().millis < out.ms) out.ms = r.value().millis;
  }
  return out;
}

void Run() {
  PrintHeader("CC1 (compressed columns)",
              "FOR/delta block-compressed columns vs uncompressed pages: "
              "faults per query at equal page and pool size");
  std::vector<JsonRecord> json;

  TablePrinter sizes({"doc size", "nodes", "paged pages", "compressed pages",
                      "compressed bytes", "shrink"});
  TablePrinter t({"doc size", "query", "paged faults", "compressed faults",
                  "savings", "paged [ms]", "compressed [ms]", "result"});
  for (double mb : BenchSizes()) {
    DatabaseOptions open;
    open.build_tag_index = false;  // both backends join over the document
    auto db = MakeDatabase(mb, open);
    const size_t n = db->doc().size();
    const size_t paged_pages = db->paged_doc()->page_count();
    const size_t compressed_pages = db->compressed_doc()->page_count();
    sizes.AddRow(
        {SizeLabel(mb), TablePrinter::Count(n),
         TablePrinter::Count(paged_pages),
         TablePrinter::Count(compressed_pages),
         TablePrinter::Count(db->compressed_doc()->encoded_bytes()),
         TablePrinter::Fixed(static_cast<double>(paged_pages) /
                                 static_cast<double>(compressed_pages),
                             1) +
             "x"});

    SessionOptions paged_opt;
    paged_opt.backend = StorageBackend::kPaged;
    paged_opt.hints.pushdown = PushdownMode::kNever;
    // Step-at-a-time on purpose: this bench compares the raw column scans
    // of the two storage formats; the twig join would collapse the chain
    // queries to a handful of fragment pages on both backends
    // (bench_twig_paths.cc measures that effect).
    paged_opt.hints.twig = TwigMode::kNever;
    paged_opt.private_pool_pages = kPoolPages;  // cold pool per backend
    SessionOptions zip_opt = paged_opt;
    zip_opt.backend = StorageBackend::kCompressed;
    auto paged = db->CreateSession(paged_opt);
    auto zip = db->CreateSession(zip_opt);
    if (!paged.ok() || !zip.ok()) {
      std::fprintf(stderr, "session failed\n");
      std::abort();
    }

    for (const char* q : kQueries) {
      ColdRun p = RunCold(paged.value(), q);
      ColdRun z = RunCold(zip.value(), q);
      if (z.result != p.result || z.skipped != p.skipped) {
        std::fprintf(stderr, "compressed query diverged: %s\n", q);
        std::abort();
      }
      if (z.faults >= p.faults) {
        // The acceptance bar of the compressed backend; a violation is a
        // codec or layout regression and must fail the smoke run.
        std::fprintf(stderr,
                     "compressed backend faulted %llu pages vs paged %llu "
                     "on %s\n",
                     static_cast<unsigned long long>(z.faults),
                     static_cast<unsigned long long>(p.faults), q);
        std::abort();
      }
      t.AddRow({SizeLabel(mb), q, TablePrinter::Count(p.faults),
                TablePrinter::Count(z.faults),
                TablePrinter::Fixed(static_cast<double>(p.faults) /
                                        static_cast<double>(z.faults),
                                    1) +
                    "x",
                TablePrinter::Fixed(p.ms, 2), TablePrinter::Fixed(z.ms, 2),
                TablePrinter::Count(p.result)});
      json.push_back({q, "paged-cold", mb, p.faults, p.ms, p.skipped,
                      p.result, 0, 0, 0});
      json.push_back({q, "compressed-cold", mb, z.faults, z.ms, z.skipped,
                      z.result, 0, 0, 0});
    }
  }
  sizes.Print();
  std::printf("the compressed image is the same five columns in a fraction "
              "of the pages; fence keys stay resident so SkipTo seeks "
              "block-granularly\n\n");
  t.Print();
  std::printf("equal page size (%zu B), equal pool (%zu pages), same "
              "queries: every scan faults strictly fewer compressed pages; "
              "skipped nodes and results are byte-identical\n",
              storage::kPageSize, kPoolPages);
  WriteJson(json, "BENCH_compressed_columns.json");
}

}  // namespace
}  // namespace sj::bench

int main() {
  sj::bench::Run();
  return 0;
}
