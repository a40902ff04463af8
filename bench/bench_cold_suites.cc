// Cold-pool facade suites (FW1 disk pages, FW2 mixed axes, CC1
// compressed columns, TW1 twig paths, CM1 cost model): XMark location
// paths through Session::Run, every query through every plan of a suite
// on a cold private pool.
//
// A suite is one row of Suites(): its queries, its labelled
// SessionOptions plans (the label is the JSON `backend`), and an
// optional check that aborts on a violated claim. RunSuite asserts
// node-identical results across a suite's plans, calls the check, prints
// one table per suite and writes the suite's BENCH_<name>.json rows;
// faults/skipped/result are deterministic and gated by the CI
// perf-regression job (tools/check_bench_regression.py) against
// bench/baselines/.
//
// Usage: bench_cold_suites [suite name...]; no names runs every suite.
// ctest registers one smoke test per suite, smoke_bench_<name>.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "baselines/mpmgjn.h"
#include "bench_util.h"
#include "util/timer.h"

namespace sj::bench {
namespace {

/// Pool size of every suite but the disk-pages grid.
constexpr size_t kPoolPages = 64;

/// One row of a suite's table and JSON file.
struct Row {
  std::string plan;  ///< JSON `backend`
  uint64_t faults = 0;
  uint64_t pins = 0;
  uint64_t skipped = 0;
  uint64_t intermediates = 0;  ///< nodes handed from one step to the next
  uint64_t result = 0;
  double ms = 0;
};

/// Everything a step handed to the next step; the final answer is not
/// an intermediate.
uint64_t Intermediates(const QueryResult& r) {
  uint64_t produced = 0;
  for (const StepTrace& step : r.trace) produced += step.stats.result_size;
  return produced - r.nodes.size();
}

/// One query of a suite at one document size, after every plan ran.
struct Measured {
  const Database& db;
  const char* query;
  const std::vector<ColdRun>& runs;  ///< one per plan, in plan order
  std::vector<Row>& rows;            ///< the check may append comparators
};

struct Plan {
  std::string label;
  SessionOptions options;
};

struct Suite {
  const char* name = "";  ///< command-line name; rows go to BENCH_<name>.json
  const char* id = "";
  const char* description = "";
  DatabaseOptions open;
  std::vector<double> sizes = BenchSizes();
  std::span<const char* const> queries;
  std::vector<Plan> plans;
  void (*check)(const Measured&) = nullptr;  ///< optional
};

[[noreturn]] void Fail(const char* query, const char* what) {
  std::fprintf(stderr, "%s on %s\n", what, query);
  std::abort();
}

// --- FW1: disk pages --------------------------------------------------------

constexpr const char* kDiskQueries[] = {
    "/descendant::people/descendant::profile/descendant::interest",
};

constexpr size_t kDiskPools[] = {8, 64, 1024};
constexpr SkipMode kDiskModes[] = {SkipMode::kNone, SkipMode::kSkip,
                                   SkipMode::kEstimated};
constexpr const char* kDiskModeNames[] = {"none", "skip", "estimated"};

void CheckDiskPages(const Measured& m) {
  for (size_t p = 0; p < std::size(kDiskPools); ++p) {
    const ColdRun* modes = &m.runs[p * std::size(kDiskModes)];
    // The page-level form of the paper's skipping claim: at every pool
    // size, skipping reads no page the full scan would not, and the
    // estimated skip reads strictly fewer.
    if (modes[1].faults > modes[0].faults) {
      Fail(m.query, "skipping faulted more pages than the full scan");
    }
    if (modes[2].faults >= modes[0].faults) {
      Fail(m.query, "estimated skipping did not save a page");
    }
  }
}

Suite DiskPages() {
  Suite s;
  s.name = "disk_pages";
  s.id = "FW1 (Section 6, future work: disk pages)";
  s.description =
      "paged XPath evaluation: page faults per skip mode and pool size";
  s.open.build_tag_index = false;  // every plan joins over the document
  // One document: the largest of the default sweep (11 MB at small
  // scale), never the xl instance.
  s.sizes = {s.sizes.size() > 2 ? s.sizes[2] : s.sizes.back()};
  s.queries = kDiskQueries;
  // Pool size x skip mode, pool-major (CheckDiskPages reads the grid).
  for (size_t pages : kDiskPools) {
    for (size_t i = 0; i < std::size(kDiskModes); ++i) {
      SessionOptions opt;
      opt.backend = StorageBackend::kPaged;
      opt.hints.pushdown = PushdownMode::kNever;  // measure the document scan
      // Step-at-a-time on purpose: this suite contrasts the staircase
      // join's skip modes; the twig join would collapse the chain and
      // equalize the rows (TW1 measures the twig).
      opt.hints.twig = TwigMode::kNever;
      opt.staircase.skip_mode = kDiskModes[i];
      opt.private_pool_pages = pages;
      const std::string label =
          "pool-" + std::to_string(pages) + "/" + kDiskModeNames[i];
      s.plans.push_back(Plan{label, opt});
    }
  }
  s.check = CheckDiskPages;
  return s;
}

// --- FW2: mixed axes --------------------------------------------------------

/// Queries mixing staircase and non-staircase steps over the XMark
/// schema (site/open_auctions/open_auction/bidder/increase,
/// site/people/person/profile/education, @id on person/open_auction).
constexpr const char* kMixedQueries[] = {
    "/descendant::open_auction/child::bidder/child::increase",
    "/child::people/child::person/child::profile/child::education",
    "/descendant::person/attribute::id",
    "/descendant::bidder/following-sibling::bidder",
    "/descendant::increase/parent::bidder/preceding-sibling::bidder",
};

Suite MixedAxes() {
  Suite s;
  s.name = "mixed_axes";
  s.id = "FW2 (axis cursors: mixed axes)";
  s.description =
      "mixed staircase + child/attribute/sibling queries: every step "
      "IO-charged on the paged backend";
  s.open.build_tag_index = false;  // both backends join over the document
  s.queries = kMixedQueries;
  SessionOptions mem;
  mem.hints.pushdown = PushdownMode::kNever;
  // Step-at-a-time on purpose: this suite measures the per-step axis
  // kernels through the pool; the twig join would collapse the child
  // chains (TW1 measures that effect).
  mem.hints.twig = TwigMode::kNever;
  SessionOptions paged = mem;
  paged.backend = StorageBackend::kPaged;
  paged.private_pool_pages = kPoolPages;
  // No check: RunSuite's node identity holds the paged plan, every step
  // of which charges its reads to the pool, to the memory engine.
  s.plans = {{"memory", mem}, {"paged-cold", paged}};
  return s;
}

// --- CC1: compressed columns ------------------------------------------------

/// Descendant scans and a following region query over the XMark schema.
constexpr const char* kCompressedQueries[] = {
    "/descendant::people/descendant::profile/descendant::interest",
    "/descendant::open_auction/descendant::bidder",
    "/descendant::person/following::open_auction",
};

void CheckCompressed(const Measured& m) {
  const ColdRun& paged = m.runs[0];
  const ColdRun& zip = m.runs[1];
  // The same scan over the same ranks: only the page packing differs.
  if (zip.skipped != paged.skipped) {
    Fail(m.query, "compressed skipped count diverged from paged");
  }
  // The acceptance bar of the compressed backend; a violation is a
  // codec or layout regression and must fail the smoke run.
  if (zip.faults >= paged.faults) {
    std::fprintf(stderr, "compressed faulted %llu pages vs paged %llu\n",
                 static_cast<unsigned long long>(zip.faults),
                 static_cast<unsigned long long>(paged.faults));
    Fail(m.query, "compressed columns did not save a page");
  }
}

Suite Compressed() {
  Suite s;
  s.name = "compressed_columns";
  s.id = "CC1 (compressed columns)";
  s.description =
      "FOR/delta block-compressed columns vs uncompressed pages: faults "
      "per query at equal page and pool size";
  s.open.build_tag_index = false;  // both backends join over the document
  s.queries = kCompressedQueries;
  SessionOptions paged;
  paged.backend = StorageBackend::kPaged;
  paged.hints.pushdown = PushdownMode::kNever;
  // Step-at-a-time on purpose: this suite compares the raw column scans
  // of the two storage formats; the twig join would collapse the chain
  // queries to a handful of fragment pages on both backends.
  paged.hints.twig = TwigMode::kNever;
  paged.private_pool_pages = kPoolPages;
  SessionOptions zip = paged;
  zip.backend = StorageBackend::kCompressed;
  s.plans = {{"paged-cold", paged}, {"compressed-cold", zip}};
  s.check = CheckCompressed;
  return s;
}

// --- TW1: twig paths --------------------------------------------------------

/// XMark descendant chains, k >= 3. The inner tags occur in OTHER
/// sections of the document too (date under mail and bidder, seller
/// under both auction lists), so the leapfrog cascade genuinely skips
/// fragment pages instead of merely saving the intermediate copies.
constexpr const char* kChains[] = {
    "/descendant::open_auctions/descendant::open_auction"
    "/descendant::bidder/descendant::date",
    "/descendant::open_auctions/descendant::open_auction"
    "/descendant::seller",
    "/descendant::regions/descendant::item/descendant::mailbox"
    "/descendant::date",
};

/// The tags of a `/descendant::a/descendant::b/...` chain, outermost
/// first.
std::vector<std::string> ChainTags(const char* query) {
  constexpr std::string_view kStep = "/descendant::";
  std::vector<std::string> tags;
  std::string_view rest = query;
  while (!rest.empty()) {
    if (!rest.starts_with(kStep)) Fail(query, "not a descendant chain");
    rest.remove_prefix(kStep.size());
    const size_t end = std::min(rest.find('/'), rest.size());
    tags.emplace_back(rest.substr(0, end));
    rest.remove_prefix(end);
  }
  return tags;
}

/// The related-work comparator: the chain as k-1 MPMGJN merge joins over
/// pre-sorted tag lists, every step fully materialized.
Row RunMpmgjn(const Database& db, const char* query, NodeSequence* nodes) {
  auto snap = db.CurrentSnapshot();
  const DocTable& doc = *snap->images().doc;
  const TagIndex& tags = *snap->images().tag_index;
  Row row;
  row.plan = "mpmgjn-memory";
  row.ms = -1;
  for (int rep = 0; rep < BenchReps(); ++rep) {
    Timer timer;
    NodeSequence current =
        doc.empty() ? NodeSequence{} : NodeSequence{doc.root()};
    uint64_t produced = 0;
    for (const std::string& tag : ChainTags(query)) {
      JoinList alist = MakeJoinList(doc, current);
      JoinList dlist = MakeJoinList(
          doc, tags.view(doc.tags().Lookup(tag).value_or(kNoTag)).pre);
      auto r = MpmgjnDescendants(alist, dlist, doc.height());
      if (!r.ok()) Fail(query, r.status().ToString().c_str());
      current = std::move(r).value();
      produced += current.size();
    }
    const double ms = timer.ElapsedMillis();
    if (row.ms < 0 || ms < row.ms) row.ms = ms;
    row.result = current.size();
    row.intermediates = produced - current.size();
    *nodes = std::move(current);
  }
  return row;
}

void CheckTwig(const Measured& m) {
  const ColdRun& twig = m.runs[0];
  const ColdRun& step = m.runs[1];
  // The plan under test must be the twig join, or the rows below
  // compare step-at-a-time with itself.
  const std::vector<PlanStepSummary> plan = twig.last.PlanSummary();
  if (plan.empty() || plan[0].op != "twig") {
    std::fprintf(stderr, "%s\n", twig.last.Explain().c_str());
    Fail(m.query, "twig plan did not collapse");
  }
  // The twig join's core claim: it materializes nothing between levels.
  // Any nonzero count is a planner or twig-kernel regression.
  if (Intermediates(twig.last) != 0) {
    Fail(m.query, "twig plan materialized intermediate nodes");
  }
  // The IO half of the claim: one pass over k fragments plus the probed
  // doc pages must beat k full step scans on a cold pool.
  if (twig.faults >= step.faults) {
    std::fprintf(stderr, "twig faulted %llu pages vs step-at-a-time %llu\n",
                 static_cast<unsigned long long>(twig.faults),
                 static_cast<unsigned long long>(step.faults));
    Fail(m.query, "twig join did not save a page");
  }
  // RunSuite matched step-at-a-time to the twig node for node; the
  // merge-join comparator must match too.
  NodeSequence nodes;
  m.rows.push_back(RunMpmgjn(m.db, m.query, &nodes));
  if (nodes != step.last.nodes) Fail(m.query, "MPMGJN result diverged");
}

Suite TwigPaths() {
  Suite s;
  s.name = "twig_paths";
  s.id = "TW1 (twig paths)";
  s.description =
      "holistic twig join vs step-at-a-time vs MPMGJN on XMark chains: "
      "intermediate context nodes and cold page faults at equal pool size";
  s.queries = kChains;
  SessionOptions twig;
  twig.backend = StorageBackend::kPaged;
  twig.private_pool_pages = kPoolPages;
  SessionOptions step = twig;
  step.hints.twig = TwigMode::kNever;
  s.plans = {{"twig-paged-cold", twig}, {"step-paged-cold", step}};
  s.check = CheckTwig;
  return s;
}

// --- CM1: cost model --------------------------------------------------------

/// A selective single step, a chain whose inner steps see wide contexts
/// (where pushdown's per-context probes lose), and a deep chain over
/// small fragments (where pushdown wins); then three positional steps,
/// which rank over the tag fragment unless the hint is kNever: a child
/// step per context node, a one-off descendant rank from the root, and a
/// following-sibling walk; last, the ancestor, following and preceding
/// steps whose fragment joins seek forward from wide contexts.
constexpr const char* kCostQueries[] = {
    "/descendant::person",
    "/descendant::open_auctions/descendant::open_auction"
    "/descendant::seller",
    "/descendant::regions/descendant::item/descendant::mailbox"
    "/descendant::date",
    "/descendant::open_auction/child::bidder[2]",
    "/descendant::item[2]",
    "/descendant::mailbox/parent::item/following-sibling::item[3]",
    "/descendant::increase/ancestor::bidder",
    "/descendant::quantity/following::payment",
    "/descendant::quantity/preceding::incategory",
    "/descendant::location/ancestor::item",
};

/// kAuto must stay within this factor of the best pinned hint.
constexpr double kAutoFaultBudget = 1.1;

void CheckCostModel(const Measured& m) {
  const uint64_t auto_faults = m.runs[0].faults;
  const uint64_t best = std::min(m.runs[1].faults, m.runs[2].faults);
  // The cost model must find (or beat) the best hint per query without
  // being told. +1 absolute slack: a one-page difference on a tiny plan
  // is page rounding, not a planning mistake.
  if (static_cast<double>(auto_faults) >
      kAutoFaultBudget * static_cast<double>(best) + 1.0) {
    std::fprintf(stderr, "auto faulted %llu pages vs best hint %llu\n",
                 static_cast<unsigned long long>(auto_faults),
                 static_cast<unsigned long long>(best));
    Fail(m.query, "cost model lost to the best hint");
  }
}

Suite CostModel() {
  Suite s;
  s.name = "cost_model";
  s.id = "CM1 (cost model)";
  s.description =
      "estimate-driven planning (cost_model=kAuto) vs pinned pushdown "
      "hints on a cold pool: kAuto must match the best hint per query, "
      "node-identically";
  s.queries = kCostQueries;
  // One cold private pool per planning configuration; twig collapse is
  // disabled so the per-step operator choice is what's measured. A
  // pinned hint wins over the estimates, so the hint plans keep kAuto.
  SessionOptions planned;
  planned.backend = StorageBackend::kPaged;
  planned.private_pool_pages = kPoolPages;
  planned.hints.twig = TwigMode::kNever;
  SessionOptions always = planned;
  always.hints.pushdown = PushdownMode::kAlways;
  SessionOptions never = planned;
  never.hints.pushdown = PushdownMode::kNever;
  s.plans.push_back(Plan{"auto-paged-cold", planned});
  s.plans.push_back(Plan{"hint-always-paged-cold", always});
  s.plans.push_back(Plan{"hint-never-paged-cold", never});
  s.check = CheckCostModel;
  return s;
}

// --- running a suite --------------------------------------------------------

std::vector<Suite> Suites() {
  return {DiskPages(), MixedAxes(), Compressed(), TwigPaths(), CostModel()};
}

void RunSuite(const Suite& suite) {
  PrintHeader(suite.id, suite.description);
  std::vector<JsonRecord> json;
  TablePrinter t({"doc size", "query", "plan", "faults", "pins", "skipped",
                  "intermediates", "result", "time [ms]"});
  for (double mb : suite.sizes) {
    auto db = MakeDatabase(mb, suite.open);
    auto snap = db->CurrentSnapshot();
    std::printf("document %s: %zu nodes, %zu paged / %zu compressed pages\n",
                SizeLabel(mb).c_str(), snap->images().doc->size(),
                snap->images().paged.doc->page_count(),
                snap->images().compressed.doc->page_count());
    std::vector<Session> sessions;
    for (const Plan& plan : suite.plans) {
      sessions.push_back(MustSession(*db, plan.options));
    }
    for (const char* query : suite.queries) {
      std::vector<ColdRun> runs;
      std::vector<Row> rows;
      for (size_t i = 0; i < sessions.size(); ++i) {
        runs.push_back(RunCold(sessions[i], query));
        const ColdRun& r = runs.back();
        // Plans and backends are performance knobs, never semantic ones.
        if (r.last.nodes != runs[0].last.nodes) {
          std::fprintf(stderr, "%s vs %s\n", suite.plans[i].label.c_str(),
                       suite.plans[0].label.c_str());
          Fail(query, "results diverged across plans");
        }
        rows.push_back(Row{suite.plans[i].label, r.faults, r.pins, r.skipped,
                           Intermediates(r.last), r.result, r.ms});
      }
      if (suite.check != nullptr) suite.check({*db, query, runs, rows});
      for (const Row& row : rows) {
        t.AddRow({SizeLabel(mb), query, row.plan,
                  TablePrinter::Count(row.faults),
                  TablePrinter::Count(row.pins),
                  TablePrinter::Count(row.skipped),
                  TablePrinter::Count(row.intermediates),
                  TablePrinter::Count(row.result),
                  TablePrinter::Fixed(row.ms, 2)});
        json.push_back({query, row.plan, mb, row.faults, row.ms, row.skipped,
                        row.result, 0, 0, 0});
      }
    }
  }
  std::printf("\n");
  t.Print();
  std::printf("\n");
  WriteJson(json, ("BENCH_" + std::string(suite.name) + ".json").c_str());
}

}  // namespace
}  // namespace sj::bench

int main(int argc, char** argv) {
  const std::vector<sj::bench::Suite> suites = sj::bench::Suites();
  if (argc == 1) {
    for (const sj::bench::Suite& suite : suites) sj::bench::RunSuite(suite);
    return 0;
  }
  for (int i = 1; i < argc; ++i) {
    const std::string_view name = argv[i];
    auto it = std::find_if(
        suites.begin(), suites.end(),
        [&](const sj::bench::Suite& s) { return s.name == name; });
    if (it == suites.end()) {
      std::fprintf(stderr, "unknown suite '%s'; suites:", argv[i]);
      for (const sj::bench::Suite& s : suites) {
        std::fprintf(stderr, " %s", s.name);
      }
      std::fprintf(stderr, "\n");
      return 2;
    }
    sj::bench::RunSuite(*it);
  }
  return 0;
}
