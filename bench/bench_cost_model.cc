// CM1 -- cost-based planning vs pinned hints: the estimate-driven
// planner (PlanHints::cost_model = kAuto) against every pushdown hint
// pinning (kAlways / kNever under the legacy static threshold) on XMark
// queries over a cold private pool. Two properties are enforced in-bench
// (abort on violation): every configuration returns node-identical
// results, and kAuto's cold faults stay within 1.1x of the best pinned
// configuration -- the cost model must find (or beat) the best hint, per
// query, without being told. Results land in BENCH_cost_model.json as
//   {"query", "backend", "size_mb", "faults", "skipped", "result", "ms"}
// records; faults/skipped/result are deterministic and gated by the CI
// perf-regression job against bench/baselines/.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_util.h"

namespace sj::bench {
namespace {

/// The acceptance set: a selective single step, a chain whose inner
/// steps see wide contexts (where pushdown's per-context probes lose),
/// and a deep chain over small fragments (where pushdown wins); then
/// three positional steps, which rank over the tag fragment unless the
/// hint is kNever: a child step per context node, a one-off
/// descendant rank from the root, and a following-sibling walk; last,
/// the ancestor, following and preceding steps whose fragment joins
/// seek forward from wide contexts.
constexpr const char* kQueries[] = {
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

constexpr size_t kPoolPages = 64;
/// kAuto must stay within this factor of the best pinned configuration.
constexpr double kAutoFaultBudget = 1.1;

struct ColdRun {
  uint64_t faults = 0;
  uint64_t skipped = 0;
  size_t result = 0;
  double ms = -1;
  NodeSequence nodes;
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
    out.nodes = std::move(r.value().nodes);
    if (out.ms < 0 || r.value().millis < out.ms) out.ms = r.value().millis;
  }
  return out;
}

void Run() {
  PrintHeader("CM1 (cost model)",
              "estimate-driven planning (cost_model=kAuto) vs pinned "
              "pushdown hints on a cold pool: kAuto must match the best "
              "hint per query, node-identically");
  std::vector<JsonRecord> json;
  TablePrinter t({"doc size", "query", "auto faults", "always faults",
                  "never faults", "best hint", "auto vs best", "result"});
  for (double mb : BenchSizes()) {
    auto db = MakeDatabase(mb);

    // One cold private pool per planning configuration; twig collapse is
    // disabled so the per-step operator choice is what's measured.
    SessionOptions auto_opt;
    auto_opt.backend = StorageBackend::kPaged;
    auto_opt.private_pool_pages = kPoolPages;
    auto_opt.hints.twig = TwigMode::kNever;
    SessionOptions always_opt = auto_opt;
    always_opt.hints.pushdown = PushdownMode::kAlways;
    always_opt.hints.cost_model = CostModelMode::kOff;
    SessionOptions never_opt = auto_opt;
    never_opt.hints.pushdown = PushdownMode::kNever;
    never_opt.hints.cost_model = CostModelMode::kOff;

    auto auto_s = db->CreateSession(auto_opt);
    auto always_s = db->CreateSession(always_opt);
    auto never_s = db->CreateSession(never_opt);
    if (!auto_s.ok() || !always_s.ok() || !never_s.ok()) {
      std::fprintf(stderr, "session failed\n");
      std::abort();
    }

    for (const char* query : kQueries) {
      ColdRun a = RunCold(auto_s.value(), query);
      ColdRun hint_always = RunCold(always_s.value(), query);
      ColdRun hint_never = RunCold(never_s.value(), query);
      if (a.nodes != hint_always.nodes || a.nodes != hint_never.nodes) {
        // Operator choice is a performance knob, never a semantic one.
        std::fprintf(stderr, "results diverged across hints on %s\n", query);
        std::abort();
      }
      const uint64_t best = std::min(hint_always.faults, hint_never.faults);
      const uint64_t worst = std::max(hint_always.faults, hint_never.faults);
      // +1 absolute slack: a one-page difference on a tiny plan is page
      // rounding, not a planning mistake.
      if (static_cast<double>(a.faults) >
          kAutoFaultBudget * static_cast<double>(best) + 1.0) {
        std::fprintf(stderr,
                     "cost model lost to the best hint on %s: "
                     "auto=%llu best=%llu worst=%llu\n",
                     query, static_cast<unsigned long long>(a.faults),
                     static_cast<unsigned long long>(best),
                     static_cast<unsigned long long>(worst));
        std::abort();
      }
      t.AddRow({SizeLabel(mb), query, TablePrinter::Count(a.faults),
                TablePrinter::Count(hint_always.faults),
                TablePrinter::Count(hint_never.faults),
                hint_always.faults <= hint_never.faults ? "always" : "never",
                TablePrinter::Fixed(
                    best > 0 ? static_cast<double>(a.faults) /
                                   static_cast<double>(best)
                             : 1.0,
                    2) + "x",
                TablePrinter::Count(a.result)});
      json.push_back({query, "auto-paged-cold", mb, a.faults, a.ms, a.skipped,
                      a.result, 0, 0, 0});
      json.push_back({query, "hint-always-paged-cold", mb, hint_always.faults,
                      hint_always.ms, hint_always.skipped, hint_always.result,
                      0, 0, 0});
      json.push_back({query, "hint-never-paged-cold", mb, hint_never.faults,
                      hint_never.ms, hint_never.skipped, hint_never.result,
                      0, 0, 0});
    }
  }
  t.Print();
  std::printf("same queries, same cold pool (%zu pages): the estimate-driven "
              "planner picks per step what the best global hint can only pin "
              "globally -- within %.1fx of the best hint everywhere, "
              "node-identical everywhere\n",
              kPoolPages, kAutoFaultBudget);
  WriteJson(json, "BENCH_cost_model.json");
}

}  // namespace
}  // namespace sj::bench

int main() { sj::bench::Run(); }
