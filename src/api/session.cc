#include "api/session.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "api/database.h"
#include "util/timer.h"
#include "xpath/explain_strings.h"
#include "xpath/parser.h"

namespace sj {

std::string QueryResult::Explain() const {
  std::string out;
  if (snapshot_epoch > 0) {
    out += xpath::explain::kSnapshotOpen;
    out += std::to_string(snapshot_epoch);
    out += xpath::explain::kSnapshotDeltaOpen;
    out += std::to_string(snapshot_delta_nodes);
    out += xpath::explain::kSnapshotDeltaClose;
    out += "\n";
  }
  if (plan_cached) {
    out += xpath::explain::kPlanCachedOpen;
    out += std::to_string(plan_cache_hits);
    out += xpath::explain::kCloseParen;
    out += "\n";
  }
  out += xpath::ExplainTrace(trace);
  return out;
}

namespace {

/// The PlanStepSummary::op token of a StepOperator. Deliberately not in
/// explain_strings.h: these are structural API tokens, not EXPLAIN text.
const char* StepOperatorToken(xpath::StepOperator op) {
  switch (op) {
    case xpath::StepOperator::kStaircase:
      return "staircase";
    case xpath::StepOperator::kPushdown:
      return "pushdown";
    case xpath::StepOperator::kAxisCursor:
      return "axis-cursor";
    case xpath::StepOperator::kTwig:
      return "twig";
    case xpath::StepOperator::kTwigSubsumed:
      return "twig-subsumed";
    case xpath::StepOperator::kPositional:
      return "positional";
    case xpath::StepOperator::kPerContext:
      return "per-context";
    case xpath::StepOperator::kEmpty:
      return "empty";
  }
  return "unknown";
}

}  // namespace

std::vector<PlanStepSummary> QueryResult::PlanSummary() const {
  std::vector<PlanStepSummary> rows;
  rows.reserve(trace.size());
  for (size_t i = 0; i < trace.size(); ++i) {
    const StepTrace& step = trace[i];
    PlanStepSummary row;
    row.step = i + 1;
    row.op = StepOperatorToken(step.op);
    row.estimated_rows = step.estimated_rows;
    row.actual_rows = step.stats.result_size;
    row.faults = step.pool_faults;
    rows.push_back(std::move(row));
  }
  return rows;
}

Session::Session(const Database* db, SessionOptions options,
                 std::shared_ptr<const DatabaseSnapshot> snap,
                 std::unique_ptr<storage::BufferPool> private_pool,
                 const xpath::EvalOptions& eval_options)
    : db_(db),
      options_(std::move(options)),
      snap_(std::move(snap)),
      private_pool_(std::move(private_pool)),
      eval_options_(eval_options),
      engine_(std::make_unique<xpath::Evaluator>(*snap_->images().doc,
                                                 eval_options)) {}

Status Session::EnsureCurrentSnapshot() {
  std::shared_ptr<const DatabaseSnapshot> current = db_->CurrentSnapshot();
  if (current.get() == snap_.get()) return Status::OK();
  std::unique_ptr<storage::BufferPool> private_pool;
  SJ_ASSIGN_OR_RETURN(xpath::EvalOptions eval,
                      db_->MakeEvalOptions(current, options_, &private_pool));
  engine_ = std::make_unique<xpath::Evaluator>(*current->images().doc, eval);
  eval_options_ = std::move(eval);
  private_pool_ = std::move(private_pool);
  snap_ = std::move(current);
  // The memo's keys carry the superseded epoch; entries can never be
  // served again (PlanKey changed), so drop them wholesale.
  plan_memo_.clear();
  db_->RecordSnapshotPinned();
  return Status::OK();
}

std::string Session::PlanKey(std::string_view xpath) const {
  // '\x1f' (unit separator) cannot appear in a parseable query, so the
  // key is unambiguous. The selectivity threshold is a double: print a
  // round-trippable form, not a truncated one.
  char selectivity[32];
  std::snprintf(selectivity, sizeof(selectivity), "%.17g",
                options_.hints.pushdown_selectivity);
  std::string key(xpath);
  key += '\x1f';
  key += std::to_string(static_cast<int>(options_.backend));
  key += '\x1f';
  key += std::to_string(static_cast<int>(options_.hints.pushdown));
  key += '\x1f';
  key += std::to_string(static_cast<int>(options_.hints.twig));
  key += '\x1f';
  key += selectivity;
  // The cost-model mode participates too: a kAuto plan's estimate-driven
  // operator choices must never be served to a kOff session (or vice
  // versa) even when every hint matches.
  key += '\x1f';
  key += std::to_string(static_cast<int>(options_.hints.cost_model));
  // The snapshot epoch: planning reads the merged tag dictionary and
  // fragment counts, which change per published edit. Keying on the
  // epoch retires every stale plan at once -- a commit between two runs
  // of the same query recompiles instead of serving the old epoch's tag
  // ids against the new snapshot.
  key += '\x1f';
  key += std::to_string(snap_->epoch());
  return key;
}

void Session::Memoize(const std::string& key,
                      std::shared_ptr<const xpath::CompiledPlan> plan,
                      uint64_t serves) {
  // Bounded by the shared cache's capacity; clearing wholesale on
  // overflow is crude but rare, and refilling costs one shared lookup
  // per key.
  if (plan_memo_.size() >= db_->plan_cache()->capacity()) plan_memo_.clear();
  plan_memo_.emplace(key, PlanMemoEntry{std::move(plan), serves});
}

Result<QueryResult> Session::Run(std::string_view xpath) {
  const DocTable& doc = db_->doc();
  return Run(xpath, doc.empty() ? NodeSequence{} : NodeSequence{doc.root()});
}

Result<QueryResult> Session::Run(std::string_view xpath,
                                 const NodeSequence& context) {
  Timer timer;
  // Pin the snapshot FIRST: everything below -- the plan key's epoch,
  // the planner's tag interning, the overlay the joins read -- must
  // agree on one snapshot for the whole run.
  SJ_RETURN_NOT_OK(EnsureCurrentSnapshot());
  // The serving hot path: a hot query's parse + planning collapses into
  // one cache lookup. The compiled plan is shared (shared_ptr) so an
  // eviction mid-query cannot pull it out from under us, and it is keyed
  // by the semantic options (PlanKey), so a plan compiled under one
  // backend never drives another.
  PlanCache* cache = db_->plan_cache();
  std::shared_ptr<const xpath::CompiledPlan> plan;
  bool plan_cached = false;
  bool memo_served = false;
  uint64_t plan_cache_hits = 0;
  std::string key;
  if (cache != nullptr) {
    key = PlanKey(xpath);
    // Hot path: the session-local memo serves repeat queries without
    // touching the shared cache latch (sessions are single-threaded).
    if (auto memo = plan_memo_.find(key); memo != plan_memo_.end()) {
      plan = memo->second.plan;
      plan_cached = true;
      memo_served = true;
      plan_cache_hits = ++memo->second.serves;
    } else if (std::optional<PlanCache::Hit> hit = cache->Lookup(key)) {
      plan = hit->plan;
      plan_cached = true;
      plan_cache_hits = hit->hits;
      Memoize(key, std::move(hit->plan), hit->hits);
    }
  }
  if (plan == nullptr) {
    auto parsed = xpath::ParseXPathUnion(xpath);
    if (!parsed.ok()) {
      // A failed parse caches nothing: the miss was already counted, and
      // an entry for garbage text would only displace real plans.
      db_->RecordQuery(/*ok=*/false, 0, /*memo_served=*/false);
      return parsed.status();
    }
    auto compiled = std::make_shared<xpath::CompiledPlan>(
        engine_->Compile(std::move(parsed).value()));
    if (cache != nullptr) {
      cache->Insert(key, compiled);
      Memoize(key, compiled, 0);
    }
    plan = std::move(compiled);
  }
  auto evaluated = engine_->Evaluate(*plan, context);
  if (!evaluated.ok()) {
    db_->RecordQuery(/*ok=*/false, 0, memo_served);
    return evaluated.status();
  }
  NodeSequence nodes = std::move(evaluated).value();
  db_->RecordQuery(/*ok=*/true, nodes.size(), memo_served);
  QueryResult result;
  result.nodes = std::move(nodes);
  result.trace = engine_->last_trace();
  result.plan_cached = plan_cached;
  result.plan_cache_hits = plan_cache_hits;
  result.snapshot_epoch = snap_->epoch();
  result.snapshot_delta_nodes = snap_->delta_nodes();
  for (const StepTrace& step : result.trace) {
    result.totals.MergeFrom(step.stats);
    result.totals.workers = std::max(result.totals.workers,
                                     step.stats.workers);
  }
  result.totals.result_size = result.nodes.size();
  result.millis = timer.ElapsedMillis();
  return result;
}

}  // namespace sj
