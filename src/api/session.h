// Session: a cheap per-thread query handle onto an open Database.
//
// The public query API of this library is two types (paper Section 6's
// "teach a relational DBMS": the engine hides behind a narrow waist the
// way a production system would embed it):
//
//   auto db = sj::Database::FromXml(xml).value();      // open once
//   auto session = db->CreateSession().value();        // one per thread
//   auto r = session.Run("/descendant::bidder").value();
//   //  r.nodes, r.trace, r.totals, r.Explain()
//
// A Session owns all per-query mutable state (the internal evaluator and
// its EXPLAIN trace), so any number of sessions may run concurrently over
// one shared Database; Run returns a self-contained QueryResult instead
// of mutating shared evaluator state. Sessions are cheap to create --
// backend wiring and digest validation happened once at Database open
// time -- and movable but not copyable; one session must not be driven
// from two threads at once.

#ifndef STAIRJOIN_API_SESSION_H_
#define STAIRJOIN_API_SESSION_H_

#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "api/snapshot.h"
#include "core/stats.h"
#include "storage/buffer_pool.h"
#include "util/result.h"
#include "xpath/evaluator.h"

namespace sj {

class Database;

// The semantic query knobs and the planner hints (PlanHints), re-exported
// so facade callers need not spell the internal engine namespace.
using xpath::DocStatistics;
using xpath::PlanHints;
using xpath::PushdownMode;
using xpath::StepOperator;
using xpath::StepTrace;
using xpath::StorageBackend;
using xpath::TwigMode;

/// \brief Per-session configuration: execution knobs plus PlanHints.
///
/// Backend *wiring* (which tables, pools and fragment images serve a
/// query) is resolved by the Database; a session merely chooses between
/// the backends the database was opened with. Adding a storage backend is
/// therefore an internal change -- no caller wires pointers.
struct SessionOptions {
  /// Planner hints (semantic intent); default = fully planner-decided.
  PlanHints hints;
  /// Skip mode / attribute handling of the staircase join itself.
  StaircaseOptions staircase;
  /// >1 runs the partitioned parallel staircase join with this many
  /// workers (per query -- independent of how many sessions exist).
  unsigned num_threads = 1;
  /// Storage backend: kMemory (resident BATs), kPaged (raw page columns
  /// behind the buffer pool over the database's disk image; requires
  /// DatabaseOptions::build_paged) or kCompressed (FOR/delta
  /// block-compressed columns behind the same pool; requires
  /// DatabaseOptions::build_compressed).
  StorageBackend backend = StorageBackend::kMemory;
  /// Pool-backed backends only: 0 shares the database's pool with every
  /// other session (the production configuration); >0 gives this session
  /// a private pool of that many pages over the same disk image, for
  /// cold-cache / pool-size experiments that must not disturb or be
  /// disturbed by other sessions.
  size_t private_pool_pages = 0;
};

/// \brief One row of QueryResult::PlanSummary(): the planner's choice
/// and its estimate vs what actually happened, per step.
struct PlanStepSummary {
  /// 1-based step number, matching EXPLAIN's "step N:" lines.
  size_t step = 0;
  /// Operator token: "staircase", "pushdown", "axis-cursor", "twig",
  /// "twig-subsumed", "positional" or "empty" ("per-context" names
  /// StepOperator::kPerContext, which no plan produces).
  std::string op;
  /// The cost model's output-cardinality estimate (EXPLAIN "est=N").
  uint64_t estimated_rows = 0;
  /// Rows the step actually produced (EXPLAIN "act=M").
  uint64_t actual_rows = 0;
  /// Buffer-pool faults charged while the step ran (0 on the memory
  /// backend; approximate under a shared pool -- see StepTrace).
  uint64_t faults = 0;
};

/// \brief One query's complete, self-contained answer.
struct QueryResult {
  /// Result nodes, duplicate-free, in document order.
  NodeSequence nodes;
  /// Per-step EXPLAIN of the executed plan (one entry per step; union
  /// branches contribute their steps in branch order).
  std::vector<StepTrace> trace;
  /// Step counters summed over the plan (workers = the widest step).
  JoinStats totals;
  /// Wall time of parse + evaluation, milliseconds.
  double millis = 0.0;
  /// True when the query was served a compiled plan from the database's
  /// plan cache (parse + planning skipped).
  bool plan_cached = false;
  /// How often the cached plan has been served, this run included;
  /// 0 when the query compiled its plan afresh.
  uint64_t plan_cache_hits = 0;
  /// Epoch of the snapshot this query ran over (0: the pristine open).
  uint64_t snapshot_epoch = 0;
  /// Resident delta nodes of that snapshot (0 when pristine/compacted).
  uint64_t snapshot_delta_nodes = 0;

  /// Renders the trace as a readable multi-line EXPLAIN. A query over an
  /// edited database leads with one "snapshot: epoch N (delta: M nodes)"
  /// line (epoch 0 emits none -- pristine reports stay byte-identical);
  /// a cache-served query leads with one "plan: cached (hits=N)" line;
  /// everything after them is byte-identical to the uncached run's
  /// report.
  std::string Explain() const;

  /// The executed plan, structurally: one row per step with the chosen
  /// operator, estimated vs actual rows, and per-step pool faults --
  /// the same numbers EXPLAIN renders as text, for programmatic plan
  /// inspection (regression gates, dashboards).
  std::vector<PlanStepSummary> PlanSummary() const;
};

/// \brief A per-thread query handle over a shared Database.
class Session {
 public:
  Session(Session&&) = default;
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Parses and evaluates an XPath expression (unions included) from the
  /// document root.
  Result<QueryResult> Run(std::string_view xpath);

  /// Same, with an explicit context sequence (document order, duplicate
  /// free). Absolute paths ignore `context`, as in the paper's root(doc).
  Result<QueryResult> Run(std::string_view xpath, const NodeSequence& context);

  /// The database this session queries.
  const Database& database() const { return *db_; }

  /// The options the session was created with.
  const SessionOptions& options() const { return options_; }

  /// The buffer pool this session's paged reads go through: the
  /// database's shared pool, the session's private pool
  /// (SessionOptions::private_pool_pages), or nullptr on the memory
  /// backend. Exposed for experiment control (cold starts, fault
  /// accounting) -- queries never need it.
  storage::BufferPool* pool() const {
    return xpath::ImagePool(eval_options_.image);
  }

 private:
  friend class Database;

  Session(const Database* db, SessionOptions options,
          std::shared_ptr<const DatabaseSnapshot> snap,
          std::unique_ptr<storage::BufferPool> private_pool,
          const xpath::EvalOptions& eval_options);

  /// Pins the database's current snapshot: when the epoch moved since
  /// the last Run (a commit or compaction published), the evaluator,
  /// wiring and private pool are rebuilt against the new snapshot and
  /// the session-local plan memo is dropped (its keys carry the old
  /// epoch). Sessions thus follow the snapshot chain one Run at a time;
  /// a Run in flight keeps its pinned snapshot to the end.
  Status EnsureCurrentSnapshot();

  /// The plan-cache key of `xpath` under this session's backend and
  /// PlanHints (pushdown, twig, pushdown_selectivity -- the last only
  /// keeps sessions apart, no plan decision reads it), PLUS the pinned
  /// snapshot's epoch: a plan compiled over one epoch's merged
  /// dictionary and fragment counts must never drive another epoch, and
  /// a hint-pinned session never shares a cached plan with a kAuto
  /// session.
  std::string PlanKey(std::string_view xpath) const;

  /// Records a plan in the session-local memo (see plan_memo_), with
  /// `serves` as the starting serve count EXPLAIN continues from.
  void Memoize(const std::string& key,
               std::shared_ptr<const xpath::CompiledPlan> plan,
               uint64_t serves);

  /// One entry of the session-local plan memo (see plan_memo_).
  struct PlanMemoEntry {
    std::shared_ptr<const xpath::CompiledPlan> plan;
    /// Serves of this plan as seen by this session: the shared cache's
    /// hit count when the plan was fetched, plus one per local serve --
    /// the monotone count EXPLAIN's "plan: cached (hits=N)" reports.
    uint64_t serves = 0;
  };

  const Database* db_;
  SessionOptions options_;
  /// The snapshot this session is bound to (never null); refreshed by
  /// EnsureCurrentSnapshot at the top of every Run.
  std::shared_ptr<const DatabaseSnapshot> snap_;
  /// Plans this session already obtained from the database's shared
  /// PlanCache (or compiled and inserted itself), served on repeat runs
  /// without touching the shared latch: sessions are single-threaded,
  /// so the memo makes a hot session's serve path lock-free while the
  /// shared cache stays the authoritative LRU (sharing across sessions,
  /// hit/miss/eviction accounting, capacity). Entries pin their plan via
  /// shared_ptr, so a concurrent eviction or replacement in the shared
  /// cache never invalidates them -- plans are immutable and keyed by
  /// the same semantic options. Bounded by the shared cache's capacity
  /// (cleared wholesale when full; refilling costs one shared lookup
  /// per key).
  std::unordered_map<std::string, PlanMemoEntry> plan_memo_;
  /// Non-null iff private_pool_pages was set; the image handle's pool
  /// then points here (heap-allocated, so moving the session keeps it valid).
  std::unique_ptr<storage::BufferPool> private_pool_;
  xpath::EvalOptions eval_options_;
  /// The internal engine; owns the per-session EXPLAIN state.
  std::unique_ptr<xpath::Evaluator> engine_;
};

}  // namespace sj

#endif  // STAIRJOIN_API_SESSION_H_
