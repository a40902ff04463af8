// XPath evaluation on top of the staircase join.
//
// A location path s1/s2/.../sn is evaluated as a series of axis steps; the
// node sequence output by step si is the context sequence of step si+1
// (paper Section 2.1). Staircase axes run through the staircase join (with
// optional name-test pushdown onto tag fragments, Section 4.4 Experiment 3
// + Section 6 fragmentation); the remaining axes run through the
// set-at-a-time axis cursor kernels (core/axis_step.h) over the same
// DocAccessor backends, with the step's node test folded into the scan --
// so on the paged backend *every* step of a query charges its column
// reads to the buffer pool -- including positional predicates, which
// run as a set-at-a-time rank join within per-context groups (a name
// test led by [k] / [last()] reads each group's match from the tag
// fragment instead of scanning the group). Operator
// choice (pushdown vs staircase vs axis cursor) is estimate-driven via
// xpath/cost_model.h unless a hint pins it. There is one evaluation
// route: Compile a parsed expression into a CompiledPlan, then
// Evaluate(plan, context). The tree-unaware comparator lives in
// baselines/naive.h; the tests check this evaluator against an
// independent path oracle (tests/path_oracle.h).

#ifndef STAIRJOIN_XPATH_EVALUATOR_H_
#define STAIRJOIN_XPATH_EVALUATOR_H_

#include <optional>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "core/parallel.h"
#include "core/staircase_join.h"
#include "core/tag_view.h"
#include "core/twig_join.h"
#include "delta/overlay.h"
#include "encoding/doc_table.h"
#include "storage/compressed_doc.h"
#include "storage/compressed_tags.h"
#include "util/result.h"
#include "xpath/ast.h"
#include "xpath/cost_model.h"
#include "xpath/plan.h"

namespace sj::xpath {

/// Which storage backend the staircase joins read the doc columns from.
enum class StorageBackend : uint8_t {
  kMemory,      ///< in-memory DocTable BATs
  kPaged,       ///< raw page columns behind a BufferPool (IO-conscious)
  kCompressed,  ///< block-compressed (FOR/delta) columns behind a BufferPool
};

/// Whether name tests are pushed through the staircase join.
enum class PushdownMode : uint8_t {
  kAuto,    ///< the cost model decides
  kAlways,  ///< always evaluate over the tag fragment
  kNever,   ///< join over the document, name test afterwards
};

/// Whether runs of consecutive name-test descendant/child steps collapse
/// into the holistic twig join (core/twig_join.h).
enum class TwigMode : uint8_t {
  kAuto,   ///< collapse every eligible run of >= 2 levels
  kNever,  ///< strict step-at-a-time evaluation
};

/// \brief Planner hints: the *semantic intent* knobs that pin or free
/// the planner's operator choices. All defaults mean "let the cost
/// model decide"; a pinned hint always wins over the estimates. The
/// facade re-exports this struct as sj::PlanHints
/// (SessionOptions::hints); every field is part of the plan-cache key,
/// so sessions share a compiled plan only when their hints are equal.
struct PlanHints {
  /// Whether name tests are pushed down onto tag fragments. kAuto
  /// defers to the cost model; kAlways/kNever pin the choice.
  PushdownMode pushdown = PushdownMode::kAuto;
  /// Whether eligible step runs (consecutive predicate-free name-test
  /// child/descendant(-or-self) steps) are evaluated as one holistic
  /// twig join instead of step-at-a-time. Requires the image's fragment
  /// index; ineligible runs and missing indexes silently fall back to
  /// step-at-a-time. EXPLAIN shows the collapse. kNever forces
  /// step-at-a-time evaluation (the Fig. 11-style comparison baseline).
  TwigMode twig = TwigMode::kAuto;
  /// No plan decision reads this field: it is only a plan-cache key
  /// component, which lets a caller keep some sessions' plans apart
  /// from others with otherwise equal hints (perfbench does so for its
  /// reference and writer sessions). Slated for deletion once those
  /// sessions are separated another way (ROADMAP).
  double pushdown_selectivity = 0.125;
};

/// The memory backend's image: the evaluator's own DocTable columns
/// plus the resident tag fragments (null: no pushdown, no twig).
struct MemoryImage {
  const TagIndex* tags = nullptr;
  /// Resident reads charge no pool.
  static constexpr storage::BufferPool* pool = nullptr;
};

/// The pool-backed backends' image: doc columns and (null: no pushdown,
/// no twig) tag fragments in one storage::ColumnLayout -- raw pages for
/// the paged backend, FOR/delta blocks for the compressed one -- every
/// read charged to `pool`. The cursors read the layout from the columns
/// themselves, so the two backends differ only in their EXPLAIN labels
/// and cost-model units, which BackendDispatch::MakeImage fills in.
struct PoolImage {
  const storage::CompressedDocTable* doc = nullptr;
  const storage::CompressedTagIndex* tags = nullptr;
  storage::BufferPool* pool = nullptr;
  /// EXPLAIN label prefix, pristine and under a delta overlay.
  const char* label = nullptr;
  const char* overlay_label = nullptr;
  /// The cost model's page and probe units of this backend.
  BackendCosts costs{};
};

/// \brief The one image handle of an evaluator: which backend serves
/// every step, holding exactly the pointers that backend reads, so the
/// backend and its images cannot disagree. sj::Database fills it once
/// per session from one coherent, open-time-validated image set
/// (xpath/backend_dispatch.h builds the step cursors from it).
using BackendImage = std::variant<MemoryImage, PoolImage>;

/// The pool the image charges its reads to; null for the memory image.
inline storage::BufferPool* ImagePool(const BackendImage& image) {
  return std::visit([](const auto& img) { return img.pool; }, image);
}

/// Evaluator configuration.
struct EvalOptions {
  StaircaseOptions staircase;
  /// The planner inputs of the session (sj::SessionOptions::hints).
  PlanHints hints;
  /// Level histogram + per-tag level spread of the bound document,
  /// collected at Database open (null: the estimator falls back to
  /// coarse document-size bounds; decisions stay deterministic).
  const DocStatistics* doc_stats = nullptr;
  /// >1 runs the partitioned parallel staircase join with this many workers.
  unsigned num_threads = 1;
  /// The image every step reads (default: the memory backend without
  /// tag fragments). With a pool-backed image every step -- staircase
  /// joins, the non-staircase axis cursors, positional rank joins AND
  /// the node-test filters -- reads post/kind/level/parent/tag through
  /// its pool; the image must image the document the evaluator is bound
  /// to (sj::Database validates that at open time).
  BackendImage image;
  /// Snapshot overlay (updatable documents). When set and non-empty,
  /// every join runs over the merged (base + delta) document in dense
  /// logical pre ranks: base reads keep charging the backend's pool,
  /// delta reads are resident (`delta/delta_accessor.h`). Null or empty
  /// means the pristine document -- plans and traces are byte-identical
  /// to a database that was never edited.
  const delta::Overlay* overlay = nullptr;
  /// Snapshot identity for EXPLAIN ("snapshot: epoch N (delta: M
  /// nodes)"); epoch 0 = pristine, no line emitted.
  uint64_t snapshot_epoch = 0;
};

/// Per-step diagnostics (an EXPLAIN of the executed plan).
struct StepTrace {
  std::string description;
  JoinStats stats;
  double millis = 0.0;
  /// The operator the planner chose (sj::QueryResult::PlanSummary()).
  StepOperator op = StepOperator::kStaircase;
  /// The cost model's output-cardinality estimate; EXPLAIN prints it as
  /// "est=N" next to the actual row count ("act=M").
  uint64_t estimated_rows = 0;
  /// Buffer-pool faults charged while this step ran (0 on the memory
  /// backend). Measured as the pool's fault-counter delta around the
  /// step, so nested predicate evaluation and concurrent sessions on a
  /// shared pool can inflate a step's number -- exact per-step
  /// attribution needs a session-private pool.
  uint64_t pool_faults = 0;
};

/// Renders a step trace as a readable multi-line EXPLAIN (the formatting
/// behind sj::QueryResult::Explain).
std::string ExplainTrace(const std::vector<StepTrace>& trace);

/// \brief Evaluates parsed location paths over one document.
class Evaluator {
 public:
  /// Binds the evaluator to `doc` (borrowed; must outlive the evaluator).
  explicit Evaluator(const DocTable& doc, EvalOptions options = {});

  /// Analyzes `expr` into an immutable CompiledPlan: twig-run collapse,
  /// positional detection, tag interning and the pushdown decision are
  /// settled HERE, once, for every branch and every existence
  /// predicate's path (nested ones included) -- evaluation never plans.
  /// The decisions depend only on the document (its statistics, and
  /// under an overlay the merged dictionary and fragment counts), the
  /// backend and the hints' pushdown and twig modes, so a plan compiled
  /// by one evaluator is valid for any evaluator over the same snapshot
  /// with the same backend and hints -- the sharing contract of the
  /// Database plan cache, whose key is the backend, every PlanHints
  /// field and the snapshot epoch.
  CompiledPlan Compile(UnionExpr expr) const;

  /// Evaluates a compiled plan from `context` (document order, duplicate
  /// free; absolute branches ignore it and start at the document
  /// element, as in the paper's usage root(doc)): the document-order
  /// merge of the branches.
  Result<NodeSequence> Evaluate(const CompiledPlan& plan,
                                const NodeSequence& context);

  /// Plan diagnostics of the most recent Evaluate call (one trace for
  /// all union branches, in branch order).
  const std::vector<StepTrace>& last_trace() const { return trace_; }

 private:
  /// Evaluates one union branch, appending to the shared trace.
  Result<NodeSequence> EvaluateBranch(const LocationPath& path,
                                      const NodeSequence& context,
                                      const PlannedPath& planned);
  /// Runs a planned path from `context`: each step (or twig run) through
  /// its frozen operator. The one trace site: when `top_level`, every
  /// step appends its StepTrace here (a twig run adds one "subsumed"
  /// marker per remaining step, an empty context one "short-circuited"
  /// entry per remaining step, so EXPLAIN lists one entry per query
  /// step); predicate paths run with `top_level` false and leave no trace.
  Result<NodeSequence> EvalSteps(const std::vector<Step>& steps,
                                 const PlannedPath& planned,
                                 NodeSequence context, bool top_level);
  /// One non-twig step, predicates included, routed by `plan.op`; the
  /// operator's counters go to `stats`.
  Result<NodeSequence> EvalStep(const Step& step, const PlannedStep& plan,
                                const NodeSequence& context,
                                JoinStats* stats);
  /// Longest eligible twig run starting at steps[first] (>= 2 levels, no
  /// predicates, name tests only, twig axes only): twig_consumed > 0 and
  /// one TwigLevel per chain level (a folded `descendant-or-self::node()`
  /// + `child::name` pair -- the parse of `//name` -- consumes two steps
  /// for one kDescendant level). twig_consumed == 0 when the twig hint,
  /// a missing fragment index or the steps disqualify a collapse.
  PlannedStep MatchTwigRun(const std::vector<Step>& steps, size_t first) const;
  /// The cost model instance of this evaluator's statistics wiring:
  /// DocStatistics (when the facade collected them), the merged logical
  /// size, the backend's page-cost unit, and per-tag counts read through
  /// BackendDispatch::TagCount -- on an edited snapshot that is the
  /// overlay's MERGED dictionary, so fresh delta tags estimate from
  /// their real fragment sizes. Built once per Compile.
  CardinalityEstimator MakeEstimator() const;
  /// Plans a whole location path: a twig match consumes its run, every
  /// other step goes through PlanStep, and ContextEstimates chain from
  /// the root so every step carries estimated_rows and a cost-chosen
  /// operator. Compile calls it per branch and PlanStep per existence
  /// predicate -- one derivation, so every path decides the same way.
  PlannedPath PlanPath(const std::vector<Step>& steps,
                       const CardinalityEstimator& est) const;
  /// The per-step planning decisions of one non-twig step (positional
  /// detection, tag interning, operator choice by cost, the predicate
  /// paths' plans); advances `ctx` to the step's output estimate.
  PlannedStep PlanStep(const Step& step, const CardinalityEstimator& est,
                       ContextEstimate* ctx) const;
  /// Applies a step's predicate chain, from predicate `first` on, to
  /// `nodes` -- one context node's axis output (already reversed for
  /// reverse axes) on a positional step, the whole step output on an
  /// existence-only one. Positions index the list surviving the previous
  /// predicates. `absolute_verdict` memoizes context-invariant absolute
  /// predicate paths per step.
  Result<NodeSequence> RankWithinGroup(
      const Step& step, const PlannedStep& plan, size_t first,
      NodeSequence nodes, std::vector<std::optional<bool>>* absolute_verdict);
  /// Whether existence predicate `pred` (planned as `planned`) selects
  /// anything from `node` (absolute paths ignore it).
  Result<bool> PredicateHolds(const Predicate& pred, const PlannedPath& planned,
                              NodeId node);
  /// The pushdown decision: hint pins (kAlways/kNever) win; kAuto defers
  /// to the estimator's page-cost comparison.
  bool ShouldPushdown(const Step& step, TagId tag,
                      const CardinalityEstimator& est,
                      const ContextEstimate& in) const;
  /// The positional planning decision: a name-test step (tag interned)
  /// whose first predicate is [k] or [last()] selects its rank from the
  /// tag fragment on the fragment axes whenever the image has fragments
  /// and the pushdown hint is not kNever -- the name-test pushdown gate
  /// without its cost comparison.
  bool RankOverFragment(const Step& step) const;
  /// True when options_ carry a non-empty delta overlay.
  bool Overlaid() const;
  /// Merged document size (doc_.size() when pristine).
  size_t LogicalSize() const;
  /// Tag lookup against the merged dictionary (base dictionary when
  /// pristine); nullopt for never-interned names, as before.
  std::optional<TagId> LookupTag(std::string_view name) const;

  const DocTable& doc_;
  EvalOptions options_;
  std::vector<StepTrace> trace_;
};

}  // namespace sj::xpath

#endif  // STAIRJOIN_XPATH_EVALUATOR_H_
