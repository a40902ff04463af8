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
#include "storage/paged_doc.h"
#include "storage/paged_tags.h"
#include "util/result.h"
#include "xpath/ast.h"
#include "xpath/cost_model.h"
#include "xpath/plan.h"

namespace sj::xpath {

/// Which storage backend the staircase joins read the doc columns from.
enum class StorageBackend : uint8_t {
  kMemory,      ///< in-memory DocTable BATs
  kPaged,       ///< paged columns behind a BufferPool (IO-conscious)
  kCompressed,  ///< block-compressed (FOR/delta) columns behind a BufferPool
};

/// Whether name tests are pushed through the staircase join.
enum class PushdownMode : uint8_t {
  kAuto,    ///< cost model decides (selective tags only)
  kAlways,  ///< always evaluate over the tag fragment
  kNever,   ///< join over the document, name test afterwards
};

/// Whether runs of consecutive name-test descendant/child steps collapse
/// into the holistic twig join (core/twig_join.h).
enum class TwigMode : uint8_t {
  kAuto,   ///< collapse every eligible run of >= 2 levels
  kNever,  ///< strict step-at-a-time evaluation
};

/// The memory backend's image: the evaluator's own DocTable columns
/// plus the resident tag fragments (null: no pushdown, no twig).
struct MemoryImage {
  const TagIndex* tags = nullptr;
  /// Resident reads charge no pool.
  static constexpr storage::BufferPool* pool = nullptr;
};

/// The paged backend's image: paged doc columns and (null: no pushdown,
/// no twig) paged tag fragments, every read charged to `pool`.
struct PagedImage {
  const storage::PagedDocTable* doc = nullptr;
  const storage::PagedTagIndex* tags = nullptr;
  storage::BufferPool* pool = nullptr;
};

/// The compressed backend's image: block-compressed doc columns and
/// (null: no pushdown, no twig) fragments behind `pool`.
struct CompressedImage {
  const storage::CompressedDocTable* doc = nullptr;
  const storage::CompressedTagIndex* tags = nullptr;
  storage::BufferPool* pool = nullptr;
};

/// \brief The one image handle of an evaluator: which backend serves
/// every step, holding exactly the pointers that backend reads, so the
/// backend and its images cannot disagree. sj::Database fills it once
/// per session from one coherent, open-time-validated image set
/// (xpath/backend_dispatch.h builds the step cursors from it).
using BackendImage = std::variant<MemoryImage, PagedImage, CompressedImage>;

/// The pool the image charges its reads to; null for the memory image.
inline storage::BufferPool* ImagePool(const BackendImage& image) {
  return std::visit([](const auto& img) { return img.pool; }, image);
}

/// Evaluator configuration.
struct EvalOptions {
  StaircaseOptions staircase;
  PushdownMode pushdown = PushdownMode::kAuto;
  /// Whether eligible step runs (consecutive predicate-free name-test
  /// child/descendant(-or-self) steps) are evaluated as one holistic
  /// twig join instead of step-at-a-time. Requires the image's fragment
  /// index; ineligible runs and missing indexes silently fall back to
  /// step-at-a-time. EXPLAIN shows the collapse.
  TwigMode twig = TwigMode::kAuto;
  /// kAuto pushes a name test down iff the tag's node count is below this
  /// fraction of the document size ("selective name tests only"). Only
  /// consulted when `cost_model` is kOff -- under kAuto the estimator's
  /// page-cost comparison replaces the static threshold.
  double pushdown_selectivity = 0.125;
  /// Estimate-driven operator choice (xpath/cost_model.h). kAuto lets
  /// the CardinalityEstimator pick pushdown-vs-staircase by comparing
  /// page costs; kOff restores the static pushdown_selectivity
  /// threshold. Either way EXPLAIN prints est=N act=M per step.
  CostModelMode cost_model = CostModelMode::kAuto;
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
  /// settled HERE, once, instead of on every run. The decisions depend
  /// only on the document (its statistics, and under an overlay the
  /// merged dictionary and fragment counts) and the semantic options
  /// (backend, pushdown, twig, pushdown_selectivity, cost_model), so a
  /// plan compiled by one evaluator is valid for any evaluator over the
  /// same snapshot with equal semantic options -- the sharing contract
  /// of the Database plan cache, whose key is exactly those fields plus
  /// the snapshot epoch.
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
  Result<NodeSequence> EvalSteps(const std::vector<Step>& steps, size_t first,
                                 NodeSequence context, bool top_level,
                                 const PlannedPath* planned = nullptr);
  Result<NodeSequence> EvalStep(const Step& step, const NodeSequence& context,
                                bool top_level, const PlannedStep& plan);
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
  /// their real fragment sizes.
  CardinalityEstimator MakeEstimator() const;
  /// Plans a whole location path: the same walk Compile freezes per
  /// branch, chaining ContextEstimates from the root so every step
  /// carries estimated_rows and a cost-chosen operator. EvalSteps calls
  /// this for predicate paths, which Compile leaves unplanned -- one
  /// shared derivation, so every path decides the same way.
  PlannedPath PlanPath(const std::vector<Step>& steps) const;
  /// The per-step planning decisions of one non-twig step (positional
  /// detection, tag interning, operator choice by cost); advances `ctx`
  /// to the step's output estimate.
  PlannedStep PlanStep(const Step& step, const CardinalityEstimator& est,
                       ContextEstimate* ctx) const;
  /// Evaluates a matched run as one twig join and records its trace:
  /// one twig entry plus a "subsumed" marker per remaining step, so
  /// EXPLAIN still lists one entry per query step.
  Result<NodeSequence> EvalTwigRun(const std::vector<Step>& steps,
                                   size_t first, const PlannedStep& plan,
                                   const NodeSequence& context,
                                   bool top_level);
  /// Applies a positional step's predicate chain, from predicate
  /// `first` on, to one context node's axis output (already reversed for
  /// reverse axes): positions index the list surviving the previous
  /// predicates. `absolute_verdict` memoizes context-invariant absolute
  /// predicate paths per step.
  Result<NodeSequence> RankWithinGroup(
      const Step& step, size_t first, NodeSequence axis_nodes,
      std::vector<std::optional<bool>>* absolute_verdict);
  Result<NodeSequence> ApplyPredicates(const Step& step, NodeSequence nodes);
  Result<bool> PredicateHolds(const Predicate& pred, NodeId node);
  /// The pushdown decision: hint pins (kAlways/kNever) win; kAuto defers
  /// to the estimator's page-cost comparison (cost_model kAuto) or the
  /// legacy static selectivity threshold (cost_model kOff).
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
