// The compiled form of a query: the parsed AST plus every per-step
// planning decision the evaluator would otherwise re-derive on each run.
//
// Evaluator::Compile walks a UnionExpr exactly the way EvalSteps walks
// it at execution time and freezes the outcome of each decision point:
// twig-run collapse (which step runs start a holistic twig join and
// over which fragment levels), positional-predicate detection, tag
// interning, and the pushdown choice of the cost model. Executing a
// CompiledPlan via Evaluator::Evaluate(plan, context) then takes the
// exact same code paths -- and produces byte-identical EXPLAIN traces --
// as evaluating the raw AST, minus the re-planning work.
//
// A CompiledPlan is immutable after Compile and self-contained (it owns
// a copy of the AST), so one plan is safely shared by any number of
// concurrent sessions: this is the value type of sj::Database's plan
// cache, the piece that lets a hot query skip parse and planning
// entirely.

#ifndef STAIRJOIN_XPATH_PLAN_H_
#define STAIRJOIN_XPATH_PLAN_H_

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "core/tag_view.h"
#include "core/twig_join.h"
#include "xpath/ast.h"

namespace sj::xpath {

/// The operator the planner chose for one step (frozen into the plan,
/// surfaced structurally through sj::QueryResult::PlanSummary()).
enum class StepOperator : uint8_t {
  kStaircase,     ///< doc-scan staircase join (+ node-test filter)
  kPushdown,      ///< staircase join over the tag fragment
  kAxisCursor,    ///< non-staircase axis kernel (core/axis_impl.h)
  kTwig,          ///< holistic k-way twig join (starts a run)
  kTwigSubsumed,  ///< consumed by the preceding twig run
  kPositional,    ///< set-at-a-time positional rank join
  kPerContext,    ///< naive-engine per-context evaluation
  kEmpty,         ///< statically empty (unknown tag)
};

/// The analyzed form of one location step.
struct PlannedStep {
  /// >0: this step starts a twig run -- `twig_consumed` consecutive
  /// steps collapse into ONE holistic twig join (core/twig_join.h) over
  /// `twig_levels`; the per-step fields below are then unused.
  size_t twig_consumed = 0;
  std::vector<TwigLevel> twig_levels;
  /// Tag names, parallel to `twig_levels` (for EXPLAIN).
  std::vector<std::string> twig_names;

  /// At least one non-existence predicate: the step falls back to
  /// per-context evaluation.
  bool positional = false;
  /// The node test names a tag (kName, or kPi with a target).
  bool needs_tag = false;
  /// The interned tag; nullopt when `needs_tag` but the name was never
  /// interned (the step can only produce the empty sequence).
  std::optional<TagId> tag;
  /// Name-test steps only: evaluate over the tag fragment. Staircase
  /// steps ask the cost model at compile time; positional steps led by
  /// [k] / [last()] take the fragment whenever the gate of
  /// Evaluator::RankOverFragment holds.
  bool pushdown = false;

  /// The operator the cost model chose (EXPLAIN / PlanSummary token).
  StepOperator op = StepOperator::kStaircase;
  /// The estimator's output-cardinality guess for this step, rounded.
  /// EXPLAIN prints it as "est=N" next to the actual row count.
  uint64_t estimated_rows = 0;
};

/// Planned steps of one union branch, index-parallel to
/// LocationPath::steps. Steps subsumed by a twig run keep a defaulted,
/// never-read slot so the two vectors stay aligned.
struct PlannedPath {
  std::vector<PlannedStep> steps;
};

/// One query's parsed and analyzed plan: the AST plus one PlannedPath
/// per union branch. Immutable after Evaluator::Compile.
struct CompiledPlan {
  UnionExpr expr;
  std::vector<PlannedPath> branches;
};

}  // namespace sj::xpath

#endif  // STAIRJOIN_XPATH_PLAN_H_
