// The compiled form of a query: the parsed AST plus every per-step
// planning decision the evaluator would otherwise re-derive on each run.
//
// Evaluator::Compile walks a UnionExpr exactly the way EvalSteps walks
// it at execution time and freezes the outcome of each decision point:
// twig-run collapse (which step runs start a holistic twig join and
// over which fragment levels), positional-predicate detection, tag
// interning, and the pushdown choice of the cost model. Every path is
// planned there once -- the union branches and, recursively, every
// existence predicate's path -- so evaluation never plans (paper
// Section 2.1: the plan of axis-step joins is fixed before the context
// sequence flows).
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
/// No planner path produces kPerContext; it stays because consumers
/// switch over every operator (the PlanSummary "per-context" token,
/// perfbench's per-operator counters).
enum class StepOperator : uint8_t {
  kStaircase,     ///< doc-scan staircase join (+ node-test filter)
  kPushdown,      ///< staircase join over the tag fragment
  kAxisCursor,    ///< non-staircase axis kernel (core/axis_impl.h)
  kTwig,          ///< holistic k-way twig join (starts a run)
  kTwigSubsumed,  ///< consumed by the preceding twig run
  kPositional,    ///< set-at-a-time positional rank join
  kPerContext,    ///< produced by no plan (see above)
  kEmpty,         ///< statically empty (unknown tag)
};

struct PlannedPath;

/// The analyzed form of one location step.
struct PlannedStep {
  /// >0: this step starts a twig run -- `twig_consumed` consecutive
  /// steps collapse into ONE holistic twig join (core/twig_join.h) over
  /// `twig_levels`; the per-step fields below are then unused.
  size_t twig_consumed = 0;
  std::vector<TwigLevel> twig_levels;
  /// Tag names, parallel to `twig_levels` (for EXPLAIN).
  std::vector<std::string> twig_names;

  /// At least one non-existence predicate ([k] / [last()]): the step
  /// runs as a set-at-a-time positional rank join within per-context
  /// groups (StepOperator::kPositional).
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

  /// One plan per predicate, index-parallel to Step::predicates: an
  /// existence predicate's path planned like a branch (its own nested
  /// predicates recursively); [k] and [last()] keep an empty slot.
  std::vector<PlannedPath> predicate_paths;
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
