#include "xpath/evaluator.h"

#include <algorithm>
#include <iterator>
#include <utility>

#include "baselines/naive.h"
#include "core/axis_step.h"
#include "util/timer.h"
#include "xpath/backend_dispatch.h"
#include "xpath/explain_strings.h"

namespace sj::xpath {
namespace {

/// The axis' principal node kind (XPath: attribute for the attribute axis,
/// element everywhere else; we have no namespace axis).
NodeKind PrincipalKind(Axis axis) {
  return axis == Axis::kAttribute ? NodeKind::kAttribute : NodeKind::kElement;
}

/// Lowers a step's node test into the kernel-foldable AxisNodeTest.
/// `tag` must carry the interned code when the test names a tag (kName,
/// or kPi with a target); never-interned names short-circuit to the
/// empty sequence before this is called.
AxisNodeTest MakeAxisNodeTest(const Step& step,
                              const std::optional<TagId>& tag) {
  switch (step.test.kind) {
    case NodeTestKind::kAnyNode:
      return {};
    case NodeTestKind::kAnyName:
      return AxisNodeTest::OfKind(PrincipalKind(step.axis));
    case NodeTestKind::kName:
      return AxisNodeTest::OfKindAndTag(PrincipalKind(step.axis), *tag);
    case NodeTestKind::kText:
      return AxisNodeTest::OfKind(NodeKind::kText);
    case NodeTestKind::kComment:
      return AxisNodeTest::OfKind(NodeKind::kComment);
    case NodeTestKind::kPi:
      return step.test.name.empty()
                 ? AxisNodeTest::OfKind(NodeKind::kProcessingInstruction)
                 : AxisNodeTest::OfKindAndTag(
                       NodeKind::kProcessingInstruction, *tag);
  }
  return {};
}

}  // namespace

Evaluator::Evaluator(const DocTable& doc, EvalOptions options)
    : doc_(doc), options_(std::move(options)) {}

Result<NodeSequence> Evaluator::Evaluate(const LocationPath& path,
                                         const NodeSequence& context) {
  trace_.clear();
  return EvaluateKeepTrace(path, context);
}

bool Evaluator::Overlaid() const { return xpath::Overlaid(options_); }

size_t Evaluator::LogicalSize() const {
  return Overlaid() ? options_.overlay->logical_size() : doc_.size();
}

std::optional<TagId> Evaluator::LookupTag(std::string_view name) const {
  if (Overlaid()) return options_.overlay->LookupTag(doc_.tags(), name);
  return doc_.tags().Lookup(name);
}

Result<const DocTable*> Evaluator::EffectiveDoc() {
  if (!Overlaid()) return &doc_;
  if (!options_.overlay_doc) {
    return Status::InvalidArgument(
        "overlay evaluation requires EvalOptions::overlay_doc");
  }
  return options_.overlay_doc();
}

Result<NodeSequence> Evaluator::EvaluateKeepTrace(const LocationPath& path,
                                                  const NodeSequence& context,
                                                  const PlannedPath* planned) {
  NodeSequence start = context;
  if (path.absolute) {
    start = doc_.empty() ? NodeSequence{} : NodeSequence{doc_.root()};
  }
  if (!IsDocumentOrder(start)) {
    return Status::InvalidArgument(
        "context must be duplicate-free and in document order");
  }
  // Logical size: under a delta overlay the context addresses the merged
  // document's dense logical pre ranks. (The logical root is always 0 --
  // base nodes are never reordered and the root is undeletable -- so the
  // absolute-path start above needs no mapping.)
  if (!start.empty() && start.back() >= LogicalSize()) {
    return Status::InvalidArgument("context node out of range");
  }
  return EvalSteps(path.steps, 0, std::move(start), /*top_level=*/true,
                   planned);
}

Result<NodeSequence> Evaluator::Evaluate(const LocationPath& path) {
  return Evaluate(path, doc_.empty() ? NodeSequence{}
                                     : NodeSequence{doc_.root()});
}

Result<NodeSequence> Evaluator::EvaluateString(std::string_view xpath) {
  SJ_ASSIGN_OR_RETURN(LocationPath path, ParseXPath(xpath));
  return Evaluate(path);
}

Result<NodeSequence> Evaluator::EvaluateUnion(
    const UnionExpr& expr, const std::vector<PlannedPath>* planned,
    const NodeSequence& context) {
  // One trace for the whole union: clearing per branch would leave
  // ExplainLastQuery reporting only the final branch's steps.
  trace_.clear();
  NodeSequence merged;
  for (size_t b = 0; b < expr.branches.size(); ++b) {
    SJ_ASSIGN_OR_RETURN(
        NodeSequence r,
        EvaluateKeepTrace(expr.branches[b], context,
                          planned != nullptr ? &(*planned)[b] : nullptr));
    NodeSequence next;
    next.reserve(merged.size() + r.size());
    std::merge(merged.begin(), merged.end(), r.begin(), r.end(),
               std::back_inserter(next));
    next.erase(std::unique(next.begin(), next.end()), next.end());
    merged = std::move(next);
  }
  return merged;
}

Result<NodeSequence> Evaluator::Evaluate(const UnionExpr& expr,
                                         const NodeSequence& context) {
  return EvaluateUnion(expr, /*planned=*/nullptr, context);
}

Result<NodeSequence> Evaluator::Evaluate(const CompiledPlan& plan,
                                         const NodeSequence& context) {
  if (plan.branches.size() != plan.expr.branches.size()) {
    return Status::InvalidArgument(
        "compiled plan does not match its expression");
  }
  return EvaluateUnion(plan.expr, &plan.branches, context);
}

CompiledPlan Evaluator::Compile(UnionExpr expr) const {
  CompiledPlan plan;
  plan.expr = std::move(expr);
  plan.branches.reserve(plan.expr.branches.size());
  for (const LocationPath& branch : plan.expr.branches) {
    plan.branches.push_back(PlanPath(branch.steps));
  }
  return plan;
}

CardinalityEstimator Evaluator::MakeEstimator() const {
  const BackendDispatch dispatch(doc_, options_);
  const bool has_fragments = dispatch.HasFragments();
  const DocStatistics* stats = options_.doc_stats;
  const uint64_t logical = LogicalSize();
  auto tag_count = [this, has_fragments, stats, logical](TagId tag) {
    if (tag == kNoTag) return uint64_t{0};
    if (has_fragments) {
      // The active fragment index's count -- under an overlay this is
      // the MERGED count (base survivors + delta nodes), which is what
      // gives tags first introduced by an edit their real sizes.
      return BackendDispatch(doc_, options_).TagCount(tag);
    }
    if (stats != nullptr && tag < stats->tag_counts.size() && !Overlaid()) {
      return stats->tag_counts[tag];
    }
    return logical;  // unknown selectivity: assume non-selective
  };
  return CardinalityEstimator(stats, logical, dispatch.Costs(),
                              std::move(tag_count));
}

PlannedPath Evaluator::PlanPath(const std::vector<Step>& steps) const {
  // The same walk EvalSteps performs at execution time: a twig match
  // consumes its whole run, every other step is planned individually.
  // ContextEstimates chain from the root -- like Compile-time planning,
  // per-run context sizes must not influence decisions, or cached and
  // uncached plans (and their traces) would diverge.
  PlannedPath planned;
  planned.steps.resize(steps.size());
  const CardinalityEstimator est = MakeEstimator();
  ContextEstimate ctx = est.Root();
  for (size_t i = 0; i < steps.size();) {
    PlannedStep step = MatchTwigRun(steps, i);
    if (step.twig_consumed > 0) {
      step.op = StepOperator::kTwig;
      for (const TwigLevel& level : step.twig_levels) {
        ctx = est.EstimateStep(ctx, level.axis, level.tag);
      }
      step.estimated_rows = RoundedEstimate(ctx.rows);
      const size_t consumed = step.twig_consumed;
      planned.steps[i] = std::move(step);
      for (size_t s = 1; s < consumed; ++s) {
        planned.steps[i + s].op = StepOperator::kTwigSubsumed;
      }
      i += consumed;
      continue;
    }
    planned.steps[i] = PlanStep(steps[i], est, &ctx);
    ++i;
  }
  return planned;
}

Result<NodeSequence> Evaluator::EvaluateUnionString(std::string_view xpath) {
  SJ_ASSIGN_OR_RETURN(UnionExpr expr, ParseXPathUnion(xpath));
  return Evaluate(expr, doc_.empty() ? NodeSequence{}
                                     : NodeSequence{doc_.root()});
}

Result<NodeSequence> Evaluator::EvalSteps(const std::vector<Step>& steps,
                                          size_t first, NodeSequence context,
                                          bool top_level,
                                          const PlannedPath* planned) {
  NodeSequence current = std::move(context);
  // Planned and unplanned execution share every line below this one: a
  // compiled plan supplies the PlannedPath; otherwise PlanPath derives
  // it here, exactly as Compile would have -- same decisions, same
  // estimates, same traces.
  PlannedPath local;
  if (planned == nullptr) {
    local = PlanPath(steps);
    planned = &local;
  }
  for (size_t i = first; i < steps.size();) {
    if (current.empty()) {
      // The remaining steps cannot produce anything, but EXPLAIN must
      // still list one entry per step of the query -- a trace shorter
      // than the path would misreport the executed plan.
      if (top_level) {
        for (size_t k = i; k < steps.size(); ++k) {
          StepTrace skipped;
          skipped.description =
              ToString(steps[k]) + explain::kEmptyShortCircuited;
          skipped.op = planned->steps[k].op;
          skipped.estimated_rows = planned->steps[k].estimated_rows;
          trace_.push_back(std::move(skipped));
        }
      }
      return NodeSequence{};
    }
    const PlannedStep* plan = &planned->steps[i];
    if (plan->twig_consumed > 0) {
      SJ_ASSIGN_OR_RETURN(current,
                          EvalTwigRun(steps, i, *plan, current, top_level));
      i += plan->twig_consumed;
    } else {
      SJ_ASSIGN_OR_RETURN(current,
                          EvalStep(steps[i], current, top_level, *plan));
      ++i;
    }
  }
  return current;
}

/// True for a predicate-free step the twig join can carry as one level.
static bool IsTwigLevelStep(const Step& step) {
  return step.predicates.empty() && step.test.kind == NodeTestKind::kName &&
         IsTwigAxis(step.axis);
}

/// True for the `descendant-or-self::node()` half of the parser's `//`
/// desugaring; folded with a following `child::name` into one
/// kDescendant level (descendant-or-self::node()/child::n == descendant::n).
static bool IsDescendantOrSelfNode(const Step& step) {
  return step.predicates.empty() && step.axis == Axis::kDescendantOrSelf &&
         step.test.kind == NodeTestKind::kAnyNode;
}

PlannedStep Evaluator::MatchTwigRun(const std::vector<Step>& steps,
                                    size_t first) const {
  PlannedStep plan;
  if (options_.engine != EngineMode::kStaircase ||
      options_.twig == TwigMode::kNever) {
    return plan;
  }
  if (!BackendDispatch(doc_, options_).HasFragments()) return plan;
  size_t i = first;
  while (i < steps.size()) {
    TwigLevel level;
    size_t used = 0;
    if (IsTwigLevelStep(steps[i])) {
      level.axis = steps[i].axis;
      plan.twig_names.push_back(steps[i].test.name);
      used = 1;
    } else if (i + 1 < steps.size() && IsDescendantOrSelfNode(steps[i]) &&
               IsTwigLevelStep(steps[i + 1]) &&
               steps[i + 1].axis == Axis::kChild) {
      level.axis = Axis::kDescendant;
      plan.twig_names.push_back(steps[i + 1].test.name);
      used = 2;
    } else {
      break;
    }
    // A never-interned name keeps its level: the empty kNoTag fragment
    // makes the whole twig empty in O(k), matching the single-step
    // unknown-tag short-circuit.
    level.tag = LookupTag(plan.twig_names.back()).value_or(kNoTag);
    plan.twig_levels.push_back(level);
    i += used;
  }
  // One level is just an ordinary step (pushdown already covers it); a
  // twig needs a chain.
  if (plan.twig_levels.size() < 2) return PlannedStep{};
  plan.twig_consumed = i - first;
  return plan;
}

PlannedStep Evaluator::PlanStep(const Step& step,
                                const CardinalityEstimator& est,
                                ContextEstimate* ctx) const {
  PlannedStep plan;
  for (const Predicate& pred : step.predicates) {
    plan.positional = plan.positional || pred.kind != Predicate::Kind::kExists;
  }
  // std::nullopt tag: the step's name test (or PI target) references a
  // never-interned name and can only produce the empty sequence.
  // Distinct from a text/comment node's kNoTag column value, which
  // Lookup can never return.
  plan.needs_tag = step.test.kind == NodeTestKind::kName ||
                   (step.test.kind == NodeTestKind::kPi &&
                    !step.test.name.empty());
  if (plan.needs_tag) plan.tag = LookupTag(step.test.name);
  if (step.test.kind == NodeTestKind::kName && plan.tag.has_value()) {
    plan.pushdown = plan.positional
                        ? RankOverFragment(step)
                        : ShouldPushdown(step, *plan.tag, est, *ctx);
  }

  // Cardinality: chain the context estimate through the step, then the
  // predicate chain (positional predicates clamp to one row per context
  // node; existence predicates halve).
  ContextEstimate out =
      est.EstimateStep(*ctx, step.axis,
                       plan.needs_tag ? plan.tag.value_or(kNoTag) : kNoTag);
  if (plan.needs_tag && !plan.tag.has_value()) out.rows = 0.0;
  for (const Predicate& pred : step.predicates) {
    out.rows = est.EstimatePredicate(
        out.rows, ctx->rows, pred.kind != Predicate::Kind::kExists);
  }
  plan.estimated_rows = RoundedEstimate(out.rows);
  *ctx = out;

  // The operator EvalStep will route this plan through.
  if (options_.engine != EngineMode::kStaircase) {
    plan.op = StepOperator::kPerContext;
  } else if (plan.needs_tag && !plan.tag.has_value()) {
    plan.op = StepOperator::kEmpty;
  } else if (plan.positional) {
    plan.op = StepOperator::kPositional;
  } else if (IsStaircaseAxis(step.axis)) {
    plan.op = plan.pushdown ? StepOperator::kPushdown
                            : StepOperator::kStaircase;
  } else {
    plan.op = StepOperator::kAxisCursor;
  }
  return plan;
}

Result<NodeSequence> Evaluator::EvalTwigRun(const std::vector<Step>& steps,
                                            size_t first,
                                            const PlannedStep& plan,
                                            const NodeSequence& context,
                                            bool top_level) {
  Timer timer;
  JoinStats stats;
  std::vector<TwigLevelStats> level_stats;
  const BackendDispatch dispatch(doc_, options_);
  storage::BufferPool* const pool = dispatch.Pool();
  const uint64_t faults_before = pool != nullptr ? pool->stats().faults : 0;
  SJ_ASSIGN_OR_RETURN(NodeSequence result,
                      dispatch.Twig(context, plan.twig_levels, &stats,
                                    &level_stats));
  if (top_level) {
    // One twig entry carrying the collapsed plan, then one "subsumed"
    // marker per remaining step: EXPLAIN keeps listing exactly one entry
    // per step of the query, and no step text silently vanishes.
    const size_t twig_entry = trace_.size() + 1;  // 1-based, as printed
    std::string desc;
    for (size_t s = 0; s < plan.twig_consumed; ++s) {
      if (s > 0) desc += explain::kStepSep;
      desc += ToString(steps[first + s]);
    }
    desc += explain::kVia;
    desc += dispatch.Label();
    desc += explain::kTwigJoinOverFragments;
    for (size_t l = 0; l < plan.twig_names.size(); ++l) {
      if (l > 0) desc += explain::kTwigLevelSep;
      desc += explain::kTwigQuote + plan.twig_names[l] + explain::kTwigQuote;
    }
    desc += explain::kTwigK + std::to_string(plan.twig_levels.size());
    desc += explain::kTwigSkipsOpen;
    for (size_t l = 0; l < level_stats.size(); ++l) {
      desc += (l > 0 ? explain::kTwigSkipsNext : explain::kTwigSkipsFirst) +
              plan.twig_names[l] + explain::kTwigSkipsEq +
              std::to_string(level_stats[l].slots_skipped);
    }
    desc += explain::kCloseParen;
    StepTrace trace;
    trace.description = std::move(desc);
    stats.result_size = result.size();
    trace.stats = stats;
    trace.millis = timer.ElapsedMillis();
    trace.op = StepOperator::kTwig;
    trace.estimated_rows = plan.estimated_rows;
    if (pool != nullptr) {
      trace.pool_faults = pool->stats().faults - faults_before;
    }
    trace_.push_back(std::move(trace));
    for (size_t s = 1; s < plan.twig_consumed; ++s) {
      StepTrace subsumed;
      subsumed.description = ToString(steps[first + s]) +
                             explain::kSubsumedByTwigOpen +
                             std::to_string(twig_entry) +
                             explain::kCloseParen;
      subsumed.op = StepOperator::kTwigSubsumed;
      trace_.push_back(std::move(subsumed));
    }
  }
  return result;
}

bool Evaluator::ShouldPushdown(const Step& step, TagId tag,
                               const CardinalityEstimator& est,
                               const ContextEstimate& in) const {
  if (options_.engine != EngineMode::kStaircase) return false;
  const BackendDispatch dispatch(doc_, options_);
  if (!dispatch.HasFragments()) return false;
  if (step.test.kind != NodeTestKind::kName) return false;
  if (!IsStaircaseAxis(step.axis)) return false;
  switch (options_.pushdown) {
    case PushdownMode::kNever:
      return false;
    case PushdownMode::kAlways:
      return true;
    case PushdownMode::kAuto:
      if (options_.cost_model == CostModelMode::kOff) {
        // Legacy static threshold: "...obviously makes sense for
        // selective name tests only" (Section 4.4). The fragment size is
        // the exact selectivity; every index keeps it resident.
        return static_cast<double>(dispatch.TagCount(tag)) <=
               options_.pushdown_selectivity *
                   static_cast<double>(LogicalSize());
      }
      // Estimate-driven: the fragment join reads far fewer pages but,
      // on the pool-backed backends, pays a seek per context node; the
      // doc-scan staircase join amortizes one pass across the whole
      // context. Strict less: ties keep the doc scan.
      return est.PushdownCost(in, step.axis, tag) <
             est.StaircaseCost(in, step.axis, /*name_filter=*/true);
  }
  return false;
}

bool Evaluator::RankOverFragment(const Step& step) const {
  // The name-test pushdown gate minus the cost comparison: the probes
  // visit at most one fragment slot per group member, where the
  // document scan reads every node of every group.
  if (options_.engine != EngineMode::kStaircase ||
      options_.pushdown == PushdownMode::kNever ||
      !internal::IsFragmentRankAxis(step.axis) ||
      step.predicates.front().kind == Predicate::Kind::kExists) {
    return false;
  }
  return BackendDispatch(doc_, options_).HasFragments();
}

NodeSequence Evaluator::FilterByTest(const DocTable& doc, const Step& step,
                                     const NodeSequence& nodes) const {
  NodeSequence out;
  out.reserve(nodes.size());
  const NodeKind principal = PrincipalKind(step.axis);
  for (NodeId v : nodes) {
    const NodeKind kind = doc.kind(v);
    bool keep = false;
    switch (step.test.kind) {
      case NodeTestKind::kAnyNode:
        keep = true;
        break;
      case NodeTestKind::kAnyName:
        keep = kind == principal;
        break;
      case NodeTestKind::kName:
        keep = kind == principal &&
               doc.tag(v) != kNoTag &&
               doc.tags().Name(doc.tag(v)) == step.test.name;
        break;
      case NodeTestKind::kText:
        keep = kind == NodeKind::kText;
        break;
      case NodeTestKind::kComment:
        keep = kind == NodeKind::kComment;
        break;
      case NodeTestKind::kPi:
        keep = kind == NodeKind::kProcessingInstruction &&
               (step.test.name.empty() ||
                doc.tags().Name(doc.tag(v)) == step.test.name);
        break;
    }
    if (keep) out.push_back(v);
  }
  return out;
}

Result<bool> Evaluator::PredicateHolds(const Predicate& pred, NodeId node) {
  if (pred.kind != Predicate::Kind::kExists || pred.path == nullptr) {
    return Status::Internal("positional predicate on the set-at-a-time path");
  }
  if (pred.path->absolute) {
    SJ_ASSIGN_OR_RETURN(
        NodeSequence r,
        EvalSteps(pred.path->steps, 0,
                  doc_.empty() ? NodeSequence{} : NodeSequence{doc_.root()},
                  /*top_level=*/false));
    return !r.empty();
  }
  SJ_ASSIGN_OR_RETURN(NodeSequence r, EvalSteps(pred.path->steps, 0, {node},
                                                /*top_level=*/false));
  return !r.empty();
}

Result<NodeSequence> Evaluator::ApplyPredicates(const Step& step,
                                                NodeSequence nodes) {
  for (const Predicate& pred : step.predicates) {
    if (nodes.empty()) break;
    if (pred.path != nullptr && pred.path->absolute) {
      // An absolute predicate path is context-invariant: one evaluation
      // settles the verdict for every node of the step.
      SJ_ASSIGN_OR_RETURN(bool holds, PredicateHolds(pred, nodes.front()));
      if (!holds) nodes.clear();
      continue;
    }
    NodeSequence kept;
    kept.reserve(nodes.size());
    for (NodeId v : nodes) {
      SJ_ASSIGN_OR_RETURN(bool holds, PredicateHolds(pred, v));
      if (holds) kept.push_back(v);
    }
    nodes = std::move(kept);
  }
  return nodes;
}

/// True for the axes whose position counts against document order
/// (XPath reverse axes).
static bool IsReverseAxis(Axis axis) {
  switch (axis) {
    case Axis::kAncestor:
    case Axis::kAncestorOrSelf:
    case Axis::kParent:
    case Axis::kPreceding:
    case Axis::kPrecedingSibling:
      return true;
    default:
      return false;
  }
}

/// Positional predicates rank within ONE context node's axis output:
/// [2] means "the second node this step selects *from one context
/// node*, in axis order". RankWithinGroup applies a step's predicate
/// chain to one such group (already reversed for reverse axes);
/// predicates apply in order, each positional predicate indexing the
/// list surviving the previous ones.
Result<NodeSequence> Evaluator::RankWithinGroup(
    const Step& step, size_t first, NodeSequence axis_nodes,
    std::vector<std::optional<bool>>* absolute_verdict) {
  for (size_t p = first; p < step.predicates.size(); ++p) {
    const Predicate& pred = step.predicates[p];
    if (axis_nodes.empty()) break;
    NodeSequence kept;
    switch (pred.kind) {
      case Predicate::Kind::kPosition:
        if (pred.position <= axis_nodes.size()) {
          kept.push_back(axis_nodes[pred.position - 1]);
        }
        break;
      case Predicate::Kind::kLast:
        kept.push_back(axis_nodes.back());
        break;
      case Predicate::Kind::kExists:
        if (pred.path != nullptr && pred.path->absolute) {
          // Context-invariant: memoized once per step.
          if (!(*absolute_verdict)[p].has_value()) {
            SJ_ASSIGN_OR_RETURN(bool holds,
                                PredicateHolds(pred, axis_nodes.front()));
            (*absolute_verdict)[p] = holds;
          }
          if (*(*absolute_verdict)[p]) kept = std::move(axis_nodes);
          break;
        }
        for (NodeId v : axis_nodes) {
          SJ_ASSIGN_OR_RETURN(bool holds, PredicateHolds(pred, v));
          if (holds) kept.push_back(v);
        }
        break;
    }
    axis_nodes = std::move(kept);
  }
  return axis_nodes;
}

/// Naive-engine fallback: per-context evaluation over the resident
/// (merged) table. The staircase engine routes positional steps through
/// the set-at-a-time rank join in EvalStep instead.
Result<NodeSequence> Evaluator::EvalStepPositional(
    const Step& step, const NodeSequence& context) {
  NodeSequence collected;
  // Per-context evaluation reads whole nodes, not columns: under an
  // overlay it runs on the materialized merged table (resident, like the
  // pristine per-context path).
  SJ_ASSIGN_OR_RETURN(const DocTable* edoc, EffectiveDoc());
  std::vector<std::optional<bool>> absolute_verdict(step.predicates.size());
  for (NodeId c : context) {
    JoinStats ignored;
    SJ_ASSIGN_OR_RETURN(NodeSequence axis_nodes,
                        NaiveAxisStep(*edoc, {c}, step.axis, &ignored));
    axis_nodes = FilterByTest(*edoc, step, axis_nodes);
    if (IsReverseAxis(step.axis)) {
      std::reverse(axis_nodes.begin(), axis_nodes.end());
    }
    SJ_ASSIGN_OR_RETURN(
        axis_nodes,
        RankWithinGroup(step, 0, std::move(axis_nodes), &absolute_verdict));
    collected.insert(collected.end(), axis_nodes.begin(), axis_nodes.end());
  }
  std::sort(collected.begin(), collected.end());
  collected.erase(std::unique(collected.begin(), collected.end()),
                  collected.end());
  return collected;
}

Result<NodeSequence> Evaluator::EvalStep(const Step& step,
                                         const NodeSequence& context,
                                         bool top_level,
                                         const PlannedStep& plan) {
  Timer timer;
  StepTrace trace;
  JoinStats stats;
  NodeSequence result;

  const BackendDispatch dispatch(doc_, options_);
  storage::BufferPool* const pool = dispatch.Pool();
  const uint64_t faults_before = pool != nullptr ? pool->stats().faults : 0;

  if (plan.positional && options_.engine != EngineMode::kStaircase) {
    // Naive engine: the per-context oracle path, whole-node reads over
    // the resident (merged) table.
    SJ_ASSIGN_OR_RETURN(result, EvalStepPositional(step, context));
    if (top_level) {
      trace.description = ToString(step) + explain::kPositionalSuffix;
      if (dispatch.Pooled()) {
        // The naive engine reads resident columns; disk experiments
        // must not mistake its steps for IO-charged ones.
        trace.description += explain::kBypassesPoolSuffix;
      }
      trace.stats.context_size = context.size();
      trace.stats.result_size = result.size();
      trace.millis = timer.ElapsedMillis();
      trace.op = plan.op;
      trace.estimated_rows = plan.estimated_rows;
      trace_.push_back(std::move(trace));
    }
    return result;
  }

  const bool staircase_axis = IsStaircaseAxis(step.axis);
  const std::optional<TagId>& tag = plan.tag;

  if (options_.engine != EngineMode::kStaircase) {
    // Naive engine: per-context evaluation with sort + unique (the
    // "standard RDBMS join algorithms" route of [8]), per-node filter.
    SJ_ASSIGN_OR_RETURN(const DocTable* edoc, EffectiveDoc());
    SJ_ASSIGN_OR_RETURN(result, NaiveAxisStep(*edoc, context, step.axis,
                                              &stats));
    trace.description = ToString(step) + explain::kPerContext;
    if (step.test.kind != NodeTestKind::kAnyNode) {
      result = FilterByTest(*edoc, step, result);
    }
  } else if (plan.needs_tag && !tag.has_value()) {
    // Before any evaluation, positional or not: a never-interned name
    // is statically empty.
    trace.description = ToString(step) + explain::kEmptyUnknownTag;
    result.clear();
  } else if (plan.positional) {
    // Set-at-a-time positional rank join: one group per context node,
    // predicates rank within each group. Every read is charged to the
    // backend. Over a tag fragment the leading [k] / [last()] is settled
    // by fragment probes (one match per group); otherwise one cursor
    // pass builds every group from the document (core/axis_impl.h).
    internal::PositionalGroups groups;
    size_t first_predicate = 0;
    trace.description = ToString(step) + explain::kVia + dispatch.Label() +
                        std::string(AxisName(step.axis)) +
                        explain::kPositionalRankJoin;
    if (plan.pushdown) {
      const Predicate& lead = step.predicates.front();
      const internal::PositionalRank rank{
          lead.kind == Predicate::Kind::kLast, lead.position};
      SJ_ASSIGN_OR_RETURN(groups,
                          dispatch.PositionalRankSelect(*tag, context,
                                                        step.axis, rank,
                                                        &stats));
      first_predicate = 1;
      trace.description += explain::kPositionalOverFragmentOpen +
                           step.test.name +
                           explain::kPositionalOverFragmentClose;
    } else {
      SJ_ASSIGN_OR_RETURN(
          groups, dispatch.PositionalAxis(context, step.axis,
                                          MakeAxisNodeTest(step, tag),
                                          &stats));
    }
    if (dispatch.Pooled()) trace.description += explain::kBufferPoolSuffix;
    NodeSequence collected;
    if (first_predicate == step.predicates.size()) {
      // The fragment probes settled the whole predicate chain.
      collected = std::move(groups.nodes);
    } else {
      std::vector<std::optional<bool>> absolute_verdict(
          step.predicates.size());
      for (size_t g = 0; g + 1 < groups.offsets.size(); ++g) {
        NodeSequence axis_nodes(groups.nodes.begin() + groups.offsets[g],
                                groups.nodes.begin() + groups.offsets[g + 1]);
        if (IsReverseAxis(step.axis)) {
          std::reverse(axis_nodes.begin(), axis_nodes.end());
        }
        SJ_ASSIGN_OR_RETURN(axis_nodes,
                            RankWithinGroup(step, first_predicate,
                                            std::move(axis_nodes),
                                            &absolute_verdict));
        collected.insert(collected.end(), axis_nodes.begin(),
                         axis_nodes.end());
      }
    }
    std::sort(collected.begin(), collected.end());
    collected.erase(std::unique(collected.begin(), collected.end()),
                    collected.end());
    result = std::move(collected);
    stats.result_size = result.size();
    if (top_level) {
      trace.stats = stats;
      trace.millis = timer.ElapsedMillis();
      trace.op = plan.op;
      trace.estimated_rows = plan.estimated_rows;
      if (pool != nullptr) {
        trace.pool_faults = pool->stats().faults - faults_before;
      }
      trace_.push_back(std::move(trace));
    }
    return result;
  } else if (staircase_axis) {
    if (plan.pushdown) {
      // The unified fragment join over the backend's cursor: the
      // pushed-down step's fragment reads AND its context postorder
      // reads are charged to the step's backend (the image's pool when
      // pool-backed). The fragment already applies the name test.
      SJ_ASSIGN_OR_RETURN(
          result, dispatch.PushdownView(*tag, context, step.axis, &stats));
      trace.description = ToString(step) + explain::kVia + dispatch.Label() +
                          explain::kPushdownOpen + step.test.name +
                          explain::kPushdownClose;
    } else {
      // The unified kernels over the backend's cursor: the same join,
      // IO-conscious when pool-backed. stats.workers reports what
      // actually ran -- the parallel driver falls back to the serial
      // join for small contexts, degenerate axes, or undersized pools.
      SJ_ASSIGN_OR_RETURN(result,
                          dispatch.Staircase(context, step.axis, &stats));
      trace.description =
          ToString(step) + explain::kVia +
          (stats.workers > 1 ? std::string(explain::kParallelPrefix)
                             : std::string()) +
          dispatch.Label() + explain::kStaircaseJoin +
          (stats.workers > 1
               ? explain::kWorkersOpen + std::to_string(stats.workers) +
                     explain::kWorkersClose
               : (dispatch.Pooled() ? std::string(explain::kBufferPoolSuffix)
                                    : std::string()));
      if (step.test.kind != NodeTestKind::kAnyNode) {
        // The node-test pass reads kind/tag through the step's backend
        // cursor, so even the filter is charged to the pool on the
        // pool-backed backends.
        SJ_ASSIGN_OR_RETURN(
            result, dispatch.Filter(result, MakeAxisNodeTest(step, tag)));
      }
    }
  } else {
    // Non-staircase axis: the set-at-a-time cursor kernels with the
    // node test folded into the scan -- the per-context NaiveAxisStep
    // is a baseline only (positional predicates excepted).
    SJ_ASSIGN_OR_RETURN(
        result, dispatch.AxisCursor(context, step.axis,
                                    MakeAxisNodeTest(step, tag), &stats));
    trace.description = ToString(step) + explain::kVia + dispatch.Label() +
                        std::string(AxisName(step.axis)) +
                        explain::kAxisCursorJoin +
                        (dispatch.Pooled() ? explain::kBufferPoolSuffix : "");
  }

  SJ_ASSIGN_OR_RETURN(result, ApplyPredicates(step, std::move(result)));

  if (top_level) {
    stats.result_size = result.size();
    trace.stats = stats;
    trace.millis = timer.ElapsedMillis();
    trace.op = plan.op;
    trace.estimated_rows = plan.estimated_rows;
    if (pool != nullptr) {
      trace.pool_faults = pool->stats().faults - faults_before;
    }
    trace_.push_back(std::move(trace));
  }
  return result;
}

std::string ExplainTrace(const std::vector<StepTrace>& trace) {
  std::string out;
  for (size_t i = 0; i < trace.size(); ++i) {
    const StepTrace& t = trace[i];
    out += explain::kStepPrefix + std::to_string(i + 1) + explain::kStepColon +
           t.description + "\n";
    out += explain::kStatContext + std::to_string(t.stats.context_size) +
           explain::kStatPruned + std::to_string(t.stats.pruned_context_size) +
           explain::kStatScanned + std::to_string(t.stats.nodes_scanned) +
           explain::kStatCopied + std::to_string(t.stats.nodes_copied) +
           explain::kStatSkipped + std::to_string(t.stats.nodes_skipped) +
           explain::kStatResult + std::to_string(t.stats.result_size) +
           explain::kStatEst + std::to_string(t.estimated_rows) +
           explain::kStatAct + std::to_string(t.stats.result_size) +
           explain::kStatMillisOpen + std::to_string(t.millis) +
           explain::kStatMillisClose + "\n";
  }
  return out;
}

std::string Evaluator::ExplainLastQuery() const { return ExplainTrace(trace_); }

}  // namespace sj::xpath
