#include "xpath/evaluator.h"

#include <algorithm>
#include <iterator>
#include <utility>

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

/// True for the axes whose position counts against document order
/// (XPath reverse axes).
bool IsReverseAxis(Axis axis) {
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

/// The EXPLAIN text of one executed non-twig step, by its operator.
std::string DescribeStep(const Step& step, const PlannedStep& plan,
                         const BackendDispatch& dispatch,
                         const JoinStats& stats) {
  std::string desc = ToString(step);
  const std::string pool_suffix =
      dispatch.Pooled() ? explain::kBufferPoolSuffix : "";
  switch (plan.op) {
    case StepOperator::kEmpty:
      return desc + explain::kEmptyUnknownTag;
    case StepOperator::kPositional:
      desc += explain::kVia + std::string(dispatch.Label()) +
              std::string(AxisName(step.axis)) + explain::kPositionalRankJoin;
      if (plan.pushdown) {
        desc += explain::kPositionalOverFragmentOpen + step.test.name +
                explain::kPositionalOverFragmentClose;
      }
      return desc + pool_suffix;
    case StepOperator::kPushdown:
      return desc + explain::kVia + dispatch.Label() + explain::kPushdownOpen +
             step.test.name + explain::kPushdownClose;
    case StepOperator::kStaircase:
      // stats.workers reports what actually ran: the parallel driver
      // falls back to the serial join for small contexts, degenerate
      // axes, or undersized pools.
      if (stats.workers > 1) {
        return desc + explain::kVia + explain::kParallelPrefix +
               dispatch.Label() + explain::kStaircaseJoin +
               explain::kWorkersOpen + std::to_string(stats.workers) +
               explain::kWorkersClose;
      }
      return desc + explain::kVia + dispatch.Label() + explain::kStaircaseJoin +
             pool_suffix;
    default:  // kAxisCursor
      return desc + explain::kVia + dispatch.Label() +
             std::string(AxisName(step.axis)) + explain::kAxisCursorJoin +
             pool_suffix;
  }
}

/// The EXPLAIN text of one executed twig run over steps[first, ...).
std::string DescribeTwigRun(const std::vector<Step>& steps, size_t first,
                            const PlannedStep& plan,
                            const BackendDispatch& dispatch,
                            const std::vector<TwigLevelStats>& level_stats) {
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
  return desc;
}

}  // namespace

Evaluator::Evaluator(const DocTable& doc, EvalOptions options)
    : doc_(doc), options_(std::move(options)) {}

bool Evaluator::Overlaid() const { return xpath::Overlaid(options_); }

size_t Evaluator::LogicalSize() const {
  return Overlaid() ? options_.overlay->logical_size() : doc_.size();
}

std::optional<TagId> Evaluator::LookupTag(std::string_view name) const {
  if (Overlaid()) return options_.overlay->LookupTag(doc_.tags(), name);
  return doc_.tags().Lookup(name);
}

Result<NodeSequence> Evaluator::EvaluateBranch(const LocationPath& path,
                                               const NodeSequence& context,
                                               const PlannedPath& planned) {
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
  return EvalSteps(path.steps, planned, std::move(start), /*top_level=*/true);
}

Result<NodeSequence> Evaluator::Evaluate(const CompiledPlan& plan,
                                         const NodeSequence& context) {
  if (plan.branches.size() != plan.expr.branches.size()) {
    return Status::InvalidArgument(
        "compiled plan does not match its expression");
  }
  // One trace for the whole union: every branch appends its steps.
  trace_.clear();
  NodeSequence merged;
  for (size_t b = 0; b < plan.expr.branches.size(); ++b) {
    const LocationPath& branch = plan.expr.branches[b];
    SJ_ASSIGN_OR_RETURN(NodeSequence r,
                        EvaluateBranch(branch, context, plan.branches[b]));
    NodeSequence next;
    next.reserve(merged.size() + r.size());
    std::merge(merged.begin(), merged.end(), r.begin(), r.end(),
               std::back_inserter(next));
    next.erase(std::unique(next.begin(), next.end()), next.end());
    merged = std::move(next);
  }
  return merged;
}

CompiledPlan Evaluator::Compile(UnionExpr expr) const {
  CompiledPlan plan;
  plan.expr = std::move(expr);
  plan.branches.reserve(plan.expr.branches.size());
  const CardinalityEstimator est = MakeEstimator();
  for (const LocationPath& branch : plan.expr.branches) {
    plan.branches.push_back(PlanPath(branch.steps, est));
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

PlannedPath Evaluator::PlanPath(const std::vector<Step>& steps,
                                const CardinalityEstimator& est) const {
  // The same walk EvalSteps performs at execution time: a twig match
  // consumes its whole run, every other step is planned individually.
  // ContextEstimates chain from the root -- per-run context sizes must
  // not influence decisions, or cached and uncached plans (and their
  // traces) would diverge.
  PlannedPath planned;
  planned.steps.resize(steps.size());
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

Result<NodeSequence> Evaluator::EvalSteps(const std::vector<Step>& steps,
                                          const PlannedPath& planned,
                                          NodeSequence context,
                                          bool top_level) {
  const BackendDispatch dispatch(doc_, options_);
  storage::BufferPool* const pool = dispatch.Pool();
  auto pool_faults = [pool]() -> uint64_t {
    return pool != nullptr ? pool->stats().faults : 0;
  };
  for (size_t i = 0; i < steps.size();) {
    if (context.empty()) {
      // The remaining steps cannot produce anything, but EXPLAIN must
      // still list one entry per step of the query -- a trace shorter
      // than the path would misreport the executed plan.
      if (top_level) {
        for (size_t k = i; k < steps.size(); ++k) {
          StepTrace skipped;
          skipped.description =
              ToString(steps[k]) + explain::kEmptyShortCircuited;
          skipped.op = planned.steps[k].op;
          skipped.estimated_rows = planned.steps[k].estimated_rows;
          trace_.push_back(std::move(skipped));
        }
      }
      return NodeSequence{};
    }
    const PlannedStep& plan = planned.steps[i];
    const bool twig = plan.twig_consumed > 0;
    Timer timer;
    const uint64_t faults_before = top_level ? pool_faults() : 0;
    JoinStats stats;
    std::vector<TwigLevelStats> level_stats;
    if (twig) {
      SJ_ASSIGN_OR_RETURN(context, dispatch.Twig(context, plan.twig_levels,
                                                 &stats, &level_stats));
    } else {
      SJ_ASSIGN_OR_RETURN(context, EvalStep(steps[i], plan, context, &stats));
    }
    if (top_level) {
      StepTrace trace;
      trace.millis = timer.ElapsedMillis();
      trace.pool_faults = pool_faults() - faults_before;
      trace.description =
          twig ? DescribeTwigRun(steps, i, plan, dispatch, level_stats)
               : DescribeStep(steps[i], plan, dispatch, stats);
      stats.result_size = context.size();
      trace.stats = stats;
      trace.op = plan.op;
      trace.estimated_rows = plan.estimated_rows;
      trace_.push_back(std::move(trace));
      // A twig run keeps one entry per query step: a "subsumed" marker
      // per remaining step points back at the twig entry (1-based).
      const size_t twig_entry = trace_.size();
      for (size_t s = 1; s < plan.twig_consumed; ++s) {
        StepTrace subsumed;
        subsumed.description = ToString(steps[i + s]) +
                               explain::kSubsumedByTwigOpen +
                               std::to_string(twig_entry) +
                               explain::kCloseParen;
        subsumed.op = StepOperator::kTwigSubsumed;
        trace_.push_back(std::move(subsumed));
      }
    }
    i += twig ? plan.twig_consumed : 1;
  }
  return context;
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
  if (options_.hints.twig == TwigMode::kNever) return plan;
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
  // At least one non-existence predicate ([k] / [last()]): the step runs
  // as a set-at-a-time positional rank join within per-context groups.
  const bool positional = std::any_of(
      step.predicates.begin(), step.predicates.end(),
      [](const Predicate& p) { return p.kind != Predicate::Kind::kExists; });
  // std::nullopt tag: the step's name test (or PI target) references a
  // never-interned name and can only produce the empty sequence.
  // Distinct from a text/comment node's kNoTag column value, which
  // Lookup can never return.
  const bool needs_tag = step.test.kind == NodeTestKind::kName ||
                         (step.test.kind == NodeTestKind::kPi &&
                          !step.test.name.empty());
  if (needs_tag) plan.tag = LookupTag(step.test.name);
  if (step.test.kind == NodeTestKind::kName && plan.tag.has_value()) {
    plan.pushdown = positional ? RankOverFragment(step)
                               : ShouldPushdown(step, *plan.tag, est, *ctx);
  }

  // Cardinality: chain the context estimate through the step, then the
  // predicate chain (positional predicates clamp to one row per context
  // node; existence predicates halve).
  ContextEstimate out =
      est.EstimateStep(*ctx, step.axis,
                       needs_tag ? plan.tag.value_or(kNoTag) : kNoTag);
  if (needs_tag && !plan.tag.has_value()) out.rows = 0.0;
  for (const Predicate& pred : step.predicates) {
    out.rows = est.EstimatePredicate(
        out.rows, ctx->rows, pred.kind != Predicate::Kind::kExists);
    plan.predicate_paths.push_back(pred.kind == Predicate::Kind::kExists
                                       ? PlanPath(pred.path->steps, est)
                                       : PlannedPath{});
  }
  plan.estimated_rows = RoundedEstimate(out.rows);
  *ctx = out;

  // The operator EvalStep will route this plan through.
  if (needs_tag && !plan.tag.has_value()) {
    plan.op = StepOperator::kEmpty;
  } else if (positional) {
    plan.op = StepOperator::kPositional;
  } else if (IsStaircaseAxis(step.axis)) {
    plan.op = plan.pushdown ? StepOperator::kPushdown
                            : StepOperator::kStaircase;
  } else {
    plan.op = StepOperator::kAxisCursor;
  }
  return plan;
}

bool Evaluator::ShouldPushdown(const Step& step, TagId tag,
                               const CardinalityEstimator& est,
                               const ContextEstimate& in) const {
  const BackendDispatch dispatch(doc_, options_);
  if (!dispatch.HasFragments()) return false;
  if (step.test.kind != NodeTestKind::kName) return false;
  if (!IsStaircaseAxis(step.axis)) return false;
  switch (options_.hints.pushdown) {
    case PushdownMode::kNever:
      return false;
    case PushdownMode::kAlways:
      return true;
    case PushdownMode::kAuto:
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
  if (options_.hints.pushdown == PushdownMode::kNever ||
      !internal::IsFragmentRankAxis(step.axis) ||
      step.predicates.front().kind == Predicate::Kind::kExists) {
    return false;
  }
  return BackendDispatch(doc_, options_).HasFragments();
}

Result<bool> Evaluator::PredicateHolds(const Predicate& pred,
                                       const PlannedPath& planned,
                                       NodeId node) {
  NodeSequence start{node};
  if (pred.path->absolute) {
    start = doc_.empty() ? NodeSequence{} : NodeSequence{doc_.root()};
  }
  SJ_ASSIGN_OR_RETURN(NodeSequence r,
                      EvalSteps(pred.path->steps, planned, std::move(start),
                                /*top_level=*/false));
  return !r.empty();
}

/// Positional predicates rank within ONE context node's axis output:
/// [2] means "the second node this step selects *from one context
/// node*, in axis order". RankWithinGroup applies a step's predicate
/// chain to one such group (already reversed for reverse axes);
/// predicates apply in order, each positional predicate indexing the
/// list surviving the previous ones. A step without positional
/// predicates is one group: its whole output.
Result<NodeSequence> Evaluator::RankWithinGroup(
    const Step& step, const PlannedStep& plan, size_t first, NodeSequence nodes,
    std::vector<std::optional<bool>>* absolute_verdict) {
  for (size_t p = first; p < step.predicates.size(); ++p) {
    const Predicate& pred = step.predicates[p];
    if (nodes.empty()) break;
    NodeSequence kept;
    switch (pred.kind) {
      case Predicate::Kind::kPosition:
        if (pred.position <= nodes.size()) {
          kept.push_back(nodes[pred.position - 1]);
        }
        break;
      case Predicate::Kind::kLast:
        kept.push_back(nodes.back());
        break;
      case Predicate::Kind::kExists: {
        const PlannedPath& path_plan = plan.predicate_paths[p];
        if (pred.path->absolute) {
          // Context-invariant: memoized once per step.
          if (!(*absolute_verdict)[p].has_value()) {
            SJ_ASSIGN_OR_RETURN(bool holds,
                                PredicateHolds(pred, path_plan, nodes.front()));
            (*absolute_verdict)[p] = holds;
          }
          if (*(*absolute_verdict)[p]) kept = std::move(nodes);
          break;
        }
        kept.reserve(nodes.size());
        for (NodeId v : nodes) {
          SJ_ASSIGN_OR_RETURN(bool holds, PredicateHolds(pred, path_plan, v));
          if (holds) kept.push_back(v);
        }
        break;
      }
    }
    nodes = std::move(kept);
  }
  return nodes;
}

Result<NodeSequence> Evaluator::EvalStep(const Step& step,
                                         const PlannedStep& plan,
                                         const NodeSequence& context,
                                         JoinStats* stats) {
  const BackendDispatch dispatch(doc_, options_);
  std::vector<std::optional<bool>> absolute_verdict(step.predicates.size());
  NodeSequence result;
  switch (plan.op) {
    case StepOperator::kEmpty:
      // A never-interned name is statically empty, positional or not.
      return NodeSequence{};
    case StepOperator::kPositional: {
      // Set-at-a-time positional rank join: one group per context node,
      // predicates rank within each group. Every read is charged to the
      // backend. Over a tag fragment the leading [k] / [last()] is
      // settled by fragment probes (one match per group); otherwise one
      // cursor pass builds every group from the document
      // (core/axis_impl.h).
      internal::PositionalGroups groups;
      size_t first_predicate = 0;
      if (plan.pushdown) {
        const Predicate& lead = step.predicates.front();
        const internal::PositionalRank rank{
            lead.kind == Predicate::Kind::kLast, lead.position};
        SJ_ASSIGN_OR_RETURN(groups,
                            dispatch.PositionalRankSelect(*plan.tag, context,
                                                          step.axis, rank,
                                                          stats));
        first_predicate = 1;
      } else {
        SJ_ASSIGN_OR_RETURN(
            groups, dispatch.PositionalAxis(context, step.axis,
                                            MakeAxisNodeTest(step, plan.tag),
                                            stats));
      }
      if (first_predicate == step.predicates.size()) {
        // The fragment probes settled the whole predicate chain.
        result = std::move(groups.nodes);
      } else {
        for (size_t g = 0; g + 1 < groups.offsets.size(); ++g) {
          NodeSequence group(groups.nodes.begin() + groups.offsets[g],
                             groups.nodes.begin() + groups.offsets[g + 1]);
          if (IsReverseAxis(step.axis)) {
            std::reverse(group.begin(), group.end());
          }
          SJ_ASSIGN_OR_RETURN(group,
                              RankWithinGroup(step, plan, first_predicate,
                                              std::move(group),
                                              &absolute_verdict));
          result.insert(result.end(), group.begin(), group.end());
        }
      }
      std::sort(result.begin(), result.end());
      result.erase(std::unique(result.begin(), result.end()), result.end());
      return result;
    }
    case StepOperator::kPushdown: {
      // The unified fragment join over the backend's cursor: the
      // pushed-down step's fragment reads AND its context postorder
      // reads are charged to the step's backend (the image's pool when
      // pool-backed). The fragment already applies the name test.
      SJ_ASSIGN_OR_RETURN(result, dispatch.PushdownView(*plan.tag, context,
                                                        step.axis, stats));
      break;
    }
    case StepOperator::kStaircase: {
      // The unified kernels over the backend's cursor: the same join,
      // IO-conscious when pool-backed.
      SJ_ASSIGN_OR_RETURN(result,
                          dispatch.Staircase(context, step.axis, stats));
      if (step.test.kind != NodeTestKind::kAnyNode) {
        // The node-test pass reads kind/tag through the step's backend
        // cursor, so even the filter is charged to the pool on the
        // pool-backed backends.
        SJ_ASSIGN_OR_RETURN(
            result, dispatch.Filter(result, MakeAxisNodeTest(step, plan.tag)));
      }
      break;
    }
    case StepOperator::kAxisCursor: {
      // Non-staircase axis: the set-at-a-time cursor kernels with the
      // node test folded into the scan.
      SJ_ASSIGN_OR_RETURN(
          result, dispatch.AxisCursor(context, step.axis,
                                      MakeAxisNodeTest(step, plan.tag), stats));
      break;
    }
    default:
      return Status::Internal("step operator has no single-step route");
  }
  // Existence predicates only: the whole output is one group.
  return RankWithinGroup(step, plan, 0, std::move(result), &absolute_verdict);
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

}  // namespace sj::xpath
