// The ONE table of EXPLAIN format fragments.
//
// Several test suites pin the evaluator's trace output byte-for-byte
// (the concurrency suite compares traces across threads, the twig suite
// asserts the collapse markers, examples grep for "-> N nodes"), and the
// bench baselines key on plan descriptions staying stable. A step
// description literal typed inline in evaluator code is therefore a
// drift hazard: two sites spelling "buffer pool" slightly differently
// break byte-identical traces in ways no compiler notices. Every trace
// fragment lives HERE and nowhere else; sj-lint (tools/lint/sj_lint.py,
// rule explain-literal) fails the build when an EXPLAIN-looking string
// literal appears in another src/xpath/ file.

#ifndef STAIRJOIN_XPATH_EXPLAIN_STRINGS_H_
#define STAIRJOIN_XPATH_EXPLAIN_STRINGS_H_

namespace sj::xpath::explain {

// --- backend labels (BackendDispatch::Label) --------------------------------
inline constexpr const char kLabelMemory[] = "";
inline constexpr const char kLabelPaged[] = "paged ";
inline constexpr const char kLabelCompressed[] = "compressed ";

// --- step connectors --------------------------------------------------------
/// Joins a step's text with its operator description.
inline constexpr const char kVia[] = " via ";

// --- staircase join ---------------------------------------------------------
inline constexpr const char kStaircaseJoin[] = "staircase join";
inline constexpr const char kParallelPrefix[] = "parallel ";
inline constexpr const char kBufferPoolSuffix[] = " (buffer pool)";
inline constexpr const char kWorkersOpen[] = " (";
inline constexpr const char kWorkersClose[] = " workers)";

// --- name-test pushdown -----------------------------------------------------
inline constexpr const char kPushdownOpen[] =
    "staircase join over tag fragment '";
inline constexpr const char kPushdownClose[] = "' (name-test pushdown)";

// --- axis cursors -----------------------------------------------------------
/// Suffix after the axis name: "<axis>-axis cursor join".
inline constexpr const char kAxisCursorJoin[] = "-axis cursor join";
/// Suffix after the axis name of the set-at-a-time positional step:
/// "<axis>-axis positional rank join". The document scan
/// (PositionalAxisStepOver) serves kind tests, `*`, the attribute,
/// parent, ancestor(-or-self) and self axes, steps whose first predicate
/// is an existence test, and every step under pushdown=never.
inline constexpr const char kPositionalRankJoin[] =
    "-axis positional rank join";
/// Name-test positional steps whose first predicate is [k] or [last()]
/// read each context node's match from the tag fragment
/// (PositionalRankSelectOver): "<axis>-axis positional rank join over
/// tag fragment 'T'".
inline constexpr const char kPositionalOverFragmentOpen[] =
    " over tag fragment '";
inline constexpr const char kPositionalOverFragmentClose[] = "'";

// --- twig join --------------------------------------------------------------
inline constexpr const char kTwigJoinOverFragments[] =
    "twig join over fragments ";
inline constexpr const char kTwigLevelSep[] = "→";
inline constexpr const char kTwigQuote[] = "'";
inline constexpr const char kTwigK[] = ", k=";
inline constexpr const char kTwigSkipsOpen[] = " (cursor skips:";
inline constexpr const char kTwigSkipsFirst[] = " '";
inline constexpr const char kTwigSkipsNext[] = ", '";
inline constexpr const char kTwigSkipsEq[] = "'=";
inline constexpr const char kCloseParen[] = ")";
inline constexpr const char kStepSep[] = "/";
inline constexpr const char kSubsumedByTwigOpen[] =
    " -> subsumed by twig join (step ";

// --- snapshot overlay (updatable documents) ---------------------------------
/// Backend labels of joins running over a delta overlay (the merged
/// base + delta document; base reads still charge the pool).
inline constexpr const char kLabelOverlayMemory[] = "overlay ";
inline constexpr const char kLabelOverlayPaged[] = "overlay paged ";
inline constexpr const char kLabelOverlayCompressed[] = "overlay compressed ";
/// Leading line of an edited snapshot's EXPLAIN:
/// "snapshot: epoch N (delta: M nodes)". Pristine databases (epoch 0)
/// emit no line, keeping their traces byte-identical to pre-delta runs.
inline constexpr const char kSnapshotOpen[] = "snapshot: epoch ";
inline constexpr const char kSnapshotDeltaOpen[] = " (delta: ";
inline constexpr const char kSnapshotDeltaClose[] = " nodes)";

// --- plan cache (sj::QueryResult::Explain) ----------------------------------
/// Leading line of a cache-served query's EXPLAIN; closed by kCloseParen.
/// The rest of the report stays byte-identical to the uncached run.
inline constexpr const char kPlanCachedOpen[] = "plan: cached (hits=";

// --- empty short-circuits ---------------------------------------------------
inline constexpr const char kEmptyShortCircuited[] =
    " -> empty (short-circuited)";
inline constexpr const char kEmptyUnknownTag[] = " -> empty (unknown tag)";

// --- ExplainTrace rendering -------------------------------------------------
inline constexpr const char kStepPrefix[] = "step ";
inline constexpr const char kStepColon[] = ": ";
inline constexpr const char kStatContext[] = "  context=";
inline constexpr const char kStatPruned[] = " pruned=";
inline constexpr const char kStatScanned[] = " scanned=";
inline constexpr const char kStatCopied[] = " copied=";
inline constexpr const char kStatSkipped[] = " skipped=";
inline constexpr const char kStatResult[] = " result=";
/// Planner estimate vs actual rows: " est=N act=M" after the result
/// count. Estimates are deterministic in (statistics, options), so
/// cached and uncached traces stay byte-identical.
inline constexpr const char kStatEst[] = " est=";
inline constexpr const char kStatAct[] = " act=";
inline constexpr const char kStatMillisOpen[] = "  (";
inline constexpr const char kStatMillisClose[] = " ms)";

}  // namespace sj::xpath::explain

#endif  // STAIRJOIN_XPATH_EXPLAIN_STRINGS_H_
