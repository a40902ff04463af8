// The cost model behind the planner: cardinality estimates from
// statistics the build already has, and page-cost formulas for the two
// operators a kAuto name-test step chooses between -- the document-scan
// staircase join and the join over the tag fragment (pushdown). It is
// the only kAuto pushdown decision.
//
// The estimator is fed three inputs, none of which require a statistics
// pass of their own:
//   * the document size (node count of the bound / merged document),
//   * the per-tag fragment sizes -- the TagIndex keeps one pre/post
//     fragment per element tag, so |fragment(t)| IS the exact number of
//     t-tagged nodes. On an edited snapshot the counts are read through
//     the overlay's merged dictionary (BackendDispatch::TagCount), so
//     tags first introduced by a delta get their real counts instead of
//     a fallback to document size,
//   * DocStatistics: the 1-byte level column folded into a level
//     histogram plus a per-tag level spread, collected in one O(doc)
//     pass at Database open (api/database.cc BuildImages).
//
// Costs are expressed in estimated page-fault equivalents of the paged
// image's raw layout (storage/compressed_doc.h: u32 columns pack
// kCostRanksPerPage ranks per page, byte columns pack
// kCostBytesPerPage), scaled by a per-backend unit -- resident reads
// are cheap, compressed pages amortize more ranks, paged pages are the
// reference -- plus a per-backend price for the fragment join's
// per-context seek. Every cost constant lives in THIS header and nowhere
// else: sj-lint (tools/lint/sj_lint.py, rule cost-literal) fails the
// build when a cost-constant definition appears in another src/xpath/
// file, so the planner's arithmetic cannot fork silently.
//
// All estimates are deterministic in (statistics, options): compiled
// plans and the dynamic per-step path derive identical numbers, which is
// what keeps cached and uncached EXPLAIN traces byte-identical.

#ifndef STAIRJOIN_XPATH_COST_MODEL_H_
#define STAIRJOIN_XPATH_COST_MODEL_H_

#include <array>
#include <cstdint>
#include <functional>
#include <vector>

#include "core/axis.h"
#include "encoding/doc_table.h"

namespace sj::xpath {

/// Document-level statistics, collected once per image build (one O(doc)
/// pass over the level/tag columns) and shared read-only by every
/// session over those images.
struct DocStatistics {
  /// Node count of the document the statistics were collected from.
  uint64_t doc_size = 0;
  /// level_histogram[l] = nodes at depth l. The level column is one
  /// byte, so 256 buckets cover its whole range.
  std::array<uint64_t, 256> level_histogram{};
  /// Deepest populated level.
  uint8_t max_level = 0;
  /// Per-tag node counts, indexed by TagId of the base dictionary.
  std::vector<uint64_t> tag_counts;
  /// Per-tag level spread: the depth band [tag_min_level[t],
  /// tag_max_level[t]] every t-tagged node lives in. Lets the estimator
  /// zero out steps whose axis level band cannot intersect the tag's
  /// (e.g. child::site below the root's children).
  std::vector<uint8_t> tag_min_level;
  std::vector<uint8_t> tag_max_level;

  /// One pass over the level/kind/tag columns.
  static DocStatistics Collect(const DocTable& doc);
};

/// Page math of the paged image's raw layout (storage/compressed_doc.h):
/// u32 columns (post/parent/tag, fragment pre/post) pack this many ranks
/// per page; byte columns (kind/level) pack kCostBytesPerPage.
inline constexpr uint64_t kCostRanksPerPage = 2048;
inline constexpr uint64_t kCostBytesPerPage = 8192;

// --- cost constants (sj-lint rule cost-literal fences them to this file) ----

/// Per-backend cost of touching one page-equivalent of column data.
/// Paged is the reference unit (one page == one potential fault).
inline constexpr double kPagedPageCost = 1.0;
/// Resident column reads never fault; the unit prices the scan's CPU
/// against the pool-backed backends' faults. Both joins scan resident columns
/// once per step, so this unit alone prices them against each other.
inline constexpr double kMemoryPageCost = 0.1;
/// Block-compressed columns amortize ~4x more ranks per faulted page
/// (bench_cold_suites CC1: 3.4-7.1x fewer faults at equal pool size).
inline constexpr double kCompressedPageCost = 0.25;
/// Charged per pruned context node by the fragment pushdown join on the
/// pool-backed backends (paged, compressed): each context node's
/// partition starts with a seek (core/fragment_impl.h LowerBoundFrom)
/// -- a few probed slots, or a fence search for a long jump, whose
/// landing page may be cold.
/// Priced in page-equivalents of scan work (~16 of the 2048 ranks a u32
/// page holds) and NOT scaled by the page unit. This is the term that
/// makes pushdown lose on large contexts over pages: the doc-scan
/// staircase join shares one pass across the whole context. On the
/// resident backend the seek is a forward probe over slots the join
/// reads anyway -- no more work per context node than the document scan
/// does -- so it costs nothing there.
inline constexpr double kPushdownProbeCost = 0.0078125;  // 1/128

/// The cost units of one storage backend: a page-equivalent of column
/// data, and one fragment-join seek per pruned context node.
struct BackendCosts {
  double page;
  double probe;
};
inline constexpr BackendCosts kMemoryCosts{kMemoryPageCost, 0.0};
inline constexpr BackendCosts kPagedCosts{kPagedPageCost, kPushdownProbeCost};
inline constexpr BackendCosts kCompressedCosts{kCompressedPageCost,
                                               kPushdownProbeCost};

/// Selectivity guess of one existence predicate ([pred] halves the
/// step's estimate; positional predicates clamp to one row per context).
inline constexpr double kExistsPredicateSelectivity = 0.5;

/// A chained per-step estimate: output cardinality plus the level band
/// the output rows live in (the band is what makes child steps sharp --
/// a tag whose spread misses the band estimates to zero).
struct ContextEstimate {
  double rows = 1.0;
  int level_lo = 0;
  int level_hi = 0;
};

/// \brief Estimates per-step output cardinality and per-operator page
/// cost. Cheap to construct (borrows the statistics); one instance
/// serves every path of one Evaluator::Compile.
class CardinalityEstimator {
 public:
  /// `stats` may be null (a raw Evaluator without a Database): the
  /// estimator then falls back to coarse document-size bounds. The
  /// per-tag counts always come through `tag_count` -- on an edited
  /// snapshot that callback reads the overlay's MERGED fragment sizes,
  /// never the stale base statistics.
  CardinalityEstimator(const DocStatistics* stats, uint64_t logical_size,
                       BackendCosts costs,
                       std::function<uint64_t(TagId)> tag_count)
      : stats_(stats),
        n_(logical_size),
        unit_(costs.page),
        probe_(costs.probe),
        tag_count_(std::move(tag_count)) {}

  /// The absolute-path starting point: one row (the document element)
  /// at level 0.
  ContextEstimate Root() const { return ContextEstimate{1.0, 0, 0}; }

  /// Estimated output of one axis step over `in` context rows.
  /// `tag` carries the interned tag when the step's node test names one
  /// (kNoTag = no name test / test not tag-shaped).
  ContextEstimate EstimateStep(const ContextEstimate& in, Axis axis,
                               TagId tag) const;

  /// Estimate after one predicate: positional predicates keep at most
  /// one row per context node; existence predicates apply
  /// kExistsPredicateSelectivity.
  double EstimatePredicate(double rows, double context_rows,
                           bool positional) const;

  // --- per-operator page costs (same unit across operators) -----------------

  /// Full staircase join over the doc columns + node-test filter pass:
  /// post+level over the covered region, kind+tag over the axis output.
  double StaircaseCost(const ContextEstimate& in, Axis axis,
                       bool name_filter) const;

  /// Staircase join over the tag fragment on `axis`: the fragment
  /// pre+post pages the context regions overlap (scatter-bounded, at
  /// most the whole fragment) plus one seek per pruned context node --
  /// a single one for following and preceding, which prune the context
  /// to one node.
  double PushdownCost(const ContextEstimate& in, Axis axis, TagId tag) const;

  /// Number of t-tagged nodes (merged count under an overlay).
  uint64_t TagCount(TagId tag) const {
    return tag == kNoTag ? 0 : tag_count_(tag);
  }

  uint64_t doc_size() const { return n_; }

 private:
  /// Nodes strictly deeper than `level` (histogram; n-1 without stats).
  double NodesBelow(int level) const;
  /// Nodes within levels [lo, hi] (histogram; coarse without stats).
  double NodesAt(int lo, int hi) const;
  /// Fraction of the level band's population the context covers.
  double Coverage(const ContextEstimate& in) const;
  /// Whether tag `t`'s level spread can intersect [lo, hi]. Tags the
  /// statistics never saw (fresh overlay tags, null stats) are assumed
  /// to intersect -- unknown spread must widen estimates, not zero them.
  bool SpreadIntersects(TagId t, int lo, int hi) const;
  /// `rows` bounded by the t-tagged nodes that can live in `band`'s
  /// level band (all rows when `tag` is kNoTag).
  double ClampToTag(double rows, const ContextEstimate& band,
                    TagId tag) const;
  /// Pages of a u32 column slice of `ranks` entries.
  static double PagesU32(double ranks);
  /// Pages of a byte column slice of `ranks` entries.
  static double PagesU8(double ranks);

  const DocStatistics* stats_;
  uint64_t n_;
  double unit_;
  double probe_;
  std::function<uint64_t(TagId)> tag_count_;
};

/// Rounds an estimate for display (EXPLAIN est=N, PlannedStep).
inline uint64_t RoundedEstimate(double rows) {
  if (rows <= 0.0) return 0;
  return static_cast<uint64_t>(rows + 0.5);
}

}  // namespace sj::xpath

#endif  // STAIRJOIN_XPATH_COST_MODEL_H_
