#include "xpath/cost_model.h"

#include <algorithm>
#include <cmath>

namespace sj::xpath {

DocStatistics DocStatistics::Collect(const DocTable& doc) {
  DocStatistics s;
  s.doc_size = doc.size();
  const size_t dict = doc.tags().size();
  s.tag_counts.assign(dict, 0);
  s.tag_min_level.assign(dict, 255);
  s.tag_max_level.assign(dict, 0);
  const auto levels = doc.levels();
  const auto tags = doc.tags_column();
  for (size_t i = 0; i < levels.size(); ++i) {
    const uint8_t lvl = levels[i];
    ++s.level_histogram[lvl];
    s.max_level = std::max(s.max_level, lvl);
    const TagId t = tags[i];
    if (t != kNoTag && t < dict) {
      ++s.tag_counts[t];
      s.tag_min_level[t] = std::min(s.tag_min_level[t], lvl);
      s.tag_max_level[t] = std::max(s.tag_max_level[t], lvl);
    }
  }
  return s;
}

double CardinalityEstimator::PagesU32(double ranks) {
  if (ranks <= 0.0) return 0.0;
  return std::ceil(ranks / static_cast<double>(kCostRanksPerPage));
}

double CardinalityEstimator::PagesU8(double ranks) {
  if (ranks <= 0.0) return 0.0;
  return std::ceil(ranks / static_cast<double>(kCostBytesPerPage));
}

double CardinalityEstimator::NodesBelow(int level) const {
  if (stats_ == nullptr) {
    return std::max(0.0, static_cast<double>(n_) - 1.0);
  }
  double sum = 0.0;
  for (int l = level + 1; l <= stats_->max_level; ++l) {
    sum += static_cast<double>(stats_->level_histogram[static_cast<size_t>(l)]);
  }
  return sum;
}

double CardinalityEstimator::NodesAt(int lo, int hi) const {
  if (lo > hi) return 0.0;
  if (stats_ == nullptr) return static_cast<double>(n_);
  lo = std::max(lo, 0);
  hi = std::min(hi, static_cast<int>(stats_->max_level));
  double sum = 0.0;
  for (int l = lo; l <= hi; ++l) {
    sum += static_cast<double>(stats_->level_histogram[static_cast<size_t>(l)]);
  }
  return sum;
}

double CardinalityEstimator::Coverage(const ContextEstimate& in) const {
  const double band = NodesAt(in.level_lo, in.level_hi);
  if (band <= 0.0) return in.rows > 0.0 ? 1.0 : 0.0;
  return std::min(1.0, in.rows / band);
}

bool CardinalityEstimator::SpreadIntersects(TagId t, int lo, int hi) const {
  if (stats_ == nullptr || t == kNoTag ||
      static_cast<size_t>(t) >= stats_->tag_min_level.size()) {
    // Unknown spread (no statistics, or a tag the base dictionary never
    // saw -- e.g. introduced by an overlay edit): assume it intersects.
    return true;
  }
  if (stats_->tag_counts[t] == 0) return true;  // dict entry, no nodes seen
  const int t_lo = stats_->tag_min_level[t];
  const int t_hi = stats_->tag_max_level[t];
  return t_lo <= hi && lo <= t_hi;
}

double CardinalityEstimator::ClampToTag(double rows,
                                        const ContextEstimate& band,
                                        TagId tag) const {
  if (tag == kNoTag) return rows;
  if (!SpreadIntersects(tag, band.level_lo, band.level_hi)) return 0.0;
  return std::min(rows, static_cast<double>(TagCount(tag)));
}

ContextEstimate CardinalityEstimator::EstimateStep(const ContextEstimate& in,
                                                   Axis axis, TagId tag) const {
  const int max_lvl =
      stats_ != nullptr ? static_cast<int>(stats_->max_level) : 255;
  const double cov = Coverage(in);
  // Every output row of a name-tested step carries the tag, so the
  // output band narrows to the tag's level spread -- this is what keeps
  // Coverage meaningful down a chain of steps (a band as wide as the
  // document would dilute the next step's coverage to ~1/n).
  const auto narrow_to_spread = [this, tag](ContextEstimate* e) {
    if (stats_ == nullptr || tag == kNoTag ||
        static_cast<size_t>(tag) >= stats_->tag_min_level.size() ||
        stats_->tag_counts[tag] == 0) {
      return;
    }
    e->level_lo = std::max(e->level_lo,
                           static_cast<int>(stats_->tag_min_level[tag]));
    e->level_hi = std::min(e->level_hi,
                           static_cast<int>(stats_->tag_max_level[tag]));
  };
  ContextEstimate out;
  switch (axis) {
    case Axis::kDescendant:
    case Axis::kDescendantOrSelf: {
      out.level_lo =
          axis == Axis::kDescendantOrSelf ? in.level_lo : in.level_lo + 1;
      out.level_hi = max_lvl;
      if (tag != kNoTag) {
        out.rows = SpreadIntersects(tag, out.level_lo, out.level_hi)
                       ? static_cast<double>(TagCount(tag)) * cov
                       : 0.0;
      } else {
        out.rows = NodesBelow(in.level_lo) * cov;
        if (axis == Axis::kDescendantOrSelf) out.rows += in.rows;
      }
      break;
    }
    case Axis::kChild: {
      out.level_lo = in.level_lo + 1;
      out.level_hi = in.level_hi + 1;
      const double band = NodesAt(out.level_lo, out.level_hi);
      if (tag != kNoTag) {
        out.rows = SpreadIntersects(tag, out.level_lo, out.level_hi)
                       ? static_cast<double>(TagCount(tag)) * cov
                       : 0.0;
        out.rows = std::min(out.rows, band);
      } else {
        out.rows = band * cov;
      }
      break;
    }
    case Axis::kAttribute: {
      out.level_lo = in.level_lo + 1;
      out.level_hi = in.level_hi + 1;
      // No attribute-count statistic; assume about one attribute per
      // context element.
      out.rows = in.rows;
      break;
    }
    case Axis::kParent: {
      out.level_lo = std::max(0, in.level_lo - 1);
      out.level_hi = std::max(0, in.level_hi - 1);
      out.rows = std::min(in.rows, NodesAt(out.level_lo, out.level_hi));
      out.rows = ClampToTag(out.rows, out, tag);
      break;
    }
    case Axis::kAncestor:
    case Axis::kAncestorOrSelf: {
      out.level_lo = 0;
      out.level_hi =
          axis == Axis::kAncestorOrSelf ? in.level_hi : in.level_hi - 1;
      out.level_hi = std::max(0, out.level_hi);
      // Ancestor chains dedupe heavily: bounded by every node above the
      // context band and by depth x context size.
      double chain = in.rows * std::max(1, in.level_hi);
      if (axis == Axis::kAncestorOrSelf) chain += in.rows;
      out.rows = std::min(chain, NodesAt(out.level_lo, out.level_hi));
      out.rows = ClampToTag(out.rows, out, tag);
      break;
    }
    case Axis::kFollowing:
    case Axis::kPreceding: {
      out.level_lo = 0;
      out.level_hi = max_lvl;
      const double rest =
          std::max(0.0, static_cast<double>(n_) - in.rows) * 0.5;
      out.rows = tag != kNoTag
                     ? std::min(static_cast<double>(TagCount(tag)), rest)
                     : rest;
      break;
    }
    case Axis::kFollowingSibling:
    case Axis::kPrecedingSibling: {
      out.level_lo = in.level_lo;
      out.level_hi = in.level_hi;
      const double band = NodesAt(out.level_lo, out.level_hi);
      double base = std::min(std::max(0.0, band - in.rows), in.rows * 4.0);
      if (tag != kNoTag) {
        base = SpreadIntersects(tag, out.level_lo, out.level_hi)
                   ? std::min(base, static_cast<double>(TagCount(tag)))
                   : 0.0;
      }
      out.rows = base;
      break;
    }
    case Axis::kSelf: {
      out.level_lo = in.level_lo;
      out.level_hi = in.level_hi;
      if (tag != kNoTag) {
        out.rows = SpreadIntersects(tag, out.level_lo, out.level_hi)
                       ? std::min(in.rows,
                                  static_cast<double>(TagCount(tag)) * cov)
                       : 0.0;
      } else {
        out.rows = in.rows;
      }
      break;
    }
  }
  narrow_to_spread(&out);
  out.rows = std::max(0.0, std::min(out.rows, static_cast<double>(n_)));
  out.level_lo = std::clamp(out.level_lo, 0, 255);
  out.level_hi = std::clamp(out.level_hi, out.level_lo, 255);
  return out;
}

double CardinalityEstimator::EstimatePredicate(double rows, double context_rows,
                                               bool positional) const {
  if (positional) return std::min(rows, context_rows);
  return rows * kExistsPredicateSelectivity;
}

double CardinalityEstimator::StaircaseCost(const ContextEstimate& in, Axis axis,
                                           bool name_filter) const {
  // The join scans post + level over the covered region (estimated by the
  // untagged axis output); the name-test filter re-reads kind + tag over
  // the same rows. The region pages assume contiguity, so scattered
  // contexts add up to one page per segment the SkipTo scan reopens --
  // bounded by the whole column, which a staircase join never scans more
  // than once (paper Alg. 3/4 pruning).
  const double region = EstimateStep(in, axis, kNoTag).rows;
  const double n = static_cast<double>(n_);
  const double u32 = std::min(PagesU32(n), PagesU32(region) + in.rows);
  const double u8 = std::min(PagesU8(n), PagesU8(region) + in.rows);
  double cost = unit_ * (u32 + u8);
  if (name_filter) cost += unit_ * (u32 + u8);
  return cost;
}

double CardinalityEstimator::PushdownCost(const ContextEstimate& in,
                                          Axis axis, TagId tag) const {
  // Fragment pre + post columns, plus a seek per pruned context node.
  // The fence-skipping join touches only the fragment pages overlapping
  // the context regions, scattered like the staircase scan -- and never
  // more than the whole fragment. Following and preceding prune the
  // context to one node: one region, one seek, the axis's own hits.
  // The other axes keep the descendant-shaped estimate of the regions.
  const bool one_region = axis == Axis::kFollowing || axis == Axis::kPreceding;
  const double seeks = one_region ? std::min(in.rows, 1.0) : in.rows;
  const double f = static_cast<double>(TagCount(tag));
  const double hits =
      EstimateStep(in, one_region ? axis : Axis::kDescendant, tag).rows;
  const double full = 2.0 * PagesU32(f);
  const double touched = std::min(full, 2.0 * (PagesU32(hits) + seeks));
  return unit_ * touched + probe_ * seeks;
}

}  // namespace sj::xpath
