#include "delta/overlay.h"

#include <algorithm>
#include <cassert>

#include "encoding/loader.h"

namespace sj::delta {
namespace {

// --- segment-list surgery --------------------------------------------------
// The forward maps are sorted by lstart and cover [0, logical_size)
// exactly. All three helpers keep that invariant.

/// Makes `pos` a segment boundary and returns the index of the first
/// segment with lstart >= pos (segs.size() when pos is the covered end).
size_t SplitAt(std::vector<Segment>& segs, uint64_t pos) {
  if (segs.empty()) return 0;
  const Segment& last = segs.back();
  if (pos >= last.lstart + last.count) return segs.size();
  auto it = std::upper_bound(
      segs.begin(), segs.end(), pos,
      [](uint64_t v, const Segment& s) { return v < s.lstart; });
  size_t i = static_cast<size_t>(it - segs.begin()) - 1;
  if (segs[i].lstart == pos) return i;
  Segment right = segs[i];
  uint64_t off = pos - segs[i].lstart;
  segs[i].count = off;
  right.lstart = pos;
  right.count -= off;
  right.src += off;
  segs.insert(segs.begin() + i + 1, right);
  return i + 1;
}

/// Splices a run of `count` ranks at `pos`; everything at or after `pos`
/// shifts up by `count`.
void InsertRun(std::vector<Segment>& segs, uint64_t pos, uint64_t count,
               uint64_t src, bool from_delta) {
  size_t i = SplitAt(segs, pos);
  for (size_t j = i; j < segs.size(); ++j) segs[j].lstart += count;
  segs.insert(segs.begin() + i,
              Segment{pos, count, src, from_delta});
}

/// Removes ranks [pos, pos+count); everything after shifts down by
/// `count`. Returns the removed pieces with their original sources.
std::vector<Segment> RemoveRun(std::vector<Segment>& segs, uint64_t pos,
                               uint64_t count) {
  size_t i = SplitAt(segs, pos);
  size_t j = SplitAt(segs, pos + count);
  std::vector<Segment> removed(segs.begin() + i, segs.begin() + j);
  segs.erase(segs.begin() + i, segs.begin() + j);
  for (size_t k = i; k < segs.size(); ++k) segs[k].lstart -= count;
  // Re-join a base run that an insert split once the removal took out
  // everything between its halves, so the map stays as long as the
  // live edits, not as the edit history.
  if (i > 0 && i < segs.size() && !segs[i - 1].from_delta &&
      !segs[i].from_delta &&
      segs[i - 1].src + segs[i - 1].count == segs[i].src) {
    segs[i - 1].count += segs[i].count;
    segs.erase(segs.begin() + i);
  }
  return removed;
}

/// First index i >= `from` of `v` with !before(v[i]), for a `before`
/// that holds on a prefix of v. Gallops from `from`, so k non-decreasing
/// probes over n elements cost one merge walk, O(k log(n/k)).
template <typename T, typename Before>
size_t GallopFrom(const std::vector<T>& v, size_t from, Before before) {
  size_t lo = from;
  size_t hi = from;
  for (size_t step = 1; hi < v.size() && before(v[hi]); step *= 2) {
    lo = hi + 1;
    hi += step;
  }
  hi = std::min(hi, v.size());
  return static_cast<size_t>(
      std::partition_point(v.begin() + lo, v.begin() + hi, before) -
      v.begin());
}

/// Only an assert reads this, so NDEBUG builds leave it unused.
[[maybe_unused]] uint64_t TotalCount(const std::vector<Segment>& segs) {
  uint64_t n = 0;
  for (const Segment& s : segs) n += s.count;
  return n;
}

}  // namespace

// --- Overlay reads ---------------------------------------------------------

Location Overlay::Locate(const std::vector<Segment>& segs, uint64_t lrank,
                         size_t* hint) {
  size_t i;
  // Sequential scans resolve in the hinted or the next segment almost
  // always; fall back to binary search otherwise.
  if (hint != nullptr && *hint < segs.size() &&
      segs[*hint].lstart <= lrank &&
      lrank < segs[*hint].lstart + segs[*hint].count) {
    i = *hint;
  } else if (hint != nullptr && *hint + 1 < segs.size() &&
             segs[*hint + 1].lstart <= lrank &&
             lrank < segs[*hint + 1].lstart + segs[*hint + 1].count) {
    i = *hint + 1;
  } else {
    auto it = std::upper_bound(
        segs.begin(), segs.end(), lrank,
        [](uint64_t v, const Segment& s) { return v < s.lstart; });
    assert(it != segs.begin() && "logical rank below covered range");
    i = static_cast<size_t>(it - segs.begin()) - 1;
  }
  if (hint != nullptr) *hint = i;
  const Segment& s = segs[i];
  assert(lrank < s.lstart + s.count && "logical rank beyond covered range");
  return Location{s.from_delta, s.src + (lrank - s.lstart)};
}

uint64_t Overlay::MapBase(const std::vector<RevSeg>& revs, uint64_t brank) {
  auto it = std::upper_bound(
      revs.begin(), revs.end(), brank,
      [](uint64_t v, const RevSeg& s) { return v < s.src; });
  assert(it != revs.begin() && "base rank not covered by reverse map");
  const RevSeg& s = *(it - 1);
  assert(brank < s.src + s.count && "base rank was deleted");
  return s.lstart + (brank - s.src);
}

std::optional<uint64_t> Overlay::TryBasePreToLogical(uint64_t bpre) const {
  auto it = std::upper_bound(
      base_pre_to_logical_.begin(), base_pre_to_logical_.end(), bpre,
      [](uint64_t v, const RevSeg& s) { return v < s.src; });
  if (it == base_pre_to_logical_.begin()) return std::nullopt;
  const RevSeg& s = *(it - 1);
  if (bpre >= s.src + s.count) return std::nullopt;
  return s.lstart + (bpre - s.src);
}

uint64_t Overlay::LowerBoundBasePre(uint64_t lpre) const {
  // Surviving base nodes keep their relative order, so the reverse map
  // is ascending in both src and lstart: find the first run whose
  // logical range ends beyond lpre.
  auto it = std::upper_bound(
      base_pre_to_logical_.begin(), base_pre_to_logical_.end(), lpre,
      [](uint64_t v, const RevSeg& s) { return v < s.lstart + s.count; });
  if (it == base_pre_to_logical_.end()) return base_size_;
  if (lpre <= it->lstart) return it->src;
  return it->src + (lpre - it->lstart);
}

std::optional<TagId> Overlay::LookupTag(const TagDictionary& base,
                                        std::string_view name) const {
  if (auto id = base.Lookup(name)) return id;
  auto it = extra_ids_.find(std::string(name));
  if (it != extra_ids_.end()) return it->second;
  return std::nullopt;
}

const std::string& Overlay::TagName(const TagDictionary& base,
                                    TagId tag) const {
  if (tag < base_dict_size_) return base.Name(tag);
  return extra_names_[tag - base_dict_size_];
}

// --- OverlayBuilder --------------------------------------------------------

OverlayBuilder::OverlayBuilder(const DocTable& base, const TagIndex* tag_index,
                               std::shared_ptr<const Overlay> start)
    : base_(base), tag_index_(tag_index) {
  if (start != nullptr) {
    // Only the source state; Finish() re-derives the reverse maps and
    // the fragment overlays from it.
    ov_.base_size_ = start->base_size_;
    ov_.logical_size_ = start->logical_size_;
    ov_.deleted_base_nodes_ = start->deleted_base_nodes_;
    ov_.pre_segs_ = start->pre_segs_;
    ov_.post_segs_ = start->post_segs_;
    ov_.deleted_slots_ = start->deleted_slots_;
    ov_.kind_ = start->kind_;
    ov_.tag_ = start->tag_;
    ov_.level_ = start->level_;
    ov_.lpost_ = start->lpost_;
    ov_.lparent_ = start->lparent_;
    ov_.value_ = start->value_;
    ov_.base_dict_size_ = start->base_dict_size_;
    ov_.extra_names_ = start->extra_names_;
    ov_.extra_ids_ = start->extra_ids_;
  } else {
    ov_.base_size_ = base.size();
    ov_.logical_size_ = base.size();
    ov_.base_dict_size_ = static_cast<uint32_t>(base.tags().size());
    if (base.size() > 0) {
      ov_.pre_segs_ = {Segment{0, base.size(), 0, false}};
      ov_.post_segs_ = {Segment{0, base.size(), 0, false}};
    }
  }
  assert(ov_.base_size_ == base.size() && "overlay built over a different base");
}

uint64_t OverlayBuilder::BasePreToLogicalNow(uint64_t bpre) const {
  for (const Segment& s : ov_.pre_segs_) {
    if (!s.from_delta && s.src <= bpre && bpre < s.src + s.count) {
      return s.lstart + (bpre - s.src);
    }
  }
  assert(false && "base pre rank deleted or out of range");
  return 0;
}

uint64_t OverlayBuilder::BasePostToLogicalNow(uint64_t bpost) const {
  for (const Segment& s : ov_.post_segs_) {
    if (!s.from_delta && s.src <= bpost && bpost < s.src + s.count) {
      return s.lstart + (bpost - s.src);
    }
  }
  assert(false && "base post rank deleted or out of range");
  return 0;
}

uint8_t OverlayBuilder::KindAt(uint64_t lpre) const {
  size_t hint = 0;
  Location loc = Overlay::Locate(ov_.pre_segs_, lpre, &hint);
  if (loc.from_delta) return ov_.kind_[loc.src];
  return static_cast<uint8_t>(base_.kind(static_cast<NodeId>(loc.src)));
}

uint32_t OverlayBuilder::LevelAt(uint64_t lpre) const {
  size_t hint = 0;
  Location loc = Overlay::Locate(ov_.pre_segs_, lpre, &hint);
  if (loc.from_delta) return ov_.level_[loc.src];
  return base_.level(static_cast<NodeId>(loc.src));
}

uint64_t OverlayBuilder::PostAt(uint64_t lpre) const {
  size_t hint = 0;
  Location loc = Overlay::Locate(ov_.pre_segs_, lpre, &hint);
  if (loc.from_delta) return ov_.lpost_[loc.src];
  return BasePostToLogicalNow(base_.post(static_cast<NodeId>(loc.src)));
}

NodeId OverlayBuilder::ParentAt(uint64_t lpre) const {
  size_t hint = 0;
  Location loc = Overlay::Locate(ov_.pre_segs_, lpre, &hint);
  if (loc.from_delta) return ov_.lparent_[loc.src];
  NodeId bp = base_.parent(static_cast<NodeId>(loc.src));
  if (bp == kNilNode) return kNilNode;
  return static_cast<NodeId>(BasePreToLogicalNow(bp));
}

TagId OverlayBuilder::InternMergedTag(std::string_view name) {
  if (auto id = ov_.LookupTag(base_.tags(), name)) return *id;
  TagId id = ov_.base_dict_size_ +
             static_cast<TagId>(ov_.extra_names_.size());
  ov_.extra_names_.emplace_back(name);
  ov_.extra_ids_.emplace(std::string(name), id);
  return id;
}

Result<std::unique_ptr<DocTable>> OverlayBuilder::ParseFragment(
    std::string_view fragment_xml) const {
  BuildOptions opts;
  opts.store_values = true;
  SJ_ASSIGN_OR_RETURN(std::unique_ptr<DocTable> frag,
                      LoadDocument(fragment_xml, opts));
  if (frag->empty() || frag->kind(0) != NodeKind::kElement) {
    return Status::InvalidArgument("edit fragment must be a single element");
  }
  return frag;
}

Status OverlayBuilder::ApplyInsert(NodeId parent, uint64_t p, uint64_t b,
                                   uint32_t root_level, const DocTable& frag) {
  const uint64_t S = frag.size();
  if (root_level + frag.height() > 255) {
    return Status::InvalidArgument(
        "edit would exceed the 255-level depth budget");
  }
  if (ov_.logical_size_ + S >= kNilNode) {
    return Status::InvalidArgument("edit would overflow the pre rank space");
  }
  const uint64_t d0 = ov_.kind_.size();

  // Later ranks move up by S; stored delta coordinates are absolute.
  for (uint64_t i = 0; i < d0; ++i) {
    if (ov_.lpost_[i] >= b) ov_.lpost_[i] += static_cast<uint32_t>(S);
    if (ov_.lparent_[i] != kNilNode && ov_.lparent_[i] >= p) {
      ov_.lparent_[i] += static_cast<NodeId>(S);
    }
  }
  InsertRun(ov_.pre_segs_, p, S, d0, /*from_delta=*/true);
  InsertRun(ov_.post_segs_, b, S, 0, /*from_delta=*/true);

  for (uint64_t j = 0; j < S; ++j) {
    NodeId fj = static_cast<NodeId>(j);
    ov_.kind_.push_back(static_cast<uint8_t>(frag.kind(fj)));
    TagId ft = frag.tag(fj);
    ov_.tag_.push_back(ft == kNoTag
                           ? kNoTag
                           : InternMergedTag(frag.tags().Name(ft)));
    ov_.level_.push_back(static_cast<uint8_t>(root_level + frag.level(fj)));
    ov_.lpost_.push_back(static_cast<uint32_t>(b + frag.post(fj)));
    NodeId fp = frag.parent(fj);
    ov_.lparent_.push_back(fp == kNilNode ? parent
                                          : static_cast<NodeId>(p + fp));
    ov_.value_.emplace_back(frag.value(fj));
  }
  ov_.logical_size_ += S;
  return Status::OK();
}

Status OverlayBuilder::ApplyDelete(uint64_t v) {
  const uint32_t l = LevelAt(v);
  const uint64_t post = PostAt(v);
  const uint64_t T = post - v + l + 1;  // Eq. (1): subtree-or-self size
  const uint64_t pmin = v - l;          // min post in subtree-or-self(v)

  std::vector<Segment> removed_pre = RemoveRun(ov_.pre_segs_, v, T);
  std::vector<Segment> removed_post = RemoveRun(ov_.post_segs_, pmin, T);
  assert(TotalCount(removed_pre) == T && TotalCount(removed_post) == T &&
         "subtree delete must cover matching pre and post ranges");
  (void)removed_post;

  std::vector<std::pair<uint64_t, uint64_t>> dropped;  // delta (src, count)
  for (const Segment& s : removed_pre) {
    if (s.from_delta) {
      dropped.emplace_back(s.src, s.count);
    } else {
      deleted_runs_.emplace_back(s.src, s.count);
      ov_.deleted_base_nodes_ += s.count;
    }
  }

  if (!dropped.empty()) {
    std::sort(dropped.begin(), dropped.end());
    for (auto it = dropped.rbegin(); it != dropped.rend(); ++it) {
      auto [s, c] = *it;
      ov_.kind_.erase(ov_.kind_.begin() + s, ov_.kind_.begin() + s + c);
      ov_.tag_.erase(ov_.tag_.begin() + s, ov_.tag_.begin() + s + c);
      ov_.level_.erase(ov_.level_.begin() + s, ov_.level_.begin() + s + c);
      ov_.lpost_.erase(ov_.lpost_.begin() + s, ov_.lpost_.begin() + s + c);
      ov_.lparent_.erase(ov_.lparent_.begin() + s,
                         ov_.lparent_.begin() + s + c);
      ov_.value_.erase(ov_.value_.begin() + s, ov_.value_.begin() + s + c);
    }
    auto removed_below = [&dropped](uint64_t x) {
      uint64_t n = 0;
      for (const auto& [s, c] : dropped) {
        if (s + c <= x) {
          n += c;
        } else {
          break;  // sorted + disjoint from survivors: nothing below x left
        }
      }
      return n;
    };
    for (Segment& s : ov_.pre_segs_) {
      if (s.from_delta) s.src -= removed_below(s.src);
    }
  }

  for (uint64_t i = 0; i < ov_.kind_.size(); ++i) {
    if (ov_.lpost_[i] >= pmin + T) ov_.lpost_[i] -= static_cast<uint32_t>(T);
    if (ov_.lparent_[i] != kNilNode && ov_.lparent_[i] >= v + T) {
      ov_.lparent_[i] -= static_cast<NodeId>(T);
    }
  }
  ov_.logical_size_ -= T;
  return Status::OK();
}

void OverlayBuilder::AttributeDeletedRuns() {
  // Each run is a piece of one deleted subtree, so only the tags its
  // elements carry lose slots, each a contiguous run of its TagView.
  std::vector<TagId> tags;
  for (const auto& [start, count] : deleted_runs_) {
    tags.clear();
    for (uint64_t b = start; b < start + count; ++b) {
      const NodeId n = static_cast<NodeId>(b);
      if (base_.kind(n) == NodeKind::kElement && base_.tag(n) != kNoTag) {
        tags.push_back(base_.tag(n));
      }
    }
    std::sort(tags.begin(), tags.end());
    tags.erase(std::unique(tags.begin(), tags.end()), tags.end());
    for (TagId t : tags) {
      const std::vector<NodeId>& pre = tag_index_->view(t).pre;
      auto lo = std::lower_bound(pre.begin(), pre.end(),
                                 static_cast<NodeId>(start));
      auto hi = std::lower_bound(lo, pre.end(),
                                 static_cast<NodeId>(start + count));
      ov_.deleted_slots_.push_back(Overlay::DeletedSlots{
          t, static_cast<uint32_t>(lo - pre.begin()),
          static_cast<uint32_t>(hi - pre.begin())});
    }
  }
  std::sort(ov_.deleted_slots_.begin(), ov_.deleted_slots_.end(),
            [](const Overlay::DeletedSlots& a, const Overlay::DeletedSlots& b) {
              return a.tag != b.tag ? a.tag < b.tag : a.lo < b.lo;
            });
}

Status OverlayBuilder::InsertLastChild(uint64_t parent,
                                       std::string_view fragment_xml) {
  if (finished_) return Status::Internal("edit after Finish()");
  if (parent >= ov_.logical_size_) {
    return Status::OutOfRange("insert parent outside the document");
  }
  if (KindAt(parent) != static_cast<uint8_t>(NodeKind::kElement)) {
    return Status::InvalidArgument("insert parent is not an element");
  }
  SJ_ASSIGN_OR_RETURN(std::unique_ptr<DocTable> frag,
                      ParseFragment(fragment_xml));
  const uint32_t ql = LevelAt(parent);
  const uint64_t qpost = PostAt(parent);
  const uint64_t T = qpost - parent + ql + 1;
  Status st = ApplyInsert(static_cast<NodeId>(parent), parent + T, qpost,
                          ql + 1, *frag);
  if (st.ok()) ++ops_applied_;
  return st;
}

Status OverlayBuilder::DeleteSubtree(uint64_t v) {
  if (finished_) return Status::Internal("edit after Finish()");
  if (v >= ov_.logical_size_) {
    return Status::OutOfRange("delete target outside the document");
  }
  if (v == 0) {
    return Status::InvalidArgument("the document root is not deletable");
  }
  Status st = ApplyDelete(v);
  if (st.ok()) ++ops_applied_;
  return st;
}

Status OverlayBuilder::ReplaceSubtree(uint64_t v,
                                      std::string_view fragment_xml) {
  if (finished_) return Status::Internal("edit after Finish()");
  if (v >= ov_.logical_size_) {
    return Status::OutOfRange("replace target outside the document");
  }
  if (v == 0) {
    return Status::InvalidArgument("the document root is not replaceable");
  }
  if (KindAt(v) == static_cast<uint8_t>(NodeKind::kAttribute)) {
    return Status::InvalidArgument(
        "cannot replace an attribute with an element fragment");
  }
  SJ_ASSIGN_OR_RETURN(std::unique_ptr<DocTable> frag,
                      ParseFragment(fragment_xml));
  const uint32_t l = LevelAt(v);
  if (l + frag->height() > 255) {
    return Status::InvalidArgument(
        "edit would exceed the 255-level depth budget");
  }
  const NodeId q = ParentAt(v);
  const uint64_t pmin = v - l;
  Status st = ApplyDelete(v);
  if (!st.ok()) return st;
  st = ApplyInsert(q, v, pmin, l, *frag);
  if (st.ok()) ++ops_applied_;
  return st;
}

Result<std::shared_ptr<const Overlay>> OverlayBuilder::Finish() {
  if (finished_) return Status::Internal("OverlayBuilder::Finish called twice");
  finished_ = true;

  // Reverse maps: the base segments of each forward map, keyed by src.
  // Base order is preserved under edits, so they are already ascending.
  auto reverse_of = [](const std::vector<Segment>& segs) {
    std::vector<Overlay::RevSeg> revs;
    for (const Segment& s : segs) {
      if (s.from_delta) continue;
      if (!revs.empty() && revs.back().src + revs.back().count == s.src &&
          revs.back().lstart + revs.back().count == s.lstart) {
        revs.back().count += s.count;
        continue;
      }
      assert((revs.empty() || revs.back().src + revs.back().count <= s.src) &&
             "edits must never reorder base nodes");
      revs.push_back(Overlay::RevSeg{s.src, s.count, s.lstart});
    }
    return revs;
  };
  ov_.base_pre_to_logical_ = reverse_of(ov_.pre_segs_);
  ov_.base_post_to_logical_ = reverse_of(ov_.post_segs_);

  if (tag_index_ != nullptr) {
    AttributeDeletedRuns();
    BuildFragmentOverlays();
  }

  return std::make_shared<const Overlay>(std::move(ov_));
}

void OverlayBuilder::BuildFragmentOverlays() {
  const uint32_t dict_size = ov_.merged_dict_size();
  ov_.frags_.assign(dict_size, FragmentOverlay{});

  // Delta element entries (TagIndex semantics: elements only) go to
  // their tag's delta_pre/delta_post in logical pre order. bkeys[t][k] is
  // the smallest surviving base pre whose logical pre follows entry k --
  // the entry sits before base slot s iff bkey <= pre[s] -- i.e. the src
  // of the next base segment in logical order (one walk over the
  // pre-space segments).
  std::vector<std::vector<NodeId>> bkeys(dict_size);
  const std::vector<Segment>& segs = ov_.pre_segs_;
  size_t next_base = 0;
  for (size_t i = 0; i < segs.size(); ++i) {
    if (!segs[i].from_delta) continue;
    if (next_base <= i) {
      next_base = i + 1;
      while (next_base < segs.size() && segs[next_base].from_delta) {
        ++next_base;
      }
    }
    const NodeId bkey = static_cast<NodeId>(
        next_base < segs.size() ? segs[next_base].src : ov_.base_size_);
    for (uint64_t k = 0; k < segs[i].count; ++k) {
      const uint64_t d = segs[i].src + k;
      if (ov_.kind_[d] != static_cast<uint8_t>(NodeKind::kElement)) continue;
      if (ov_.tag_[d] == kNoTag) continue;
      FragmentOverlay& fo = ov_.frags_[ov_.tag_[d]];
      fo.delta_pre.push_back(static_cast<uint32_t>(segs[i].lstart + k));
      fo.delta_post.push_back(ov_.lpost_[d]);
      bkeys[ov_.tag_[d]].push_back(bkey);
    }
  }

  const std::vector<Overlay::RevSeg>& revs = ov_.base_pre_to_logical_;
  auto deleted = ov_.deleted_slots_.begin();
  for (TagId t = 0; t < dict_size; ++t) {
    FragmentOverlay& fo = ov_.frags_[t];
    const TagView& view = t < ov_.base_dict_size_
                              ? tag_index_->view(t)
                              : tag_index_->view(kNoTag);  // empty view
    const uint32_t n = static_cast<uint32_t>(view.size());
    const std::vector<NodeId>& bkey = bkeys[t];
    const auto d_begin = deleted;
    uint32_t gone = 0;
    for (; deleted != ov_.deleted_slots_.end() && deleted->tag == t;
         ++deleted) {
      gone += deleted->hi - deleted->lo;
    }
    fo.merged_count = n - gone + bkey.size();

    if (bkey.empty() && d_begin == deleted) {
      // Untouched: the base fragment as it stands.
      if (n > 0) {
        fo.slots.push_back(SlotSegment{
            0, n, 0, static_cast<uint32_t>(ov_.BasePreToLogical(view.pre[0])),
            false});
      }
      continue;
    }

    uint32_t merged_slot = 0;
    uint32_t di = 0;   // next delta entry
    size_t rev = 0;    // merge-walk position in the reverse map
    auto emit_base = [&](uint32_t from, uint32_t to) {
      const NodeId bpre = view.pre[from];
      rev = GallopFrom(revs, rev, [bpre](const Overlay::RevSeg& r) {
        return r.src + r.count <= bpre;
      });
      assert(rev < revs.size() && revs[rev].src <= bpre &&
             "surviving base slot missing from the reverse map");
      fo.slots.push_back(SlotSegment{
          merged_slot, to - from, from,
          static_cast<uint32_t>(revs[rev].lstart + (bpre - revs[rev].src)),
          false});
      merged_slot += to - from;
    };
    // Emits the entries that precede base pre `limit` (all: kNilNode).
    auto emit_delta_before = [&](NodeId limit) {
      const uint32_t start = di;
      while (di < bkey.size() && bkey[di] <= limit) ++di;
      if (di == start) return;
      fo.slots.push_back(SlotSegment{merged_slot, di - start, start,
                                     fo.delta_pre[start], true});
      merged_slot += di - start;
    };
    // Surviving base slot runs: the gaps between deleted slot runs, each
    // cut wherever delta entries fall between its slots.
    uint32_t run_begin = 0;
    auto emit_run = [&](uint32_t run_end) {
      uint32_t s = run_begin;
      while (s < run_end) {
        emit_delta_before(view.pre[s]);
        const uint32_t cut =
            di == bkey.size()
                ? run_end
                : static_cast<uint32_t>(
                      std::lower_bound(view.pre.begin() + s,
                                       view.pre.begin() + run_end, bkey[di]) -
                      view.pre.begin());
        emit_base(s, cut);
        s = cut;
      }
    };
    for (auto d = d_begin; d != deleted; ++d) {
      emit_run(d->lo);
      run_begin = d->hi;
    }
    emit_run(n);
    emit_delta_before(kNilNode);
    assert(merged_slot == fo.merged_count && "fragment slot count drifted");
  }

  ov_.has_fragments_ = true;
}

// --- compaction / naive-path fold ------------------------------------------

Result<std::unique_ptr<DocTable>> MaterializeMerged(
    const DocTable& base, const Overlay& overlay,
    const BuildOptions& options) {
  BuildOptions opts = options;
  opts.expected_nodes = overlay.logical_size();
  DocTableBuilder builder(opts);
  Status st = builder.StartDocument();
  if (!st.ok()) return st;

  struct Open {
    uint64_t end;  // logical pre one past the subtree
    const std::string* name;
  };
  std::vector<Open> stack;
  size_t hint = 0;
  const uint64_t total = overlay.logical_size();
  for (uint64_t i = 0; i < total; ++i) {
    Location loc = overlay.LocatePre(i, &hint);
    uint8_t kind;
    TagId tag;
    uint32_t level;
    uint64_t post;
    std::string_view value;
    if (loc.from_delta) {
      kind = overlay.DeltaKind(loc.src);
      tag = overlay.DeltaTag(loc.src);
      level = overlay.DeltaLevel(loc.src);
      post = overlay.DeltaPost(loc.src);
      value = overlay.DeltaValue(loc.src);
    } else {
      NodeId b = static_cast<NodeId>(loc.src);
      kind = static_cast<uint8_t>(base.kind(b));
      tag = base.tag(b);
      level = base.level(b);
      post = overlay.BasePostToLogical(base.post(b));
      value = base.value(b);
    }
    while (!stack.empty() && stack.back().end == i) {
      st = builder.EndElement(*stack.back().name);
      if (!st.ok()) return st;
      stack.pop_back();
    }
    switch (static_cast<NodeKind>(kind)) {
      case NodeKind::kElement: {
        const std::string& name = overlay.TagName(base.tags(), tag);
        st = builder.StartElement(name);
        if (!st.ok()) return st;
        stack.push_back(Open{i + (post - i + level + 1), &name});
        break;
      }
      case NodeKind::kAttribute:
        st = builder.Attribute(overlay.TagName(base.tags(), tag), value);
        if (!st.ok()) return st;
        break;
      case NodeKind::kText:
        st = builder.Text(value);
        if (!st.ok()) return st;
        break;
      case NodeKind::kComment:
        st = builder.Comment(value);
        if (!st.ok()) return st;
        break;
      case NodeKind::kProcessingInstruction:
        st = builder.ProcessingInstruction(overlay.TagName(base.tags(), tag),
                                           value);
        if (!st.ok()) return st;
        break;
    }
  }
  while (!stack.empty()) {
    st = builder.EndElement(*stack.back().name);
    if (!st.ok()) return st;
    stack.pop_back();
  }
  st = builder.EndDocument();
  if (!st.ok()) return st;
  return builder.Finish();
}

}  // namespace sj::delta
