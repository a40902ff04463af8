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

std::optional<uint64_t> Overlay::MapBase(const std::vector<RevSeg>& revs,
                                         uint64_t brank) {
  auto it = std::upper_bound(
      revs.begin(), revs.end(), brank,
      [](uint64_t v, const RevSeg& s) { return v < s.src; });
  if (it == revs.begin()) return std::nullopt;
  const RevSeg& s = *(it - 1);
  if (brank >= s.src + s.count) return std::nullopt;
  return s.lstart + (brank - s.src);
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

OverlayBuilder::OverlayBuilder(const DocTable& base, const TagIndex& tag_index,
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
    ov_.lost_slots_ = start->lost_slots_;
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
    ov_.lost_slots_.assign(ov_.base_dict_size_, false);
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
      // The run's elements lose their base fragment slots.
      for (uint64_t b = s.src; b < s.src + s.count; ++b) {
        const NodeId n = static_cast<NodeId>(b);
        if (base_.kind(n) == NodeKind::kElement && base_.tag(n) != kNoTag) {
          ov_.lost_slots_[base_.tag(n)] = true;
        }
      }
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

  BuildFragmentOverlays();
  return std::make_shared<const Overlay>(std::move(ov_));
}

void OverlayBuilder::BuildFragmentOverlays() {
  const uint32_t dict_size = ov_.merged_dict_size();
  ov_.frags_.assign(dict_size, FragmentOverlay{});
  // Delta element entries (TagIndex semantics: elements only).
  auto entry_tag = [this](uint64_t d) {
    return ov_.kind_[d] == static_cast<uint8_t>(NodeKind::kElement)
               ? ov_.tag_[d]
               : kNoTag;
  };

  // A tag's merged fragment differs from its base fragment iff it has a
  // delta entry or lost a base slot; every other tag stays its base
  // fragment, one slot segment.
  std::vector<bool> changed(ov_.lost_slots_);
  changed.resize(dict_size, false);
  for (uint64_t d = 0; d < ov_.kind_.size(); ++d) {
    if (entry_tag(d) != kNoTag) changed[entry_tag(d)] = true;
  }
  std::vector<TagId> walked;  // changed tags with base slots
  for (TagId t = 0; t < ov_.base_dict_size_; ++t) {
    const TagView& view = tag_index_.view(t);
    if (view.size() == 0) continue;
    if (changed[t]) {
      walked.push_back(t);
      continue;
    }
    const uint32_t n = static_cast<uint32_t>(view.size());
    const auto lpre = static_cast<uint32_t>(ov_.BasePreToLogical(view.pre[0]));
    ov_.frags_[t].merged_count = n;
    ov_.frags_[t].slots.push_back(SlotSegment{0, n, 0, lpre, false});
  }

  // Appends `count` merged slots read from `src` on; a run that continues
  // the previous one's source joins it.
  auto append = [](FragmentOverlay& fo, bool from_delta, uint32_t src,
                   uint32_t count, uint32_t first_lpre) {
    const uint32_t lslot = static_cast<uint32_t>(fo.merged_count);
    fo.merged_count += count;
    if (!fo.slots.empty() && fo.slots.back().from_delta == from_delta &&
        fo.slots.back().src + fo.slots.back().count == src) {
      fo.slots.back().count += count;
      return;
    }
    fo.slots.push_back(SlotSegment{lslot, count, src, first_lpre, from_delta});
  };

  // The changed tags' fragments are their projections of the pre-space
  // segment map, in logical pre order. Base runs ascend in base pre, so
  // each tag's next slot only moves forward.
  std::vector<uint32_t> next_slot(walked.size(), 0);
  for (const Segment& seg : ov_.pre_segs_) {
    if (seg.from_delta) {
      for (uint64_t k = 0; k < seg.count; ++k) {
        const TagId t = entry_tag(seg.src + k);
        if (t == kNoTag) continue;
        FragmentOverlay& fo = ov_.frags_[t];
        const auto lpre = static_cast<uint32_t>(seg.lstart + k);
        append(fo, true, static_cast<uint32_t>(fo.delta_pre.size()), 1, lpre);
        fo.delta_pre.push_back(lpre);
        fo.delta_post.push_back(ov_.lpost_[seg.src + k]);
      }
      continue;
    }
    for (size_t i = 0; i < walked.size(); ++i) {
      const std::vector<NodeId>& pre = tag_index_.view(walked[i]).pre;
      auto lo = std::lower_bound(pre.begin() + next_slot[i], pre.end(),
                                 static_cast<NodeId>(seg.src));
      auto hi = std::lower_bound(lo, pre.end(),
                                 static_cast<NodeId>(seg.src + seg.count));
      next_slot[i] = static_cast<uint32_t>(hi - pre.begin());
      if (lo == hi) continue;
      const auto lpre = static_cast<uint32_t>(seg.lstart + (*lo - seg.src));
      append(ov_.frags_[walked[i]], false,
             static_cast<uint32_t>(lo - pre.begin()),
             static_cast<uint32_t>(hi - lo), lpre);
    }
  }
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
