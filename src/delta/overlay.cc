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
    ov_ = *start;
    // Derived read-side state is rebuilt at Finish().
    ov_.base_pre_to_logical_.clear();
    ov_.base_post_to_logical_.clear();
    ov_.frags_.clear();
    ov_.has_fragments_ = false;
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
      ov_.deleted_base_pre_.emplace_back(s.src, s.count);
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

  // Merge the deleted-base intervals (disjoint by construction: a base
  // node deletes at most once).
  std::sort(ov_.deleted_base_pre_.begin(), ov_.deleted_base_pre_.end());
  std::vector<std::pair<uint64_t, uint64_t>> merged;
  for (const auto& [s, c] : ov_.deleted_base_pre_) {
    if (!merged.empty() && merged.back().first + merged.back().second == s) {
      merged.back().second += c;
    } else {
      merged.emplace_back(s, c);
    }
  }
  ov_.deleted_base_pre_ = std::move(merged);

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
    Status st = BuildFragmentOverlays();
    if (!st.ok()) return st;
  }

  return std::make_shared<const Overlay>(std::move(ov_));
}

Status OverlayBuilder::BuildFragmentOverlays() {
  // Logical pre of every delta node, from the pre-space segments.
  std::vector<uint32_t> dlpre(ov_.kind_.size(), 0);
  for (const Segment& s : ov_.pre_segs_) {
    if (!s.from_delta) continue;
    for (uint64_t k = 0; k < s.count; ++k) {
      dlpre[s.src + k] = static_cast<uint32_t>(s.lstart + k);
    }
  }

  const uint32_t dict_size = ov_.merged_dict_size();
  ov_.frags_.assign(dict_size, FragmentOverlay{});

  // Per-tag delta element entries, sorted by logical pre. (TagIndex
  // semantics: elements only.)
  std::vector<std::vector<std::pair<uint32_t, uint32_t>>> per_tag(dict_size);
  for (uint64_t i = 0; i < ov_.kind_.size(); ++i) {
    if (ov_.kind_[i] != static_cast<uint8_t>(NodeKind::kElement)) continue;
    if (ov_.tag_[i] == kNoTag) continue;
    per_tag[ov_.tag_[i]].emplace_back(dlpre[i], ov_.lpost_[i]);
  }

  for (uint32_t t = 0; t < dict_size; ++t) {
    FragmentOverlay& fo = ov_.frags_[t];
    std::vector<std::pair<uint32_t, uint32_t>>& entries = per_tag[t];
    std::sort(entries.begin(), entries.end());

    const TagView& view = t < ov_.base_dict_size_
                              ? tag_index_->view(t)
                              : tag_index_->view(kNoTag);  // empty view

    // Surviving base slot runs: the tag view minus deleted pre ranges
    // (each deleted base range is contiguous, so it erases a contiguous
    // slot run -- two binary searches per interval).
    std::vector<std::pair<size_t, size_t>> runs;  // [begin, end) slots
    size_t cur = 0;
    for (const auto& [dstart, dcount] : ov_.deleted_base_pre_) {
      size_t lo = static_cast<size_t>(
          std::lower_bound(view.pre.begin(), view.pre.end(),
                           static_cast<NodeId>(dstart)) -
          view.pre.begin());
      size_t hi = static_cast<size_t>(
          std::lower_bound(view.pre.begin(), view.pre.end(),
                           static_cast<NodeId>(dstart + dcount)) -
          view.pre.begin());
      if (lo > cur) runs.emplace_back(cur, lo);
      if (hi > cur) cur = hi;
    }
    if (cur < view.size()) runs.emplace_back(cur, view.size());

    // bkey[k]: smallest surviving base pre whose logical pre follows
    // entry k -- entry k sits before base slot s iff bkey[k] <= pre[s].
    std::vector<NodeId> bkey(entries.size());
    for (size_t k = 0; k < entries.size(); ++k) {
      bkey[k] = static_cast<NodeId>(ov_.LowerBoundBasePre(entries[k].first));
    }

    fo.delta_pre.reserve(entries.size());
    fo.delta_post.reserve(entries.size());
    uint32_t merged_slot = 0;
    size_t di = 0;
    auto emit_delta_upto = [&](NodeId limit, bool bounded) {
      while (di < entries.size() && (!bounded || bkey[di] <= limit)) {
        size_t start = di;
        while (di < entries.size() && (!bounded || bkey[di] <= limit)) ++di;
        fo.slots.push_back(SlotSegment{
            merged_slot, static_cast<uint32_t>(di - start),
            static_cast<uint32_t>(start), entries[start].first, true});
        for (size_t k = start; k < di; ++k) {
          fo.delta_pre.push_back(entries[k].first);
          fo.delta_post.push_back(entries[k].second);
        }
        merged_slot += static_cast<uint32_t>(di - start);
      }
    };
    for (const auto& [rb, re] : runs) {
      size_t s = rb;
      while (s < re) {
        emit_delta_upto(view.pre[s], /*bounded=*/true);
        size_t send;
        if (di < entries.size()) {
          send = static_cast<size_t>(
              std::lower_bound(view.pre.begin() + s, view.pre.begin() + re,
                               bkey[di]) -
              view.pre.begin());
        } else {
          send = re;
        }
        if (send > s) {
          fo.slots.push_back(SlotSegment{
              merged_slot, static_cast<uint32_t>(send - s),
              static_cast<uint32_t>(s),
              static_cast<uint32_t>(ov_.BasePreToLogical(view.pre[s])),
              false});
          merged_slot += static_cast<uint32_t>(send - s);
          s = send;
        }
      }
    }
    emit_delta_upto(0, /*bounded=*/false);
    fo.merged_count = merged_slot;
  }

  ov_.has_fragments_ = true;
  return Status::OK();
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
