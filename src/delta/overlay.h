// The resident delta store (the "updatable documents" write path).
//
// The paper's pre/post encoding buys its query speed by freezing the
// document: inserting one node renumbers every following pre rank. The
// delta subsystem absorbs edits WITHOUT touching the immutable column
// images. An `Overlay` describes the edited ("merged") document as a
// sorted list of *segments* over the logical pre and post rank spaces:
// each segment maps a contiguous run of logical ranks either to a run of
// base ranks (read from the unmodified images, still charging the
// BufferPool) or to a run of resident delta nodes (inserted subtrees).
//
// The logical rank space is DENSE: logical pre ranks 0..L-1 are exactly
// the pre ranks a from-scratch rebuild of the edited document would
// assign. That makes "node-identical to a rebuilt Database" a literal
// NodeSequence equality, keeps Eq. (1) of the paper
// (size(v) = post(v) - pre(v) + level(v)) valid in logical coordinates,
// and lets every kernel in core/ (staircase, axis, fragment, twig) run
// unmodified over a merging accessor -- the "gap" of the gapped-rank
// scheme lives in the *base* rank space, where deleted runs leave holes
// and inserted runs are spliced in between base segments.
//
// A commit never rewrites the base columns. Applying its ops costs
// O(#segments + resident delta nodes) each; a delete also scans the tag
// column of the base subtree it removes, to flag the tags that lost base
// fragment slots. `Finish()` re-derives the reverse maps, O(#segments),
// and the fragment overlay of each changed tag -- one with a resident
// delta entry or a base slot lost since the last compaction -- in one
// walk over the pre-space segments: a base run contributes the tag's
// TagView slots inside it (two binary searches), a delta run the tag's
// entries inside it. Every other tag becomes one base slot segment, one
// reverse-map probe. `Database::Compact()` folds an overlay back into
// fresh images via MaterializeMerged() and resets the delta.
//
// Overlay instances are immutable after OverlayBuilder::Finish() and are
// shared across threads without locking (snapshot isolation: readers pin
// the Overlay alive via shared_ptr).

#ifndef STAIRJOIN_DELTA_OVERLAY_H_
#define STAIRJOIN_DELTA_OVERLAY_H_

#include <cassert>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/tag_view.h"
#include "encoding/builder.h"
#include "encoding/doc_table.h"
#include "util/result.h"
#include "util/status.h"

namespace sj::delta {

/// One contiguous run of logical ranks (pre or post space) mapped to one
/// source. `src` is a base rank for base segments and an index into the
/// overlay's delta-node arrays for delta segments (unused in post space,
/// where delta nodes are located through their pre-space segment).
struct Segment {
  uint64_t lstart = 0;      ///< first logical rank covered
  uint64_t count = 0;       ///< number of ranks covered
  uint64_t src = 0;         ///< base rank / delta-array index of lstart
  bool from_delta = false;  ///< resident delta nodes vs column images
};

/// Where a logical rank resolves to: a base rank (read through the
/// backend accessor) or a delta-array index (resident).
struct Location {
  bool from_delta = false;
  uint64_t src = 0;
};

/// One run of merged fragment slots for a tag (see FragmentOverlay).
struct SlotSegment {
  uint32_t lslot = 0;       ///< first merged slot covered
  uint32_t count = 0;       ///< number of slots covered
  uint32_t src = 0;         ///< base slot / delta-entry index of lslot
  uint32_t first_lpre = 0;  ///< logical pre of the first node (resident key)
  bool from_delta = false;
};

/// The per-tag fragment (pre/post pairs of elements with one tag) of the
/// merged document, as slot segments over the base TagView plus resident
/// delta entries. Lets the pushdown and twig kernels run their k-way
/// merges over edited documents with base slots still paged in through
/// the BufferPool.
struct FragmentOverlay {
  uint64_t merged_count = 0;
  std::vector<SlotSegment> slots;
  std::vector<uint32_t> delta_pre;   ///< logical pres, sorted ascending
  std::vector<uint32_t> delta_post;  ///< parallel logical posts
};

/// \brief Immutable description of an edited document as segments over
/// the base column images plus resident delta nodes.
///
/// Built by OverlayBuilder, published inside an epoch-stamped snapshot,
/// and read concurrently without locks. All `Delta*` accessors index the
/// resident delta-node arrays; the `Base*ToLogical` maps translate base
/// ranks of *surviving* nodes into logical ranks.
class Overlay {
 public:
  Overlay() = default;

  /// Total node count of the merged document (dense logical pre ranks
  /// 0..logical_size()-1).
  uint64_t logical_size() const { return logical_size_; }

  /// Number of base nodes the overlay was built over.
  uint64_t base_size() const { return base_size_; }

  /// Number of resident delta nodes.
  uint64_t delta_size() const { return kind_.size(); }

  /// True when the overlay changes nothing (no inserts, no deletes).
  bool empty() const { return kind_.empty() && deleted_base_nodes_ == 0; }

  // --- logical-rank resolution -------------------------------------------

  /// Resolves a logical pre rank. `hint` caches the last segment index
  /// for the common sequential-scan pattern; pass a per-caller slot.
  Location LocatePre(uint64_t lpre, size_t* hint) const {
    return Locate(pre_segs_, lpre, hint);
  }

  /// Logical pre rank of base node `bpre`; nullopt when it was deleted.
  std::optional<uint64_t> TryBasePreToLogical(uint64_t bpre) const {
    return MapBase(base_pre_to_logical_, bpre);
  }

  /// Logical pre rank of a surviving base node (pre rank `bpre`).
  uint64_t BasePreToLogical(uint64_t bpre) const {
    std::optional<uint64_t> l = TryBasePreToLogical(bpre);
    assert(l.has_value() && "base pre rank was deleted");
    return *l;
  }

  /// Logical post rank of a surviving base node's post rank.
  uint64_t BasePostToLogical(uint64_t bpost) const {
    std::optional<uint64_t> l = MapBase(base_post_to_logical_, bpost);
    assert(l.has_value() && "base post rank was deleted");
    return *l;
  }

  /// Smallest surviving base pre rank whose logical pre is >= `lpre`
  /// (base_size() when no base node follows). This is how a fragment
  /// cursor translates a logical LowerBound target into a base-space
  /// LowerBound the paged fence keys understand.
  uint64_t LowerBoundBasePre(uint64_t lpre) const;

  // --- resident delta-node columns (index = Location::src) ---------------

  uint8_t DeltaKind(uint64_t i) const { return kind_[i]; }
  TagId DeltaTag(uint64_t i) const { return tag_[i]; }
  uint8_t DeltaLevel(uint64_t i) const { return level_[i]; }
  uint32_t DeltaPost(uint64_t i) const { return lpost_[i]; }
  NodeId DeltaParent(uint64_t i) const { return lparent_[i]; }
  const std::string& DeltaValue(uint64_t i) const { return value_[i]; }

  // --- merged tag dictionary ---------------------------------------------
  // Base TagIds keep their values; names first seen in an inserted
  // fragment get ids base_dict_size() + k. The base dictionary itself is
  // never touched (it lives in the immutable images), so lookups take it
  // as a parameter.

  uint32_t base_dict_size() const { return base_dict_size_; }
  uint32_t merged_dict_size() const {
    return base_dict_size_ + static_cast<uint32_t>(extra_names_.size());
  }
  std::optional<TagId> LookupTag(const TagDictionary& base,
                                 std::string_view name) const;
  /// Name of a merged-space TagId (base or overlay-interned).
  const std::string& TagName(const TagDictionary& base, TagId tag) const;

  // --- per-tag fragments --------------------------------------------------

  const FragmentOverlay& fragment(TagId tag) const {
    if (tag == kNoTag || tag >= frags_.size()) return empty_frag_;
    return frags_[tag];
  }
  /// Element count for `tag` in the merged document (pushdown cost model).
  uint64_t tag_count(TagId tag) const { return fragment(tag).merged_count; }

 private:
  friend class OverlayBuilder;

  /// Reverse map entry: base ranks [src, src+count) -> logical
  /// [lstart, lstart+count). Sorted by src (edits never reorder base
  /// nodes, so base order == logical order restricted to base nodes).
  struct RevSeg {
    uint64_t src = 0;
    uint64_t count = 0;
    uint64_t lstart = 0;
  };

  static Location Locate(const std::vector<Segment>& segs, uint64_t lrank,
                         size_t* hint);
  /// The one reverse-map search: logical rank of `brank`, nullopt when
  /// that base node was deleted.
  static std::optional<uint64_t> MapBase(const std::vector<RevSeg>& revs,
                                         uint64_t brank);

  uint64_t base_size_ = 0;
  uint64_t logical_size_ = 0;
  uint64_t deleted_base_nodes_ = 0;

  // Forward maps: logical rank space -> source, sorted by lstart,
  // covering [0, logical_size_) exactly.
  std::vector<Segment> pre_segs_;
  std::vector<Segment> post_segs_;

  // Reverse maps (derived at Finish): base rank -> logical rank for
  // surviving nodes.
  std::vector<RevSeg> base_pre_to_logical_;
  std::vector<RevSeg> base_post_to_logical_;

  // Per base tag: some of its base fragment slots were deleted since the
  // last compaction (set by each delete's scan of the removed base run,
  // carried across commits). With the delta entries this is what marks a
  // tag's fragment overlay for rebuilding at Finish.
  std::vector<bool> lost_slots_;

  // Delta-node columns. Append-ordered by commit, NOT by logical pre;
  // every pre-space delta segment covers a contiguous index run. All
  // coordinates are absolute logical ranks, updated as later edits shift
  // the rank space.
  std::vector<uint8_t> kind_;
  std::vector<TagId> tag_;       ///< merged-dictionary space
  std::vector<uint8_t> level_;   ///< absolute depth in the merged tree
  std::vector<uint32_t> lpost_;  ///< logical post rank
  std::vector<NodeId> lparent_;  ///< logical pre of parent (kNilNode: root)
  std::vector<std::string> value_;

  // Overlay-interned tag names (ids base_dict_size_ + k).
  uint32_t base_dict_size_ = 0;
  std::vector<std::string> extra_names_;
  std::unordered_map<std::string, TagId> extra_ids_;

  std::vector<FragmentOverlay> frags_;
  FragmentOverlay empty_frag_;
};

/// \brief Applies an edit script against a base document + prior overlay
/// and finalizes a new immutable Overlay.
///
/// Coordinates in the edit API are LOGICAL pre ranks of the working
/// state: ops compose, each seeing the document as left by the previous
/// one (exactly the semantics of editing the serialized XML). The
/// builder touches only resident state -- the base DocTable and TagIndex
/// it reads are the memory-resident images, never the pool-backed ones.
class OverlayBuilder {
 public:
  /// `start` may be null (edit a pristine document). `tag_index` is the
  /// resident fragment index of `base`.
  OverlayBuilder(const DocTable& base, const TagIndex& tag_index,
                 std::shared_ptr<const Overlay> start);

  /// Parses `fragment_xml` (one element) and appends it as the last
  /// child of `parent` (after existing attributes and children).
  Status InsertLastChild(uint64_t parent, std::string_view fragment_xml);

  /// Removes the subtree rooted at `v` (attributes included). The
  /// document root (logical 0) is not deletable.
  Status DeleteSubtree(uint64_t v);

  /// Replaces the subtree rooted at `v` with a parsed fragment, keeping
  /// its position among siblings. `v` must not be an attribute (an
  /// element fragment cannot sit inside a parent's attribute run).
  Status ReplaceSubtree(uint64_t v, std::string_view fragment_xml);

  /// Node count of the working merged document.
  uint64_t logical_size() const { return ov_.logical_size_; }

  /// Number of edit ops successfully applied.
  uint64_t ops_applied() const { return ops_applied_; }

  /// Derives reverse maps and fragment overlays; returns the immutable
  /// overlay. The builder is spent afterwards.
  Result<std::shared_ptr<const Overlay>> Finish();

 private:
  // Working-state reads (logical coordinates). The reverse maps are
  // stale during building, so base->logical translation scans the
  // forward maps (O(#segments), build-time only).
  uint8_t KindAt(uint64_t lpre) const;
  uint32_t LevelAt(uint64_t lpre) const;
  uint64_t PostAt(uint64_t lpre) const;
  NodeId ParentAt(uint64_t lpre) const;
  uint64_t BasePreToLogicalNow(uint64_t bpre) const;
  uint64_t BasePostToLogicalNow(uint64_t bpost) const;

  TagId InternMergedTag(std::string_view name);
  Result<std::unique_ptr<DocTable>> ParseFragment(
      std::string_view fragment_xml) const;

  /// Splices `frag` in as a new subtree: pre ranks [p, p+S), post ranks
  /// [b, b+S), subtree root at depth `root_level`, parented at `parent`
  /// (logical pre, or kNilNode for a document-level subtree).
  Status ApplyInsert(NodeId parent, uint64_t p, uint64_t b,
                     uint32_t root_level, const DocTable& frag);
  Status ApplyDelete(uint64_t v);
  void BuildFragmentOverlays();

  const DocTable& base_;
  const TagIndex& tag_index_;
  Overlay ov_;
  uint64_t ops_applied_ = 0;
  bool finished_ = false;
};

/// \brief Rebuilds the merged document as a fresh DocTable whose pre
/// ranks equal the overlay's logical ranks. Called by Database::Compact
/// (the compaction fold) and DatabaseSnapshot::MergedDoc() (a lazily
/// built merged view of one edited snapshot); the evaluator never
/// materializes, it reads the overlay through the delta cursors.
///
/// Reads base columns from the resident `base` image and synthesizes the
/// builder event stream (attributes before content, in logical pre
/// order) through encoding/builder -- the one blessed column-image
/// writer outside this subsystem.
Result<std::unique_ptr<DocTable>> MaterializeMerged(const DocTable& base,
                                                    const Overlay& overlay,
                                                    const BuildOptions& options);

}  // namespace sj::delta

#endif  // STAIRJOIN_DELTA_OVERLAY_H_
