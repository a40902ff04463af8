// The ONE backend-selection point of the engine (internal header).
//
// Every kernel is written once over the DocAccessor / FragmentCursor
// concepts (core/*_impl.h); what differs per session is only WHICH
// cursors a step reads through. The session's image handle
// (EvalOptions::image, one BackendImage variant) names them, and this
// class turns it into cursors at exactly two construction sites:
//
//   StepBackend::MakeAccessor()  the step's DocAccessor over the image,
//                                wrapped in delta::DeltaDocAccessor when
//                                the snapshot carries a delta overlay;
//   StepBackend::MakeCursor(tag) one tag's FragmentCursor, wrapped in
//                                delta::DeltaFragmentCursor likewise.
//
// Each operation hands them straight to its generic kernel, so the
// memory, paged and compressed backends -- pristine or overlaid -- run
// the same template instantiations through the same lines. The only
// per-backend knowledge is the ImageTraits table below (cursor types,
// constructor arguments, EXPLAIN labels, page-cost unit) -- one entry
// per image type, and the two pool-backed backends share one, their
// labels and units carried by the PoolImage that MakeImage fills.
//
// This file is also the only place allowed to compare or switch on
// StorageBackend (MakeImage): sj-lint (tools/lint/sj_lint.py, rule
// backend-dispatch) fails on a comparison or switch anywhere else under
// src/, and on a storage or delta cursor constructed outside src/storage/,
// src/delta/ and this file -- so per-backend shims cannot grow back.

#ifndef STAIRJOIN_XPATH_BACKEND_DISPATCH_H_
#define STAIRJOIN_XPATH_BACKEND_DISPATCH_H_

#include <tuple>
#include <type_traits>
#include <variant>
#include <vector>

#include "core/axis_impl.h"
#include "core/fragment_impl.h"
#include "core/staircase_impl.h"
#include "core/twig_impl.h"
#include "delta/delta_accessor.h"
#include "storage/compressed_accessor.h"
#include "storage/compressed_tags.h"
#include "xpath/evaluator.h"
#include "xpath/explain_strings.h"

namespace sj::xpath {

/// Per-image cursor types and constructor arguments. The argument
/// tuples only NAME what a cursor is built from; construction happens
/// in StepBackend alone.
template <typename Image>
struct ImageTraits;

template <>
struct ImageTraits<MemoryImage> {
  using Accessor = MemoryDocAccessor;
  using Cursor = MemoryFragmentCursor;
  static const char* Label(const MemoryImage&, bool overlaid) {
    return overlaid ? explain::kLabelOverlayMemory : explain::kLabelMemory;
  }
  static BackendCosts Costs(const MemoryImage&) { return kMemoryCosts; }
  static auto AccessorArgs(const DocTable& doc, const MemoryImage&) {
    return std::forward_as_tuple(doc);
  }
  static auto CursorArgs(const MemoryImage& img, TagId tag) {
    return std::forward_as_tuple(img.tags->view(tag));
  }
};

/// Both pool-backed backends: the cursors read each column's layout
/// from the image itself.
template <>
struct ImageTraits<PoolImage> {
  using Accessor = storage::CompressedDocAccessor;
  using Cursor = storage::CompressedFragmentCursor;
  static const char* Label(const PoolImage& img, bool overlaid) {
    return overlaid ? img.overlay_label : img.label;
  }
  static BackendCosts Costs(const PoolImage& img) { return img.costs; }
  static auto AccessorArgs(const DocTable&, const PoolImage& img) {
    return std::forward_as_tuple(*img.doc, img.pool);
  }
  static auto CursorArgs(const PoolImage& img, TagId tag) {
    return std::forward_as_tuple(img.tags->fragment(tag), img.pool);
  }
};

/// \brief The cursors one step reads through: the image's backend
/// cursors, wrapped in the merging delta cursors when `kOverlay`. Both
/// factories return by value -- pool-backed cursors own non-movable
/// PageGuards, so callers rely on guaranteed copy elision.
template <typename Image, bool kOverlay>
class StepBackend {
  using Traits = ImageTraits<Image>;

 public:
  static constexpr bool kOverlaid = kOverlay;
  using Accessor =
      std::conditional_t<kOverlay,
                         delta::DeltaDocAccessor<typename Traits::Accessor>,
                         typename Traits::Accessor>;
  using Cursor = std::conditional_t<
      kOverlay, delta::DeltaFragmentCursor<typename Traits::Cursor>,
      typename Traits::Cursor>;

  StepBackend(const DocTable& doc, const Image& image,
              const delta::Overlay* overlay)
      : doc_(doc), image_(image), overlay_(overlay) {}

  /// Construction site 1: the step's DocAccessor.
  Accessor MakeAccessor() const {
    return std::apply(
        [this](const auto&... args) {
          if constexpr (kOverlay) {
            return Accessor(*overlay_, args...);
          } else {
            return Accessor(args...);
          }
        },
        Traits::AccessorArgs(doc_, image_));
  }

  /// Construction site 2: the FragmentCursor of `tag`; requires the
  /// image's fragment index.
  Cursor MakeCursor(TagId tag) const {
    return std::apply(
        [this, tag](const auto&... args) {
          if constexpr (kOverlay) {
            return Cursor(*overlay_, tag, args...);
          } else {
            return Cursor(args...);
          }
        },
        Traits::CursorArgs(image_, tag));
  }

 private:
  const DocTable& doc_;
  const Image& image_;
  const delta::Overlay* overlay_;
};

/// True when `opt`'s snapshot carries a non-empty delta overlay: every
/// join then runs over the merged document via the delta cursors (base
/// reads still charge the pool; delta reads are resident).
inline bool Overlaid(const EvalOptions& opt) {
  return opt.overlay != nullptr && !opt.overlay->empty();
}

/// Calls `fn` with the StepBackend of `opt`'s image, overlaid or not:
/// the one place the image handle and the snapshot overlay pick the
/// cursor types a step reads through.
template <typename Fn>
auto VisitStepBackend(const DocTable& doc, const EvalOptions& opt, Fn&& fn) {
  return std::visit(
      [&](const auto& img) {
        using Image = std::decay_t<decltype(img)>;
        if (Overlaid(opt)) {
          return fn(StepBackend<Image, true>(doc, img, opt.overlay));
        }
        return fn(StepBackend<Image, false>(doc, img, nullptr));
      },
      opt.image);
}

class BackendDispatch {
 public:
  /// `doc` and `opt` are borrowed. The image handle was filled from one
  /// coherent image set by sj::Database (or is the default memory image).
  BackendDispatch(const DocTable& doc, const EvalOptions& opt)
      : doc_(doc), opt_(opt) {}

  /// Facade wiring (sj::Database): the image handle of `backend` over
  /// `images` (a sj::DatabaseImages: `tag_index` plus the `paged` and
  /// `compressed` pool-backed images; a template so xpath/ does not
  /// depend on api/), or a failure when the database holds no such
  /// image. `pool()` is called once, for the pool-backed backends only
  /// (shared vs session-private is the caller's choice).
  template <typename Images, typename PoolFn>
  static Result<BackendImage> MakeImage(StorageBackend backend,
                                        const Images& images, PoolFn&& pool) {
    switch (backend) {
      case StorageBackend::kMemory:
        return BackendImage(MemoryImage{images.tag_index.get()});
      case StorageBackend::kPaged:
        if (images.paged.doc == nullptr) {
          return Status::InvalidArgument(
              "session requests the paged backend but the database was "
              "opened without a paged image (DatabaseOptions::build_paged)");
        }
        return BackendImage(PoolImage{
            images.paged.doc.get(), images.paged.tags.get(), pool(),
            explain::kLabelPaged, explain::kLabelOverlayPaged, kPagedCosts});
      case StorageBackend::kCompressed:
        if (images.compressed.doc == nullptr) {
          return Status::InvalidArgument(
              "session requests the compressed backend but the database was "
              "opened without a compressed image "
              "(DatabaseOptions::build_compressed)");
        }
        return BackendImage(PoolImage{
            images.compressed.doc.get(), images.compressed.tags.get(), pool(),
            explain::kLabelCompressed, explain::kLabelOverlayCompressed,
            kCompressedCosts});
    }
    return Status::Internal("unreachable");
  }

  /// EXPLAIN label prefix of the backend ("", "paged ", "compressed ";
  /// overlay variants when a delta overlay is active).
  const char* Label() const {
    return std::visit(
        [this](const auto& img) {
          return ImageTraits<std::decay_t<decltype(img)>>::Label(
              img, Overlaid(opt_));
        },
        opt_.image);
  }

  /// The pool the steps charge their reads to; null on the memory
  /// backend.
  storage::BufferPool* Pool() const { return ImagePool(opt_.image); }

  /// Whether steps charge their reads to a buffer pool (EXPLAIN suffix).
  bool Pooled() const { return Pool() != nullptr; }

  /// Whether the image has a fragment index. Pushdown and twig both
  /// require it. The memory image always has one (overlaid snapshots
  /// carry merged fragments too); only a pool image that FromParts
  /// adopted without its tag fragments lacks it -- a memory-resident
  /// TagIndex would silently bypass the buffer pool and charge no faults.
  bool HasFragments() const {
    return std::visit([](const auto& img) { return img.tags != nullptr; },
                      opt_.image);
  }

  /// Fragment size of `tag` (the pushdown cost model's selectivity);
  /// requires HasFragments().
  uint64_t TagCount(TagId tag) const {
    // Merged count: base survivors plus delta elements of the tag.
    if (Overlaid(opt_)) return opt_.overlay->tag_count(tag);
    return std::visit(
        [tag](const auto& img) -> uint64_t { return img.tags->tag_count(tag); },
        opt_.image);
  }

  /// The cost model's units of the active backend (cost_model.h
  /// constants; the backend choice lives here, not in the estimator).
  BackendCosts Costs() const {
    return std::visit(
        [](const auto& img) {
          return ImageTraits<std::decay_t<decltype(img)>>::Costs(img);
        },
        opt_.image);
  }

  /// Staircase join over the whole document. Pristine snapshots run the
  /// partitioned parallel driver, which itself falls back to the serial
  /// join when parallelism does not apply (one thread, small contexts,
  /// degenerate axes, undersized pools). Overlaid snapshots run the
  /// serial join: the parallel driver's chunk math is
  /// pristine-image-specific, and the delta is expected to be small
  /// until compaction folds it (EXPLAIN drops the parallel prefix).
  Result<NodeSequence> Staircase(const NodeSequence& context, Axis axis,
                                 JoinStats* stats) const {
    return VisitStepBackend(
        doc_, opt_, [&](const auto& backend) -> Result<NodeSequence> {
          if constexpr (std::decay_t<decltype(backend)>::kOverlaid) {
            auto acc = backend.MakeAccessor();
            return internal::StaircaseJoinOver(acc, context, axis,
                                               opt_.staircase, stats);
          } else {
            storage::BufferPool* pool = Pool();
            return internal::ParallelStaircaseJoinOver(
                [&backend] { return backend.MakeAccessor(); }, context, axis,
                opt_.staircase, opt_.num_threads, stats,
                pool != nullptr ? pool->capacity() : 0);
          }
        });
  }

  /// Name-test pushdown: staircase join over one tag fragment; requires
  /// HasFragments().
  Result<NodeSequence> PushdownView(TagId tag, const NodeSequence& context,
                                    Axis axis, JoinStats* stats) const {
    return VisitStepBackend(doc_, opt_, [&](const auto& backend) {
      auto frag = backend.MakeCursor(tag);
      auto acc = backend.MakeAccessor();
      return internal::FragmentStaircaseJoinOver(frag, acc, context, axis,
                                                 opt_.staircase, stats);
    });
  }

  /// Non-staircase axis step with the node test folded into the scan.
  Result<NodeSequence> AxisCursor(const NodeSequence& context, Axis axis,
                                  const AxisNodeTest& test,
                                  JoinStats* stats) const {
    return VisitStepBackend(doc_, opt_, [&](const auto& backend) {
      auto acc = backend.MakeAccessor();
      return internal::AxisStepOver(acc, context, axis, test, stats);
    });
  }

  /// Set-at-a-time positional axis step: per-context groups for rank
  /// predicates, every read charged to the backend. Serves the
  /// positional steps PositionalRankSelect does not (see
  /// Evaluator::PlanStep).
  Result<internal::PositionalGroups> PositionalAxis(
      const NodeSequence& context, Axis axis, const AxisNodeTest& test,
      JoinStats* stats) const {
    return VisitStepBackend(doc_, opt_, [&](const auto& backend) {
      auto acc = backend.MakeAccessor();
      return internal::PositionalAxisStepOver(acc, context, axis, test,
                                              stats);
    });
  }

  /// Positional rank selection over one tag fragment: each context
  /// node's `rank`-th match of the axis, read with fragment probes
  /// instead of its whole axis group; requires HasFragments() and
  /// internal::IsFragmentRankAxis(axis).
  Result<internal::PositionalGroups> PositionalRankSelect(
      TagId tag, const NodeSequence& context, Axis axis,
      internal::PositionalRank rank, JoinStats* stats) const {
    return VisitStepBackend(doc_, opt_, [&](const auto& backend) {
      auto frag = backend.MakeCursor(tag);
      auto acc = backend.MakeAccessor();
      return internal::PositionalRankSelectOver(frag, acc, context, axis,
                                                rank, stats);
    });
  }

  /// Node-test filter pass over a join result (kind/tag reads are
  /// charged to the step's backend, like every other read).
  Result<NodeSequence> Filter(const NodeSequence& nodes,
                              const AxisNodeTest& test) const {
    return VisitStepBackend(
        doc_, opt_, [&](const auto& backend) -> Result<NodeSequence> {
          auto acc = backend.MakeAccessor();
          NodeSequence out = internal::FilterSequenceOver(acc, nodes, test);
          if (!acc.ok()) return acc.status();
          return out;
        });
  }

  /// Holistic twig join over the backend's fragment cursors; requires
  /// HasFragments().
  Result<NodeSequence> Twig(const NodeSequence& context,
                            const std::vector<TwigLevel>& levels,
                            JoinStats* stats,
                            std::vector<TwigLevelStats>* level_stats) const {
    return VisitStepBackend(doc_, opt_, [&](const auto& backend) {
      return internal::TwigJoinWithOwnedCursors(
          [&backend](TagId tag) { return backend.MakeCursor(tag); },
          [&backend] { return backend.MakeAccessor(); }, context, levels,
          opt_.staircase, stats, level_stats);
    });
  }

 private:
  const DocTable& doc_;
  const EvalOptions& opt_;
};

}  // namespace sj::xpath

#endif  // STAIRJOIN_XPATH_BACKEND_DISPATCH_H_
