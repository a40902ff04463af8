// sj-lint fixture: MUST fail rule backend-dispatch when linted as a
// file under src/ outside src/storage/, src/delta/ and
// src/xpath/backend_dispatch.h (see sj_lint_test.py). A function that
// only builds a backend's cursor and calls a generic kernel is the
// per-backend shim family the dispatch's two construction sites
// retired; every new backend would need another copy of it.

#include "core/fragment_impl.h"
#include "core/staircase_impl.h"
#include "delta/delta_accessor.h"
#include "storage/compressed_tags.h"

namespace sj::storage {

Result<NodeSequence> RoguePooledJoin(const CompressedDocTable& doc,
                                     BufferPool* pool,
                                     const NodeSequence& context, Axis axis) {
  CompressedDocAccessor acc(doc, pool);  // violation: pooled cursor
  return internal::StaircaseJoinOver(acc, context, axis, {}, nullptr);
}

Result<NodeSequence> RogueFragmentJoin(const CompressedTagIndex& tags,
                                       TagId tag, const CompressedDocTable& doc,
                                       BufferPool* pool,
                                       const NodeSequence& context, Axis axis) {
  CompressedFragmentCursor frag(tags.fragment(tag), pool);  // violation
  CompressedDocAccessor acc(doc, pool);                     // violation
  return internal::FragmentStaircaseJoinOver(frag, acc, context, axis, {},
                                             nullptr);
}

Result<NodeSequence> RogueOverlayJoin(const delta::Overlay& overlay,
                                      const CompressedDocTable& doc,
                                      BufferPool* pool,
                                      const NodeSequence& context, Axis axis) {
  delta::DeltaDocAccessor<CompressedDocAccessor> acc(  // violation: delta
      overlay, doc, pool);
  return internal::StaircaseJoinOver(acc, context, axis, {}, nullptr);
}

}  // namespace sj::storage
