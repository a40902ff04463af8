// sj-lint fixture: MUST fail rule backend-dispatch when linted as a
// file under src/ outside src/storage/, src/delta/ and
// src/xpath/backend_dispatch.h (see sj_lint_test.py). A function that
// only builds a backend's cursor and calls a generic kernel is the
// per-backend shim family the dispatch's two construction sites
// retired; every new backend would need another copy of it.

#include "core/staircase_impl.h"
#include "delta/delta_accessor.h"
#include "storage/paged_accessor.h"

namespace sj::storage {

Result<NodeSequence> RoguePagedJoin(const PagedDocTable& doc, BufferPool* pool,
                                    const NodeSequence& context, Axis axis) {
  PagedDocAccessor acc(doc, pool);  // violation: paged cursor construction
  return internal::StaircaseJoinOver(acc, context, axis, {}, nullptr);
}

Result<NodeSequence> RogueOverlayJoin(const delta::Overlay& overlay,
                                      const PagedDocTable& doc,
                                      BufferPool* pool,
                                      const NodeSequence& context, Axis axis) {
  delta::DeltaDocAccessor<PagedDocAccessor> acc(  // violation: delta cursor
      overlay, doc, pool);
  return internal::StaircaseJoinOver(acc, context, axis, {}, nullptr);
}

}  // namespace sj::storage
