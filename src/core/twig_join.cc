#include "core/twig_join.h"

#include "core/doc_accessor.h"
#include "core/fragment_cursor.h"
#include "core/twig_impl.h"

namespace sj {

// A shim over the backend-generic twig join (core/twig_impl.h)
// instantiated with the in-memory cursors.
Result<NodeSequence> TwigJoin(const DocTable& doc, const TagIndex& tags,
                              const NodeSequence& context,
                              const std::vector<TwigLevel>& levels,
                              const StaircaseOptions& options,
                              JoinStats* stats,
                              std::vector<TwigLevelStats>* level_stats) {
  return internal::TwigJoinWithOwnedCursors(
      [&tags](TagId tag) { return MemoryFragmentCursor(tags.view(tag)); },
      [&doc] { return MemoryDocAccessor(doc); }, context, levels, options,
      stats, level_stats);
}

}  // namespace sj
