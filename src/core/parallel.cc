#include "core/parallel.h"

#include <algorithm>

#include "core/doc_accessor.h"
#include "core/staircase_impl.h"

namespace sj {

namespace internal {

ChunkQueue::ChunkQueue(size_t total, size_t chunks)
    : total_(total),
      per_((total + (chunks > 0 ? chunks : 1) - 1) /
           (chunks > 0 ? chunks : 1)),
      chunk_count_(per_ > 0 ? (total + per_ - 1) / per_ : 0) {}

bool ChunkQueue::Next(size_t* index, size_t* lo, size_t* hi) {
  MutexLock lock(mu_);
  if (next_ >= chunk_count_) return false;
  *index = next_++;
  *lo = *index * per_;
  *hi = std::min(total_, *lo + per_);
  return true;
}

}  // namespace internal

Result<NodeSequence> ParallelStaircaseJoin(const DocTable& doc,
                                           const NodeSequence& context,
                                           Axis axis,
                                           const StaircaseOptions& options,
                                           unsigned num_threads,
                                           JoinStats* stats) {
  return internal::ParallelStaircaseJoinOver(
      [&doc] { return MemoryDocAccessor(doc); }, context, axis, options,
      num_threads, stats);
}

}  // namespace sj
