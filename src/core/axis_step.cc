#include "core/axis_step.h"

#include "core/axis_impl.h"

namespace sj {

Result<NodeSequence> AxisCursorStep(const DocTable& doc,
                                    const NodeSequence& context, Axis axis,
                                    const AxisNodeTest& test,
                                    JoinStats* stats) {
  MemoryDocAccessor acc(doc);
  return internal::AxisStepOver(acc, context, axis, test, stats);
}

}  // namespace sj
