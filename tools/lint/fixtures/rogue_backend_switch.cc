// sj-lint fixture: MUST fail rule backend-dispatch when linted as a
// file under src/ other than src/xpath/backend_dispatch.h (see
// sj_lint_test.py). Re-creating per-backend branches outside the
// dispatch class dodges its -Wswitch exhaustiveness net: the next
// backend added to the enum silently falls through here.

#include "api/session.h"

namespace sj {

const char* RogueLabel(const SessionOptions& options) {
  if (options.backend == StorageBackend::kPaged) {  // violation: comparison
    return "paged";
  }
  switch (options.backend) {  // violation: switch outside the dispatch
    case StorageBackend::kCompressed:
      return "compressed";
    default:
      return "memory";
  }
}

}  // namespace sj
