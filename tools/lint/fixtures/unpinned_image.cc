// sj-lint fixture: MUST fail rule unpinned-image when linted as a file
// under src/, examples/, bench/ or tests/ (see sj_lint_test.py).
// Database::disk(), compressed_doc() and compressed_tags() borrow from
// whichever snapshot is current at the call: the Compact below frees
// the images `disk` and `pages` point into.

#include <cstdio>

#include "api/database.h"

namespace sj {

void RogueReport(Database* db) {
  storage::SimulatedDisk* disk = db->disk();  // violation
  const size_t pages = db->compressed_doc()->page_count() +  // violation
                       db->compressed_tags()->page_count();  // violation
  (void)db->Compact();
  std::printf("%zu of %zu pages\n", pages, disk->page_count());

  // The pinned form is fine: the held snapshot keeps its images alive.
  auto snap = db->CurrentSnapshot();
  std::printf("%zu pages\n", snap->images().disk->page_count());
}

}  // namespace sj
