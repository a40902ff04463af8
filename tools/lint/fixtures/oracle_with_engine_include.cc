// Seeded violation for sj-lint rule oracle-independence: the path
// oracle reaching into the engine it is supposed to check. Linted via
// --treat-as tests/path_oracle.cc by sj_lint_test.py; the same file
// treated as an ordinary test must pass.

// Allowed: the AST, the parser, the encoded table and the test helpers.
#include "encoding/doc_table.h"
#include "test_util.h"
#include "xpath/ast.h"
#include "xpath/parser.h"

// Forbidden: a reference that borrows the evaluator's predicate code or
// the naive baseline's axis steps cannot catch their bugs.
#include "xpath/evaluator.h"
#include <baselines/naive.h>
#include "src/core/axis_step.h"
#include "api/database.h"
