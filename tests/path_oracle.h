// An independent reference evaluator for the XPath location-path
// fragment, used as the oracle of the evaluator's equivalence tests.
//
// Every axis step is the pre/post region query of paper Fig. 2, answered
// by RegionOracle (test_util.h) one context node at a time; the node
// test, the predicate chain ([k] and [last()] ranked in axis order,
// relative, absolute and nested existence predicates) and the
// document-order union merge are applied to each context node's group
// directly. The oracle shares no code with the evaluator, the kernels or
// the baselines: it reads a resident DocTable (for an edited snapshot,
// DatabaseSnapshot::MergedDoc()) through its accessors and nothing else,
// so a bug in the evaluator's predicate or ranking code cannot hide in
// its own reference. Quadratic by design -- keep the documents small.

#ifndef STAIRJOIN_TESTS_PATH_ORACLE_H_
#define STAIRJOIN_TESTS_PATH_ORACLE_H_

#include <string_view>

#include "encoding/doc_table.h"
#include "test_util.h"
#include "xpath/ast.h"
#include "xpath/parser.h"

namespace sj::testing {

/// Evaluates `expr` from `context` (document order, duplicate free) over
/// `doc`. Absolute branches start at the document element, as
/// sj::Session::Run does. Returns the branches' results merged in
/// document order, duplicate free.
NodeSequence PathOracle(const DocTable& doc, const xpath::UnionExpr& expr,
                        const NodeSequence& context);

/// Parses `query` (unions included) and evaluates it from `context`.
Result<NodeSequence> PathOracle(const DocTable& doc, std::string_view query,
                                const NodeSequence& context);

/// Parses `query` and evaluates it from the document element, like the
/// context-free sj::Session::Run(query).
Result<NodeSequence> PathOracle(const DocTable& doc, std::string_view query);

}  // namespace sj::testing

#endif  // STAIRJOIN_TESTS_PATH_ORACLE_H_
