#!/usr/bin/env python3
"""Self-test for sj-lint: the clean tree passes, every seeded-violation
fixture fails its intended rule (and only fires where its rule says).

Run directly or via ctest (test name: sj_lint_selftest). Exit 0 on
success, 1 with a report on any miss -- a fixture that stops failing
means the lint rule has rotted and guards nothing.
"""

import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
LINT = HERE / "sj_lint.py"
FIXTURES = HERE / "fixtures"

# fixture file -> (treat-as path, rule that must fire)
CASES = {
    "pool_bypass.cc": ("src/xpath/evil.cc", "pool-bypass"),
    "rogue_backend_switch.cc": ("src/api/evil.cc", "backend-dispatch"),
    "rogue_cursor_shim.cc": ("src/core/evil.cc", "backend-dispatch"),
    "drifted_explain_literal.cc": ("src/xpath/evil.cc", "explain-literal"),
    "stats_free_kernel.h": ("src/core/kernels.h", "stats-on-advance"),
    "bench_missing_fields.cc": ("bench/bench_evil.cc", "bench-json"),
    "bench_missing_percentiles.cc": ("bench/bench_evil.cc", "bench-json"),
    "rogue_image_mutation.cc": ("src/api/evil.cc", "delta-mutation"),
    "rogue_cost_constant.cc": ("src/xpath/evil.cc", "cost-literal"),
    "unpinned_image.cc": ("tests/evil_test.cc", "unpinned-image"),
    "oracle_with_engine_include.cc": ("tests/path_oracle.cc",
                                      "oracle-independence"),
}

# The same fixtures linted at exempt locations must be clean: the rules
# scope to the IO-conscious core, not the whole world.
EXEMPT = {
    "pool_bypass.cc": "src/storage/evil.cc",
    "rogue_backend_switch.cc": "src/xpath/backend_dispatch.h",
    "rogue_cursor_shim.cc": "src/storage/evil.cc",
    "drifted_explain_literal.cc": "src/xpath/explain_strings.h",
    "stats_free_kernel.h": "src/core/doc_accessor.h",
    "bench_missing_fields.cc": "tests/evil_test.cc",
    "bench_missing_percentiles.cc": "tests/evil_test.cc",
    "rogue_image_mutation.cc": "src/delta/evil.cc",
    "rogue_cost_constant.cc": "src/xpath/cost_model.h",
    "unpinned_image.cc": "perfbench/sjbench.cc",
    "oracle_with_engine_include.cc": "tests/xpath_evaluator_test.cc",
}


def run_lint(args):
    proc = subprocess.run([sys.executable, str(LINT)] + args,
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout + proc.stderr


def main():
    failures = []

    code, out = run_lint([])
    if code != 0:
        failures.append(f"clean tree should pass but exited {code}:\n{out}")

    for name, (treat_as, rule) in CASES.items():
        path = FIXTURES / name
        code, out = run_lint(["--treat-as", treat_as, str(path)])
        if code != 1:
            failures.append(
                f"{name} (as {treat_as}) should fail, exited {code}:\n{out}")
        elif f"[{rule}]" not in out:
            failures.append(
                f"{name} (as {treat_as}) should trip [{rule}], got:\n{out}")

    for name, treat_as in EXEMPT.items():
        path = FIXTURES / name
        code, out = run_lint(["--treat-as", treat_as, str(path)])
        if code != 0:
            failures.append(
                f"{name} at exempt location {treat_as} should pass, "
                f"exited {code}:\n{out}")

    if failures:
        for f in failures:
            print(f"FAIL: {f}", file=sys.stderr)
        print(f"sj_lint_test: {len(failures)} failure(s)", file=sys.stderr)
        return 1
    total = len(CASES) + len(EXEMPT) + 1
    print(f"sj_lint_test: {total} checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
