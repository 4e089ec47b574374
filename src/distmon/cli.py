"""Command-line front end.

Exit codes: 0 when every verdict matches expectations (all-pass for
``check``, the golden table for ``examples``), 1 when at least one
verdict deviates, 2 for usage, parse, or validation errors.
"""

from __future__ import annotations

import argparse
import sys

from .errors import CoverageError, ScenarioError, StructureMismatch
from .exactlin import MONOIDS
from .fields import RATIONAL
from .distortion import koszul_braiding, symmetric_braiding
from .harness import (
    default_universe, emit_report, load_scenario, run_examples, run_suite,
)
from .reports import CheckBudget
from .twist import search_structural_idempotents


def _cmd_check(args) -> int:
    scenario = load_scenario(args.scenario)
    if args.seed is not None or args.samples is not None:
        scenario = scenario.with_overrides(seed=args.seed, samples=args.samples)
    reports = run_suite(scenario, fail_fast=args.fail_fast)
    sys.stdout.write(emit_report(scenario, reports, args.format))
    return 0 if all(r.passed for r in reports) else 1


def _cmd_examples(args) -> int:
    text, ok = run_examples(args.format, seed=args.seed)
    sys.stdout.write(text)
    return 0 if ok else 1


def _cmd_search(args) -> int:
    monoid = MONOIDS[args.grading]
    braiding = koszul_braiding() if args.braiding == "koszul" \
        else symmetric_braiding()
    universe = default_universe(monoid)
    report = search_structural_idempotents(RATIONAL, braiding, universe,
                                           CheckBudget())
    for row in report.rows:
        verdicts = " ".join(
            f"{r.axiom}={r.verdict}" for r in row.reports
        )
        sys.stdout.write(f"c(1,1)={row.odd_odd_coefficient}: {verdicts}\n")
    joint = report.satisfying(("E0", "E1", "BL"))
    sys.stdout.write(
        "satisfying {E0, E1, BL} jointly: "
        + (", ".join(f"c(1,1)={v}" for v in joint) or "none") + "\n"
    )
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="distmon",
        description="Exact axiom checks for distorted monoidal structures "
                    "on graded vector spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="run the checks of a scenario file")
    p_check.add_argument("--scenario", required=True, help="path to a JSON scenario")
    p_check.add_argument("--seed", type=int, default=None)
    p_check.add_argument("--samples", type=int, default=None)
    p_check.add_argument("--format", choices=("text", "json"), default="text")
    p_check.add_argument("--fail-fast", action="store_true")
    p_check.set_defaults(func=_cmd_check)

    p_ex = sub.add_parser("examples", help="run the builtin catalog against "
                                           "its golden verdict table")
    p_ex.add_argument("--format", choices=("text", "json"), default="text")
    p_ex.add_argument("--seed", type=int, default=None)
    p_ex.set_defaults(func=_cmd_examples)

    p_search = sub.add_parser("search-idempotents",
                              help="enumerate normalized structural idempotents")
    p_search.add_argument("--grading", choices=("parity",), default="parity")
    p_search.add_argument("--braiding", choices=("koszul", "symmetric"),
                          default="koszul")
    p_search.set_defaults(func=_cmd_search)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ScenarioError, CoverageError, StructureMismatch) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
