"""Command-line front end.

Exit codes: 0 when every verdict matches expectations (all-pass for
``check``, the golden table for ``examples``), 1 when at least one
verdict deviates, 2 for usage, parse, or validation errors.
"""

from __future__ import annotations

import argparse
import sys

from .errors import CoverageError, ScenarioError, StructureMismatch
from .harness import emit_report, load_scenario, run_examples, run_suite


def _cmd_check(args) -> int:
    scenario = load_scenario(args.scenario)
    reports = run_suite(scenario, fail_fast=args.fail_fast)
    sys.stdout.write(emit_report(scenario, reports, args.format))
    return 0 if all(r.passed for r in reports) else 1


def _cmd_examples(args) -> int:
    text, ok = run_examples(args.format)
    sys.stdout.write(text)
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="distmon",
        description="Exact axiom checks for distorted monoidal structures "
                    "on graded vector spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="run the checks of a scenario file")
    p_check.add_argument("--scenario", required=True, help="path to a JSON scenario")
    p_check.add_argument("--format", choices=("text", "json"), default="text")
    p_check.add_argument("--fail-fast", action="store_true")
    p_check.set_defaults(func=_cmd_check)

    p_ex = sub.add_parser("examples", help="run the builtin catalog against "
                                           "its golden verdict table")
    p_ex.add_argument("--format", choices=("text", "json"), default="text")
    p_ex.set_defaults(func=_cmd_examples)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ScenarioError, CoverageError, StructureMismatch) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
