"""One fresh workload process: set up, run the passes, check every output.

Run by ``run.py``; prints one JSON record on its last stdout line.  The
process imports ``distmon`` from ``<root>/src`` and calls only its public
API (``scenario_from_dict``, ``run_suite``, ``emit_report``,
``run_examples``), looked up on the package at call time so that a traced
run sees the wrappers.

A pass is, per scenario, ``run_suite`` plus ``emit_report`` in text and in
json; for ``catalog`` it is ``run_examples`` in text and in json.  Pass 0
runs on cold caches; pass k uses seed ``seed + k``.  Outside the timed
region every verdict is compared with the benchmark's own table, every
failure witness is replayed on a universe made only of its objects, the
tuples decided are set against the quantifier range, and every report is
hashed.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import resource
import sys
import time
from pathlib import Path

import workloads


def import_distmon(root: Path):
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    distmon = importlib.import_module("distmon")
    if not Path(distmon.__file__).resolve().is_relative_to(src):
        raise ImportError(f"distmon imported from {distmon.__file__}, not {src}")
    return distmon


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# output gate


def compare(expected: dict, checks: list[dict]) -> tuple[int, list[str]]:
    """(labels attempted, labels whose verdict differs from ``expected``)."""
    got = {c["axiom"]: c["verdict"] for c in checks}
    labels = list(expected) + [lab for lab in got if lab not in expected]
    wrong = [lab for lab in labels if got.get(lab) != expected.get(lab)]
    return len(labels), wrong


def replay_doc(doc: dict, label: str, witness: dict) -> dict:
    """``doc`` restricted to the witness objects and the failing check.

    Rows of the idempotent search are labelled by the axiom they ran, so
    their source check is ``search_idempotents``.
    """
    check = workloads.check_id(label)
    if check not in doc["checks"]:
        check = "search_idempotents"
    out = json.loads(json.dumps(doc))
    tables = []
    for table in witness["objects"]:
        if table not in tables:
            tables.append(table)
    out["universe"] = tables
    out["checks"] = [check]
    return out


def replays(distmon, doc: dict, label: str, witness: dict) -> bool:
    """True when the check fails again on the witness-only universe."""
    try:
        scenario = distmon.scenario_from_dict(replay_doc(doc, label, witness))
        reports = distmon.run_suite(scenario)
    except Exception:  # any failure to replay counts against the program
        return False
    return any(r.axiom == label and r.verdict == "fail" for r in reports)


def coverage_records(doc: dict, checks: list[dict]) -> list[dict]:
    """Tuples decided against the quantifier range, per passing capped check."""
    size = workloads.universe_size(doc)
    out = []
    for c in checks:
        total = workloads.quantifier_range(workloads.check_id(c["axiom"]), size)
        if total is not None and c["verdict"] == "pass":
            out.append({"axiom": c["axiom"], "decided": c["coverage"]["object_tuples"],
                        "range": total})
    return out


class Gate:
    """Accumulates verdict, replay and coverage outcomes over passes."""

    def __init__(self, distmon):
        self.distmon = distmon
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.decided = 0
        self.range = 0
        self._replayed: dict[str, bool] = {}

    def scenario(self, name: str, doc: dict, checks: list[dict],
                 expected: dict) -> list[dict]:
        attempted, wrong = compare(expected, checks)
        self.problems.extend(f"{name}: {lab} verdict differs" for lab in wrong)
        for c in checks:
            if c["verdict"] == "fail" and c["axiom"] not in wrong \
                    and not self._replays(doc, c):
                wrong.append(c["axiom"])
                self.problems.append(f"{name}: {c['axiom']} witness does not replay")
        self.attempted += attempted
        self.failed += len(wrong)
        cov = coverage_records(doc, checks)
        self.decided += sum(r["decided"] for r in cov)
        self.range += sum(r["range"] for r in cov)
        return cov

    def _replays(self, doc: dict, check: dict) -> bool:
        key = json.dumps([doc, check["axiom"], check["witness"]], sort_keys=True)
        if key not in self._replayed:
            self._replayed[key] = replays(self.distmon, doc, check["axiom"],
                                          check["witness"])
        return self._replayed[key]

    def exception(self, name: str, expected: dict, exc: BaseException) -> None:
        self.attempted += len(expected)
        self.failed += len(expected)
        self.problems.append(f"{name}: {type(exc).__name__}: {exc}")


# ---------------------------------------------------------------------------
# passes


def run_pass(distmon, workload: str, scenarios, seed: int):
    """One timed pass; returns (seconds, outputs, errors)."""
    outputs: dict[str, dict] = {}
    errors: dict[str, BaseException] = {}
    start = time.perf_counter()
    if workload == "catalog":
        try:
            text, _ = distmon.run_examples("text", seed=seed)
            js, _ = distmon.run_examples("json", seed=seed)
            outputs["catalog"] = {"text": text, "json": js}
        except Exception as exc:  # recorded as failed operations
            errors["catalog"] = exc
    else:
        for name, scenario in scenarios:
            try:
                reports = distmon.run_suite(scenario)
                outputs[name] = {
                    "text": distmon.emit_report(scenario, reports, "text"),
                    "json": distmon.emit_report(scenario, reports, "json"),
                }
            except Exception as exc:  # recorded as failed operations
                errors[name] = exc
    return time.perf_counter() - start, outputs, errors


def check_pass(gate: Gate, workload: str, docs, outputs, errors) -> dict:
    """Gate one pass's outputs; returns its digests and coverage records."""
    digests, coverage = {}, {}
    for name, out in outputs.items():
        digests[name] = {fmt: sha256(out[fmt]) for fmt in ("text", "json")}
    if workload == "catalog":
        if "catalog" in errors:
            for name, _ in docs:
                gate.exception(name, workloads.EXPECTED[name], errors["catalog"])
            return {"digests": digests, "coverage": coverage}
        sections = {s["name"]: s["report"]
                    for s in json.loads(outputs["catalog"]["json"])["catalog"]}
        for name, doc in docs:
            expected = workloads.EXPECTED[name]
            if name not in sections:
                gate.exception(name, expected, KeyError(f"{name} missing from catalog"))
                continue
            coverage[name] = gate.scenario(name, doc, sections[name]["checks"],
                                           expected)
    else:
        for name, doc in docs:
            expected = workloads.EXPECTED[name]
            if name in errors:
                gate.exception(name, expected, errors[name])
                continue
            checks = json.loads(outputs[name]["json"])["checks"]
            coverage[name] = gate.scenario(name, doc, checks, expected)
    return {"digests": digests, "coverage": coverage}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", required=True, type=Path)
    ap.add_argument("--workload", required=True, choices=workloads.workload_names())
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    start = time.perf_counter()
    distmon = import_distmon(args.root)
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
        tracer.begin()
    docs = workloads.scenario_docs(args.workload, args.seed)
    scenarios = [(name, distmon.scenario_from_dict(doc)) for name, doc in docs]
    setup_s = time.perf_counter() - start
    record = {"setup_s": setup_s}
    if args.setup_only:
        print(json.dumps(record))
        return 0

    gate = Gate(distmon)
    passes = []
    for k in range(1 + workloads.WARM_PASSES[args.workload]):
        seed = args.seed + k
        if k:
            docs = workloads.scenario_docs(args.workload, seed)
            scenarios = [(name, distmon.scenario_from_dict(doc)) for name, doc in docs]
            if tracer is not None:
                tracer.install()
                tracer.begin()
        try:
            seconds, outputs, errors = run_pass(distmon, args.workload, scenarios, seed)
        finally:
            if tracer is not None:
                tracer.end()
                tracer.uninstall()
        entry = {"seed": seed, "s": seconds}
        if tracer is not None:
            entry["layers"] = tracer.metrics()
            if k == 0:
                entry["spans"] = tracer.spans
                entry["kernels"] = [
                    {"span": span, "name": name, "calls": c, "s": tot, "self_s": own}
                    for (span, name), (c, tot, own) in tracer.agg.items()]
        entry.update(check_pass(gate, args.workload, docs, outputs, errors))
        passes.append(entry)

    record.update({
        "passes": passes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "problems": gate.problems,
        "decided": gate.decided,
        "range": gate.range,
        "absent": tracer.absent if tracer is not None else [],
    })
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
