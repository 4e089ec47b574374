"""Self-tests of the benchmark's gates, tracer and range table.

    python3 -m pytest benchmark/tests -q
"""

import inspect
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracer as tracer_mod  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

distmon = worker.import_distmon(ROOT)

SMALL = {
    "field": "rational", "grading": "nat",
    "universe": {"max_degree": 2, "max_dim": 1, "max_support": 2},
    "sigma": {"kind": "symmetric"},
    "lambda": {"kind": "table", "values": ["1", "1", "0"]},
    "checks": ["D3", "D4"], "seed": 5,
}


def _json_checks(doc):
    scenario = distmon.scenario_from_dict(doc)
    reports = distmon.run_suite(scenario)
    return json.loads(distmon.emit_report(scenario, reports, "json"))["checks"]


def test_expected_table_passes_real_verdicts():
    gate = worker.Gate(distmon)
    gate.scenario("small", SMALL, _json_checks(SMALL), {"D3": "pass", "D4": "fail"})
    assert (gate.attempted, gate.failed, gate.problems) == (2, 0, [])


def test_wrong_expected_verdict_raises_mismatch():
    gate = worker.Gate(distmon)
    gate.scenario("small", SMALL, _json_checks(SMALL), {"D3": "pass", "D4": "pass"})
    assert gate.failed == 1 and gate.failed / gate.attempted > 0
    record = {"kind": "plain", "setup_s": 0.1, "peak_rss_mb": 1.0,
              "passes": [{"s": 1.0, "digests": {}}], "absent": [],
              "attempted": gate.attempted, "failed": gate.failed,
              "problems": gate.problems, "decided": gate.decided,
              "range": gate.range}
    summary = run.summarize([record])
    assert summary["metrics"]["mismatch_frac"] > 0 and summary["problems"]


def test_missing_label_counts_as_mismatch():
    attempted, wrong = worker.compare({"D3": "pass", "D9": "pass"},
                                      [{"axiom": "D3", "verdict": "pass"}])
    assert (attempted, wrong) == (2, ["D9"])


def test_witness_that_does_not_replay_counts():
    checks = _json_checks(SMALL)
    d4 = next(c for c in checks if c["axiom"] == "D4")
    assert worker.replays(distmon, SMALL, "D4", d4["witness"])
    # The unit object alone satisfies multiplicativity, so a witness naming
    # only it cannot reproduce the failure.
    d4["witness"] = dict(d4["witness"], objects=[{"0": 1}, {"0": 1}])
    gate = worker.Gate(distmon)
    gate.scenario("small", SMALL, checks, {"D3": "pass", "D4": "fail"})
    assert gate.failed == 1 and "does not replay" in gate.problems[0]


def _bindings():
    out = {}
    for mod in tracer_mod._distmon_modules():
        for name, obj in vars(mod).items():
            out[(mod.__name__, name)] = obj
            if inspect.isclass(obj):
                for attr, value in vars(obj).items():
                    out[(mod.__name__, name, attr)] = value
    out["Fraction.__eq__"] = Fraction.__dict__["__eq__"]
    return out


def test_tracing_restores_every_binding_and_keeps_report_bytes():
    doc = workloads.scenario_docs("hexagon-q", 3)[1][1]
    doc["universe"] = {"max_degree": 1, "max_dim": 1, "max_support": 2}
    scenario = distmon.scenario_from_dict(doc)
    plain = distmon.emit_report(scenario, distmon.run_suite(scenario), "json")

    before = _bindings()
    t = tracer_mod.Tracer()
    t.install()
    t.begin()
    try:
        traced = distmon.emit_report(scenario, distmon.run_suite(scenario), "json")
    finally:
        t.end()
        t.uninstall()
    after = _bindings()
    assert before.keys() == after.keys()
    assert all(before[k] is after[k] for k in before)
    assert traced == plain
    metrics = t.metrics()
    assert metrics["exactlin.mat_mul.calls"] > 0
    assert metrics["fields.fraction_eq"] > 0
    assert metrics["twist.check_idempotent_axiom.E2L.s"] > 0
    assert t.absent == []


def test_removed_probe_is_reported_absent(monkeypatch):
    laxfun = sys.modules["distmon.laxfun"]
    plain = laxfun.compose_lax.__wrapped__
    for mod in tracer_mod._distmon_modules():
        if getattr(mod, "compose_lax", None) is laxfun.compose_lax:
            monkeypatch.setattr(mod, "compose_lax", plain)
    t = tracer_mod.Tracer()
    t.install()
    t.begin()
    t._probe_kernel("exactlin.mat_mul", ())
    t.end()
    t.uninstall()
    assert "laxfun.compose_lax.cache_info" in t.absent
    assert "exactlin.mat_mul.args" in t.absent
    assert t.metrics()["laxfun.compose_lax.currsize"] == 0


@pytest.mark.parametrize("grading,spec", [
    ("nat", {"max_degree": 1, "max_dim": 1, "max_support": 1}),
    ("nat", {"max_degree": 2, "max_dim": 2, "max_support": 2}),
    ("parity", {"max_degree": 3, "max_dim": 2, "max_support": 2}),
    ("trivial", {"max_degree": 0, "max_dim": 3, "max_support": 1}),
])
def test_universe_size_matches_generator(grading, spec):
    doc = {"grading": grading, "universe": spec}
    generated = distmon.generate_universe(distmon.MONOIDS[grading], *spec.values())
    assert workloads.universe_size(doc) == len(generated)


def test_range_table_gives_powers_of_universe_size():
    doc = {"grading": "nat", "universe": [{"0": 1}, {"1": 1}, {"1": 1}]}
    size = workloads.universe_size(doc)
    assert size == 2
    assert workloads.quantifier_range("D1", size) == 2 ** 4
    assert workloads.quantifier_range("D3", size) == 2 ** 3
    assert workloads.quantifier_range("D4", size) == 2 ** 2
    assert workloads.quantifier_range("base", size) == 2 ** 2 + 2 ** 4
    assert workloads.quantifier_range("classify", size) is None


def test_coverage_of_an_exhaustive_check_is_one():
    doc = dict(SMALL, universe=[{"0": 1}, {"1": 1}], checks=["D3"])
    [record] = worker.coverage_records(doc, _json_checks(doc))
    assert record["decided"] == record["range"] == 8


def test_every_expected_label_belongs_to_a_workload_scenario():
    names = {name for w in workloads.workload_names()
             for name, _ in workloads.scenario_docs(w, 0)}
    assert names == set(workloads.EXPECTED)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "benchmark",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", "catalog",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
