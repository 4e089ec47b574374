"""distmon benchmark runner.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each workload process is a fresh
``python3 benchmark/worker.py`` started one at a time, so every process pays
the import and the cold pass exactly as one ``distmon check`` or
``distmon examples`` call does, then runs a fixed number of warm passes.
Processes are started until the next one would end after ``--seconds``.

``--trace 0`` first starts several set-up-only processes (for a steady
``setup_s`` median) and then untraced workload processes; it reports the
end-to-end metrics.  ``--trace 1`` alternates untraced and traced processes
and reports the per-layer metrics of the traced cold passes plus the
tracing overhead.  Metric names and units come from ``BENCHMARK.json``.

Everything measured is also written to ``.bench_results/`` in the checkout.
The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 5
HARD_LIMIT_S = 170.0  # a run must end well within 180 s
MARGIN = 1.05         # predicted process time = MARGIN * slowest so far


class BenchError(RuntimeError):
    pass


def git_revision(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, text=True,
                             capture_output=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


class Runner:
    def __init__(self, args):
        self.args = args
        self.start = time.perf_counter()
        self.deadline = self.start + args.seconds
        self.slowest: dict[str, float] = {}

    def fits(self, kind: str) -> bool:
        need = MARGIN * self.slowest.get(kind, 0.0)
        return time.perf_counter() + need <= self.deadline

    def spawn(self, kind: str) -> dict:
        """Run one worker process to completion and return its record."""
        cmd = [sys.executable, str(HERE / "worker.py"), "--root", str(ROOT),
               "--workload", self.args.workload, "--seed", str(self.args.seed)]
        cmd += {"setup": ["--setup-only"], "plain": [], "traced": ["--trace", "1"]}[kind]
        t0 = time.perf_counter()
        budget = HARD_LIMIT_S - (t0 - self.start)
        if budget <= 0:
            raise BenchError("out of time before a worker could start")
        try:
            proc = subprocess.run(cmd, cwd=ROOT, text=True, capture_output=True,
                                  timeout=budget)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{kind} worker exceeded {budget:.0f} s") from None
        if proc.returncode != 0:
            raise BenchError(f"{kind} worker exited {proc.returncode}:\n"
                             + proc.stderr[-2000:])
        elapsed = time.perf_counter() - t0
        self.slowest[kind] = max(self.slowest.get(kind, 0.0), elapsed)
        record = json.loads(proc.stdout.strip().splitlines()[-1])
        record["kind"] = kind
        return record

    def collect(self) -> list[dict]:
        if not self.args.trace:
            records = [self.spawn("setup") for _ in range(SETUP_PROBES)]
            records.append(self.spawn("plain"))
            records.append(self.spawn("plain"))
            while self.fits("plain"):
                records.append(self.spawn("plain"))
            return records
        records = [self.spawn("plain"), self.spawn("traced")]
        while True:
            kind = "plain" if len(records) % 2 == 0 else "traced"
            if not self.fits(kind):
                return records
            records.append(self.spawn(kind))


def unit_of(name: str) -> str:
    """Display unit of a metric, read off its name."""
    for suffix, unit in (("us_per_tuple", "us"), ("_mb", "MB"), (".bytes", "B"),
                         ("_frac", "frac"), ("hit_ratio", "frac"), ("_s", "s"),
                         (".s", "s")):
        if name.endswith(suffix):
            return unit
    return "count"


def _median(values, default=0.0):
    return statistics.median(values) if values else default


def summarize(records: list[dict]) -> dict:
    """Metrics, operation counts, report digests, problems and absent probes
    of one run's processes."""
    plain = [r for r in records if r["kind"] == "plain"]
    traced = [r for r in records if r["kind"] == "traced"]
    full = plain + traced
    problems = [p for r in full for p in r["problems"]]

    attempted = sum(r["attempted"] for r in full)
    failed = sum(r["failed"] for r in full)
    decided = sum(r["decided"] for r in full)
    total = sum(r["range"] for r in full)
    metrics = {
        "setup_s": _median([r["setup_s"] for r in records if r["kind"] != "traced"]),
        "cold_pass_s": _median([r["passes"][0]["s"] for r in plain]),
        "warm_pass_s": _median([p["s"] for r in plain for p in r["passes"][1:]]),
        "peak_rss_mb": _median([r["peak_rss_mb"] for r in plain]),
        "coverage_frac": decided / total if total else 0.0,
        "mismatch_frac": failed / attempted if attempted else 1.0,
    }
    metrics["match_frac"] = 1.0 - metrics["mismatch_frac"]

    if traced:
        layers: dict[str, list] = {}
        for r in traced:
            for key, value in r["passes"][0]["layers"].items():
                layers.setdefault(key, []).append(value)
        metrics.update({key: statistics.median_low(vals) for key, vals in layers.items()})
        traced_cold = _median([r["passes"][0]["s"] for r in traced])
        metrics["trace.overhead_frac"] = traced_cold / metrics["cold_pass_s"] - 1.0

    # Every process ran the same seeds, so every report must hash the same.
    digests = []
    for k in range(len(full[0]["passes"])):
        seen = {json.dumps(r["passes"][k]["digests"], sort_keys=True) for r in full}
        if len(seen) != 1:
            problems.append(f"pass {k}: report digests differ between processes")
        digests.append(json.loads(min(seen)))
    run_digest = hashlib.sha256(json.dumps(digests, sort_keys=True).encode()).hexdigest()
    return {
        "metrics": metrics, "attempted": attempted, "failed": failed,
        "determinism": {"run_digest": run_digest, "pass_digests": digests},
        "problems": problems,
        "absent": sorted({a for r in full for a in r["absent"]}),
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description="distmon benchmark")
    ap.add_argument("--workload", required=True, choices=names)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if not (ROOT / "src" / "distmon" / "__init__.py").is_file():
        print(f"error: no distmon sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    try:
        records = Runner(args).collect()
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    summary = summarize(records)
    metrics = summary["metrics"]

    why = next(w["why"] for w in spec["workloads"] if w["name"] == args.workload)
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    out = {m["name"]: {"value": metrics.get(m["name"], 0.0), "unit": m["unit"]}
           for m in listed}

    result = {
        "workload": args.workload, "why": why, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(), "cpu_count": os.cpu_count(),
        "git_revision": git_revision(ROOT),
        "processes": {kind: sum(r["kind"] == kind for r in records)
                      for kind in ("setup", "plain", "traced")},
        **summary, "records": records,
    }
    results = ROOT / ".bench_results"
    results.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(result, indent=1), encoding="utf-8")

    print(f"workload {args.workload}: {why}")
    print(f"processes {result['processes']}  python {result['python']}  "
          f"cpus {result['cpu_count']}  revision {result['git_revision']}")
    print(f"report digest {summary['determinism']['run_digest']}")
    for key, value in metrics.items():
        print(f"  {key} = {value} {unit_of(key)}")
    for item in summary["absent"]:
        print(f"  absent probe: {item}")
    for item in summary["problems"]:
        print(f"  problem: {item}")
    print(json.dumps({"correct": not summary["problems"],
                      "attempted": summary["attempted"],
                      "failed": summary["failed"], "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
