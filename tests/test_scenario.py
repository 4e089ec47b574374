"""Scenario parsing, the check table, and the CLI error contract.

A document is validated and built in one step; every malformed document
ends in exit 2 with ``error: <key>: ...`` and never in a traceback.
"""

import copy
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
import hypothesis.strategies as st

from distmon import (
    MONOIDS, NAT, DistortedStructure, GradedObject, associator,
    builtin_examples, check_base, cli, emit_report, graded_map,
    run_examples, run_suite, scenario_from_dict,
)
from distmon.errors import ValidationError
from distmon.fields import RATIONAL
from distmon.harness import CHECKS

README = Path(__file__).resolve().parents[1] / "README.md"
ERROR_LINE = re.compile(r"error: [^\s:]+: .+\n\Z")


def run_cli(doc):
    """(exit code, stdout, stderr) of ``distmon check`` on ``doc``."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scenario.json"
        path.write_text(json.dumps(doc))
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(["check", "--scenario", str(path)])
    return code, out.getvalue(), err.getvalue()


def nat_doc(**overrides):
    doc = {
        "field": "rational",
        "grading": "nat",
        "universe": {"max_degree": 1, "max_dim": 1, "max_support": 1},
        "functors": [
            {"name": "tau1", "kind": "truncation", "bound": 1},
            {"name": "tau2", "kind": "truncation", "bound": 2},
            {"name": "U", "kind": "collapse"},
        ],
        "transformations": [
            {"name": "theta", "kind": "projection", "from": "tau2", "to": "tau1"},
            {"name": "idU", "kind": "identity", "functor": "U"},
        ],
        "checks": ["lax"],
        "seed": 5,
        "samples": 1,
    }
    doc.update(overrides)
    return doc


def cell(name, source, target):
    return {"name": name, "kind": "projection", "from": source, "to": target}


# ---------------------------------------------------------------------------
# keyed construction errors


KEYED_ERRORS = [
    ("lambda.t", nat_doc(**{"lambda": {"kind": "character", "t": "abc"}})),
    ("lambda.t", nat_doc(**{"lambda": {"kind": "character", "t": True}})),
    ("lambda.values", nat_doc(**{"lambda": {"kind": "table", "values": ["2", "1"]}})),
    ("lambda.values[1]", nat_doc(**{"lambda": {"kind": "table", "values": ["1", "1/0"]}})),
    ("universe[0].5", nat_doc(grading="parity", universe=[{"5": 1}],
                              functors=[], transformations=[], checks=["D1"])),
    ("transformations[0].from", nat_doc(transformations=[cell("p", "U", "tau1")])),
    ("transformations[0].to", nat_doc(transformations=[cell("p", "tau1", "tau2")])),
    ("chain", nat_doc(chain=["U", "tau1", "tau2"], checks=["triple_strictness"])),
    ("horizontal_chains[0]", nat_doc(horizontal_chains=[["idU", "theta", "theta"]],
                                     checks=["horizontal_strictness"])),
    ("interchange_quadruples[0]", nat_doc(
        interchange_quadruples=[["theta", "theta", "theta", "theta"]],
        checks=["interchange"])),
    ("closure_depth", nat_doc(closure_depth=2)),
    ("universe", nat_doc(universe={"max_degree": 2000, "max_dim": 1,
                                   "max_support": 3})),
    ("lambda", nat_doc(**{"lambda": [{"name": "a", "kind": "identity"},
                                     {"name": "a", "kind": "character", "t": "2"}]},
                       checks=["D2"])),
]


@pytest.mark.parametrize("key,doc", KEYED_ERRORS, ids=[k for k, _ in KEYED_ERRORS])
def test_cli_reports_the_key_of_a_construction_error(key, doc):
    code, out, err = run_cli(doc)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {key}: ")
    assert ERROR_LINE.match(err)


FILE_ERRORS = [
    ("missing", None, "error: cannot read scenario file: "),
    ("invalid-json", b'{"field": ', "error: scenario file is not valid JSON: "),
    ("utf16-bom", b"\xff\xfe{}", "error: scenario file is not valid JSON: "),
    # the decoder recurses once per array, and Python refuses to convert an
    # integer literal of more than 4300 digits
    ("deep-arrays", b"[" * 100_000, "error: scenario file is not valid JSON: "),
    ("long-integer", b'{"seed": ' + b"7" * 5000 + b"}",
     "error: scenario file is not valid JSON: "),
    # open() refuses a path with a NUL byte by ValueError, before any read
    ("nul-byte-path", None, "error: cannot read scenario file: "),
]


@pytest.mark.parametrize("name,content,prefix", FILE_ERRORS,
                         ids=[name for name, _, _ in FILE_ERRORS])
def test_cli_reports_unreadable_files_on_one_keyless_line(tmp_path, name, content, prefix):
    path = tmp_path / ("scen\0ario.json" if name == "nul-byte-path" else "scenario.json")
    if content is not None:
        path.write_bytes(content)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(["check", "--scenario", str(path)])
    assert code == 2
    assert out.getvalue() == ""
    assert err.getvalue().startswith(prefix)
    assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n")
    assert "Traceback" not in err.getvalue()


@pytest.mark.parametrize("t", ["1e999999999", "1E-999999999", "1e4400",
                               "9" * 4000 + "e500"])
def test_a_huge_exponent_is_refused_in_bounded_time(t, tmp_path):
    """``Fraction`` would write out 10 ** exponent, which takes minutes for
    the first two and leaves a number too long to print for the others."""
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(nat_doc(**{"lambda": {"kind": "character", "t": t}})))
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    start = time.perf_counter()
    command = [sys.executable, "-m", "distmon.cli", "check", "--scenario", str(path)]
    done = subprocess.run(command, env=env, capture_output=True, text=True, timeout=20)
    assert time.perf_counter() - start < 20
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr.startswith("error: lambda.t: not a rational scalar: ")
    assert ERROR_LINE.match(done.stderr)


def test_exponents_within_the_bound_still_parse():
    assert RATIONAL.parse("1.5e3") == Fraction(1500)
    assert RATIONAL.parse(" 2E-2 ") == Fraction(1, 50)
    assert RATIONAL.parse("1e4299") == Fraction(10) ** 4299


def test_composable_rows_are_accepted():
    doc = dict(nat_doc(), chain=["tau2", "tau1", "U"],
               horizontal_chains=[["theta", "theta", "idU"]],
               checks=["triple_strictness", "horizontal_strictness"])
    assert [r.axiom for r in run_suite(scenario_from_dict(doc))] == \
        ["triple_strictness[U*tau1*tau2]", "horizontal_strictness"]


# ---------------------------------------------------------------------------
# the integer reader


INTEGER_FIELDS = [
    ("universe.max_degree", lambda d: d["universe"].update(max_degree=False)),
    ("universe[0].0", lambda d: d.update(universe=[{"0": True}])),
    ("functors[0].bound", lambda d: d["functors"][0].update(bound=False)),
    ("samples", lambda d: d.update(samples=True)),
    ("max_tuples", lambda d: d.update(max_tuples=True)),
    ("seed", lambda d: d.update(seed=False)),
    ("field.prime", lambda d: d.update(field={"prime": True})),
]


@pytest.mark.parametrize("key,mutate", INTEGER_FIELDS,
                         ids=[k for k, _ in INTEGER_FIELDS])
def test_integer_fields_reject_booleans_under_their_full_key(key, mutate):
    doc = nat_doc()
    mutate(doc)
    with pytest.raises(ValidationError) as err:
        scenario_from_dict(doc)
    assert err.value.key == key


@pytest.mark.parametrize("key,value", [("max_degree", -1), ("max_dim", 0),
                                       ("max_support", "1")])
def test_universe_bounds_report_their_full_key(key, value):
    doc = nat_doc()
    doc["universe"][key] = value
    with pytest.raises(ValidationError) as err:
        scenario_from_dict(doc)
    assert err.value.key == f"universe.{key}"


@pytest.mark.parametrize("grading,bounds,size", [
    ("trivial", (0, 4096, 1), 4096),
    ("trivial", (0, 4097, 1), None),
    ("nat", (3, 2, 3), 64),
    ("parity", (1, 63, 2), 2 * 63 + 63 ** 2),
    ("parity", (1, 64, 2), None),
    ("nat", (10 ** 30, 10 ** 30, 10 ** 30), None),
])
def test_generator_is_bounded_by_its_closed_form_size(grading, bounds, size):
    doc = nat_doc(grading=grading, functors=[], transformations=[], checks=["D4"],
                  universe=dict(zip(("max_degree", "max_dim", "max_support"), bounds)))
    if size is None:
        with pytest.raises(ValidationError) as err:
            scenario_from_dict(doc)
        assert err.value.key == "universe"
    else:
        assert len(scenario_from_dict(doc).universe) == size


# ---------------------------------------------------------------------------
# the check table


@pytest.mark.parametrize("check_id", list(CHECKS))
def test_requirement_errors_come_from_the_table(check_id):
    check = CHECKS[check_id]
    doc = {"field": "rational", "grading": check.gradings[0],
           "universe": {"max_degree": 1, "max_dim": 1, "max_support": 1},
           "checks": [check_id], "seed": 0}
    if check.requires:
        with pytest.raises(ValidationError) as err:
            scenario_from_dict(doc)
        assert err.value.key == check.requires[0]
    for grading in sorted(set(MONOIDS) - set(check.gradings)):
        with pytest.raises(ValidationError) as err:
            scenario_from_dict(dict(doc, grading=grading,
                                    braiding={"kind": "symmetric"}))
        assert err.value.key == "grading"


def _scope_text(check):
    text = {"structure": "structure", "functor": "each functor",
            "cell": "each cell", "row": "each row",
            "search row": "each search row"}[check.scope]
    if check.per_lambda:
        text = "each λ-variant" if check.scope == "structure" \
            else f"{text} × λ-variant"
    return text


def test_readme_documents_the_check_table():
    text = README.read_text(encoding="utf-8")
    for check_id, check in CHECKS.items():
        gradings = "any" if check.gradings == tuple(MONOIDS) \
            else ", ".join(check.gradings)
        requires = ", ".join(f"`{k}`" for k in check.requires) or "-"
        row = f"| `{check_id}` | {_scope_text(check)} | {requires} | {gradings} |"
        assert row in text, row


# ---------------------------------------------------------------------------
# pinned report bytes and built-once runtime


def test_examples_report_bytes_are_pinned():
    text, _ = run_examples("text")
    js, _ = run_examples("json")
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "d4f694e58e5816c26f44a2ad0bffcc2d3c40ca58f49fe1e669db23d2ca7120d9"
    assert hashlib.sha256(js.encode()).hexdigest() == \
        "d0641ceacbc89757e824bdb3a2d82b05029c0f0e86e1c73348287ee7a6966482"


def _digests(scenario, reports):
    return tuple(hashlib.sha256(emit_report(scenario, reports, fmt).encode()).hexdigest()
                 for fmt in ("text", "json"))


PINNED_SCENARIOS = [
    ("hexagon-A", {
        "field": "rational", "grading": "nat",
        "universe": {"max_degree": 2, "max_dim": 1, "max_support": 2},
        "sigma": {"kind": "symmetric"}, "lambda": {"kind": "character", "t": "2"},
        "checks": ["base", "D3", "D4", "lambda_sigma"], "seed": 0},
     ("9ce90c78a79fae782d47d419de8977deda3b804b349f80f89d194a44c81c3027",
      "a4dd54865202ccc7bc5f11e6cb941dcd2b9cd0e681cd6305751c100805e3c41f")),
    ("hexagon-B", {
        "field": "rational", "grading": "parity",
        "universe": {"max_degree": 1, "max_dim": 1, "max_support": 2},
        "braiding": {"kind": "koszul"}, "idempotent": {"kind": "parity_projector"},
        "checks": ["E2L_cocycle", "E2R_cocycle", "E2L", "E2R", "BL", "BR"],
        "seed": 0},
     ("fe8a3f14c94b82becba6de34465461f53f8aefd591c05ebfd053a3739b4f6ecc",
      "47af48102ef72b321c0346602a79a139cd1cb6a364a1f19805beddab7bc93b21")),
    # naturality over a prime field, through both an entry rule that drops
    # entries (tau1) and one that moves them (U)
    ("naturality-fp", {
        "field": {"prime": 2147483647}, "grading": "nat",
        "universe": {"max_degree": 2, "max_dim": 2, "max_support": 1},
        "sigma": {"kind": "symmetric"}, "lambda": {"kind": "character", "t": "3"},
        "functors": [{"name": "tau1", "kind": "truncation", "bound": 1},
                     {"name": "U", "kind": "collapse"}],
        "checks": ["D1", "laxator_naturality"], "samples": 3, "seed": 0},
     ("4909306368ed11cba2a2c33afd5e28f271c9f36e7fceff5f68a503d70c96a57d",
      "98b1e9bdbc99c22f0a3e211142bde736f4454e479d2f718fdc32834b68949c21")),
    # the dense nat universe at k=3: no quadruple has a zero Hom space
    ("dense-nat-3", {
        "field": "rational", "grading": "nat",
        "universe": [{"0": 3, "1": 3}, {"0": 3, "1": 2}, {"0": 2, "1": 3}],
        "sigma": {"kind": "symmetric"}, "lambda": {"kind": "identity"},
        "functors": [{"name": "U", "kind": "collapse"}],
        "checks": ["D1", "laxator_naturality"], "seed": 0},
     ("865623332c084b17929272ab8bd56991926d707e44780268eb52491873dcfa83",
      "749b456d314ef08426f5e422664d6a2933f7e51e17d2872dcce97a3dbaae28e3")),
]


@pytest.mark.parametrize("doc,pins", [(d, p) for _, d, p in PINNED_SCENARIOS],
                         ids=[name for name, _, _ in PINNED_SCENARIOS])
def test_scenario_report_bytes_are_pinned(doc, pins):
    scenario = scenario_from_dict(doc)
    assert _digests(scenario, run_suite(scenario)) == pins


def test_corrupted_associator_report_bytes_are_pinned():
    scenario = scenario_from_dict({
        "field": "rational", "grading": "nat",
        "universe": {"max_degree": 1, "max_dim": 2, "max_support": 2},
        "checks": ["base"], "seed": 0})
    bad = GradedObject.of(NAT, {0: 1, 1: 2})

    def corrupt(field, x, y, z):
        a = associator(field, x, y, z)
        if (x, y, z) != (bad, bad, bad):
            return a
        blocks = {d: [list(row) for row in m] for d, m in a.dense_blocks()}
        rows = blocks[2]
        rows[1][2], rows[1][3] = rows[1][3], rows[1][2]
        rows[4][5] = Fraction(-3)
        return graded_map(field, a.source, a.target, blocks)

    report = check_base(scenario.field, scenario.universe, scenario.budget,
                        assoc=corrupt)
    assert report.verdict == "fail" and report.witness.row == 4
    assert _digests(scenario, [report]) == (
        "db6a19554a1e2eb2c9f1ee243cce3e5339140ade1132898504ef15d869d9cb35",
        "88aab4e265ea1d60792f441b7a43b3b8c9ef73de72f5eb3aa3fbadf570409273")


def test_run_and_report_build_no_structure(monkeypatch):
    built = []
    init = DistortedStructure.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    for name, scenario in builtin_examples():
        if "classify" in scenario.checks:
            continue  # the classification builds its candidate structures
        monkeypatch.setattr(DistortedStructure, "__init__", counting_init)
        reports = run_suite(scenario)
        emit_report(scenario, reports, "text")
        emit_report(scenario, reports, "json")
        monkeypatch.undo()
        assert built == [], name


# ---------------------------------------------------------------------------
# fuzzing the CLI contract


FUZZ_DOCS = [
    {"field": "rational", "grading": "parity",
     "universe": {"max_degree": 1, "max_dim": 1, "max_support": 1},
     "sigma": {"kind": "twist", "braiding": {"kind": "koszul"},
               "idempotent": {"kind": "parity_projector"}},
     "checks": ["D1", "D2", "lambda_sigma"], "seed": 1, "samples": 1},
    {"field": {"prime": 5}, "grading": "nat", "universe": [{"0": 1}, {"1": 1}],
     "lambda": [{"name": "a", "kind": "character", "t": "2"},
                {"name": "b", "kind": "table", "values": ["1", "0"]}],
     "functors": [{"name": "T", "kind": "truncation", "bound": 0},
                  {"name": "U", "kind": "collapse"}],
     "transformations": [{"name": "p", "kind": "projection", "from": "T", "to": "T"},
                         {"name": "i", "kind": "identity", "functor": "U"}],
     "chain": ["T", "T", "U"],
     "interchange_quadruples": [["p", "p", "p", "p"]],
     "horizontal_chains": [["p", "p", "i"]],
     "checks": ["D4", "SLambda", "lax", "monoidal", "lambda_conjugation",
                "triple_strictness", "interchange", "horizontal_strictness"],
     "seed": 2, "samples": 1},
    {"field": "rational", "grading": "parity", "universe": [{"1": 1}],
     "braiding": {"kind": "koszul"}, "idempotent": {"kind": "parity_projector"},
     "checks": ["E0", "E2L", "BL", "search_idempotents"], "seed": 3,
     "samples": 1, "max_tuples": 2},
    {"field": "rational", "grading": "trivial", "universe": [{"0": 1}],
     "lambda": {"kind": "identity", "name": "id"},
     "checks": ["classify", "base", "D3"], "seed": 0},
]

WORDS = sorted({"abc", "1/0", "0", "1", "2", "T", "U", "p", "i", "a", "name",
                "kind", "rational", "parity", "nat", "trivial", "identity",
                "character", "table", "twist", "koszul", "symmetric",
                "truncation", "collapse", "projection", "parity_projector",
                *CHECKS})
KEYS = ["kind", "name", "t", "values", "bound", "from", "to", "functor", "0",
        "1", "prime", "max_degree", "braiding", "idempotent", "lambda", "chain",
        "closure_depth"]
VALUES = st.recursive(
    st.one_of(st.integers(-2, 3), st.booleans(), st.sampled_from(WORDS)),
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.sampled_from(KEYS), inner, max_size=2)),
    max_leaves=4,
)


def _paths(value, prefix=()):
    yield prefix
    items = value.items() if isinstance(value, dict) else \
        enumerate(value) if isinstance(value, list) else ()
    for k, v in items:
        yield from _paths(v, prefix + (k,))


def _mutate(doc, path, op, value, key):
    if not path:
        return value if op == "replace" else doc
    parent = doc
    for step in path[:-1]:
        parent = parent[step]
    last = path[-1]
    if op == "drop":
        del parent[last]
    elif op == "replace":
        parent[last] = value
    elif isinstance(parent[last], dict):
        parent[last][key] = value
    elif isinstance(parent[last], list):
        parent[last].append(value)
    return doc


def _bound_universe(doc):
    """At most 2 degrees, dimension 2 and support 2."""
    universe = doc.get("universe") if isinstance(doc, dict) else None
    if isinstance(universe, dict):
        for key, cap in (("max_degree", 1), ("max_dim", 2), ("max_support", 2)):
            if type(universe.get(key)) is int:
                universe[key] = min(universe[key], cap)
    elif isinstance(universe, list):
        del universe[3:]
        for table in universe:
            if isinstance(table, dict):
                for extra in list(table)[2:]:
                    del table[extra]
                for degree, dim in table.items():
                    if type(dim) is int:
                        table[degree] = min(dim, 2)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_cli_contract_holds_for_mutated_documents(data):
    doc = copy.deepcopy(data.draw(st.sampled_from(FUZZ_DOCS)))
    for _ in range(data.draw(st.integers(1, 3))):
        path = data.draw(st.sampled_from(list(_paths(doc))))
        op = data.draw(st.sampled_from(["drop", "replace", "add"]))
        doc = _mutate(doc, path, op, data.draw(VALUES), data.draw(st.sampled_from(KEYS)))
    _bound_universe(doc)
    code, out, err = run_cli(doc)
    assert code in (0, 1, 2)
    if code == 2:
        assert out == ""
        assert ERROR_LINE.match(err), err
    else:
        assert err == ""
        tags = [line[:6] for line in out.splitlines() if not line.startswith(" ")]
        assert tags and set(tags) <= {"[PASS]", "[FAIL]"}
        assert (code == 1) == ("[FAIL]" in tags)
