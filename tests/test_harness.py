import json
import time
from fractions import Fraction

import pytest

from distmon import (
    DistortedStructure, GOLDEN, NAT, PARITY, TRIVIAL, builtin_examples,
    check_D4, emit_report, generate_universe,
    load_scenario, run_examples, run_suite, scenario_from_dict,
    sort_universe, unit_object,
)
from distmon.errors import ParseError, ValidationError
from distmon.harness import scenario_hash
from distmon.twist import AXIOMS
from distmon.reports import CheckBudget
from distmon import cli

from conftest import Q, obj


# ---------------------------------------------------------------------------
# universe generation


def test_generate_universe_parity_small():
    got = generate_universe(PARITY, 1, 1, 2)
    assert got == (obj(PARITY, {0: 1}), obj(PARITY, {1: 1}),
                   obj(PARITY, {0: 1, 1: 1}))


def test_generate_universe_trivial():
    assert generate_universe(TRIVIAL, 0, 2, 1) == \
        (obj(TRIVIAL, {0: 1}), obj(TRIVIAL, {0: 2}))


def test_generate_universe_nat_singletons():
    assert generate_universe(NAT, 2, 1, 1) == \
        (obj(NAT, {0: 1}), obj(NAT, {1: 1}), obj(NAT, {2: 1}))


def test_generate_universe_includes_unit():
    for monoid, bounds in ((NAT, (2, 1, 2)), (PARITY, (1, 1, 2)),
                           (TRIVIAL, (0, 2, 1))):
        assert unit_object(monoid) in generate_universe(monoid, *bounds)


@pytest.mark.parametrize("grading,max_degree,degrees", [
    ("nat", 2, 3), ("parity", 1, 2), ("trivial", 0, 1)])
def test_a_support_bound_past_the_degree_count_validates_at_once(
        grading, max_degree, degrees):
    # supports larger than the number of degrees are empty, so a huge bound
    # gives the universe of a bound equal to that number, without walking it
    def universe(max_support):
        return scenario_from_dict(minimal_doc(
            grading=grading, checks=["D4"], universe={
                "max_degree": max_degree, "max_dim": 1,
                "max_support": max_support})).universe

    start = time.perf_counter()
    huge = [universe(10 ** 5), universe(10 ** 20)]
    assert time.perf_counter() - start < 0.5
    assert huge == [universe(degrees)] * 2


def test_sorted_canonically():
    got = generate_universe(NAT, 1, 2, 2)
    assert list(got) == sorted(set(got), key=lambda o: (len(o.dims), o.dims))


# ---------------------------------------------------------------------------
# scenario validation


def minimal_doc(**overrides):
    doc = {
        "field": "rational",
        "grading": "parity",
        "universe": {"max_degree": 1, "max_dim": 1, "max_support": 2},
        "checks": ["D1"],
        "seed": 7,
    }
    doc.update(overrides)
    return doc


def test_scenario_missing_seed():
    doc = minimal_doc()
    del doc["seed"]
    with pytest.raises(ValidationError) as err:
        scenario_from_dict(doc)
    assert err.value.key == "seed"


def test_scenario_unknown_key_rejected():
    with pytest.raises(ValidationError) as err:
        scenario_from_dict(minimal_doc(extra=1))
    assert err.value.key == "extra"


def test_scenario_unknown_check():
    with pytest.raises(ValidationError) as err:
        scenario_from_dict(minimal_doc(checks=["D9"]))
    assert err.value.key == "checks"


def test_scenario_field_validation():
    with pytest.raises(ValidationError) as err:
        scenario_from_dict(minimal_doc(field={"prime": 4}))
    assert err.value.key == "field.prime"


def test_scenario_koszul_needs_parity():
    doc = minimal_doc(grading="nat", universe={"max_degree": 2, "max_dim": 1,
                                               "max_support": 1},
                      sigma={"kind": "koszul"})
    with pytest.raises(ValidationError) as err:
        scenario_from_dict(doc)
    assert err.value.key == "sigma"


def test_scenario_idempotent_checks_need_data():
    with pytest.raises(ValidationError) as err:
        scenario_from_dict(minimal_doc(checks=["E0"]))
    assert err.value.key == "idempotent"


def test_scenario_sliding_needs_braiding():
    doc = minimal_doc(checks=["BL"], idempotent={"kind": "parity_projector"})
    with pytest.raises(ValidationError) as err:
        scenario_from_dict(doc)
    assert err.value.key == "braiding"


def test_scenario_named_lambdas_required_in_lists():
    doc = minimal_doc(**{"lambda": [{"kind": "identity"}]})
    with pytest.raises(ValidationError) as err:
        scenario_from_dict(doc)
    assert err.value.key == "lambda[0].name"


def test_scenario_functor_checks_need_functors():
    with pytest.raises(ValidationError) as err:
        scenario_from_dict(minimal_doc(checks=["SLambda"]))
    assert err.value.key == "functors"


def test_scenario_explicit_universe():
    doc = minimal_doc(universe=[{"0": 1}, {"1": 1}, {"0": 1, "1": 1}])
    sc = scenario_from_dict(doc)
    reports = run_suite(sc)
    assert all(r.passed for r in reports)


def test_load_scenario_file_roundtrip(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(minimal_doc()))
    sc = load_scenario(path)
    assert sc.seed == 7


def test_load_scenario_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ParseError):
        load_scenario(path)


def test_load_scenario_undecodable_file(tmp_path):
    path = tmp_path / "binary.json"
    path.write_bytes(b"\xff\xfe{}")
    with pytest.raises(ParseError):
        load_scenario(path)


def test_load_scenario_missing_file(tmp_path):
    with pytest.raises(ParseError):
        load_scenario(tmp_path / "absent.json")


# ---------------------------------------------------------------------------
# suite runs


def test_run_suite_twist_scenario():
    doc = minimal_doc(
        sigma={"kind": "twist", "braiding": {"kind": "koszul"},
               "idempotent": {"kind": "parity_projector"}},
        checks=["D1", "D2", "D3"],
    )
    reports = run_suite(scenario_from_dict(doc))
    verdicts = [(r.axiom, r.verdict) for r in reports]
    assert verdicts == [("D1", "pass"), ("D2", "pass"), ("D3", "fail")]


def test_run_suite_fail_fast_stops():
    doc = minimal_doc(
        sigma={"kind": "twist", "braiding": {"kind": "koszul"},
               "idempotent": {"kind": "parity_projector"}},
        checks=["D3", "D1"],
    )
    reports = run_suite(scenario_from_dict(doc), fail_fast=True)
    assert [r.axiom for r in reports] == ["D3"]


# ---------------------------------------------------------------------------
# builtin catalog and golden table


def test_catalog_has_eight_entries():
    names = [name for name, _ in builtin_examples()]
    assert len(names) == 8
    assert names == [
        "example-5-1", "example-5-3", "example-5-4", "example-5-5",
        "prop-6-2", "remark-2-3", "thm-4-1", "search-parity-idempotents",
    ]


def test_catalog_matches_golden_table():
    for name, scenario in builtin_examples():
        got = tuple((r.axiom, r.verdict) for r in run_suite(scenario))
        assert got == GOLDEN[name], name


def test_example_5_3_witnesses():
    scenario = dict(builtin_examples())["example-5-3"]
    reports = {r.axiom: r for r in run_suite(scenario)}
    bl = reports["BL"]
    assert bl.witness.factor_degrees == (1, 1, 0)
    assert bl.witness.left_value == Fraction(0)
    assert bl.witness.right_value == Fraction(1)
    assert reports["E2L"].witness.factor_degrees == (1, 1, 0)


def test_examples_runner_all_match():
    _, ok = run_examples("text")
    assert ok


# ---------------------------------------------------------------------------
# determinism


def test_examples_json_byte_identical():
    a, ok_a = run_examples("json")
    b, ok_b = run_examples("json")
    assert ok_a and ok_b
    assert a == b


def test_seed_changes_no_verdict():
    base, _ = run_examples("json")
    other, ok = run_examples("json", seed=424242)
    assert ok  # the golden table still matches under a different seed
    verdicts = lambda text: [
        (c["axiom"], c["verdict"])
        for section in json.loads(text)["catalog"]
        for c in section["report"]["checks"]
    ]
    assert verdicts(base) == verdicts(other)


NATURALITY_DOC = {
    "field": "rational", "grading": "parity",
    "universe": {"max_degree": 1, "max_dim": 1, "max_support": 2},
    "sigma": {"kind": "twist", "braiding": {"kind": "koszul"},
              "idempotent": {"kind": "parity_projector"}},
    "braiding": {"kind": "koszul"}, "idempotent": {"kind": "parity_projector"},
    "functors": [{"name": "U", "kind": "collapse"}],
    "checks": ["D1", "E0", "laxator_naturality", "E2L"],
}


def test_seed_and_samples_change_no_report_byte_but_the_echo():
    # naturality is decided on elementary maps, so neither key reaches a
    # check; the JSON report echoes the seed and hashes the document
    texts, docs = set(), set()
    for seed, samples in ((1, 3), (2, 1), (99, 5)):
        sc = scenario_from_dict(dict(NATURALITY_DOC, seed=seed, samples=samples))
        reports = run_suite(sc)
        texts.add(emit_report(sc, reports, "text"))
        doc = json.loads(emit_report(sc, reports, "json"))
        assert doc.pop("seed") == seed
        assert doc.pop("scenario_hash") == scenario_hash(sc)
        docs.add(json.dumps(doc, sort_keys=True))
    assert len(texts) == 1 and len(docs) == 1
    text = texts.pop()
    assert "[PASS] D1  tuples=81 maps=64" in text
    assert "[PASS] laxator_naturality[U]  tuples=81 maps=64" in text
    assert "[FAIL] E2L" in text


def test_scenario_hash_tracks_document():
    a = scenario_from_dict(minimal_doc())
    b = scenario_from_dict(minimal_doc(seed=8))
    assert scenario_hash(a) != scenario_hash(b)
    assert scenario_hash(a) == scenario_hash(scenario_from_dict(minimal_doc()))


# ---------------------------------------------------------------------------
# reports and witnesses


def test_emit_empty_reports():
    sc = scenario_from_dict(minimal_doc())
    doc = json.loads(emit_report(sc, [], "json"))
    assert doc["checks"] == []
    assert doc["seed"] == 7


def test_witness_scalars_render_exactly():
    doc = minimal_doc(
        grading="nat",
        universe={"max_degree": 2, "max_dim": 1, "max_support": 2},
        **{"lambda": {"kind": "table", "values": ["1", "1/2"]}},
        checks=["D4"],
    )
    reports = run_suite(scenario_from_dict(doc))
    assert reports[0].verdict == "fail"
    rendered = json.loads(emit_report(scenario_from_dict(doc), reports, "json"))
    witness = rendered["checks"][0]["witness"]
    assert witness["left_value"] == "0"
    assert witness["right_value"] == "1/4"
    text = emit_report(scenario_from_dict(doc), reports, "text")
    assert "1/4" in text and "." not in witness["right_value"]


def test_witness_replays_on_singleton_universe():
    scenario = dict(builtin_examples())["example-5-5"]
    report = run_suite(scenario)[0]
    assert report.verdict == "fail"
    witness_universe = sort_universe(report.witness.objects)
    from distmon import character_family, symmetric_braiding
    ds = DistortedStructure(Q, NAT, witness_universe, symmetric_braiding(),
                            character_family(Q, [Q.one, Q.one, Q.zero]))
    replay = check_D4(ds, CheckBudget())
    assert replay.verdict == "fail"
    assert replay.witness.factor_degrees == report.witness.factor_degrees


def test_sliding_witness_replays_on_singleton_universe():
    from distmon import check_idempotent_axiom, koszul_braiding, \
        parity_projector
    scenario = dict(builtin_examples())["example-5-3"]
    report = next(r for r in run_suite(scenario) if r.axiom == "BL")
    witness_universe = sort_universe(report.witness.objects)
    replay = check_idempotent_axiom(Q, parity_projector(), "BL",
                                    witness_universe, CheckBudget(),
                                    beta=koszul_braiding())
    assert replay.verdict == "fail"
    assert replay.witness.factor_degrees == report.witness.factor_degrees


# ---------------------------------------------------------------------------
# CLI


def test_cli_examples_exit_zero(capsys):
    assert cli.main(["examples", "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert json.loads(out)["all_match"] is True


def test_cli_check_pass_and_fail(tmp_path, capsys):
    good = tmp_path / "good.json"
    good.write_text(json.dumps(minimal_doc()))
    assert cli.main(["check", "--scenario", str(good)]) == 0
    capsys.readouterr()
    bad = tmp_path / "fails.json"
    bad.write_text(json.dumps(minimal_doc(
        sigma={"kind": "twist", "braiding": {"kind": "koszul"},
               "idempotent": {"kind": "parity_projector"}},
        checks=["D3"],
    )))
    assert cli.main(["check", "--scenario", str(bad)]) == 1
    out = capsys.readouterr().out
    assert "[FAIL] D3" in out


def test_cli_check_validation_error(tmp_path, capsys):
    path = tmp_path / "invalid.json"
    path.write_text(json.dumps(minimal_doc(extra=1)))
    assert cli.main(["check", "--scenario", str(path)]) == 2
    assert "extra" in capsys.readouterr().err


def test_cli_check_missing_file(capsys):
    assert cli.main(["check", "--scenario", "/nonexistent.json"]) == 2


def test_cli_check_json_deterministic(tmp_path, capsys):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(minimal_doc()))
    assert cli.main(["check", "--scenario", str(path), "--format", "json"]) == 0
    first = capsys.readouterr().out
    assert cli.main(["check", "--scenario", str(path), "--format", "json"]) == 0
    assert capsys.readouterr().out == first


@pytest.mark.parametrize("argv", [["check", "--seed", "1"],
                                  ["check", "--samples", "1"],
                                  ["examples", "--seed", "1"]])
def test_cli_has_no_seed_or_samples_flag(argv, tmp_path, capsys):
    # the document's keys are the only way to set them
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(minimal_doc()))
    if argv[0] == "check":
        argv = argv + ["--scenario", str(path)]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: distmon")
    assert f"unrecognized arguments: {' '.join(argv[1:3])}" in captured.err
    assert "Traceback" not in captured.err


def test_cli_check_prints_both_search_rows(tmp_path, capsys):
    """The idempotent search runs as a ``check``; it has no subcommand."""
    path = tmp_path / "search.json"
    path.write_text(json.dumps(minimal_doc(braiding={"kind": "koszul"},
                                           checks=["search_idempotents"])))
    assert cli.main(["check", "--scenario", str(path)]) == 1
    out = capsys.readouterr().out
    for c11 in (0, 1):
        assert all(f"{axiom}[c11={c11}]" in out for axiom in AXIOMS)
    assert "[FAIL] BL[c11=0]" in out and "[PASS] BL[c11=1]" in out
    with pytest.raises(SystemExit) as exc:
        cli.main(["search-idempotents"])
    assert exc.value.code == 2
