"""Composites shared through a structural family's memo.

D3's two hexagons whisker the same flips, and E2L_cocycle and E2R_cocycle
build the same pair and split forms; a structural family builds each
once and keeps it beside its maps for as long as the family, and so the
scenario, lives.  Sharing must change no report byte, must leave
non-structural families on their unshared path, and must be freed with
the scenario.
"""

import gc
import sys
import tracemalloc
import weakref
from itertools import product

import pytest

from distmon import (
    DistortedStructure, PARITY, check_D3, check_idempotent_axiom,
    emit_report, generate_universe, identity, identity_unit, koszul_braiding,
    parity_projector, run_suite, scenario_from_dict, symmetric_braiding,
    tensor_map, tensor_obj, twist,
)
from distmon.distortion import (
    StructuralFamily, Tabulated, id_tensor, shared, tabulate_binary, tensor_id,
)
from distmon.exactlin import summand_scaling
from distmon.reports import CheckBudget

from conftest import Q

BUDGET = CheckBudget()
UNIVERSE = generate_universe(PARITY, 1, 2, 2)

HEXAGON_B = {
    "field": "rational", "grading": "parity",
    "universe": {"max_degree": 1, "max_dim": 2, "max_support": 2},
    "braiding": {"kind": "koszul"},
    "idempotent": {"kind": "parity_projector"},
    "checks": ["E2L_cocycle", "E2R_cocycle", "E2L", "E2R", "BL", "BR"],
    "seed": 0,
}


def broken_cocycle():
    """A 0/1 summand scaling that is no cocycle: it kills X_0 (x) Y_1."""
    return StructuralFamily(summand_scaling,
                            lambda f, i, j: f.zero if (i, j) == (0, 1) else f.one,
                            "broken")


def report_lines(doc, checks):
    """The text report of each check of ``checks``, run in one scenario,
    and the reports."""
    sc = scenario_from_dict({**doc, "checks": checks})
    reports = run_suite(sc)
    return [emit_report(sc, [r], "text") for r in reports], reports


@pytest.mark.parametrize("sigma, verdict", [
    ({"kind": "koszul"}, "pass"),
    ({"kind": "twist", "braiding": {"kind": "koszul"},
      "idempotent": {"kind": "parity_projector"}}, "fail"),
])
def test_D3_bytes_do_not_depend_on_what_ran_before(sigma, verdict):
    doc = {"field": "rational", "grading": "parity",
           "universe": {"max_degree": 1, "max_dim": 2, "max_support": 2},
           "sigma": sigma, "seed": 0}
    (alone,), (report,) = report_lines(doc, ["D3"])
    assert report.verdict == verdict
    for before in (["D3"], ["D1", "lambda_sigma"]):
        texts, reports = report_lines(doc, before + ["D3"])
        assert texts[-1] == alone
        assert reports[-1] == report


def test_E2R_cocycle_bytes_do_not_depend_on_E2L_cocycle():
    (alone,), (report,) = report_lines(HEXAGON_B, ["E2R_cocycle"])
    texts, reports = report_lines(HEXAGON_B, ["E2L_cocycle", "E2R_cocycle"])
    assert texts[1] == alone and reports[1] == report and report.passed


def test_a_failing_cocycle_witness_does_not_depend_on_its_sibling():
    alone = [check_idempotent_axiom(Q, broken_cocycle(), axiom, UNIVERSE, BUDGET)
             for axiom in ("E2L_cocycle", "E2R_cocycle")]
    e = broken_cocycle()
    after = [check_idempotent_axiom(Q, e, axiom, UNIVERSE, BUDGET)
             for axiom in ("E2L_cocycle", "E2R_cocycle", "E2L_cocycle")]
    assert [r.verdict for r in alone] == ["fail", "fail"]
    assert after == alone + alone[:1]
    assert any(key[0] == "pair" for key in e._memo)


def test_whiskerings_are_built_once_and_identities_are_not_kept():
    sigma = symmetric_braiding()
    x, y = UNIVERSE[-1], UNIVERSE[-2]
    first = tensor_id(sigma, Q, x, y, x)
    assert first == tensor_map(sigma.at(Q, x, y), identity(Q, x))
    assert tensor_id(sigma, Q, x, y, x) is first
    left = id_tensor(sigma, Q, x, x, y)
    assert left == tensor_map(identity(Q, x), sigma.at(Q, x, y))
    assert id_tensor(sigma, Q, x, x, y) is left
    assert ("(x) id", Q, x, y, x) in sigma._memo
    unit = UNIVERSE[0]
    whiskered = tensor_id(sigma, Q, unit, unit, x)
    assert whiskered is identity(Q, tensor_obj(tensor_obj(unit, unit), x))
    assert ("(x) id", Q, unit, unit, x) not in sigma._memo
    built = []
    tab = Tabulated({})
    assert shared(tab, ("k",), lambda: built.append(1) or first) is first
    assert shared(tab, ("k",), lambda: built.append(1) or first) is first
    assert built == [1, 1]


def _closure(universe):
    """The universe and every tensor product of two of its objects."""
    products = (tensor_obj(x, y) for x, y in product(universe, repeat=2))
    return sorted({*universe, *products}, key=lambda o: (len(o.dims), o.dims))


def test_unshared_families_give_the_same_verdicts():
    """Tabulated copies of structural families, and a ComposedBinary twist,
    decide D3 and the twist axioms as the structural family does, on the
    path that builds every composite afresh."""
    pairs = list(product(_closure(UNIVERSE), repeat=2))

    def d3(sigma):
        report = check_D3(DistortedStructure(Q, PARITY, UNIVERSE, sigma,
                                             identity_unit()), BUDGET)
        return report.verdict, report.coverage.object_tuples, report.witness

    twisted = twist(koszul_braiding(), parity_projector())
    composed = twist(tabulate_binary(koszul_braiding(), Q, pairs), parity_projector())
    assert not composed.structural
    for structural, unshared in ((koszul_braiding(), None), (twisted, None),
                                 (twisted, composed)):
        unshared = unshared or tabulate_binary(structural, Q, pairs)
        assert d3(unshared) == d3(structural)

    beta = koszul_braiding()
    for e in (parity_projector(), broken_cocycle()):
        tab = tabulate_binary(e, Q, pairs)
        for axiom in ("E2L_cocycle", "E2R_cocycle", "E2L", "E2R", "BL", "BR"):
            want = check_idempotent_axiom(Q, e, axiom, UNIVERSE, BUDGET, beta=beta)
            got = check_idempotent_axiom(Q, tab, axiom, UNIVERSE, BUDGET, beta=beta)
            assert (got.verdict, got.coverage.object_tuples, got.witness) == \
                (want.verdict, want.coverage.object_tuples, want.witness), axiom


def test_the_memo_is_freed_with_its_scenario():
    """Live traced memory stays flat over fresh hexagon runs: what a
    scenario's families keep dies with the scenario.  "Flat" is within 5%
    of what one live scenario holds, so the test does not depend on which
    module-level caches earlier tests filled."""
    def live():
        gc.collect()
        return tracemalloc.get_traced_memory()[0]

    tracemalloc.start()
    try:
        sc = scenario_from_dict(dict(HEXAGON_B))
        emit_report(sc, run_suite(sc))  # module-level caches fill here
        held = live()
        del sc
        base = live()
        sizes = []
        for _ in range(5):
            sc = scenario_from_dict(dict(HEXAGON_B))
            emit_report(sc, run_suite(sc))
            del sc
            sizes.append(live())
    finally:
        tracemalloc.stop()
    assert held - base > 100_000  # the scenario's memo, measurable
    assert all(abs(s - base) <= 0.05 * (held - base) for s in sizes), (base, sizes)


def test_shared_composites_die_with_their_scenario():
    """Once the scenario is gone, nothing but this test refers to the
    composites its idempotent shared: no cache outlives the scenario."""
    sc = scenario_from_dict(dict(HEXAGON_B))
    run_suite(sc)
    # one entry per map: a form that is the family's own map is shared
    # by every triple with the same tensor objects; interned identities
    # live with their objects
    kept = list({id(m): m for key, m in sc.idempotent._memo.items()
                 if key[0] in ("pair", "split")
                 and m is not identity(Q, m.source)}.values())
    assert kept
    family = weakref.ref(sc.idempotent)
    del sc
    gc.collect()
    assert family() is None
    # as many references as an object held only by a list has
    alone = [object()]
    assert {sys.getrefcount(m) for m in kept} == {sys.getrefcount(m) for m in alone}
