"""The quantifier loop ``reports.decide``: caps, counts, notes, witnesses
and the scalar cross-check."""

from fractions import Fraction

import pytest

from distmon import NAT, graded_map, identity
from distmon import reports
from distmon.reports import Phase, Side, decide, first_difference

from conftest import Q, obj

X = obj(NAT, {0: 1})
Y = obj(NAT, {1: 1})
SAME = Side(identity(Q, X), identity(Q, X))
DIFFERENT = Side(graded_map(Q, X, X, {0: [[Fraction(2)]]}), identity(Q, X))


def instances(sides_per_instance, limit=None):
    """Instances ``((k,), sides)``; pulling instance ``limit + 1`` raises."""
    for k, sides in enumerate(sides_per_instance):
        if limit is not None and k == limit:
            raise AssertionError(f"instance {k + 1} pulled past the cap")
        yield (k,), sides


def test_phase_is_never_pulled_past_its_cap():
    report = decide("ax", Phase(instances([[SAME]] * 10, limit=3), cap=3))
    assert report.passed
    assert report.coverage.object_tuples == 3


def test_failing_instance_is_counted_and_side_note_wins():
    report = decide(
        "ax",
        Phase(instances([[SAME]] * 2), note="first"),
        Phase(instances([[SAME], [SAME, Side(DIFFERENT.lhs, DIFFERENT.rhs,
                                             objects=(X, Y), note="side")]]),
              note="second"))
    assert report.verdict == "fail"
    assert report.coverage.object_tuples == 4
    assert report.coverage.note == "side"
    assert report.witness.axiom == "ax"
    assert report.witness.objects == (X, Y)
    assert (report.witness.left_value, report.witness.right_value) == (2, 1)


def test_failing_side_without_note_takes_the_phase_note():
    report = decide("ax", Phase(instances([[DIFFERENT]]), note="phase"))
    assert report.coverage.note == "phase"
    assert report.witness.objects == (0,)


def test_sampled_phases_count_every_side_evaluated_and_only_those():
    def lazy_sides(n_same, then_fail):
        yield from [SAME] * n_same
        if then_fail:
            yield DIFFERENT
            raise AssertionError("side after the failing one evaluated")

    report = decide("ax", Phase(instances([[SAME, SAME]] * 2)),
                    Phase(instances([lazy_sides(3, False), lazy_sides(2, False)]),
                          sampled=True))
    assert report.passed
    assert (report.coverage.object_tuples, report.coverage.sampled_maps) == (4, 5)

    report = decide("ax", Phase(instances([lazy_sides(1, False),
                                           lazy_sides(1, True)]), sampled=True))
    assert report.verdict == "fail"
    assert (report.coverage.object_tuples, report.coverage.sampled_maps) == (2, 3)


def test_sampled_runs_and_held_sides_count_whole_up_to_the_cap():
    # in a sampled phase an int instance is that many instances with no
    # side, and an int side that many sides that hold; a cap inside a run
    # cuts it there, and nothing past the cap is pulled
    def items(limit):
        seq = [3, ((0,), [2, SAME]), 4, ((1,), [SAME, 5]), 2]
        for k, item in enumerate(seq):
            if k == limit:
                raise AssertionError(f"item {k} pulled past the cap")
            yield item

    for cap, limit, counts in ((None, None, (11, 9)), (0, 0, (0, 0)),
                               (2, 1, (2, 0)), (3, 1, (3, 0)), (4, 2, (4, 3)),
                               (6, 3, (6, 3)), (8, 3, (8, 3)), (9, 4, (9, 9)),
                               (10, 5, (10, 9)), (99, None, (11, 9))):
        report = decide("ax", Phase(items(limit), cap=cap, sampled=True))
        assert report.passed
        assert (report.coverage.object_tuples,
                report.coverage.sampled_maps) == counts, cap

    report = decide("ax", Phase(iter([5, ((0,), [2, DIFFERENT, SAME])]),
                                sampled=True))
    assert report.verdict == "fail"
    assert (report.coverage.object_tuples, report.coverage.sampled_maps) == (6, 3)


def test_disagreeing_scalar_route_raises_naming_the_axiom():
    with pytest.raises(AssertionError, match="D3"):
        decide("D3", Phase(instances([[SAME]])), agrees=lambda k: False)
    with pytest.raises(AssertionError, match="BL"):
        decide("BL", Phase(instances([[DIFFERENT]])), agrees=lambda k: True)
    checked = []
    report = decide("BL", Phase(instances([[SAME], [SAME], [DIFFERENT]])),
                    agrees=lambda k: checked.append(k) or k < 2)
    assert report.verdict == "fail" and checked == [0, 1, 2]


def test_a_run_of_instances_cannot_skip_the_scalar_route():
    # a run has no objects to hand to ``agrees``, so a check with a scalar
    # route must pass every instance as a tuple
    with pytest.raises(AssertionError, match="run of instances skips the scalar route for D3"):
        decide("D3", Phase(iter([((0,), [SAME]), 2])), agrees=lambda k: True)
    assert decide("D3", Phase(iter([2, ((0,), [SAME])]))).coverage.object_tuples == 3


def test_pass_note_is_formatted_with_per_phase_counts():
    report = decide("ax", Phase(instances([[SAME]] * 2)),
                    Phase(instances([[SAME]] * 5), cap=3),
                    note="first={} second={}")
    assert report.coverage.note == "first=2 second=3"
    assert report.coverage.object_tuples == 5


def test_a_side_of_one_map_holds_without_a_scan(monkeypatch):
    """Two sides that are one object are settled without ``first_difference``
    and still count in tuples= and maps=; a value-equal copy is still
    scanned, and a rank-one verdict "unequal" on one map still raises."""
    scanned = []

    def scan(left, right):
        scanned.append((left, right))
        return first_difference(left, right)

    monkeypatch.setattr(reports, "first_difference", scan)
    m = graded_map(Q, X, X, {0: [[Fraction(2)]]})
    copy = graded_map(Q, X, X, {0: [[Fraction(2)]]})
    report = decide("ax", Phase(instances([[Side(m, m), Side(m, m)], [SAME]]),
                                sampled=True),
                    Phase(instances([[Side(m, m, equal=None)]])))
    assert report.passed and scanned == []
    assert (report.coverage.object_tuples, report.coverage.sampled_maps) == (3, 3)
    assert decide("ax", Phase(instances([[Side(m, copy)]]))).passed
    assert scanned == [(m, copy)]
    with pytest.raises(AssertionError, match="rank-one route disagrees"):
        decide("ax", Phase(instances([[Side(m, m, equal=False)]]), sampled=True))
    assert len(scanned) == 1
