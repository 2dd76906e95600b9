"""The four-point invariant: exactness, symmetry, traces, blow-ups, periodics."""

import cmath
import itertools
import math
import random
import time
from fractions import Fraction

import pytest

from rotquad import (
    Compose,
    Identity,
    INFINITY,
    InconclusiveComputation,
    IsotopyTrace,
    MarkedTuple,
    MixedCoincidence,
    MobiusConjugate,
    MobiusTransform,
    NotFixed,
    PointOnLoop,
    Polyline,
    Power,
    RadialProfile,
    RadialTwist,
    RfEvaluator,
    ScenarioError,
    SpherePoint,
    TangentCondition,
    Tolerances,
    BlowupEstimate,
    concatenate_traces,
    connecting_path,
    eval_map,
    iterate_spec,
    path_turns,
    rf_blowup,
    rf_double_blowup,
    rf_lift,
    rf_loop,
    rf_mixed,
    rf_periodic,
    rf_trace,
    synthesize_twist_trace,
    verify_rf_identities,
)
import rotquad.geometry as geometry
from rotquad.catalog import golden_twist_spec, homomorphism_pairs, sqrt2_blowup_spec
from rotquad.geometry import (
    DEFAULT_TOL,
    EPS_EDGE,
    _CLEAR_ROUNDING,
    apply_mobius,
    dedupe_consecutive,
    point_segment_distance,
    refine_path_view,
)
from rotquad.invariant import _loop_and_lift, _turning
from rotquad.maps import CompiledMap, _charted_steps, compile_map, twist_chart
from rotquad.report import PASS

from test_enclosure import _SCENARIOS, _default_tuples

from helpers import (
    blowup_consistency_spec,
    double_blowup_spec,
    quarter_turn_blowup_spec,
    scenario_by_name,
)

AXIS_TUPLE = MarkedTuple(0j, INFINITY, 0.5 + 0j, 3 + 0j)


def axis_beta(variant: int = 0) -> Polyline:
    return connecting_path(0.5 + 0j, 3 + 0j, avoid=(0j,), variant=variant)


# ---------------------------------------------------------------------------
# tuples


def test_tuple_classification():
    assert AXIS_TUPLE.classify() == "distinct"
    assert MarkedTuple(1 + 0j, 1 + 0j, 2j, 3j).classify() == "degenerate_pair"
    assert MarkedTuple(1 + 0j, 2j, 3j, 3j).classify() == "degenerate_pair"
    assert MarkedTuple(1 + 0j, 2j, 1 + 0j, 3j).classify() == "mixed"
    assert MarkedTuple(1 + 0j, 2j, 3j, 2j).classify() == "mixed"


def test_trace_reads_a_tie_on_one_fixed_circle_as_zero():
    # x1 and x4 both on |z - 5| = 2, where rho = 1: the term between them
    # is 0 whichever way the tie is read, and the rest is g-form
    spec = MobiusConjugate(MobiusTransform(1, -5, 0, 1),
                           RadialTwist(RadialProfile(((1, 0), (3, 2)))))
    for x3, value in ((5.5, 0), (8.5, -1), (5 + 3j, -1)):
        t = MarkedTuple(5 + 2j, INFINITY, x3, 7)
        assert rf_trace(synthesize_twist_trace(spec, t)) == value
        assert RfEvaluator(spec).value(*t.points) == value


# rho is 1 on the circle |z| = 2 and 0 beyond a relative 1e-13 of it
RIDGE = (MobiusTransform(1, 0, 0, 1), RadialProfile(((2 * (1 - 1e-13), 0), (2, 1),
                                                     (2 * (1 + 1e-13), 0))))


@pytest.mark.parametrize("offset, refused", [(0.9e-12, True), (-0.9e-12, True),
                                             (1.1e-12, False), (-1.1e-12, False)])
def test_trace_refuses_a_context_point_within_a_relative_1e_12_of_its_circle(offset, refused):
    # x1 turns 0 times and x4 once: within a relative 1e-12 their order
    # decides the value and is not trusted
    trace = IsotopyTrace((RIDGE,), 2.0 * (1 + offset), INFINITY, 0.5, 2.0)
    if refused:
        with pytest.raises(PointOnLoop):
            rf_trace(trace)
    else:  # classified exactly, on the side it lies on
        assert rf_trace(trace) == (1 if offset < 0 else 0)


# ---------------------------------------------------------------------------
# exactness on the twist family


@pytest.mark.parametrize("m", [-3, -1, 1, 2, 3])
def test_twist_value_is_the_turn_count(m):
    spec = golden_twist_spec(m)
    beta = axis_beta()
    assert rf_loop(spec, AXIS_TUPLE, beta) == m
    assert rf_lift(spec, AXIS_TUPLE, beta) == m


def test_beta_independence():
    spec = golden_twist_spec(-2)
    values = {rf_loop(spec, AXIS_TUPLE, axis_beta(variant=k)) for k in range(3)}
    assert values == {-2}
    # a hand-drawn detour on the other side of the axis
    detour = Polyline((0.5 + 0j, 0.4 - 1.2j, 1.8 - 2.1j, 3.2 - 0.9j, 3 + 0j))
    assert rf_loop(spec, AXIS_TUPLE, detour) == -2


def test_conjugation_invariance():
    spec = golden_twist_spec(2)
    h = MobiusTransform(1, -5, 0, 1)  # z - 5; conjugate lives around 5
    moved = MobiusConjugate(h, spec)
    ev1 = RfEvaluator(spec)
    ev2 = RfEvaluator(moved)
    assert ev1.value(0j, INFINITY, 0.5 + 0j, 3 + 0j) == 2
    assert ev2.value(5 + 0j, INFINITY, 5.5 + 0j, 8 + 0j) == 2


def test_wrap_aliasing_regressions():
    # an image curve wrapping an exact whole number of turns between
    # samples leaves no endpoint-phase trace; these configurations did
    # exactly that before the chord criterion and the seeding budget
    assert RfEvaluator(Power(3, golden_twist_spec(2))).value(
        0j, INFINITY, 0.5 + 0j, 3 + 0j) == 6
    assert RfEvaluator(iterate_spec(golden_twist_spec(-3), 2)).value(
        0j, INFINITY, 0.5 + 0j, 3 + 0j) == -6
    # pair-swapped slots route through the auxiliary finite chart
    assert RfEvaluator(golden_twist_spec(-3)).value(0.5 + 0j, 3 + 0j, 0j, INFINITY) == -3
    assert RfEvaluator(golden_twist_spec(2)).value(0.5 + 0j, 3 + 0j, 0j, INFINITY) == 2


@pytest.mark.parametrize("q", [30, 300])
def test_power_of_a_rotated_disjoint_composite_is_one_pass(q):
    # the power moves inside the rotation and splits over the two disjoint
    # twists; chained, the enclosure of q rotations wraps and the value is
    # inconclusive, and each point takes q passes
    sc = scenario_by_name("compose-disjoint-rotated")
    t = [sc.points[k] for k in ("q1", "q2", "q3", "q4")]
    assert RfEvaluator(sc.map_spec, sc.tolerances, sc.seed).value(*t) == -1
    start = time.perf_counter()
    assert RfEvaluator(Power(q, sc.map_spec), sc.tolerances, sc.seed).value(*t) == -q
    assert time.perf_counter() - start < 1.0


def test_trace_refuses_a_profile_value_without_fractional_bits():
    # 2**53 + 1 turns by additivity, rounded to 2**53 in the summed profile
    coaxial = Compose((RadialTwist(RadialProfile(((1, 0), (2, 2**53)))),
                       RadialTwist(RadialProfile(((1, 0), (2, 1))))))
    with pytest.raises(InconclusiveComputation):
        rf_trace(synthesize_twist_trace(coaxial, AXIS_TUPLE))
    # a context point on a plateau at 2**52 turns
    far = RadialTwist(RadialProfile(((1, 2**52), (2, 2**52 + 1))))
    with pytest.raises(InconclusiveComputation):
        rf_trace(synthesize_twist_trace(far, AXIS_TUPLE))
    steep = RadialTwist(RadialProfile(((1, 0), (2, 2**52 - 1))))
    assert rf_trace(synthesize_twist_trace(steep, AXIS_TUPLE)) == 2**52 - 1


# ---------------------------------------------------------------------------
# the evaluator contract


def test_evaluator_degenerate_pair_is_zero():
    ev = RfEvaluator(golden_twist_spec(2))
    assert ev.value(3 + 0j, 3 + 0j, 0.5 + 0j, 4 + 0j) == 0
    assert ev.value(0j, INFINITY, 4 + 0j, 4 + 0j) == 0


def test_evaluator_rejects_mixed_tuples():
    ev = RfEvaluator(golden_twist_spec(2))
    with pytest.raises(MixedCoincidence):
        ev.value(0j, INFINITY, 0j, 3 + 0j)


def test_evaluator_rejects_unfixed_points():
    ev = RfEvaluator(golden_twist_spec(1))
    with pytest.raises(NotFixed):
        ev.value(0j, INFINITY, 1.5 + 0j, 3 + 0j)


def _count_refiner_calls(monkeypatch) -> list:
    """invariant's refinements, in order, each named by its view: "twist"
    for a twist's own chart (a lone twist, its enclosures centred), "chain"
    for the chain in the normalizing chart."""
    import rotquad.invariant as invariant

    calls = []
    real = invariant.refine_path_view

    def counting(vertices, view, *args, **kwargs):
        calls.append("twist" if view.centred else "chain")
        return real(vertices, view, *args, **kwargs)

    monkeypatch.setattr(invariant, "refine_path_view", counting)
    return calls


def test_evaluator_refines_once_per_value(monkeypatch):
    calls = _count_refiner_calls(monkeypatch)
    ev = RfEvaluator(golden_twist_spec(2))
    assert ev.value(0j, INFINITY, 0.5 + 0j, 3 + 0j) == 2
    assert len(calls) == 1  # the image path; the path's own turning is exact
    assert ev.value(0j, INFINITY, 0.5 + 0j, 3 + 0j) == 2
    assert len(calls) == 1  # a cached value costs nothing
    assert ev.value(0j, INFINITY, 3 + 0j, 4j) == 0
    assert len(calls) == 2
    # both in the twist's own chart (the identity)
    assert calls == ["twist"] * 2


def _count_refinements(monkeypatch) -> list:
    import rotquad.invariant as invariant

    calls = []
    real = invariant.RfEvaluator._refined

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(invariant.RfEvaluator, "_refined", counting)
    return calls


def test_identity_suite_refines_the_first_path_once(monkeypatch):
    # 14 distinct cached values, and path variants 2 and 4 for the
    # path-choice probe; variant 0, which it shares with the methods probe,
    # is the refinement the first value made
    calls = _count_refinements(monkeypatch)
    points = [0j, INFINITY, 0.5 + 0j, 3 + 0j, 4j]
    records = verify_rf_identities(scenario_by_name("twist-by-2").map_spec, None, points)
    assert all(r.status == PASS for r in records)
    assert len(calls) == 16


class _WorkView:
    """A refinement's view, counting evaluations, certification calls and
    the step applications each of them takes; centred as the view is."""

    def __init__(self, view, work):
        self.view, self.work, self.centred = view, work, view.centred

    def __call__(self, z):
        self.work["evaluations"] += 1
        self.work["point steps"] += self.view.applications
        return self.view(z)

    def enclose(self, disk):
        self.work["certifications"] += 1
        self.work["enclosure steps"] += self.view.applications
        return self.view.enclose(disk)


def test_verify_battery_refinement_count(monkeypatch, capsys):
    import rotquad.invariant as invariant
    from rotquad.cli import main

    calls = _count_refinements(monkeypatch)
    work = dict.fromkeys(("evaluations", "certifications", "point steps", "enclosure steps"), 0)
    real = invariant.refine_path_view
    monkeypatch.setattr(invariant, "refine_path_view", lambda vertices, view, *a, **k: real(
        vertices, _WorkView(view, work), *a, **k))
    assert main(["verify"]) == 0
    assert len(calls) == 828
    # read through the whole chain in the normalizing chart, the same
    # refinements took 53,018 point-step and 90,388 enclosure-step
    # applications; a twist's own chart takes one step.  There a rejected
    # piece's midpoint image is its enclosure's centre, so a refinement
    # evaluates its path's vertices alone: the 855 refinements the
    # battery made before it shared the suite's first took 17,197
    # evaluations and 29,264 certifications
    assert work["evaluations"] <= 9_782 and work["certifications"] <= 28_452, work
    assert work["point steps"] <= 32_824 and work["enclosure steps"] <= 68_012, work


def test_exhausted_budget_is_inconclusive_after_one_attempt(monkeypatch):
    calls = _count_refiner_calls(monkeypatch)
    # the twist by 2 needs 19 certified pieces on its connecting path, in
    # its own chart
    ev = RfEvaluator(golden_twist_spec(2), Tolerances(max_refine_points=12))
    with pytest.raises(InconclusiveComputation, match="max_refine_points=12"):
        ev.value(0j, INFINITY, 0.5 + 0j, 3 + 0j)
    assert calls == ["twist"]
    # the failure is cached like a value: asking again refines nothing
    with pytest.raises(InconclusiveComputation, match="max_refine_points=12"):
        ev.value(0j, INFINITY, 0.5 + 0j, 3 + 0j)
    assert len(calls) == 1


def test_an_edge_that_cannot_be_refined_is_inconclusive_after_one_attempt(monkeypatch):
    import rotquad.invariant as invariant

    calls = []
    real = invariant.refine_path_view

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(invariant, "refine_path_view", counting)
    # the millionth power of the rotated disjoint twists turns too steeply
    # for any path; jitter does not change that
    sc = scenario_by_name("compose-disjoint-rotated")
    ev = RfEvaluator(Power(10**6, sc.map_spec))
    for _ in range(2):
        with pytest.raises(InconclusiveComputation, match="cannot be refined further; not retried"):
            ev.value(*list(sc.points.values())[:4])
        assert len(calls) == 1  # the failure is cached like a value


def test_evaluator_walks_each_chart_once_and_checks_each_point_once(monkeypatch):
    import rotquad.invariant as invariant

    walked, checked, compiled = [], [], []
    real_walk, real_check, real_compiled = (invariant._charted_steps, invariant._require_fixed,
                                            invariant.CompiledMap)

    def walk(spec):
        walked.append(spec)
        return real_walk(spec)

    def require_fixed(f, points, tol):
        checked.extend((f, p) for p in points)
        return real_check(f, points, tol)

    def compile_steps(steps):
        compiled.append(len(steps))
        return real_compiled(steps)

    monkeypatch.setattr(invariant, "_charted_steps", walk)
    monkeypatch.setattr(invariant, "_require_fixed", require_fixed)
    monkeypatch.setattr(invariant, "CompiledMap", compile_steps)
    points = [0j, INFINITY, 0.5 + 0j, 3 + 0j, 4j]
    records = verify_rf_identities(scenario_by_name("twist-by-2").map_spec, None, points)
    assert all(r.status == PASS for r in records)
    # the five evaluators (the map, its inverse and three powers) each walk
    # their spec once; the map's evaluator walks it once more in each of the
    # two precharts its tuples with infinity third or fourth need
    assert len(walked) == len(set(walked)) == 7
    assert sum(isinstance(spec, MobiusConjugate) for spec in walked) == 2
    assert len(checked) == len(set(checked))
    # each walk compiles its steps for the fixed-point checks (a twist, or
    # a conjugated twist in a prechart), and each of the five own charts
    # its one twist, which every tuple with x3 and x4 finite is refined
    # through; only the two precharted tuples compile a chain of their own,
    # the steps and then the normalizing chart.  Read there, each of the
    # 17 refinements compiled a chain: 24 compiles in all
    assert sorted(compiled) == [1] * 10 + [3, 3, 4, 4]


def test_geometric_failures_are_retried_on_every_request(monkeypatch):
    import rotquad.invariant as invariant

    calls = []

    def grazing(vertices, view, *args, **kwargs):
        calls.append(view.centred)
        raise PointOnLoop("image path through the origin")

    monkeypatch.setattr(invariant, "refine_path_view", grazing)
    ev = RfEvaluator(golden_twist_spec(2))
    attempts = invariant.JITTER_ATTEMPTS + 1
    for request in (1, 2):
        with pytest.raises(InconclusiveComputation, match="no admissible geometry"):
            ev.value(0j, INFINITY, 0.5 + 0j, 3 + 0j)
        assert len(calls) == request * attempts
    # the tuple is read in the twist's own chart
    assert all(calls)


def test_points_closer_than_1e_12_have_a_value():
    assert RfEvaluator(Identity()).value(0j, 1e-13, 1, 2) == 0


def test_evaluator_cross_checks_loop_against_lift(monkeypatch):
    import rotquad.invariant as invariant

    # one more turn on the image path's own sum, the lift's, alone
    real = invariant.closed_path_turns
    monkeypatch.setattr(invariant, "closed_path_turns",
                        lambda *a: (lambda loop, lift: (loop, lift + math.tau))(*real(*a)))
    with pytest.raises(InconclusiveComputation, match="disagree"):
        RfEvaluator(golden_twist_spec(2)).value(0j, INFINITY, 0.5 + 0j, 3 + 0j)


def test_identity_suite_reads_only_a_first_attempt_refinement_again(monkeypatch):
    import rotquad.invariant as invariant

    # the suite's first value fails its first attempt once, and its first
    # retry (variant 1, jittered) refines: the probes must refine variant 0
    # anew, not read the retry's refinement
    variants = []
    real = invariant.RfEvaluator._refined

    def refined(ev, t, beta=None, variant=0, jitter=0j):
        variants.append(variant)
        if len(variants) == 1:
            raise PointOnLoop("a graze on the first attempt")
        return real(ev, t, beta, variant, jitter)

    monkeypatch.setattr(invariant.RfEvaluator, "_refined", refined)
    points = [0j, INFINITY, 0.5 + 0j, 3 + 0j, 4j]
    records = verify_rf_identities(scenario_by_name("twist-by-2").map_spec, None, points)
    assert all(r.status == PASS for r in records)
    # the failed attempt, the retry, the 13 other values, and the probes'
    # variants 0, 2 and 4
    assert variants == [0, 1] + [0] * 13 + [0, 2, 4]


def test_identity_suite_all_pass_on_twist():
    points = [0j, INFINITY, 0.5 + 0j, 3 + 0j, 4j]
    records = verify_rf_identities(golden_twist_spec(2), None, points)
    assert records, "suite produced no records"
    assert all(r.status == PASS for r in records)
    names = {r.name for r in records}
    for expected in ("cyclic_sum_zero", "swap_first_pair_negates",
                     "swap_second_pair_negates", "pair_swap_invariant",
                     "split_first_pair_through_w", "split_second_pair_through_w",
                     "repeated_pair_gives_zero", "inverse_map_negates",
                     "iterate_scales_linearly", "path_choice_irrelevant",
                     "methods_agree"):
        assert expected in names


# ---------------------------------------------------------------------------
# loop and lift read in one pass off one refinement


def reference_loop_and_lift(forward, base, ends, punctures):
    """The loop's and the image path's turnings less base, each its own
    sums (path_turns over the loop without repeated points, then over the
    image path), after the point-on-loop check of every loop edge."""
    loop = dedupe_consecutive([ends[0], *forward, ends[1]])
    for p in punctures:
        if p is not None and any(point_segment_distance(p, a, b) <= EPS_EDGE
                                 for a, b in zip(loop, loop[1:])):
            raise PointOnLoop(f"reference point {p!r} lies on a loop edge")

    def turning(points):
        first, second = punctures
        total = 0.0 if first is None else path_turns(points, first)
        return total if second is None else total - path_turns(points, second)

    return turning(loop) - base, turning(forward) - base


def _reading(read, *args):
    """A reading's floats (repr: exact, signed zeros included), or the
    class and message of what it raised."""
    try:
        return repr(read(*args))
    except PointOnLoop as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("punctures", [(0j, None), (None, 0.2 + 0.1j), (0.1j, 2 + 0j)])
def test_loop_and_lift_sum_as_the_separate_readings(punctures):
    # closing edges that turn, and a repeated point on the image path
    forward = [1.05 + 0.02j, 1j, -1 + 0j, -1 + 0j, -0.3j, 0.9 - 0.2j]
    ends = (1 + 0j, 0.95 - 0.1j)
    got = _loop_and_lift(forward, 0.25, ends, punctures)
    assert repr(got) == repr(reference_loop_and_lift(forward, 0.25, ends, punctures))
    assert got[0] != got[1]


@pytest.mark.parametrize("on", [(1 + 0j, 1.05 + 0.02j), (0.9 - 0.2j, 0.95 - 0.1j)])
def test_a_puncture_on_a_closing_edge_is_on_the_loop(on):
    # the refinement checked the chords; the closing edges are checked here
    forward = [1.05 + 0.02j, 1j, -1 + 0j, -0.3j, 0.9 - 0.2j]
    ends = (1 + 0j, 0.95 - 0.1j)
    punctures = (0.5 * (on[0] + on[1]), None)
    with pytest.raises(PointOnLoop):
        reference_loop_and_lift(forward, 0.0, ends, punctures)
    with pytest.raises(PointOnLoop):
        _loop_and_lift(forward, 0.0, ends, punctures)


def test_every_catalog_refinement_reads_as_the_separate_readings():
    read = 0
    for sc in _SCENARIOS:
        for t in _default_tuples(sc):
            ev = RfEvaluator(sc.map_spec, sc.tolerances, sc.seed)
            refinement = ev._refined(t)
            assert (_reading(_loop_and_lift, *refinement)
                    == _reading(reference_loop_and_lift, *refinement))
            read += ev._in_twist_chart(t) is not None
    assert read > 0  # some read in a twist's own chart


def _twist_by_zero():
    """A twist's compiled map, the twist by 0: every point and disk is its own image."""
    return CompiledMap(_charted_steps(RadialTwist(RadialProfile(((1.0, 0.0),))))[1])


def _measured(monkeypatch) -> list:
    """The (puncture, a, b) of each chord refine_path_view measures, in order."""
    checked = []
    real = geometry.point_segment_distance
    monkeypatch.setattr(geometry, "point_segment_distance",
                        lambda p, a, b: checked.append((p, a, b)) or real(p, a, b))
    return checked


def _unmeasured(monkeypatch, vertices, view, punctures) -> list:
    """refine_path_view's points with its chord check off: every chord
    measures as far from the punctures."""
    with monkeypatch.context() as m:
        m.setattr(geometry, "point_segment_distance", lambda p, a, b: math.inf)
        return refine_path_view(vertices, view, punctures=punctures)


def test_a_disk_within_the_rounding_term_of_clearing_is_checked(monkeypatch):
    view = _twist_by_zero()
    _, r, _ = view.enclose((0j, 0.5625 * 2, False))
    # the puncture clears the one piece's disk by EPS_EDGE and half the
    # rounding term, so that disk does not certify the chord clear
    y = r + EPS_EDGE + 0.5 * _CLEAR_ROUNDING * (3 * r)
    punctures = (y * 1j, None)
    checked = _measured(monkeypatch)
    forward = refine_path_view([-1 + 0j, 1 + 0j], view, punctures=punctures)
    assert forward == [-1 + 0j, 1 + 0j] and checked == [(y * 1j, -1 + 0j, 1 + 0j)]
    refinement = (forward, 0.0, (-1 + 0j, 1 + 0j), punctures)
    assert _reading(_loop_and_lift, *refinement) == _reading(reference_loop_and_lift, *refinement)
    # a disk that clears it by more is not checked
    checked.clear()
    forward = refine_path_view([-1 + 0j, 1 + 0j], view, punctures=(2 * y * 1j, None))
    assert forward == [-1 + 0j, 1 + 0j] and checked == []


class _DiskView:
    """The identity, every disk enclosed in one fixed disk; not centred."""

    def __init__(self, disk):
        self.disk = disk

    def __call__(self, z):
        return z

    def enclose(self, disk):
        return self.disk


class _Shift:
    """z -> z - s, and each disk moved alike; not centred."""

    def __init__(self, s):
        self.s = s

    def __call__(self, z):
        return z - self.s

    def enclose(self, disk):
        c, r, outside = disk
        return c - self.s, r, outside


def test_a_disk_that_clears_by_exactly_the_margin_is_checked(monkeypatch):
    # in floats the puncture y i clears the disk |w| <= r by EPS_EDGE and
    # the rounding term exactly, not by more, so the chord is measured
    r, y = 1.5e-9, 2.500000000000065e-09
    assert y - r == EPS_EDGE + _CLEAR_ROUNDING * y + _CLEAR_ROUNDING * (y + r)
    checked = _measured(monkeypatch)
    ends = [-0.5 * r + 0j, 0.5 * r + 0j]
    assert refine_path_view(ends, _DiskView((0j, r, False)), punctures=(y * 1j, None)) == ends
    assert checked == [(y * 1j, *ends)]


@pytest.mark.parametrize("height", [5e-10, 1e-9, 1.01e-9, 3e-9, 1e-8])
@pytest.mark.parametrize("second", [False, True])
def test_a_puncture_near_a_certified_chord_is_on_the_loop_as_before(height, second, monkeypatch):
    # bisected until each disk misses the puncture, a piece's chord can
    # still pass within EPS_EDGE of it: the refinement and the one-pass
    # reading raise PointOnLoop exactly where the separate readings of the
    # same pieces do, whichever puncture it is
    view, vertices = _twist_by_zero(), [-1 + 0j, 1 + 0j]
    near = 0.25 + height * 1j
    punctures = (3j, near) if second else (near, None)
    base, ends = _turning(vertices, punctures), (-1 + 0j, 1 + 0j)
    forward = _unmeasured(monkeypatch, vertices, view, punctures)
    got = _reading(lambda: _loop_and_lift(refine_path_view(vertices, view, punctures=punctures),
                                          base, ends, punctures))
    assert got == _reading(reference_loop_and_lift, forward, base, ends, punctures)
    assert isinstance(got, tuple) == (height <= EPS_EDGE)


@pytest.mark.parametrize("height", [5e-10, 1e-9, 1.01e-9, 3e-9, 1e-8])
def test_a_puncture_near_a_chain_chord_is_on_the_loop_as_before(height, monkeypatch):
    # the chain's view is not centred and its punctures are 0 and infinity:
    # here a translation, whose image path passes height below 0
    near = 0.25 + height * 1j
    view, vertices, punctures = _Shift(near), [-1 + 0j, 1 + 0j], (0j, None)
    ends = (-1 - near, 1 - near)
    forward = _unmeasured(monkeypatch, vertices, view, punctures)
    assert len(forward) > 2 and not hasattr(view, "centred")
    got = _reading(lambda: _loop_and_lift(refine_path_view(vertices, view), 0.0, ends, punctures))
    assert got == _reading(reference_loop_and_lift, forward, 0.0, ends, punctures)
    assert isinstance(got, tuple) == (height <= EPS_EDGE)


# ---------------------------------------------------------------------------
# traces


def test_trace_method_agrees_and_concatenates():
    spec = golden_twist_spec(2)
    trace = synthesize_twist_trace(spec, AXIS_TUPLE)
    assert rf_trace(trace) == 2
    # running the isotopy twice concatenates to the square of the map
    assert rf_trace(concatenate_traces(trace, trace)) == 4


def test_trace_is_zero_when_nothing_moves():
    assert rf_trace(synthesize_twist_trace(golden_twist_spec(0), AXIS_TUPLE)) == 0


def test_trace_unavailable_for_disjoint_composition():
    a = RadialTwist(RadialProfile(((0.5, 0.0), (1.0, 1.0))))
    b = MobiusConjugate(MobiusTransform(1, -10, 0, 1),
                        RadialTwist(RadialProfile(((0.5, 0.0), (1.0, 1.0)))))
    spec = Compose((a, b))
    t = MarkedTuple(0j, INFINITY, 10 + 0j, 3 + 0j)
    with pytest.raises(ScenarioError):
        synthesize_twist_trace(spec, t)


def test_a_scaled_conjugate_composition_is_one_twist_in_affine_charts():
    # f o g of the pair whose g is a twist conjugated by z -> 3z: in every
    # affine chart, loop and lift (cross-checked by the evaluator), the
    # trace and f + g agree
    pair = next(p for p in homomorphism_pairs() if p.name == "twist-with-scaled-conjugate")
    rng = random.Random(5)
    for _ in range(3):
        a = cmath.rect(2.0 ** rng.uniform(-1, 1), rng.uniform(0, math.tau))
        H = MobiusTransform(1, -complex(rng.uniform(-3, 3), rng.uniform(-3, 3)), 0, a)
        f, g = MobiusConjugate(H, pair.f), MobiusConjugate(H, pair.g)
        fg = Compose((f, g))
        assert twist_chart(fg) is not None
        points = [apply_mobius(H.inverse(), p) for p in pair.points]
        for t in rng.sample(list(itertools.permutations(points, 4)), 6):
            t = MarkedTuple(*t)
            value = RfEvaluator(fg).value(*t.points)
            assert value == rf_trace(synthesize_twist_trace(fg, t))
            assert value == RfEvaluator(f).value(*t.points) + RfEvaluator(g).value(*t.points)


def test_trace_concatenation_requires_matching_context():
    t2 = MarkedTuple(0j, INFINITY, 0.5 + 0j, 4j)
    tr1 = synthesize_twist_trace(golden_twist_spec(2), AXIS_TUPLE)
    tr2 = synthesize_twist_trace(golden_twist_spec(2), t2)
    with pytest.raises(ValueError):
        concatenate_traces(tr1, tr2)


# ---------------------------------------------------------------------------
# periodic points


def test_periodic_on_fixed_points_reduces_to_plain_value():
    spec = golden_twist_spec(2)
    assert rf_periodic(spec, 3, AXIS_TUPLE, axis_beta()) == Fraction(2)
    assert rf_periodic(spec, 1, AXIS_TUPLE, axis_beta()) == Fraction(2)


def test_periodic_identity_is_zero():
    spec = Identity(marks=(0j, 1 + 0j, 2j, 3 + 0j))
    t = MarkedTuple(0j, 1 + 0j, 2j, 3 + 0j)
    assert rf_periodic(spec, 5, t, connecting_path(2j, 3 + 0j)) == Fraction(0)


def test_periodic_two_cycle():
    # half turn everywhere composed with a ramp: points of the inner disk
    # form genuine 2-cycles, and the tuple is only fixed by the square
    half = RadialTwist(RadialProfile(((1.0, 0.5),)))
    ramp = RadialTwist(RadialProfile(((1.0, 0.0), (2.0, 1.0))))
    spec = Compose((half, ramp))
    assert abs(eval_map(spec, 0.5 + 0j).value - (-0.5 + 0j)) < 1e-12

    t_orbit = MarkedTuple(0.5 + 0j, -0.5 + 0j, 3 + 0j, 4j)
    beta = connecting_path(3 + 0j, 4j, avoid=(0.5 + 0j, -0.5 + 0j))
    v1 = rf_periodic(spec, 2, t_orbit, beta)
    assert isinstance(v1, Fraction) and v1.denominator in (1, 2)
    assert v1 == Fraction(0)

    t_axis = MarkedTuple(0j, INFINITY, 0.5 + 0j, 3 + 0j)
    v2 = rf_periodic(spec, 2, t_axis, axis_beta())
    assert v2 == Fraction(1)  # R of the square is 2, halved


def test_periodic_rejects_nonperiodic_points():
    spec = golden_twist_spec(1)
    # rho(1.3) = 0.3, so 1.3 returns only after ten iterates, not two
    bad = MarkedTuple(0j, INFINITY, 1.3 + 0j, 3 + 0j)
    beta = connecting_path(1.3 + 0j, 3 + 0j, avoid=(0j,))
    with pytest.raises(NotFixed):
        rf_periodic(spec, 2, bad, beta)
    with pytest.raises(ValueError):
        rf_periodic(spec, 0, AXIS_TUPLE, axis_beta())


# ---------------------------------------------------------------------------
# blow-ups


def test_blowup_quarter_turn():
    est = rf_blowup(quarter_turn_blowup_spec(), 0j, INFINITY, 3 + 0j, n_iters=400)
    assert isinstance(est, BlowupEstimate)
    assert est.error_bound == pytest.approx(2 / 400)
    assert abs(est.value - (-0.25)) <= est.error_bound


def test_blowup_bound_tightens_and_extrapolation_marks_itself():
    spec = sqrt2_blowup_spec()
    rough = rf_blowup(spec, 0j, INFINITY, 3 + 0j, n_iters=200)
    fine = rf_blowup(spec, 0j, INFINITY, 3 + 0j, n_iters=2000)
    exact = -(2.0 ** 0.5 - 1.0)
    assert abs(rough.value - exact) <= rough.error_bound
    assert abs(fine.value - exact) <= fine.error_bound
    assert fine.error_bound < rough.error_bound
    extr = rf_blowup(spec, 0j, INFINITY, 3 + 0j, n_iters=2000, extrapolate=True)
    assert extr.extrapolated
    assert abs(extr.value - exact) <= extr.error_bound


def _inline_seeded_blowup(spec, n_iters: int) -> float:
    """rf_blowup at p = 0, x2 = infinity, x4 = 3 (the identity chart), with
    the radial path seeded inline by the former seed rule: 32 (2 + the
    iterate's total twist, rounded up) evenly spaced points."""
    iterated = iterate_spec(spec, n_iters)
    y4 = 3 + 0j
    bps = spec.profile.scaled(n_iters).breakpoints
    twist = sum(abs(b[1] - a[1]) for a, b in zip(bps, bps[1:]))
    n = int(min(DEFAULT_TOL.max_refine_points // 4, 32 * (2 + math.ceil(twist))))
    start = y4 * 1e-6
    beta = [start + (y4 - start) * (j / n) for j in range(n + 1)]
    forward = refine_path_view(beta, compile_map(iterated), tol=DEFAULT_TOL)
    return (path_turns(forward) - path_turns(beta)) / math.tau / n_iters


@pytest.mark.parametrize("spec", [sqrt2_blowup_spec(), quarter_turn_blowup_spec()],
                         ids=["sqrt2", "quarter"])
@pytest.mark.parametrize("n_iters", [250, 2000])
def test_blowup_estimate_is_bit_identical_to_inline_seeding(spec, n_iters):
    # on a rigid rotation's axis the n-th iterate's estimate is the limit
    # itself, which rf_blowup reads off the profile, and the one-refinement
    # rule for maps that do not reduce reads from one refinement of the map
    import rotquad.invariant as invariant

    seeded = _inline_seeded_blowup(spec, n_iters)
    est = rf_blowup(spec, 0j, INFINITY, 3 + 0j, n_iters)
    assert abs(est.value - seeded) <= 1e-12
    refined = invariant._refined_limit(spec, SpherePoint(0j), INFINITY, SpherePoint(3 + 0j),
                                       DEFAULT_TOL)
    assert abs(refined - seeded) <= 1e-12


def test_blowup_validation():
    spec = quarter_turn_blowup_spec()
    with pytest.raises(ValueError):
        rf_blowup(spec, 0j, INFINITY, 3 + 0j, n_iters=0)
    with pytest.raises(ValueError):
        rf_blowup(spec, 0j, 0j, 3 + 0j, n_iters=10)
    with pytest.raises(NotFixed):
        rf_blowup(spec, 0j, INFINITY, 1.5 + 0j, n_iters=10)


def test_blowup_requires_rigid_germ():
    # rho ramps through an integer at radius 1.5: that circle is fixed but
    # its germ is a shear, so the tangent dynamics cannot be certified
    spec = RadialTwist(RadialProfile(((1.0, 0.0), (2.0, 2.0))), marks=(1.5 + 0j, 3 + 0j))
    with pytest.raises(TangentCondition):
        rf_blowup(spec, 1.5 + 0j, INFINITY, 3 + 0j, n_iters=100)


def test_double_blowup_golden_and_symmetry():
    spec = double_blowup_spec()
    assert rf_double_blowup(spec, 0j, INFINITY) == pytest.approx(0.75, abs=1e-12)
    assert rf_double_blowup(spec, INFINITY, 0j) == pytest.approx(0.75, abs=1e-12)
    assert rf_double_blowup(Identity(marks=(0j,)), 0j, INFINITY) == 0.0


def test_double_blowup_iterate_additivity():
    spec = double_blowup_spec()
    assert rf_double_blowup(Power(2, spec), 0j, INFINITY) == pytest.approx(1.5, abs=1e-12)
    assert rf_double_blowup(iterate_spec(spec, 2), 0j, INFINITY) == pytest.approx(1.5, abs=1e-12)


def test_double_blowup_compiles_its_spec_once(monkeypatch):
    import rotquad.maps as maps

    calls = []
    real = maps.compile_map
    monkeypatch.setattr(maps, "compile_map", lambda *a, **k: calls.append(a) or real(*a, **k))
    assert rf_double_blowup(golden_twist_spec(2), 0j, INFINITY) == 2.0
    assert rf_double_blowup(golden_twist_spec(2), 0.5 + 0j, 3 + 0j) == -2.0
    assert len(calls) == 2  # one per double blow-up: the fixed-point check


def test_double_blowup_compiles_each_part_once(monkeypatch):
    import rotquad.maps as maps

    calls = []
    real = maps.compile_map
    monkeypatch.setattr(maps, "compile_map", lambda *a, **k: calls.append(a) or real(*a, **k))
    away = MobiusConjugate(MobiusTransform(1, -10, 0, 1),
                           RadialTwist(RadialProfile(((0.5, -0.375), (1.0, 0.0)))))
    spec = Compose((golden_twist_spec(2), away))
    assert twist_chart(spec) is None  # walked: its two parts are checked fixed at each germ
    for request in (1, 2):
        assert rf_double_blowup(spec, 0j, 10 + 0j) == -1.625
        # the fixed-point check, then each part once for both germs; a
        # call keeps no compiled part for the next
        assert [a[0] for a in calls] == [spec, *spec.parts] * request


def test_double_blowup_rejects_shear_germ():
    ledge = RadialTwist(RadialProfile(((1.0, 1.0), (2.0, 1.0), (4.0, 3.0))),
                        marks=(3 + 0j,))
    with pytest.raises(TangentCondition):
        rf_double_blowup(ledge, 0j, 3 + 0j)


def test_blowup_consistency_between_forms():
    # single blow-up with the fourth point on the outer plateau must agree
    # with the double blow-up, within the reported bound
    spec = blowup_consistency_spec()
    est = rf_blowup(spec, 0j, INFINITY, 3 + 0j, n_iters=4000, extrapolate=True)
    both = rf_double_blowup(spec, 0j, INFINITY)
    assert abs(est.value - both) <= est.error_bound


LEDGE = RadialTwist(RadialProfile(((1.0, 1.0), (2.0, 1.0), (4.0, 3.0))),
                    marks=(3 + 0j, 5 + 0j))


@pytest.mark.parametrize(
    "pattern, expected",
    [
        ((0j, INFINITY, 0j, 5 + 0j), 2.0),          # x1 = x3
        ((0j, INFINITY, 3 + 0j, INFINITY), 1.0),    # x2 = x4
        ((0j, INFINITY, 5 + 0j, 0j), -2.0),         # x1 = x4
        ((0j, INFINITY, INFINITY, 3 + 0j), -1.0),   # x2 = x3
        ((0j, INFINITY, 0j, INFINITY), 2.0),        # both pairs
        ((0j, INFINITY, INFINITY, 0j), -2.0),       # both pairs, swapped
    ],
)
def test_mixed_patterns_route_to_signed_blowups(pattern, expected):
    t = MarkedTuple(*pattern)
    assert t.classify() == "mixed"
    out = rf_mixed(LEDGE, t, n_iters=2000)
    if isinstance(out, BlowupEstimate):
        assert abs(out.value - expected) <= max(out.error_bound, 1e-9)
    else:
        assert out == pytest.approx(expected, abs=1e-12)


def test_mixed_rejects_distinct_tuples():
    with pytest.raises(ValueError):
        rf_mixed(LEDGE, MarkedTuple(0j, INFINITY, 3 + 0j, 5 + 0j))


# ---------------------------------------------------------------------------
# powers that chain their steps


def _chained_power(q: int) -> Power:
    # two twists about 0 and 0.5 neither reduce to one twist nor commute,
    # so each evaluation of the power runs q passes of their four steps
    twist = RadialTwist(RadialProfile(((1, 0.25), (2, 0))))
    return Power(q, Compose((twist, MobiusConjugate(MobiusTransform(1, -0.5, 0, 1), twist))))


def test_a_chained_power_past_the_budget_is_refused_before_evaluating():
    start = time.perf_counter()
    ev = RfEvaluator(_chained_power(10**7))
    for _ in range(2):  # the refusal is cached like a value
        with pytest.raises(InconclusiveComputation,
                           match="40000000 step applications, more than max_refine_points=1048576"):
            ev.value(5, -5, 6j, -6j)
    assert time.perf_counter() - start < 1.0
    # within the budget the same map evaluates
    assert compile_map(_chained_power(3)).applications == 12
    assert RfEvaluator(_chained_power(3)).value(5, -5, 6j, -6j) == 0
