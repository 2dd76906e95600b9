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
from rotquad.catalog import golden_twist_spec, homomorphism_pairs, sqrt2_blowup_spec
from rotquad.geometry import DEFAULT_TOL, apply_mobius, refine_path_view
from rotquad.maps import compile_map, twist_chart
from rotquad.report import PASS

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


def test_evaluator_refines_once_per_value(monkeypatch):
    import rotquad.invariant as invariant

    calls = []
    real = invariant.refine_path_view

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(invariant, "refine_path_view", counting)
    ev = RfEvaluator(golden_twist_spec(2))
    assert ev.value(0j, INFINITY, 0.5 + 0j, 3 + 0j) == 2
    assert len(calls) == 1  # the image path; the path's own turning is exact
    assert ev.value(0j, INFINITY, 0.5 + 0j, 3 + 0j) == 2
    assert len(calls) == 1  # a cached value costs nothing
    assert ev.value(0j, INFINITY, 3 + 0j, 4j) == 0
    assert len(calls) == 2


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
    # 14 distinct cached values, and path variants 0, 2 and 4 shared by the
    # path-choice and methods probes
    calls = _count_refinements(monkeypatch)
    points = [0j, INFINITY, 0.5 + 0j, 3 + 0j, 4j]
    records = verify_rf_identities(scenario_by_name("twist-by-2").map_spec, None, points)
    assert all(r.status == PASS for r in records)
    assert len(calls) == 17


class _WorkView:
    """A refinement's view, counting evaluations, certification calls and
    the step applications each of them takes."""

    def __init__(self, view, work):
        self.view, self.work = view, work

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
    monkeypatch.setattr(invariant, "refine_path_view",
                        lambda vertices, view, **k: real(vertices, _WorkView(view, work), **k))
    assert main(["verify"]) == 0
    assert len(calls) == 855
    # read through the whole chain in the normalizing chart, the same
    # refinements took 53,018 point-step and 90,388 enclosure-step
    # applications; a twist's own chart takes one step
    assert work["evaluations"] <= 17_197 and work["certifications"] <= 29_264, work
    assert work["point steps"] <= 40_800 and work["enclosure steps"] <= 69_700, work


def test_exhausted_budget_is_inconclusive_after_one_attempt(monkeypatch):
    import rotquad.invariant as invariant

    calls = []
    real = invariant.refine_path_view

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(invariant, "refine_path_view", counting)
    # the twist by 2 needs 19 certified pieces on its connecting path
    ev = RfEvaluator(golden_twist_spec(2), Tolerances(max_refine_points=12))
    with pytest.raises(InconclusiveComputation, match="max_refine_points=12"):
        ev.value(0j, INFINITY, 0.5 + 0j, 3 + 0j)
    assert len(calls) == 1
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

    def grazing(*args, **kwargs):
        calls.append(1)
        raise PointOnLoop("image path through the origin")

    monkeypatch.setattr(invariant, "refine_path_view", grazing)
    ev = RfEvaluator(golden_twist_spec(2))
    attempts = invariant.JITTER_ATTEMPTS + 1
    for request in (1, 2):
        with pytest.raises(InconclusiveComputation, match="no admissible geometry"):
            ev.value(0j, INFINITY, 0.5 + 0j, 3 + 0j)
        assert len(calls) == request * attempts


def test_points_closer_than_1e_12_have_a_value():
    assert RfEvaluator(Identity()).value(0j, 1e-13, 1, 2) == 0


def test_evaluator_cross_checks_loop_against_lift(monkeypatch):
    import rotquad.invariant as invariant

    real = invariant._lift_turns
    monkeypatch.setattr(invariant, "_lift_turns", lambda *a, **k: real(*a, **k) + 1)
    with pytest.raises(InconclusiveComputation, match="disagree"):
        RfEvaluator(golden_twist_spec(2)).value(0j, INFINITY, 0.5 + 0j, 3 + 0j)


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
