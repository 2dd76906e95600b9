"""Blow-ups at their limit against the refined estimates they replace.

rf_blowup reads R(p, x2, p, x4) at its limit.  A spec that twist_chart
reduces to (H, rho) is read from its one walk, as the paper's g-form at
(p, x2, p, x4) with rho at p unrounded: for a twist whose axis the blow-up
chart fixes, that is rho at x4 less rho at p.  Any other spec is read from
one certified refinement of the map itself, from a point inside p's rigid
zone.  The former estimate refined the image of the radial path from
x4 * 1e-6 to x4 under the n-th iterate and divided its extra turning by n;
reference_refined_wrapping keeps a copy of it.  Every limit lies within
the 2/n bound of that reference, for x2 on and off the twist's axis, for
twists that reduce and compositions that do not, in both orientations and
under three conjugations; where the spec reduces, the one refinement and
the g-form agree within 1e-12.  The profile _STEEP_AT_AXIS is excepted:
the reference's path starts outside p's rigid zone there and misses the
limit by 0.5.  Last, the invariant's identities at tuples with a repeated
point tie the blow-ups to the integers around them.
"""

import cmath
import math

import pytest

from rotquad import (
    INFINITY,
    BlowupEstimate,
    Compose,
    Inverse,
    MarkedTuple,
    MobiusConjugate,
    MobiusTransform,
    NotFixed,
    Power,
    RadialProfile,
    RadialTwist,
    RfEvaluator,
    SpherePoint,
    TangentCondition,
    rf_blowup,
    rf_double_blowup,
    rf_mixed,
)
from rotquad import invariant, maps
from rotquad.catalog import sqrt2_blowup_spec
from rotquad.geometry import (
    DEFAULT_TOL,
    MOBIUS_IDENTITY,
    apply_mobius,
    as_sphere_point,
    mobius_normalize,
    path_turns,
    refine_path_view,
)
from rotquad.maps import compile_map, iterate_spec, twist_chart

ALPHAS = (0.125, math.sqrt(2.0) - 1.0, 0.875)


def reference_refined_wrapping(spec, h, y4: complex, n_iters: int, tol=DEFAULT_TOL) -> float:
    """The former blow-up estimate: the extra turns of the n-th iterate's
    image of the radial path from y4 * 1e-6 to y4, in the chart h
    (p -> 0, x2 -> infinity), per iterate."""
    iterated = iterate_spec(spec, n_iters)
    if h != MOBIUS_IDENTITY:
        iterated = MobiusConjugate(h.inverse(), iterated)
    beta = [y4 * 1e-6, y4]
    forward = refine_path_view(beta, compile_map(iterated), tol=tol)
    return (path_turns(forward) - path_turns(beta)) / math.tau / n_iters


def _inner(a: float, r0: float = 1.0, r1: float = 2.0) -> RadialTwist:
    """A rigid rotation by a turns inside r0, the identity beyond r1."""
    return RadialTwist(RadialProfile(((r0, a), (r1, 0.0))))


def _outer(a: float, r0: float = 1.0, r1: float = 2.0) -> RadialTwist:
    """The identity inside r0, a rigid rotation by -a turns beyond r1."""
    return RadialTwist(RadialProfile(((r0, 0.0), (r1, -a))))


def _twist_about(centre: complex, r0: float, r1: float) -> MobiusConjugate:
    """A rotation by -0.375 turns inside r0 of the centre, the identity beyond r1."""
    return MobiusConjugate(MobiusTransform(1, -centre, 0, 1),
                           RadialTwist(RadialProfile(((r0, -0.375), (r1, 0.0)))))


# (twist builder, p, x2 choices, x4, a twist elsewhere): a blow-up at the
# rotating end of the axis, whose value is -a.  The first x2 is the other
# end of the axis, where the blow-up chart h is the twist's own chart at
# (0, inf) and swaps it at (inf, 0); the other three lie off the axis, on
# the identity zone.  The twist elsewhere fixes every point, and its
# support misses the twist's.
_ORIENTATIONS = {
    "(0, inf)": (_inner, SpherePoint(0j), (INFINITY, 3 + 0j, -5j, 2.5 + 1j),
                 SpherePoint(4 + 1j), _twist_about(10, 0.5, 1.0)),
    "(inf, 0)": (_outer, INFINITY, (0j, 0.15 + 0j, -0.25j, 0.125 + 0.05j),
                 SpherePoint(0.25 + 0.1j), _twist_about(0.5, 0.025, 0.05)),
}

_SCALE = MobiusTransform(2, 0, 0, 1)
_ROTATE = MobiusTransform(cmath.exp(1j), 0, 0, 1)
_FLIP = MobiusTransform(0, 1, 1, 0)


def _conjugated(g, build):
    return lambda twist, a, away: MobiusConjugate(g, build(twist, a, away))


def _elsewhere(twist, a, away):
    return Compose((twist(a), away))


# wrapper -> (the spec, given the twist builder, a and the twist elsewhere,
# whose blow-up is -a; the chart change g the points move by, as
# p -> g^-1(p)).  The compositions with a twist elsewhere do not reduce.
_WRAPPERS = {
    "plain": (lambda twist, a, away: twist(a), None),
    "conjugate z -> 2z": (lambda twist, a, away: MobiusConjugate(_SCALE, twist(a)), _SCALE),
    "conjugate by a rotation": (lambda twist, a, away: MobiusConjugate(_ROTATE, twist(a)),
                                _ROTATE),
    "conjugate z -> 1/z": (lambda twist, a, away: MobiusConjugate(_FLIP, twist(a)), _FLIP),
    "Power": (lambda twist, a, away: Power(2, twist(a / 2)), None),
    "Inverse": (lambda twist, a, away: Inverse(twist(-a)), None),
    "compose same axis": (
        lambda twist, a, away: Compose((twist(a / 2), twist(a / 2, 0.75, 1.5))), None),
    "compose elsewhere": (_elsewhere, None),
    "compose elsewhere, conjugate z -> 2z": (_conjugated(_SCALE, _elsewhere), _SCALE),
    "compose elsewhere, conjugate by a rotation": (_conjugated(_ROTATE, _elsewhere), _ROTATE),
    "compose elsewhere, conjugate z -> 1/z": (_conjugated(_FLIP, _elsewhere), _FLIP),
    "Power of compose elsewhere": (
        lambda twist, a, away: Power(-2, _elsewhere(twist, -a / 2, away)), None),
}


def _case(orientation: str, wrapper: str, alpha: float, x2: int = 0):
    """The spec and its (p, x2, x4), with the orientation's x2-th x2."""
    twist, p, x2s, x4, away = _ORIENTATIONS[orientation]
    build, g = _WRAPPERS[wrapper]
    points = (p, as_sphere_point(x2s[x2]), x4)
    if g is not None:
        points = tuple(apply_mobius(g.inverse(), q) for q in points)
    return build(twist, alpha, away), points


def _reference(spec, p, x2, x4, n_iters: int) -> float:
    h = mobius_normalize(p, x2)
    return reference_refined_wrapping(spec, h, apply_mobius(h, x4).value, n_iters)


class _Spy:
    """invariant.refine_path_view, counting its calls and keeping their paths."""

    def __init__(self):
        self.calls = 0
        self.paths = []

    def __call__(self, vertices, *args, **kwargs):
        self.calls += 1
        self.paths.append(tuple(vertices))
        return _REFINE(vertices, *args, **kwargs)


_REFINE = invariant.refine_path_view


@pytest.fixture
def spy(monkeypatch):
    spy = _Spy()
    monkeypatch.setattr(invariant, "refine_path_view", spy)
    return spy


@pytest.mark.parametrize("wrapper", _WRAPPERS)
@pytest.mark.parametrize("orientation", _ORIENTATIONS)
def test_exact_blowup_matches_the_refined_estimate(spy, orientation, wrapper):
    reduces = twist_chart(_case(orientation, wrapper, 0.5)[0]) is not None
    assert reduces == (not wrapper.startswith(("compose elsewhere", "Power of compose")))
    for alpha in ALPHAS:
        for x2_choice in range(4):
            spec, (p, x2, x4) = _case(orientation, wrapper, alpha, x2_choice)
            est = rf_blowup(spec, p, x2, x4, 250)
            extrapolated = rf_blowup(spec, p, x2, x4, 250, extrapolate=True)
            assert extrapolated == BlowupEstimate(est.value, est.error_bound, 250, True)
            # a spec that reduces is read from its walk; any other refines once
            assert spy.calls == (0 if reduces else 2)
            assert abs(est.value + alpha) <= 1e-12, (alpha, x2, est.value)
            reference = _reference(spec, p, x2, x4, 250)
            assert abs(est.value - reference) <= est.error_bound == 2.0 / 250, \
                (alpha, x2, est.value, reference)
            if reduces:
                # the one-refinement rule, run on a spec that reduces
                refined = invariant._refined_limit(spec, p, x2, x4, DEFAULT_TOL)
                assert abs(est.value - refined) <= 1e-12, (alpha, x2, est.value, refined)
            spy.calls = 0
    # n = 2000 on a fixed sample: the smallest rotation, read against the
    # first x2 off the axis
    spec, (p, x2, x4) = _case(orientation, wrapper, ALPHAS[0], 1)
    est = rf_blowup(spec, p, x2, x4, 2000)
    assert abs(est.value - _reference(spec, p, x2, x4, 2000)) <= est.error_bound == 0.001


def test_only_off_axis_blowups_refine(spy):
    # only a map that does not reduce refines, once per blow-up; a twist
    # reads its limit off its profile on the axis and off it alike
    spec = _inner(0.875)
    assert rf_blowup(spec, 0j, INFINITY, 4 + 1j, 4000, extrapolate=True).value == -0.875
    assert rf_blowup(spec, INFINITY, 0j, 4 + 1j, 4000).value == 0.0
    for x2 in (3 + 0j, -5j):
        assert rf_blowup(spec, 0j, x2, 4 + 1j, 250, extrapolate=x2 == -5j).value == -0.875
    # a chart within a rounding of the axis reduces too
    near = MobiusConjugate(MobiusTransform(1, 1e-300, 0, 1), spec)
    assert rf_blowup(near, 0j, INFINITY, 4 + 1j, 250).value == -0.875
    # a subnormal x4 is read exactly, on the identity zone of the outer twist
    assert rf_blowup(_outer(0.3), 0j, INFINITY, 1e-320, 250).value == 0.0
    assert spy.calls == 0
    away = _ORIENTATIONS["(0, inf)"][4]
    for x2, calls in ((INFINITY, 1), (3 + 0j, 2), (-5j, 3)):
        est = rf_blowup(Compose((spec, away)), 0j, x2, 4 + 1j, 250, extrapolate=x2 == -5j)
        assert est.value == -0.875
        assert spy.calls == calls


def test_a_reducible_blowup_walks_once_and_refines_nothing(spy, monkeypatch):
    walks = []

    def walk(spec):
        walks.append(spec)
        return maps._charted_steps(spec)

    monkeypatch.setattr(invariant, "_charted_steps", walk)
    spec = MobiusConjugate(_SCALE, _inner(0.875))
    for x2 in (INFINITY, 1.5 + 0j, -2.5j):
        walks.clear()
        assert rf_blowup(spec, 0j, x2, 2 + 0.5j, 250).value == -0.875
        assert walks == [spec]
    assert spy.calls == 0


def test_no_blowup_iterates_its_map(monkeypatch):
    # the limit needs no n-th iterate: rf_blowup calls no iterate_spec and
    # builds no Power node, for a spec that reduces or not
    built = []
    real = maps.Power.__post_init__

    def counted(self):
        built.append(self)
        real(self)

    def refused(*args):
        raise AssertionError("iterate_spec called")

    monkeypatch.setattr(maps.Power, "__post_init__", counted)
    monkeypatch.setattr(invariant, "iterate_spec", refused)
    for orientation in _ORIENTATIONS:
        for wrapper in ("plain", "conjugate z -> 1/z", "compose elsewhere",
                        "compose elsewhere, conjugate by a rotation"):
            spec, (p, x2, x4) = _case(orientation, wrapper, 0.875, 2)
            for n_iters in (250, 10_000):
                assert rf_blowup(spec, p, x2, x4, n_iters, extrapolate=True).value == -0.875
    assert built == []


def test_the_refined_path_starts_at_half_the_rigid_radius(spy):
    # the twist is rigid inside |z| = 1 and the twist about 10 is the
    # identity beyond 9 of 0: the rigid radius is 1, certified within 2**-20
    spec = Compose((_inner(0.875), _ORIENTATIONS["(0, inf)"][4]))
    _, radius = maps._rigid_germ(spec, SpherePoint(0j), MOBIUS_IDENTITY, DEFAULT_TOL)
    assert 1.0 - 2.0**-20 <= radius < 1.0
    assert rf_blowup(spec, 0j, INFINITY, 4 + 1j, 250).value == -0.875
    assert spy.paths == [(0.5 * radius * (4 + 1j) / abs(4 + 1j), 4 + 1j)]
    # at infinity, in the chart w = 1/z: the outer twist is rigid beyond
    # |z| = 2, so inside |w| = 1/2, and the twist about 0.5 far beyond that
    spec = Compose((_outer(0.875), _ORIENTATIONS["(inf, 0)"][4]))
    _, radius = maps._rigid_germ(MobiusConjugate(_FLIP, spec), SpherePoint(0j), MOBIUS_IDENTITY,
                                 DEFAULT_TOL)
    assert 0.5 - 2.0**-21 <= radius < 0.5
    # a rigid germ whose zone, 2**-50 wide, no padded disk fits in
    thin = Compose((RadialTwist(RadialProfile(((1.0, 0.0), (2.0, 1.0), (2.0 + 2.0**-50, 1.0),
                                               (3.0, 0.0)))),
                    _ORIENTATIONS["(0, inf)"][4]))
    p = 2.0 + 2.0**-51
    assert maps._rigid_germ(thin, SpherePoint(p), mobius_normalize(SpherePoint(p), INFINITY),
                            DEFAULT_TOL) == (1.0, 0.0)
    with pytest.raises(TangentCondition):
        rf_blowup(thin, p, INFINITY, 5 + 0j, 250)


def test_every_point_is_checked_fixed():
    # x4 turns a quarter, though the g-form here does not read rho at x4:
    # x2 lies nearer the axis than x4 does
    spec = RadialTwist(RadialProfile(((1.0, 0.0), (2.0, 0.5))))
    with pytest.raises(NotFixed):
        rf_blowup(spec, 0j, 0.5 + 0j, 1.5 + 0j, 10)
    with pytest.raises(NotFixed):
        rf_blowup(Compose((spec, _ORIENTATIONS["(0, inf)"][4])), 0j, 0.5 + 0j, 1.5 + 0j, 10)


# rho is 0 at the axis and beyond 3, but 0.5 from 1e-8 to 2, where the
# reference's path from x4 * 1e-6 starts: the limit is 0, not -0.5
_STEEP_AT_AXIS = RadialTwist(RadialProfile(((1e-9, 0), (1e-8, 0.5), (2, 0.5), (3, 0))))


@pytest.mark.parametrize("spec", (_STEEP_AT_AXIS, MobiusConjugate(_SCALE, _STEEP_AT_AXIS)),
                         ids=("plain", "conjugate z -> 2z"))
def test_an_axis_blowup_reads_rho_at_the_axis(spy, spec):
    scale = 1.0 if spec is _STEEP_AT_AXIS else 0.5
    for x2 in (INFINITY, 5 + 0j, -5j):
        x2 = x2 if x2 is INFINITY else x2 * scale
        for n_iters in (250, 2000):
            assert rf_blowup(spec, 0j, x2, 4 * scale, n_iters).value == 0.0
    assert spy.calls == 0
    # the excepted case: the reference reads -0.5 off the axis
    assert _reference(spec, SpherePoint(0j), SpherePoint(5 * scale), SpherePoint(4 * scale),
                      250) == pytest.approx(-0.5, abs=1e-9)


def test_exact_blowup_keeps_the_sign_of_zero():
    spec = sqrt2_blowup_spec()
    for extrapolate in (False, True):
        # x2 = x4: the blow-up at infinity against 0, a chart that swaps the axis
        est = rf_mixed(spec, MarkedTuple(0j, INFINITY, 3 + 0j, INFINITY), 10_000,
                       extrapolate=extrapolate)
        assert est.value == 0.0 and math.copysign(1.0, est.value) == 1.0
        # x1 = x4: the same blow-up, negated
        est = rf_mixed(spec, MarkedTuple(INFINITY, 0j, 3 + 0j, INFINITY), 10_000,
                       extrapolate=extrapolate)
        assert est.value == 0.0 and math.copysign(1.0, est.value) == -1.0


@pytest.mark.parametrize("n_iters", (10, 100, 4000))
def test_a_coaxial_composition_blows_up_exactly(spy, n_iters):
    # an eighth-turn twist conjugated by z -> 2z is the twist by
    # rho(2 r) in the quarter-turn twist's chart; chained, the enclosure of
    # n repetitions wraps, and the value is inconclusive at n = 100
    spec = Compose((RadialTwist(RadialProfile(((1, 0.25), (2, 0)))),
                    MobiusConjugate(MobiusTransform(2, 0, 0, 1),
                                    RadialTwist(RadialProfile(((1, 0.125), (1.5, 0)))))))
    assert rf_blowup(spec, 0j, INFINITY, 3 + 0j, n_iters).value == -0.375
    assert spy.calls == 0


# ---------------------------------------------------------------------------
# the identities at tuples with a repeated point: B(p, x2, x4) = R(p, x2,
# p, x4) and D(p1, p2) = R(p1, p2, p1, p2), against integers R at distinct
# points

# rho = 1 on |z| = 1.2, where x4 sits
_T2 = RadialTwist(RadialProfile(((1, 1.25), (2, 0))))
_X4 = 1.2 * cmath.exp(0.7j)
_X2S = (INFINITY, 5 + 0j, -5j, 2.5 + 1j, 3j)
_WS = (3 + 0j, -4 + 0.5j)


def _b(spec, p, x2, x4, n_iters=250) -> float:
    return rf_blowup(spec, p, x2, x4, n_iters).value


@pytest.mark.parametrize("x2", _X2S, ids=str)
def test_the_second_pair_splits_at_a_blowup(x2):
    # (a): B(p, x2, x4) - B(p, x2, w) = R(p, x2, w, x4)
    ev = RfEvaluator(_T2)
    for w in _WS:
        gap = _b(_T2, 0j, x2, _X4) - _b(_T2, 0j, x2, w) - ev.value(0j, x2, w, _X4)
        assert abs(gap) <= 1e-12, (w, gap)


@pytest.mark.parametrize("x2", _X2S, ids=str)
def test_the_first_pair_splits_at_a_blowup(x2):
    # (b): B(p, x2, x4) = B(p, w, x4) + R(w, x2, p, x4)
    ev = RfEvaluator(_T2)
    for w in _WS:
        gap = _b(_T2, 0j, x2, _X4) - _b(_T2, 0j, w, _X4) - ev.value(w, x2, 0j, _X4)
        assert abs(gap) <= 1e-12, (w, gap)


@pytest.mark.parametrize("x2", (5 + 0j, -5j), ids=str)
@pytest.mark.parametrize("n_iters", (250, 2000))
def test_the_first_pair_splits_at_a_blowup_steep_at_its_axis(x2, n_iters):
    # (b) at w = infinity: the estimate whose path started outside the rigid
    # zone read B(0, x2, 4) = -0.5 and missed this row by 0.5
    gap = (_b(_STEEP_AT_AXIS, 0j, x2, 4, n_iters) - _b(_STEEP_AT_AXIS, 0j, INFINITY, 4, n_iters)
           - RfEvaluator(_STEEP_AT_AXIS).value(INFINITY, x2, 0j, 4))
    assert abs(gap) <= 1e-12


@pytest.mark.parametrize("spec, p1, p2, ws", (
    (_T2, 0j, INFINITY, _WS),
    # T2 and the twist about 10 compose to a map that does not reduce
    (Compose((_T2, _twist_about(10, 0.5, 1.0))), 0j, 10 + 0j, (*_WS, INFINITY)),
), ids=("T2", "T2 and a twist about 10"))
def test_a_double_blowup_splits_into_two_single_ones(spec, p1, p2, ws):
    # (c): D(p1, p2) = B(p1, p2, w) + B(p2, p1, w)
    both = rf_double_blowup(spec, p1, p2)
    for w in ws:
        gap = both - _b(spec, p1, p2, w) - _b(spec, p2, p1, w)
        assert abs(gap) <= 1e-12, (w, gap)
