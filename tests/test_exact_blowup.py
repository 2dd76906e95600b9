"""Exact blow-ups of a twist against the refined estimates they replace.

For a twist T(z) = z e^{2 pi i rho(|z|)}, the turning of T o gamma about 0
is the turning of gamma plus rho(|gamma(1)|) - rho(|gamma(0)|), and a
Mobius map that fixes 0 and infinity keeps turnings, one that swaps them
negates them.  So a blow-up whose chart (p -> 0, x2 -> infinity) fixes or
swaps the twist's axis is a difference of rho at the radial path's ends,
and refines nothing.  These tests compare it with the refinement that
every other blow-up still runs.
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
    Power,
    RadialProfile,
    RadialTwist,
    SpherePoint,
    rf_blowup,
    rf_mixed,
)
from rotquad import invariant
from rotquad.catalog import sqrt2_blowup_spec
from rotquad.geometry import DEFAULT_TOL, apply_mobius, mobius_normalize

ALPHAS = (0.125, math.sqrt(2.0) - 1.0, 0.875)


def _inner(a: float, r0: float = 1.0, r1: float = 2.0) -> RadialTwist:
    """A rigid rotation by a turns inside r0, the identity beyond r1."""
    return RadialTwist(RadialProfile(((r0, a), (r1, 0.0))))


def _outer(a: float, r0: float = 1.0, r1: float = 2.0) -> RadialTwist:
    """The identity inside r0, a rigid rotation by -a turns beyond r1."""
    return RadialTwist(RadialProfile(((r0, 0.0), (r1, -a))))


# (twist builder, p, x2, x4): a blow-up at the rotating end of the axis, read
# against the other end, whose value is -a.  The chart h is the twist's own
# chart at (0, inf), and swaps it at (inf, 0).
_ORIENTATIONS = {
    "(0, inf)": (_inner, SpherePoint(0j), INFINITY, SpherePoint(4 + 1j)),
    "(inf, 0)": (_outer, INFINITY, SpherePoint(0j), SpherePoint(0.25 + 0.1j)),
}

_SCALE = MobiusTransform(2, 0, 0, 1)
_ROTATE = MobiusTransform(cmath.exp(1j), 0, 0, 1)
_FLIP = MobiusTransform(0, 1, 1, 0)

# wrapper -> (the spec, given the twist builder and a, whose blow-up is -a;
# the chart change g the points move by, as p -> g^-1(p))
_WRAPPERS = {
    "plain": (lambda twist, a: twist(a), None),
    "conjugate z -> 2z": (lambda twist, a: MobiusConjugate(_SCALE, twist(a)), _SCALE),
    "conjugate by a rotation": (lambda twist, a: MobiusConjugate(_ROTATE, twist(a)), _ROTATE),
    "conjugate z -> 1/z": (lambda twist, a: MobiusConjugate(_FLIP, twist(a)), _FLIP),
    "Power": (lambda twist, a: Power(2, twist(a / 2)), None),
    "Inverse": (lambda twist, a: Inverse(twist(-a)), None),
    "compose same axis": (
        lambda twist, a: Compose((twist(a / 2), twist(a / 2, 0.75, 1.5))), None),
}


def _case(orientation: str, wrapper: str, alpha: float):
    twist, p, x2, x4 = _ORIENTATIONS[orientation]
    build, g = _WRAPPERS[wrapper]
    points = (p, x2, x4) if g is None else tuple(apply_mobius(g.inverse(), q) for q in (p, x2, x4))
    return build(twist, alpha), points


class _Spy:
    """invariant.refine_path_view, counting its calls."""

    def __init__(self):
        self.calls = 0

    def __call__(self, *args, **kwargs):
        self.calls += 1
        return _REFINE(*args, **kwargs)


_REFINE = invariant.refine_path_view


@pytest.fixture
def spy(monkeypatch):
    spy = _Spy()
    monkeypatch.setattr(invariant, "refine_path_view", spy)
    return spy


@pytest.mark.parametrize("wrapper", _WRAPPERS)
@pytest.mark.parametrize("orientation", _ORIENTATIONS)
def test_exact_blowup_matches_the_refined_estimate(spy, orientation, wrapper):
    for alpha in ALPHAS:
        spec, (p, x2, x4) = _case(orientation, wrapper, alpha)
        h = mobius_normalize(p, x2)
        y4 = apply_mobius(h, x4).value
        for n_iters in (250, 4000):
            est = rf_blowup(spec, p, x2, x4, n_iters)
            extrapolated = rf_blowup(spec, p, x2, x4, n_iters, extrapolate=True)
            assert spy.calls == 0
            refined = invariant._refined_wrapping(spec, h, y4, n_iters, DEFAULT_TOL)
            spy.calls = 0
            assert abs(est.value - refined) <= 1e-12, (alpha, n_iters, est.value, refined)
            assert abs(est.value + alpha) <= est.error_bound == 2.0 / n_iters
            assert extrapolated == BlowupEstimate(est.value, est.error_bound, n_iters, True)


def test_only_off_axis_blowups_refine(spy):
    spec = _inner(0.875)
    assert rf_blowup(spec, 0j, INFINITY, 4 + 1j, 4000, extrapolate=True).value == -0.875
    assert rf_blowup(spec, INFINITY, 0j, 4 + 1j, 4000).value == 0.0
    assert spy.calls == 0
    # x2 on the identity zone, not on the axis
    for x2, calls in ((3 + 0j, 1), (-5j, 3)):
        est = rf_blowup(spec, 0j, x2, 4 + 1j, 250, extrapolate=x2 == -5j)
        assert abs(est.value + 0.875) <= est.error_bound
        assert spy.calls == calls
    # a chart within a rounding of the axis is not on it
    near = MobiusConjugate(MobiusTransform(1, 1e-300, 0, 1), spec)
    est = rf_blowup(near, 0j, INFINITY, 4 + 1j, 250)
    assert abs(est.value + 0.875) <= est.error_bound
    assert spy.calls == 4
    # a subnormal x4 is read exactly: the path starts at p itself, not at
    # x4 * 1e-6, which underflows onto the axis
    assert rf_blowup(_outer(0.3), 0j, INFINITY, 1e-320, 250).value == 0.0
    assert spy.calls == 4


# rho is 0 at the axis and beyond 3, but 0.5 from 1e-8 to 2, where a path
# from x4 * 1e-6 would start: the limit is 0, not -0.5
_STEEP_AT_AXIS = RadialTwist(RadialProfile(((1e-9, 0), (1e-8, 0.5), (2, 0.5), (3, 0))))


@pytest.mark.parametrize("spec", (_STEEP_AT_AXIS, MobiusConjugate(_SCALE, _STEEP_AT_AXIS)),
                         ids=("plain", "conjugate z -> 2z"))
def test_an_axis_blowup_reads_rho_at_the_axis(spy, spec):
    assert rf_blowup(spec, 0j, INFINITY, 8 + 0j, 1000).value == 0.0
    assert spy.calls == 0


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
