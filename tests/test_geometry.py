"""Chart primitives: sphere points, Mobius transforms, polylines, winding."""

import cmath
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rotquad import (
    DEFAULT_TOL,
    INFINITY,
    CoincidentPoints,
    DegenerateCrossing,
    GeometryFailure,
    InconclusiveComputation,
    MobiusTransform,
    NonIntegerWinding,
    PointOnLoop,
    Polyline,
    SamplingFailure,
    SpherePoint,
    Tolerances,
    apply_mobius,
    as_sphere_point,
    mobius_normalize,
    path_turns,
    winding_number,
)
from rotquad.geometry import (
    MOBIUS_IDENTITY,
    dedupe_consecutive,
    mobius_disk,
    point_segment_distance,
    refine_path_view,
)

from helpers import circle


# ---------------------------------------------------------------------------
# points and transforms


def test_sphere_point_identity():
    assert SpherePoint(2 + 1j) == SpherePoint(2 + 1j)
    assert SpherePoint(None).is_infinity
    assert INFINITY.is_infinity
    assert not SpherePoint(0j).is_infinity
    with pytest.raises(ValueError):
        INFINITY.value


def test_as_sphere_point_coercions():
    assert as_sphere_point(3) == SpherePoint(3 + 0j)
    assert as_sphere_point(2.5j) == SpherePoint(2.5j)
    assert as_sphere_point(INFINITY) is INFINITY or as_sphere_point(INFINITY).is_infinity
    assert as_sphere_point(None).is_infinity
    p = SpherePoint(1 + 1j)
    assert as_sphere_point(p) == p


def test_mobius_rejects_singular_matrix():
    with pytest.raises(ValueError):
        MobiusTransform(1, 2, 2, 4)
    with pytest.raises(ValueError):
        MobiusTransform(0, 0, 0, 0)


def test_mobius_inverse_and_compose():
    h = MobiusTransform(2, 1, 1, 1)
    hinv = h.inverse()
    for z in (0j, 1 + 2j, -3.5 + 0.25j):
        w = apply_mobius(h, SpherePoint(z))
        back = apply_mobius(hinv, w)
        assert abs(back.value - z) < 1e-12
    # compose(self, other) applies other first
    g = MobiusTransform(1, 3j, 0, 1)
    z = 0.7 - 0.2j
    lhs = apply_mobius(h.compose(g), SpherePoint(z))
    rhs = apply_mobius(h, apply_mobius(g, SpherePoint(z)))
    assert abs(lhs.value - rhs.value) < 1e-12


def test_mobius_pole_and_infinity_are_exact():
    h = MobiusTransform(1, 0, 1, -2)  # z / (z - 2)
    assert apply_mobius(h, SpherePoint(2 + 0j)).is_infinity
    at_inf = apply_mobius(h, INFINITY)
    assert at_inf == SpherePoint(1 + 0j)
    # degree-one numerator only: a=0 sends infinity to 0
    k = MobiusTransform(0, 1, 1, 0)
    assert apply_mobius(k, INFINITY) == SpherePoint(0j)
    assert apply_mobius(k, SpherePoint(0j)).is_infinity


def test_mobius_normalize_three_configurations():
    # both finite
    h = mobius_normalize(SpherePoint(1 + 0j), SpherePoint(3 + 0j))
    assert apply_mobius(h, SpherePoint(1 + 0j)) == SpherePoint(0j)
    assert apply_mobius(h, SpherePoint(3 + 0j)).is_infinity
    # first at infinity
    h = mobius_normalize(INFINITY, SpherePoint(2j))
    assert apply_mobius(h, INFINITY) == SpherePoint(0j)
    assert apply_mobius(h, SpherePoint(2j)).is_infinity
    # second at infinity
    h = mobius_normalize(SpherePoint(5 + 0j), INFINITY)
    assert apply_mobius(h, SpherePoint(5 + 0j)) == SpherePoint(0j)
    assert apply_mobius(h, INFINITY).is_infinity


def test_mobius_normalize_axis_pair_is_identity():
    assert mobius_normalize(SpherePoint(0j), INFINITY) == MOBIUS_IDENTITY


def test_mobius_normalize_rejects_coincident():
    with pytest.raises(CoincidentPoints):
        mobius_normalize(SpherePoint(1j), SpherePoint(1j))
    with pytest.raises(CoincidentPoints):
        mobius_normalize(INFINITY, INFINITY)


# ---------------------------------------------------------------------------
# polylines


def test_polyline_validation():
    with pytest.raises(ValueError):
        Polyline((1 + 0j,))
    with pytest.raises(ValueError):
        Polyline((0j, 1 + 0j), closed=True)  # a closed loop needs 3 vertices
    with pytest.raises(ValueError):
        Polyline((0j, 0j, 1 + 0j))  # repeated consecutive vertex
    # closed wrap: last == first is a repeat in disguise
    with pytest.raises(ValueError):
        Polyline((0j, 1 + 0j, 1j, 0j), closed=True)
    # non-consecutive repeats are fine on an open path (a backtrack)
    Polyline((0j, 1 + 0j, 0j))


def test_polyline_accessors():
    p = Polyline((0j, 1 + 0j, 1 + 1j))
    assert p.start == 0j and p.end == 1 + 1j
    assert len(list(p.edges())) == 2
    assert p.reversed_().vertices == (1 + 1j, 1 + 0j, 0j)
    loop = Polyline((0j, 1 + 0j, 1j), closed=True)
    assert len(list(loop.edges())) == 3  # wrap edge included


def test_point_segment_distance():
    assert point_segment_distance(0.5 + 1j, 0j, 1 + 0j) == pytest.approx(1.0)
    assert point_segment_distance(0.5 + 0j, 0j, 1 + 0j) == 0.0
    assert point_segment_distance(2 + 0j, 0j, 1 + 0j) == pytest.approx(1.0)
    # degenerate segment falls back to point distance
    assert point_segment_distance(3 + 4j, 1j, 1j) == pytest.approx(abs(3 + 3j))


def test_dedupe_consecutive():
    assert dedupe_consecutive([0j, 0j, 1 + 0j, 1 + 0j, 2 + 0j]) == [0j, 1 + 0j, 2 + 0j]
    # closed mode also merges the wrap-around repeat
    assert dedupe_consecutive([0j, 1 + 0j, 1j, 0j], closed=True) == [0j, 1 + 0j, 1j]


# ---------------------------------------------------------------------------
# winding numbers


def test_winding_of_circle():
    loop = circle(0j, 1.0)
    assert winding_number(loop, 0j) == 1
    assert winding_number(loop.reversed_(), 0j) == -1
    assert winding_number(loop, 3 + 0j) == 0
    assert winding_number(circle(2j, 0.5, turns=3), 2j) == 3
    assert winding_number(circle(2j, 0.5, turns=-2), 2j) == -2


def test_winding_requires_closed_loop():
    with pytest.raises(ValueError):
        winding_number(Polyline((0j, 1 + 0j, 1j)), 0.2 + 0.2j)


def test_winding_point_on_edge():
    loop = Polyline((-1 - 1j, 1 - 1j, 1 + 1j, -1 + 1j), closed=True)
    with pytest.raises(PointOnLoop):
        winding_number(loop, 0 - 1j)
    with pytest.raises(PointOnLoop):
        winding_number(loop, 1 + 1j)  # vertex hit


def test_winding_snap_guard():
    # this configuration accumulates a few ulps of phase rounding, so an
    # absurdly strict snap tolerance must refuse to round to an integer
    loop = circle(0.1 + 0.2j, 1.0, n=23)
    p = 0.37 + 0.11j
    assert winding_number(loop, p) == 1
    strict = Tolerances(winding_snap=1e-18)
    with pytest.raises(NonIntegerWinding):
        winding_number(loop, p, tol=strict)


def test_winding_around_a_point_whose_angle_underflows():
    # seen from 5e-324j the vertex 2 sits at an angle that underflows to 0
    loop = Polyline((1j, 2j, 2 + 0j), closed=True)
    assert winding_number(loop, 5e-324j) == 0
    assert winding_number(loop, 0.5 + 1.2j) == -1


def test_path_turns_quarter_circle():
    pts = [cmath.exp(1j * math.tau * k / 400) for k in range(101)]
    assert path_turns(pts) == pytest.approx(math.tau / 4, abs=1e-12)


# ---------------------------------------------------------------------------
# adaptive refinement of a viewed path


class _View:
    """A view made of a point map and a hand-written disk enclosure."""

    def __init__(self, f, enclose):
        self.f = f
        self.enclose = enclose

    def __call__(self, z):
        return self.f(z)


def _spin(k: int) -> _View:
    """z * exp(i tau k (Re z - 1)): on |z - c| <= r the angle moves by at
    most tau k r, so the image stays within r + |c| min(2, tau k r) of f(c)."""
    f = lambda z: z * cmath.exp(1j * k * math.tau * (z.real - 1.0))

    def enclose(disk):
        c, r, outside = disk
        if outside:
            return None
        grow = abs(c) * min(2.0, k * math.tau * r)
        return f(c), r + grow + 1e-12 * (abs(c) + r), False

    return _View(f, enclose)


_IDENTITY_VIEW = _View(lambda z: z, lambda disk: disk)


def test_refine_identity_view_is_cheap():
    out = refine_path_view([1 + 0j, 1 + 0.1j], _IDENTITY_VIEW, tol=DEFAULT_TOL)
    assert out[0] == 1 + 0j and out[-1] == 1 + 0.1j
    assert len(out) == 2


def test_refine_recovers_hidden_full_turn():
    # The image of [1, 2] under z * exp(i tau (z - 1)) wraps exactly once;
    # both endpoint phases are 0, so only the enclosure can see it.
    out = refine_path_view([1 + 0j, 2 + 0j], _spin(1), tol=DEFAULT_TOL)
    assert abs(path_turns(out) - math.tau) < 1e-9


def test_refine_recovers_hidden_double_turn_closed():
    seeds = [1 + 0j, 1.3 + 0.01j, 1.7 - 0.01j, 2 + 0j]
    out = refine_path_view(seeds, _spin(2), tol=DEFAULT_TOL)
    assert abs(path_turns(out) - 2 * math.tau) < 1e-9


def test_refine_rejects_sample_at_origin():
    with pytest.raises(PointOnLoop):
        refine_path_view([-1 + 0j, 1 + 0j], _IDENTITY_VIEW, tol=DEFAULT_TOL)


def test_refinement_certifies_each_piece_against_both_punctures():
    # the identity view encloses a piece by its own source disk: every
    # accepted piece's disk must miss the puncture at 1 + 1e-3i, whichever
    # place it has, and the image may pass through 0 when 0 is none
    near = 1 + 1e-3j
    for punctures in ((5j, near), (near, 5j), (None, near), (near, None)):
        out = refine_path_view([-1 + 0j, 2 + 0j], _IDENTITY_VIEW, punctures=punctures)
        assert out[0] == -1 and out[-1] == 2 and len(out) > 4
        for a, b in zip(out, out[1:]):
            assert abs(0.5 * (a + b) - near) > 0.5625 * abs(b - a)
    with pytest.raises(PointOnLoop, match="puncture"):
        refine_path_view([0j, 2 + 0j], _IDENTITY_VIEW, punctures=(5j, 1 + 0j))


def test_refine_rejects_sample_at_the_pole():
    # a view returns None for the point at infinity: the source hit the pole
    view = _View(lambda z: None if z == 0.5 else 1 / (z - 0.5),
                 mobius_disk(MobiusTransform(0, 1, 1, -0.5)))
    with pytest.raises(PointOnLoop):
        refine_path_view([0j, 1 + 0j], view, tol=DEFAULT_TOL)


def test_mobius_enclosure_of_a_subnormal_pole_coefficient_knows_no_disk():
    # c * c underflows to 0, so det / c^2 has no float value
    enclose = mobius_disk(MobiusTransform(1, 0, 5e-324, 1))
    assert enclose((0j, 1.0, False)) is None
    assert enclose((0j, 1.0, True)) is None


def test_mobius_enclosure_next_to_a_tiny_pole_knows_no_disk():
    # |m|^2 - r^2 underflows below the normal floats (here to 0), where
    # its rounding is no longer relative
    enclose = mobius_disk(MobiusTransform(0, 1, 1, -1e-170))
    assert enclose((0j, 1e-182, False)) is None
    assert enclose((0j, 1e-182, True)) is None
    assert mobius_disk(MobiusTransform(0, 1, 1, -1e-160))((0j, 1e-172, False)) is None


def test_geometry_failures_share_one_base():
    for cls in (PointOnLoop, DegenerateCrossing, NonIntegerWinding, SamplingFailure):
        assert issubclass(cls, GeometryFailure)
    assert not issubclass(InconclusiveComputation, GeometryFailure)


def _flip_enclosure(disk):
    """Enclosure of z if Re z < 1.5 else -z: one branch, or both inside |w| <= |c| + r."""
    c, r, outside = disk
    if outside:
        return None
    if c.real + r < 1.5:
        return disk
    if c.real - r >= 1.5:
        return -c, r, False
    return 0j, abs(c) + r, False


@pytest.mark.parametrize(
    "view, tol, reason",
    [
        # the hidden full turn needs bisection, but only one chord is allowed
        (_spin(1), Tolerances(max_refine_points=1), "budget exhausted"),
        # a phase jump of pi at Re z = 1.5 survives every bisection
        (_View(lambda z: z if z.real < 1.5 else -z, _flip_enclosure), DEFAULT_TOL,
         "cannot be refined"),
    ],
    ids=["budget", "depth"],
)
def test_refine_failure_is_a_sampling_failure(view, tol, reason):
    with pytest.raises(SamplingFailure, match=reason):
        refine_path_view([1 + 0j, 2 + 0j], view, tol=tol)


# ---------------------------------------------------------------------------
# property checks


@st.composite
def _circles(draw):
    cx = draw(st.floats(-5, 5, allow_nan=False))
    cy = draw(st.floats(-5, 5, allow_nan=False))
    r = draw(st.floats(0.1, 10, allow_nan=False))
    n = draw(st.integers(8, 40))
    turns = draw(st.sampled_from([-3, -2, -1, 1, 2, 3]))
    return complex(cx, cy), r, n, turns


@given(_circles())
@settings(max_examples=60, deadline=None)
def test_circle_winding_matches_construction(params):
    center, r, n, turns = params
    assert winding_number(circle(center, r, n=n, turns=turns), center) == turns


@given(
    st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3),
    st.complex_numbers(max_magnitude=4, allow_nan=False, allow_infinity=False),
)
@settings(max_examples=80, deadline=None)
def test_mobius_round_trip(a, b, c, d, z):
    det = a * d - b * c
    if det == 0:
        return
    h = MobiusTransform(a, b, c, d)
    if abs(c * z + d) < 1e-3:
        return  # too close to the pole for a float round trip
    w = apply_mobius(h, SpherePoint(z))
    back = apply_mobius(h.inverse(), w)
    assert not back.is_infinity
    assert abs(back.value - z) < 1e-6 * max(1.0, abs(z))
