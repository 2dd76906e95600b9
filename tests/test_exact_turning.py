"""Exact turnings in the normalizing chart against the refined images they replace.

In the chart h sending x1 -> 0 and x2 -> infinity, arg h(z) = arg(z - x1) -
arg(z - x2) + const.  So the turning of h along a polyline, and the class
of a loop in the sphere punctured at x1 and x2, are exact angle sums over
the polyline's own vertices.  These properties compare both with the
refined Mobius image, over random polylines that keep clear of x1 and x2,
either of which may be the point at infinity.

The reference is run on the polyline subdivided until consecutive vertices
are at most half the punctures' clearance apart.  Each piece then subtends
under 0.5 rad at either puncture and its image turns by under 1 rad, so the
refined sum is exact by that spacing alone, as well as by the refinement's
disk enclosures.  A rule that reads only the ends of each piece is not exact
on the bare vertices: the triangle (i, 2 - i, -1) reads as class 0 about
(0, -0.5i), where it winds -1 around 0 and 0 around -0.5i.
"""

import cmath
import math

import pytest
from hypothesis import assume, given, settings, strategies as st

from rotquad import (
    INFINITY,
    CoincidentPoints,
    Identity,
    MarkedTuple,
    Polyline,
    RfEvaluator,
    SpherePoint,
    loop_class,
)
from rotquad.geometry import (
    DEFAULT_TOL,
    dedupe_consecutive,
    mobius_normalize,
    path_turns,
    refine_path_view,
    winding_number,
)
from rotquad.maps import compile_map

from helpers import circle

# how far polylines keep from the punctures, and the punctures from each other
_CLEARANCE = 0.05

_coord = st.floats(-4, 4, allow_nan=False)
_point = st.builds(complex, _coord, _coord)


@st.composite
def _spiral(draw, least: int):
    """Vertices running ``turns`` times round the origin at radii 0.5 to 4."""
    turns = draw(st.integers(-3, 3))
    steps = draw(st.lists(st.tuples(st.floats(0.5, 4), st.floats(0, 1)), min_size=least,
                          max_size=24))
    return [r * cmath.exp(1j * math.tau * (turns * k + u) / len(steps))
            for k, (r, u) in enumerate(steps)]


@st.composite
def _polyline_and_punctures(draw, closed: bool):
    """A random polyline and two punctures at least _CLEARANCE from it and each other."""
    least = 3 if closed else 2
    verts = draw(st.one_of(st.lists(_point, min_size=least, max_size=9), _spiral(least)))
    verts = dedupe_consecutive(verts, closed)
    assume(len(verts) >= least)
    path = Polyline(tuple(verts), closed=closed)
    x1, x2 = (SpherePoint(draw(st.one_of(st.none(), _point))) for _ in range(2))
    assume(x1 != x2)
    assume(x1.is_infinity or x2.is_infinity or abs(x1.value - x2.value) > _CLEARANCE)
    for x in (x1, x2):
        assume(x.is_infinity or not path.passes_within(x.value, _CLEARANCE))
    return path, x1, x2


def _dense(vertices, closed: bool) -> list[complex]:
    """The vertices, the first repeated at the end when closed, with points
    inserted so that consecutive ones are at most _CLEARANCE / 2 apart."""
    verts = list(vertices) + (list(vertices[:1]) if closed else [])
    out = [verts[0]]
    for a, b in zip(verts, verts[1:]):
        n = math.ceil(abs(b - a) / (_CLEARANCE / 2))
        out.extend(a + (b - a) * (j / n) for j in range(1, n))
        out.append(b)
    return out


def _normalized_view(x1, x2):
    return compile_map(Identity(), then=mobius_normalize(x1, x2))


@given(_polyline_and_punctures(closed=False))
@settings(max_examples=100, deadline=None)
def test_exact_base_turning_matches_the_refined_image(config):
    beta, x1, x2 = config
    t = MarkedTuple(x1, x2, beta.start, beta.end)
    _, base, ends, *_ = RfEvaluator(Identity())._refined(t, beta)
    image = refine_path_view(_dense(beta.vertices, closed=False), _normalized_view(x1, x2))
    assert abs(base - path_turns(image)) / math.tau < 1e-9
    assert ends == (image[0], image[-1])


def _refined_loop_class(gamma, x1, x2, tol=DEFAULT_TOL):
    """loop_class as the winding around 0 of gamma's refined image in the
    normalizing chart, the wrap edge refined last."""
    image = refine_path_view(_dense(gamma.vertices, closed=True), _normalized_view(x1, x2), tol)
    image = dedupe_consecutive(image[:-1], closed=True)
    if len(image) < 3:
        return 0
    return winding_number(Polyline(tuple(image), closed=True), 0j, tol)


@given(_polyline_and_punctures(closed=True))
@settings(max_examples=100, deadline=None)
def test_loop_class_matches_the_refined_image(config):
    gamma, x1, x2 = config
    assert loop_class(gamma, x1, x2) == _refined_loop_class(gamma, x1, x2)


def test_loop_class_rejects_coincident_punctures():
    for x in (SpherePoint(2j), INFINITY):
        with pytest.raises(CoincidentPoints):
            loop_class(circle(0j, 1.0), x, x)
