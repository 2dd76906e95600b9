"""Planar-chart geometry on the extended complex plane.

Points live in one affine chart of the sphere at a time: a finite complex
number, or the single point at infinity.  Paths and loops are polylines with
straight edges.  The chart carries the standard counterclockwise orientation,
and the workhorse quantity is the turning of a polyline about a point
(accumulated signed angle; snapped to whole turns for a closed one, its
winding number).  Segment crossing signs serve only the pairing oracle.
"""

from __future__ import annotations

import cmath
import math
import sys
from cmath import isfinite
from dataclasses import dataclass

from .errors import (
    BudgetExhausted,
    CoincidentPoints,
    DegenerateCrossing,
    NonIntegerWinding,
    PointOnLoop,
    SamplingFailure,
)

TAU = math.tau

# Image magnitudes beyond this are treated as "escaped to infinity": the
# source path ran into the pole of the chart transform.
_BLOWUP_MAGNITUDE = 1e100

# A point this close to an edge counts as on it: rounding could flip its side.
EPS_EDGE = 1e-9
# Crossing determinants within this times |s1| |s2| are degenerate, at any scale.
EPS_DEG = 1e-12


@dataclass(frozen=True)
class Tolerances:
    """Numerical thresholds a scenario may override.

    winding_snap  how far an angle sum may sit from an integer turn count
    fixed_tol  residual allowed when validating a declared fixed point
    max_refine_points  pieces a refined path, and step applications one
               map evaluation, may take before BudgetExhausted
    """

    winding_snap: float = 1e-6
    fixed_tol: float = 1e-9
    max_refine_points: int = 1 << 20


DEFAULT_TOL = Tolerances()


@dataclass(frozen=True)
class SpherePoint:
    """A sphere point in extended-plane coordinates.

    ``z`` is a finite complex coordinate, or None for the point at infinity.
    Equality is exact on coordinates.
    """

    z: complex | None = None

    def __post_init__(self):
        if self.z is not None:
            z = complex(self.z)
            if not isfinite(z):
                raise _non_finite(z)
            object.__setattr__(self, "z", z)

    @property
    def is_infinity(self) -> bool:
        return self.z is None

    @property
    def value(self) -> complex:
        """The finite coordinate; raises for the point at infinity."""
        if self.z is None:
            raise ValueError("the point at infinity has no finite coordinate")
        return self.z

    def __repr__(self):
        return "SpherePoint(inf)" if self.z is None else f"SpherePoint({self.z!r})"


INFINITY = SpherePoint(None)


def _non_finite(w: complex) -> ValueError:
    return ValueError(f"finite coordinates required, got {w!r}")


def as_sphere_point(value) -> SpherePoint:
    """Coerce a complex number, None (infinity) or SpherePoint."""
    if isinstance(value, SpherePoint):
        return value
    if value is None:
        return INFINITY
    return SpherePoint(complex(value))


@dataclass(frozen=True)
class MobiusTransform:
    """z -> (a z + b) / (c z + d) on the extended plane, det != 0.

    Complex-coefficient Mobius maps are holomorphic, hence always
    orientation preserving; no sign condition is needed beyond
    invertibility.  Singular means |det| <= 1e-12 (|ad| + |bc|), a test
    that does not depend on the scale of the coefficients.
    """

    a: complex
    b: complex
    c: complex
    d: complex

    def __post_init__(self):
        for name in ("a", "b", "c", "d"):
            object.__setattr__(self, name, complex(getattr(self, name)))
        if abs(self.det) <= 1e-12 * (abs(self.a * self.d) + abs(self.b * self.c)):
            raise ValueError(f"transform is singular: det={self.det!r}")

    @property
    def det(self) -> complex:
        return self.a * self.d - self.b * self.c

    def inverse(self) -> "MobiusTransform":
        return MobiusTransform(self.d, -self.b, -self.c, self.a)

    def compose(self, other: "MobiusTransform") -> "MobiusTransform":
        """self applied after other (matrix product)."""
        return MobiusTransform(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )


MOBIUS_IDENTITY = MobiusTransform(1, 0, 0, 1)


def mobius_step(h: MobiusTransform):
    """h as a function on bare coordinates: a complex number, None for infinity.

    The pole goes exactly to None and infinity to a/c.  Like SpherePoint, a
    non-finite image raises ValueError.
    """
    a, b, c, d = h.a, h.b, h.c, h.d
    at_infinity = None if c == 0 else a / c

    def step(z):
        if z is None:
            if at_infinity is not None and not isfinite(at_infinity):
                raise _non_finite(at_infinity)
            return at_infinity
        den = c * z + d
        if den == 0:
            return None
        w = (a * z + b) / den
        if not isfinite(w):
            raise _non_finite(w)
        return w

    return step


# ---------------------------------------------------------------------------
# disk enclosures (midpoint-radius arithmetic: Moore, Interval Analysis, 1966;
# Johansson, IEEE Trans. Computers 66, 2017)
#
# A disk is (centre, radius, outside): the closed disk |z - centre| <= radius,
# or with outside its complement |z - centre| >= radius and the point at
# infinity.  An enclosure step maps a disk to a disk that contains its image,
# or to None when it knows none (the image is a half-plane, or the step cannot
# bound it), and passes None on.  Each step pads the radius for its own
# rounding and for that of the point evaluation it encloses: about 1e-12 of
# the scale of the numbers involved.

_PAD = 1e-12
_MIN_NORMAL = sys.float_info.min  # below it a float's rounding is not relative


def padded_disk(centre: complex, radius: float, outside: bool, pad: float):
    """The disk widened by pad (a complement shrinks its radius), or None when
    it is not finite or is a complement that covers the plane."""
    radius = radius - pad if outside else radius + pad
    if not (isfinite(centre) and math.isfinite(radius)) or (outside and radius <= 0.0):
        return None
    return centre, radius, outside


def mobius_disk(h: MobiusTransform):
    """h as an enclosure step: the exact image of a disk or disk complement, padded.

    With c != 0, h(z) = a/c - (det/c^2) / (z - pole), and 1/u sends the
    circle |u - m| = r to the circle about conj(m) / (|m|^2 - r^2) of radius
    r / ||m|^2 - r^2|, inside and outside swapped when the circle encloses
    0.  A circle through the pole has a half-plane image: None.
    """
    a, b, c, d = h.a, h.b, h.c, h.d
    if c == 0:
        s, t = a / d, b / d
        gain, shift = abs(s), abs(t)

        def affine(disk):
            if disk is None:
                return None
            z, r, outside = disk
            return padded_disk(s * z + t, gain * r, outside, _PAD * (gain * (abs(z) + r) + shift))

        return affine
    if c * c == 0:
        return lambda disk: None  # det / c^2 is beyond the float range
    pole, at_infinity, k = -d / c, a / c, h.det / (c * c)
    gain, far, near = abs(k), abs(at_infinity), abs(pole)

    def step(disk):
        if disk is None:
            return None
        z, r, outside = disk
        # the rounding of z - pole, and of c z + d in the point formula,
        # taken up on the source side where it is absolute
        slack = 1e-15 * (abs(z) + near + r)
        r = r - slack if outside else r + slack
        if r <= 0.0:
            return None
        m = z - pole
        am = abs(m)
        gap = am - r
        if not abs(gap) > 1e-9 * (am + r):
            return None
        g = gap * (am + r)
        if not abs(g) >= _MIN_NORMAL:
            return None
        v = m.conjugate() / g
        rv = r / abs(g)
        # g inherits the rounding of |m| magnified by (|m| + r) / |gap|
        cond = 1e-15 * (am + r) / abs(gap)
        return padded_disk(at_infinity - k * v, gain * rv, outside != (gap < 0.0),
                           _PAD * far + gain * (abs(v) + rv) * (_PAD + cond))

    return step


def apply_mobius(h: MobiusTransform, p: SpherePoint) -> SpherePoint:
    """Evaluate h on the extended plane, with exact pole/infinity handling."""
    w = mobius_step(h)(p.z)
    return INFINITY if w is None else SpherePoint(w)


def mobius_normalize(x1: SpherePoint, x2: SpherePoint) -> MobiusTransform:
    """A Mobius map sending x1 -> 0 and x2 -> infinity.

    The third degree of freedom is left at the natural choice for each
    configuration, so (0, inf) normalizes to the identity.
    """
    x1 = as_sphere_point(x1)
    x2 = as_sphere_point(x2)
    if x1 == x2:
        raise CoincidentPoints(f"cannot normalize a coincident pair {x1}, {x2}")
    if x1.is_infinity:
        return MobiusTransform(0, 1, 1, -x2.value)
    if x2.is_infinity:
        return MobiusTransform(1, -x1.value, 0, 1)
    return MobiusTransform(1, -x1.value, 1, -x2.value)


@dataclass(frozen=True)
class Polyline:
    """Straight-edged path or loop in a finite chart.

    For a closed polyline the final edge runs from the last vertex back to
    the first; the first vertex is not repeated.  Consecutive vertices must
    be distinct (including that wrap edge).
    """

    vertices: tuple[complex, ...]
    closed: bool = False

    def __post_init__(self):
        verts = tuple(complex(v) for v in self.vertices)
        for v in verts:
            if not (math.isfinite(v.real) and math.isfinite(v.imag)):
                raise ValueError(f"non-finite vertex {v!r}")
        minimum = 3 if self.closed else 2
        if len(verts) < minimum:
            raise ValueError(f"need at least {minimum} vertices, got {len(verts)}")
        for a, b in zip(verts, verts[1:]):
            if a == b:
                raise ValueError(f"repeated consecutive vertex {a!r}")
        if self.closed and verts[-1] == verts[0]:
            raise ValueError("closed polyline must not repeat its first vertex")
        object.__setattr__(self, "vertices", verts)

    def edges(self):
        verts = self.vertices
        for a, b in zip(verts, verts[1:]):
            yield a, b
        if self.closed:
            yield verts[-1], verts[0]

    def passes_within(self, p: complex, eps: float) -> bool:
        """Whether some edge comes within eps of the point p."""
        return any(point_segment_distance(p, a, b) <= eps for a, b in self.edges())

    @property
    def start(self) -> complex:
        return self.vertices[0]

    @property
    def end(self) -> complex:
        return self.vertices[-1]


def point_segment_distance(p: complex, a: complex, b: complex) -> float:
    """Distance from p to the closed segment [a, b]."""
    d = b - a
    den = d.real * d.real + d.imag * d.imag
    if den == 0.0:
        return abs(p - a)
    t = ((p - a).real * d.real + (p - a).imag * d.imag) / den
    t = 0.0 if t < 0.0 else (1.0 if t > 1.0 else t)
    return abs(p - (a + t * d))


def path_turns(points, centre: complex = 0j) -> float:
    """Total argument about ``centre`` accumulated along a point sequence, in
    radians: the exact turning of the polyline through them, whose straight
    edges each subtend their signed angle at a centre they miss.

    Each edge adds the difference of its ends' phases, reduced to (-pi, pi],
    or 0 when they are equal: the difference of phases does not overflow
    when the magnitudes differ by hundreds of orders, as w1/w0 would.
    cmath.phase raises on a phase that underflows to zero; math.atan2
    agrees elsewhere and returns it.
    """
    if centre:
        points = [w - centre for w in points]
    phase, atan2, remainder = cmath.phase, math.atan2, math.remainder
    total = 0.0
    w0 = a0 = None
    for w1 in points:
        try:
            a1 = phase(w1)
        except OverflowError:
            a1 = atan2(w1.imag, w1.real)
        if w0 is not None and w1 != w0:
            total += remainder(a1 - a0, TAU)
        w0, a0 = w1, a1
    return total


def closed_path_turns(start: complex, points, end: complex, centre: complex = 0j):
    """(path_turns of [start, *points, end], path_turns of points) about
    centre, in one pass that reads each phase once: every edge term and
    every partial sum is the float path_turns forms."""
    if centre:
        start, end, points = start - centre, end - centre, [w - centre for w in points]
    phase, atan2, remainder = cmath.phase, math.atan2, math.remainder
    closed = path = 0.0
    w0 = a0 = None
    last = len(points)
    for i, w1 in enumerate([start, *points, end]):
        try:
            a1 = phase(w1)
        except OverflowError:
            a1 = atan2(w1.imag, w1.real)
        if w0 is not None and w1 != w0:
            turn = remainder(a1 - a0, TAU)
            closed += turn
            if 1 < i <= last:  # an edge between two of points
                path += turn
        w0, a0 = w1, a1
    return closed, path


def winding_number(loop: Polyline, p: complex, tol: Tolerances = DEFAULT_TOL) -> int:
    """Winding number of a closed polyline around p: its ``path_turns``
    about p, wrap edge included, in whole turns (``snap_turns``).  p must
    stay at least ``EPS_EDGE`` away from every edge."""
    if not loop.closed:
        raise ValueError("winding number needs a closed polyline")
    p = complex(p)
    if loop.passes_within(p, EPS_EDGE):
        raise PointOnLoop(f"reference point {p!r} lies on a loop edge")
    return snap_turns(path_turns(loop.vertices + loop.vertices[:1], p), tol)


def snap_turns(angle: float, tol: Tolerances) -> int:
    """An angle in radians as whole turns; NonIntegerWinding unless it is
    within ``tol.winding_snap`` of an integer number of turns."""
    turns = angle / TAU
    nearest = round(turns)
    if abs(turns - nearest) > tol.winding_snap:
        raise NonIntegerWinding(f"angle sum {turns!r} turns is not close to an integer")
    return int(nearest)


def _cross(u: complex, v: complex) -> float:
    return u.real * v.imag - u.imag * v.real


def _within_span(p: complex, a: complex, b: complex) -> bool:
    d = b - a
    t = (p - a).real * d.real + (p - a).imag * d.imag
    return 0.0 <= t <= d.real * d.real + d.imag * d.imag


def segment_crossing(s1: tuple[complex, complex], s2: tuple[complex, complex]) -> int | None:
    """Sign of the transverse crossing of two directed segments.

    Returns +1 when the tangent frame (dir s1, dir s2) at the crossing is
    positively oriented, -1 when negative, None when the open interiors do
    not meet.  Endpoint touches, collinear overlaps and near-parallel
    crossings raise DegenerateCrossing: those configurations have no
    trustworthy sign and callers are expected to jitter and retry.  Each
    orientation determinant is compared with ``EPS_DEG`` times
    |s1| |s2|, so scaling both segments by one factor changes no outcome.
    """
    p, p2 = complex(s1[0]), complex(s1[1])
    q, q2 = complex(s2[0]), complex(s2[1])
    d1 = p2 - p
    d2 = q2 - q
    eps = EPS_DEG * abs(d1) * abs(d2)

    o1 = _cross(d1, q - p)
    o2 = _cross(d1, q2 - p)
    o3 = _cross(d2, p - q)
    o4 = _cross(d2, p2 - q)

    # Endpoint on the other segment: degenerate regardless of the rest.
    for o, r, a, b in ((o1, q, p, p2), (o2, q2, p, p2), (o3, p, q, q2), (o4, p2, q, q2)):
        if abs(o) <= eps and _within_span(r, a, b):
            raise DegenerateCrossing(f"segments touch near {r!r}")

    straddle2 = (o1 > eps and o2 < -eps) or (o1 < -eps and o2 > eps)
    straddle1 = (o3 > eps and o4 < -eps) or (o3 < -eps and o4 > eps)
    if not (straddle1 and straddle2):
        return None
    denom = _cross(d1, d2)
    if abs(denom) <= eps:
        raise DegenerateCrossing("crossing is too close to parallel")
    return 1 if denom > 0 else -1


def _image_point(w, p: complex, q: complex) -> complex:
    """An image point of a refinement, checked: PointOnLoop at the chart's
    pole (None), past 1e100 (the source ran into a pole) or on a puncture."""
    if w is None:
        raise PointOnLoop("image path passes through the chart pole")
    w = complex(w)
    # |w| <= 1e100 fails on a non-finite w (|w| is inf or NaN) and on an
    # escaped one
    if not abs(w) <= _BLOWUP_MAGNITUDE:
        raise PointOnLoop("image path escapes the chart (source hits a pole)")
    if w == p or w == q:
        raise PointOnLoop("image path passes through the chart origin" if w == 0
                          else f"image path passes through the puncture {w!r}")
    return w


# A piece's disk (c, r) holds its chord, and keeps it clear of a puncture p
# for the point-on-loop check when |c - p| - r exceeds EPS_EDGE by this times
# |c - p| + r + |p|: twice a bound on the rounding of the distances compared.
_CLEAR_ROUNDING = 1e-14


def refine_path_view(
    vertices,
    view,
    tol: Tolerances = DEFAULT_TOL,
    punctures=(0j, None),
) -> list[complex]:
    """Map an open polyline through ``view``, bisecting until each piece is certified.

    ``view(z)`` is the image of a point: a complex number, or None for the
    point at infinity.  ``view.enclose(disk)`` is a disk containing the
    image of a disk (``mobius_disk`` gives the form), or None; when
    ``view.centred`` (``maps.CompiledMap``) it is None or centred on the
    view's image of the disk's centre, which a rejected piece reuses.  The
    punctures are points of the image chart, at most one None (infinity).
    A piece [za, zb] is accepted only when the enclosure of its source
    disk, centred at its midpoint with 1.125 times its half-chord as
    radius (so an end on a pole lies strictly inside), is a proper disk
    (so it misses infinity) that excludes both punctures and contains both
    computed end images.  The image arc and the chord then lie in one disk
    that misses the punctures, so they are homotopic in the
    twice-punctured sphere and the returned points' ``path_turns`` about
    each finite puncture is the image curve's turning, certified piece by
    piece.  Raises PointOnLoop when the image hits a puncture or escapes
    the chart (None, or a magnitude past 1e100: the source ran into a
    pole), BudgetExhausted when the point budget runs out, SamplingFailure
    when a piece is not certified after 60 bisections; then PointOnLoop
    for a chord with distinct ends within EPS_EDGE of a puncture, measured
    only if its disk does not clear both by EPS_EDGE and _CLEAR_ROUNDING.
    """
    verts = [complex(v) for v in vertices]
    if len(verts) < 2:
        raise ValueError("need at least two vertices")
    finite = [complex(p) for p in punctures if p is not None]
    if not finite:
        raise ValueError("need a finite puncture")
    # a lone finite puncture is tested twice, which costs less than a branch
    p, q = finite[0], finite[-1]
    slack_p, slack_q = (EPS_EDGE + _CLEAR_ROUNDING * abs(x) for x in (p, q))
    enclose, centred = view.enclose, getattr(view, "centred", False)

    # each edge is bisected on the actual segment until every piece is
    # certified; out holds the images of the vertices and inserted points
    budget = tol.max_refine_points
    out = [_image_point(view(verts[0]), p, q)]
    emit = out.append
    uncleared = []
    # pieces still to emit after the current one, nearest last
    stack = []
    push, pop = stack.append, stack.pop
    for a, b in zip(verts, verts[1:]):
        sa, sb, swa, swb, depth = a, b, out[-1], _image_point(view(b), p, q), 0
        while True:
            mid = 0.5 * (sa + sb)
            disk = enclose((mid, 0.5625 * abs(sb - sa), False))
            if disk is not None:
                c, r, outside = disk
                if (not outside and (dp := abs(c - p)) > r and abs(swa - c) <= r
                        and abs(swb - c) <= r and (dq := abs(c - q)) > r):
                    budget -= 1
                    if budget < 0:
                        raise BudgetExhausted(
                            f"refinement budget exhausted: more than "
                            f"max_refine_points={tol.max_refine_points} pieces")
                    emit(swb)
                    if not (dp - r > slack_p + _CLEAR_ROUNDING * (dp + r)
                            and dq - r > slack_q + _CLEAR_ROUNDING * (dq + r)):
                        uncleared.append((swa, swb))
                    if not stack:
                        break
                    sa, sb, swa, swb, depth = pop()
                    continue
            if depth > 60:
                raise SamplingFailure("edge cannot be refined further")
            # go on with the near half; the far half waits on the stack
            wm = _image_point(disk[0] if centred and disk is not None else view(mid), p, q)
            depth += 1
            push((mid, sb, wm, swb, depth))
            sb, swb = mid, wm
    for x in finite:
        # a repeated point is no edge of the path
        if any(a != b and point_segment_distance(x, a, b) <= EPS_EDGE for a, b in uncleared):
            raise PointOnLoop(f"reference point {x!r} lies on a loop edge")
    return out


def dedupe_consecutive(points, closed: bool = False) -> list[complex]:
    """Drop exactly-repeated consecutive points (and the wrap repeat)."""
    cleaned: list[complex] = []
    for w in points:
        if not cleaned or w != cleaned[-1]:
            cleaned.append(w)
    if closed:
        while len(cleaned) > 1 and cleaned[-1] == cleaned[0]:
            cleaned.pop()
    return cleaned
