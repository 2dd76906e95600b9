"""Planar-chart geometry on the extended complex plane.

Points live in one affine chart of the sphere at a time: a finite complex
number, or the single point at infinity.  Paths and loops are polylines with
straight edges.  The chart carries the standard counterclockwise orientation,
and the two workhorse quantities are the winding number of a closed polyline
around a point (accumulated signed angle over 2*pi, snapped to an integer)
and the sign of a transverse segment crossing.
"""

from __future__ import annotations

import cmath
import math
from cmath import isfinite
from dataclasses import dataclass

from .errors import (
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


@dataclass(frozen=True)
class Tolerances:
    """Numerical thresholds shared across the pipeline.

    eps_edge   minimum separation between a reference point and a loop edge
    eps_deg    degeneracy cutoff for orientation determinants of crossings
    winding_snap  how far an angle sum may sit from an integer turn count
    fixed_tol  residual allowed when validating a declared fixed point
    """

    eps_edge: float = 1e-9
    eps_deg: float = 1e-12
    winding_snap: float = 1e-6
    fixed_tol: float = 1e-9
    max_refine_points: int = 1 << 20
    jitter_magnitude: float = 1e-7
    jitter_attempts: int = 5


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
    invertibility.
    """

    a: complex
    b: complex
    c: complex
    d: complex

    def __post_init__(self):
        for name in ("a", "b", "c", "d"):
            object.__setattr__(self, name, complex(getattr(self, name)))
        if abs(self.det) <= 1e-12:
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

    def reversed_(self) -> "Polyline":
        return Polyline(self.vertices[::-1], self.closed)

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


def _phase_step(w0: complex, w1: complex) -> float:
    """Signed angle from w0 to w1 as seen from the origin, in (-pi, pi].

    Computed from the two phases to avoid overflow in w1/w0 when the
    magnitudes differ by hundreds of orders.
    """
    if w1 == w0:
        return 0.0
    return math.remainder(cmath.phase(w1) - cmath.phase(w0), TAU)


def path_turns(points) -> float:
    """Total accumulated argument along a point sequence, in radians."""
    total = 0.0
    for w0, w1 in zip(points, points[1:]):
        total += _phase_step(w0, w1)
    return total


def winding_number(loop: Polyline, p: complex, tol: Tolerances = DEFAULT_TOL) -> int:
    """Winding number of a closed polyline around p.

    Each straight edge contributes the signed angle it subtends at p; a
    closed traversal therefore sums to very nearly an integer number of
    full turns.  The sum must land within ``tol.winding_snap`` of an
    integer or NonIntegerWinding is raised, and p must stay at least
    ``tol.eps_edge`` away from every edge.
    """
    if not loop.closed:
        raise ValueError("winding number needs a closed polyline")
    p = complex(p)
    if loop.passes_within(p, tol.eps_edge):
        raise PointOnLoop(f"reference point {p!r} lies on a loop edge")
    total = 0.0
    for a, b in loop.edges():
        total += _phase_step(a - p, b - p)
    return snap_turns(total, tol)


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


def segment_crossing(
    s1: tuple[complex, complex],
    s2: tuple[complex, complex],
    tol: Tolerances = DEFAULT_TOL,
) -> int | None:
    """Sign of the transverse crossing of two directed segments.

    Returns +1 when the tangent frame (dir s1, dir s2) at the crossing is
    positively oriented, -1 when negative, None when the open interiors do
    not meet.  Endpoint touches, collinear overlaps and near-parallel
    crossings raise DegenerateCrossing: those configurations have no
    trustworthy sign and callers are expected to jitter and retry.
    """
    p, p2 = complex(s1[0]), complex(s1[1])
    q, q2 = complex(s2[0]), complex(s2[1])
    d1 = p2 - p
    d2 = q2 - q
    eps = tol.eps_deg

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


def bisect_path(
    vertices: list[complex],
    evaluate,
    accept,
    closed: bool,
    tol: Tolerances,
    stuck: Exception,
) -> list[complex]:
    """Map a polyline through ``evaluate``, bisecting edges until ``accept``.

    The first vertex is evaluated, then each edge (and the wrap edge when
    ``closed``) is bisected on the actual segment until ``accept(wa, wb)``
    holds for the images of every sub-segment's endpoints.  Returns the
    accepted images in order; a closed result does not repeat its first
    point.  Raises SamplingFailure when more than ``tol.max_refine_points``
    sub-segments are accepted, and ``stuck`` when a sub-segment is still
    rejected after 60 bisections.
    """
    budget = tol.max_refine_points
    out = [evaluate(vertices[0])]
    edge_list = list(zip(vertices, vertices[1:]))
    if closed:
        edge_list.append((vertices[-1], vertices[0]))

    for edge_index, (a, b) in enumerate(edge_list):
        wa = out[-1]
        wb = out[0] if (closed and edge_index == len(edge_list) - 1) else evaluate(b)
        # Stack of sub-segments still to emit, nearest first.
        stack = [(a, b, wa, wb, 0)]
        while stack:
            sa, sb, swa, swb, depth = stack.pop()
            if accept(swa, swb):
                budget -= 1
                if budget < 0:
                    raise SamplingFailure("refinement budget exhausted")
                out.append(swb)
                continue
            if depth > 60:
                raise stuck
            mid = 0.5 * (sa + sb)
            wm = evaluate(mid)
            stack.append((mid, sb, wm, swb, depth + 1))
            stack.append((sa, mid, swa, wm, depth + 1))
    if closed:
        out.pop()  # the wrap edge ends where the sequence began
    return out


def _tame_step(w0: complex, w1: complex) -> bool:
    """Chord shorter than 0.8 of the smaller endpoint radius, phase step below pi/2."""
    return abs(w1 - w0) < 0.8 * min(abs(w0), abs(w1)) and abs(_phase_step(w0, w1)) < math.pi / 2


def refine_path_view(
    vertices,
    view,
    closed: bool = False,
    tol: Tolerances = DEFAULT_TOL,
) -> list[complex]:
    """Map a polyline through ``view``, subdividing until the image is tame.

    Each straight source edge is bisected (points taken on the actual
    segment) until consecutive image points subtend an angle below pi/2 as
    seen from the origin AND are close together relative to their distance
    from the origin.  The second condition matters: a segment whose image
    swings to a very different radius can hide whole turns while its
    endpoint phases agree, and the phase test alone would accept it.  Both
    tests read only the endpoints of a sub-segment, so an image that wraps
    a whole turn between two vertices passes unseen: the result is
    homotopic, as a polyline in the punctured plane, to the true image
    curve only when the vertices are as dense as ``invariant._seeds``
    makes them (at one seed per edge the identity battery returned wrong
    integers).  ``view`` returns a complex number, or None for the point
    at infinity.  Raises PointOnLoop when the image hits the origin or
    escapes past the chart (None, or a magnitude past 1e100: the source
    ran into a pole), SamplingFailure when the point budget runs out or an
    edge cannot be refined.
    """
    verts = [complex(v) for v in vertices]
    if len(verts) < 2:
        raise ValueError("need at least two vertices")

    def evaluate(z: complex) -> complex:
        w = view(z)
        if w is None:
            raise PointOnLoop("image path passes through the chart pole")
        w = complex(w)
        if w == 0:
            raise PointOnLoop("image path passes through the chart origin")
        if not (math.isfinite(w.real) and math.isfinite(w.imag)) or abs(w) > _BLOWUP_MAGNITUDE:
            raise PointOnLoop("image path escapes the chart (source hits a pole)")
        return w

    return bisect_path(verts, evaluate, _tame_step, closed, tol,
                       SamplingFailure("edge cannot be refined further"))


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
