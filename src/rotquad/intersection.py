"""Algebraic intersection numbers of paths and loops in the punctured sphere.

Two independent realizations of the same pairing: a literal signed count of
transverse segment crossings, and the winding number of a closed loop around
the origin in the chart h that sends the puncture pair (x1, x2) to (0,
infinity), read exactly as its winding around x1 minus its winding around x2
(arg h(z) = arg(z - x1) - arg(z - x2) + const).  The two must always agree;
the test suite enforces it on random corpora.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CoincidentPoints, PointOnLoop
from .geometry import (
    DEFAULT_TOL,
    Polyline,
    SpherePoint,
    Tolerances,
    apply_mobius,  # unused here; kept as the name perfbench's tracer wraps
    as_sphere_point,
    bisect_path,
    dedupe_consecutive,
    refine_path_view,  # unused here; kept as the name perfbench's tracer wraps
    segment_crossing,
    winding_number,
)


@dataclass(frozen=True)
class MarkedPathPair:
    """A path alpha from x1 to x2 and a path beta from x3 to x4.

    alpha must stay clear of {x3, x4} and beta clear of {x1, x2}; the
    endpoints must match the marked points exactly.  All four points are
    finite here since polylines live in one affine chart.
    """

    alpha: Polyline
    beta: Polyline
    x1: SpherePoint
    x2: SpherePoint
    x3: SpherePoint
    x4: SpherePoint

    def __post_init__(self):
        for name in ("x1", "x2", "x3", "x4"):
            object.__setattr__(self, name, as_sphere_point(getattr(self, name)))
        if self.alpha.closed or self.beta.closed:
            raise ValueError("alpha and beta must be open paths")
        if self.alpha.start != self.x1.value or self.alpha.end != self.x2.value:
            raise ValueError("alpha endpoints must equal x1, x2 exactly")
        if self.beta.start != self.x3.value or self.beta.end != self.x4.value:
            raise ValueError("beta endpoints must equal x3, x4 exactly")
        eps = DEFAULT_TOL.eps_edge
        for p in (self.x3.value, self.x4.value):
            if self.alpha.passes_within(p, eps):
                raise PointOnLoop(f"alpha passes through the marked point {p!r}")
        for p in (self.x1.value, self.x2.value):
            if self.beta.passes_within(p, eps):
                raise PointOnLoop(f"beta passes through the marked point {p!r}")


def signed_crossing_sum(first: Polyline, second: Polyline, tol: Tolerances = DEFAULT_TOL) -> int:
    """Sum of transverse crossing signs over all edge pairs.

    Degenerate contacts raise; callers jitter and retry.
    """
    total = 0
    for e1 in first.edges():
        for e2 in second.edges():
            sign = segment_crossing(e1, e2, tol)
            if sign is not None:
                total += sign
    return total


def algebraic_intersection(pair: MarkedPathPair, tol: Tolerances = DEFAULT_TOL) -> int:
    """The pairing of alpha against beta: signed transverse crossing count."""
    return signed_crossing_sum(pair.alpha, pair.beta, tol)


def loop_class(
    gamma: Polyline,
    x1: SpherePoint,
    x2: SpherePoint,
    tol: Tolerances = DEFAULT_TOL,
) -> int:
    """Homotopy class of a closed loop in the sphere punctured at x1 and x2.

    The winding number around 0 after the normalizing chart, read exactly as
    gamma's winding around x1 minus that around x2 (a point at infinity adds
    nothing); equals the pairing of gamma against any transverse path from
    x1 to x2.  Raises CoincidentPoints for x1 == x2.
    """
    if not gamma.closed:
        raise ValueError("loop_class needs a closed polyline")
    x1, x2 = as_sphere_point(x1), as_sphere_point(x2)
    if x1 == x2:
        raise CoincidentPoints(f"cannot normalize a coincident pair {x1}, {x2}")
    return sum(sign * winding_number(gamma, p.value, tol)
               for sign, p in ((1, x1), (-1, x2)) if not p.is_infinity)


def resample_under(
    vertices,
    f,
    protected: tuple[complex, ...],
    tol: Tolerances = DEFAULT_TOL,
) -> list[complex]:
    """Image of a polyline under f, subdivided until chords are trustworthy.

    Consecutive image points must be closer to each other than half their
    distance to every protected point, so each image chord is homotopic to
    the true image arc in the complement of the protected set.
    """

    def ok(_z0: complex, _z1: complex, w0: complex, w1: complex) -> bool:
        step = abs(w1 - w0)
        if step == 0.0:
            return True
        for p in protected:
            if step > 0.5 * min(abs(w0 - p), abs(w1 - p)):
                return False
        return True

    return bisect_path([complex(v) for v in vertices], lambda z: complex(f(z)), ok, tol,
                       PointOnLoop("image path cannot be separated from a marked point"))


def homeo_invariance_check(pair: MarkedPathPair, f, tol: Tolerances = DEFAULT_TOL) -> bool:
    """Whether the pairing is unchanged by pushing everything through f.

    f is a callable on finite chart points (an orientation-preserving
    homeomorphism in the chart); marked points are carried along and the
    image paths are adaptively resampled before recounting crossings.
    """
    y = [complex(f(p.value)) for p in (pair.x1, pair.x2, pair.x3, pair.x4)]
    alpha_img = resample_under(pair.alpha.vertices, f, (y[2], y[3]), tol=tol)
    beta_img = resample_under(pair.beta.vertices, f, (y[0], y[1]), tol=tol)
    alpha_img = dedupe_consecutive(alpha_img)
    beta_img = dedupe_consecutive(beta_img)
    # Mapped endpoints can drift by roundoff; pin them to the mapped marks.
    alpha_img[0], alpha_img[-1] = y[0], y[1]
    beta_img[0], beta_img[-1] = y[2], y[3]
    image_pair = MarkedPathPair(
        Polyline(tuple(alpha_img)),
        Polyline(tuple(beta_img)),
        SpherePoint(y[0]),
        SpherePoint(y[1]),
        SpherePoint(y[2]),
        SpherePoint(y[3]),
    )
    return algebraic_intersection(image_pair, tol) == algebraic_intersection(pair, tol)
