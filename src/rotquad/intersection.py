"""Algebraic intersection numbers of paths and loops in the punctured sphere.

Two independent realizations of the same pairing: a literal signed count of
transverse segment crossings, and the winding number of a closed loop around
the origin in the chart h that sends the puncture pair (x1, x2) to (0,
infinity), read exactly as its winding around x1 minus its winding around x2
(arg h(z) = arg(z - x1) - arg(z - x2) + const).  The two must always agree;
the test suite enforces it on random corpora.
"""

from __future__ import annotations

from .errors import CoincidentPoints
from .geometry import (
    DEFAULT_TOL,
    Polyline,
    SpherePoint,
    Tolerances,
    apply_mobius,  # unused here; kept as the name perfbench's tracer wraps
    as_sphere_point,
    refine_path_view,  # unused here; kept as the name perfbench's tracer wraps
    segment_crossing,
    winding_number,
)


def signed_crossing_sum(first: Polyline, second: Polyline) -> int:
    """Sum of transverse crossing signs over all edge pairs.

    Degenerate contacts raise; callers jitter and retry.
    """
    total = 0
    for e1 in first.edges():
        for e2 in second.edges():
            sign = segment_crossing(e1, e2)
            if sign is not None:
                total += sign
    return total


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

