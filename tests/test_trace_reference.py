"""The g-form trace against a reference copy of the sampled trace before it.

The reference below is the trace as it was read before: a search for one
whole-turn shift of the profile that fixes x1, x2 and x3, then x4's run
round its circle in the twist's chart sampled at 24 points a turn, mapped
back, and classified by ``loop_class`` as a polygon.  On every ordered
distinct 4-tuple of every catalog scenario's points the library's trace
must give the sampler's value wherever the sampler gives one.  Where the
shift search finds no isotopy for a map that reduces to one twist, the
trace must give loop and lift's value; a map that does not reduce has no
trace.  Off the catalog the two may differ, where the polygon cuts a point
off that the circle holds: that case is the regression test of the exact
trace.
"""

import cmath
import itertools
import math
import random
from dataclasses import dataclass

import pytest

from rotquad import (
    INFINITY,
    MarkedTuple,
    Power,
    RadialProfile,
    RadialTwist,
    RfEvaluator,
    rf_trace,
    synthesize_twist_trace,
)
from rotquad.catalog import identity_scenarios
from rotquad.errors import InconclusiveComputation, NotFixed, PointOnLoop, ScenarioError
from rotquad.geometry import (
    DEFAULT_TOL,
    EPS_EDGE,
    Polyline,
    SpherePoint,
    Tolerances,
    apply_mobius,
    as_sphere_point,
    dedupe_consecutive,
)
from rotquad.intersection import loop_class
from rotquad.invariant import _require_distinct
from rotquad.maps import MapSpec, fixed_residual, require_fixed, twist_chart

TAU = math.tau


# ---------------------------------------------------------------------------
# the reference: the sampled trace and its loop_class reading


@dataclass(frozen=True)
class ReferenceTrace:
    """The closed curve swept by x4 under an isotopy from the identity.

    The isotopy is required to fix x1, x2 and x3 throughout, so the trace
    must stay clear of all three context points.
    """

    samples: Polyline
    x1: SpherePoint
    x2: SpherePoint
    x3: SpherePoint

    def __post_init__(self):
        for name in ("x1", "x2", "x3"):
            object.__setattr__(self, name, as_sphere_point(getattr(self, name)))
        if not self.samples.closed:
            raise ValueError("a trace must be a closed polyline")
        for p in (self.x1, self.x2, self.x3):
            if not p.is_infinity and self.samples.passes_within(p.value, EPS_EDGE):
                raise PointOnLoop(f"trace passes through the context point {p!r}")


def reference_rf_trace(trace: ReferenceTrace, tol: Tolerances = DEFAULT_TOL) -> int:
    """The invariant as the class of the isotopy trace of x4."""
    return loop_class(trace.samples, trace.x1, trace.x2, tol)


def reference_synthesize_twist_trace(
    spec: MapSpec,
    t: MarkedTuple,
    samples_per_turn: int = 24,
    tol: Tolerances = DEFAULT_TOL,
) -> ReferenceTrace | None:
    if _require_distinct(t) != "distinct":
        raise ScenarioError("traces need four distinct points")
    require_fixed(spec, t.points, tol)
    reduced = twist_chart(spec)
    if reduced is None:
        raise ScenarioError("no canonical isotopy known for this map")
    chart, profile = reduced
    context = []
    for p in (t.x1, t.x2, t.x3):
        q = apply_mobius(chart, p)
        if q.is_infinity or q.value == 0:
            continue
        context.append(profile.value(abs(q.value)))
    if not context:
        raise ScenarioError("the context points do not constrain the isotopy")
    shift = context[0]
    if any(v != shift for v in context[1:]):
        raise ScenarioError("the canonical isotopy would move a context point")
    if abs(shift - round(shift)) > tol.fixed_tol:
        raise ScenarioError("context points sit on a moving circle")
    shift = float(round(shift))
    y4 = apply_mobius(chart, t.x4)
    if y4.is_infinity or y4.value == 0:
        raise ScenarioError("the moving point sits on the twist axis")
    wraps = profile.value(abs(y4.value)) - shift
    if abs(wraps - round(wraps)) > tol.fixed_tol:
        res = fixed_residual(spec, t.x4)
        raise NotFixed(t.x4, max(res, abs(wraps - round(wraps))))
    wraps = int(round(wraps))
    if wraps == 0:
        return None
    back = chart.inverse()
    n = samples_per_turn * abs(wraps)
    if n > tol.max_refine_points:
        raise InconclusiveComputation(
            f"trace budget exhausted: {n} samples, more than "
            f"max_refine_points={tol.max_refine_points}")
    verts = []
    for j in range(n):
        w = y4.value * complex(math.cos(TAU * wraps * j / n), math.sin(TAU * wraps * j / n))
        image = apply_mobius(back, SpherePoint(w))
        if image.is_infinity:
            raise ScenarioError("the trace passes through the point at infinity")
        verts.append(image.value)
    verts = dedupe_consecutive(verts, closed=True)
    if len(verts) < 3:
        return None
    return ReferenceTrace(Polyline(tuple(verts), closed=True), t.x1, t.x2, t.x3)


# ---------------------------------------------------------------------------
# comparison


def _outcome(synthesize, value, spec, t, tol):
    """The trace value (0 for no trace), or the class of what was raised."""
    try:
        trace = synthesize(spec, t, tol=tol)
        return 0 if trace is None else value(trace, tol)
    except Exception as exc:  # compared by class
        return type(exc)


def test_trace_reads_every_catalog_tuple_as_the_sampler_or_loop_and_lift():
    sampled = refused = irreducible = 0
    for sc in identity_scenarios():
        ev = RfEvaluator(sc.map_spec, sc.tolerances, sc.seed)
        reducible = twist_chart(sc.map_spec) is not None
        for points in itertools.permutations(sc.points.values(), 4):
            t = MarkedTuple(*points)
            got = _outcome(synthesize_twist_trace, rf_trace, sc.map_spec, t, sc.tolerances)
            want = _outcome(reference_synthesize_twist_trace, reference_rf_trace,
                            sc.map_spec, t, sc.tolerances)
            if isinstance(want, int):
                sampled += 1
            elif want is ScenarioError and reducible:
                # no one shift fixes x1, x2 and x3, or x4 is on the axis
                want = ev.value(*points)
                refused += 1
            else:
                irreducible += want is ScenarioError
            assert got == want, (sc.name, points)
    assert (sampled, refused, irreducible) == (1890, 3510, 1680)


@pytest.mark.parametrize("q", [-2, 3])
def test_trace_of_a_power_is_loop_and_lift(q):
    # twenty seeded tuples of each catalog map that reduces to one twist
    rng = random.Random(q)
    for sc in identity_scenarios():
        if twist_chart(sc.map_spec) is None:
            continue
        spec = Power(q, sc.map_spec)
        ev = RfEvaluator(spec, sc.tolerances, sc.seed)
        for points in rng.sample(list(itertools.permutations(sc.points.values(), 4)), 20):
            trace = synthesize_twist_trace(spec, MarkedTuple(*points), tol=sc.tolerances)
            assert rf_trace(trace, sc.tolerances) == ev.value(*points), (sc.name, points)


def test_near_circle_point_is_inside_where_the_polygon_cut_it_off():
    # x1 lies inside x4's circle |z| = 1.001 but outside its inscribed
    # 24-gon, half a sample step off a vertex: the polygon read 0
    spec = RadialTwist(RadialProfile(((1, 0), (1.001, 1))))
    t = MarkedTuple(0.999 * cmath.exp(1j * math.pi / 24), INFINITY, 0.5, 1.001)
    assert reference_rf_trace(reference_synthesize_twist_trace(spec, t)) == 0
    assert rf_trace(synthesize_twist_trace(spec, t)) == 1
    assert RfEvaluator(spec).value(*t.points) == 1
