"""The four-point rotation-difference invariant of a sphere homeomorphism.

Given four distinct fixed points, puncture the sphere at the first pair and
measure how much more the image of a connecting path from the third point to
the fourth wraps around the punctures than the path itself did.  Three
independent computations of the same integer are provided (image-loop
winding, argument-lift difference, isotopy-trace class), together with the
real-valued extensions to repeated points (blow-up at a fixed point) and to
periodic points, plus the full identity-verification suite.
"""

from __future__ import annotations

import cmath
import functools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    GeometryFailure,
    InconclusiveComputation,
    MixedCoincidence,
    NotFixed,
    PointOnLoop,
    SamplingFailure,
    ScenarioError,
    TangentCondition,
)
from .geometry import (
    DEFAULT_TOL,
    EPS_EDGE,
    INFINITY,
    MOBIUS_IDENTITY,
    MobiusTransform,
    Polyline,
    SpherePoint,
    Tolerances,
    apply_mobius,
    as_sphere_point,
    closed_path_turns,
    dedupe_consecutive,
    mobius_normalize,
    mobius_step,
    path_turns,
    point_segment_distance,
    refine_path_view,
    snap_turns,
    winding_number,  # unused here; kept as the name perfbench's tracer wraps
)
from .intersection import loop_class  # unused here; kept as the name perfbench's tracer wraps
from .maps import (
    CompiledMap,
    Compose,
    Inverse,
    MapSpec,
    MobiusConjugate,
    Power,
    RadialProfile,
    _mobius_pair,
    _charted_steps,
    _require_fixed,
    _rigid_germ,
    _structural_rotation,
    compile_map,
    eval_map,  # unused here; kept as the name perfbench's tracer wraps
    fixed_residual,  # unused here; kept as the name perfbench's tracer wraps
    iterate_spec,
    require_fixed,
    rigid_rotation_angle,  # unused here; kept as the name perfbench's tracer wraps
)
from .report import CheckRecord, make_record

TAU = math.tau
# Retries after a geometry failure: each takes the next path variant, so a few suffice.
JITTER_ATTEMPTS = 5
# A retry moves the path's control point by this times max(|x4 - x3|, 1): off a graze only.
JITTER_MAGNITUDE = 1e-7


@dataclass(frozen=True)
class MarkedTuple:
    """An ordered 4-tuple of fixed points."""

    x1: SpherePoint
    x2: SpherePoint
    x3: SpherePoint
    x4: SpherePoint

    def __post_init__(self):
        for name in ("x1", "x2", "x3", "x4"):
            object.__setattr__(self, name, as_sphere_point(getattr(self, name)))

    @property
    def points(self) -> tuple[SpherePoint, SpherePoint, SpherePoint, SpherePoint]:
        return (self.x1, self.x2, self.x3, self.x4)

    def classify(self) -> str:
        """distinct / degenerate_pair (value 0 by convention) / mixed."""
        x1, x2, x3, x4 = self.points
        if x1 == x2 or x3 == x4:
            return "degenerate_pair"
        if x1 in (x3, x4) or x2 in (x3, x4):
            return "mixed"
        return "distinct"


def _moduli(chart: MobiusTransform, points) -> list[float]:
    """|H(p)| for the chart H at each of points, infinite at H's pole."""
    at = mobius_step(chart)
    radii = []
    for p in points:
        w = at(p.z)
        radii.append(math.inf if w is None else abs(w))
    return radii


@dataclass(frozen=True)
class IsotopyTrace:
    """An isotopy from the identity, in stages: in stage (H, rho), each
    point z turns t * rho(|H(z)|) times round its circle |H(z)| = const in
    the chart H, for t from 0 to 1.  rf_trace reads its class on the four
    points."""

    stages: tuple[tuple[MobiusTransform, RadialProfile], ...]
    x1: SpherePoint
    x2: SpherePoint
    x3: SpherePoint
    x4: SpherePoint

    def __post_init__(self):
        for name in ("x1", "x2", "x3", "x4"):
            object.__setattr__(self, name, as_sphere_point(getattr(self, name)))


@dataclass(frozen=True)
class BlowupEstimate:
    """A translation-number estimate with its a-priori error bound."""

    value: float
    error_bound: float
    n_iters: int
    extrapolated: bool = False


def _require_distinct(t: MarkedTuple):
    kind = t.classify()
    if kind == "mixed":
        raise MixedCoincidence(
            "a point of the first pair coincides with one of the second pair; "
            "use the blow-up forms for repeated points"
        )
    return kind


def _validate_beta(beta: Polyline, x3: SpherePoint, x4: SpherePoint, avoid):
    if beta.closed:
        raise ValueError("the connecting path must be open")
    if x3.is_infinity or x4.is_infinity:
        raise ValueError("a polyline cannot reach the point at infinity; change chart first")
    if beta.start != x3.value or beta.end != x4.value:
        raise ValueError("the connecting path must run exactly from x3 to x4")
    for p in avoid:
        if not p.is_infinity and beta.passes_within(p.value, EPS_EDGE):
            raise PointOnLoop(f"the connecting path passes through {p!r}")


def _turning(points, punctures) -> float:
    """The turning of a point sequence about the first puncture less its
    turning about the second, a puncture at infinity (None) adding
    nothing: the turning about 0 in any chart that sends the first to 0
    and the second to infinity."""
    first, second = punctures
    turning = 0.0 if first is None else path_turns(points, first)
    return turning if second is None else turning - path_turns(points, second)


def _loop_and_lift(forward: list[complex], base: float, ends, punctures) -> tuple[float, float]:
    """The turning about the punctures (_turning) of the loop (image path) *
    (path reversed), the image path joined to the path's ends by straight
    edges, and of the image path alone, each less the path's exact turning
    base: in whole turns, the loop and lift values.  Both are read in one
    pass per puncture, summed as _turning sums them.  The path avoids the
    punctures, and refine_path_view kept the image path's chords off them,
    so only the two closing edges are checked: PointOnLoop when a puncture
    lies within EPS_EDGE of one."""
    start, end = ends
    for p in punctures:
        # a repeated point is no edge of the loop
        if p is not None and any(a != b and point_segment_distance(p, a, b) <= EPS_EDGE
                                 for a, b in ((start, forward[0]), (forward[-1], end))):
            raise PointOnLoop(f"reference point {p!r} lies on a loop edge")
    first, second = punctures
    loop, lift = (0.0, 0.0) if first is None else closed_path_turns(start, forward, end, first)
    if second is not None:
        about_second = closed_path_turns(start, forward, end, second)
        loop, lift = loop - about_second[0], lift - about_second[1]
    return loop - base, lift - base


def rf_loop(spec: MapSpec, t: MarkedTuple, beta: Polyline, tol: Tolerances = DEFAULT_TOL) -> int:
    """The invariant as the class of the loop (image of beta) * (beta reversed).

    The loop is formed in the normalized chart and its winding number
    around the origin is the answer.  Keeping a pair of the tuple equal
    returns 0 by the constant-path convention; mixed coincidences are
    rejected.
    """
    if _require_distinct(t) == "degenerate_pair":
        return 0
    return snap_turns(_loop_and_lift(*RfEvaluator(spec, tol)._refined(t, beta))[0], tol)


def rf_lift(spec: MapSpec, t: MarkedTuple, beta: Polyline, tol: Tolerances = DEFAULT_TOL) -> int:
    """The invariant as a difference of accumulated arguments.

    Tracks the total argument swept by the image path and by the path
    itself in the normalized chart; their difference is a whole number of
    turns (the deck exponent of the corresponding lift).
    """
    if _require_distinct(t) == "degenerate_pair":
        return 0
    forward, base, _, punctures = RfEvaluator(spec, tol)._refined(t, beta)
    return snap_turns(_turning(forward, punctures) - base, tol)


def rf_trace(trace: IsotopyTrace, tol: Tolerances = DEFAULT_TOL) -> int:
    """The class of the isotopy trace: the paper's g-form, summed over the stages.

    In a stage (H, rho), write r_j = |H(x_j)| (infinite at H's pole) and
    rho_j = rho(r_j), and let g(a, b) = rho_b - rho_a when r_a < r_b, and 0
    otherwise.  The stage adds g(x1,x4) - g(x1,x3) - g(x2,x4) + g(x2,x3):
    about a fixed point c on a circle where rho = k, an integer, the
    isotopy by t (rho - k) fixes c and moves each fixed end x_j round its
    own circle rho_j - k whole times, which winds once about c when
    r_c < r_j.  A tie r_a = r_b puts both points on one pointwise-fixed
    circle, and its term is 0.  The points where the rule reads rho must
    turn a whole number of times (within fixed_tol), or NotFixed is raised.
    """
    points = (trace.x1, trace.x2, trace.x3, trace.x4)
    return sum(_stage_class(chart, profile, points, tol) for chart, profile in trace.stages)


def _stage_class(chart: MobiusTransform, profile: RadialProfile, points, tol: Tolerances) -> int:
    """One stage's g-form, as the sum of c_j * rho_j over the four points.

    An axis point (r = 0 or infinity) gets c = 0, so rho is never read
    there.  Two moduli within a relative 1e-12 of each other whose whole
    turns differ raise PointOnLoop: the term between them depends on
    their order, which rounding in the chart may have flipped.  A rho of
    2**52 turns or more has no fractional bits left, so its whole-turn
    count may be rounded: that raises InconclusiveComputation.
    """
    radii = _moduli(chart, points)
    r1, r2, r3, r4 = radii
    coefficients = ((r1 < r3) - (r1 < r4), (r2 < r4) - (r2 < r3),
                    (r2 < r3) - (r1 < r3), (r1 < r4) - (r2 < r4))
    turns = functools.cache(lambda j: _whole_turns(profile, radii[j], points[j], tol))
    _require_order(radii, points, turns)
    return sum(c * turns(j) for j, c in enumerate(coefficients) if c)


def _whole_turns(profile: RadialProfile, r: float, point: SpherePoint, tol: Tolerances) -> int:
    """rho(r) in whole turns, at a point that must turn a whole number of
    times: NotFixed beyond fixed_tol of an integer, and
    InconclusiveComputation from 2**52 turns up."""
    value = profile.value(r)
    if abs(value) >= 2**52:
        raise InconclusiveComputation(
            f"profile value {value!r} is too large to count whole turns exactly")
    whole = round(value)
    if abs(value - whole) > tol.fixed_tol:
        raise NotFixed(point, abs(value - whole))
    return whole


def _require_order(radii, points, turns) -> None:
    """PointOnLoop when a point of the first pair and one of the second
    have moduli within a relative 1e-12 of each other and different
    turns(j): the g-form's term between them depends on their order."""
    for a in (0, 1):
        for b in (2, 3):
            if math.isclose(radii[a], radii[b], rel_tol=1e-12) and turns(a) != turns(b):
                raise PointOnLoop(
                    f"{points[a]!r} and {points[b]!r} sit on one circle with different turns")


def concatenate_traces(first: IsotopyTrace, second: IsotopyTrace) -> IsotopyTrace:
    """Trace of the staged isotopy: run first's motion, then second's.

    Both traces must be based at the same moving point and share their
    context points.
    """
    if (first.x1, first.x2, first.x3) != (second.x1, second.x2, second.x3):
        raise ValueError("traces have different context points")
    if first.x4 != second.x4:
        raise ValueError("traces are based at different points")
    return IsotopyTrace(first.stages + second.stages, first.x1, first.x2, first.x3, first.x4)


# ---------------------------------------------------------------------------
# blow-up extensions


def rf_blowup(
    spec: MapSpec,
    p,
    x2,
    x4,
    n_iters: int,
    tol: Tolerances = DEFAULT_TOL,
    extrapolate: bool = False,
) -> BlowupEstimate:
    """The invariant with the third point blown up at the fixed point p:
    R(p, x2, p, x4), read at its limit.

    The blow-up is the limit, as n grows, of the extra wrapping per iterate
    of the n-th iterate's image of a radial path from p to x4, in the
    chart sending p to 0 and x2 to infinity; the germ at p must be a rigid
    rotation (TangentCondition otherwise).  A spec that twist_chart
    reduces is read from its one walk, as the paper's g-form
    (_blowup_g_form); any other from one certified refinement of the map
    itself (_refined_limit).  Either way the value is the limit, which the
    n-th iterate's wrapping is within 2 / n_iters of: n_iters sets only
    that reported error_bound, and extrapolate only marks the estimate
    extrapolated (from n_iters >= 2).
    """
    if n_iters < 1:
        raise ValueError("n_iters must be positive")
    p = as_sphere_point(p)
    x2 = as_sphere_point(x2)
    x4 = as_sphere_point(x4)
    if len({p, x2, x4}) != 3:
        raise ValueError("p, x2, x4 must be pairwise distinct")
    reduced, _, steps = _charted_steps(spec)
    _require_fixed(CompiledMap(steps), (p, x2, x4), tol)
    if reduced is None:
        value = _refined_limit(spec, p, x2, x4, tol)
    else:
        value = _blowup_g_form(*reduced, p, x2, x4, tol)
    if value is None:
        raise TangentCondition(
            f"the germ at {p!r} is not an exact rigid rotation; "
            "the tangent-circle dynamics cannot be certified"
        )
    return BlowupEstimate(value, 2.0 / n_iters, n_iters, extrapolate and n_iters >= 2)


def _blowup_g_form(chart: MobiusTransform, profile: RadialProfile, p: SpherePoint,
                   x2: SpherePoint, x4: SpherePoint, tol: Tolerances) -> float | None:
    """rf_blowup's value for a spec that twist_chart reduces to (chart H,
    profile rho): _stage_class's g-form at (p, x2, p, x4); None when rho
    is not constant about |H(p)|.

    rho at p is the germ angle, read unrounded: rho's constant value about
    |H(p)|, rho at infinity when H(p) is infinity.  rho at x2 and x4 is
    read in whole turns, as _stage_class reads it, and two moduli within a
    relative 1e-12 of each other with different readings raise
    PointOnLoop (_require_order).  The coefficients of the two p terms
    add to one in {-1, 0, 1}, so rho at p enters once, after the whole
    turns are summed exactly.
    """
    rp, r2, r4 = _moduli(chart, (p, x2, x4))
    germ = profile.locally_constant_value(rp)
    if germ is None:
        return None
    if (math.isclose(r2, rp, rel_tol=1e-12) or math.isclose(rp, r4, rel_tol=1e-12)
            or math.isclose(r2, r4, rel_tol=1e-12)):
        points, radii = (p, x2, p, x4), (rp, r2, rp, r4)
        _require_order(radii, points, lambda j: germ if j % 2 == 0 else _whole_turns(
            profile, radii[j], points[j], tol))
    # _stage_class's coefficients at r1 = r3 = rp: c2 and c4 at x2 and x4,
    # and the two p terms' add to -(c2 + c4)
    c2, c4 = (r2 < r4) - (r2 < rp), (rp < r4) - (r2 < r4)
    whole = ((c2 * _whole_turns(profile, r2, x2, tol) if c2 else 0)
             + (c4 * _whole_turns(profile, r4, x4, tol) if c4 else 0))
    return whole - (c2 + c4) * germ


def _refined_limit(spec: MapSpec, p: SpherePoint, x2: SpherePoint, x4: SpherePoint,
                   tol: Tolerances) -> float | None:
    """rf_blowup's value from one certified refinement of g = h o f o h^-1,
    in the chart h (p -> 0, x2 -> infinity); None when the germ at p is
    not rigid or has no certified rigid zone.

    Let theta be g's germ angle at 0 (_rigid_germ), q the point at half
    its certified rigid radius on the segment beta from 0 to y4 = h(x4)
    (at y4 / 2 when y4 is nearer), and sigma the germ's arc from q to
    g(q), which turns T(sigma) = 2 pi theta + remainder(arg(g(q) / q) -
    2 pi theta, 2 pi) about 0.  The loop sigma . g(beta[q, y4]) .
    beta[q, y4]^-1 is closed, so it winds a whole w times about 0, and so
    does its image under each iterate g^j, which fixes 0 and infinity.
    The orbit of q stays in the rigid zone, so summed over j < n the
    iterates' extra turning is 2 pi n (w - theta) + O(1): the limit is
    w - theta.
    """
    h = mobius_normalize(p, x2)
    g = spec if h == MOBIUS_IDENTITY else MobiusConjugate(h.inverse(), spec)
    germ = _rigid_germ(g, SpherePoint(0j), MOBIUS_IDENTITY, tol)
    if germ is None or not germ[1] > 0.0:
        return None
    theta, radius = germ
    y4 = mobius_step(h)(x4.z)
    if not y4:
        raise PointOnLoop(f"{x4!r} underflows onto {p!r} in the blow-up chart")
    q = y4 * (0.5 * min(radius, abs(y4)) / abs(y4))
    beta = (q, y4)
    forward = refine_path_view(beta, compile_map(g), tol=tol)
    arc = TAU * theta + math.remainder(cmath.phase(forward[0] / q) - TAU * theta, TAU)
    return snap_turns(arc + path_turns(forward) - path_turns(beta), tol) - theta


def rf_double_blowup(spec: MapSpec, p1, p2, tol: Tolerances = DEFAULT_TOL) -> float:
    """The invariant with both pairs blown up: R at (p1, p2, p1, p2).

    Equal to the difference of the local rotation angles at the two points,
    read in the chart sending p1 to 0 and p2 to infinity (outer minus
    inner); this matches the limits of the single blow-up as the fourth
    point approaches p2.  Symmetric in p1 and p2.
    """
    p1 = as_sphere_point(p1)
    p2 = as_sphere_point(p2)
    if p1 == p2:
        raise ValueError("p1 and p2 must be distinct")
    require_fixed(spec, (p1, p2), tol)
    h = mobius_normalize(p1, p2)
    normalized = spec if h == MOBIUS_IDENTITY else MobiusConjugate(h.inverse(), spec)
    compiled = {}  # both germ reads check each part on one compiled map
    inner = _structural_rotation(normalized, SpherePoint(0j), tol, compiled)
    outer = _structural_rotation(normalized, INFINITY, tol, compiled)
    if inner is None or outer is None:
        raise TangentCondition("both germs must be exact rigid rotations")
    return outer - inner


def rf_mixed(
    spec: MapSpec,
    t: MarkedTuple,
    n_iters: int = 10_000,
    tol: Tolerances = DEFAULT_TOL,
    extrapolate: bool = False,
):
    """Route a mixed-coincidence tuple to the blow-up forms.

    The pair-swap symmetries reduce every mixed pattern to either the
    double blow-up (both pairs coincide; exact, returned as a float) or a
    single blow-up (returned as a BlowupEstimate), possibly negated.
    """
    if t.classify() != "mixed":
        raise ValueError("rf_mixed handles mixed-coincidence tuples only")
    x1, x2, x3, x4 = t.points

    def negate(est: BlowupEstimate) -> BlowupEstimate:
        return BlowupEstimate(-est.value, est.error_bound, est.n_iters, est.extrapolated)

    if x1 == x3 and x2 == x4:
        return rf_double_blowup(spec, x1, x2, tol)
    if x1 == x4 and x2 == x3:
        return -rf_double_blowup(spec, x1, x2, tol)
    if x1 == x3:
        return rf_blowup(spec, x1, x2, x4, n_iters, tol, extrapolate)
    if x2 == x4:  # both-pair swap leaves the value unchanged
        return rf_blowup(spec, x2, x1, x3, n_iters, tol, extrapolate)
    if x1 == x4:
        return negate(rf_blowup(spec, x1, x2, x3, n_iters, tol, extrapolate))
    return negate(rf_blowup(spec, x2, x1, x4, n_iters, tol, extrapolate))


def rf_periodic(
    spec: MapSpec,
    q: int,
    t: MarkedTuple,
    beta: Polyline,
    tol: Tolerances = DEFAULT_TOL,
) -> Fraction:
    """The invariant on period-q points: R of the q-th iterate, divided by q."""
    if q < 1:
        raise ValueError("the period must be positive")
    power = iterate_spec(spec, q)
    require_fixed(power, t.points, tol)
    return Fraction(rf_loop(power, t, beta, tol), q)


# ---------------------------------------------------------------------------
# path construction and the cached evaluator


def connecting_path(
    x3: complex,
    x4: complex,
    avoid=(),
    variant: int = 0,
    jitter: complex = 0j,
) -> Polyline:
    """A polyline of four edges from x3 to x4 bowed away from the points to avoid.

    Different variants bow to different sides and by different amounts, so
    retrying with the next variant gives a genuinely different path.  The
    path is validated here: it runs exactly from x3 to x4 and keeps at
    least EPS_EDGE (and 1e-6 of the points' scale) from every point to
    avoid.  The refinement bisects its edges wherever the map needs it.
    """
    finite_avoid = [p.value for p in map(as_sphere_point, avoid) if not p.is_infinity]
    return Polyline(tuple(_path_vertices(complex(x3), complex(x4), finite_avoid, variant, jitter)))


# The quadratic Bezier weights ((1 - s)^2, 2 s (1 - s), s^2) at s = j / 4, exact in floats
_BEZIER = tuple(((1 - j / 4) ** 2, 2 * (j / 4) * (1 - j / 4), (j / 4) ** 2) for j in range(5))


def _path_vertices(x3: complex, x4: complex, avoid: list[complex], variant: int,
                   jitter: complex) -> list[complex]:
    """connecting_path's vertices, avoiding the finite points avoid, checked
    finite as a Polyline checks them."""
    span = x4 - x3
    scale = max([abs(span)] + [abs(p - x3) for p in avoid] + [1e-9])
    margin = max(1e-6 * scale, EPS_EDGE)
    for k in range(variant, variant + 25):
        side = 1.0 if k % 2 == 0 else -1.0
        bulge = 0.31 + 0.23 * (k // 2)
        ctrl = 0.5 * (x3 + x4) + side * bulge * (1j * span) + jitter
        verts = dedupe_consecutive([a * x3 + b * ctrl + c * x4 for a, b, c in _BEZIER])
        if len(verts) < 2:
            continue
        for v in verts:
            if not cmath.isfinite(v):
                raise ValueError(f"non-finite vertex {v!r}")
        edges = list(zip(verts, verts[1:]))
        if not any(point_segment_distance(p, a, b) <= margin for p in avoid for a, b in edges):
            return verts
    raise ScenarioError("no admissible connecting path found")


def _prechart(spec: MapSpec, t: MarkedTuple) -> tuple[MapSpec, MarkedTuple]:
    """Conjugate by the normalizing chart when a path endpoint sits at infinity.

    The invariant is unchanged under simultaneous conjugation of the map
    and the points, and the connecting-path machinery needs finite
    endpoints: h = mobius_normalize(x1, x2) sends x1 to 0 and x2 to
    infinity, so the third and fourth points become finite.  No-op when
    they are finite already.
    """
    if not (t.x3.is_infinity or t.x4.is_infinity):
        return spec, t
    h = mobius_normalize(t.x1, t.x2)
    return MobiusConjugate(h.inverse(), spec), MarkedTuple(*(apply_mobius(h, p) for p in t.points))


class RfEvaluator:
    """Caching evaluator with deterministic retry on degenerate geometry.

    Each value is computed by the loop method and cross-checked by the
    lift method, both read off one refinement, in one of two charts (see
    _refined).  Degenerate geometry (a path or loop grazing a marked point,
    a non-integer winding) triggers a retry with the next path variant and
    a small deterministic jitter; if all attempts fail the computation is
    reported inconclusive, never passed.  A refinement that cannot certify
    an edge (SamplingFailure: the bisection depth limit, an exhausted
    budget, or a map whose one evaluation takes more step applications
    than the budget) is reported inconclusive at once: jitter does not make
    the image twist less.  That failure is cached like a value and raised
    again on the next request for the tuple; geometric failures are not
    cached.  The spec is walked into steps once per chart it is evaluated
    in (itself, or its conjugate by a tuple's prechart), and each point is
    checked fixed once per chart; its twist's chart comes from the same
    walk.
    """

    def __init__(self, spec: MapSpec, tol: Tolerances = DEFAULT_TOL, seed: int = 0):
        self.spec = spec
        self.tol = tol
        self.seed = seed
        self._cache: dict[tuple, int | InconclusiveComputation] = {}
        # tuple -> its first attempt's refinement, kept for the tuples a
        # caller puts here (None until refined)
        self._kept: dict[tuple, tuple | None] = {}
        # chart's spec, None for self.spec (spared hashing) -> ((H, rho)
        # when spec reduces to one twist by rho in the chart H, else None;
        # (H's point step, None for the identity, and the twist in H's
        # chart) when H is affine, else None; its steps; their compiled
        # map; the points checked fixed)
        self._charts: dict[MapSpec | None, tuple] = {}

    def _chart(self, spec: MapSpec) -> tuple:
        """spec's entry in self._charts, walked on first use: spec is
        self.spec or a prechart's conjugate of it."""
        key = None if spec is self.spec else spec
        entry = self._charts.get(key)
        if entry is None:
            reduced, core, steps = _charted_steps(spec)
            twist = None
            if reduced is not None and reduced[0].c == 0:
                h = reduced[0]
                twist = (None if h == MOBIUS_IDENTITY else mobius_step(h)), CompiledMap(core)
            entry = self._charts[key] = reduced, twist, steps, CompiledMap(steps), set()
        return entry

    def _checked_steps(self, spec: MapSpec, points) -> list:
        """spec's steps, with points checked fixed under them.  Each point
        is checked once per spec, in order, so the first point that moves
        raises NotFixed as _require_fixed does."""
        _, _, steps, f, fixed = self._chart(spec)
        for p in points:
            if p not in fixed:
                _require_fixed(f, (p,), self.tol)
                fixed.add(p)
        return steps

    def _in_twist_chart(self, t: MarkedTuple):
        """t's coordinates in the chart H of self.spec's one twist (None at
        infinity), with the twist there, when H is affine and x3 and x4
        are finite; else None.  An affine H sends infinity to infinity
        exactly.  None too when H's rounding merges two of the points."""
        if t.x3.is_infinity or t.x4.is_infinity:
            return None
        twist = self._chart(self.spec)[1]
        if twist is None:
            return None
        move, f = twist
        path = tuple(p.z if move is None else move(p.z) for p in t.points)
        return (path, f) if len(set(path)) == 4 else None

    def _refined(self, t: MarkedTuple, beta: Polyline | None = None, variant: int = 0,
                 jitter: complex = 0j):
        """The refined image of a connecting path (refine_path_view), the
        path's own exact turning, its ends in the image's chart, and the
        two punctures both turnings are read about (_turning).

        Without a beta, a tuple with x3 and x4 finite of a spec that
        twist_chart reduces to one twist in an affine chart H is read in
        H's chart: the path runs from H(x3) to H(x4) and avoids the
        punctures H(x1) and H(x2), and its image is the twist alone.  Any
        other tuple, precharted, and a caller's beta, which is validated
        after t's points are checked fixed, is read through the spec's
        steps and then the chart h (x1 -> 0, x2 -> inf), about 0 and
        infinity.  Without a beta the path is the variant's
        connecting_path, jitter scaled to the distance between its ends,
        and t's points are then checked fixed in the spec's (or the
        prechart's) chart."""
        spec = self.spec
        twisted = None if beta is not None else self._in_twist_chart(t)
        if beta is None and twisted is None:
            spec, t = _prechart(spec, t)
        z1, z2, z3, z4 = twisted[0] if twisted else (p.z for p in t.points)
        if beta is not None:
            steps = self._checked_steps(spec, t.points)
            _validate_beta(beta, t.x3, t.x4, (t.x1, t.x2))
            vertices = beta.vertices
        else:
            if jitter:
                jitter *= JITTER_MAGNITUDE * max(abs(z4 - z3), 1.0)
            vertices = _path_vertices(z3, z4, [z for z in (z1, z2) if z is not None],
                                      variant, jitter)
            steps = self._checked_steps(spec, t.points)
        if twisted is not None:
            view, punctures = twisted[1], (z1, z2)
        else:
            h = mobius_normalize(t.x1, t.x2)
            view, punctures = CompiledMap([*steps, _mobius_pair(h)]), (0j, None)
            z3, z4 = map(mobius_step(h), (z3, z4))
        base = _turning(vertices, (z1, z2))
        return refine_path_view(vertices, view, self.tol, punctures), base, (z3, z4), punctures

    def value(self, x1, x2, x3, x4) -> int:
        t = MarkedTuple(x1, x2, x3, x4)
        kind = t.classify()
        if kind == "degenerate_pair":
            return 0
        if kind == "mixed":
            raise MixedCoincidence(
                "repeated points across the pairs; use the blow-up forms"
            )
        key = t.points
        if key in self._cache:
            cached = self._cache[key]
            if isinstance(cached, InconclusiveComputation):
                raise cached.with_traceback(None)
            return cached
        last_error: Exception | None = None
        for attempt in range(JITTER_ATTEMPTS + 1):
            jitter = 0j
            if attempt > 0:
                rng = random.Random(f"{self.seed}|{key!r}|{attempt}")
                jitter = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            try:
                refinement = self._refined(t, variant=attempt, jitter=jitter)
                if not attempt and key in self._kept:
                    self._kept[key] = refinement
                loop, lift = _loop_and_lift(*refinement)
                value = snap_turns(loop, self.tol)
                check = snap_turns(lift, self.tol)
                if check != value:
                    raise InconclusiveComputation(
                        f"loop and lift methods disagree: {value} vs {check}"
                    )
                self._cache[key] = value
                return value
            except SamplingFailure as err:
                failure = InconclusiveComputation(f"{err}; not retried")
                self._cache[key] = failure
                raise failure from err
            except (GeometryFailure, ScenarioError) as err:
                last_error = err
        raise InconclusiveComputation(
            f"no admissible geometry after {JITTER_ATTEMPTS + 1} attempts: "
            f"{last_error}"
        )


# ---------------------------------------------------------------------------
# canonical twist isotopies


def synthesize_twist_trace(
    spec: MapSpec,
    t: MarkedTuple,
    tol: Tolerances = DEFAULT_TOL,
    ev: RfEvaluator | None = None,
) -> IsotopyTrace:
    """The canonical isotopy trace of a (conjugated) twist: one stage, the
    twist by t * rho in the chart H that twist_chart reduces spec to.
    Raises ScenarioError when twist_chart does not reduce spec.  t's points
    are checked fixed in the chart of ev, an evaluator of spec under tol
    (a new one by default), whose one walk of spec gives (H, rho).
    """
    if _require_distinct(t) != "distinct":
        raise ScenarioError("traces need four distinct points")
    ev = ev or RfEvaluator(spec, tol)
    ev._checked_steps(spec, t.points)
    reduced = ev._chart(spec)[0]
    if reduced is None:
        raise ScenarioError("no canonical isotopy known for this map")
    return IsotopyTrace((reduced,), t.x1, t.x2, t.x3, t.x4)


# ---------------------------------------------------------------------------
# the identity suite

# The identities between values at tuples of (x1, x2, x3, x4, w): name ->
# (relation, the tuples as indices into (x1, x2, x3, x4, w), coefficients).
# An identity holds when the signed sum of its values is 0.
TUPLE_IDENTITIES = {
    "cyclic_sum_zero": (
        "R(x1,x2,x3,x4) + R(x2,x3,x1,x4) + R(x3,x1,x2,x4) = 0",
        ((0, 1, 2, 3), (1, 2, 0, 3), (2, 0, 1, 3)), (1, 1, 1)),
    "swap_first_pair_negates": (
        "R(x2,x1,x3,x4) = -R(x1,x2,x3,x4)", ((0, 1, 2, 3), (1, 0, 2, 3)), (1, 1)),
    "swap_second_pair_negates": (
        "R(x1,x2,x4,x3) = -R(x1,x2,x3,x4)", ((0, 1, 2, 3), (0, 1, 3, 2)), (1, 1)),
    "pair_swap_invariant": (
        "R(x3,x4,x1,x2) = R(x1,x2,x3,x4)", ((0, 1, 2, 3), (2, 3, 0, 1)), (1, -1)),
    "split_first_pair_through_w": (
        "R(x1,x2,x3,x4) = R(x1,w,x3,x4) + R(w,x2,x3,x4)",
        ((0, 1, 2, 3), (0, 4, 2, 3), (4, 1, 2, 3)), (1, -1, -1)),
    "split_second_pair_through_w": (
        "R(x1,x2,x3,x4) = R(x1,x2,x3,w) + R(x1,x2,w,x4)",
        ((0, 1, 2, 3), (0, 1, 2, 4), (0, 1, 4, 3)), (1, -1, -1)),
}


def tuple_terms(ev: RfEvaluator, points, indices, coefficients) -> list:
    """A row of TUPLE_IDENTITIES on the given (x1, x2, x3, x4, w), as
    signed_sum's terms over one evaluator."""
    return [(c, ev, tuple(points[i] for i in ix)) for c, ix in zip(coefficients, indices)]


def signed_sum(terms) -> tuple[tuple[int, ...], bool, float]:
    """The probe of a linear identity whose terms are (coefficient,
    evaluator, tuple): the values in order, whether their signed sum is 0,
    and its absolute value as the residual."""
    values = tuple(ev.value(*t) for _, ev, t in terms)
    total = sum(c * v for (c, _, _), v in zip(terms, values))
    return values, total == 0, float(abs(total))


def identity_record(name: str, inputs: str, relation: str, probe, *args) -> CheckRecord:
    """The pass or fail record of probe(*args), which returns (values, holds,
    residual); irreparable geometry makes the record inconclusive."""
    try:
        values, ok, residual = probe(*args)
    except (InconclusiveComputation, GeometryFailure, ScenarioError):
        return make_record(name, inputs, relation, (), None)
    return make_record(name, inputs, relation, values, ok, residual)


def verify_rf_identities(
    spec: MapSpec,
    g_spec: MapSpec | None,
    points,
    tol: Tolerances = DEFAULT_TOL,
    seed: int = 0,
) -> list[CheckRecord]:
    """Run every identity the invariant must satisfy on the given points.

    points: at least five validated common fixed points (five are needed
    for the two coboundary identities).  When g_spec is given, the
    homomorphism identity for the composition is checked as well.  Any
    irreparable geometric degeneracy yields an inconclusive record.
    """
    pts = [as_sphere_point(p) for p in points]
    if len(pts) < 5:
        raise ScenarioError("the identity suite needs at least five marked points")
    if len(set(pts)) != len(pts):
        raise ScenarioError("marked points must be pairwise distinct")
    ev = RfEvaluator(spec, tol, seed)
    ev._checked_steps(spec, pts)
    if g_spec is not None:
        g_ev = RfEvaluator(g_spec, tol, seed)
        g_ev._checked_steps(g_spec, pts)

    x1, x2, x3, x4, w = x = tuple(pts[:5])
    t = x[:4]
    ev._kept[t] = None  # the first record's first value refines variant 0
    inputs = "x=(p1,p2,p3,p4)"  # the i-th point is labelled p<i>
    records = [
        identity_record(name, inputs + (" w=p5" if any(4 in ix for ix in indices) else ""),
                        relation, signed_sum, tuple_terms(ev, x, indices, coefficients))
        for name, (relation, indices, coefficients) in TUPLE_IDENTITIES.items()
    ]

    def probe_degenerate():
        a = ev.value(x2, x2, x3, x4)
        b = ev.value(x1, x2, x3, x3)
        return (a, b), a == 0 and b == 0, float(abs(a) + abs(b))

    records.append(identity_record(
        "repeated_pair_gives_zero", inputs,
        "R(x2,x2,x3,x4) = 0 and R(x1,x2,x3,x3) = 0", probe_degenerate))
    records.append(identity_record(
        "inverse_map_negates", inputs, "R_of_inverse(x) = -R(x)",
        signed_sum, [(1, ev, t), (1, RfEvaluator(Inverse(spec), tol, seed), t)]))

    def probe_powers():
        a = ev.value(*t)
        values = [a]
        ok = True
        for n in (-2, 2, 3):
            vn = RfEvaluator(Power(n, spec), tol, seed).value(*t)
            values.append(vn)
            ok = ok and vn == n * a
        residual = float(sum(abs(v) for v in values[1:])) if not ok else 0.0
        return tuple(values), ok, residual

    records.append(identity_record(
        "iterate_scales_linearly", inputs,
        "R_of_nth_iterate(x) = n * R(x) for n in (-2, 2, 3)", probe_powers))
    if g_spec is not None:
        records.append(identity_record(
            "composition_adds", inputs, "R_of_composition(x) = R_f(x) + R_g(x)",
            signed_sum, [(1, ev, t), (1, g_ev, t),
                         (-1, RfEvaluator(Compose((spec, g_spec)), tol, seed), t)]))

    @functools.cache
    def refined(variant: int):
        """ev's refinement along the variant's connecting path: variant 0's
        is the one ev.value(*t) kept, when its first attempt refined, and
        serves both probes below.  A failure is not cached, so each probe
        meets it on its own."""
        kept = ev._kept[t] if variant == 0 else None
        return kept or ev._refined(MarkedTuple(*t), variant=variant)

    def agreement(values):
        return tuple(values), len(set(values)) == 1, float(max(values) - min(values))

    def probe_path_choice():
        return agreement([snap_turns(_loop_and_lift(*refined(variant))[0], tol)
                          for variant in (0, 2, 4)])

    records.append(identity_record(
        "path_choice_irrelevant", inputs,
        "rf_loop agrees across three different connecting paths", probe_path_choice))

    def probe_methods():
        loop, lift = _loop_and_lift(*refined(0))
        a, b = snap_turns(loop, tol), snap_turns(lift, tol)
        try:
            trace = synthesize_twist_trace(spec, MarkedTuple(*t), tol=tol, ev=ev)
        except ScenarioError:
            return agreement([a, b])
        return agreement([a, b, rf_trace(trace, tol)])

    records.append(identity_record(
        "methods_agree", inputs,
        "loop, lift (and trace, when synthesizable) give one integer", probe_methods))
    return records
