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
    INFINITY,
    MOBIUS_IDENTITY,
    MobiusTransform,
    Polyline,
    SpherePoint,
    Tolerances,
    apply_mobius,
    as_sphere_point,
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
    _structural_rotation,
    compile_map,
    eval_map,  # unused here; kept as the name perfbench's tracer wraps
    fixed_residual,  # unused here; kept as the name perfbench's tracer wraps
    iterate_spec,
    require_fixed,
    rigid_rotation_angle,  # unused here; kept as the name perfbench's tracer wraps
    twist_chart,
)
from .report import CheckRecord, make_record

TAU = math.tau


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


def _modulus(chart: MobiusTransform, p: SpherePoint) -> float:
    """|H(p)| for the chart H, infinite at the point at infinity."""
    q = apply_mobius(chart, p)
    return math.inf if q.is_infinity else abs(q.value)


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


def _validate_beta(beta: Polyline, x3: SpherePoint, x4: SpherePoint, avoid, tol: Tolerances):
    if beta.closed:
        raise ValueError("the connecting path must be open")
    if x3.is_infinity or x4.is_infinity:
        raise ValueError("a polyline cannot reach the point at infinity; change chart first")
    if beta.start != x3.value or beta.end != x4.value:
        raise ValueError("the connecting path must run exactly from x3 to x4")
    for p in avoid:
        if not p.is_infinity and beta.passes_within(p.value, tol.eps_edge):
            raise PointOnLoop(f"the connecting path passes through {p!r}")


def _turning(points, punctures) -> float:
    """The turning of a point sequence about the first puncture less its
    turning about the second, a puncture at infinity (None) adding
    nothing: the turning about 0 in any chart that sends the first to 0
    and the second to infinity."""
    first, second = punctures
    turning = 0.0 if first is None else path_turns(points, first)
    return turning if second is None else turning - path_turns(points, second)


def _loop_winding(forward: list[complex], base: float, ends, punctures, tol: Tolerances) -> int:
    """Winding about the punctures (_turning) of the loop (image path) *
    (path reversed): the image path joined to the path's ends by straight
    edges, less the path's exact turning.  The path avoids the punctures,
    so only the image side is checked."""
    loop = dedupe_consecutive([ends[0], *forward, ends[1]])
    for p in punctures:
        if p is not None and any(point_segment_distance(p, a, b) <= tol.eps_edge
                                 for a, b in zip(loop, loop[1:])):
            raise PointOnLoop(f"reference point {p!r} lies on a loop edge")
    return snap_turns(_turning(loop, punctures) - base, tol)


def _lift_turns(forward: list[complex], base: float, punctures, tol: Tolerances) -> int:
    """Whole turns between the arguments swept by the image path and the
    path, about the punctures (_turning)."""
    return snap_turns(_turning(forward, punctures) - base, tol)


def rf_loop(spec: MapSpec, t: MarkedTuple, beta: Polyline, tol: Tolerances = DEFAULT_TOL) -> int:
    """The invariant as the class of the loop (image of beta) * (beta reversed).

    The loop is formed in the normalized chart and its winding number
    around the origin is the answer.  Keeping a pair of the tuple equal
    returns 0 by the constant-path convention; mixed coincidences are
    rejected.
    """
    if _require_distinct(t) == "degenerate_pair":
        return 0
    return _loop_winding(*RfEvaluator(spec, tol)._refined(t, beta), tol)


def rf_lift(spec: MapSpec, t: MarkedTuple, beta: Polyline, tol: Tolerances = DEFAULT_TOL) -> int:
    """The invariant as a difference of accumulated arguments.

    Tracks the total argument swept by the image path and by the path
    itself in the normalized chart; their difference is a whole number of
    turns (the deck exponent of the corresponding lift).
    """
    if _require_distinct(t) == "degenerate_pair":
        return 0
    forward, base, _, punctures = RfEvaluator(spec, tol)._refined(t, beta)
    return _lift_turns(forward, base, punctures, tol)


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
    radii = [_modulus(chart, p) for p in points]
    r1, r2, r3, r4 = radii
    coefficients = ((r1 < r3) - (r1 < r4), (r2 < r4) - (r2 < r3),
                    (r2 < r3) - (r1 < r3), (r1 < r4) - (r2 < r4))

    @functools.cache
    def turns(j: int) -> int:
        value = profile.value(radii[j])
        if abs(value) >= 2**52:
            raise InconclusiveComputation(
                f"profile value {value!r} is too large to count whole turns exactly")
        whole = round(value)
        if abs(value - whole) > tol.fixed_tol:
            raise NotFixed(points[j], abs(value - whole))
        return whole

    for a in (0, 1):
        for b in (2, 3):
            if math.isclose(radii[a], radii[b], rel_tol=1e-12) and turns(a) != turns(b):
                raise PointOnLoop(
                    f"{points[a]!r} and {points[b]!r} sit on one circle with different turns")
    return sum(c * turns(j) for j, c in enumerate(coefficients) if c)


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
    """The invariant with the third point blown up at the fixed point p.

    Averages the extra wrapping of the n-th iterate's image of a radial
    path from (a truncation of) p to x4, in the chart sending p to 0 and
    x2 to infinity.  The germ at p must be a rigid rotation; the reported
    bound |estimate - limit| <= 2 / n_iters is rigorous for such germs.
    With extrapolate, one Richardson step halves the work per digit and
    the estimate at n and n/2 is combined.  A twist whose axis is the
    chart's is read exactly from its profile at the path's ends (see
    _blowup_wrapping); every other map refines the path.
    """
    if n_iters < 1:
        raise ValueError("n_iters must be positive")
    p = as_sphere_point(p)
    x2 = as_sphere_point(x2)
    x4 = as_sphere_point(x4)
    if len({p, x2, x4}) != 3:
        raise ValueError("p, x2, x4 must be pairwise distinct")
    require_fixed(spec, (p, x2, x4), tol)
    # rigid_rotation_angle, less its second check that p is fixed
    if _structural_rotation(spec, p, tol) is None:
        raise TangentCondition(
            f"the germ at {p!r} is not an exact rigid rotation; "
            "the tangent-circle dynamics cannot be certified"
        )

    h = mobius_normalize(p, x2)
    y4 = apply_mobius(h, x4)
    assert not y4.is_infinity and y4.value != 0
    extrapolated = extrapolate and n_iters >= 2
    return BlowupEstimate(_blowup_wrapping(spec, h, y4.value, n_iters, extrapolated, tol),
                          2.0 / n_iters, n_iters, extrapolated)


def _blowup_wrapping(spec: MapSpec, h: MobiusTransform, y4: complex, n_iters: int,
                     extrapolate: bool, tol: Tolerances) -> float:
    """rf_blowup's estimate: the extra turns of the n-th iterate's image of
    the radial path from y4 * 1e-6 to y4, per iterate, in the chart h
    (p -> 0, x2 -> infinity); with extrapolate, 2 E(n) - E(n / 2).

    When twist_chart reduces spec to (H, rho), the n-th iterate is
    m^-1 o T o m in the chart h, with m = H o h^-1 and T the twist by
    n rho.  T adds n (rho(|end|) - rho(|start|)) turns to a path that
    misses 0 and infinity, and a Mobius map that fixes both keeps
    turnings, one that swaps them negates them.  So when m fixes or swaps
    0 and infinity (exactly, not within a tolerance), the estimate is read
    at its limit as the path's start approaches p: rho at m(y4) less rho
    at the axis end that m takes p to, negated when m swaps the axis.  It
    is the same for every n, and no path is refined.
    """
    exact = _axis_wrapping(spec, h, y4)
    if exact is not None:
        return exact
    if extrapolate:
        coarse = _refined_wrapping(spec, h, y4, n_iters // 2, tol)
        return 2.0 * _refined_wrapping(spec, h, y4, n_iters, tol) - coarse
    return _refined_wrapping(spec, h, y4, n_iters, tol)


def _axis_wrapping(spec: MapSpec, h: MobiusTransform, y4: complex) -> float | None:
    """_blowup_wrapping read from the profile, or None when spec is not a
    twist whose chart m = H o h^-1 fixes or swaps 0 and infinity."""
    reduced = twist_chart(spec)
    if reduced is None:
        return None
    chart, profile = reduced
    m = chart.compose(h.inverse())
    fixes = m.b == 0 and m.c == 0
    if not (fixes or m.a == 0 and m.d == 0):
        return None
    end = mobius_step(m)(y4)
    if not end:
        return None  # the end underflowed onto the axis
    if fixes:
        return profile.value(abs(end)) - profile.value_at_zero
    # the turning is negated: take the difference the other way round,
    # which keeps the sign of a zero
    return profile.value_at_infinity - profile.value(abs(end))


def _refined_wrapping(spec: MapSpec, h: MobiusTransform, y4: complex, n_iters: int,
                      tol: Tolerances) -> float:
    """The unextrapolated estimate at n_iters, by refining the image path."""
    iterated = iterate_spec(spec, n_iters)
    if h != MOBIUS_IDENTITY:
        iterated = MobiusConjugate(h.inverse(), iterated)
    beta = [y4 * 1e-6, y4]
    forward = refine_path_view(beta, compile_map(iterated), tol=tol)
    turns = (path_turns(forward) - path_turns(beta)) / TAU
    return turns / n_iters


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
    inner = _structural_rotation(normalized, SpherePoint(0j), tol)
    outer = _structural_rotation(normalized, INFINITY, tol)
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
    tol: Tolerances = DEFAULT_TOL,
) -> Polyline:
    """A polyline of four edges from x3 to x4 bowed away from the points to avoid.

    Different variants bow to different sides and by different amounts, so
    retrying with the next variant gives a genuinely different path.  The
    path is validated here: it runs exactly from x3 to x4 and keeps at
    least tol.eps_edge (and 1e-6 of the points' scale) from every point to
    avoid.  The refinement bisects its edges wherever the map needs it.
    """
    x3 = complex(x3)
    x4 = complex(x4)
    finite_avoid = [p.value for p in map(as_sphere_point, avoid) if not p.is_infinity]
    span = x4 - x3
    scale = max([abs(span)] + [abs(p - x3) for p in finite_avoid] + [1e-9])
    margin = max(1e-6 * scale, tol.eps_edge)
    for k in range(variant, variant + 25):
        side = 1.0 if k % 2 == 0 else -1.0
        bulge = 0.31 + 0.23 * (k // 2)
        ctrl = 0.5 * (x3 + x4) + side * bulge * (1j * span) + jitter
        n = 4
        verts = []
        for j in range(n + 1):
            s = j / n
            verts.append((1 - s) ** 2 * x3 + 2 * s * (1 - s) * ctrl + s**2 * x4)
        verts = dedupe_consecutive(verts)
        if len(verts) < 2:
            continue
        poly = Polyline(tuple(verts))
        if not any(poly.passes_within(p, margin) for p in finite_avoid):
            return poly
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
        # chart's spec, None for self.spec (spared hashing) -> (H's point
        # step, None for the identity, and the twist in H's chart when spec
        # reduces to one twist in an affine chart H, else None; its steps;
        # their compiled map; the points checked fixed)
        self._charts: dict[MapSpec | None, tuple] = {}

    def _chart(self, spec: MapSpec) -> tuple:
        """spec's entry in self._charts, walked on first use: spec is
        self.spec or a prechart's conjugate of it."""
        key = None if spec is self.spec else spec
        entry = self._charts.get(key)
        if entry is None:
            h, core, steps = _charted_steps(spec)
            twist = None
            if h is not None and h.c == 0:
                twist = (None if h == MOBIUS_IDENTITY else mobius_step(h)), CompiledMap(core)
            entry = self._charts[key] = twist, steps, CompiledMap(steps), set()
        return entry

    @functools.cached_property
    def _reduction(self):
        """twist_chart(self.spec), for synthesize_twist_trace."""
        return twist_chart(self.spec)

    def _checked_steps(self, spec: MapSpec, points) -> list:
        """spec's steps, with points checked fixed under them.  Each point
        is checked once per spec, in order, so the first point that moves
        raises NotFixed as _require_fixed does."""
        _, steps, f, fixed = self._chart(spec)
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
        twist = self._chart(self.spec)[0]
        if twist is None:
            return None
        move, f = twist
        path = tuple(p.z if move is None else move(p.z) for p in t.points)
        return (path, f) if len(set(path)) == 4 else None

    def _refined(self, t: MarkedTuple, beta: Polyline | None = None, variant: int = 0,
                 jitter: complex = 0j):
        """The refined image of a connecting path, the path's own exact
        turning, its ends in the image's chart, and the two punctures both
        turnings are read about (_turning).

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
        spec, tol = self.spec, self.tol
        twisted = None
        if beta is not None:
            steps = self._checked_steps(spec, t.points)
            _validate_beta(beta, t.x3, t.x4, (t.x1, t.x2), tol)
        else:
            twisted = self._in_twist_chart(t)
            if twisted is None:
                spec, t = _prechart(spec, t)
            z1, z2, z3, z4 = twisted[0] if twisted else (p.z for p in t.points)
            if jitter:
                jitter *= tol.jitter_magnitude * max(abs(z4 - z3), 1.0)
            beta = connecting_path(z3, z4, avoid=(z1, z2), variant=variant, jitter=jitter,
                                   tol=tol)
            steps = self._checked_steps(spec, t.points)
        if twisted is not None:
            punctures = z1, z2
            forward = refine_path_view(beta.vertices, twisted[1], tol=tol, punctures=punctures)
            return forward, _turning(beta.vertices, punctures), (z3, z4), punctures
        h = mobius_normalize(t.x1, t.x2)
        forward = refine_path_view(beta.vertices, CompiledMap([*steps, _mobius_pair(h)]), tol=tol)
        at = mobius_step(h)
        base = _turning(beta.vertices, (t.x1.z, t.x2.z))
        return forward, base, (at(t.x3.value), at(t.x4.value)), (0j, None)

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
        for attempt in range(self.tol.jitter_attempts + 1):
            jitter = 0j
            if attempt > 0:
                rng = random.Random(f"{self.seed}|{key!r}|{attempt}")
                jitter = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            try:
                forward, base, ends, punctures = self._refined(t, variant=attempt, jitter=jitter)
                value = _loop_winding(forward, base, ends, punctures, self.tol)
                check = _lift_turns(forward, base, punctures, self.tol)
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
            f"no admissible geometry after {self.tol.jitter_attempts + 1} attempts: "
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
    (a new one by default), which reduces spec once, not once per call.
    """
    if _require_distinct(t) != "distinct":
        raise ScenarioError("traces need four distinct points")
    ev = ev or RfEvaluator(spec, tol)
    ev._checked_steps(spec, t.points)
    reduced = ev._reduction
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
    require_fixed(spec, pts, tol)
    ev = RfEvaluator(spec, tol, seed)
    if g_spec is not None:
        require_fixed(g_spec, pts, tol)
        g_ev = RfEvaluator(g_spec, tol, seed)

    x1, x2, x3, x4, w = x = tuple(pts[:5])
    t = x[:4]
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
        serves both probes below.  A failure is not cached, so each probe
        meets it on its own."""
        return ev._refined(MarkedTuple(*t), variant=variant)

    def agreement(values):
        return tuple(values), len(set(values)) == 1, float(max(values) - min(values))

    def probe_path_choice():
        return agreement([_loop_winding(*refined(variant), tol) for variant in (0, 2, 4)])

    records.append(identity_record(
        "path_choice_irrelevant", inputs,
        "rf_loop agrees across three different connecting paths", probe_path_choice))

    def probe_methods():
        forward, base, ends, punctures = refined(0)
        a = _loop_winding(forward, base, ends, punctures, tol)
        b = _lift_turns(forward, base, punctures, tol)
        try:
            trace = synthesize_twist_trace(spec, MarkedTuple(*t), tol=tol, ev=ev)
        except ScenarioError:
            return agreement([a, b])
        return agreement([a, b, rf_trace(trace, tol)])

    records.append(identity_record(
        "methods_agree", inputs,
        "loop, lift (and trace, when synthesizable) give one integer", probe_methods))
    return records
