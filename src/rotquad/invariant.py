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

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    BudgetExhausted,
    GeometryFailure,
    InconclusiveComputation,
    MixedCoincidence,
    NotFixed,
    PointOnLoop,
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
    _mobius_pair,
    _require_fixed,
    _steps,
    compile_map,
    eval_map,  # unused here; kept as the name perfbench's tracer wraps
    fixed_residual,
    iterate_spec,
    require_fixed,
    rigid_rotation_angle,
    twist_chart,
)
from .report import CheckRecord, make_record

TAU = math.tau


@dataclass(frozen=True)
class MarkedTuple:
    """An ordered 4-tuple of fixed points, with an optional helper point."""

    x1: SpherePoint
    x2: SpherePoint
    x3: SpherePoint
    x4: SpherePoint
    w: SpherePoint | None = None

    def __post_init__(self):
        for name in ("x1", "x2", "x3", "x4"):
            object.__setattr__(self, name, as_sphere_point(getattr(self, name)))
        if self.w is not None:
            object.__setattr__(self, "w", as_sphere_point(self.w))

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
    """The closed curve swept by x4 under an isotopy from the identity: in
    each run (H, r, k), x4 goes k times round the circle |H(z)| = r.  The
    isotopy fixes x1, x2 and x3, so a run whose circle meets one (|H(p)|
    within a relative 1e-12 of r) is refused."""

    runs: tuple[tuple[MobiusTransform, float, int], ...]
    x1: SpherePoint
    x2: SpherePoint
    x3: SpherePoint
    x4: SpherePoint

    def __post_init__(self):
        for name in ("x1", "x2", "x3", "x4"):
            object.__setattr__(self, name, as_sphere_point(getattr(self, name)))
        for chart, r, _ in self.runs:
            for p in (self.x1, self.x2, self.x3):
                if abs(_modulus(chart, p) - r) <= 1e-12 * r:
                    raise PointOnLoop(f"trace passes through the context point {p!r}")


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


def _refined_paths(spec, t: MarkedTuple, beta: Polyline, tol: Tolerances):
    """The refined image path in the chart h (x1 -> 0, x2 -> inf), the path's
    own exact turning there (arg h(z) = arg(z - x1) - arg(z - x2) + const, a
    point at infinity adding nothing), and the path's ends h(x3), h(x4).
    The spec's steps are walked once, for the fixed-point check and the view."""
    steps = _steps(spec)
    _require_fixed(CompiledMap(steps), t.points, tol)
    _validate_beta(beta, t.x3, t.x4, (t.x1, t.x2), tol)
    h = mobius_normalize(t.x1, t.x2)
    forward = refine_path_view(beta.vertices, CompiledMap([*steps, _mobius_pair(h)]), tol=tol)
    base = sum(sign * path_turns(beta.vertices, p.value)
               for sign, p in ((1, t.x1), (-1, t.x2)) if not p.is_infinity)
    at = mobius_step(h)
    return forward, base, (at(t.x3.value), at(t.x4.value))


def _loop_winding(forward: list[complex], base: float, ends, tol: Tolerances) -> int:
    """Winding around 0 of the loop (image path) * (path reversed): the image
    path joined to the path's ends by straight edges, less the path's exact
    turning.  The path avoids x1, so only the image side is checked."""
    image = Polyline(tuple(dedupe_consecutive([ends[0], *forward, ends[1]])))
    if image.passes_within(0j, tol.eps_edge):
        raise PointOnLoop("reference point 0j lies on a loop edge")
    return snap_turns(path_turns(image.vertices) - base, tol)


def _lift_turns(forward: list[complex], base: float, tol: Tolerances) -> int:
    """Whole turns between the arguments swept by the image path and the path."""
    return snap_turns(path_turns(forward) - base, tol)


def rf_loop(spec: MapSpec, t: MarkedTuple, beta: Polyline, tol: Tolerances = DEFAULT_TOL) -> int:
    """The invariant as the class of the loop (image of beta) * (beta reversed).

    The loop is formed in the normalized chart and its winding number
    around the origin is the answer.  Keeping a pair of the tuple equal
    returns 0 by the constant-path convention; mixed coincidences are
    rejected.
    """
    if _require_distinct(t) == "degenerate_pair":
        return 0
    return _loop_winding(*_refined_paths(spec, t, beta, tol), tol)


def rf_lift(spec: MapSpec, t: MarkedTuple, beta: Polyline, tol: Tolerances = DEFAULT_TOL) -> int:
    """The invariant as a difference of accumulated arguments.

    Tracks the total argument swept by the image path and by the path
    itself in the normalized chart; their difference is a whole number of
    turns (the deck exponent of the corresponding lift).
    """
    if _require_distinct(t) == "degenerate_pair":
        return 0
    forward, base, _ = _refined_paths(spec, t, beta, tol)
    return _lift_turns(forward, base, tol)


def _loop_and_lift(spec: MapSpec, t: MarkedTuple, beta: Polyline, tol: Tolerances) -> tuple[int, int]:
    """rf_loop and rf_lift of a distinct tuple, read off one refinement."""
    forward, base, ends = _refined_paths(spec, t, beta, tol)
    return _loop_winding(forward, base, ends, tol), _lift_turns(forward, base, tol)


def rf_trace(trace: IsotopyTrace, tol: Tolerances = DEFAULT_TOL) -> int:
    """The class of the isotopy trace of x4: sum of k * ([x1 inside] - [x2 inside])."""
    return sum(k * ((_modulus(chart, trace.x1) < r) - (_modulus(chart, trace.x2) < r))
               for chart, r, k in trace.runs)


def concatenate_traces(first: IsotopyTrace, second: IsotopyTrace) -> IsotopyTrace:
    """Trace of the staged isotopy: run first's motion, then second's.

    Both traces must be based at the same moving point and share their
    context points.
    """
    if (first.x1, first.x2, first.x3) != (second.x1, second.x2, second.x3):
        raise ValueError("traces have different context points")
    if first.x4 != second.x4:
        raise ValueError("traces are based at different points")
    return IsotopyTrace(first.runs + second.runs, first.x1, first.x2, first.x3, first.x4)


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
    the estimate at n and n/2 is combined.
    """
    if n_iters < 1:
        raise ValueError("n_iters must be positive")
    p = as_sphere_point(p)
    x2 = as_sphere_point(x2)
    x4 = as_sphere_point(x4)
    if len({p, x2, x4}) != 3:
        raise ValueError("p, x2, x4 must be pairwise distinct")
    require_fixed(spec, (p, x2, x4), tol)
    if rigid_rotation_angle(spec, p, tol) is None:
        raise TangentCondition(
            f"the germ at {p!r} is not an exact rigid rotation; "
            "the tangent-circle dynamics cannot be certified"
        )

    h = mobius_normalize(p, x2)
    y4 = apply_mobius(h, x4)
    assert not y4.is_infinity and y4.value != 0
    if extrapolate and n_iters >= 2:
        coarse = _blowup_wrapping(spec, h, y4.value, n_iters // 2, tol)
        fine = _blowup_wrapping(spec, h, y4.value, n_iters, tol)
        return BlowupEstimate(2.0 * fine - coarse, 2.0 / n_iters, n_iters, extrapolated=True)
    return BlowupEstimate(_blowup_wrapping(spec, h, y4.value, n_iters, tol), 2.0 / n_iters, n_iters)


def _blowup_wrapping(spec: MapSpec, h: MobiusTransform, y4: complex, n_iters: int,
                     tol: Tolerances) -> float:
    """rf_blowup's estimate at n_iters, unextrapolated: the extra turns of the
    n-th iterate's image of the radial path to y4, per iterate, in the chart
    h (p -> 0, x2 -> infinity)."""
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
    inner = rigid_rotation_angle(normalized, SpherePoint(0j), tol)
    outer = rigid_rotation_angle(normalized, INFINITY, tol)
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
    """A polyline from x3 to x4 bowed away from the points to avoid.

    Different variants bow to different sides and by different amounts, so
    retrying with the next variant gives a genuinely different path.
    """
    x3 = complex(x3)
    x4 = complex(x4)
    finite_avoid = [p.value for p in map(as_sphere_point, avoid) if not p.is_infinity]
    span = x4 - x3
    scale = max([abs(span)] + [abs(p - x3) for p in finite_avoid] + [1e-9])
    margin = 1e-6 * scale
    for k in range(variant, variant + 25):
        side = 1.0 if k % 2 == 0 else -1.0
        bulge = 0.31 + 0.23 * (k // 2)
        ctrl = 0.5 * (x3 + x4) + side * bulge * (1j * span) + jitter
        n = 16
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


_PRECHART_ANCHORS = (
    0.318 + 0.733j,
    -1.247 + 0.582j,
    2.414 - 1.731j,
    0.577 - 2.236j,
    -0.692 - 3.415j,
    3.141 + 1.618j,
)


def _prechart(spec: MapSpec, t: MarkedTuple) -> tuple[MapSpec, MarkedTuple]:
    """Conjugate with 1/(z-c) when a path endpoint sits at infinity.

    The invariant is unchanged under simultaneous conjugation of the map
    and the points, and the connecting-path machinery needs finite
    endpoints.  No-op when the third and fourth points are finite.
    """
    if not (t.x3.is_infinity or t.x4.is_infinity):
        return spec, t
    finite = [p.value for p in t.points if not p.is_infinity]
    scale = max([abs(z) for z in finite] + [1.0])
    for anchor in _PRECHART_ANCHORS:
        c = anchor * scale
        if all(abs(z - c) > 1e-3 * scale for z in finite):
            m = MobiusTransform(0, 1, 1, -c)
            moved = MobiusConjugate(m.inverse(), spec)
            return moved, MarkedTuple(*(apply_mobius(m, p) for p in t.points))
    raise ScenarioError("could not find a chart anchor clear of the marked points")


class RfEvaluator:
    """Caching evaluator with deterministic retry on degenerate geometry.

    Each value is computed by the loop method and cross-checked by the
    lift method, both read off one refinement; tuples with a
    point at infinity in the path slots are conjugated to a finite chart
    first.  Degenerate geometry (a path or loop grazing a marked point, a
    non-integer winding) triggers a retry with the next path variant and a
    small deterministic jitter; if all attempts fail the computation is
    reported inconclusive, never passed.  An exhausted refinement budget is
    reported inconclusive at once: jitter does not make the image twist
    less.  That failure is cached like a value and raised again on the
    next request for the tuple; geometric failures are not cached.
    """

    def __init__(self, spec: MapSpec, tol: Tolerances = DEFAULT_TOL, seed: int = 0):
        self.spec = spec
        self.tol = tol
        self.seed = seed
        self._cache: dict[tuple, int | InconclusiveComputation] = {}

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
        spec, moved = _prechart(self.spec, t)
        y1, y2, y3, y4 = moved.points
        last_error: Exception | None = None
        for attempt in range(self.tol.jitter_attempts + 1):
            rng = random.Random(f"{self.seed}|{key!r}|{attempt}")
            jitter = 0j
            if attempt > 0:
                jitter = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                jitter *= self.tol.jitter_magnitude * max(abs(y4.value - y3.value), 1.0)
            try:
                beta = connecting_path(
                    y3.value, y4.value, avoid=(y1, y2), variant=attempt,
                    jitter=jitter, tol=self.tol,
                )
                value, check = _loop_and_lift(spec, moved, beta, self.tol)
                if check != value:
                    raise InconclusiveComputation(
                        f"loop and lift methods disagree: {value} vs {check}"
                    )
                self._cache[key] = value
                return value
            except BudgetExhausted as err:
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
) -> IsotopyTrace | None:
    """The canonical isotopy trace for a (conjugated) twist, if one exists.

    The natural isotopy scales the profile linearly in time; to keep the
    three context points fixed throughout, the profile is first shifted by
    the common integer value it takes at their radii (a whole-turn shift,
    so the endpoint map is unchanged): x4 then goes a whole number of times
    round the circle |H(z)| = |H(x4)| in the twist's chart H, one run.
    Returns None when the shifted motion leaves x4 in place (a constant
    loop, class 0); raises ScenarioError when no such isotopy exists for
    this spec and tuple.
    """
    if _require_distinct(t) != "distinct":
        raise ScenarioError("traces need four distinct points")
    require_fixed(spec, t.points, tol)
    reduced = twist_chart(spec)
    if reduced is None:
        raise ScenarioError("no canonical isotopy known for this map")
    chart, profile = reduced
    context = []
    for p in (t.x1, t.x2, t.x3):
        radius = _modulus(chart, p)
        if 0 < radius < math.inf:
            context.append(profile.value(radius))
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
    return IsotopyTrace(((chart, abs(y4.value), wraps),), t.x1, t.x2, t.x3, t.x4)


# ---------------------------------------------------------------------------
# the identity suite


def _label(points) -> dict[SpherePoint, str]:
    return {p: f"p{i + 1}" for i, p in enumerate(points)}


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
    if g_spec is not None:
        require_fixed(g_spec, pts, tol)

    names = _label(pts)
    x1, x2, x3, x4, w = pts[:5]
    ev = RfEvaluator(spec, tol, seed)
    records: list[CheckRecord] = []

    def run(name, inputs, relation, probe):
        try:
            values, ok, residual = probe()
        except (InconclusiveComputation, GeometryFailure, ScenarioError):
            records.append(make_record(name, inputs, relation, (), None))
        else:
            records.append(make_record(name, inputs, relation, values, ok, residual))

    base_inputs = f"x=({names[x1]},{names[x2]},{names[x3]},{names[x4]})"

    def probe_cyclic():
        a = ev.value(x1, x2, x3, x4)
        b = ev.value(x2, x3, x1, x4)
        c = ev.value(x3, x1, x2, x4)
        return (a, b, c), a + b + c == 0, float(abs(a + b + c))

    run(
        "cyclic_sum_zero",
        base_inputs,
        "R(x1,x2,x3,x4) + R(x2,x3,x1,x4) + R(x3,x1,x2,x4) = 0",
        probe_cyclic,
    )

    def probe_swap_first():
        a = ev.value(x1, x2, x3, x4)
        b = ev.value(x2, x1, x3, x4)
        return (a, b), b == -a, float(abs(a + b))

    run(
        "swap_first_pair_negates",
        base_inputs,
        "R(x2,x1,x3,x4) = -R(x1,x2,x3,x4)",
        probe_swap_first,
    )

    def probe_swap_second():
        a = ev.value(x1, x2, x3, x4)
        b = ev.value(x1, x2, x4, x3)
        return (a, b), b == -a, float(abs(a + b))

    run(
        "swap_second_pair_negates",
        base_inputs,
        "R(x1,x2,x4,x3) = -R(x1,x2,x3,x4)",
        probe_swap_second,
    )

    def probe_double_swap():
        a = ev.value(x1, x2, x3, x4)
        b = ev.value(x3, x4, x1, x2)
        return (a, b), b == a, float(abs(a - b))

    run(
        "pair_swap_invariant",
        base_inputs,
        "R(x3,x4,x1,x2) = R(x1,x2,x3,x4)",
        probe_double_swap,
    )

    def probe_cobound_first():
        a = ev.value(x1, x2, x3, x4)
        b = ev.value(x1, w, x3, x4)
        c = ev.value(w, x2, x3, x4)
        return (a, b, c), a == b + c, float(abs(a - b - c))

    run(
        "split_first_pair_through_w",
        f"{base_inputs} w={names[w]}",
        "R(x1,x2,x3,x4) = R(x1,w,x3,x4) + R(w,x2,x3,x4)",
        probe_cobound_first,
    )

    def probe_cobound_second():
        a = ev.value(x1, x2, x3, x4)
        b = ev.value(x1, x2, x3, w)
        c = ev.value(x1, x2, w, x4)
        return (a, b, c), a == b + c, float(abs(a - b - c))

    run(
        "split_second_pair_through_w",
        f"{base_inputs} w={names[w]}",
        "R(x1,x2,x3,x4) = R(x1,x2,x3,w) + R(x1,x2,w,x4)",
        probe_cobound_second,
    )

    def probe_degenerate():
        a = ev.value(x2, x2, x3, x4)
        b = ev.value(x1, x2, x3, x3)
        return (a, b), a == 0 and b == 0, float(abs(a) + abs(b))

    run(
        "repeated_pair_gives_zero",
        base_inputs,
        "R(x2,x2,x3,x4) = 0 and R(x1,x2,x3,x3) = 0",
        probe_degenerate,
    )

    def probe_inverse():
        a = ev.value(x1, x2, x3, x4)
        ev_inv = RfEvaluator(Inverse(spec), tol, seed)
        b = ev_inv.value(x1, x2, x3, x4)
        return (a, b), b == -a, float(abs(a + b))

    run(
        "inverse_map_negates",
        base_inputs,
        "R_of_inverse(x) = -R(x)",
        probe_inverse,
    )

    def probe_powers():
        a = ev.value(x1, x2, x3, x4)
        values = [a]
        ok = True
        for n in (-2, 2, 3):
            ev_n = RfEvaluator(Power(n, spec), tol, seed)
            vn = ev_n.value(x1, x2, x3, x4)
            values.append(vn)
            ok = ok and vn == n * a
        residual = float(sum(abs(v) for v in values[1:])) if not ok else 0.0
        return tuple(values), ok, residual

    run(
        "iterate_scales_linearly",
        base_inputs,
        "R_of_nth_iterate(x) = n * R(x) for n in (-2, 2, 3)",
        probe_powers,
    )

    if g_spec is not None:

        def probe_homomorphism():
            a = ev.value(x1, x2, x3, x4)
            ev_g = RfEvaluator(g_spec, tol, seed)
            b = ev_g.value(x1, x2, x3, x4)
            ev_fg = RfEvaluator(Compose((spec, g_spec)), tol, seed)
            c = ev_fg.value(x1, x2, x3, x4)
            return (a, b, c), c == a + b, float(abs(c - a - b))

        run(
            "composition_adds",
            base_inputs,
            "R_of_composition(x) = R_f(x) + R_g(x)",
            probe_homomorphism,
        )

    def probe_beta_independence():
        spec2, t2 = _prechart(spec, MarkedTuple(x1, x2, x3, x4))
        values = []
        for variant in (0, 2, 4):
            beta = connecting_path(t2.x3.value, t2.x4.value, avoid=(t2.x1, t2.x2),
                                   variant=variant, tol=tol)
            values.append(rf_loop(spec2, t2, beta, tol))
        ok = len(set(values)) == 1
        return tuple(values), ok, 0.0 if ok else float(max(values) - min(values))

    run(
        "path_choice_irrelevant",
        base_inputs,
        "rf_loop agrees across three different connecting paths",
        probe_beta_independence,
    )

    def probe_methods():
        spec2, t2 = _prechart(spec, MarkedTuple(x1, x2, x3, x4))
        beta = connecting_path(t2.x3.value, t2.x4.value, avoid=(t2.x1, t2.x2), tol=tol)
        a, b = _loop_and_lift(spec2, t2, beta, tol)
        values = [a, b]
        try:
            trace = synthesize_twist_trace(spec, MarkedTuple(x1, x2, x3, x4), tol=tol)
        except ScenarioError:
            trace = None
            ok = a == b
        else:
            c = 0 if trace is None else rf_trace(trace, tol)
            values.append(c)
            ok = a == b == c
        return tuple(values), ok, 0.0 if ok else float(max(values) - min(values))

    run(
        "methods_agree",
        base_inputs,
        "loop, lift (and trace, when synthesizable) give one integer",
        probe_methods,
    )

    return records
