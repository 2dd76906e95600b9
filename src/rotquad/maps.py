"""A closed family of explicitly evaluable sphere homeomorphisms.

The atoms are radial twists z -> e^{2 pi i rho(|z|)} z with a piecewise-linear
angle profile rho, held constant below the first and beyond the last
breakpoint.  The family is closed under Mobius conjugation, composition,
inversion and integer powers, which is enough to realize every construction
the verification suites need while keeping fixed points, inverses and local
rotation angles exactly computable.
"""

from __future__ import annotations

import cmath
import math
from bisect import bisect_left
from cmath import isfinite
from dataclasses import dataclass
from itertools import combinations

from .errors import BudgetExhausted, NotFixed
from .geometry import (
    DEFAULT_TOL,
    INFINITY,
    MOBIUS_IDENTITY,
    MobiusTransform,
    SpherePoint,
    Tolerances,
    _PAD,
    _non_finite,
    apply_mobius,
    as_sphere_point,
    mobius_disk,
    mobius_step,
    padded_disk,
)

TAU = math.tau


@dataclass(frozen=True)
class RadialProfile:
    """Piecewise-linear angle profile rho(r), in full turns.

    breakpoints are (radius, value) pairs with strictly increasing radii;
    rho is constant at the first value for r below the first radius and at
    the last value beyond the last radius.  Every circle where rho takes an
    integer value is pointwise fixed by the twist.
    """

    breakpoints: tuple[tuple[float, float], ...]

    def __post_init__(self):
        bps = tuple((float(r), float(v)) for r, v in self.breakpoints)
        if not bps:
            raise ValueError("profile needs at least one breakpoint")
        radii = [r for r, _ in bps]
        if any(r < 0 for r in radii):
            raise ValueError("radii must be nonnegative")
        if any(r1 >= r2 for r1, r2 in zip(radii, radii[1:])):
            raise ValueError("radii must be strictly increasing")
        object.__setattr__(self, "breakpoints", bps)
        # value's lookup: the radii, and segment i ending at radius i
        object.__setattr__(self, "_radii", tuple(radii))
        object.__setattr__(self, "_segments", (None, *(
            (r0, v0, r1, v1, v1 - v0, r1 - r0) for (r0, v0), (r1, v1) in zip(bps, bps[1:]))))

    def value(self, r: float) -> float:
        """rho(r), exact (no interpolation arithmetic) on constant zones."""
        radii = self._radii
        if r <= radii[0]:
            return self.breakpoints[0][1]
        if r >= radii[-1]:
            return self.breakpoints[-1][1]
        # the first segment [r0, r1] that holds r, so r0 < r <= r1
        i = bisect_left(radii, r)
        if not i:
            raise AssertionError("unreachable")  # r is NaN
        r0, v0, r1, v1, dv, dr = self._segments[i]
        if v0 == v1:
            return v0
        if r == r1:
            return v1
        return v0 + dv * (r - r0) / dr

    @property
    def value_at_zero(self) -> float:
        return self.breakpoints[0][1]

    @property
    def value_at_infinity(self) -> float:
        return self.breakpoints[-1][1]

    def locally_constant_value(self, r: float) -> float | None:
        """The constant value of rho on a neighborhood of r, or None; None
        for a NaN r unless the profile is one breakpoint, constant everywhere."""
        radii = self._radii
        if len(radii) > 1 and math.isnan(r):
            return None
        # the breakpoints next to r on either side, and r's own when it is one
        i = bisect_left(radii, r)
        end = i + 2 if i < len(radii) and radii[i] == r else i + 1
        values = {v for _, v in self.breakpoints[max(i - 1, 0):end]}
        return values.pop() if len(values) == 1 else None

    def total_variation(self) -> float:
        bps = self.breakpoints
        return sum(abs(b[1] - a[1]) for a, b in zip(bps, bps[1:]))

    def scaled(self, k) -> "RadialProfile":
        return RadialProfile(tuple((r, k * v) for r, v in self.breakpoints))

    def negated(self) -> "RadialProfile":
        return self.scaled(-1)

    def added(self, other: "RadialProfile") -> "RadialProfile":
        radii = sorted({r for r, _ in self.breakpoints} | {r for r, _ in other.breakpoints})
        return RadialProfile(tuple((r, self.value(r) + other.value(r)) for r in radii))


def _marks_tuple(marks) -> tuple[SpherePoint, ...]:
    return tuple(as_sphere_point(m) for m in marks)


@dataclass(frozen=True)
class Identity:
    marks: tuple[SpherePoint, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "marks", _marks_tuple(self.marks))


@dataclass(frozen=True)
class RadialTwist:
    """f(z) = e^{2 pi i rho(|z|)} z in the current chart; fixes 0 and inf."""

    profile: RadialProfile
    marks: tuple[SpherePoint, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "marks", _marks_tuple(self.marks))


@dataclass(frozen=True)
class MobiusConjugate:
    """h^{-1} after inner after h: transports inner to new coordinates."""

    h: MobiusTransform
    inner: "MapSpec"
    marks: tuple[SpherePoint, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "marks", _marks_tuple(self.marks))


@dataclass(frozen=True)
class Compose:
    """Composition; parts[0] is applied last, like function notation."""

    parts: tuple["MapSpec", ...]
    marks: tuple[SpherePoint, ...] = ()

    def __post_init__(self):
        if len(self.parts) < 1:
            raise ValueError("compose needs at least one part")
        object.__setattr__(self, "parts", tuple(self.parts))
        object.__setattr__(self, "marks", _marks_tuple(self.marks))


@dataclass(frozen=True)
class Inverse:
    inner: "MapSpec"
    marks: tuple[SpherePoint, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "marks", _marks_tuple(self.marks))


@dataclass(frozen=True)
class Power:
    q: int
    inner: "MapSpec"
    marks: tuple[SpherePoint, ...] = ()

    def __post_init__(self):
        # q scales profile values as a float, exact for integers below 2**53
        if not isinstance(self.q, int) or not 0 < abs(self.q) < 2**53:
            raise ValueError("power exponent must be a nonzero integer below 2**53 in magnitude")
        object.__setattr__(self, "marks", _marks_tuple(self.marks))


MapSpec = Identity | RadialTwist | MobiusConjugate | Compose | Inverse | Power


def invert_spec(spec: MapSpec) -> MapSpec:
    """The exact structural inverse within the family."""
    if isinstance(spec, Identity):
        return spec
    if isinstance(spec, RadialTwist):
        return RadialTwist(spec.profile.negated(), spec.marks)
    if isinstance(spec, MobiusConjugate):
        return MobiusConjugate(spec.h, invert_spec(spec.inner), spec.marks)
    if isinstance(spec, Compose):
        return Compose(tuple(invert_spec(p) for p in reversed(spec.parts)), spec.marks)
    if isinstance(spec, Inverse):
        return spec.inner
    if isinstance(spec, Power):
        return Power(spec.q, invert_spec(spec.inner), spec.marks)
    raise TypeError(f"not a map spec: {spec!r}")


# ---------------------------------------------------------------------------
# compiled evaluation
#
# A spec is compiled once into a chain of steps, each a pair: a point step on
# bare coordinates (a finite complex number, or None for infinity) and an
# enclosure step on disks (``geometry.mobius_disk`` form) that encloses the
# image of that very point step.  A Mobius pair is geometry.mobius_step, the
# one implementation of the Mobius formula, with geometry.mobius_disk; a twist
# pair is _twist_step with _twist_disk.  Like SpherePoint, a point step
# rejects a non-finite coordinate with ValueError.  An enclosure step is
# _Deferred: built on its first use, so callers that only evaluate points
# (fixed-point checks, finite differences) never build one.

_TAU_I = 1j * TAU


def _twist_turn(profile: RadialProfile):
    """The twist at a finite nonzero z, given with its modulus az = |z|."""
    rho, exp = profile.value, cmath.exp

    def turn(z, az):
        ang = rho(az) % 1.0
        if ang == 0.0:
            return z
        w = z * exp(_TAU_I * ang)
        if not isfinite(w):
            raise _non_finite(w)
        return w

    return turn


def _twist_step(profile: RadialProfile):
    """The radial twist z -> e^{2 pi i rho(|z|)} z on coordinates."""
    turn = _twist_turn(profile)

    def step(z):
        if z is None or z == 0:
            return z
        return turn(z, abs(z))

    return step


def _twist_disk(profile: RadialProfile):
    """The radial twist as an enclosure step (``geometry.mobius_disk`` form).

    On |z - c| <= r the angle moves by at most L r turns, L the largest
    slope of rho on [|c| - r, |c| + r], so the image lies within
    min(r (1 + 2 pi |c| L), r + 2|c|) of T(c).  A complement passes only
    where rho is constant on it, beyond the last breakpoint where it
    changes: there the twist is a rigid rotation.  The padding adds the
    rounding of a turn count as large as the profile's values.
    """
    bps = profile.breakpoints
    slopes = tuple((r0, r1, abs(v1 - v0) / (r1 - r0))
                   for (r0, v0), (r1, v1) in zip(bps, bps[1:]) if v1 != v0)
    rigid_beyond = slopes[-1][1] if slopes else -1.0
    outer = cmath.exp(_TAU_I * (profile.value_at_infinity % 1.0))
    pad = _PAD + 1e-14 * max(abs(v) for _, v in bps)
    turn = _twist_turn(profile)
    finite = math.isfinite

    def step(disk):
        if disk is None:
            return None
        c, r, outside = disk
        ac = abs(c)
        # radii |z| of the set's points, widened for the rounding of |z|
        margin = 1e-15 * (ac + r)
        if outside:
            if r - ac - margin <= rigid_beyond:
                return None
            return padded_disk(c * outer, r, True, (ac + r) * pad)
        lo, hi = ac - r - margin, ac + r + margin
        slope = 0.0
        for r0, r1, k in slopes:
            if k > slope and r0 <= hi and r1 >= lo:
                slope = k
        grow = r * TAU * ac * slope
        if 2.0 * ac < grow:
            grow = 2.0 * ac
        # padded_disk, inline: T(c), and the radius widened by the padding
        centre = turn(c, ac) if c else c
        radius = r + grow + hi * (pad + 1e-14 * slope * hi)
        if not (isfinite(centre) and finite(radius)):
            return None
        return centre, radius, False

    return step


class _Deferred:
    """An enclosure step built by build(*args) when first called or asked for."""

    __slots__ = ("_build", "_args", "_step")

    def __init__(self, build, *args):
        self._build, self._args, self._step = build, args, None

    def built(self):
        if self._step is None:
            self._step = self._build(*self._args)
        return self._step

    def __call__(self, disk):
        return self.built()(disk)


def _built(step):
    """The enclosure step itself, a _Deferred one built."""
    return step.built() if isinstance(step, _Deferred) else step


def _applications(step) -> int:
    """Step applications per call of a step: a repeated chain counts each pass."""
    return getattr(step, "applications", 1)


def _repeat_step(steps: list, n: int):
    """The steps applied n times over; point and enclosure steps alike."""
    def step(z):
        for _ in range(n):
            for s in steps:
                z = s(z)
        return z

    step.applications = n * sum(map(_applications, steps))
    return step


def _mobius_pair(h: MobiusTransform) -> tuple:
    return mobius_step(h), _Deferred(mobius_disk, h)


def _steps(spec: MapSpec) -> list:
    """The spec as (point step, enclosure step) pairs, first pair first.

    A power is first rewritten where that is exact: nested powers and
    inverses fold into its exponent, a power of the identity is no step, and
    a power of a conjugate is the conjugate of the power, so the chart
    change runs once, not at every repetition.  A subtree that
    ``twist_chart`` reduces is one twist between its charts, and a power of
    commuting twists the composition of their powers: chained steps would
    cost a step per factor or repetition, and an enclosure would compound
    each twist's radius growth as often.  A power of anything else repeats
    its steps, and counts each pass (``_applications``).
    """
    return _charted_steps(spec)[2]


def _charted_steps(spec: MapSpec) -> tuple[MobiusTransform | None, list, list]:
    """_steps(spec) with the chart they run in, from one ``twist_chart`` walk.

    Returns (H, core, steps): the steps are H's chart change, the core and
    its inverse (the core alone when H is the identity), where H is the
    chart ``twist_chart`` reduces spec to, after the power rewrites, and
    the core is its one twist (no step for the identity).  A spec that
    does not reduce gives H = None and its steps as the core.
    """
    while isinstance(spec, Power):
        inner = spec.inner
        if isinstance(inner, Identity):
            spec = inner
        elif isinstance(inner, MobiusConjugate):
            spec = MobiusConjugate(inner.h, Power(spec.q, inner.inner))
        elif isinstance(inner, Inverse):
            spec = Power(-spec.q, inner.inner)
        elif isinstance(inner, Power):
            spec = Power(spec.q * inner.q, inner.inner)
        else:
            break
    if isinstance(spec, Identity):
        return MOBIUS_IDENTITY, [], []
    reduced = twist_chart(spec)
    if reduced is not None:
        h, profile = reduced
        core = [(_twist_step(profile), _Deferred(_twist_disk, profile))]
        if h == MOBIUS_IDENTITY:
            return h, core, core
        return h, core, [_mobius_pair(h), *core, _mobius_pair(h.inverse())]
    if isinstance(spec, MobiusConjugate):
        steps = [_mobius_pair(spec.h), *_steps(spec.inner), _mobius_pair(spec.h.inverse())]
    elif isinstance(spec, Compose):
        steps = [s for part in reversed(spec.parts) for s in _steps(part)]
    elif isinstance(spec, Inverse):
        steps = _steps(invert_spec(spec.inner))
    elif isinstance(spec, Power):
        inner = spec.inner if spec.q > 0 else invert_spec(spec.inner)
        if _commuting_twists(inner):
            return _charted_steps(Compose(tuple(Power(abs(spec.q), part) for part in inner.parts)))
        n, chain = abs(spec.q), _steps(inner)
        disks = [d for _, d in chain]
        steps = [(_repeat_step([p for p, _ in chain], n),
                  _Deferred(lambda: _repeat_step([_built(d) for d in disks], n)))]
    else:
        raise TypeError(f"not a map spec: {spec!r}")
    return None, steps, steps


def _support_disk(spec: MapSpec):
    """A disk (``geometry.mobius_disk`` form) outside which the spec is the
    identity, when ``twist_chart`` reduces it to a profile with an integer
    value beyond its last or below its first breakpoint; else None."""
    reduced = twist_chart(spec)
    if reduced is None:
        return None
    h, profile = reduced
    (r_in, v_in), (r_out, v_out) = profile.breakpoints[0], profile.breakpoints[-1]
    if v_out == round(v_out):
        return mobius_disk(h.inverse())((0j, r_out, False))
    if v_in == round(v_in):
        return mobius_disk(h.inverse())((0j, r_in, True))
    return None


def _commuting_twists(spec: MapSpec) -> bool:
    """Whether spec composes reducible twists with pairwise disjoint supports.

    Such twists commute, so a power of the composition is the composition
    of their powers, each one twist: chained repetitions cost a pass each
    and grow the enclosure geometrically with the exponent.
    """
    if not isinstance(spec, Compose):
        return False
    disks = [_support_disk(part) for part in spec.parts]
    return None not in disks and all(_disjoint(a, b) for a, b in combinations(disks, 2))


def _disjoint(first, second) -> bool:
    """Whether two disks (``geometry.mobius_disk`` form) are disjoint: two
    proper disks apart, or a proper disk inside the hole of a complement."""
    (c1, r1, out1), (c2, r2, out2) = sorted((first, second), key=lambda disk: disk[2])
    if out1:
        return False  # two complements share the point at infinity
    return abs(c1 - c2) + r1 < r2 if out2 else abs(c1 - c2) > r1 + r2


def _chain(steps: tuple):
    """The steps as one function, applied in order: a lone step is itself."""
    if len(steps) == 1:
        return steps[0]

    def chained(z):
        for step in steps:
            z = step(z)
        return z

    return chained


class CompiledMap:
    """A spec compiled once: ``f(z)`` maps a coordinate (None is infinity),
    ``f.enclose(disk)`` a disk (``geometry.mobius_disk`` gives the form).
    The enclosure chain is built when ``enclose`` is first read.
    ``f.applications`` is the number of step applications one evaluation
    takes."""

    __slots__ = ("_point", "_disks", "_enclose", "applications")

    def __init__(self, steps: list):
        points = tuple(point for point, _ in steps)
        self.applications = sum(map(_applications, points))
        self._point = _chain(points)
        self._disks = tuple(disk for _, disk in steps)
        self._enclose = None

    @property
    def enclose(self):
        if self._enclose is None:
            self._enclose = _chain(tuple(_built(disk) for disk in self._disks))
        return self._enclose

    def __call__(self, z):
        if z is not None and not isfinite(z):
            raise _non_finite(z)
        return self._point(z)


def compile_map(spec: MapSpec, then: MobiusTransform | None = None) -> CompiledMap:
    """The homeomorphism as a function on coordinates, with its disk enclosure.

    With ``then``, the map is the chart change ``then`` after the spec.  A
    non-finite input or intermediate coordinate raises ValueError.
    """
    steps = _steps(spec)
    if then is not None:
        steps.append(_mobius_pair(then))
    return CompiledMap(steps)


def eval_map(spec: MapSpec, p) -> SpherePoint:
    """Evaluate the homeomorphism at a point of the extended plane."""
    w = compile_map(spec)(as_sphere_point(p).z)
    return INFINITY if w is None else SpherePoint(w)


def fixed_residual(spec: MapSpec, p: SpherePoint) -> float:
    """Chart distance between p and its image; 0 means exactly fixed."""
    return _residual(compile_map(spec), p)


def _residual(f: CompiledMap, p: SpherePoint) -> float:
    """fixed_residual of p under the compiled map f."""
    w = f(p.z)
    if p.is_infinity:
        return 0.0 if w is None else 1.0 / (1.0 + abs(w))
    if w is None:
        return math.inf
    return abs(w - p.value)


def require_fixed(spec: MapSpec, points, tol: Tolerances) -> None:
    """Raise NotFixed for the first of points that spec moves by fixed_tol or
    more, and BudgetExhausted first when one evaluation of spec takes more
    step applications than tol.max_refine_points."""
    _require_fixed(compile_map(spec), points, tol)


def _require_fixed(f: CompiledMap, points, tol: Tolerances) -> None:
    """require_fixed under the compiled map f.  A map whose one evaluation
    takes more step applications than tol.max_refine_points is refused
    before any point is evaluated, with BudgetExhausted."""
    if f.applications > tol.max_refine_points:
        raise BudgetExhausted(
            f"one evaluation takes {f.applications} step applications, more than "
            f"max_refine_points={tol.max_refine_points}")
    for p in points:
        res = _residual(f, p)
        if res >= tol.fixed_tol:
            raise NotFixed(p, res)


def twist_chart(spec: MapSpec) -> tuple[MobiusTransform, RadialProfile] | None:
    """Reduce spec to (chart H, profile) with spec = H^{-1} o twist o H, if possible.

    A composition reduces when every part does and their charts agree up to
    a scaling w -> lambda w (see _profile_in_chart), in the first part's
    chart."""
    if isinstance(spec, Identity):
        return MOBIUS_IDENTITY, RadialProfile(((1.0, 0.0),))
    if isinstance(spec, RadialTwist):
        return MOBIUS_IDENTITY, spec.profile
    if isinstance(spec, MobiusConjugate):
        inner = twist_chart(spec.inner)
        if inner is None:
            return None
        h0, prof = inner
        return h0.compose(spec.h), prof
    if isinstance(spec, Inverse):
        inner = twist_chart(spec.inner)
        if inner is None:
            return None
        return inner[0], inner[1].negated()
    if isinstance(spec, Power):
        inner = twist_chart(spec.inner)
        if inner is None:
            return None
        return inner[0], inner[1].scaled(spec.q)
    if isinstance(spec, Compose):
        reduced = [twist_chart(part) for part in spec.parts]
        if any(r is None for r in reduced):
            return None
        chart, total = reduced[0]
        for h, prof in reduced[1:]:
            prof = _profile_in_chart(h, prof, chart)
            if prof is None:
                return None
            total = total.added(prof)
        return chart, total
    return None


def _profile_in_chart(h: MobiusTransform, profile: RadialProfile,
                      chart: MobiusTransform) -> RadialProfile | None:
    """The twist h^-1 o T o h (T the twist by profile) as a profile in chart.

    When h = m o chart with m(w) = lambda w, that is m fixes 0 and infinity
    exactly, the twist is the twist by rho(|lambda| r) in chart: the
    rotation part of lambda commutes with every twist, so only |lambda|
    enters, folded into the radii.  None when h is no such m o chart, or
    when m or the folded radii are degenerate in floats.
    """
    if h == chart:
        return profile
    try:
        m = h.compose(chart.inverse())
        if m.b != 0 or m.c != 0:
            return None
        k = abs(m.a / m.d)
        return RadialProfile(tuple((r / k, v) for r, v in profile.breakpoints))
    except (ValueError, ZeroDivisionError):
        return None


def iterate_spec(spec: MapSpec, n: int) -> MapSpec:
    """A spec for the n-th iterate: a Power node, which ``_steps`` rewrites
    where that is exact."""
    if n == 0:
        return Identity()
    if n == 1:
        return spec
    return Power(n, spec)


def fixed_points(spec: MapSpec, extra=(), tol: Tolerances = DEFAULT_TOL) -> list[SpherePoint]:
    """Declared and structural fixed points, each validated against eval_map.

    Declared marks (node metadata or the extra argument) must validate or
    NotFixed is raised; structural candidates that the full composition
    happens not to fix are dropped silently.
    """
    declared = list(_marks_tuple(extra))
    walked = list(_walk_points(spec))
    marks = [p for p, is_mark in walked if is_mark]
    f = compile_map(spec)
    _require_fixed(f, declared + marks, tol)
    must_hold = set(marks)

    seen: list[SpherePoint] = []
    for cand in [p for p, _ in walked] + declared:
        if cand in seen:
            continue
        if cand in must_hold or _residual(f, cand) < tol.fixed_tol:
            seen.append(cand)
    return seen


def _walk_points(spec: MapSpec):
    """Every declared mark and twist axis point, transported to the
    outermost coordinates, as (point, is_mark) pairs."""
    for m in spec.marks:
        yield m, True
    if isinstance(spec, RadialTwist):
        yield SpherePoint(0j), False
        yield INFINITY, False
    elif isinstance(spec, MobiusConjugate):
        back = spec.h.inverse()
        for q, is_mark in _walk_points(spec.inner):
            yield apply_mobius(back, q), is_mark
    elif isinstance(spec, (Inverse, Power)):
        yield from _walk_points(spec.inner)
    elif isinstance(spec, Compose):
        for part in spec.parts:
            yield from _walk_points(part)


def _structural_rotation(spec: MapSpec, p: SpherePoint,
                         tol: Tolerances = DEFAULT_TOL) -> float | None:
    """The exact local rotation angle at a fixed point when the germ there is
    a rigid rotation, else None.

    A spec that twist_chart reduces to (H, rho) is read off the profile at
    q = H(p): rho at infinity when q is infinity, else rho's constant value
    on a neighborhood of |q|, and None when rho is not constant there.
    The angle at infinity is reported in finite-chart sense (the angular
    speed around the origin), which is the negative of the angle read in
    the 1/z chart; this is the bookkeeping under which same-axis twists
    report profile values at both ends of the axis.  Any other spec is
    walked: conjugates move p, compositions sum their parts' angles when
    every part fixes p, inverses negate and powers scale.
    """
    reduced = twist_chart(spec)
    if reduced is not None:
        chart, profile = reduced
        q = p if chart == MOBIUS_IDENTITY else apply_mobius(chart, p)
        if q.is_infinity:
            angle = profile.value_at_infinity
        else:
            angle = profile.locally_constant_value(abs(q.value))
            if angle is None:
                return None
        return -angle if p.is_infinity != q.is_infinity else angle
    if isinstance(spec, MobiusConjugate):
        q = apply_mobius(spec.h, p)
        inner = _structural_rotation(spec.inner, q, tol)
        if inner is None:
            return None
        flip = -1.0 if (p.is_infinity != q.is_infinity) else 1.0
        return flip * inner
    if isinstance(spec, Compose):
        total = 0.0
        for part in spec.parts:
            if fixed_residual(part, p) >= tol.fixed_tol:
                return None
            a = _structural_rotation(part, p, tol)
            if a is None:
                return None
            total += a
        return total
    if isinstance(spec, Inverse):
        inner = _structural_rotation(spec.inner, p, tol)
        return None if inner is None else -inner
    if isinstance(spec, Power):
        inner = _structural_rotation(spec.inner, p, tol)
        return None if inner is None else spec.q * inner
    raise TypeError(f"not a map spec: {spec!r}")


def _fd_rotation(spec: MapSpec, p: SpherePoint) -> float:
    """Finite-difference rotation angle in turns, approximate, mod 1."""
    step = 1e-6
    f_map = compile_map(spec)
    if p.is_infinity:
        def g(w: complex) -> complex:
            image = f_map(None if w == 0 else 1.0 / w)
            return 0j if image is None else (1.0 / image if image != 0 else complex(1e300))
        j11, j21 = _fd_column(g, 0j, step)
        j12, j22 = _fd_column(g, 0j, step * 1j)
        angle = math.atan2(j21 - j12, j11 + j22) / TAU
        return -angle

    z = p.value

    def f(w: complex) -> complex:
        image = f_map(w)
        if image is None:
            raise NotFixed(p, math.inf)
        return image

    j11, j21 = _fd_column(f, z, step)
    j12, j22 = _fd_column(f, z, step * 1j)
    return math.atan2(j21 - j12, j11 + j22) / TAU


def _fd_column(f, z: complex, dz: complex) -> tuple[float, float]:
    d = (f(z + dz) - f(z - dz)) / (2 * abs(dz))
    return d.real, d.imag


def differential_rotation(spec: MapSpec, p, tol: Tolerances = DEFAULT_TOL) -> float:
    """Rotation angle of the derivative at a fixed point, in turns mod 1.

    The derivative only sees the angle modulo full turns, so the result is
    reduced to [0, 1); callers that need the unreduced profile bookkeeping
    (the blow-up forms do) use rigid_rotation_angle instead.  For the
    structural family (twists at their axis points and on constant profile
    zones, conjugates, sums, inverses, powers) the value is exact; outside
    it the angle comes from central finite differences (step 1e-6) and is
    approximate.
    """
    p = as_sphere_point(p)
    require_fixed(spec, (p,), tol)
    angle = _structural_rotation(spec, p, tol)
    if angle is None:
        angle = _fd_rotation(spec, p)
    return angle % 1.0


def rigid_rotation_angle(spec: MapSpec, p, tol: Tolerances = DEFAULT_TOL) -> float | None:
    """The exact local angle when the germ at p is a rigid rotation, else None."""
    p = as_sphere_point(p)
    require_fixed(spec, (p,), tol)
    return _structural_rotation(spec, p, tol)
