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
from cmath import isfinite
from dataclasses import dataclass

from .errors import NotFixed
from .geometry import (
    DEFAULT_TOL,
    INFINITY,
    MOBIUS_IDENTITY,
    MobiusTransform,
    SpherePoint,
    Tolerances,
    _non_finite,
    apply_mobius,
    as_sphere_point,
    mobius_step,
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

    def value(self, r: float) -> float:
        """rho(r), exact (no interpolation arithmetic) on constant zones."""
        bps = self.breakpoints
        if r <= bps[0][0]:
            return bps[0][1]
        if r >= bps[-1][0]:
            return bps[-1][1]
        for (r0, v0), (r1, v1) in zip(bps, bps[1:]):
            if r0 <= r <= r1:
                if v0 == v1 or r == r0:
                    return v0
                if r == r1:
                    return v1
                return v0 + (v1 - v0) * (r - r0) / (r1 - r0)
        raise AssertionError("unreachable")

    @property
    def value_at_zero(self) -> float:
        return self.breakpoints[0][1]

    @property
    def value_at_infinity(self) -> float:
        return self.breakpoints[-1][1]

    def locally_constant_value(self, r: float) -> float | None:
        """The constant value of rho on a neighborhood of r, or None."""
        bps = self.breakpoints
        if len(bps) == 1:
            return bps[0][1]
        if r < bps[0][0]:
            return bps[0][1]
        if r > bps[-1][0]:
            return bps[-1][1]
        values_around = []
        if r == bps[0][0]:
            values_around = [bps[0][1], bps[1][1]]
        elif r == bps[-1][0]:
            values_around = [bps[-2][1], bps[-1][1]]
        else:
            for i, ((r0, v0), (r1, v1)) in enumerate(zip(bps, bps[1:])):
                if r0 < r < r1:
                    values_around = [v0, v1]
                    break
                if r == r1:
                    values_around = [v0, v1, bps[i + 2][1]]
                    break
        if values_around and all(v == values_around[0] for v in values_around):
            return values_around[0]
        return None

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
        if not isinstance(self.q, int) or self.q == 0:
            raise ValueError("power exponent must be a nonzero integer")
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
# A spec is compiled once into a chain of steps on bare coordinates: a finite
# complex number, or None for the point at infinity.  A Mobius node is
# geometry.mobius_step, the one implementation of the Mobius formula (and the
# one apply_mobius wraps); a twist step does the floating-point operations of
# the twist formula in a fixed order.  Only the per-node set-up (inverse
# charts, inverse specs, attribute lookups) is hoisted out of the per-point
# work.  Like SpherePoint, a step rejects a non-finite coordinate with
# ValueError.

_TAU_I = 1j * TAU


def _twist_step(profile: RadialProfile):
    """The radial twist z -> e^{2 pi i rho(|z|)} z on coordinates."""
    rho = profile.value

    def step(z):
        if z is None or z == 0:
            return z
        ang = rho(abs(z)) % 1.0
        if ang == 0.0:
            return z
        w = z * cmath.exp(_TAU_I * ang)
        if not isfinite(w):
            raise _non_finite(w)
        return w

    return step


def _repeat_step(steps: list, n: int):
    def step(z):
        for _ in range(n):
            for s in steps:
                z = s(z)
        return z

    return step


def _steps(spec: MapSpec) -> list:
    """The spec as steps to apply in order, first step first."""
    if isinstance(spec, Identity):
        return []
    if isinstance(spec, RadialTwist):
        return [_twist_step(spec.profile)]
    if isinstance(spec, MobiusConjugate):
        return [mobius_step(spec.h), *_steps(spec.inner), mobius_step(spec.h.inverse())]
    if isinstance(spec, Compose):
        return [s for part in reversed(spec.parts) for s in _steps(part)]
    if isinstance(spec, Inverse):
        return _steps(invert_spec(spec.inner))
    if isinstance(spec, Power):
        base = _steps(spec.inner if spec.q > 0 else invert_spec(spec.inner))
        return [_repeat_step(base, abs(spec.q))]
    raise TypeError(f"not a map spec: {spec!r}")


def compile_map(spec: MapSpec, then: MobiusTransform | None = None):
    """The homeomorphism as a function on coordinates (None is infinity).

    With ``then``, the function is the chart change ``then`` after the map.
    The images are bit-identical to ``eval_map``; a non-finite input or
    intermediate coordinate raises ValueError.
    """
    steps = _steps(spec)
    if then is not None:
        steps.append(mobius_step(then))
    steps = tuple(steps)

    def run(z):
        if z is not None and not isfinite(z):
            raise _non_finite(z)
        for step in steps:
            z = step(z)
        return z

    return run


def eval_map(spec: MapSpec, p) -> SpherePoint:
    """Evaluate the homeomorphism at a point of the extended plane."""
    w = compile_map(spec)(as_sphere_point(p).z)
    return INFINITY if w is None else SpherePoint(w)


def fixed_residual(spec: MapSpec, p: SpherePoint) -> float:
    """Chart distance between p and its image; 0 means exactly fixed."""
    image = eval_map(spec, p)
    if p.is_infinity:
        return 0.0 if image.is_infinity else 1.0 / (1.0 + abs(image.value))
    if image.is_infinity:
        return math.inf
    return abs(image.value - p.value)


def twist_chart(spec: MapSpec) -> tuple[MobiusTransform, RadialProfile] | None:
    """Reduce spec to (chart H, profile) with spec = H^{-1} o twist o H, if possible."""
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
        charts = {r[0] for r in reduced}
        if len(charts) != 1:
            return None
        total = reduced[0][1]
        for _, prof in reduced[1:]:
            total = total.added(prof)
        return reduced[0][0], total
    return None


def iterate_spec(spec: MapSpec, n: int) -> MapSpec:
    """A spec for the n-th iterate, simplified structurally where exact.

    Same-axis twists iterate by scaling the profile, conjugation commutes
    with iteration, and nested powers multiply exponents; anything else
    falls back to an honest Power node.
    """
    if n == 0:
        return Identity()
    if n == 1:
        return spec
    if isinstance(spec, Identity):
        return spec
    if isinstance(spec, RadialTwist):
        return RadialTwist(spec.profile.scaled(n), spec.marks)
    if isinstance(spec, MobiusConjugate):
        return MobiusConjugate(spec.h, iterate_spec(spec.inner, n), spec.marks)
    if isinstance(spec, Inverse):
        return iterate_spec(spec.inner, -n)
    if isinstance(spec, Power):
        return iterate_spec(spec.inner, spec.q * n)
    if isinstance(spec, Compose):
        reduced = twist_chart(spec)
        if reduced is not None and reduced[0] == MOBIUS_IDENTITY:
            return RadialTwist(reduced[1].scaled(n), spec.marks)
        if n < 0:
            return Power(-n, invert_spec(spec))
        return Power(n, spec)
    raise TypeError(f"not a map spec: {spec!r}")


def twist_budget(spec: MapSpec) -> float:
    """An a-priori bound on the total twisting the spec can impose.

    The image of any path winds around a point at most this many extra
    turns (plus a geometry constant), so samplers can choose an initial
    resolution that no amount of exact integer wrapping can alias away.
    """
    if isinstance(spec, Identity):
        return 0.0
    if isinstance(spec, RadialTwist):
        return spec.profile.total_variation()
    if isinstance(spec, MobiusConjugate):
        return twist_budget(spec.inner)
    if isinstance(spec, Inverse):
        return twist_budget(spec.inner)
    if isinstance(spec, Power):
        return abs(spec.q) * twist_budget(spec.inner)
    if isinstance(spec, Compose):
        return sum(twist_budget(part) for part in spec.parts)
    raise TypeError(f"not a map spec: {spec!r}")


def fixed_points(spec: MapSpec, extra=(), tol: Tolerances = DEFAULT_TOL) -> list[SpherePoint]:
    """Declared and structural fixed points, each validated against eval_map.

    Declared marks (node metadata or the extra argument) must validate or
    NotFixed is raised; structural candidates that the full composition
    happens not to fix are dropped silently.
    """
    declared = list(_marks_tuple(extra))
    for m in declared:
        res = fixed_residual(spec, m)
        if res >= tol.fixed_tol:
            raise NotFixed(m, res)
    walked = list(_walk_points(spec))
    must_hold = set()
    for node_mark, is_mark in walked:
        if not is_mark:
            continue
        res = fixed_residual(spec, node_mark)
        if res >= tol.fixed_tol:
            raise NotFixed(node_mark, res)
        must_hold.add(node_mark)

    seen: list[SpherePoint] = []
    for cand in [p for p, _ in walked] + declared:
        if cand in seen:
            continue
        if cand in must_hold or fixed_residual(spec, cand) < tol.fixed_tol:
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


def _structural_rotation(
    spec: MapSpec,
    p: SpherePoint,
    rigid_only: bool,
    tol: Tolerances = DEFAULT_TOL,
) -> float | None:
    """Unreduced local rotation angle at a fixed point, by structure.

    The angle at infinity is reported in finite-chart sense (the angular
    speed around the origin), which is the negative of the angle read in
    the 1/z chart; this is the bookkeeping under which same-axis twists
    report profile values at both ends of the axis.  Returns None when the
    structure does not determine the angle (callers fall back to finite
    differences).  With rigid_only, also returns None when the germ at p
    is not an exact rigid rotation.
    """
    if isinstance(spec, Identity):
        return 0.0
    if isinstance(spec, RadialTwist):
        prof = spec.profile
        if p.is_infinity:
            return prof.value_at_infinity
        z = p.value
        if z == 0:
            return prof.value_at_zero
        const = prof.locally_constant_value(abs(z))
        if const is not None:
            return const
        return None if rigid_only else prof.value(abs(z))
    if isinstance(spec, MobiusConjugate):
        q = apply_mobius(spec.h, p)
        inner = _structural_rotation(spec.inner, q, rigid_only, tol)
        if inner is None:
            return None
        flip = -1.0 if (p.is_infinity != q.is_infinity) else 1.0
        return flip * inner
    if isinstance(spec, Compose):
        total = 0.0
        for part in spec.parts:
            if fixed_residual(part, p) >= tol.fixed_tol:
                return None
            a = _structural_rotation(part, p, rigid_only, tol)
            if a is None:
                return None
            total += a
        return total
    if isinstance(spec, Inverse):
        inner = _structural_rotation(spec.inner, p, rigid_only, tol)
        return None if inner is None else -inner
    if isinstance(spec, Power):
        inner = _structural_rotation(spec.inner, p, rigid_only, tol)
        return None if inner is None else spec.q * inner
    raise TypeError(f"not a map spec: {spec!r}")


def _fd_rotation(spec: MapSpec, p: SpherePoint) -> float:
    """Finite-difference rotation angle in turns, approximate, mod 1."""
    step = 1e-6
    if p.is_infinity:
        def g(w: complex) -> complex:
            src = INFINITY if w == 0 else SpherePoint(1.0 / w)
            image = eval_map(spec, src)
            return 0j if image.is_infinity else (1.0 / image.value if image.value != 0 else complex(1e300))
        j11, j21 = _fd_column(g, 0j, step)
        j12, j22 = _fd_column(g, 0j, step * 1j)
        angle = math.atan2(j21 - j12, j11 + j22) / TAU
        return -angle

    z = p.value

    def f(w: complex) -> complex:
        image = eval_map(spec, SpherePoint(w))
        if image.is_infinity:
            raise NotFixed(p, math.inf)
        return image.value

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
    res = fixed_residual(spec, p)
    if res >= tol.fixed_tol:
        raise NotFixed(p, res)
    angle = _structural_rotation(spec, p, rigid_only=False, tol=tol)
    if angle is None:
        angle = _fd_rotation(spec, p)
    return angle % 1.0


def rigid_rotation_angle(spec: MapSpec, p, tol: Tolerances = DEFAULT_TOL) -> float | None:
    """The exact local angle when the germ at p is a rigid rotation, else None."""
    p = as_sphere_point(p)
    res = fixed_residual(spec, p)
    if res >= tol.fixed_tol:
        raise NotFixed(p, res)
    return _structural_rotation(spec, p, rigid_only=True, tol=tol)
