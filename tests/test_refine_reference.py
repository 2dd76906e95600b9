"""The refinement hot path against a reference copy of its plain form.

The reference below is the straightforward form of the pieces every
certified piece of a refined path goes through: the profile's linear scans
over its breakpoints (for its value, and for a constant value about a
radius, which the germs at fixed points read), the twist's point and enclosure steps, the padded
disk, the compiled chain, the bisection driver, the certified refinement
and the turning sum.  The library finds a profile segment by bisection,
shares the twist's work between its point and enclosure steps, inlines the
padding, folds the image checks and reads each phase once; these tests
require the same floats, bit for bit (signed zeros included), or the same
exception with the same message.
"""

import cmath
import functools
import math
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rotquad.invariant as invariant
from rotquad import (
    DEFAULT_TOL,
    Compose,
    MobiusConjugate,
    MobiusTransform,
    RadialProfile,
    RadialTwist,
    RfEvaluator,
    SpherePoint,
    rf_blowup,
)
from rotquad import maps
from rotquad.errors import (
    BudgetExhausted,
    GeometryFailure,
    InconclusiveComputation,
    PointOnLoop,
    SamplingFailure,
)
from rotquad.geometry import (
    Tolerances,
    _BLOWUP_MAGNITUDE,
    _PAD,
    _non_finite,
    mobius_disk,
    mobius_normalize,
    mobius_step,
    path_turns,
    refine_path_view,
    refine_twist_view,
)
from rotquad.invariant import _prechart
from rotquad.maps import _TAU_I, TAU, compile_map

from test_chart_reference import ReferenceEvaluator
from test_chart_reference import outcome as chart_outcome
from test_enclosure import _SCENARIOS, _default_tuples
from test_maps import _ALL_SPECS


# ---------------------------------------------------------------------------
# the reference: profile, twist steps, padded disk, compiled chain


def reference_value(profile: RadialProfile, r: float) -> float:
    """rho(r), exact (no interpolation arithmetic) on constant zones."""
    bps = profile.breakpoints
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


def reference_locally_constant_value(profile: RadialProfile, r: float) -> float | None:
    """The constant value of rho on a neighborhood of r, or None."""
    bps = profile.breakpoints
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


def reference_padded_disk(centre: complex, radius: float, outside: bool, pad: float):
    radius = radius - pad if outside else radius + pad
    if not (cmath.isfinite(centre) and math.isfinite(radius)) or (outside and radius <= 0.0):
        return None
    return centre, radius, outside


def reference_twist_step(profile: RadialProfile):
    def rho(r):
        return reference_value(profile, r)

    def step(z):
        if z is None or z == 0:
            return z
        ang = rho(abs(z)) % 1.0
        if ang == 0.0:
            return z
        w = z * cmath.exp(_TAU_I * ang)
        if not cmath.isfinite(w):
            raise _non_finite(w)
        return w

    return step


def reference_twist_disk(profile: RadialProfile):
    bps = profile.breakpoints
    slopes = tuple((r0, r1, abs(v1 - v0) / (r1 - r0))
                   for (r0, v0), (r1, v1) in zip(bps, bps[1:]) if v1 != v0)
    rigid_beyond = slopes[-1][1] if slopes else -1.0
    outer = cmath.exp(_TAU_I * (profile.value_at_infinity % 1.0))
    turns = 1e-14 * max(abs(v) for _, v in bps)
    point = reference_twist_step(profile)

    def step(disk):
        if disk is None:
            return None
        c, r, outside = disk
        ac = abs(c)
        margin = 1e-15 * (ac + r)
        if outside:
            if r - ac - margin <= rigid_beyond:
                return None
            return reference_padded_disk(c * outer, r, True, (ac + r) * (_PAD + turns))
        lo, hi = ac - r - margin, ac + r + margin
        slope = max((k for r0, r1, k in slopes if r0 <= hi and r1 >= lo), default=0.0)
        grow = min(r * TAU * ac * slope, 2.0 * ac)
        return reference_padded_disk(point(c), r + grow, False,
                                     hi * (_PAD + turns + 1e-14 * slope * hi))

    return step


class ReferenceCompiledMap:
    def __init__(self, steps: list):
        self._steps = tuple(point for point, _ in steps)
        # the library builds an enclosure step when first asked for; build
        # them all here
        self._disks = tuple(maps._built(disk) for _, disk in steps)

    def __call__(self, z):
        if z is not None and not cmath.isfinite(z):
            raise _non_finite(z)
        for step in self._steps:
            z = step(z)
        return z

    def enclose(self, disk):
        for step in self._disks:
            disk = step(disk)
        return disk


def reference_compile_map(spec, then=None) -> ReferenceCompiledMap:
    """compile_map with the reference twist steps in the library's chain."""
    with mock.patch.object(maps, "_twist_step", reference_twist_step), \
            mock.patch.object(maps, "_twist_disk", reference_twist_disk):
        steps = maps._steps(spec)
    if then is not None:
        steps.append((mobius_step(then), mobius_disk(then)))
    return ReferenceCompiledMap(steps)


# ---------------------------------------------------------------------------
# the reference: bisection, certified refinement, turning


def reference_bisect_path(vertices, evaluate, accept, tol, stuck):
    budget = tol.max_refine_points
    out = [evaluate(vertices[0])]
    for a, b in zip(vertices, vertices[1:]):
        stack = [(a, b, out[-1], evaluate(b), 0)]
        while stack:
            sa, sb, swa, swb, depth = stack.pop()
            if accept(sa, sb, swa, swb):
                budget -= 1
                if budget < 0:
                    raise BudgetExhausted(
                        f"refinement budget exhausted: more than "
                        f"max_refine_points={tol.max_refine_points} pieces")
                out.append(swb)
                continue
            if depth > 60:
                raise stuck
            mid = 0.5 * (sa + sb)
            wm = evaluate(mid)
            stack.append((mid, sb, wm, swb, depth + 1))
            stack.append((sa, mid, swa, wm, depth + 1))
    return out


def reference_refine_path_view(vertices, view, tol=DEFAULT_TOL):
    verts = [complex(v) for v in vertices]
    if len(verts) < 2:
        raise ValueError("need at least two vertices")
    enclose = view.enclose

    def evaluate(z):
        w = view(z)
        if w is None:
            raise PointOnLoop("image path passes through the chart pole")
        w = complex(w)
        if w == 0:
            raise PointOnLoop("image path passes through the chart origin")
        if not (math.isfinite(w.real) and math.isfinite(w.imag)) or abs(w) > _BLOWUP_MAGNITUDE:
            raise PointOnLoop("image path escapes the chart (source hits a pole)")
        return w

    def certified(za, zb, wa, wb):
        disk = enclose((0.5 * (za + zb), 0.5625 * abs(zb - za), False))
        if disk is None or disk[2]:
            return False
        c, r, _ = disk
        return abs(c) > r and abs(wa - c) <= r and abs(wb - c) <= r

    return reference_bisect_path(verts, evaluate, certified, tol,
                                 SamplingFailure("edge cannot be refined further"))


def _reference_phase_step(w0, w1):
    if w1 == w0:
        return 0.0
    try:
        return math.remainder(cmath.phase(w1) - cmath.phase(w0), TAU)
    except OverflowError:
        return math.remainder(math.atan2(w1.imag, w1.real) - math.atan2(w0.imag, w0.real), TAU)


def reference_path_turns(points, centre=0j):
    if centre:
        points = [w - centre for w in points]
    total = 0.0
    for w0, w1 in zip(points, points[1:]):
        total += _reference_phase_step(w0, w1)
    return total


# ---------------------------------------------------------------------------
# comparing outcomes bit for bit


def _outcome(call, *args):
    """A call's outcome, and its result or exception.  The outcome is the
    result's repr (exact for floats, signed zeros and NaN included), or the
    exception's class and message."""
    try:
        result = call(*args)
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        return (type(exc), str(exc)), exc
    return ("ok", repr(result)), result


def _assert_same(call, reference, *args):
    """Both calls' outcome, required equal; returns the library's outcome."""
    (got, _), (expect, _) = _outcome(call, *args), _outcome(reference, *args)
    assert got == expect, args
    return got


# ---------------------------------------------------------------------------
# profiles at, just inside and beyond each breakpoint


_values = st.one_of(st.sampled_from((0.0, -0.0, 0.5, 1.0, -1.0)),
                    st.floats(-5, 5, allow_nan=False))


@st.composite
def _profiles(draw):
    n = draw(st.integers(1, 5))
    radii = sorted(draw(st.lists(st.floats(0.0, 8.0), min_size=n, max_size=n, unique=True)))
    values = draw(st.lists(_values, min_size=n, max_size=n))
    return RadialProfile(tuple(zip(radii, values)))


def _probes(profile: RadialProfile):
    radii = [r for r, _ in profile.breakpoints]
    for r in radii:
        yield from (r, math.nextafter(r, -math.inf), math.nextafter(r, math.inf),
                    r - 1e-3, r + 1e-3, r - 1.0, r + 1.0)
    for r0, r1 in zip(radii, radii[1:]):
        yield from (0.5 * (r0 + r1), r0 + 0.25 * (r1 - r0), r1 - 0.25 * (r1 - r0))
    yield from (0.0, -0.0, math.inf, math.nan)


@given(_profiles())
@settings(max_examples=200, deadline=None)
def test_profile_value_matches_the_linear_scan(profile):
    point, reference_point = maps._twist_step(profile), reference_twist_step(profile)
    for r in _probes(profile):
        _assert_same(profile.value, lambda r: reference_value(profile, r), r)
        if math.isfinite(r) and r > 0.0:
            # |z| is exactly r on the axes, so the twist sees the probe itself
            for z in (complex(r, 0.0), complex(0.0, -r)):
                _assert_same(point, reference_point, z)


@given(_profiles(), st.lists(st.floats(-1.0, 9.0), max_size=5))
@settings(max_examples=300, deadline=None)
def test_locally_constant_value_matches_the_linear_scan(profile, extra):
    for r in (*_probes(profile), *extra):
        _assert_same(profile.locally_constant_value,
                     lambda r: reference_locally_constant_value(profile, r), r)


@given(_profiles(), st.complex_numbers(max_magnitude=12, allow_nan=False, allow_infinity=False),
       st.floats(1e-12, 12.0), st.booleans())
@settings(max_examples=200, deadline=None)
def test_twist_enclosure_matches_the_reference(profile, c, r, outside):
    step, reference = maps._twist_disk(profile), reference_twist_disk(profile)
    # a random centre, and centres on and about each breakpoint radius
    for centre in (c, *(complex(p, 0.0) for p in _probes(profile) if math.isfinite(p))):
        _assert_same(step, reference, (centre, r, outside))


# ---------------------------------------------------------------------------
# every enclosure of the map family


@functools.cache
def _compiled_specs():
    return [(compile_map(spec), reference_compile_map(spec)) for spec in _ALL_SPECS]


@given(st.complex_numbers(max_magnitude=30, allow_nan=False, allow_infinity=False),
       st.floats(1e-9, 30.0), st.booleans())
@settings(max_examples=60, deadline=None)
def test_every_enclosure_of_the_family_matches_the_reference(c, r, outside):
    for compiled, reference in _compiled_specs():
        _assert_same(compiled.enclose, reference.enclose, (c, r, outside))
        _assert_same(compiled, reference, c)


def test_compiled_chain_at_infinity_and_on_an_unknown_disk():
    for compiled, reference in _compiled_specs():
        _assert_same(compiled, reference, None)
        _assert_same(compiled.enclose, reference.enclose, None)
        _assert_same(compiled, reference, complex(math.inf, 0.0))


# ---------------------------------------------------------------------------
# refined image paths and their turning: every catalog value and blow-up


_REFINED = RfEvaluator._refined


class _Recorder:
    """Wraps invariant's view builders (RfEvaluator._refined for a tuple's
    value, compile_map for a blow-up) and invariant's refiners: each
    refinement also runs through the reference view of the spec and chart
    last built, and both must agree, on the image path and on its turning.
    A tuple the evaluator reads in its twist's chart is refined through the
    twist alone by refine_twist_view: its reference is refine_path_view
    through the reference twist, with the tuple's punctures, and its paths
    are recorded in ``twisted``."""

    def __init__(self):
        self.source = None
        self.paths = []
        self.twisted = []

    def refined(self, ev, t, beta=None, variant=0, jitter=0j):
        # the spec and tuple _refined refines: precharted without a beta
        spec, moved = (ev.spec, t) if beta is not None else _prechart(ev.spec, t)
        self.source = (spec, mobius_normalize(moved.x1, moved.x2))
        if beta is None and ev._in_twist_chart(t) is not None:
            # the twist in its own chart H
            self.source = (RadialTwist(ev._chart(ev.spec)[0][1]), None)
        return _REFINED(ev, t, beta, variant, jitter)

    def compile_map(self, spec, then=None):
        self.source = (spec, then)
        return compile_map(spec, then)

    def refine_twist_view(self, vertices, view, tol, punctures):
        spec, then = self.source
        self.twisted.append(list(vertices))
        got, out = _outcome(refine_twist_view, vertices, view, tol, punctures)
        expect, _ = _outcome(refine_path_view, vertices, reference_compile_map(spec, then), tol,
                             punctures)
        if isinstance(out, Exception):
            assert got == expect, (spec, vertices)
            raise out
        assert ("ok", repr(out[0])) == expect, (spec, vertices)
        return out

    def refine_path_view(self, vertices, view, tol=DEFAULT_TOL, punctures=(0j, None)):
        spec, then = self.source
        self.paths.append(list(vertices))
        got, out = _outcome(refine_path_view, vertices, view, tol)
        expect, _ = _outcome(reference_refine_path_view, vertices,
                             reference_compile_map(spec, then), tol)
        assert got == expect, (spec, then, vertices)
        if isinstance(out, Exception):
            raise out
        _assert_same(path_turns, reference_path_turns, out)
        return out


@pytest.fixture
def recorder(monkeypatch):
    rec = _Recorder()
    monkeypatch.setattr(invariant.RfEvaluator, "_refined",
                        lambda ev, *args, **kwargs: rec.refined(ev, *args, **kwargs))
    monkeypatch.setattr(invariant, "compile_map", rec.compile_map)
    monkeypatch.setattr(invariant, "refine_path_view", rec.refine_path_view)
    monkeypatch.setattr(invariant, "refine_twist_view", rec.refine_twist_view)
    return rec


def test_every_catalog_value_refines_as_the_reference(recorder):
    twisted = 0
    for sc in _SCENARIOS:
        for t in _default_tuples(sc):
            recorder.paths.clear()
            recorder.twisted.clear()
            try:
                value = RfEvaluator(sc.map_spec, sc.tolerances, sc.seed).value(*t.points)
            except (InconclusiveComputation, GeometryFailure) as exc:
                value = type(exc)
            if recorder.twisted:
                # read in its twist's chart: its pieces, compared above,
                # differ from the chain's, so the value is compared with
                # the chain reading's
                assert not recorder.paths
                assert value == chart_outcome(
                    ReferenceEvaluator(sc.map_spec, sc.tolerances, sc.seed), t.points)
                twisted += 1
                continue
            assert recorder.paths
            # the source path's own turning about the tuple's first two points
            for path in recorder.paths:
                for p in (t.x1, t.x2):
                    if not p.is_infinity:
                        _assert_same(path_turns, reference_path_turns, path, p.value)
    assert twisted > 0


@pytest.mark.parametrize("n_iters", (250, 4000))
def test_blowup_sweep_rotations_refine_as_the_reference(recorder, n_iters):
    # a rotation reduces, and its blow-up refines nothing, off its axis
    # too; composed with a twist about 10 it does not reduce, and its
    # blow-up refines the map once, whatever n_iters, piece for piece as
    # the reference
    away = MobiusConjugate(MobiusTransform(1, -10, 0, 1),
                           RadialTwist(RadialProfile(((0.5, -0.375), (1.0, 0.0)))))
    for alpha in (0.125, 0.625, 0.875):
        spec = RadialTwist(RadialProfile(((1.0, alpha), (2.0, 0.0))))
        for x2 in (3 + 0j, -5j):
            for f in (spec, Compose((spec, away))):
                est = rf_blowup(f, SpherePoint(0j), SpherePoint(x2), SpherePoint(4 + 1j), n_iters,
                                extrapolate=True)
                assert est.value == -alpha
    assert len(recorder.paths) == 6


# ---------------------------------------------------------------------------
# the failures of refine_path_view, and its bisection piece for piece


class _View:
    def __init__(self, f, enclose=lambda disk: disk):
        self.f = f
        self.enclose = enclose

    def __call__(self, z):
        return self.f(z)


def _both_refine(view, vertices, tol=DEFAULT_TOL):
    return _assert_same(refine_path_view, reference_refine_path_view, vertices, view, tol)


@pytest.mark.parametrize("f, message", [
    (lambda z: None if z == 0.5 else z + 2.0, "chart pole"),
    (lambda z: z - 0.5, "chart origin"),
    (lambda z: 0, "chart origin"),
    (lambda z: (z + 1.0) * 1e101, "escapes the chart"),
    (lambda z: complex(math.inf, 0.0) if z == 0.5 else z + 2.0, "escapes the chart"),
    (lambda z: complex(math.nan, 1.0) if z == 0.5 else z + 2.0, "escapes the chart"),
    (lambda z: complex(1.0, -math.inf) if z == 0.5 else z + 2.0, "escapes the chart"),
])
def test_refine_failures_match_the_reference(f, message):
    # the identity enclosure never certifies [0, 1]: its disk holds 0, so
    # the midpoint 0.5 is evaluated
    kind, text = _both_refine(_View(f), [0j, 1 + 0j])
    assert kind is PointOnLoop and message in text


def test_refine_budget_stuck_overflow_and_real_images_match_the_reference():
    never = _View(lambda z: z + 2.0, lambda disk: None)
    assert _both_refine(never, [0j, 1 + 0j])[0] is SamplingFailure
    outside = _View(lambda z: z + 2.0, lambda disk: (disk[0], disk[1], True))
    assert _both_refine(outside, [0j, 1 + 0j])[0] is SamplingFailure
    # |w| of a finite w too large for a float
    huge = _View(lambda z: complex(1.5e308, 1.5e308) if z == 0.5 else z + 2.0)
    assert _both_refine(huge, [0j, 1 + 0j])[0] is OverflowError
    profile = RadialProfile(((1.0, 0.0), (2.0, 3.0)))
    spin = maps.CompiledMap([(maps._twist_step(profile), maps._twist_disk(profile))])
    assert _both_refine(spin, [1 + 0j, 2 + 0j], Tolerances(max_refine_points=5))[0] is BudgetExhausted
    assert _both_refine(spin, [1 + 0j, 2 + 0j, 2 + 1j])[0] == "ok"
    # a view of real numbers: the images are still complex
    real = _View(lambda z: 2 + int(z.real > 0.5), lambda disk: (2.5 + 0j, 1.2, False))
    assert _both_refine(real, [0j, 1 + 0j]) == ("ok", repr([2 + 0j, 3 + 0j]))
    assert _both_refine(spin, [1j])[0] is ValueError


@given(st.lists(st.complex_numbers(max_magnitude=4, allow_nan=False, allow_infinity=False),
                min_size=2, max_size=6),
       st.floats(0.05, 2.0))
@settings(max_examples=100, deadline=None)
def test_bisection_driver_matches_the_reference_call_for_call(vertices, width):
    def run(refine):
        calls = []

        def evaluate(z):
            calls.append(("evaluate", z))
            return z * z + 20

        def enclose(disk):
            calls.append(("enclose", disk))
            c, r, _ = disk
            # a rule that depends on where the piece sits, so pieces split
            # unevenly; an accepted disk holds the image of the source disk
            if r / 0.5625 * (1.0 + abs(c)) > width:
                return None
            return c * c + 20, r * (2 * abs(c) + r), False

        outcome, _ = _outcome(refine, vertices, _View(evaluate, enclose), DEFAULT_TOL)
        return outcome, calls

    assert run(refine_path_view) == run(reference_refine_path_view)


# ---------------------------------------------------------------------------
# turning sums


_points = st.one_of(
    st.complex_numbers(max_magnitude=10, allow_nan=False, allow_infinity=False),
    st.sampled_from((1e-300 + 0j, 1e-300j, -1e300 + 1e-300j, 1e300 - 1j, -1 + 0j,
                     complex(-1.0, -0.0), 1 + 0j, complex(1.0, -0.0), 5e-324 + 1j)),
)


@given(st.lists(_points, max_size=12), st.one_of(st.just(0j), _points))
@settings(max_examples=200, deadline=None)
def test_path_turns_matches_the_reference(points, centre):
    # repeated points and each point twice in a row
    for seq in (points, [w for w in points for _ in (0, 1)]):
        _assert_same(path_turns, reference_path_turns, seq, centre)
        _assert_same(path_turns, reference_path_turns, tuple(seq))
