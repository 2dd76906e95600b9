"""Map specs: radial profiles, evaluation, iteration, local rotation data."""

import cmath
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rotquad import (
    Compose,
    Identity,
    INFINITY,
    Inverse,
    MobiusConjugate,
    MobiusTransform,
    NotFixed,
    Power,
    RadialProfile,
    RadialTwist,
    RfEvaluator,
    SpherePoint,
    as_sphere_point,
    differential_rotation,
    eval_map,
    fixed_points,
    invert_spec,
    iterate_spec,
    rf_double_blowup,
    rigid_rotation_angle,
)
from rotquad.catalog import (
    double_blowup_spec,
    golden_twist_spec,
    identity_scenarios,
    quarter_turn_blowup_spec,
    scenario_by_name,
)
from rotquad.geometry import MOBIUS_IDENTITY
from rotquad.maps import _commuting_twists, compile_map, fixed_residual, twist_chart

RAMP = RadialProfile(((1.0, 0.0), (2.0, 1.0)))


# ---------------------------------------------------------------------------
# radial profiles


def test_profile_validation():
    with pytest.raises(ValueError):
        RadialProfile(())
    with pytest.raises(ValueError):
        RadialProfile(((2.0, 0.0), (1.0, 1.0)))  # radii must increase
    with pytest.raises(ValueError):
        RadialProfile(((1.0, 0.0), (1.0, 1.0)))  # strictly
    with pytest.raises(ValueError):
        RadialProfile(((-1.0, 0.0), (1.0, 1.0)))  # radii must be nonnegative
    RadialProfile(((0.0, 0.5), (1.0, 1.0)))  # zero radius is allowed


def test_profile_plateaus_are_exact():
    p = RadialProfile(((1.0, 0.25), (2.0, 0.75)))
    assert p.value(0.0) == 0.25
    assert p.value(0.5) == 0.25
    assert p.value(1.0) == 0.25
    assert p.value(2.0) == 0.75
    assert p.value(100.0) == 0.75
    assert p.value_at_zero == 0.25
    assert p.value_at_infinity == 0.75
    assert p.value(1.5) == pytest.approx(0.5)


def test_profile_locally_constant_value():
    p = RadialProfile(((1.0, 0.25), (2.0, 0.75)))
    assert p.locally_constant_value(0.5) == 0.25
    assert p.locally_constant_value(3.0) == 0.75
    assert p.locally_constant_value(1.5) is None  # on the ramp
    assert p.locally_constant_value(1.0) is None  # ramp endpoint
    flat = RadialProfile(((1.0, 0.5),))
    assert flat.locally_constant_value(1.0) == 0.5


def test_profile_arithmetic():
    p = RadialProfile(((1.0, 0.25), (2.0, 0.75)))
    assert p.scaled(2).value(0.0) == 0.5
    assert p.negated().value(3.0) == -0.75
    q = p.added(RadialProfile(((1.5, 1.0),)))
    assert q.value(0.0) == pytest.approx(1.25)
    assert q.value(10.0) == pytest.approx(1.75)
    assert q.value(1.5) == pytest.approx(1.5)
    assert p.total_variation() == pytest.approx(0.5)
    assert p.scaled(-3).total_variation() == pytest.approx(1.5)


# ---------------------------------------------------------------------------
# evaluation


def test_twist_preserves_modulus_and_axis():
    f = RadialTwist(RadialProfile(((1.0, 0.3), (2.0, 1.7))))
    for z in (0.5 + 0.1j, 1.3 - 0.4j, 5j):
        w = eval_map(f, SpherePoint(z))
        assert abs(abs(w.value) - abs(z)) < 1e-12
    assert eval_map(f, SpherePoint(0j)) == SpherePoint(0j)
    assert eval_map(f, INFINITY).is_infinity


def test_twist_integer_circles_fixed_exactly():
    # rho is 0 inside radius 1 and 1 beyond radius 2: both zones are
    # pointwise fixed, bit for bit
    f = RadialTwist(RAMP)
    for z in (0.25 + 0.25j, 3 + 4j, 0.9j):
        assert eval_map(f, SpherePoint(z)).value == z


def test_conjugate_evaluation():
    h = MobiusTransform(1, -1.5, 0, 1)  # z - 1.5
    inner = RadialTwist(RadialProfile(((1.0, 0.25),)))
    f = MobiusConjugate(h, inner)
    z = 1.5 + 0.5j
    # h^-1 ( inner ( h(z) ) )
    expect = (0.5j * cmath.exp(1j * math.tau * 0.25)) + 1.5
    assert abs(eval_map(f, SpherePoint(z)).value - expect) < 1e-12


def test_compose_applies_rightmost_first():
    a = RadialTwist(RadialProfile(((1.0, 0.25),)))
    h = MobiusTransform(1, 1, 0, 1)  # z + 1
    b = MobiusConjugate(h, RadialTwist(RadialProfile(((1.0, 0.5),))))
    z = SpherePoint(0.4 + 0.2j)
    manual = eval_map(a, eval_map(b, z))
    assert abs(eval_map(Compose((a, b)), z).value - manual.value) < 1e-12


def test_power_is_iterated_evaluation():
    f = RadialTwist(RadialProfile(((1.0, 0.1), (3.0, 0.7))))
    z = SpherePoint(1.7 + 0.3j)
    thrice = eval_map(f, eval_map(f, eval_map(f, z)))
    assert abs(eval_map(Power(3, f), z).value - thrice.value) < 1e-12
    w = eval_map(Power(-2, f), z)
    back = eval_map(Power(2, f), w)
    assert abs(back.value - z.value) < 1e-9


def test_inverse_round_trip_depth_three():
    h = MobiusTransform(2, 1j, 0, 1)
    specs = [
        golden_twist_spec(2),
        MobiusConjugate(h, golden_twist_spec(-1)),
        Compose((golden_twist_spec(1), MobiusConjugate(h, golden_twist_spec(2)))),
        Power(2, golden_twist_spec(-2)),
        Inverse(Compose((golden_twist_spec(3), golden_twist_spec(-1)))),
    ]
    pts = (0.5 + 0.2j, 1.5 - 0.7j, 3 + 1j)
    for spec in specs:
        for z in pts:
            w = eval_map(spec, SpherePoint(z))
            back = eval_map(Inverse(spec), w)
            assert abs(back.value - z) < 1e-9
            # structural inversion agrees with the Inverse node
            back2 = eval_map(invert_spec(spec), w)
            assert abs(back2.value - z) < 1e-9


# ---------------------------------------------------------------------------
# iteration and budgets


def test_iterate_twist_scales_profile():
    f = golden_twist_spec(2)
    assert twist_chart(iterate_spec(f, 3)) == (MOBIUS_IDENTITY, f.profile.scaled(3))
    assert twist_chart(iterate_spec(f, -2)) == (MOBIUS_IDENTITY, f.profile.scaled(-2))
    assert iterate_spec(f, 1) is f
    assert isinstance(iterate_spec(f, 0), Identity)


def test_power_exponent_is_exact_as_a_float():
    f = golden_twist_spec(1)
    for q in (2**53, -2**53, 10**400):
        with pytest.raises(ValueError):
            Power(q, f)
    assert Power(2**53 - 1, f).q == 2**53 - 1


def test_powers_by_one_and_minus_one_are_maps():
    # the smallest exponents: f itself and its inverse, read on the first
    # four points of twist-by-2 in sorted-name order
    sc = scenario_by_name("twist-by-2")
    t = [sc.points[k] for k in sorted(sc.points)][:4]
    f = sc.map_spec
    values = [RfEvaluator(spec, sc.tolerances, sc.seed).value(*t)
              for spec in (f, Power(1, f), Power(-1, f))]
    assert values == [2, 2, -2]


def test_iterate_matches_pointwise_power():
    spec = Compose((golden_twist_spec(1), RadialTwist(RadialProfile(((4.0, 0.0), (5.0, 1.0))))))
    g = iterate_spec(spec, 2)
    for z in (0.3 + 0.1j, 2.5j, 4.5 + 0.2j):
        direct = eval_map(spec, eval_map(spec, SpherePoint(z)))
        assert abs(eval_map(g, SpherePoint(z)).value - direct.value) < 1e-12


# ---------------------------------------------------------------------------
# fixed points


def test_fixed_residual():
    f = golden_twist_spec(1)
    assert fixed_residual(f, SpherePoint(0j)) == 0.0
    assert fixed_residual(f, INFINITY) == 0.0
    assert fixed_residual(f, SpherePoint(1.5 + 0j)) > 1e-3


def test_fixed_points_includes_marks_and_axis():
    f = golden_twist_spec(2)
    fixed = fixed_points(f)
    assert SpherePoint(0j) in fixed
    assert INFINITY in fixed
    for m in f.marks:
        assert as_sphere_point(m) in fixed


def test_fixed_points_rejects_bogus_declaration():
    f = golden_twist_spec(1)  # rho(1.5) = 0.5, genuinely moved
    with pytest.raises(NotFixed):
        fixed_points(f, extra=(SpherePoint(1.5 + 0j),))
    # declared marks are checked before node marks; the first moved one is named
    bogus = RadialTwist(f.profile, marks=(1.25 + 0j,))
    with pytest.raises(NotFixed) as err:
        fixed_points(bogus, extra=(SpherePoint(1.5 + 0j),))
    assert err.value.point == SpherePoint(1.5 + 0j)
    assert err.value.residual == fixed_residual(bogus, SpherePoint(1.5 + 0j))
    with pytest.raises(NotFixed) as err:
        fixed_points(bogus)
    assert err.value.point == SpherePoint(1.25 + 0j)


# ---------------------------------------------------------------------------
# local rotation data


def test_differential_rotation_at_axis():
    assert differential_rotation(quarter_turn_blowup_spec(), 0j) == pytest.approx(0.25)
    assert differential_rotation(golden_twist_spec(2), 0j) == pytest.approx(0.0)
    assert differential_rotation(double_blowup_spec(), INFINITY) == pytest.approx(0.0)


def test_differential_rotation_reduces_mod_one():
    # three quarter turns at the origin of the tripled quarter twist
    f = iterate_spec(quarter_turn_blowup_spec(), 3)
    assert differential_rotation(f, 0j) == pytest.approx(0.75)
    # a full turn reduces to zero
    g = iterate_spec(quarter_turn_blowup_spec(), 4)
    assert differential_rotation(g, 0j) == pytest.approx(0.0)


def test_differential_rotation_conjugation_invariant():
    h = MobiusTransform(1, -2, 0, 1)  # z - 2, moves the axis to 2
    f = MobiusConjugate(h, quarter_turn_blowup_spec())
    assert differential_rotation(f, 2 + 0j) == pytest.approx(0.25)


def test_fd_jacobian_is_orientation_preserving():
    # finite-difference Jacobian determinant must be positive everywhere
    # we can probe; this is the orientation contract of the whole family
    def fd_det(spec, z, h=1e-6):
        def f(w):
            return eval_map(spec, SpherePoint(w)).value

        du = (f(z + h) - f(z - h)) / (2 * h)
        dv = (f(z + 1j * h) - f(z - 1j * h)) / (2 * h)
        return du.real * dv.imag - du.imag * dv.real

    hmob = MobiusTransform(1, -0.5j, 0, 1)
    specs = (
        golden_twist_spec(2),
        quarter_turn_blowup_spec(),
        MobiusConjugate(hmob, golden_twist_spec(-1)),
        Compose((golden_twist_spec(1), golden_twist_spec(-2))),
    )
    for spec in specs:
        for z in (0.5 + 0.1j, 1.4 - 0.6j, 2.5 + 2j):
            assert fd_det(spec, z) > 0.0


def test_rigid_rotation_angle_is_unreduced():
    # the double blow-up needs the true angle, not its value mod 1
    f = double_blowup_spec()
    assert rigid_rotation_angle(f, 0j) == pytest.approx(0.25)
    assert rigid_rotation_angle(f, INFINITY) == pytest.approx(1.0)
    g = iterate_spec(f, 2)
    assert rigid_rotation_angle(g, INFINITY) == pytest.approx(2.0)


def test_walked_germ_of_a_conjugate_that_swaps_the_point_with_infinity():
    # the composition of two twists with different axes does not reduce, so
    # the germ at infinity is walked through the conjugation by 1/z, which
    # sends infinity to 0: the angle read at 0 flips sign once, as for the
    # reducible conjugate of the first part alone
    invert = MobiusTransform(0, 1, 1, 0)
    a = RadialTwist(RadialProfile(((1, 0.125), (2, 0))))
    b = MobiusConjugate(MobiusTransform(1, -10, 0, 1),
                        RadialTwist(RadialProfile(((1, 0.5), (2, 0)))))
    spec = MobiusConjugate(invert, Compose((a, b)))
    assert twist_chart(spec) is None
    assert rigid_rotation_angle(MobiusConjugate(invert, a), INFINITY) == -0.125
    assert rigid_rotation_angle(spec, INFINITY) == -0.125
    assert rf_double_blowup(spec, 0j, INFINITY) == -0.125


def test_rigid_rotation_angle_none_on_ramp_germ():
    # rho is not locally constant at |z| = 1.5, so the germ on that fixed
    # circle is a genuine twist, not a rigid rotation
    f = RadialTwist(RadialProfile(((1.0, 0.0), (2.0, 2.0))), marks=(1.5 + 0j,))
    assert rigid_rotation_angle(f, 1.5 + 0j) is None


# ---------------------------------------------------------------------------
# property checks


@st.composite
def _profiles(draw):
    n = draw(st.integers(1, 4))
    radii = sorted(draw(st.lists(st.floats(0.2, 8.0), min_size=n, max_size=n, unique=True)))
    vals = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
    return RadialProfile(tuple((r, float(v)) for r, v in zip(radii, vals)))


@given(_profiles(), st.complex_numbers(min_magnitude=1e-3, max_magnitude=20,
                                       allow_nan=False, allow_infinity=False))
@settings(max_examples=80, deadline=None)
def test_twist_is_modulus_preserving_bijection_on_circles(profile, z):
    w = eval_map(RadialTwist(profile), SpherePoint(z)).value
    assert abs(abs(w) - abs(z)) < 1e-9 * max(1.0, abs(z))
    assert w != 0


# ---------------------------------------------------------------------------
# compiled evaluation is bit-identical to the reduced walk, and near the
# literal one


def _reference_mobius(h, p: SpherePoint) -> SpherePoint:
    """z -> (a z + b) / (c z + d) on SpherePoints, written out here so the
    reference does not share the library's Mobius step."""
    if p.is_infinity:
        return INFINITY if h.c == 0 else SpherePoint(h.a / h.c)
    den = h.c * p.value + h.d
    if den == 0:
        return INFINITY
    return SpherePoint((h.a * p.value + h.b) / den)


def _reference_rho(profile, r: float) -> float:
    """rho(r) by a linear scan over the breakpoints, written out here so the
    reference does not share the library's profile lookup."""
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


def _reference_twist(profile, p: SpherePoint) -> SpherePoint:
    if p.is_infinity or p.value == 0:
        return p
    ang = _reference_rho(profile, abs(p.value)) % 1.0
    if ang == 0.0:
        return p
    return SpherePoint(p.value * cmath.exp(1j * math.tau * ang))


def _literal_eval(spec, p: SpherePoint) -> SpherePoint:
    """The definition of each node, walked recursively on SpherePoints."""
    if isinstance(spec, Identity):
        return p
    if isinstance(spec, RadialTwist):
        return _reference_twist(spec.profile, p)
    if isinstance(spec, MobiusConjugate):
        inner = _literal_eval(spec.inner, _reference_mobius(spec.h, p))
        return _reference_mobius(spec.h.inverse(), inner)
    if isinstance(spec, Compose):
        for part in reversed(spec.parts):
            p = _literal_eval(part, p)
        return p
    if isinstance(spec, Inverse):
        return _literal_eval(invert_spec(spec.inner), p)
    if isinstance(spec, Power):
        base = spec.inner if spec.q > 0 else invert_spec(spec.inner)
        for _ in range(abs(spec.q)):
            p = _literal_eval(base, p)
        return p
    raise TypeError(spec)


def _reference_eval(spec, p: SpherePoint) -> SpherePoint:
    """The literal walk, but a power of the identity is the identity, a
    power of a conjugate the conjugate of the power, a nested power or
    inverse one power with the product exponent, a subtree that twist_chart
    reduces is taken in its reduced form (chart, one twist, chart back), and
    a power of commuting twists as the composition of their powers."""
    if isinstance(spec, Power):
        inner = spec.inner
        if isinstance(inner, Identity):
            return p
        if isinstance(inner, MobiusConjugate):
            return _reference_eval(MobiusConjugate(inner.h, Power(spec.q, inner.inner)), p)
        if isinstance(inner, Inverse):
            return _reference_eval(Power(-spec.q, inner.inner), p)
        if isinstance(inner, Power):
            return _reference_eval(Power(spec.q * inner.q, inner.inner), p)
    if isinstance(spec, Identity):
        return p
    reduced = twist_chart(spec)
    if reduced is not None:
        h, profile = reduced
        if h == MOBIUS_IDENTITY:
            return _reference_twist(profile, p)
        twisted = _reference_twist(profile, _reference_mobius(h, p))
        return _reference_mobius(h.inverse(), twisted)
    if isinstance(spec, MobiusConjugate):
        inner = _reference_eval(spec.inner, _reference_mobius(spec.h, p))
        return _reference_mobius(spec.h.inverse(), inner)
    if isinstance(spec, Compose):
        for part in reversed(spec.parts):
            p = _reference_eval(part, p)
        return p
    if isinstance(spec, Inverse):
        return _reference_eval(invert_spec(spec.inner), p)
    if isinstance(spec, Power):
        base = spec.inner if spec.q > 0 else invert_spec(spec.inner)
        if _commuting_twists(base):
            powers = tuple(Power(abs(spec.q), part) for part in base.parts)
            return _reference_eval(Compose(powers), p)
        for _ in range(abs(spec.q)):
            p = _reference_eval(base, p)
        return p
    raise TypeError(spec)


def _wrapped(spec):
    return (spec, Inverse(spec), Power(-2, spec), Power(3, spec))


_CATALOG_SPECS = tuple(sc.map_spec for sc in identity_scenarios())
# the literal walk of a millionth power would take a million passes per point
_LITERAL_SPECS = tuple(w for spec in _CATALOG_SPECS for w in _wrapped(spec))
_ALL_SPECS = _LITERAL_SPECS + tuple(
    Power(10**6, spec) for spec in _CATALOG_SPECS
    if twist_chart(spec) is not None or _commuting_twists(spec)) + (
    # a conjugate of commuting twists: the power moves inside, one pass
    Power(10**6, scenario_by_name("compose-disjoint-rotated").map_spec),)


def _conjugate_poles(spec):
    """Points sent to infinity by the chart of some Mobius node, or by the
    one chart a subtree reduces to."""
    charts = [spec.h] if isinstance(spec, MobiusConjugate) else []
    reduced = twist_chart(spec)
    if reduced is not None:
        charts.append(reduced[0])
    for h in charts:
        if h.c != 0:
            yield -h.d / h.c
    if isinstance(spec, MobiusConjugate):
        yield from _conjugate_poles(spec.inner)
    elif isinstance(spec, (Inverse, Power)):
        yield from _conjugate_poles(spec.inner)
    elif isinstance(spec, Compose):
        for part in spec.parts:
            yield from _conjugate_poles(part)


def _assert_same_image(spec, p: SpherePoint):
    try:
        expect = _reference_eval(spec, p)
    except ValueError:
        with pytest.raises(ValueError):
            eval_map(spec, p)
        return
    got = eval_map(spec, p)
    assert got == expect
    direct = compile_map(spec)(p.z)
    assert (direct is None) if expect.is_infinity else direct == expect.value


@given(st.complex_numbers(max_magnitude=50, allow_nan=False, allow_infinity=False))
@settings(max_examples=60, deadline=None)
def test_compiled_evaluation_is_bit_identical(z):
    p = SpherePoint(z)
    for spec in _ALL_SPECS:
        _assert_same_image(spec, p)


def test_compiled_evaluation_at_zero_infinity_and_poles():
    for spec in _ALL_SPECS:
        for p in (SpherePoint(0j), INFINITY, *map(SpherePoint, _conjugate_poles(spec))):
            _assert_same_image(spec, p)


def _chordal(p: SpherePoint, q: SpherePoint) -> float:
    """The chordal distance of two points of the Riemann sphere (2 between
    antipodes)."""
    if p.is_infinity and q.is_infinity:
        return 0.0
    if p.is_infinity or q.is_infinity:
        return 2.0 / math.hypot(1.0, abs((q if p.is_infinity else p).value))
    z, w = p.value, q.value
    return 2.0 * abs(z - w) / (math.hypot(1.0, abs(z)) * math.hypot(1.0, abs(w)))


def _assert_near_the_literal_walk(spec, p: SpherePoint):
    try:
        expect = _literal_eval(spec, p)
    except ValueError:
        return  # the literal walk overflows where the reduced one need not
    assert _chordal(eval_map(spec, p), expect) <= 1e-12, (spec, p)


@given(st.complex_numbers(max_magnitude=50, allow_nan=False, allow_infinity=False))
@settings(max_examples=60, deadline=None)
def test_compiled_images_stay_near_the_literal_walk(z):
    for spec in _LITERAL_SPECS:
        _assert_near_the_literal_walk(spec, SpherePoint(z))


def test_compiled_images_near_the_literal_walk_at_zero_infinity_and_poles():
    for spec in _LITERAL_SPECS:
        for p in (SpherePoint(0j), INFINITY, *map(SpherePoint, _conjugate_poles(spec))):
            _assert_near_the_literal_walk(spec, p)


def test_coaxial_twists_reduce_when_their_charts_differ_by_a_scaling():
    quarter = RadialTwist(RadialProfile(((1, 0.25), (2, 0))))
    eighth = RadialTwist(RadialProfile(((1, 0.125), (1.5, 0))))
    # z -> 2z fixes 0 and infinity: in the first chart the second twist is
    # r -> rho(2 r)
    scaled = Compose((quarter, MobiusConjugate(MobiusTransform(2, 0, 0, 1), eighth)))
    assert twist_chart(scaled) == (MOBIUS_IDENTITY, RadialProfile(
        ((0.5, 0.375), (0.75, 0.25), (1, 0.25), (2, 0))))
    # one map, compared as a projective map
    same = Compose((MobiusConjugate(MobiusTransform(2, 0, 0, 1), quarter),
                    MobiusConjugate(MobiusTransform(4, 0, 0, 2), eighth)))
    assert twist_chart(same) == (MobiusTransform(2, 0, 0, 1), quarter.profile.added(eighth.profile))
    # a chart change that moves the axis does not reduce
    moved = Compose((quarter, MobiusConjugate(MobiusTransform(2, -1, 0, 1), eighth)))
    assert twist_chart(moved) is None
    for spec in (scaled, same, Power(-2, scaled)):
        for z in (0j, 0.3 + 0.1j, 0.6j, -0.7 + 0.2j, 1.2 - 0.4j, 1.7j, 2.5 + 0j):
            _assert_near_the_literal_walk(spec, SpherePoint(z))
        _assert_near_the_literal_walk(spec, INFINITY)


def test_compiled_evaluation_rejects_overflow():
    # |h(z)| overflows the float range, as a SpherePoint would refuse to hold
    spec = MobiusConjugate(MobiusTransform(1e300, 0, 0, 1), golden_twist_spec(1))
    with pytest.raises(ValueError):
        _reference_eval(spec, SpherePoint(1e10 + 0j))
    with pytest.raises(ValueError):
        eval_map(spec, SpherePoint(1e10 + 0j))
    with pytest.raises(ValueError):
        compile_map(spec)(1e10 + 0j)
    with pytest.raises(ValueError):
        compile_map(golden_twist_spec(1))(complex(math.inf, 0.0))


def test_compile_with_a_chart_change_applies_it_last():
    h = MobiusTransform(1, -0.5, 1, -3)
    spec = golden_twist_spec(2)
    for z in (0.7 + 0.2j, 1.5 - 0.5j, 3 + 0j):
        expect = _reference_mobius(h, eval_map(spec, SpherePoint(z)))
        got = compile_map(spec, then=h)(z)
        assert (got is None) if expect.is_infinity else got == expect.value
