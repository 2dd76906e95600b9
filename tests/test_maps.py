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
    SpherePoint,
    as_sphere_point,
    differential_rotation,
    eval_map,
    fixed_points,
    invert_spec,
    iterate_spec,
    rigid_rotation_angle,
)
from rotquad.catalog import (
    double_blowup_spec,
    golden_twist_spec,
    identity_scenarios,
    quarter_turn_blowup_spec,
)
from rotquad.maps import compile_map, fixed_residual, twist_budget

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
    g = iterate_spec(f, 3)
    assert isinstance(g, RadialTwist)
    assert g.profile == f.profile.scaled(3)
    assert iterate_spec(f, -2).profile == f.profile.scaled(-2)
    assert isinstance(iterate_spec(f, 0), Identity)


def test_iterate_matches_pointwise_power():
    spec = Compose((golden_twist_spec(1), RadialTwist(RadialProfile(((4.0, 0.0), (5.0, 1.0))))))
    g = iterate_spec(spec, 2)
    for z in (0.3 + 0.1j, 2.5j, 4.5 + 0.2j):
        direct = eval_map(spec, eval_map(spec, SpherePoint(z)))
        assert abs(eval_map(g, SpherePoint(z)).value - direct.value) < 1e-12


def test_twist_budget_arithmetic():
    assert twist_budget(golden_twist_spec(3)) == pytest.approx(3.0)
    assert twist_budget(Power(2, golden_twist_spec(-3))) == pytest.approx(6.0)
    both = Compose((golden_twist_spec(2), golden_twist_spec(-1)))
    assert twist_budget(both) == pytest.approx(3.0)
    h = MobiusTransform(1, 1, 0, 1)
    assert twist_budget(MobiusConjugate(h, golden_twist_spec(2))) == pytest.approx(2.0)
    assert twist_budget(Inverse(golden_twist_spec(2))) == pytest.approx(2.0)


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
# compiled evaluation is bit-identical to the tree-walking definition


def _reference_mobius(h, p: SpherePoint) -> SpherePoint:
    """z -> (a z + b) / (c z + d) on SpherePoints, written out here so the
    reference does not share the library's Mobius step."""
    if p.is_infinity:
        return INFINITY if h.c == 0 else SpherePoint(h.a / h.c)
    den = h.c * p.value + h.d
    if den == 0:
        return INFINITY
    return SpherePoint((h.a * p.value + h.b) / den)


def _reference_eval(spec, p: SpherePoint) -> SpherePoint:
    """The definition of each node, walked recursively on SpherePoints."""
    if isinstance(spec, Identity):
        return p
    if isinstance(spec, RadialTwist):
        if p.is_infinity or p.value == 0:
            return p
        ang = spec.profile.value(abs(p.value)) % 1.0
        if ang == 0.0:
            return p
        return SpherePoint(p.value * cmath.exp(1j * math.tau * ang))
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
        for _ in range(abs(spec.q)):
            p = _reference_eval(base, p)
        return p
    raise TypeError(spec)


def _wrapped(spec):
    return (spec, Inverse(spec), Power(-2, spec), Power(3, spec))


_CATALOG_SPECS = tuple(sc.map_spec for sc in identity_scenarios())
_ALL_SPECS = tuple(w for spec in _CATALOG_SPECS for w in _wrapped(spec))


def _conjugate_poles(spec):
    """Points sent to infinity by the chart of some Mobius node."""
    if isinstance(spec, MobiusConjugate):
        h = spec.h
        if h.c != 0:
            yield -h.d / h.c
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
