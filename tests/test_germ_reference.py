"""The germ rule against the structural walk it replaced.

maps._structural_rotation reads the local rotation angle at a fixed point
off the one twist that twist_chart reduces a spec to.  The walk kept here as
the reference read it node by node instead: conjugates move the point,
compositions sum their parts, inverses negate, powers scale, and a twist is
rigid at its axis points and on constant profile zones.  Both must agree on
every catalog and homomorphism-pair spec; the tests after that pin the
germs where the walk was wrong.
"""

import math

import pytest

from rotquad import (
    INFINITY,
    Compose,
    Identity,
    Inverse,
    MobiusConjugate,
    Power,
    RadialProfile,
    RadialTwist,
    SpherePoint,
    TangentCondition,
    rf_blowup,
    rf_double_blowup,
)
from rotquad.catalog import homomorphism_pairs, identity_scenarios
from rotquad.geometry import DEFAULT_TOL, apply_mobius
from rotquad.maps import (
    _fd_rotation,
    _structural_rotation,
    differential_rotation,
    fixed_residual,
    rigid_rotation_angle,
)


def reference_rotation(spec, p: SpherePoint, tol=DEFAULT_TOL):
    """The structural walk: the exact angle when the germ at p is a rigid
    rotation, else None."""
    if isinstance(spec, Identity):
        return 0.0
    if isinstance(spec, RadialTwist):
        prof = spec.profile
        if p.is_infinity:
            return prof.value_at_infinity
        z = p.value
        if z == 0:
            return prof.value_at_zero
        return prof.locally_constant_value(abs(z))
    if isinstance(spec, MobiusConjugate):
        q = apply_mobius(spec.h, p)
        inner = reference_rotation(spec.inner, q, tol)
        if inner is None:
            return None
        flip = -1.0 if (p.is_infinity != q.is_infinity) else 1.0
        return flip * inner
    if isinstance(spec, Compose):
        total = 0.0
        for part in spec.parts:
            if fixed_residual(part, p) >= tol.fixed_tol:
                return None
            a = reference_rotation(part, p, tol)
            if a is None:
                return None
            total += a
        return total
    if isinstance(spec, Inverse):
        inner = reference_rotation(spec.inner, p, tol)
        return None if inner is None else -inner
    if isinstance(spec, Power):
        inner = reference_rotation(spec.inner, p, tol)
        return None if inner is None else spec.q * inner
    raise TypeError(spec)


def _readings():
    """(spec, point) for every catalog and homomorphism-pair spec (f, g and
    their composition) under four wrappers, at its points and 0 and
    infinity."""
    cases = [(sc.map_spec, tuple(sc.points.values())) for sc in identity_scenarios()]
    for pair in homomorphism_pairs():
        for spec in (pair.f, pair.g, Compose((pair.f, pair.g))):
            cases.append((spec, pair.points))
    for spec, points in cases:
        for p in dict.fromkeys((*points, SpherePoint(0j), INFINITY)):
            for wrapped in (spec, Inverse(spec), Power(-2, spec), Power(3, spec)):
                yield wrapped, p


def _signed(angle):
    """The angle with the sign of a zero, or None."""
    return None if angle is None else (angle, math.copysign(1.0, angle))


def test_every_germ_reads_as_the_structural_walk():
    readings = list(_readings())
    for spec, p in readings:
        assert _signed(_structural_rotation(spec, p)) == _signed(reference_rotation(spec, p)), \
            (spec, p)
    assert len(readings) == 992


# ---------------------------------------------------------------------------
# germs the walk read wrongly


def _plateau(value: float) -> RadialTwist:
    return RadialTwist(RadialProfile(((1, 0), (2, value), (3, value), (4, 0))))


# two coaxial twists whose plateaus add to one whole turn on [2, 3]: neither
# part fixes 2.5, so the walk refused the composition's germ there
COAXIAL = Compose((_plateau(0.3), _plateau(0.7)))


def test_a_coaxial_composition_is_rigid_where_its_sum_is():
    assert rigid_rotation_angle(COAXIAL, 2.5) == 1.0
    est = rf_blowup(COAXIAL, 2.5, INFINITY, 5, 100)
    assert abs(est.value + 1.0) <= est.error_bound == 0.02
    assert rf_double_blowup(COAXIAL, 2.5, 0) == -1.0


def test_a_breakpoint_at_radius_zero_is_no_rigid_germ():
    # rho(r) = r / 2 near 0: the walk read rho(0) = 0 there as rigid, and the
    # blow-up then missed its own bound
    spec = RadialTwist(RadialProfile(((0, 0), (1, 0.5), (2, 0))))
    assert rigid_rotation_angle(spec, 0j) is None
    with pytest.raises(TangentCondition):
        rf_blowup(spec, 0j, INFINITY, 3, 10**7)


def test_a_sloped_zone_turns_by_its_derivative():
    # a fixed circle where rho ramps: the germ is a shear, not the rotation
    # by rho mod 1 that the walk reported
    spec = RadialTwist(RadialProfile(((1, 0), (2, 2))))
    assert differential_rotation(spec, 1.5) == _fd_rotation(spec, SpherePoint(1.5 + 0j))
    assert differential_rotation(spec, 1.5) == pytest.approx(0.2332, abs=1e-4)
