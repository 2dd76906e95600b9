"""Built-in scenario battery.

Twenty-plus scenarios covering plain radial twists, their Mobius
conjugates (translations, scalings, inversions, generic fractional-linear
changes of chart), inverses, powers, and compositions with same-axis or
disjoint supports.  The identity suites and the acceptance tests all draw
from here, as do the runnable demo scripts.

Profile plateaus that carry marked points always sit at exact integer
values so the marked circles are fixed pointwise and every invariant
value is an exact small integer.
"""

from __future__ import annotations

from dataclasses import dataclass

from .geometry import INFINITY, MobiusTransform, SpherePoint, apply_mobius, as_sphere_point
from .maps import (
    Compose,
    Identity,
    Inverse,
    MapSpec,
    MobiusConjugate,
    Power,
    RadialProfile,
    RadialTwist,
)
from .scenario import Scenario

SQRT2_MINUS_1 = 2.0**0.5 - 1.0


def _twist(*breakpoints, marks=()) -> RadialTwist:
    return RadialTwist(
        RadialProfile(tuple((float(r), float(v)) for r, v in breakpoints)),
        marks=tuple(as_sphere_point(m) for m in marks),
    )


def _scn(name, spec, pts, tuples=None, paths=None, seed=0) -> Scenario:
    points = {f"q{i + 1}": as_sphere_point(p) for i, p in enumerate(pts)}
    if tuples is None:
        tuples = (("q1", "q2", "q3", "q4"), ("q1", "q2", "q3", "q4", "q5"))
    return Scenario(
        name=name,
        map_spec=spec,
        points=points,
        tuples=tuple(tuples),
        paths=dict(paths or {}),
        seed=seed,
    )


def _transport(h: MobiusTransform, pts) -> list[SpherePoint]:
    hinv = h.inverse()
    return [apply_mobius(hinv, as_sphere_point(p)) for p in pts]


# ---------------------------------------------------------------------------
# the core twists


def golden_twist_spec(m: int) -> RadialTwist:
    """One full turn ramps to m between radii 1 and 2; plateaus 0 and m."""
    return _twist((1.0, 0.0), (2.0, float(m)), marks=(0.5 + 0j, 3.0 + 0j, 4j))


def golden_twist_scenario(m: int) -> Scenario:
    return _scn(
        f"twist-by-{m}",
        golden_twist_spec(m),
        (0j, INFINITY, 0.5 + 0j, 3.0 + 0j, 4j),
    )


_TWO_PLATEAUS = _twist(
    (1.0, 0.0), (2.0, 1.0), (3.0, 1.0), (4.0, 3.0),
    marks=(0.5 + 0j, 2.5 + 0j, 5.0 + 0j, 2.2 + 0.4j),
)
_TWO_PLATEAUS_PTS = (0j, INFINITY, 0.5 + 0j, 2.5 + 0j, 5.0 + 0j, 2.2 + 0.4j)

_NEGATIVE_INNER = _twist(
    (1.0, -2.0), (2.0, 0.0), (3.0, 0.0), (4.0, 1.0),
    marks=(0.5j, 2.5 + 0j, -5.0 + 0j),
)
_NEGATIVE_INNER_PTS = (0j, INFINITY, 0.5j, 2.5 + 0j, -5.0 + 0j)

_MIXED_PLATEAUS = _twist(
    (1.0, 1.0), (1.5, 0.5), (2.0, 0.5), (2.5, -1.0), (3.0, -1.0), (4.0, 2.0),
    marks=(0.25 + 0j, 2.75 + 0j, 6.0 + 0j),
)
_MIXED_PLATEAUS_PTS = (0j, INFINITY, 0.25 + 0j, 2.75 + 0j, 6.0 + 0j)

_STEEP = _twist(
    (0.5, -3.0), (1.0, 3.0),
    marks=(0.25 + 0j, 2.0 + 0j, 3.0 + 4.0j),
)
_STEEP_PTS = (0j, INFINITY, 0.25 + 0j, 2.0 + 0j, 3.0 + 4.0j)

_STEP1 = _twist(
    (1.0, 0.0), (2.0, 1.0), (3.0, 1.0),
    marks=(0.5 + 0j, 2.5 + 0j, 2.2 + 0.4j),
)
_STEP1_PTS = (0j, INFINITY, 0.5 + 0j, 2.5 + 0j, 2.2 + 0.4j)

# disjoint supports: one twist stirs the annulus 1 < |z| < 2, the other the
# annulus 1 < |z - 10| < 2; each is the identity where the other acts
_H_SHIFT10 = MobiusTransform(1, -10, 0, 1)
_DISJOINT_F = _twist((1.0, 1.0), (2.0, 0.0), marks=(0.5 + 0j, 3.0 + 0j))
_DISJOINT_G = MobiusConjugate(
    _H_SHIFT10,
    _twist((1.0, 2.0), (2.0, 0.0), marks=(0.5 + 0j, 3.0 + 0j)),
)
_DISJOINT = Compose((_DISJOINT_F, _DISJOINT_G))
_DISJOINT_PTS = (0j, INFINITY, 0.5 + 0j, 5.0 + 0j, 9.5 + 0j, 10.0 + 0j, 10.5 + 0j)

_H_TRANSLATE = MobiusTransform(1, 5, 0, 1)
_H_SCALE_ROT = MobiusTransform(1 + 1j, 0, 0, 1)
_H_INVERT = MobiusTransform(0, 1, 1, 0)
_H_GENERIC = MobiusTransform(1, -1, 1, 1)
_H_POLE_SHIFT = MobiusTransform(0, 1, 1, -1)
_H_ROT90 = MobiusTransform(1j, 0, 0, 1)


def identity_scenarios() -> tuple[Scenario, ...]:
    """The battery for the identity suite: every scenario carries at least
    five validated fixed points and exact integer invariant values."""
    out: list[Scenario] = []
    for m in range(-3, 4):
        out.append(golden_twist_scenario(m))
    out.append(_scn("twist-two-plateaus", _TWO_PLATEAUS, _TWO_PLATEAUS_PTS))
    out.append(_scn("twist-negative-inner", _NEGATIVE_INNER, _NEGATIVE_INNER_PTS))
    out.append(_scn("twist-mixed-plateaus", _MIXED_PLATEAUS, _MIXED_PLATEAUS_PTS))
    out.append(_scn("twist-steep", _STEEP, _STEEP_PTS))

    for label, h, base, pts in (
        ("conjugate-translate", _H_TRANSLATE, _TWO_PLATEAUS, _TWO_PLATEAUS_PTS),
        ("conjugate-scale-rotate", _H_SCALE_ROT, _TWO_PLATEAUS, _TWO_PLATEAUS_PTS),
        ("conjugate-invert", _H_INVERT, _TWO_PLATEAUS, _TWO_PLATEAUS_PTS),
        ("conjugate-generic", _H_GENERIC, _NEGATIVE_INNER, _NEGATIVE_INNER_PTS),
        ("conjugate-pole-shift", _H_POLE_SHIFT, _STEEP, _STEEP_PTS),
    ):
        out.append(_scn(label, MobiusConjugate(h, base), _transport(h, pts)))

    out.append(_scn("inverse-twist", Inverse(_TWO_PLATEAUS), _TWO_PLATEAUS_PTS))
    out.append(
        _scn(
            "inverse-conjugated",
            Inverse(MobiusConjugate(_H_TRANSLATE, _TWO_PLATEAUS)),
            _transport(_H_TRANSLATE, _TWO_PLATEAUS_PTS),
        )
    )
    out.append(
        _scn(
            "power-square",
            Power(2, golden_twist_spec(1)),
            (0j, INFINITY, 0.5 + 0j, 3.0 + 0j, 4j),
        )
    )
    out.append(_scn("power-negative", Power(-2, _TWO_PLATEAUS), _TWO_PLATEAUS_PTS))
    out.append(
        _scn(
            "power-cube-conjugated",
            Power(3, MobiusConjugate(_H_SCALE_ROT, _TWO_PLATEAUS)),
            _transport(_H_SCALE_ROT, _TWO_PLATEAUS_PTS),
        )
    )

    same_axis = Compose(
        (
            _twist((1.0, 0.0), (2.0, 1.0), (3.0, 1.0)),
            _twist((1.0, 0.0), (2.0, 2.0), (3.0, 2.0)),
        ),
        marks=(as_sphere_point(0.5 + 0j), as_sphere_point(2.5 + 0j)),
    )
    out.append(
        _scn(
            "compose-same-axis",
            same_axis,
            (0j, INFINITY, 0.5 + 0j, 2.5 + 0j, 2.2 + 0.4j, 6.0 + 0j),
        )
    )
    out.append(
        _scn(
            "compose-with-inverse",
            Compose((_TWO_PLATEAUS, Inverse(_TWO_PLATEAUS))),
            _TWO_PLATEAUS_PTS,
        )
    )
    out.append(_scn("compose-disjoint-supports", _DISJOINT, _DISJOINT_PTS))
    out.append(
        _scn(
            "compose-disjoint-rotated",
            MobiusConjugate(_H_ROT90, _DISJOINT),
            _transport(_H_ROT90, _DISJOINT_PTS),
        )
    )

    from .geometry import Polyline

    detour = Polyline(
        (0.5 + 0j, 0.5 - 1.5j, 2.5 - 1.5j, 2.5 + 0j), closed=False
    )
    out.append(
        _scn(
            "twist-with-declared-path",
            _STEP1,
            _STEP1_PTS,
            paths={"beta-detour": detour},
        )
    )
    out.append(
        _scn("identity-map", Identity(), (0j, INFINITY, 1.0 + 0j, 2.0 + 1.0j, -3.0 + 0j))
    )
    return tuple(out)


# ---------------------------------------------------------------------------
# composition pairs with shared fixed points


@dataclass(frozen=True)
class HomPair:
    """Two maps with common marked fixed points, for additivity checks."""

    name: str
    f: MapSpec
    g: MapSpec
    points: tuple[SpherePoint, ...]


def homomorphism_pairs() -> tuple[HomPair, ...]:
    pts = lambda *zs: tuple(as_sphere_point(z) for z in zs)
    pairs = [
        HomPair(
            "same-axis-steps",
            _twist((1.0, 0.0), (2.0, 1.0), (3.0, 1.0)),
            _twist((1.0, 0.0), (2.0, 2.0), (3.0, 2.0)),
            pts(0j, INFINITY, 0.5 + 0j, 2.5 + 0j, 2.2 + 0.4j),
        ),
        HomPair(
            "same-axis-offset-zones",
            _twist((1.0, 0.0), (2.0, 1.0), (4.0, 1.0)),
            _twist((2.0, 0.0), (2.5, 1.0), (3.5, 1.0), (4.0, 2.0)),
            pts(0j, INFINITY, 0.5 + 0j, 3.0 + 0j, 5.0 + 0j),
        ),
        HomPair(
            "disjoint-supports",
            _DISJOINT_F,
            _DISJOINT_G,
            pts(0j, INFINITY, 0.5 + 0j, 5.0 + 0j, 9.5 + 0j, 10.0 + 0j),
        ),
        HomPair(
            "twist-with-scaled-conjugate",
            _twist((1.0, 0.0), (2.0, 2.0)),
            MobiusConjugate(
                MobiusTransform(3, 0, 0, 1), _twist((3.0, 0.0), (6.0, 1.0))
            ),
            pts(0j, INFINITY, 0.5 + 0j, 2.5 + 0j, 3j),
        ),
        HomPair(
            "composite-with-inverse-partner",
            Compose(
                (
                    _twist((1.0, 0.0), (2.0, 1.0), (3.0, 1.0)),
                    _twist((1.0, 0.0), (2.0, 2.0), (3.0, 2.0)),
                )
            ),
            Inverse(_twist((1.0, 1.0), (2.0, 0.0))),
            pts(0j, INFINITY, 0.5 + 0j, 2.5 + 0j, 2.2 + 0.4j, 6.0 + 0j),
        ),
        HomPair(
            "conjugated-pair",
            MobiusConjugate(_H_TRANSLATE, _TWO_PLATEAUS),
            MobiusConjugate(
                _H_TRANSLATE, _twist((1.0, 0.0), (2.0, -1.0), (3.0, -1.0))
            ),
            tuple(_transport(_H_TRANSLATE, (0j, INFINITY, 0.5 + 0j, 2.5 + 0j, 5.0 + 0j))),
        ),
    ]
    return tuple(pairs)


# ---------------------------------------------------------------------------
# blow-up fixtures


def sqrt2_blowup_spec() -> RadialTwist:
    """Irrational rigid rotation near the origin, identity beyond radius 2."""
    return _twist((1.0, SQRT2_MINUS_1), (2.0, 0.0), marks=(3.0 + 0j,))

