"""Shared geometry builders and catalog fixtures for the test suite.

Everything here is deterministic given the seed; the loop builders keep
an exact combinatorial handle on the winding class so tests can compare
computed classes against construction, not just against each other.
"""

from __future__ import annotations

import cmath
import math
import random

from rotquad import Polyline, RadialTwist, Scenario
from rotquad.catalog import SQRT2_MINUS_1, _twist, identity_scenarios


def scenario_by_name(name: str) -> Scenario:
    for sc in identity_scenarios():
        if sc.name == name:
            return sc
    raise KeyError(name)


def quarter_turn_blowup_spec() -> RadialTwist:
    """Rigid quarter turn near the origin, identity beyond radius 2."""
    return _twist((1.0, 0.25), (2.0, 0.0), marks=(3.0 + 0j,))


def double_blowup_spec() -> RadialTwist:
    """Quarter turn near 0, full-turn plateau near infinity."""
    return _twist((1.0, 0.25), (2.0, 1.0))


def blowup_consistency_spec() -> RadialTwist:
    """Irrational inner plateau, whole-turn outer plateau: a far fourth
    point is then genuinely fixed and the single blow-up there must
    reproduce the double blow-up within its reported bound."""
    return _twist((1.0, SQRT2_MINUS_1), (2.0, 1.0), marks=(3.0 + 0j,))


def circle(center: complex, radius: float, n: int = 64, turns: int = 1) -> Polyline:
    """Closed polyline winding `turns` times around center (sign = direction)."""
    if turns == 0:
        raise ValueError("a zero-turn circle is not a loop")
    total = n * abs(turns)
    sign = 1.0 if turns > 0 else -1.0
    verts = tuple(
        center + radius * cmath.exp(1j * sign * math.tau * abs(turns) * k / total)
        for k in range(total)
    )
    return Polyline(verts, closed=True)


def wobbly_loop(
    rng: random.Random,
    center: complex,
    base_radius: float,
    turns: int,
    wobble: float = 0.25,
    n: int = 48,
) -> Polyline:
    """Star-shaped loop around center with class exactly `turns`.

    Radii stay within (1 +- wobble) * base_radius, so any point farther
    than that band from the center is provably outside the loop and any
    point closer is enclosed `turns` times.
    """
    if turns == 0:
        raise ValueError("need a nonzero class")
    total = n * abs(turns)
    sign = 1.0 if turns > 0 else -1.0
    verts = []
    for k in range(total):
        r = base_radius * (1.0 + wobble * rng.uniform(-1.0, 1.0))
        ang = sign * math.tau * abs(turns) * k / total
        verts.append(center + r * cmath.exp(1j * ang))
    return Polyline(tuple(verts), closed=True)


def jittered_segment(rng: random.Random, a: complex, b: complex, n: int = 12) -> Polyline:
    """Open path from a to b whose interior vertices are jittered off the chord."""
    span = b - a
    verts = [a]
    for k in range(1, n):
        s = k / n
        off = 0.08 * span * complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        verts.append(a + s * span + off)
    verts.append(b)
    return Polyline(tuple(verts))


def loop_path_instance(seed: int):
    """One seeded loop/path configuration with a known pairing class.

    Returns (loop, x1, x2, path, expected_class).  The loop is star shaped
    around x1 with radius band strictly inside |x2 - x1|, so it encloses x1
    exactly `expected_class` times and never encloses x2; the path runs from
    x1 to x2.  By construction the pairing of the path with the loop equals
    the loop's class around x1.
    """
    rng = random.Random(seed)
    x1 = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
    ang = rng.uniform(0, math.tau)
    dist = rng.uniform(2.0, 5.0)
    x2 = x1 + dist * cmath.exp(1j * ang)
    turns = rng.choice([-5, -4, -3, -2, -1, 1, 2, 3, 4, 5])
    base = dist * rng.uniform(0.30, 0.62)
    loop = wobbly_loop(rng, x1, base, turns, wobble=0.2)
    path = jittered_segment(rng, x1, x2)
    return loop, x1, x2, path, turns
