"""Crossing sums and the loop/path pairing."""

import random

import pytest

from rotquad import (
    DegenerateCrossing,
    INFINITY,
    MobiusTransform,
    PointOnLoop,
    Polyline,
    SpherePoint,
    apply_mobius,
    loop_class,
    segment_crossing,
    signed_crossing_sum,
)

from helpers import circle, jittered_segment, loop_path_instance, wobbly_loop


# ---------------------------------------------------------------------------
# segment crossings


def test_segment_crossing_signs():
    # second segment crossing the first south-to-north vs north-to-south
    assert segment_crossing((0j, 2 + 0j), (1 - 1j, 1 + 1j)) == 1
    assert segment_crossing((0j, 2 + 0j), (1 + 1j, 1 - 1j)) == -1
    assert segment_crossing((0j, 2 + 0j), (3 - 1j, 3 + 1j)) is None  # miss
    assert segment_crossing((0j, 1 + 0j), (2 + 1j, 3 + 1j)) is None  # disjoint
    # an end in line with the first segment, beyond its end, touches nothing
    assert segment_crossing((0j, 1 + 1j), (2 + 2j, 3 + 1j)) is None


def test_segment_crossing_degeneracies():
    with pytest.raises(DegenerateCrossing):
        segment_crossing((0j, 2 + 0j), (1 + 0j, 1 + 1j))  # endpoint touch
    with pytest.raises(DegenerateCrossing):
        segment_crossing((0j, 2 + 0j), (1 - 1j, 1 + 0j))  # crossing at an endpoint
    with pytest.raises(DegenerateCrossing):
        segment_crossing((0j, 2 + 0j), (1 + 0j, 3 + 0j))  # collinear overlap


def _crossing_outcome(s1, s2):
    try:
        return segment_crossing(s1, s2)
    except DegenerateCrossing:
        return DegenerateCrossing


def test_segment_crossing_is_scale_invariant():
    # the determinants are compared relative to the segments' lengths, so a
    # tiny perpendicular crossing is a crossing, not a touch
    assert segment_crossing((0j, 2e-7 + 0j), (1e-7 - 1e-7j, 1e-7 + 1e-7j)) == 1
    # two unit-scale segments crossing at an angle of about 3e-12 cross; at
    # about 1e-12 their ends sit within EPS_DEG of each other's line
    assert segment_crossing((-1 + 0j, 1 + 0j), (-1 - 3e-12j, 1 + 3e-12j)) == 1
    with pytest.raises(DegenerateCrossing):
        segment_crossing((-1 + 0j, 1 + 0j), (-1 - 1e-12j, 1 + 1e-12j))
    cases = (
        ((-1 + 0j, 1 + 0j), (-1 - 3e-12j, 1 + 3e-12j)),  # just a crossing
        ((-1 + 0j, 1 + 0j), (-1 - 1e-12j, 1 + 1e-12j)),  # just refused
        ((0j, 1 + 1j), (2 + 2j, 3 + 1j)),  # in line, beyond the end
        ((0j, 2 + 0j), (1 - 1j, 1 + 1j)),  # crossing
        ((0j, 2 + 0j), (1 + 1j, 1 - 1j)),  # crossing, the other way
        ((0j, 2 + 0j), (3 - 1j, 3 + 1j)),  # miss
        ((0j, 2 + 0j), (1 + 0j, 1 + 1j)),  # endpoint touch
        ((0j, 2 + 0j), (1 + 0j, 3 + 0j)),  # collinear overlap
        ((0j, 2 + 0j), (1 - 1e-13j, 1.5 + 1e-13j)),  # too close to parallel
        ((0.3 + 0.1j, 2.7 - 1.9j), (-1.1 - 0.4j, 2.2 + 0.6j)),
    )
    for s1, s2 in cases:
        expected = _crossing_outcome(s1, s2)
        for k in range(-60, 61):
            scale = 2.0 ** k
            assert _crossing_outcome((s1[0] * scale, s1[1] * scale),
                                     (s2[0] * scale, s2[1] * scale)) == expected, (s1, s2, k)


def test_crossing_sum_is_skew_symmetric():
    rng = random.Random(5)
    a = jittered_segment(rng, -2 - 1j, 2 + 1j)
    b = jittered_segment(rng, -2 + 1j, 2 - 1j)
    assert signed_crossing_sum(a, b) == -signed_crossing_sum(b, a)
    assert signed_crossing_sum(a, b) != 0


def test_two_closed_loops_pair_to_zero():
    # the signed crossing count of two closed curves in the plane vanishes
    rng = random.Random(11)
    for seed in range(6):
        r = random.Random(seed)
        l1 = wobbly_loop(r, 0j, 2.0, r.choice([1, 2, -1]))
        l2 = wobbly_loop(r, 0.7 + 0.3j, 1.4, r.choice([1, -2, -1]))
        for attempt in range(8):
            try:
                assert signed_crossing_sum(l1, l2) == -signed_crossing_sum(l2, l1)
                assert signed_crossing_sum(l1, l2) == 0
                break
            except DegenerateCrossing:
                l2 = wobbly_loop(random.Random(1000 + 8 * seed + attempt),
                                 0.7 + 0.3j, 1.4, 2)
        else:
            pytest.fail("no transverse configuration found")


# ---------------------------------------------------------------------------
# the pairing and the winding-based class


def test_pairing_convention_pinned():
    # a CCW unit circle around x1 pairs to +1 with any path x1 -> x2
    # leaving the disk; this orientation convention is load bearing
    loop = circle(0j, 1.0)
    backwards = Polyline(loop.vertices[::-1], closed=True)
    path = Polyline((0j, 3 + 0.01j))
    assert signed_crossing_sum(path, loop) == 1
    assert signed_crossing_sum(path, backwards) == -1
    assert loop_class(loop, SpherePoint(0j), SpherePoint(3 + 0.01j)) == 1
    assert loop_class(backwards, SpherePoint(0j), SpherePoint(3 + 0.01j)) == -1


def test_loop_class_basics():
    x1 = SpherePoint(0j)
    x2 = SpherePoint(4 + 0j)
    assert loop_class(circle(0j, 1.0, turns=3), x1, x2) == 3
    assert loop_class(circle(0j, 1.0, turns=-2), x1, x2) == -2
    # a loop around neither puncture is trivial
    assert loop_class(circle(10j, 1.0), x1, x2) == 0
    # a loop around both punctures is trivial in the annulus
    assert loop_class(circle(2 + 0j, 3.0), x1, x2) == 0
    with pytest.raises(ValueError):
        loop_class(Polyline((0j, 1 + 0j, 1j)), x1, x2)


def test_loop_class_of_a_coarse_loop_is_exact():
    # the triangle winds -1 around 0 and 0 around -0.5i; in the normalizing
    # chart each image edge is short against its distance from 0 while its
    # arc runs out round 0, so the images of the vertices alone show no turn
    loop = Polyline((1j, 2 - 1j, -1 + 0j), closed=True)
    assert loop_class(loop, SpherePoint(0j), SpherePoint(-0.5j)) == -1
    assert loop_class(loop, SpherePoint(-0.5j), SpherePoint(0j)) == 1


def test_loop_class_with_infinite_puncture():
    assert loop_class(circle(0j, 1.0, turns=2), SpherePoint(0j), INFINITY) == 2


def test_loop_class_rejects_loop_through_puncture():
    loop = Polyline((-1 - 1j, 1 - 1j, 1 + 1j, -1 + 1j), closed=True)
    with pytest.raises(PointOnLoop):
        loop_class(loop, SpherePoint(1 + 1j), SpherePoint(5 + 0j))


def test_class_is_homotopy_functional():
    # same class from very different loop shapes
    x1, x2 = SpherePoint(0j), SpherePoint(4 + 0j)
    rng = random.Random(3)
    round_loop = circle(0j, 1.0, turns=2)
    ragged = wobbly_loop(rng, 0j, 1.3, 2, wobble=0.4)
    assert loop_class(round_loop, x1, x2) == loop_class(ragged, x1, x2) == 2


def test_algebraic_intersection_on_marked_pair():
    # alpha from x1 = 0 to x2 = 3 against beta from x3 = 1.5 - 2i to x4 = 1.5 + 2i
    alpha = Polyline((0j, 1 + 0j, 3 + 0j))
    beta = Polyline((1.5 - 2j, 1.5 + 2j))
    assert signed_crossing_sum(alpha, beta) == 1
    # reversing beta reverses the sign
    assert signed_crossing_sum(alpha, Polyline(beta.vertices[::-1])) == -1


def test_pairing_agrees_with_class_on_corpus():
    # 20 seeded instances here; the acceptance suite runs the full hundred
    hits = 0
    seed = 0
    while hits < 20:
        loop, x1, x2, path, expected = loop_path_instance(seed)
        try:
            crossings = signed_crossing_sum(path, loop)
        except DegenerateCrossing:
            seed += 1
            continue
        assert crossings == expected
        assert loop_class(loop, SpherePoint(x1), SpherePoint(x2)) == expected
        # the crossing count is the same at any scale
        for scale in (2.0 ** -60, 2.0 ** 60):
            assert signed_crossing_sum(Polyline(tuple(v * scale for v in path.vertices)),
                                       Polyline(tuple(v * scale for v in loop.vertices),
                                                closed=True)) == expected
        hits += 1
        seed += 1


# ---------------------------------------------------------------------------
# invariance under Mobius maps


def test_mobius_winding_invariance():
    # winding-based class is invariant under Mobius maps fixing both
    # punctures: transport everything by z -> 2z and compare
    h = MobiusTransform(2, 0, 0, 1)
    loop = wobbly_loop(random.Random(9), 0j, 1.0, 3, wobble=0.2)
    x1, x2 = SpherePoint(0j), INFINITY
    moved = Polyline(tuple(apply_mobius(h, SpherePoint(v)).value for v in loop.vertices),
                     closed=True)
    assert loop_class(loop, x1, x2) == loop_class(moved, x1, x2) == 3
