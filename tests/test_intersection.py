"""Crossing sums, the loop/path pairing, and its homeomorphism invariance."""

import random

import pytest

from rotquad import (
    DegenerateCrossing,
    INFINITY,
    MarkedPathPair,
    MobiusTransform,
    PointOnLoop,
    Polyline,
    RadialProfile,
    RadialTwist,
    SamplingFailure,
    SpherePoint,
    Tolerances,
    algebraic_intersection,
    apply_mobius,
    eval_map,
    homeo_invariance_check,
    loop_class,
    segment_crossing,
    signed_crossing_sum,
)
from rotquad.intersection import resample_under

from helpers import circle, jittered_segment, loop_path_instance, wobbly_loop


# ---------------------------------------------------------------------------
# segment crossings


def test_segment_crossing_signs():
    # second segment crossing the first south-to-north vs north-to-south
    assert segment_crossing((0j, 2 + 0j), (1 - 1j, 1 + 1j)) == 1
    assert segment_crossing((0j, 2 + 0j), (1 + 1j, 1 - 1j)) == -1
    assert segment_crossing((0j, 2 + 0j), (3 - 1j, 3 + 1j)) is None  # miss
    assert segment_crossing((0j, 1 + 0j), (2 + 1j, 3 + 1j)) is None  # disjoint


def test_segment_crossing_degeneracies():
    with pytest.raises(DegenerateCrossing):
        segment_crossing((0j, 2 + 0j), (1 + 0j, 1 + 1j))  # endpoint touch
    with pytest.raises(DegenerateCrossing):
        segment_crossing((0j, 2 + 0j), (1 - 1j, 1 + 0j))  # crossing at an endpoint
    with pytest.raises(DegenerateCrossing):
        segment_crossing((0j, 2 + 0j), (1 + 0j, 3 + 0j))  # collinear overlap


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


def _crossing_pair() -> MarkedPathPair:
    alpha = Polyline((0j, 3 + 0j))
    beta = Polyline((1.5 - 2j, 1.5 + 2j))
    return MarkedPathPair(alpha, beta, 0j, 3 + 0j, 1.5 - 2j, 1.5 + 2j)


def test_marked_path_pair_validates_endpoints():
    _crossing_pair()
    alpha = Polyline((0j, 3 + 0j))
    beta = Polyline((1.5 - 2j, 1.5 + 2j))
    with pytest.raises(ValueError):
        MarkedPathPair(alpha, beta, 0j, 5 + 0j, 1.5 - 2j, 1.5 + 2j)
    with pytest.raises(PointOnLoop):
        # beta's endpoint sits on alpha
        MarkedPathPair(alpha, Polyline((1.5 + 0j, 1.5 + 2j)),
                       0j, 3 + 0j, 1.5 + 0j, 1.5 + 2j)


def test_pairing_convention_pinned():
    # a CCW unit circle around x1 pairs to +1 with any path x1 -> x2
    # leaving the disk; this orientation convention is load bearing
    loop = circle(0j, 1.0)
    path = Polyline((0j, 3 + 0.01j))
    assert signed_crossing_sum(path, loop) == 1
    assert signed_crossing_sum(path, loop.reversed_()) == -1
    assert loop_class(loop, SpherePoint(0j), SpherePoint(3 + 0.01j)) == 1
    assert loop_class(loop.reversed_(), SpherePoint(0j), SpherePoint(3 + 0.01j)) == -1


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
    assert algebraic_intersection(_crossing_pair()) == 1
    # reversing beta reverses the sign
    alpha = Polyline((0j, 3 + 0j))
    beta = Polyline((1.5 + 2j, 1.5 - 2j))
    pair = MarkedPathPair(alpha, beta, 0j, 3 + 0j, 1.5 + 2j, 1.5 - 2j)
    assert algebraic_intersection(pair) == -1


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
        hits += 1
        seed += 1


# ---------------------------------------------------------------------------
# invariance under the map family


def _gentle_twist() -> RadialTwist:
    return RadialTwist(RadialProfile(((0.8, 0.0), (2.6, 1.0))))


def test_homeo_invariance_of_pairing():
    rng = random.Random(7)
    alpha = jittered_segment(rng, -3 + 0.2j, 3.3 + 0.4j)
    beta = jittered_segment(rng, 0.4 - 3j, 0.2 + 3.1j)
    pair = MarkedPathPair(alpha, beta, alpha.start, alpha.end, beta.start, beta.end)
    assert algebraic_intersection(pair) != 0

    twist = _gentle_twist()
    assert homeo_invariance_check(pair, lambda z: eval_map(twist, SpherePoint(z)).value)

    h = MobiusTransform(1, 0.4 - 0.2j, 0, 1)  # affine shift
    assert homeo_invariance_check(pair, lambda z: apply_mobius(h, SpherePoint(z)).value)


def test_resample_under_budget_runs_out():
    # the chord from -1 to 1 passes 0.1j too closely and must be bisected
    with pytest.raises(SamplingFailure, match="budget exhausted"):
        resample_under([-1 + 0j, 1 + 0j], lambda z: z, (0.1j,), tol=Tolerances(max_refine_points=1))
    assert len(resample_under([-1 + 0j, 1 + 0j], lambda z: z, (0.1j,))) > 2


def test_resample_under_rejects_image_through_a_protected_point():
    with pytest.raises(PointOnLoop, match="cannot be separated"):
        resample_under([-1 + 0j, 1 + 0j], lambda z: z, (0j,))


def test_mobius_winding_invariance():
    # winding-based class is invariant under Mobius maps fixing both
    # punctures: transport everything by z -> 2z and compare
    h = MobiusTransform(2, 0, 0, 1)
    loop = wobbly_loop(random.Random(9), 0j, 1.0, 3, wobble=0.2)
    x1, x2 = SpherePoint(0j), INFINITY
    moved = Polyline(tuple(apply_mobius(h, SpherePoint(v)).value for v in loop.vertices),
                     closed=True)
    assert loop_class(loop, x1, x2) == loop_class(moved, x1, x2) == 3
