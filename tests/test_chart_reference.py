"""Values read in a twist's own chart against a reference copy of the chain reading.

A tuple with x3 and x4 finite, of a map that ``twist_chart`` reduces to one
twist in an affine chart H, is refined in H's chart: its path runs from
H(x3) to H(x4), its image is the twist alone, and its value is the turning
about H(x1) less the turning about H(x2).  The reference below is the
reading every tuple had before, kept verbatim: the tuple precharted, the
path's image through the spec's whole chain of steps and then the
normalizing chart h (x1 -> 0, x2 -> infinity), the turning read about 0.
The invariant does not depend on the chart, so on the ordered distinct
4-tuples of the 27 catalog scenarios, in the catalog's own chart and in
seven more, the evaluator must give the reference's integer or raise the
same exception class: on every tuple it reads in a twist's chart, and on a
seeded eighth of the rest, which it reads with the reference's own code.
In a twist's chart the path is refined by refine_twist_view, which must
give refine_path_view's pieces through the same view, float for float.
"""

import cmath
import itertools
import math
import os
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import rotquad.geometry as geometry
import rotquad.invariant as invariant
from rotquad import MarkedTuple, MobiusConjugate, MobiusTransform, Polyline, RfEvaluator
from rotquad.catalog import identity_scenarios
from rotquad.geometry import apply_mobius, mobius_normalize, mobius_step, path_turns
from rotquad.invariant import JITTER_MAGNITUDE, _prechart, _validate_beta, connecting_path
from rotquad.maps import CompiledMap, _mobius_pair

# ---------------------------------------------------------------------------
# the reference: every tuple read through the chain in the normalizing chart


class ReferenceEvaluator(RfEvaluator):
    """RfEvaluator with the chain reading for every tuple."""

    def _refined(self, t: MarkedTuple, beta: Polyline | None = None, variant: int = 0,
                 jitter: complex = 0j):
        spec, tol = self.spec, self.tol
        if beta is not None:
            steps = self._checked_steps(spec, t.points)
            _validate_beta(beta, t.x3, t.x4, (t.x1, t.x2))
        else:
            spec, t = _prechart(spec, t)
            if jitter:
                jitter *= JITTER_MAGNITUDE * max(abs(t.x4.value - t.x3.value), 1.0)
            beta = connecting_path(t.x3.value, t.x4.value, avoid=(t.x1, t.x2),
                                   variant=variant, jitter=jitter)
            steps = self._checked_steps(spec, t.points)
        h = mobius_normalize(t.x1, t.x2)
        forward = geometry.refine_path_view(beta.vertices,
                                            CompiledMap([*steps, _mobius_pair(h)]), tol=tol)
        base = sum(sign * path_turns(beta.vertices, p.value)
                   for sign, p in ((1, t.x1), (-1, t.x2)) if not p.is_infinity)
        at = mobius_step(h)
        # the punctures of the chart h, where the library reads this chain
        return forward, base, (at(t.x3.value), at(t.x4.value)), (0j, None)


# ---------------------------------------------------------------------------
# charts and outcomes

_rng = random.Random(22)


def _seeded_affine() -> MobiusTransform:
    a = cmath.rect(2 ** _rng.uniform(-1, 1), _rng.uniform(0, math.tau))
    return MobiusTransform(a, complex(_rng.uniform(-3, 3), _rng.uniform(-3, 3)), 0, 1)


# z -> m(z) moves a scenario; None keeps the catalog's own chart.  The two
# general Mobius charts keep their poles clear of every catalog point.
CHARTS = {
    "catalog": None,
    "affine-seeded-1": _seeded_affine(),
    "affine-seeded-2": _seeded_affine(),
    "affine-1e4": MobiusTransform(1e4 * cmath.exp(0.7j), 3 - 2j, 0, 1),
    "affine-1e-4": MobiusTransform(1e-4 * cmath.exp(-2.1j), 0.25 + 1j, 0, 1),
    "translate-5e5": MobiusTransform(1, 5e5 - 3e5j, 0, 1),
    "mobius-1": MobiusTransform(1, 0.3j, 0.2, 1.1 - 1.3j),
    "mobius-2": MobiusTransform(2 - 1j, 1, -0.05j, 0.9 + 0.4j),
}

SCENARIOS = identity_scenarios()


def moved(sc, m: MobiusTransform | None):
    """The scenario's map and points in the chart m: m o f o m^-1 at m(p)."""
    if m is None:
        return sc.map_spec, list(sc.points.values())
    points = [apply_mobius(m, p) for p in sc.points.values()]
    return MobiusConjugate(m.inverse(), sc.map_spec), points


def outcome(ev: RfEvaluator, t):
    """The value, or the class of what was raised."""
    try:
        return ev.value(*t)
    except Exception as exc:  # compared by class
        return type(exc)


def compare(sc, m, tuples=None, others=1.0):
    """The evaluator's and the reference's outcomes on the scenario moved by
    m, on the given tuples of its points (every ordered distinct 4-tuple by
    default): the mismatches, and the number of tuples read in a twist's
    chart and compared.  Of the other tuples, which the evaluator reads
    with the reference's own code, a seeded share ``others`` is compared."""
    spec, points = moved(sc, m)
    ev = RfEvaluator(spec, sc.tolerances, sc.seed)
    ref = ReferenceEvaluator(spec, sc.tolerances, sc.seed)
    sample = random.Random(sc.name)
    mismatches, twisted = [], 0
    for t in tuples or itertools.permutations(points, 4):
        if ev._in_twist_chart(MarkedTuple(*t)) is not None:
            twisted += 1
        elif sample.random() >= others:
            continue
        got, want = outcome(ev, t), outcome(ref, t)
        if got != want:
            mismatches.append((t, got, want))
    return mismatches, twisted


@pytest.fixture
def flat_refinements(monkeypatch) -> list:
    """invariant's refine_twist_view, each call required to give
    refine_path_view's outcome through the same view, piece for piece and
    float for float, and to certify clear only chords further than
    EPS_EDGE from both punctures; the list of calls."""
    calls = []
    real = invariant.refine_twist_view

    def flat(vertices, view, tol, punctures):
        calls.append(vertices)
        try:
            want = geometry.refine_path_view(vertices, view, tol=tol, punctures=punctures)
        except Exception as exc:  # compared by class and message
            with pytest.raises(type(exc)) as raised:
                real(vertices, view, tol, punctures)
            assert str(raised.value) == str(exc)
            raise
        forward, uncleared = real(vertices, view, tol, punctures)
        assert repr(forward) == repr(want), vertices
        for chord in set(zip(forward, forward[1:])) - set(uncleared):
            for p in punctures:
                assert p is None or geometry.point_segment_distance(p, *chord) > geometry.EPS_EDGE
        return forward, uncleared

    monkeypatch.setattr(invariant, "refine_twist_view", flat)
    return calls


@pytest.mark.parametrize("chart", CHARTS)
def test_every_catalog_tuple_reads_as_the_reference(chart, flat_refinements):
    # every tuple read in its twist's chart, and an eighth of the rest
    twisted = 0
    for sc in SCENARIOS:
        mismatches, n = compare(sc, CHARTS[chart], others=0.125)
        assert not mismatches, (sc.name, mismatches[:3])
        twisted += n
    # every tuple with x3 and x4 finite of the 24 scenarios whose map
    # reduces, when the chart is affine; each refined at least once
    assert twisted == (3096 if CHARTS[chart] is None or CHARTS[chart].c == 0 else 0)
    assert len(flat_refinements) >= twisted


# ---------------------------------------------------------------------------
# the same property in random charts: a fixed sample in every run, and with
# ROTQUAD_FUZZ_EXAMPLES set, that many fresh draws from pytest's
# --hypothesis-seed:
#   ROTQUAD_FUZZ_EXAMPLES=200 python -m pytest tests/test_chart_reference.py \
#       -k random_chart --hypothesis-seed=<seed>

_FUZZ_EXAMPLES = os.environ.get("ROTQUAD_FUZZ_EXAMPLES")


@st.composite
def _charts(draw):
    modulus = draw(st.floats(-4, 4))
    a = cmath.rect(10 ** modulus, draw(st.floats(0, math.tau)))
    b = complex(draw(st.floats(-1e3, 1e3)), draw(st.floats(-1e3, 1e3)))
    if draw(st.booleans()):
        return MobiusTransform(a, b, 0, 1)
    # a general chart, its pole at least 0.5 from every catalog point
    pole = complex(draw(st.floats(-20, 20)), draw(st.floats(-20, 20)))
    finite = [p.value for sc in SCENARIOS for p in sc.points.values() if not p.is_infinity]
    if min(abs(pole - z) for z in finite) < 0.5:
        pole += 40
    assume(abs(a * pole + b) > 1e-9 * (abs(a * pole) + abs(b)))  # not singular
    return MobiusTransform(a, b, 1, -pole)


@given(st.sampled_from(SCENARIOS), _charts(), st.randoms(use_true_random=False))
@settings(max_examples=int(_FUZZ_EXAMPLES or 20), deadline=None,
          derandomize=_FUZZ_EXAMPLES is None, database=None)
def test_a_random_chart_reads_as_the_reference(sc, chart, rng):
    spec, points = moved(sc, chart)
    tuples = rng.sample(list(itertools.permutations(points, 4)), 24)
    mismatches, _ = compare(sc, chart, tuples)
    assert not mismatches, (sc.name, chart, mismatches[:3])
