"""The normalizing chart against a reference copy of the anchor chart it
replaced.

A tuple whose third or fourth point is infinity is evaluated in a chart
where both are finite.  The reference below is the chart as it was chosen
before: z -> 1/(z - c), c the first of six fixed anchors, scaled to the
points, that keeps clear of every finite marked point.  The library now
conjugates by ``mobius_normalize(x1, x2)``, which sends x1 to 0 and x2 to
infinity.  The invariant does not depend on the chart, so on ordered
distinct tuples of the catalog scenarios' points with infinity in the third
or fourth slot the two must give the same value, or raise the same
exception class.
"""

import itertools
import random

import rotquad.invariant as invariant
from rotquad import INFINITY, MarkedTuple, MobiusConjugate, RfEvaluator, ScenarioError
from rotquad.catalog import identity_scenarios
from rotquad.geometry import MobiusTransform, SpherePoint, apply_mobius
from rotquad.maps import MapSpec

# ---------------------------------------------------------------------------
# the reference: the anchor chart

_PRECHART_ANCHORS = (
    0.318 + 0.733j,
    -1.247 + 0.582j,
    2.414 - 1.731j,
    0.577 - 2.236j,
    -0.692 - 3.415j,
    3.141 + 1.618j,
)


def reference_prechart(spec: MapSpec, t: MarkedTuple) -> tuple[MapSpec, MarkedTuple]:
    """Conjugate with 1/(z-c) when a path endpoint sits at infinity.

    The invariant is unchanged under simultaneous conjugation of the map
    and the points, and the connecting-path machinery needs finite
    endpoints.  No-op when the third and fourth points are finite.
    """
    if not (t.x3.is_infinity or t.x4.is_infinity):
        return spec, t
    finite = [p.value for p in t.points if not p.is_infinity]
    scale = max([abs(z) for z in finite] + [1.0])
    for anchor in _PRECHART_ANCHORS:
        c = anchor * scale
        if all(abs(z - c) > 1e-3 * scale for z in finite):
            m = MobiusTransform(0, 1, 1, -c)
            moved = MobiusConjugate(m.inverse(), spec)
            return moved, MarkedTuple(*(apply_mobius(m, p) for p in t.points))
    raise ScenarioError("could not find a chart anchor clear of the marked points")


# ---------------------------------------------------------------------------
# comparison


def _infinity_ended_tuples(sc):
    """Ordered distinct 4-tuples of the scenario's points with infinity third
    or fourth."""
    for points in itertools.permutations(sc.points.values(), 4):
        if INFINITY in points[2:]:
            yield MarkedTuple(*points)


def _outcome(ev: RfEvaluator, t: MarkedTuple):
    """The value, or the class of what was raised."""
    try:
        return ev.value(*t.points)
    except Exception as exc:  # compared by class
        return type(exc)


_TUPLES = [(sc, t) for sc in identity_scenarios() for t in _infinity_ended_tuples(sc)]
# a seeded third of the 2,352 tuples keeps the comparison to about a second
_SAMPLE = random.Random(12).sample(_TUPLES, 800)


def test_normalizing_chart_gives_the_anchor_charts_values(monkeypatch):
    new = []
    for sc, t in _SAMPLE:
        _, moved = invariant._prechart(sc.map_spec, t)
        assert moved.x1 == SpherePoint(0j) and moved.x2 == INFINITY, (sc.name, t.points)
        new.append(_outcome(RfEvaluator(sc.map_spec, sc.tolerances, sc.seed), t))
    monkeypatch.setattr(invariant, "_prechart", reference_prechart)
    old = [_outcome(RfEvaluator(sc.map_spec, sc.tolerances, sc.seed), t) for sc, t in _SAMPLE]
    for (sc, t), got, want in zip(_SAMPLE, new, old):
        assert got == want, (sc.name, t.points)
    assert sum(isinstance(v, int) and v != 0 for v in new) > 200
