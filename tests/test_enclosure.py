"""Disk enclosures: soundness of the bounds, certified values, and the work they cost.

A piece of a path is accepted by the refinement only when the enclosure of
its source disk (centre the midpoint, radius 1.125 half-chords) is a proper
disk that misses the origin.  These tests check that every enclosure
contains the computed images it bounds, that values on paths far too coarse
for any sampling rule are the trace's values or inconclusive, and that the
catalog stays within a fixed number of map evaluations per value.
"""

import cmath
import math

import pytest
from hypothesis import assume, given, settings, strategies as st

import rotquad.invariant as invariant
from rotquad import (
    INFINITY,
    GeometryFailure,
    Inverse,
    MarkedTuple,
    Polyline,
    Power,
    RadialProfile,
    RadialTwist,
    RfEvaluator,
    connecting_path,
    mobius_normalize,
    rf_blowup,
    rf_lift,
    rf_loop,
    rf_trace,
    synthesize_twist_trace,
)
from rotquad.catalog import identity_scenarios
from rotquad.invariant import _prechart
from rotquad.maps import compile_map

from helpers import scenario_by_name

_SCENARIOS = identity_scenarios()


def _default_tuples(sc):
    """The distinct 4-tuples ``rotquad compute`` evaluates for the scenario."""
    for names in sc.tuples:
        pts = sc.resolve(names)
        if len(pts) == 5:
            x1, x2, x3, x4, w = pts
            candidates = [(x1, x2, x3, x4), (x1, w, x3, x4), (w, x2, x3, x4)]
        else:
            candidates = [pts]
        for t in candidates:
            t = MarkedTuple(*t)
            if t.classify() == "distinct":
                yield t


def _charts(sc):
    """(spec, chart, ends) for the bare spec and for each default tuple: the
    precharted spec, its normalizing chart, and the path ends in its source
    coordinates (a prechart puts one on the pole of its chart change)."""
    out = [(sc.map_spec, None, ())]
    for t in _default_tuples(sc):
        spec, moved = _prechart(sc.map_spec, t)
        ends = tuple(p.value for p in (moved.x3, moved.x4))
        out.append((spec, mobius_normalize(moved.x1, moved.x2), ends))
    return out


_CHARTS = {sc.name: _charts(sc) for sc in _SCENARIOS}
_WRAPPERS = {
    "bare": lambda spec: spec,
    "inverse": Inverse,
    "power-2": lambda spec: Power(-2, spec),
    "power3": lambda spec: Power(3, spec),
}


@st.composite
def _pieces(draw):
    """A catalog spec under a wrapper and a chart, and a random sub-segment
    of a path, often starting on one of the path's ends."""
    sc = draw(st.sampled_from(_SCENARIOS))
    spec, chart, ends = draw(st.sampled_from(_CHARTS[sc.name]))
    wrap = draw(st.sampled_from(sorted(_WRAPPERS)))
    if ends and draw(st.booleans()):
        a = draw(st.sampled_from(ends))
    else:
        a = complex(draw(st.floats(-4, 4)), draw(st.floats(-4, 4)))
    length = 10 ** draw(st.floats(-6, 0.5))
    b = a + length * cmath.exp(1j * draw(st.floats(0, math.tau)))
    ts = draw(st.lists(st.floats(0, 1), min_size=1, max_size=6))
    return compile_map(_WRAPPERS[wrap](spec), then=chart), a, b, [0.0, 1.0, *ts]


@given(_pieces())
@settings(max_examples=400, deadline=None)
def test_enclosure_contains_every_computed_image(piece):
    view, a, b, ts = piece
    disk = view.enclose((0.5 * (a + b), 0.5625 * abs(b - a), False))
    assume(disk is not None)
    c, r, outside = disk
    for t in ts:
        try:
            w = view(a + t * (b - a))
        except ValueError:  # an intermediate coordinate overflowed
            continue
        if outside:
            assert w is None or abs(w - c) >= r
        else:
            assert w is not None and abs(w - c) <= r


# ---------------------------------------------------------------------------
# certified values on coarse paths


def test_hundred_thousand_turn_twist_is_exact():
    spec = RadialTwist(RadialProfile(((1, 0), (2, 1e5))))
    t = MarkedTuple(0j, INFINITY, 0.5, 3)
    assert rf_trace(synthesize_twist_trace(spec, t)) == 100000
    assert RfEvaluator(spec).value(*t.points) == 100000


def _coarse_paths(t: MarkedTuple):
    """The straight 2-vertex path, and the bowed connecting path from x3 to
    x4 with its middle vertex dropped (4 vertices)."""
    y3, y4 = t.x3.value, t.x4.value
    bow = connecting_path(y3, y4, avoid=(t.x1, t.x2)).vertices
    return (Polyline((y3, y4)), Polyline(bow[:2] + bow[3:]))


@pytest.mark.parametrize("name", ["twist-steep", "conjugate-pole-shift", "conjugate-generic",
                                  "power-cube-conjugated"])
def test_coarse_paths_give_the_trace_value_or_inconclusive(name):
    sc = scenario_by_name(name)
    certified = 0
    for t in _default_tuples(sc):
        expected = rf_trace(synthesize_twist_trace(sc.map_spec, t))
        spec, moved = _prechart(sc.map_spec, t)
        for beta in _coarse_paths(moved):
            try:
                loop = rf_loop(spec, moved, beta, sc.tolerances)
                lift = rf_lift(spec, moved, beta, sc.tolerances)
            except GeometryFailure:
                continue
            assert (loop, lift) == (expected, expected)
            certified += 1
    assert certified > 0


@pytest.mark.parametrize("name", ["conjugate-generic", "power-cube-conjugated",
                                  "conjugate-pole-shift"])
def test_thousandth_power_of_a_reducible_map_is_one_twist(name):
    # the power compiles to one twist by 1000 times the profile, for points
    # and enclosures alike; chained, each point would take 1000 passes
    sc = scenario_by_name(name)
    t = next(_default_tuples(sc))
    value = RfEvaluator(sc.map_spec, sc.tolerances, sc.seed).value(*t.points)
    power = RfEvaluator(Power(1000, sc.map_spec), sc.tolerances, sc.seed)
    assert value != 0 and power.value(*t.points) == 1000 * value


def test_blowup_of_commuting_twists_is_certified():
    # the two twists have disjoint supports, so they commute and the 1000th
    # iterate is evaluated and enclosed as two twists by 1000 times their
    # profiles; chaining 1000 repetitions would cost 1000 passes per point
    # and grow each enclosure about 13^1000-fold
    spec = scenario_by_name("compose-disjoint-supports").map_spec
    est = rf_blowup(spec, 0j, INFINITY, 5 + 0j, 1000)
    assert abs(est.value + 1) <= est.error_bound


# ---------------------------------------------------------------------------
# the work counter: map evaluations per value

_EVALS_PER_VALUE_CEILING = 200


class _CountingView:
    def __init__(self, view, counter):
        self.view = view
        self.counter = counter
        self.centred = view.centred

    def __call__(self, z):
        self.counter[0] += 1
        return self.view(z)

    def enclose(self, disk):
        return self.view.enclose(disk)


def test_catalog_values_stay_under_the_evaluation_ceiling(monkeypatch):
    # through the chain, or the twist chart's refinement
    counter = [0]
    real = invariant.refine_path_view
    monkeypatch.setattr(invariant, "refine_path_view", lambda vertices, view, *a, **k: real(
        vertices, _CountingView(view, counter), *a, **k))
    worst = {}
    for sc in _SCENARIOS:
        for t in _default_tuples(sc):
            counter[0] = 0
            RfEvaluator(sc.map_spec, sc.tolerances, sc.seed).value(*t.points)
            worst[sc.name] = max(worst.get(sc.name, 0), counter[0])
    assert len(worst) == 27
    assert all(0 < n <= _EVALS_PER_VALUE_CEILING for n in worst.values()), worst
