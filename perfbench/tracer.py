"""Span recorder for the traced run, installed from outside the library.

Wrappers replace the module attributes that callers look up at call time
(for example ``rotquad.invariant.eval_map``, the name ``invariant`` calls),
so no library file changes.  A span records name, layer, start, end,
parent span and op id; spans stay in memory and are written when the run
ends.  Hot leaves (map evaluation, argument summation, Mobius charts) are
called up to a million times per op, so instead of a span per call they add
a count and their summed time to the innermost open span.

Self time of a span is its duration minus its child spans and hot leaves;
a layer's self time is the self time of its spans plus its leaves' time.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

# Span sites: (module, attribute, span name, layer).  The same function is
# wrapped once and installed under every name it is reached by, so calls
# through any of those names, recursive ones included, nest properly.
SPANS = (
    ("rotquad.cli", "main", "cli.main", "cli"),
    ("rotquad.cli", "cmd_compute", "cli.cmd_compute", "cli"),
    ("rotquad.cli", "load_scenario", "scenario.load_scenario", "scenario"),
    ("rotquad.report", "Report.write_json", "report.write_json", "report"),
    ("rotquad.report", "Report.write_csv", "report.write_csv", "report"),
    ("rotquad.invariant", "RfEvaluator.value", "invariant.value", "invariant"),
    ("rotquad.invariant", "rf_loop", "invariant.rf_loop", "invariant"),
    ("rotquad.cli", "rf_loop", "invariant.rf_loop", "invariant"),
    ("rotquad.invariant", "rf_lift", "invariant.rf_lift", "invariant"),
    ("rotquad.invariant", "synthesize_twist_trace", "invariant.synthesize_twist_trace", "invariant"),
    ("rotquad.cli", "synthesize_twist_trace", "invariant.synthesize_twist_trace", "invariant"),
    ("rotquad.invariant", "rf_trace", "invariant.rf_trace", "invariant"),
    ("rotquad.cli", "rf_trace", "invariant.rf_trace", "invariant"),
    ("rotquad.invariant", "rf_mixed", "invariant.rf_mixed", "invariant"),
    ("rotquad.invariant", "rf_blowup", "invariant.rf_blowup", "invariant"),
    ("rotquad.invariant", "rf_double_blowup", "invariant.rf_double_blowup", "invariant"),
    ("rotquad.invariant", "verify_rf_identities", "invariant.verify_rf_identities", "invariant"),
    ("rotquad.invariant", "iterate_spec", "maps.iterate_spec", "maps"),
    ("rotquad.invariant", "loop_class", "intersection.loop_class", "intersection"),
    ("rotquad.invariant", "refine_path_view", "geometry.refine_path_view", "geometry"),
    ("rotquad.intersection", "refine_path_view", "geometry.refine_path_view", "geometry"),
    ("rotquad.invariant", "winding_number", "geometry.winding_number", "geometry"),
    ("rotquad.intersection", "winding_number", "geometry.winding_number", "geometry"),
    ("rotquad.algebra", "build_f_from_g", "algebra.build_f_from_g", "algebra"),
    ("rotquad.algebra", "verify_triple_symmetry", "algebra.verify_triple_symmetry", "algebra"),
    ("rotquad.algebra", "check_relations", "algebra.check_relations", "algebra"),
    ("rotquad.algebra", "decompose_g", "algebra.decompose_g", "algebra"),
    ("rotquad.catalog", "identity_scenarios", "catalog.identity_scenarios", "catalog"),
    ("rotquad.catalog", "homomorphism_pairs", "catalog.homomorphism_pairs", "catalog"),
)

# Hot leaves: (module, attribute, leaf name, layer).  eval_map is wrapped
# only where invariant calls it, so its count is points mapped, not the
# recursive calls inside maps.
LEAVES = (
    ("rotquad.invariant", "eval_map", "maps.eval_map", "maps"),
    ("rotquad.invariant", "fixed_residual", "maps.fixed_residual", "maps"),
    ("rotquad.invariant", "rigid_rotation_angle", "maps.rigid_rotation_angle", "maps"),
    ("rotquad.invariant", "path_turns", "geometry.path_turns", "geometry"),
    ("rotquad.invariant", "apply_mobius", "geometry.apply_mobius", "geometry"),
    ("rotquad.intersection", "apply_mobius", "geometry.apply_mobius", "geometry"),
    ("rotquad.invariant", "connecting_path", "invariant.connecting_path", "invariant"),
)

LAYERS = ("maps", "geometry", "invariant", "intersection", "algebra",
          "scenario", "report", "cli", "catalog")

# the span the benchmark opens around each op; it belongs to no layer
OP_SPAN = "op"


class Span:
    __slots__ = ("name", "layer", "start", "end", "parent", "op", "child_s", "leaves", "info")

    def __init__(self, name, layer, start, parent, op):
        self.name = name
        self.layer = layer
        self.start = start
        self.end = None
        self.parent = parent
        self.op = op
        self.child_s = 0.0
        self.leaves: dict[str, list] = {}
        self.info: dict = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Tracer:
    """Spans of one traced run, in memory until ``write``."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.op = None
        self._installed: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def open(self, name: str, layer: str) -> Span:
        parent = self.stack[-1] if self.stack else None
        span = Span(name, layer, time.perf_counter(), parent, self.op)
        self.spans.append(span)
        self.stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self.stack.pop()
        if span.parent is not None:
            span.parent.child_s += span.duration

    def wrap_span(self, fn, name: str, layer: str):
        hook = _HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name, layer)
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    hook(span, args, kwargs, result)
                return result
            finally:
                self.close(span)

        return traced

    def wrap_leaf(self, fn, name: str):
        clock = time.perf_counter
        stack = self.stack

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                span = stack[-1]
                acc = span.leaves.get(name)
                if acc is None:
                    span.leaves[name] = [1, dt]
                else:
                    acc[0] += 1
                    acc[1] += dt
                span.child_s += dt

        return counted

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Put the wrappers in place of the library attributes."""
        import importlib

        wrapped: dict[int, object] = {}
        sites = [(m, a, n, layer, False) for m, a, n, layer in SPANS]
        sites += [(m, a, n, layer, True) for m, a, n, layer in LEAVES]
        for module_name, attr, name, layer, leaf in sites:
            owner = importlib.import_module(module_name)
            *path, last = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            fn = getattr(owner, last)
            if id(fn) not in wrapped:
                wrapped[id(fn)] = (self.wrap_leaf(fn, name) if leaf
                                   else self.wrap_span(fn, name, layer))
            self._installed.append((owner, last, fn))
            setattr(owner, last, wrapped[id(fn)])

    def uninstall(self) -> None:
        for owner, last, fn in reversed(self._installed):
            setattr(owner, last, fn)
        self._installed.clear()

    # -- output ------------------------------------------------------------

    def write(self, path) -> None:
        index = {id(s): i for i, s in enumerate(self.spans)}
        rows = [
            {"name": s.name, "layer": s.layer, "start": s.start, "end": s.end,
             "parent": None if s.parent is None else index[id(s.parent)],
             "op": s.op, "self_s": s.self_s,
             "leaves": {k: {"count": c, "s": t} for k, (c, t) in s.leaves.items()},
             **({"info": s.info} if s.info else {})}
            for s in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": rows}, fh)


# counter hooks: extra counts read from a call's arguments and result


def _refine_hook(span, args, kwargs, result):
    span.info["seeds"] = len(args[0])
    span.info["points"] = len(result)


def _blowup_hook(span, args, kwargs, result):
    # an extrapolated call only combines two nested refining calls
    n_iters = args[4] if len(args) > 4 else kwargs["n_iters"]
    extrapolate = args[6] if len(args) > 6 else kwargs.get("extrapolate", False)
    span.info["refines"] = not (extrapolate and n_iters >= 2)


_HOOKS = {
    "geometry.refine_path_view": _refine_hook,
    "invariant.rf_blowup": _blowup_hook,
}


# ---------------------------------------------------------------------------
# per-layer metrics


def _outermost(spans, name):
    """Spans of this name not nested inside another of the same name."""
    out = []
    for s in spans:
        if s.name != name:
            continue
        p = s.parent
        while p is not None and p.name != name:
            p = p.parent
        if p is None:
            out.append(s)
    return out


def _inclusive_s(spans, *names) -> float:
    return sum(s.duration for n in names for s in _outermost(spans, n))


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Every per-layer metric, as plain numbers (0 where a layer is not reached)."""
    spans = [s for s in tracer.spans if s.end is not None]
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
    leaf_count = defaultdict(int)
    leaf_s = defaultdict(float)
    layer_self = dict.fromkeys(LAYERS, 0.0)
    leaf_layer = {n: layer for _, _, n, layer in LEAVES}
    for s in spans:
        if s.layer in layer_self:
            layer_self[s.layer] += s.self_s
        for name, (count, t) in s.leaves.items():
            leaf_count[name] += count
            leaf_s[name] += t
            layer_self[leaf_layer[name]] += t

    def self_of(*names):
        return sum(s.self_s for n in names for s in by_name[n])

    loops = len(by_name["invariant.rf_loop"])
    lifts = len(by_name["invariant.rf_lift"])
    blowup_refines = sum(1 for s in by_name["invariant.rf_blowup"] if s.info.get("refines"))
    values = loops + lifts + blowup_refines

    value_spans = by_name["invariant.value"]
    value_calls = len(value_spans)
    loop_parents = {id(s.parent) for s in by_name["invariant.rf_loop"] if s.parent is not None}
    computed = [v for v in value_spans if id(v) in loop_parents]
    attempts = [v.leaves.get("invariant.connecting_path", [0, 0.0])[0] for v in computed]
    first_try = sum(1 for a in attempts if a == 1)
    retries = sum(max(a - 1, 0) for a in attempts)

    refines = by_name["geometry.refine_path_view"]
    seeds = sum(s.info.get("seeds", 0) for s in refines)
    points = sum(s.info.get("points", 0) for s in refines)
    evals = leaf_count["maps.eval_map"]

    m = {
        "maps.eval_calls": evals,
        "maps.eval_s": leaf_s["maps.eval_map"],
        "maps.eval_us_per_pt": 1e6 * _ratio(leaf_s["maps.eval_map"], evals),
        "maps.evals_per_value": _ratio(evals, values),
        "maps.iterate_s": _inclusive_s(spans, "maps.iterate_spec"),
        "geometry.refine_calls": len(refines),
        "geometry.refine_seeds": seeds,
        "geometry.refine_points": points,
        "geometry.points_per_value": _ratio(points, values),
        "geometry.bisect_share": _ratio(points - seeds, points),
        "geometry.refine_self_s": self_of("geometry.refine_path_view"),
        "geometry.turns_s": leaf_s["geometry.path_turns"],
        "geometry.winding_s": _inclusive_s(spans, "geometry.winding_number"),
        "geometry.mobius_calls": leaf_count["geometry.apply_mobius"],
        "geometry.mobius_s": leaf_s["geometry.apply_mobius"],
        "invariant.values": values,
        "invariant.value_calls": value_calls,
        "invariant.cache_hits": value_calls - len(computed),
        "invariant.cache_hit_ratio": _ratio(value_calls - len(computed), value_calls),
        "invariant.computed": len(computed),
        "invariant.first_try": first_try,
        "invariant.first_try_ratio": _ratio(first_try, len(computed)),
        "invariant.retries": retries,
        "invariant.loop_s": _inclusive_s(spans, "invariant.rf_loop"),
        "invariant.lift_s": _inclusive_s(spans, "invariant.rf_lift"),
        "invariant.value_self_s": self_of("invariant.value"),
        "invariant.trace_s": _inclusive_s(spans, "invariant.synthesize_twist_trace"),
        "invariant.blowup_s": _inclusive_s(spans, "invariant.rf_blowup"),
        "intersection.loop_class_calls": len(by_name["intersection.loop_class"]),
        "intersection.loop_class_s": _inclusive_s(spans, "intersection.loop_class"),
        "scenario.load_s": _inclusive_s(spans, "scenario.load_scenario"),
        "report.write_s": _inclusive_s(spans, "report.write_json", "report.write_csv"),
        "cli.compute_self_s": self_of("cli.main", "cli.cmd_compute"),
        "algebra.build_s": _inclusive_s(spans, "algebra.build_f_from_g"),
        "algebra.symmetry_s": _inclusive_s(spans, "algebra.verify_triple_symmetry"),
        "algebra.relations_s": _inclusive_s(spans, "algebra.check_relations"),
        "algebra.decompose_s": _inclusive_s(spans, "algebra.decompose_g"),
        "catalog.build_s": _inclusive_s(spans, "catalog.identity_scenarios",
                                        "catalog.homomorphism_pairs"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self[layer]

    op_spans = by_name[OP_SPAN]
    m["trace.spans"] = sum(1 for s in spans if s.layer in LAYERS)
    m["trace.unaccounted_share"] = _ratio(sum(s.self_s for s in op_spans),
                                          sum(s.duration for s in op_spans))
    return m
