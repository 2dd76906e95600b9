"""Scenario files: JSON descriptions of a map, named marked points, the
tuples to evaluate, and optional replacement paths.

The schema is versioned ("rotquad-scenario-v1") and deliberately small:
everything is plain JSON so scenarios diff cleanly in review.  Complex
numbers are [re, im] pairs and the point at infinity is the string "inf".
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field, fields as dc_fields, replace
from fractions import Fraction

from .errors import ScenarioError
from .geometry import (
    DEFAULT_TOL,
    INFINITY,
    MobiusTransform,
    Polyline,
    SpherePoint,
    Tolerances,
)
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

SCHEMA = "rotquad-scenario-v1"
METHODS = ("loop", "lift", "trace", "all")


# ---------------------------------------------------------------------------
# primitive codecs


def _finite(obj, what: str) -> float:
    """A JSON number as a float; not a string, boolean, NaN, infinity or huge integer."""
    if type(obj) not in (int, float) or not abs(obj) <= sys.float_info.max:
        raise ScenarioError(f"{what} must be a finite number, got {obj!r}")
    return float(obj)


def _integer(obj, what: str) -> int:
    """A JSON integer (an integral float counts, a boolean does not)."""
    if type(obj) is not int and not (type(obj) is float and obj.is_integer()):
        raise ScenarioError(f"{what} must be an integer, got {obj!r}")
    return int(obj)


def complex_to_json(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def complex_from_json(obj) -> complex:
    if not (isinstance(obj, (list, tuple)) and len(obj) == 2):
        raise ScenarioError(f"expected [re, im], got {obj!r}")
    return complex(_finite(obj[0], "a real part"), _finite(obj[1], "an imaginary part"))


def point_to_json(p: SpherePoint):
    return "inf" if p.is_infinity else complex_to_json(p.value)


def point_from_json(obj) -> SpherePoint:
    if obj == "inf":
        return INFINITY
    return SpherePoint(complex_from_json(obj))


def mobius_to_json(h: MobiusTransform) -> list[list[float]]:
    return [complex_to_json(c) for c in (h.a, h.b, h.c, h.d)]


def mobius_from_json(obj) -> MobiusTransform:
    if not (isinstance(obj, list) and len(obj) == 4):
        raise ScenarioError(f"a mobius transform needs four coefficients, got {obj!r}")
    return MobiusTransform(*(complex_from_json(c) for c in obj))


def profile_to_json(profile: RadialProfile) -> list[list[float]]:
    return [[r, v] for r, v in profile.breakpoints]


def profile_from_json(obj) -> RadialProfile:
    if not (isinstance(obj, list) and obj):
        raise ScenarioError(f"a profile needs [[radius, value], ...], got {obj!r}")
    return RadialProfile(tuple((_finite(r, "a profile radius"), _finite(v, "a profile value"))
                               for r, v in obj))


def polyline_to_json(path: Polyline) -> dict:
    return {
        "vertices": [complex_to_json(v) for v in path.vertices],
        "closed": path.closed,
    }


def polyline_from_json(obj) -> Polyline:
    try:
        vertices = tuple(complex_from_json(v) for v in obj["vertices"])
        closed = obj.get("closed", False)
    except (KeyError, TypeError) as exc:
        raise ScenarioError(f"bad path object {obj!r}") from exc
    if type(closed) is not bool:
        raise ScenarioError(f"a path's 'closed' must be true or false, got {closed!r}")
    if closed:
        raise ScenarioError("a declared path connects two points and cannot be closed")
    return Polyline(vertices)


# ---------------------------------------------------------------------------
# map codec: a type-tagged tree


def _marks_to_json(marks) -> list:
    return [point_to_json(p) for p in marks]


def _marks_from_json(obj) -> tuple[SpherePoint, ...]:
    if obj is None:
        return ()
    return tuple(point_from_json(p) for p in obj)


def map_to_json(spec: MapSpec) -> dict:
    if isinstance(spec, Identity):
        out = {"type": "identity"}
    elif isinstance(spec, RadialTwist):
        out = {"type": "radial_twist", "profile": profile_to_json(spec.profile)}
    elif isinstance(spec, MobiusConjugate):
        out = {
            "type": "mobius_conjugate",
            "h": mobius_to_json(spec.h),
            "inner": map_to_json(spec.inner),
        }
    elif isinstance(spec, Compose):
        out = {"type": "compose", "parts": [map_to_json(p) for p in spec.parts]}
    elif isinstance(spec, Inverse):
        out = {"type": "inverse", "inner": map_to_json(spec.inner)}
    elif isinstance(spec, Power):
        out = {"type": "power", "q": spec.q, "inner": map_to_json(spec.inner)}
    else:
        raise ScenarioError(f"unknown map node {type(spec).__name__}")
    if spec.marks:
        out["marks"] = _marks_to_json(spec.marks)
    return out


def map_from_json(obj) -> MapSpec:
    if not isinstance(obj, dict) or "type" not in obj:
        raise ScenarioError(f"a map node must be a dict with a 'type', got {obj!r}")
    kind = obj["type"]
    try:
        marks = _marks_from_json(obj.get("marks"))
        if kind == "identity":
            return Identity(marks)
        if kind == "radial_twist":
            return RadialTwist(profile_from_json(obj["profile"]), marks)
        if kind == "mobius_conjugate":
            return MobiusConjugate(mobius_from_json(obj["h"]), map_from_json(obj["inner"]), marks)
        if kind == "compose":
            return Compose(tuple(map_from_json(p) for p in obj["parts"]), marks)
        if kind == "inverse":
            return Inverse(map_from_json(obj["inner"]), marks)
        if kind == "power":
            return Power(_integer(obj["q"], "a power exponent"), map_from_json(obj["inner"]), marks)
    except (KeyError, TypeError, ValueError) as exc:
        raise ScenarioError(f"bad {kind!r} map node: {exc}") from exc
    raise ScenarioError(f"unknown map type {kind!r}")


# ---------------------------------------------------------------------------
# tolerance overrides

_TOL_TYPES = {f.name: type(f.default) for f in dc_fields(Tolerances)}
# the least value of each integer field; float fields are non-negative
_TOL_INT_MIN = {"max_refine_points": 1, "jitter_attempts": 0}


def tolerances_from_json(obj, base: Tolerances = DEFAULT_TOL) -> Tolerances:
    if obj is None:
        return base
    if not isinstance(obj, dict):
        raise ScenarioError(f"tolerances must be a dict of overrides, got {obj!r}")
    unknown = obj.keys() - _TOL_TYPES.keys()
    if unknown:
        raise ScenarioError(f"unknown tolerance fields {sorted(unknown)!r}")
    checked = {}
    for name, value in obj.items():
        value = (_integer if _TOL_TYPES[name] is int else _finite)(value, f"tolerance {name!r}")
        least = _TOL_INT_MIN.get(name, 0)
        if value < least:
            raise ScenarioError(f"tolerance {name!r} must be at least {least}, got {value!r}")
        # every angle sum lies within one half of an integer, so a snap of
        # 0.5 or more would accept any sum as a whole number of turns
        if name == "winding_snap" and not 0 < value < 0.5:
            raise ScenarioError(f"tolerance 'winding_snap' must lie in (0, 0.5), got {value!r}")
        checked[name] = value
    return replace(base, **checked)


def tolerances_to_json(tol: Tolerances) -> dict:
    return {
        f.name: getattr(tol, f.name)
        for f in dc_fields(Tolerances)
        if getattr(tol, f.name) != getattr(DEFAULT_TOL, f.name)
    }


# ---------------------------------------------------------------------------
# scenarios


@dataclass(frozen=True)
class Scenario:
    """One runnable unit: a map with named points and tuples to evaluate.

    Tuples hold 4 point names, or 5 where the last name is the splitting
    point for the through-w identity.  Named paths, when present, are
    candidate replacements for the connecting path of a tuple with the
    same endpoints (used by the path-independence checks).
    """

    name: str
    map_spec: MapSpec
    points: dict[str, SpherePoint]
    tuples: tuple[tuple[str, ...], ...] = ()
    paths: dict[str, Polyline] = field(default_factory=dict)
    method: str = "all"
    seed: int = 0
    tolerances: Tolerances = DEFAULT_TOL

    def __post_init__(self):
        if self.method not in METHODS:
            raise ScenarioError(
                f"method must be one of {METHODS}, got {self.method!r}"
            )
        for nm in self.points:
            if not isinstance(nm, str) or not nm:
                raise ScenarioError(f"point names must be nonempty strings, got {nm!r}")
        object.__setattr__(
            self, "tuples", tuple(tuple(t) for t in self.tuples)
        )
        for t in self.tuples:
            if len(t) not in (4, 5):
                raise ScenarioError(f"tuples take 4 or 5 point names, got {t!r}")
            missing = [nm for nm in t if nm not in self.points]
            if missing:
                raise ScenarioError(f"tuple {t!r} names unknown points {missing!r}")

    def resolve(self, names) -> tuple[SpherePoint, ...]:
        return tuple(self.points[nm] for nm in names)


def scenario_to_json(sc: Scenario) -> dict:
    out = {
        "schema": SCHEMA,
        "name": sc.name,
        "seed": sc.seed,
        "method": sc.method,
        "map": map_to_json(sc.map_spec),
        "points": {nm: point_to_json(p) for nm, p in sorted(sc.points.items())},
        "tuples": [list(t) for t in sc.tuples],
    }
    if sc.paths:
        out["paths"] = {nm: polyline_to_json(p) for nm, p in sorted(sc.paths.items())}
    overrides = tolerances_to_json(sc.tolerances)
    if overrides:
        out["tolerances"] = overrides
    return out


def scenario_from_json(obj) -> Scenario:
    if not isinstance(obj, dict):
        raise ScenarioError("a scenario must be a JSON object")
    schema = obj.get("schema")
    if schema != SCHEMA:
        raise ScenarioError(f"unsupported schema {schema!r}; expected {SCHEMA!r}")
    if "map" not in obj or "points" not in obj:
        raise ScenarioError("a scenario needs 'map' and 'points'")
    try:
        points = {nm: point_from_json(p) for nm, p in obj["points"].items()}
    except AttributeError as exc:
        raise ScenarioError("'points' must be a name -> point object") from exc
    raw_paths = obj.get("paths", {})
    if not isinstance(raw_paths, dict):
        raise ScenarioError(f"'paths' must be a name -> path object, got {raw_paths!r}")
    paths = {nm: polyline_from_json(p) for nm, p in raw_paths.items()}
    raw_tuples = obj.get("tuples", [])
    if not (isinstance(raw_tuples, (list, tuple))
            and all(isinstance(t, (list, tuple)) and all(isinstance(nm, str) for nm in t)
                    for t in raw_tuples)):
        raise ScenarioError(f"'tuples' must be a list of lists of point names, got {raw_tuples!r}")
    name = obj.get("name", "scenario")
    if not isinstance(name, str):
        raise ScenarioError(f"'name' must be a string, got {name!r}")
    return Scenario(
        name=name,
        map_spec=map_from_json(obj["map"]),
        points=points,
        tuples=tuple(tuple(t) for t in raw_tuples),
        paths=paths,
        method=obj.get("method", "all"),
        seed=_integer(obj.get("seed", 0), "'seed'"),
        tolerances=tolerances_from_json(obj.get("tolerances")),
    )


def load_scenario(path) -> Scenario:
    with open(path, encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"{path}: not valid JSON ({exc})") from exc
    return scenario_from_json(obj)


def save_scenario(sc: Scenario, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(scenario_to_json(sc), fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# value-table codecs


def _value_to_json(v):
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}"
    return v


def _value_from_json(v):
    if isinstance(v, str):
        return Fraction(v)
    return v


def table_to_json(table) -> dict:
    """FunctionTable -> JSON; labels must themselves be JSON scalars."""
    return {
        "labels": list(table.labels),
        "values": [
            [list(t), _value_to_json(v)] for t, v in sorted(table.values.items())
        ],
    }


def table_from_json(obj):
    from .algebra import FunctionTable

    try:
        labels = tuple(obj["labels"])
        values = {
            tuple(t): _value_from_json(v) for t, v in obj["values"]
        }
    except (KeyError, TypeError, ValueError) as exc:
        raise ScenarioError(f"bad table object: {exc}") from exc
    return FunctionTable(labels, values)


def g_to_json(g: dict) -> dict:
    return {"entries": [[u, v, _value_to_json(val)] for (u, v), val in sorted(g.items())]}


def g_from_json(obj) -> dict:
    try:
        return {(u, v): _value_from_json(val) for u, v, val in obj["entries"]}
    except (KeyError, TypeError, ValueError) as exc:
        raise ScenarioError(f"bad g-table object: {exc}") from exc
