"""Scenario files, report determinism, and the command line front end."""

import cmath
import json
import math
import os
import random
import tempfile
import time
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rotquad import (
    INFINITY,
    Compose,
    Inverse,
    MobiusConjugate,
    MobiusTransform,
    Polyline,
    Power,
    RadialProfile,
    RadialTwist,
    ScenarioError,
    SpherePoint,
    load_scenario,
    save_scenario,
    scenario_from_json,
    scenario_to_json,
)
from rotquad.catalog import golden_twist_scenario, identity_scenarios
from rotquad import invariant, maps
from rotquad.cli import main
from rotquad.report import Report, _dumps
from rotquad.geometry import DEFAULT_TOL
from rotquad.scenario import (
    g_from_json,
    g_to_json,
    map_from_json,
    map_to_json,
    tolerances_from_json,
)

from helpers import scenario_by_name

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


# ---------------------------------------------------------------------------
# serialization


def test_scenario_json_round_trip():
    sc = golden_twist_scenario(2)
    assert scenario_from_json(scenario_to_json(sc)) == sc
    # declared marks survive on every node type
    for spec in (Inverse(sc.map_spec, marks=(0j,)), Power(2, sc.map_spec, marks=(INFINITY,))):
        assert map_from_json(map_to_json(spec)) == spec


def test_all_catalog_scenarios_round_trip():
    for sc in identity_scenarios():
        assert scenario_from_json(scenario_to_json(sc)) == sc


def test_save_load_round_trip(tmp_path):
    sc = golden_twist_scenario(-1)
    path = tmp_path / "twist.json"
    save_scenario(sc, path)
    assert load_scenario(path) == sc
    # the file is plain JSON with the required sections
    raw = json.loads(path.read_text())
    assert "map" in raw and "points" in raw


def test_load_rejects_junk(tmp_path):
    path = tmp_path / "junk.json"
    path.write_text("{not json")
    with pytest.raises(ScenarioError):
        load_scenario(path)
    path2 = tmp_path / "empty.json"
    path2.write_text("{}")
    with pytest.raises(ScenarioError):
        load_scenario(path2)


def test_infinity_and_polyline_codecs():
    sc = golden_twist_scenario(1)
    blob = scenario_to_json(sc)
    names = [n for n, p in sc.points.items() if p.is_infinity]
    assert names, "golden scenario should mark infinity"
    back = scenario_from_json(blob)
    assert back.points[names[0]] == INFINITY


def test_tolerance_overrides():
    base = tolerances_from_json({"winding_snap": 0.25})
    assert base.winding_snap == 0.25
    with pytest.raises(ScenarioError):
        tolerances_from_json({"winding_snap": 0.5})
    with pytest.raises(ScenarioError):
        tolerances_from_json({"no_such_knob": 1.0})


def test_table_codec_with_fractions():
    # a g-table's rationals survive the trip as exact p/q strings
    g = {(0, 1): Fraction(3, 2), (1, 0): Fraction(-7, 3), (1, 1): 4}
    assert g_to_json(g) == {"entries": [[0, 1, "3/2"], [1, 0, "-7/3"], [1, 1, 4]]}
    assert g_from_json(g_to_json(g)) == g
    with pytest.raises(ScenarioError):
        g_from_json({"entries": [[0, 1, "not a fraction"]]})


# ---------------------------------------------------------------------------
# the command line


def _write_golden(tmp_path, m=2):
    path = tmp_path / f"twist{m}.json"
    save_scenario(golden_twist_scenario(m), path)
    return path


def test_cli_compute_exit_zero_and_deterministic_report(tmp_path, capsys):
    sc_path = _write_golden(tmp_path)
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    assert main(["compute", str(sc_path), "--out", str(out1)]) == 0
    assert main(["compute", str(sc_path), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    payload = json.loads(out1.read_text())
    assert payload["summary"]["fail"] == 0
    assert payload["summary"]["inconclusive"] == 0
    assert payload["records"], "compute should emit records"


def test_cli_compute_writes_csv(tmp_path):
    sc_path = _write_golden(tmp_path, m=1)
    csv_path = tmp_path / "records.csv"
    assert main(["compute", str(sc_path), "--csv", str(csv_path)]) == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0].startswith("name,")
    assert len(lines) > 1


def test_cli_compute_validation_exit(tmp_path, capsys):
    sc_path = _write_golden(tmp_path)
    blob = json.loads(sc_path.read_text())
    # move a marked point off its fixed circle
    for name, val in blob["points"].items():
        if val != "inf" and val != [0.0, 0.0]:
            blob["points"][name] = [1.3, 0.0]
            break
    bad = sc_path.with_name("bad.json")
    bad.write_text(json.dumps(blob))
    assert main(["compute", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "NotFixed" in err


@pytest.mark.parametrize("field, value", [
    ("tuples", 5),
    ("tolerances", {"max_refine_points": "big"}),
    ("paths", [1, 2]),
    ("map", {"type": "power", "q": 2.7, "inner": {"type": "identity"}}),
    ("map", {"type": "power", "q": True, "inner": {"type": "identity"}}),
    ("tolerances", {"winding_snap": 0.6}),
    ("tolerances", {"winding_snap": 0}),
    ("tolerances", {"jitter_attempts": -1}),
    ("tolerances", {"max_refine_points": 0}),
    ("tolerances", {"eps_edge": -1e-9}),
    ("tolerances", {"fixed_tol": float("inf")}),
    ("map", {"type": "radial_twist", "profile": [[1, 0], [float("inf"), 1]]}),
    ("map", {"type": "radial_twist", "profile": [["1", 0], [2, 1]]}),
    ("map", {"type": "radial_twist", "profile": [[1, 0], [2, float("nan")]]}),
    ("seed", 1.7),
    ("seed", True),
    ("paths", {"beta-detour": {"closed": "no", "vertices": [[0.5, 0], [0.5, -1.5], [2.5, -1.5],
                                                             [2.5, 0]]}}),
    ("name", [1, 2]),
    ("name", 7),
    ("paths", {"beta-detour": {"closed": True, "vertices": [[0.5, 0], [0.5, -1.5], [2.5, -1.5],
                                                             [2.5, 0]]}}),
])
def test_cli_malformed_scenario_field_exits_2(tmp_path, capsys, field, value):
    blob = json.loads((SCENARIOS / "twist-by-1.json").read_text())
    blob[field] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(blob))
    assert main(["compute", str(bad)]) == 2
    err = capsys.readouterr().err.strip()
    assert err.startswith("error: ScenarioError:") and "\n" not in err


@pytest.mark.parametrize("snap", ["0.6", "0", "nan"])
def test_cli_tol_winding_out_of_range_exits_2(capsys, snap):
    args = ["compute", str(SCENARIOS / "twist-by-1.json"), "--tol-winding", snap]
    assert main(args) == 2
    err = capsys.readouterr().err.strip()
    assert err.startswith("error: ScenarioError:") and "\n" not in err


def test_cli_over_budget_twist_has_an_exact_trace(tmp_path):
    # ten million turns: the loop and lift are inconclusive once their
    # refinement runs out, while the trace reads its one run exactly
    blob = json.loads((SCENARIOS / "twist-by-1.json").read_text())
    blob["map"]["profile"] = [[1, 0], [2, 1e7]]
    blob["tolerances"] = {"max_refine_points": 4096}
    path, out = tmp_path / "steep.json", tmp_path / "report.json"
    path.write_text(json.dumps(blob))
    start = time.perf_counter()
    assert main(["compute", str(path), "--method", "all", "--out", str(out)]) == 3
    assert time.perf_counter() - start < 10.0
    records = {r["name"]: r for r in json.loads(out.read_text())["records"]
               if r["inputs"] == "(q1,q2,q3,q4)"}
    for method in ("loop", "lift"):
        assert records[f"value[{method}]"]["status"] == "inconclusive"
        assert records[f"value[{method}]"]["values"] == []
    assert records["value[trace]"]["status"] == "pass"
    assert records["value[trace]"]["values"] == ["10000000"]


def test_cli_inconclusive_split_keeps_its_relation(tmp_path):
    # one refined point is never enough, so every loop value is inconclusive
    blob = json.loads((SCENARIOS / "twist-by-2.json").read_text())
    blob["tolerances"] = {"max_refine_points": 1}
    path, out = tmp_path / "starved.json", tmp_path / "report.json"
    path.write_text(json.dumps(blob))
    assert main(["compute", str(path), "--out", str(out)]) == 3
    (record,) = [r for r in json.loads(out.read_text())["records"]
                 if r["name"] == "split_through_w"]
    assert (record["status"], record["values"]) == ("inconclusive", [])
    assert record["relation"] == "R(x) = R(x1,w,x3,x4) + R(w,x2,x3,x4)"


def test_cli_trace_holds_a_point_near_the_circle(tmp_path):
    # x1 inside x4's circle |z| = 1.001 but outside its inscribed 24-gon
    q1 = 0.999 * cmath.exp(1j * math.pi / 24)
    blob = json.loads((SCENARIOS / "twist-by-1.json").read_text())
    blob["map"]["profile"] = [[1, 0], [1.001, 1]]
    blob["points"].update(q1=[q1.real, q1.imag], q4=[1.001, 0.0])
    blob["tuples"] = [["q1", "q2", "q3", "q4"]]
    path, out = tmp_path / "near.json", tmp_path / "report.json"
    path.write_text(json.dumps(blob))
    assert main(["compute", str(path), "--method", "trace", "--out", str(out)]) == 0
    (record,) = json.loads(out.read_text())["records"]
    assert (record["name"], record["status"], record["values"]) == ("value[trace]", "pass", ["1"])
    assert main(["compute", str(path), "--method", "all", "--out", str(out)]) == 0
    records = json.loads(out.read_text())["records"]
    assert {r["name"] for r in records} == {"value[loop]", "value[lift]", "value[trace]"}
    assert all(r["status"] == "pass" and r["values"] == ["1"] for r in records)


@pytest.mark.parametrize("q", [10**400, 2**53 + 1, -2**53], ids=["1e400", "2**53+1", "-2**53"])
def test_cli_power_exponent_beyond_exact_floats_exits_2(tmp_path, capsys, q):
    # 10**400 overflows a float profile; 2**53 + 1 turns round to 2**53
    blob = json.loads((SCENARIOS / "power-square.json").read_text())
    blob["map"]["q"] = q
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(blob))
    assert main(["compute", str(path), "--method", "trace"]) == 2
    err = capsys.readouterr().err.strip()
    assert err.startswith("error: ScenarioError:") and "\n" not in err


def test_cli_trace_of_a_rounded_profile_sum_is_inconclusive(tmp_path):
    # coaxial twists with end values 2**53 and 1: by additivity the value is
    # 2**53 + 1, which the summed float profile rounds to 2**53
    blob = json.loads((SCENARIOS / "twist-by-1.json").read_text())
    blob["map"] = {"type": "compose", "parts": [
        {"type": "radial_twist", "profile": [[1, 0], [2, 2**53]]},
        {"type": "radial_twist", "profile": [[1, 0], [2, 1]]},
    ]}
    blob["tuples"] = [["q1", "q2", "q3", "q4"]]
    path, out = tmp_path / "coaxial.json", tmp_path / "report.json"
    path.write_text(json.dumps(blob))
    assert main(["compute", str(path), "--method", "trace", "--out", str(out)]) == 3
    (record,) = json.loads(out.read_text())["records"]
    assert (record["name"], record["status"], record["values"]) == (
        "value[trace]", "inconclusive", [])


def test_cli_verify_tol_winding_reaches_the_homomorphism_pairs(tmp_path, monkeypatch):
    import rotquad.cli as cli

    snaps = []

    class Spy(cli.RfEvaluator):
        def __init__(self, spec, tol=DEFAULT_TOL, seed=0):
            snaps.append(tol.winding_snap)
            super().__init__(spec, tol, seed)

    monkeypatch.setattr(cli, "RfEvaluator", Spy)
    args = ["verify", str(SCENARIOS / "twist-by-1.json"), "--suite", "rf-symmetries",
            "--tol-winding", "1e-17", "--out", str(tmp_path / "report.json")]
    main(args)  # at so tight a snap some values are inconclusive
    assert len(snaps) == 3 * len(cli.homomorphism_pairs())
    assert set(snaps) == {1e-17}


def _json_paths(node, path=()):
    """The key path of every value below the root of a JSON tree."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield path + (key,)
        yield from _json_paths(child, path + (key,))


_DELETE = object()
_JSON_VALUES = st.one_of(
    st.sampled_from([0, 1, -1, 10**7, -10**7, 2**63, 10**400, 1e308, -1e308, 5e-324,
                     float("nan"), float("inf"), "", "inf", "compose", True, False, None,
                     [], [[0, 0]], {}, {"type": "identity"}]),
    st.integers(), st.floats(), st.text(max_size=4), st.booleans(),
    st.lists(st.one_of(st.integers(-3, 3), st.floats(-4, 4)), max_size=3),
    st.dictionaries(st.sampled_from(["type", "q", "inner", "profile"]), st.integers(-2, 2),
                    max_size=2),
)


@st.composite
def _mutated_scenarios(draw):
    """A catalog scenario with a small refinement budget and one JSON value
    replaced or deleted."""
    blob = json.loads(draw(st.sampled_from(sorted(SCENARIOS.glob("*.json")))).read_text())
    blob.setdefault("tolerances", {})["max_refine_points"] = 4096
    where = draw(st.sampled_from(list(_json_paths(blob))))
    value = draw(st.one_of(st.just(_DELETE), _JSON_VALUES))
    parent = blob
    for key in where[:-1]:
        parent = parent[key]
    if value is _DELETE:
        del parent[where[-1]]
    else:
        parent[where[-1]] = value
    return blob


# The same 500 mutations on every run, with no example database to replay a
# failure from an earlier run.  With ROTQUAD_FUZZ_EXAMPLES set, that many
# fresh mutations are drawn instead, from pytest's --hypothesis-seed:
#   ROTQUAD_FUZZ_EXAMPLES=2000 python -m pytest tests/test_scenario_cli.py \
#       -k survives_any_single_mutation --hypothesis-seed=<seed>
_FUZZ_EXAMPLES = os.environ.get("ROTQUAD_FUZZ_EXAMPLES")


@given(_mutated_scenarios())
@settings(max_examples=int(_FUZZ_EXAMPLES or 500), deadline=None,
          derandomize=_FUZZ_EXAMPLES is None, database=None)
def test_cli_compute_survives_any_single_mutation(blob):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "mutant.json"
        path.write_text(json.dumps(blob))
        assert main(["compute", str(path)]) in (0, 2, 3)


def test_cli_missing_file_is_validation_error(tmp_path):
    assert main(["compute", str(tmp_path / "absent.json")]) == 2


def test_cli_seed_precedence(tmp_path, monkeypatch):
    sc_path = _write_golden(tmp_path)

    def seed_of(args):
        out = tmp_path / "seedprobe.json"
        assert main(["compute", str(sc_path), "--out", str(out), *args]) == 0
        return json.loads(out.read_text())["config"]["seed"]

    assert seed_of([]) == 0  # scenario default
    monkeypatch.setenv("ROTQUAD_SEED", "7")
    assert seed_of([]) == 7  # environment beats the scenario
    assert seed_of(["--seed", "11"]) == 11  # flag beats the environment
    monkeypatch.setenv("ROTQUAD_SEED", "junk")
    assert main(["compute", str(sc_path)]) == 2  # junk env is a hard error
    assert seed_of(["--seed", "3"]) == 3  # unless the flag preempts it


def test_cli_verify_single_suite(tmp_path):
    out = tmp_path / "theta.json"
    assert main(["verify", "--suite", "theta", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["summary"]["fail"] == 0
    assert payload["summary"]["pass"] > 0


def test_cli_verify_scenario_file(tmp_path, monkeypatch):
    import rotquad.cli as cli

    builds = []
    real = cli.rf_table

    def counting(*args, **kwargs):
        builds.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "rf_table", counting)
    sc_path = _write_golden(tmp_path, m=1)
    assert main(["verify", str(sc_path)]) == 0
    assert len(builds) == 1  # one table, shared by the f-symmetry and decompose suites


def test_cli_rep(capsys):
    assert main(["rep", "--perm", "(13)"]) == 0
    out = capsys.readouterr().out
    assert "(13)" in out
    assert "-1" in out
    assert main(["rep", "--perm", "(99)"]) == 2


def test_catalog_lookup():
    sc = scenario_by_name("twist-by-2")
    assert sc.name == "twist-by-2"
    with pytest.raises(KeyError):
        scenario_by_name("no-such-scenario")


def test_cli_compute_refuses_a_chained_power_past_the_budget(tmp_path, capsys):
    twist = RadialTwist(RadialProfile(((1, 0.25), (2, 0))))
    chained = Power(10**7, Compose((twist, MobiusConjugate(MobiusTransform(1, -0.5, 0, 1), twist))))
    points = {"a": SpherePoint(5), "b": SpherePoint(-5), "c": SpherePoint(6j), "d": SpherePoint(-6j)}
    sc = replace(golden_twist_scenario(1), map_spec=chained, points=points,
                 tuples=(("a", "b", "c", "d"),), paths={})
    path = tmp_path / "chained.json"
    save_scenario(sc, path)
    for method in ("loop", "all"):
        start = time.perf_counter()
        assert main(["compute", str(path), "--method", method]) == 3
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert "BudgetExhausted" in err and "max_refine_points=1048576" in err


# ---------------------------------------------------------------------------
# the report writer, and how often one compute command reads its spec


def test_every_catalog_report_is_written_as_json_dumps_writes_it(tmp_path, monkeypatch):
    written = []
    to_json = Report.to_json

    def compared(report):
        text = to_json(report)
        assert text == json.dumps(report.as_dict(), indent=2, sort_keys=True) + "\n"
        written.append(report)
        return text

    monkeypatch.setattr(Report, "to_json", compared)
    for path in sorted(SCENARIOS.glob("*.json")):
        assert main(["compute", str(path), "--method", "all",
                     "--out", str(tmp_path / "report.json")]) == 0
    assert len(written) == 27


def _json_value(rng: random.Random, depth: int = 0):
    """A random value json.dumps accepts: nested lists, tuples and dicts
    (keys of one kind each), and leaves with NaN, infinities, -0.0, big
    ints and non-ASCII, quote and control characters."""
    text = lambda: "".join(rng.choice('ab"\\/\n\t\x00é€😀 ') for _ in range(rng.randrange(6)))
    leaves = (text, lambda: rng.randint(-10**30, 10**30), lambda: rng.randint(-3, 3),
              lambda: rng.choice([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e300]),
              lambda: rng.uniform(-1e6, 1e6), lambda: rng.choice([None, True, False]))
    kind = rng.randrange(9 if depth < 4 else 6)
    if kind < 6:
        return leaves[kind]()
    items = [_json_value(rng, depth + 1) for _ in range(rng.randrange(4))]
    if kind == 6:
        return items
    if kind == 7:
        return tuple(items)
    key = rng.choice([text, lambda: rng.randint(-9, 9), lambda: rng.uniform(-9, 9),
                      lambda: rng.choice([True, False]), lambda: None])
    return {key(): v for v in items}


def test_the_report_writer_is_json_dumps_on_random_values():
    rng = random.Random(20250)
    for _ in range(2000):
        value = _json_value(rng)
        assert _dumps(value) == json.dumps(value, indent=2, sort_keys=True), value


def test_cli_compute_walks_and_compiles_its_spec_once(tmp_path, monkeypatch):
    # the budget check, every value and every tuple's trace read the one
    # evaluator's chart; the spec is reduced for the traces once
    calls = []
    for module, name in ((invariant, "_charted_steps"), (invariant, "twist_chart"),
                         (invariant, "require_fixed"), (maps, "compile_map")):
        def counted(*args, real=getattr(module, name), name=name, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    tuples = (("q1", "q2", "q3", "q4"), ("q2", "q1", "q4", "q3"), ("q1", "q2", "q4", "q5"))
    path, out = tmp_path / "three.json", tmp_path / "report.json"
    save_scenario(replace(golden_twist_scenario(2), tuples=tuples), path)
    assert main(["compute", str(path), "--method", "all", "--out", str(out)]) == 0
    assert calls == ["_charted_steps", "twist_chart"]
    records = json.loads(out.read_text())["records"]
    assert sum(r["name"] == "value[trace]" and r["status"] == "pass" for r in records) == 3
