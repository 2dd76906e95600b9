"""Seeded inputs, the op of each workload, and the correctness oracle.

Every workload is a list of ops built from ``--seed`` alone.  Ops are
grouped in rounds: one round is one pass over the workload's fixed op mix,
each op with freshly drawn inputs, so a run of whole rounds has the same
mix of op costs on every seed and no two ops share inputs.

Each op goes through four steps:

  generate  (setup)    draw the inputs, encode them as JSON with the
                       library's own codecs, write them to the work dir
  prepare   (setup)    read them back and decode them
  call      (timed)    the library call that is the op
  check     (untimed)  compare what came back with the frozen reference

References are the values of the untransformed catalog tuples, frozen in
``reference.json`` (see ``freeze_reference.py``).  The invariant does not
depend on the chart, so a chart-changed input must give exactly the frozen
value.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from pathlib import Path

WORKLOADS = ("catalog-compute", "identity-verify", "blowup-sweep")

REFERENCE_FILE = Path(__file__).with_name("reference.json")

# identity-verify runs the full identity suite on this fixed sample of the
# catalog.  Suites cost 0.4 s to 16 s each, so a seeded draw from all 27
# would change the op mix, and with it every timing, from seed to seed.
# The sample holds the Compose-with-Inverse scenario and a Power scenario,
# where map evaluation dominates, and one cheap plain twist.
SUITE_SAMPLE = ("compose-with-inverse", "power-square", "twist-by-0")
GTABLES_PER_ROUND = 4
GTABLE_LABELS = tuple(range(6))

# blowup-sweep: iteration counts, and how many strata split (0, 1) for the
# rotation angle alpha.  Op cost grows with n_iters * alpha, and the median
# op sits between cost levels of this grid, so alpha is drawn close to the
# middle of its stratum and each (n_iters, stratum) cell is extrapolated in
# every other round: the cost profile of a run, and with it the median and
# tail latency, is then the same on every seed.
BLOWUP_LADDER = (250, 500, 1000, 2000, 4000)
ALPHA_STRATA = 4
ALPHA_JITTER = 0.1  # of a stratum's width, either side of its middle
DOUBLE_BLOWUPS_PER_ROUND = 2

DOUBLE_BLOWUP_TOL = 1e-12


class OpResult:
    """What the oracle made of one op: wrong values found, and whether it failed."""

    __slots__ = ("wrong", "failed", "detail")

    def __init__(self, wrong: int = 0, failed: bool = False, detail: str = ""):
        self.wrong = wrong
        self.failed = failed or wrong > 0
        self.detail = detail


def load_reference() -> dict:
    with open(REFERENCE_FILE, encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# seeded chart changes


def draw_chart(rng: random.Random, stratum: tuple[int, int] = (0, 1)):
    """An affine chart change z -> a z + b with |a| in [1/2, 2].

    log2|a| is drawn from part k of m equal parts of [-1, 1], for
    stratum (k, m).  Returned as the Mobius map H = h^{-1} that a
    MobiusConjugate node applies first, so conjugating a spec by H gives
    h o f o h^{-1}.
    """
    from rotquad import MobiusTransform

    k, m = stratum
    turn = rng.uniform(0.0, math.tau)
    a = 2.0 ** (-1.0 + 2.0 * (k + rng.random()) / m) * complex(math.cos(turn), math.sin(turn))
    b = complex(rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0))
    return MobiusTransform(1, -b, 0, a)


def chart_scenario(sc, H):
    """The scenario moved by the chart change: map, points and declared paths.
    With H None the scenario is returned as it is."""
    from rotquad import MobiusConjugate, Polyline, Scenario, apply_mobius, as_sphere_point

    if H is None:
        return sc
    h = H.inverse()

    def move(p):
        return apply_mobius(h, as_sphere_point(p))

    paths = {
        name: Polyline(tuple(move(v).value for v in path.vertices), closed=path.closed)
        for name, path in sc.paths.items()
    }
    return Scenario(
        name=sc.name,
        map_spec=MobiusConjugate(H, sc.map_spec),
        points={nm: move(p) for nm, p in sc.points.items()},
        tuples=sc.tuples,
        paths=paths,
        method=sc.method,
        seed=sc.seed,
        tolerances=sc.tolerances,
    )


# ---------------------------------------------------------------------------
# generate: seed -> JSON-encoded op list


def build_catalog():
    from rotquad import catalog

    return catalog.identity_scenarios(), catalog.homomorphism_pairs()


def generate(workload: str, seed: int, rounds: int, workdir: Path, catalog) -> list[dict]:
    """The op list for ``rounds`` rounds, with any input files written to workdir."""
    rng = random.Random(f"{workload}|{seed}")
    make = {
        "catalog-compute": _gen_catalog_compute,
        "identity-verify": _gen_identity_verify,
        "blowup-sweep": _gen_blowup_sweep,
    }[workload]
    ops: list[dict] = []
    for op in make(rng, catalog, workdir, rounds):
        op["id"] = len(ops)
        ops.append(op)
    return ops


# The op builders below take a chart change H; with H None they build the op
# on the untransformed catalog entry, as freeze_reference.py does.


def compute_op(sc, H, path: Path) -> dict:
    """``rotquad compute`` on the scenario in chart H, written to path."""
    from rotquad import save_scenario

    save_scenario(chart_scenario(sc, H), path)
    return {"kind": "compute", "scenario": sc.name, "file": str(path),
            "report": str(path.with_suffix(".report.json"))}


def suite_op(sc, H) -> dict:
    """The identity suite on the scenario in chart H."""
    from rotquad import scenario_to_json

    return {"kind": "suite", "scenario": sc.name,
            "input": scenario_to_json(chart_scenario(sc, H))}


def hom_op(pair, H) -> dict:
    """The values of f, g and f o g of a homomorphism pair in chart H."""
    from rotquad import MobiusConjugate, apply_mobius
    from rotquad.scenario import map_to_json, point_to_json

    f, g, points = pair.f, pair.g, pair.points[:4]
    if H is not None:
        h = H.inverse()
        f, g = MobiusConjugate(H, f), MobiusConjugate(H, g)
        points = [apply_mobius(h, p) for p in points]
    return {"kind": "hom", "pair": pair.name, "f": map_to_json(f), "g": map_to_json(g),
            "points": [point_to_json(p) for p in points]}


def scale_strata(rng, names, rounds: int) -> dict:
    """For each name, the chart-scale stratum of each round: a shuffled
    0..rounds-1.  Op cost depends on the chart scale, so a run of whole
    rounds takes each input through the whole range of scales, not through
    a seeded sample of it, and costs about the same on every seed."""
    return {name: rng.sample(range(rounds), rounds) for name in names}


def _gen_catalog_compute(rng, catalog, workdir: Path, rounds: int):
    scenarios, _ = catalog
    strata = scale_strata(rng, [sc.name for sc in scenarios], rounds)
    for r in range(rounds):
        for sc in scenarios:
            H = draw_chart(rng, (strata[sc.name][r], rounds))
            yield compute_op(sc, H, workdir / f"round{r:02d}-{sc.name}.json")


def _gen_identity_verify(rng, catalog, workdir: Path, rounds: int):
    scenarios, pairs = catalog
    by_name = {sc.name: sc for sc in scenarios}
    strata = scale_strata(rng, [*SUITE_SAMPLE, *(pair.name for pair in pairs)], rounds)
    for r in range(rounds):
        suites = [suite_op(by_name[name], draw_chart(rng, (strata[name][r], rounds)))
                  for name in SUITE_SAMPLE]
        homs = [_gen_hom(rng, pair, (strata[pair.name][r], rounds)) for pair in pairs]
        tables = [_gen_gtable(rng) for _ in range(GTABLES_PER_ROUND)]
        # interleave so that every stretch of a round mixes the three op kinds
        streams = [suites, homs, tables]
        while any(streams):
            for s in streams:
                if s:
                    yield s.pop(0)


def _gen_hom(rng, pair, stratum: tuple[int, int] = (0, 1)) -> dict:
    return hom_op(pair, draw_chart(rng, stratum))


def cyclic_g(rng, labels) -> dict:
    """A random g whose table F satisfies the cyclic relation: a symmetric
    core plus a coboundary shift(u) - shift(v)."""
    sym = {}
    for i, u in enumerate(labels):
        for v in labels[i:]:
            sym[(u, v)] = sym[(v, u)] = rng.randint(-9, 9)
    shift = {u: rng.randint(-9, 9) for u in labels}
    return {(u, v): sym[(u, v)] + shift[u] - shift[v] for u in labels for v in labels}


def _gen_gtable(rng) -> dict:
    from rotquad.scenario import g_to_json

    labels = GTABLE_LABELS
    a, b = rng.sample(labels, 2)
    return {
        "kind": "gtable",
        "labels": list(labels),
        "g": g_to_json(cyclic_g(rng, labels)),
        "anchors": [a, b],
        "perturb": rng.sample(labels, 4),
        "delta": rng.choice((-2, -1, 1, 2)),
    }


def _gen_blowup_sweep(rng, catalog, workdir: Path, rounds: int):
    cells = [(n, k) for n in BLOWUP_LADDER for k in range(ALPHA_STRATA)]
    extrapolate_first = {cell: rng.random() < 0.5 for cell in cells}
    for r in range(rounds):
        for n, k in cells:
            alpha = (k + 0.5 + rng.uniform(-ALPHA_JITTER, ALPHA_JITTER)) / ALPHA_STRATA
            yield blowup_op(rng, alpha, n, extrapolate_first[n, k] == (r % 2 == 0))
        for _ in range(DOUBLE_BLOWUPS_PER_ROUND):
            yield double_blowup_op(rng, rng.uniform(0.02, 0.98))


def _rotation_twist(alpha: float):
    from rotquad import RadialProfile, RadialTwist

    return RadialTwist(RadialProfile(((1.0, alpha), (2.0, 0.0))))


def blowup_op(rng, alpha: float, n_iters: int, extrapolate: bool) -> dict:
    """A single blow-up at 0 of the rigid rotation by alpha turns, read
    against a far point on the identity zone; the exact value is -alpha,
    or +alpha with the second pair swapped."""
    from rotquad.scenario import map_to_json

    r, t = rng.uniform(2.5, 6.0), rng.uniform(0.0, math.tau)
    far = [r * math.cos(t), r * math.sin(t)]
    swapped = rng.random() < 0.5
    origin = [0.0, 0.0]
    tup = [origin, "inf", far, origin] if swapped else [origin, "inf", origin, far]
    return {"kind": "blowup", "map": map_to_json(_rotation_twist(alpha)), "tuple": tup,
            "n_iters": n_iters, "extrapolate": extrapolate,
            "expect": alpha if swapped else -alpha}


def double_blowup_op(rng, alpha: float) -> dict:
    from rotquad.scenario import map_to_json

    swapped = rng.random() < 0.5
    origin = [0.0, 0.0]
    tup = [origin, "inf", "inf", origin] if swapped else [origin, "inf", origin, "inf"]
    return {"kind": "double", "map": map_to_json(_rotation_twist(alpha)), "tuple": tup,
            "expect": alpha if swapped else -alpha}


# ---------------------------------------------------------------------------
# prepare: decode the written inputs


def write_ops(ops: list[dict], path: Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(ops, fh)


def read_ops(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        ops = json.load(fh)
    for op in ops:
        op["args"] = _decode(op)
    return ops


def _decode(op: dict):
    from rotquad import MarkedTuple, scenario_from_json
    from rotquad.scenario import g_from_json, map_from_json, point_from_json

    kind = op["kind"]
    if kind == "compute":
        return ["compute", op["file"], "--method", "all", "--out", op["report"]]
    if kind == "suite":
        sc = scenario_from_json(op["input"])
        return sc.map_spec, [sc.points[k] for k in sorted(sc.points)], sc.tolerances, sc.seed
    if kind == "hom":
        return (map_from_json(op["f"]), map_from_json(op["g"]),
                [point_from_json(p) for p in op["points"]])
    if kind == "gtable":
        return g_from_json(op["g"]), tuple(op["labels"])
    if kind in ("blowup", "double"):
        return map_from_json(op["map"]), MarkedTuple(*(point_from_json(p) for p in op["tuple"]))
    raise ValueError(f"unknown op kind {kind!r}")


# ---------------------------------------------------------------------------
# call: the op itself.  Library entry points are looked up on their module
# at call time, so the span recorder's wrappers see these calls.


def call(op: dict):
    import rotquad.algebra as algebra
    import rotquad.cli as cli
    import rotquad.invariant as invariant
    from rotquad.maps import Compose

    kind, args = op["kind"], op["args"]
    if kind == "compute":
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(args)
    if kind == "suite":
        spec, pts, tol, seed = args
        return invariant.verify_rf_identities(spec, None, pts, tol, seed)
    if kind == "hom":
        f, g, pts = args
        return (invariant.RfEvaluator(f).value(*pts),
                invariant.RfEvaluator(g).value(*pts),
                invariant.RfEvaluator(Compose((f, g))).value(*pts))
    if kind == "gtable":
        g, labels = args
        F = algebra.build_f_from_g(g, labels)
        a, b = op["anchors"]
        perturbed = F.perturbed(tuple(op["perturb"]), op["delta"])
        return (algebra.verify_triple_symmetry(F), algebra.check_relations(F),
                algebra.decompose_g(F, a, b), algebra.verify_triple_symmetry(perturbed))
    if kind == "blowup":
        spec, t = args
        return invariant.rf_mixed(spec, t, op["n_iters"], extrapolate=op["extrapolate"])
    if kind == "double":
        spec, t = args
        return invariant.rf_mixed(spec, t)
    raise ValueError(f"unknown op kind {kind!r}")


# ---------------------------------------------------------------------------
# check: the oracle


def check(op: dict, result, error: str | None, ref: dict) -> OpResult:
    """Judge one op.  A raise is a failure; every value that disagrees with
    the reference is a wrong value (and fails the op too)."""
    if error is not None:
        return OpResult(failed=True, detail=error)
    return _CHECKS[op["kind"]](op, result, ref)


def _compare_records(got: list, want: list) -> OpResult:
    """Records are [name, inputs, values, status]; inconclusive ones fail
    the op, and any other difference from the reference is a wrong value."""
    got_by_key = {(r[0], r[1]): r for r in got}
    want_by_key = {(r[0], r[1]): r for r in want}
    wrong, failed, notes = 0, False, []
    for key, r in got_by_key.items():
        if r[3] == "inconclusive":
            failed = True
            notes.append(f"inconclusive {key}")
        elif key not in want_by_key or r[2:] != want_by_key[key][2:]:
            wrong += 1
            notes.append(f"got {r} want {want_by_key.get(key)}")
    missing = set(want_by_key) - set(got_by_key)
    wrong += len(missing)
    notes += [f"missing {key}" for key in sorted(missing)]
    return OpResult(wrong, failed, "; ".join(notes))


def report_records(path) -> list:
    with open(path, encoding="utf-8") as fh:
        report = json.load(fh)
    return [[r["name"], r["inputs"], r["values"], r["status"]] for r in report["records"]]


def _check_compute(op, code, ref) -> OpResult:
    """The report is compared whatever the exit code: the command writes it
    and then exits non-zero when a record fails, as when two methods disagree."""
    try:
        got = report_records(op["report"])
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return OpResult(failed=True, detail=f"exit code {code}, no readable report: {exc}")
    verdict = _compare_records(got, ref["compute"][op["scenario"]])
    if code != 0:
        verdict = OpResult(verdict.wrong, True, f"exit code {code}; {verdict.detail}")
    return verdict


def suite_records(records) -> list:
    return [[r.name, r.inputs, list(r.values), r.status] for r in records]


def _check_suite(op, records, ref) -> OpResult:
    return _compare_records(suite_records(records), ref["suite"][op["scenario"]])


def _check_hom(op, values, ref) -> OpResult:
    want = ref["hom"][op["pair"]]
    wrong = sum(g != w for g, w in zip(values, want))
    a, b, c = values
    wrong += c != a + b
    return OpResult(wrong, detail="" if not wrong else f"got {values} want {want}")


def _check_gtable(op, result, ref) -> OpResult:
    from rotquad import normalize_g

    symmetry, relations, g_back, perturbed_symmetry = result
    g, labels = op["args"]
    n = len(labels)
    a, b = op["anchors"]
    want_g = normalize_g(g, a, b)
    failures = [
        not symmetry.passed,
        symmetry.checked != 24 * n * (n - 1) * (n - 2) * (n - 3),
        *(not rel.passed for rel in relations.values()),
        any(g_back[k] != v for k, v in want_g.items()),
        perturbed_symmetry.passed,
    ]
    wrong = sum(failures)
    return OpResult(wrong, detail="" if not wrong else f"table checks {failures}")


def _check_blowup(op, est, ref) -> OpResult:
    n = op["n_iters"]
    ok = (abs(est.value - op["expect"]) <= est.error_bound
          and est.error_bound <= 2.0 / n and est.n_iters == n)
    return OpResult(0 if ok else 1, detail="" if ok else f"got {est} want {op['expect']}")


def _check_double(op, value, ref) -> OpResult:
    ok = abs(value - op["expect"]) <= DOUBLE_BLOWUP_TOL
    return OpResult(0 if ok else 1, detail="" if ok else f"got {value} want {op['expect']}")


_CHECKS = {
    "compute": _check_compute,
    "suite": _check_suite,
    "hom": _check_hom,
    "gtable": _check_gtable,
    "blowup": _check_blowup,
    "double": _check_double,
}
