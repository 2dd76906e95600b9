"""Command line front end.

Three subcommands:

  compute   evaluate the invariant for every tuple of a scenario file
  verify    run the verification suites (identities, matrices, tables)
  rep       print the 3x3 matrices attached to a permutation

Exit codes: 0 success, 1 verification failures, 2 validation errors,
3 numerical failures.  Reports are deterministic byte-for-byte for a
fixed scenario and seed (no timestamps, sorted records).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import random
import sys

from .algebra import (
    FunctionTable,
    all_permutations,
    build_f_from_g,
    check_relations,
    decompose_g,
    mat_mul,
    mat_vec,
    normalize_g,
    parse_cycles,
    quadratic_table,
    rf_table,
    theta,
    theta_action,
    theta_kernel_image,
    verify_triple_symmetry,
    MAT_ID,
)
from .catalog import homomorphism_pairs, identity_scenarios
from .errors import (
    CoincidentPoints,
    GeometryFailure,
    InconclusiveComputation,
    MixedCoincidence,
    NotFixed,
    ParseError,
    RelationViolated,
    ScenarioError,
    TangentCondition,
)
from .geometry import DEFAULT_TOL, Tolerances, snap_turns
from .invariant import (
    TUPLE_IDENTITIES,
    BlowupEstimate,
    MarkedTuple,
    RfEvaluator,
    _loop_and_lift,
    identity_record,
    rf_loop,  # unused here; kept as the name perfbench's tracer wraps
    rf_mixed,
    rf_trace,
    signed_sum,
    synthesize_twist_trace,
    tuple_terms,
    verify_rf_identities,
)
from .maps import Compose, _require_fixed
from .report import PASS, Report, _fmt_value, make_record
from .scenario import Scenario, load_scenario, tolerances_from_json

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3

SUITES = ("rf-symmetries", "theta", "f-symmetry", "decompose")

# scenarios whose full value tables are built during verify; five points
# each keeps the 120-tuple tables quick
TABLE_SCENARIO_NAMES = ("twist-by-2", "twist-negative-inner", "conjugate-generic")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built once per process (parsing leaves it
    unchanged), so repeated in-process calls of main do not rebuild it."""
    parser = argparse.ArgumentParser(
        prog="rotquad",
        description="Rotation invariants of marked sphere homeomorphisms.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", help="write the JSON report here")
        p.add_argument("--csv", help="write the record table as CSV here")
        p.add_argument("--seed", type=int, default=None,
                       help="override the scenario seed")
        p.add_argument("--tol-winding", type=float, default=None,
                       help="override the winding snap tolerance")

    p_compute = sub.add_parser("compute", help="evaluate scenario tuples")
    p_compute.add_argument("scenario", help="scenario JSON file")
    p_compute.add_argument("--method", choices=("loop", "lift", "trace", "all"),
                           default=None, help="override the scenario method")
    p_compute.add_argument("--iters", type=int, default=10_000,
                           help="n for the 2/n bound reported with each blow-up, "
                                "whose value is its limit")
    p_compute.add_argument("--extrapolate", action="store_true",
                           help="mark blow-ups extrapolated; their values are "
                                "limits and do not change")
    common(p_compute)

    p_verify = sub.add_parser("verify", help="run verification suites")
    p_verify.add_argument("scenario", nargs="?", default=None,
                          help="scenario JSON file (default: built-in battery)")
    p_verify.add_argument("--suite", choices=SUITES + ("all",), default="all")
    common(p_verify)

    p_rep = sub.add_parser("rep", help="print the matrices of a permutation")
    p_rep.add_argument("--perm", required=True,
                       help='cycle notation, e.g. "(12)(34)" or "e"')
    return parser


def _tol(args, base: Tolerances = DEFAULT_TOL) -> Tolerances:
    """base, with the --tol-winding override when one is given."""
    overrides = None if args.tol_winding is None else {"winding_snap": args.tol_winding}
    return tolerances_from_json(overrides, base)


def _emit(report: Report, args, verbose_records: bool) -> None:
    if verbose_records:
        for rec in report.sorted_records():
            vals = ", ".join(_fmt_value(v) for v in rec.values)
            print(f"{rec.name} {rec.inputs}: [{vals}] {rec.status}")
    else:
        for rec in report.sorted_records():
            if rec.status != PASS:
                vals = ", ".join(_fmt_value(v) for v in rec.values)
                print(f"{rec.status.upper()} {rec.name} {rec.inputs}: [{vals}]")
    counts = report.counts()
    print(
        f"{len(report.records)} checks: "
        f"{counts[PASS]} pass, {counts['fail']} fail, "
        f"{counts['inconclusive']} inconclusive"
    )
    if args.out:
        report.write_json(args.out)
    if args.csv:
        report.write_csv(args.csv)


# ---------------------------------------------------------------------------
# compute


def _matching_paths(scenario: Scenario, t: MarkedTuple):
    for name, path in sorted(scenario.paths.items()):
        if t.x3.is_infinity or t.x4.is_infinity:
            continue
        if path.start == t.x3.value and path.end == t.x4.value:
            yield name, path


def cmd_compute(args) -> int:
    scenario = load_scenario(args.scenario)
    tol = _tol(args, scenario.tolerances)
    seed = scenario.seed if args.seed is None else args.seed
    method = args.method or scenario.method
    methods = ("loop", "lift", "trace") if method == "all" else (method,)

    report = Report(config={
        "command": "compute",
        "scenario": scenario.name,
        "seed": seed,
        "method": method,
        "iters": args.iters,
        "extrapolate": bool(args.extrapolate),
    })
    ev = RfEvaluator(scenario.map_spec, tol, seed)
    # refused up front, naming the budget: a map whose one evaluation exceeds
    # it; the budget, every value and every trace read the evaluator's chart
    _require_fixed(ev._chart(ev.spec)[3], (), tol)

    for names in scenario.tuples:
        label = "(" + ",".join(names) + ")"
        pts = scenario.resolve(names)

        if len(names) == 5:
            _, indices, coefficients = TUPLE_IDENTITIES["split_first_pair_through_w"]
            report.add(identity_record(
                "split_through_w", label, "R(x) = R(x1,w,x3,x4) + R(w,x2,x3,x4)",
                signed_sum, tuple_terms(ev, pts, indices, coefficients)))
            continue

        t = MarkedTuple(*pts)
        kind = t.classify()
        if kind == "degenerate_pair":
            report.add(make_record(
                "value", label, "repeated pair, zero by convention", (0,), True))
            continue
        if kind == "mixed":
            est = rf_mixed(scenario.map_spec, t, args.iters, tol, args.extrapolate)
            if isinstance(est, BlowupEstimate):
                report.add(make_record(
                    "value[blowup]", label,
                    f"single blow-up estimate, n_iters={est.n_iters}",
                    (est.value, est.error_bound), True))
            else:
                report.add(make_record(
                    "value[blowup]", label, "double blow-up (exact)", (est,), True))
            continue

        values = {}
        for m in methods:
            try:
                if m in ("loop", "lift"):
                    values[m] = ev.value(*pts)
                else:
                    try:
                        trace = synthesize_twist_trace(scenario.map_spec, t, tol=tol, ev=ev)
                    except ScenarioError:
                        if method == "trace":
                            raise
                        continue
                    values[m] = rf_trace(trace, tol)
            except InconclusiveComputation:
                report.add(make_record(f"value[{m}]", label, "invariant value", (), None))
                continue
            report.add(make_record(
                f"value[{m}]", label, "invariant value", (values[m],), True))
        if len(set(values.values())) > 1:
            report.add(make_record(
                "methods_agree", label, "all requested methods give one value",
                tuple(values.values()), False))

        for pname, path in _matching_paths(scenario, t):
            try:
                v = snap_turns(_loop_and_lift(*ev._refined(t, path))[0], tol)
            except GeometryFailure:
                report.add(make_record(
                    f"declared_path[{pname}]", label, "declared path value", (), None))
                continue
            ref = values.get("loop")
            ok = True if ref is None else v == ref
            report.add(make_record(
                f"declared_path[{pname}]", label,
                "declared path agrees with the generated one", (v,), ok))

    _emit(report, args, verbose_records=True)
    return EXIT_OK if report.failures == 0 else EXIT_NUMERICAL


# ---------------------------------------------------------------------------
# verify suites


def _prefix(records, scope: str):
    return [dataclasses.replace(r, inputs=f"{scope} | {r.inputs}") for r in records]


def _suite_rf_symmetries(scenarios, seed_override, args) -> list:
    records = []
    for sc in scenarios:
        tol = _tol(args, sc.tolerances)
        seed = sc.seed if seed_override is None else seed_override
        pts = [sc.points[k] for k in sorted(sc.points)]
        records.extend(_prefix(
            verify_rf_identities(sc.map_spec, None, pts, tol, seed), sc.name))
    tol = _tol(args)
    for pair in homomorphism_pairs():
        seed = 0 if seed_override is None else seed_override
        rows = ((1, RfEvaluator(pair.f, tol, seed)), (1, RfEvaluator(pair.g, tol, seed)),
                (-1, RfEvaluator(Compose((pair.f, pair.g)), tol, seed)))
        pts = pair.points
        tuples = [pts[:4]]
        if len(pts) >= 5:
            tuples.append((pts[0], pts[1], pts[2], pts[4]))
        for idx, tu in enumerate(tuples):
            records.append(identity_record(
                "composition_adds", f"{pair.name} tuple{idx}", "R_of_composition = R_f + R_g",
                signed_sum, [(c, ev, tu) for c, ev in rows]))
    return records


def _suite_theta() -> list:
    records = []
    kernel, image_size = theta_kernel_image()  # building the table asserts well-definedness
    records.append(make_record(
        "theta_well_defined", "all 24 permutations",
        "matrix independent of the generator factorization", (True,), True))

    kernel_names = tuple(p.cycle_notation() for p in kernel)
    expected_kernel = {"e", "(12)(34)", "(13)(24)", "(14)(23)"}
    records.append(make_record(
        "theta_kernel", "kernel elements", "the three double transpositions and e",
        kernel_names, set(kernel_names) == expected_kernel and len(kernel) == 4))
    records.append(make_record(
        "theta_image_size", "distinct matrices", "exactly 6", (image_size,),
        image_size == 6))

    m13 = theta(parse_cycles("(13)"))
    records.append(make_record(
        "theta_of_(13)", "matrix entries",
        "((0,-1,0),(-1,0,0),(0,0,-1))", tuple(v for row in m13 for v in row),
        m13 == ((0, -1, 0), (-1, 0, 0), (0, 0, -1))))

    m_klein = theta(parse_cycles("(13)(24)"))
    records.append(make_record(
        "theta_of_(13)(24)", "matrix entries", "the identity matrix",
        tuple(v for row in m_klein for v in row), m_klein == MAT_ID))

    gen_ok = True
    s1, s2 = parse_cycles("(12)"), parse_cycles("(23)")
    m1, m2 = theta(s1), theta(s2)
    gen_ok = gen_ok and mat_mul(m1, m1) == MAT_ID
    gen_ok = gen_ok and mat_mul(m2, m2) == MAT_ID
    m12 = mat_mul(m1, m2)
    gen_ok = gen_ok and mat_mul(m12, mat_mul(m12, m12)) == MAT_ID
    records.append(make_record(
        "theta_generator_relations", "involutions and the braid product",
        "M1^2 = M2^2 = (M1 M2)^3 = identity", (gen_ok,), gen_ok))

    tau = parse_cycles("(123)")
    transport = theta_action(tau)
    rotated = mat_vec(transport, (1, 10, -11))
    records.append(make_record(
        "theta_action_transport", "cycle (123) on the triple (1, 10, -11)",
        "components rotate left", rotated, rotated == (10, -11, 1)))

    hom_ok = True
    perms = all_permutations()
    rng = random.Random(7)
    for _ in range(40):
        p, q = rng.choice(perms), rng.choice(perms)
        if theta(p.compose(q)) != mat_mul(theta(p), theta(q)):
            hom_ok = False
            break
    records.append(make_record(
        "theta_homomorphism", "40 random pairs",
        "theta(p o q) = theta(p) theta(q)", (hom_ok,), hom_ok))
    return records


def _random_g(rng, labels) -> dict:
    return {(u, v): rng.randint(-9, 9) for u in labels for v in labels}


def _random_cyclic_g(rng, labels) -> dict:
    """Random g whose four-term table satisfies the cyclic identity.

    The cyclic sum of a four-term table equals the three-term alternating
    sum of the antisymmetric part of g, so it vanishes for every tuple
    exactly when that part telescopes.  Draw a symmetric core plus a
    row/column shift; the shift is killed outright by the four-term sum,
    so the table is the same as for the core alone but g itself stays
    generic-looking.
    """
    sym: dict = {}
    for i, u in enumerate(labels):
        for v in labels[i:]:
            sym[(u, v)] = sym[(v, u)] = rng.randint(-9, 9)
    shift = {u: rng.randint(-9, 9) for u in labels}
    return {(u, v): sym[(u, v)] + shift[u] - shift[v] for u in labels for v in labels}


def _build_tables(scenario, seed_override, args) -> list[tuple[str, FunctionTable]]:
    """(name, invariant table) of the given scenario, or else of each built-in
    table scenario; built once per verify run for the two table suites."""
    scenarios = [scenario] if scenario is not None else [
        sc for sc in identity_scenarios() if sc.name in TABLE_SCENARIO_NAMES]
    tables = []
    for sc in scenarios:
        seed = sc.seed if seed_override is None else seed_override
        pts = [sc.points[k] for k in sorted(sc.points)]
        tables.append((sc.name, rf_table(sc.map_spec, pts, _tol(args, sc.tolerances), seed)))
    return tables


def _suite_f_symmetry(tables, seed_override) -> list:
    records = []
    rng = random.Random(20 if seed_override is None else seed_override)
    labels = tuple(range(5))
    last_table = None
    for i in range(10):
        g = _random_cyclic_g(rng, labels)
        table = build_f_from_g(g)
        sym = verify_triple_symmetry(table)
        records.append(make_record(
            "triple_symmetry", f"random g-table {i}",
            "triple at permuted tuple = matrix transport, all 24 x 120",
            (sym.checked,), sym.passed))
        rel = check_relations(table)
        records.append(make_record(
            "table_relations", f"random g-table {i}",
            "cyclic sum, swap signs, splitting",
            tuple(r.passed for r in rel.values()),
            all(r.passed for r in rel.values())))
        last_table = table

    perturbed = last_table.perturbed(next(iter(last_table.distinct_tuples())), 1)
    sym = verify_triple_symmetry(perturbed)
    records.append(make_record(
        "perturbation_detected", "random g-table 9 with one entry shifted",
        "a single-entry perturbation must break the symmetry",
        (sym.passed,), not sym.passed))

    for name, table in tables:
        sym = verify_triple_symmetry(table)
        records.append(make_record(
            "triple_symmetry", f"invariant table of {name}",
            "triple at permuted tuple = matrix transport, all 24 sigma",
            (sym.checked,), sym.passed))
        rel = check_relations(table)
        records.append(make_record(
            "table_relations", f"invariant table of {name}",
            "cyclic sum, swap signs, splitting",
            tuple(r.passed for r in rel.values()),
            all(r.passed for r in rel.values())))
    return records


def _suite_decompose(tables, seed_override) -> list:
    records = []

    q = quadratic_table(range(5))
    g = decompose_g(q, 0, 0)
    ok = all(g[(u, v)] == u * v for u in range(5) for v in range(5))
    records.append(make_record(
        "decompose_quadratic", "total table of (x1-x2)(x3-x4) on 0..4",
        "slice recovers g(u,v) = u v exactly", (ok,), ok))

    rng = random.Random(21 if seed_override is None else seed_override + 1)
    labels = tuple(range(5))
    for i in range(5):
        g0 = normalize_g(_random_g(rng, labels), 0, 1)
        table = build_f_from_g(g0)
        g1 = decompose_g(table, 0, 1)
        records.append(make_record(
            "decompose_round_trip", f"normalized random g-table {i}",
            "decompose(build(g)) = g exactly", (g1 == g0,), g1 == g0))

    for name, table in tables:
        try:
            g = decompose_g(table)
        except RelationViolated:
            records.append(make_record(
                "decompose_invariant_table", f"invariant table of {name}",
                "a two-variable table reproduces every entry", (), False))
            continue
        rebuilt = build_f_from_g(g, table.labels)
        ok = all(
            rebuilt(t) == table(t) for t in table.distinct_tuples()
        )
        records.append(make_record(
            "decompose_invariant_table", f"invariant table of {name}",
            "a two-variable table reproduces every entry",
            (len(g), ok), ok))
    return records


def cmd_verify(args) -> int:
    scenario = load_scenario(args.scenario) if args.scenario else None
    suites = SUITES if args.suite == "all" else (args.suite,)
    seed_override = args.seed

    report = Report(config={
        "command": "verify",
        "suites": list(suites),
        "scenario": scenario.name if scenario else "built-in battery",
        "seed": "per-scenario" if seed_override is None else seed_override,
    })

    tables = None  # built when the first table suite runs
    for suite in suites:
        if suite == "rf-symmetries":
            scenarios = [scenario] if scenario else list(identity_scenarios())
            report.extend(_suite_rf_symmetries(scenarios, seed_override, args))
        elif suite == "theta":
            report.extend(_suite_theta())
        else:
            if tables is None:
                tables = _build_tables(scenario, seed_override, args)
            table_suite = _suite_f_symmetry if suite == "f-symmetry" else _suite_decompose
            report.extend(table_suite(tables, seed_override))

    _emit(report, args, verbose_records=False)
    return EXIT_OK if report.failures == 0 else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# rep


def _print_matrix(mat) -> None:
    for row in mat:
        print("  [" + " ".join(f"{v:>2d}" for v in row) + "]")


def cmd_rep(args) -> int:
    sigma = parse_cycles(args.perm)
    print(f"permutation {sigma.cycle_notation()}  (images {sigma.images})")
    print("theta (matrix of the element):")
    _print_matrix(theta(sigma))
    print("theta_action (transport of triples under the tuple action):")
    _print_matrix(theta_action(sigma))
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "compute":
            return cmd_compute(args)
        if args.command == "verify":
            return cmd_verify(args)
        return cmd_rep(args)
    except (ScenarioError, ParseError, NotFixed, CoincidentPoints,
            MixedCoincidence, ValueError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (GeometryFailure, InconclusiveComputation, TangentCondition) as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
