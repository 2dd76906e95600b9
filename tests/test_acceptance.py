"""Acceptance gate: the nine go/no-go checks, one pass/fail line each.

Each test prints a single [PASS]/[FAIL] line (visible under pytest -s and
in captured output) and asserts the criterion at its stated tolerance.
"""

import json
import random
import time
from pathlib import Path

from rotquad import (
    Compose,
    DegenerateCrossing,
    INFINITY,
    MarkedTuple,
    RfEvaluator,
    SpherePoint,
    build_f_from_g,
    connecting_path,
    decompose_g,
    iterate_spec,
    loop_class,
    normalize_g,
    quadratic_table,
    rf_blowup,
    rf_double_blowup,
    rf_lift,
    rf_loop,
    signed_crossing_sum,
    verify_rf_identities,
    verify_triple_symmetry,
)
from rotquad.algebra import (
    MAT_ID,
    all_permutations,
    act_on_tuple,
    f_triple,
    mat_mul,
    mat_vec,
    parse_cycles,
    rf_table,
    theta,
    theta_action,
    theta_kernel_image,
)
from rotquad.catalog import (
    golden_twist_spec,
    homomorphism_pairs,
    identity_scenarios,
    sqrt2_blowup_spec,
)
from rotquad.report import PASS

from helpers import double_blowup_spec, loop_path_instance, scenario_by_name

GOLDEN = json.loads((Path(__file__).parent / "golden" / "twist_rf.json").read_text())


def _verdict(num: int, label: str, ok: bool, detail: str = ""):
    tag = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[{tag}] criterion {num}: {label}{suffix}")
    assert ok, f"criterion {num}: {label}{suffix}"


def test_criterion_1_twist_family_exactness():
    t = MarkedTuple(0j, INFINITY, 0.5 + 0j, 3 + 0j)
    beta = connecting_path(0.5 + 0j, 3 + 0j, avoid=(0j,))
    ok = True
    worst = 0.0
    for m in range(-3, 4):
        spec = golden_twist_spec(m)
        t0 = time.perf_counter()
        a = rf_loop(spec, t, beta)
        t1 = time.perf_counter()
        b = rf_lift(spec, t, beta)
        t2 = time.perf_counter()
        worst = max(worst, t1 - t0, t2 - t1)
        ok &= a == b == GOLDEN[str(m)] and abs(a) == abs(m)
        ok &= (t1 - t0) < 1.0 and (t2 - t1) < 1.0
    _verdict(1, "twist family exact, both methods, golden signs, < 1 s each",
             ok, f"slowest call {worst:.3f} s")


def test_criterion_2_identity_suite_over_scenarios():
    scenarios = identity_scenarios()
    n_bad = 0
    n_inconclusive = 0
    for sc in scenarios:
        pts = [sc.points[k] for k in sorted(sc.points)]
        for rec in verify_rf_identities(sc.map_spec, None, pts, sc.tolerances, sc.seed):
            if rec.status != PASS:
                n_bad += 1
            if rec.status == "inconclusive":
                n_inconclusive += 1
    ok = len(scenarios) >= 20 and n_bad == 0 and n_inconclusive == 0
    _verdict(2, "identity suite exact on the scenario battery", ok,
             f"{len(scenarios)} scenarios, {n_bad} non-pass, "
             f"{n_inconclusive} inconclusive")


def test_criterion_3_homomorphism():
    pairs = homomorphism_pairs()
    ok = len(pairs) >= 5
    for pair in pairs:
        tu = pair.points[:4]
        a = RfEvaluator(pair.f).value(*tu)
        b = RfEvaluator(pair.g).value(*tu)
        c = RfEvaluator(Compose((pair.f, pair.g))).value(*tu)
        ok &= c == a + b
    base = golden_twist_spec(1)
    tu = (0j, INFINITY, 0.5 + 0j, 3 + 0j)
    r1 = RfEvaluator(base).value(*tu)
    for n in (-2, 2, 3):
        rn = RfEvaluator(iterate_spec(base, n)).value(*tu)
        ok &= rn == n * r1
    _verdict(3, "composition adds and iteration scales, exactly", ok,
             f"{len(pairs)} pairs, base value {r1}")


def test_criterion_4_theta_suite():
    t0 = time.perf_counter()
    swap_outer = ((-1, 0, 0), (0, 0, -1), (0, -1, 0))
    swap_middle = ((0, 0, -1), (0, -1, 0), (-1, 0, 0))
    ok = theta(parse_cycles("(12)")) == swap_outer
    ok &= theta(parse_cycles("(34)")) == swap_outer
    ok &= theta(parse_cycles("(23)")) == swap_middle
    s1, s2, s3 = (theta(parse_cycles(c)) for c in ("(12)", "(23)", "(34)"))
    for s in (s1, s2, s3):
        ok &= mat_mul(s, s) == MAT_ID
    ok &= mat_mul(s1, s3) == mat_mul(s3, s1)
    ok &= mat_mul(s1, mat_mul(s2, s1)) == mat_mul(s2, mat_mul(s1, s2))
    ok &= mat_mul(s2, mat_mul(s3, s2)) == mat_mul(s3, mat_mul(s2, s3))
    kernel, image_size = theta_kernel_image()
    ok &= {p.cycle_notation() for p in kernel} == {"e", "(12)(34)", "(13)(24)", "(14)(23)"}
    ok &= image_size == 6
    ok &= theta(parse_cycles("(13)(24)")) == MAT_ID
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 0.1
    _verdict(4, "matrix representation matches the displays, < 0.1 s", ok,
             f"{elapsed * 1000:.1f} ms")


def _symmetric_core_shift_g(rng: random.Random, labels):
    sym = {}
    for i, u in enumerate(labels):
        for v in labels[i:]:
            sym[(u, v)] = sym[(v, u)] = rng.randint(-9, 9)
    shift = {u: rng.randint(-9, 9) for u in labels}
    return {(u, v): sym[(u, v)] + shift[u] - shift[v] for u in labels for v in labels}


def test_criterion_5_triple_transport():
    labels = tuple(range(5))
    rng = random.Random(20)
    ok = True
    tables = []
    for _ in range(10):
        tables.append(build_f_from_g(_symmetric_core_shift_g(rng, labels)))
    for name in ("twist-by-2", "twist-negative-inner", "conjugate-generic"):
        sc = scenario_by_name(name)
        pts = [sc.points[k] for k in sorted(sc.points)]
        tables.append(rf_table(sc.map_spec, pts, sc.tolerances, sc.seed))
    for F in tables:
        out = verify_triple_symmetry(F)
        ok &= out.passed and out.checked == 24 * 120
    # transport must also hold entrywise against the matrices themselves
    F0 = tables[0]
    for sigma in all_permutations():
        for x in F0.distinct_tuples():
            lhs = f_triple(F0, act_on_tuple(x, sigma))
            rhs = mat_vec(theta_action(sigma), f_triple(F0, x))
            ok &= lhs == rhs
    perturbed = tables[0].perturbed(next(iter(tables[0].distinct_tuples())), 1)
    ok &= not verify_triple_symmetry(perturbed).passed
    _verdict(5, "triple transport exact on 13 tables, perturbation detected",
             ok, f"{len(tables)} tables x 2880 checks")


def test_criterion_6_golden_proof_vectors():
    # a symmetric sparse g realizing (r, s) = (2, 5) on the base tuple
    labels = (1, 2, 3, 4)
    sparse = {(1, 3): 2, (3, 1): 2, (1, 2): 7, (2, 1): 7}
    g = {(u, v): sparse.get((u, v), 0) for u in labels for v in labels}
    F = build_f_from_g(g, labels)
    x = (1, 2, 3, 4)
    ok = f_triple(F, x) == (2, 5, -7)
    expected = {
        "(12)": (-2, 7, -5),
        "(23)": (7, -5, -2),
        "(34)": (-2, 7, -5),
    }
    for cyc, want in expected.items():
        sigma = parse_cycles(cyc)
        got = f_triple(F, act_on_tuple(x, sigma))
        ok &= got == want
        ok &= got == mat_vec(theta_action(sigma), (2, 5, -7))
    values = {F(act_on_tuple(x, sigma)) for sigma in all_permutations()}
    ok &= values <= {2, -2, 5, -5, 7, -7}
    _verdict(6, "permuted (2, 5) triples and 24-value set match", ok,
             f"values {sorted(values)}")


def test_criterion_7_decomposition():
    labels = tuple(range(5))
    rng = random.Random(21)
    ok = True
    for _ in range(5):
        raw = {(u, v): rng.randint(-9, 9) for u in labels for v in labels}
        g = normalize_g(raw, 0, 1)
        back = decompose_g(build_f_from_g(g, labels), 0, 1)
        ok &= all(back[k] == v for k, v in g.items())
    q = decompose_g(quadratic_table(labels), 0, 0)
    ok &= all(q[(u, v)] == u * v for u in labels for v in labels
              if u != 0 and v != 0)
    _verdict(7, "decompose inverts build; quadratic slice is u*v", ok)


def test_criterion_8_blowup_convergence():
    t0 = time.perf_counter()
    spec = sqrt2_blowup_spec()
    est = rf_blowup(spec, 0j, INFINITY, 3 + 0j, n_iters=10_000)
    exact = -(2.0 ** 0.5 - 1.0)
    err = abs(est.value - exact)
    ok = err < 1e-3
    ok &= est.error_bound == 2 / 10_000 and err <= est.error_bound
    both = rf_double_blowup(double_blowup_spec(), 0j, INFINITY)
    ok &= abs(both - 0.75) < 1e-9
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 5.0
    _verdict(8, "blow-up within 1e-3, bound contains error, double exact", ok,
             f"err {err:.2e}, {elapsed:.2f} s")


def test_criterion_9_pairing_oracle_equivalence():
    checked = 0
    seed = 0
    ok = True
    while checked < 100:
        loop, x1, x2, path, expected = loop_path_instance(seed)
        seed += 1
        try:
            crossings = signed_crossing_sum(path, loop)
        except DegenerateCrossing:
            continue  # tangency in the raw construction; take the next seed
        winding = loop_class(loop, SpherePoint(x1), SpherePoint(x2))
        ok &= crossings == winding == expected
        ok &= -5 <= expected <= 5
        checked += 1
    _verdict(9, "crossing pairing equals winding class on 100 instances", ok,
             f"{seed} seeds consumed")
