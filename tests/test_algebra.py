"""Permutation action, the 3x3 integer representation, and table decomposition."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rotquad import (
    FunctionTable,
    ParseError,
    Permutation,
    RelationViolated,
    act_on_tuple,
    all_permutations,
    build_f_from_g,
    check_relations,
    decompose_g,
    f_triple,
    normalize_g,
    parse_cycles,
    quadratic_table,
    table_from_function,
    theta,
    theta_action,
    theta_kernel_image,
    verify_triple_symmetry,
)
from rotquad import algebra
from rotquad.algebra import MAT_ID, mat_mul, mat_vec

IDENTITY = Permutation((1, 2, 3, 4))


# ---------------------------------------------------------------------------
# permutations


def test_permutation_validation():
    with pytest.raises(ValueError):
        Permutation((1, 1, 3, 4))
    with pytest.raises(ValueError):
        Permutation((0, 1, 2, 3))


def test_parse_cycles_golden_vector():
    # the three-cycle moving slots 1 -> 2 -> 3 -> 1 has image tuple (2,3,1,4)
    tau = parse_cycles("(123)")
    assert tau.images == (2, 3, 1, 4)
    assert act_on_tuple(("a", "b", "c", "d"), tau) == ("b", "c", "a", "d")


def test_parse_cycles_identity_forms():
    assert parse_cycles("e").images == (1, 2, 3, 4)
    assert parse_cycles("()").images == (1, 2, 3, 4)
    assert parse_cycles("(1)").images == (1, 2, 3, 4)


def test_parse_cycles_products_compose_left_to_right():
    # disjoint and overlapping products
    assert parse_cycles("(12)(34)").images == (2, 1, 4, 3)
    lhs = parse_cycles("(12)(23)")
    rhs = parse_cycles("(12)").compose(parse_cycles("(23)"))
    assert lhs == rhs


def test_parse_cycles_errors():
    for bad in ("(15)", "(1", "12)", "(11)", "(12)(21x)", "abc"):
        with pytest.raises(ParseError):
            parse_cycles(bad)


def test_cycle_notation_round_trip():
    for p in all_permutations():
        assert parse_cycles(p.cycle_notation()) == p


def test_action_is_a_right_action():
    x = ("p", "q", "r", "s")
    for p in all_permutations():
        for q in all_permutations():
            assert act_on_tuple(act_on_tuple(x, p), q) == act_on_tuple(x, p.compose(q))


def test_inverse_composes_to_identity():
    for p in all_permutations():
        assert p.compose(p.inverse()) == IDENTITY
        assert p.inverse().compose(p) == IDENTITY


# ---------------------------------------------------------------------------
# the matrix representation


SWAP_OUTER = ((-1, 0, 0), (0, 0, -1), (0, -1, 0))
SWAP_MIDDLE = ((0, 0, -1), (0, -1, 0), (-1, 0, 0))


def test_theta_generator_matrices():
    assert theta(parse_cycles("(12)")) == SWAP_OUTER
    assert theta(parse_cycles("(34)")) == SWAP_OUTER
    assert theta(parse_cycles("(23)")) == SWAP_MIDDLE


def test_theta_named_values():
    assert theta(parse_cycles("(13)")) == ((0, -1, 0), (-1, 0, 0), (0, 0, -1))
    assert theta(parse_cycles("(13)(24)")) == MAT_ID
    assert theta(IDENTITY) == MAT_ID


def test_theta_kernel_and_image():
    kernel, image_size = theta_kernel_image()
    expected = {
        parse_cycles("e"),
        parse_cycles("(12)(34)"),
        parse_cycles("(13)(24)"),
        parse_cycles("(14)(23)"),
    }
    assert set(kernel) == expected
    assert image_size == 6


def test_theta_is_a_homomorphism_exhaustively():
    for p in all_permutations():
        for q in all_permutations():
            assert theta(p.compose(q)) == mat_mul(theta(p), theta(q))


def test_theta_generator_relations():
    s1 = theta(parse_cycles("(12)"))
    s2 = theta(parse_cycles("(23)"))
    s3 = theta(parse_cycles("(34)"))
    for s in (s1, s2, s3):
        assert mat_mul(s, s) == MAT_ID
    assert mat_mul(s1, s3) == mat_mul(s3, s1)
    assert mat_mul(s1, mat_mul(s2, s1)) == mat_mul(s2, mat_mul(s1, s2))
    assert mat_mul(s2, mat_mul(s3, s2)) == mat_mul(s3, mat_mul(s2, s3))


def test_theta_action_is_an_anti_homomorphism():
    for p in all_permutations():
        for q in all_permutations():
            assert theta_action(p.compose(q)) == mat_mul(theta_action(q), theta_action(p))


def test_theta_preserves_the_zero_sum_plane():
    # each matrix must map zero-sum vectors to zero-sum vectors, which for
    # a linear map means equal column sums
    for p in all_permutations():
        m = theta(p)
        sums = {sum(m[i][j] for i in range(3)) for j in range(3)}
        assert len(sums) == 1
    v = (1, 10, -11)
    for p in all_permutations():
        assert sum(mat_vec(theta(p), v)) == 0


def test_theta_action_transport_example():
    tau = parse_cycles("(123)")
    assert mat_vec(theta_action(tau), (1, 10, -11)) == (10, -11, 1)


# ---------------------------------------------------------------------------
# function tables and triples


def test_function_table_conventions():
    F = quadratic_table(range(4))
    assert F((0, 0, 1, 2)) == 0  # repeated first pair pins the value
    assert F((1, 2, 3, 3)) == 0
    assert F((0, 1, 2, 3)) == (0 - 1) * (2 - 3)
    with pytest.raises(KeyError):
        FunctionTable((0, 1, 2, 3), {})((0, 1, 2, 3))
    assert FunctionTable((0, 1, 2, 3), {}).get((0, 1, 2, 3)) is None


def test_function_table_distinct_tuples_and_perturbation():
    F = quadratic_table(range(4))
    tuples = list(F.distinct_tuples())
    assert len(tuples) == 24
    assert F.is_total_on_distinct()
    G = F.perturbed((0, 1, 2, 3), 1)
    assert G((0, 1, 2, 3)) == F((0, 1, 2, 3)) + 1
    assert G((1, 0, 2, 3)) == F((1, 0, 2, 3))


def test_a_table_is_read_only():
    values = dict(quadratic_table(range(5)).values)
    F = FunctionTable(range(5), values)
    with pytest.raises(TypeError):
        F.values[(0, 1, 2, 3)] = 5
    # a change to the caller's dict after construction changes no answer,
    # neither of get nor of a check that first reads the table afterwards
    values[(0, 1, 2, 3)] += 1
    del values[(1, 0, 2, 3)]
    fresh = quadratic_table(range(5))
    assert F((0, 1, 2, 3)) == fresh((0, 1, 2, 3))
    assert F.get((1, 0, 2, 3)) == fresh.get((1, 0, 2, 3))
    assert verify_triple_symmetry(F) == verify_triple_symmetry(fresh)
    assert check_relations(F) == check_relations(fresh)
    assert decompose_g(F, 0, 1) == decompose_g(fresh, 0, 1)


def test_a_table_is_read_into_a_column_at_most_once(monkeypatch):
    reads = []
    read = algebra._read

    def counted(values, keys):
        reads.append(values)
        return read(values, keys)

    monkeypatch.setattr(algebra, "_read", counted)

    def check_all(F):
        verify_triple_symmetry(F)
        check_relations(F)
        decompose_g(F, 1, 2)
        verify_triple_symmetry(F.perturbed((0, 1, 2, 3), 1))

    built = build_f_from_g({(u, v): u * v for u in range(5) for v in range(5)}, range(5))
    check_all(built)
    assert reads == []  # the build hands its column over
    given = FunctionTable(built.labels, dict(built.values))
    check_all(given)
    check_all(given)
    assert len(reads) == 1


def test_decompose_after_check_relations_scans_no_relation_again(monkeypatch):
    scans = []
    first_failure = algebra._first_failure

    def counted(rows, rule):
        scans.append(rule.__name__)
        return first_failure(rows, rule)

    monkeypatch.setattr(algebra, "_first_failure", counted)
    g = {(u, v): u * v for u in range(5) for v in range(5)}
    F = build_f_from_g(g, range(5))
    check_relations(F)
    assert scans == ["cyclic", "swap", "split"]
    decompose_g(F, 0, 1)
    decompose_g(F, 2, 3)
    assert scans == ["cyclic", "swap", "split"]
    # the other way round, check_relations runs only the scan decompose_g
    # had no use for
    scans.clear()
    G = build_f_from_g(g, range(5))
    decompose_g(G, 0, 1)
    check_relations(G)
    assert scans == ["swap", "split", "cyclic"]


@pytest.mark.parametrize("t", [(0, 1, 2), (0, 1, 2, 9), (0, 1, 2, 3, 4)])
def test_perturbing_a_tuple_that_is_no_key_is_refused(t):
    with pytest.raises(ValueError, match="bad tuple key"):
        quadratic_table(range(4)).perturbed(t, 1)


@pytest.mark.parametrize("t", [(0, 0, 1, 2), (1, 2, 3, 3), (2, 2, 3, 3)])
def test_perturbing_a_zero_convention_tuple_is_refused(t):
    # get never reads a value stored at such a tuple, so the copy would check
    # exactly as the original: a fault injection that injects nothing
    with pytest.raises(ValueError, match="zero by convention"):
        quadratic_table(range(4)).perturbed(t, 5)


def test_f_triple_golden_vector():
    F = quadratic_table(range(5))
    assert f_triple(F, (3, 1, 4, 2)) == (4, -3, -1)


def test_f_triple_lies_in_zero_sum_plane():
    F = quadratic_table(range(5))
    for x in F.distinct_tuples():
        assert sum(f_triple(F, x)) == 0


# ---------------------------------------------------------------------------
# relations


def test_quadratic_table_satisfies_all_relations():
    checks = check_relations(quadratic_table(range(5)))
    assert set(checks) == {"cyclic_sum", "swap_sign", "split_w"}
    for chk in checks.values():
        assert chk.passed
        assert chk.checked > 0
        assert chk.counterexample is None


def test_perturbed_table_fails_with_witness():
    F = quadratic_table(range(4)).perturbed((0, 1, 2, 3), 3)
    checks = check_relations(F)
    assert not all(chk.passed for chk in checks.values())
    bad = [chk for chk in checks.values() if not chk.passed]
    assert all(chk.counterexample is not None for chk in bad)


def test_asymmetric_g_breaks_the_cyclic_sum_only():
    # the four-term table of an asymmetric sparse g satisfies the swap and
    # split relations but not the cyclic one: its obstruction is the
    # non-telescoping antisymmetric part of g.  This pins the fact that
    # arbitrary g-tables do NOT model the invariant's full symmetry.
    g = {(2, 4): 2, (2, 1): 5, (3, 4): 2}
    labels = (1, 2, 3, 4)
    total = {(u, v): g.get((u, v), 0) for u in labels for v in labels}
    F = build_f_from_g(total, labels)
    checks = check_relations(F)
    assert checks["swap_sign"].passed
    assert checks["split_w"].passed
    assert not checks["cyclic_sum"].passed
    assert not verify_triple_symmetry(F).passed
    # symmetrizing g kills the obstruction
    sym = {(u, v): total[(u, v)] + total[(v, u)] for u in labels for v in labels}
    F2 = build_f_from_g(sym, labels)
    assert check_relations(F2)["cyclic_sum"].passed
    assert verify_triple_symmetry(F2).passed


def test_triple_symmetry_on_quadratic():
    out = verify_triple_symmetry(quadratic_table(range(5)))
    assert out.passed
    assert out.checked == 24 * 120
    assert out.witness is None


@pytest.mark.parametrize("n", [4, 5, 6])
def test_checked_counts_cover_the_whole_battery(n):
    # every (permutation, distinct tuple) pair, every distinct tuple per
    # relation, and each splitting label w that has both pieces: all of
    # them for a total table, all but x3 and x4 for a distinct-entry table
    tuples = n * (n - 1) * (n - 2) * (n - 3)
    F = quadratic_table(range(n))
    partial = FunctionTable(F.labels, {t: F(t) for t in F.distinct_tuples()})
    for table, split_labels in ((F, n), (partial, n - 2)):
        assert verify_triple_symmetry(table).checked == 24 * tuples
        checks = check_relations(table)
        assert checks["cyclic_sum"].checked == tuples
        assert checks["swap_sign"].checked == tuples
        assert checks["split_w"].checked == split_labels * tuples


def test_triple_symmetry_detects_single_perturbation():
    F = quadratic_table(range(5)).perturbed((0, 1, 2, 3), 1)
    out = verify_triple_symmetry(F)
    assert not out.passed
    assert out.witness is not None


# ---------------------------------------------------------------------------
# the two-variable decomposition


def test_build_from_quadratic_g_is_the_quadratic_table():
    labels = tuple(range(5))
    g = {(u, v): u * v for u in labels for v in labels}
    F = build_f_from_g(g, labels)
    Q = quadratic_table(labels)
    for x in F.distinct_tuples():
        assert F(x) == Q(x)


def test_decompose_quadratic_recovers_product():
    g = decompose_g(quadratic_table(range(5)), 0, 0)
    for u in range(5):
        for v in range(5):
            if u != 0 and v != 0:
                assert g[(u, v)] == u * v


def test_decompose_build_round_trip_on_normalized_g():
    import random

    labels = tuple(range(5))
    rng = random.Random(13)
    for _ in range(5):
        raw = {(u, v): rng.randint(-9, 9) for u in labels for v in labels}
        g = normalize_g(raw, 0, 1)
        F = build_f_from_g(g, labels)
        back = decompose_g(F, 0, 1)
        for key, val in g.items():
            assert back.get(key, 0) == val or back[key] == val


def test_normalize_g_pins_row_and_column():
    g = {(u, v): 3 * u - 2 * v + u * v for u in range(4) for v in range(4)}
    n = normalize_g(g, 1, 2)
    assert all(n[(1, v)] == 0 for v in range(4))
    assert all(n[(u, 2)] == 0 for u in range(4))
    # normalization does not change the four-term alternating sums
    F = build_f_from_g(g, tuple(range(4)))
    G = build_f_from_g(n, tuple(range(4)))
    for x in F.distinct_tuples():
        assert F(x) == G(x)


def test_decompose_partial_table_via_gauge_anchoring():
    # tables coming from the invariant have no values on tuples with a
    # repeated point across the two pairs; decomposition must still work
    # from the fully distinct tuples alone
    labels = tuple(range(5))
    import random

    rng = random.Random(29)
    raw = {(u, v): rng.randint(-9, 9) for u in labels for v in labels}
    g = normalize_g(raw, 0, 1)
    full = build_f_from_g(g, labels)
    partial = FunctionTable(labels, {x: full(x) for x in full.distinct_tuples()})
    assert partial.is_total_on_distinct()
    back = decompose_g(partial, 0, 1)
    rebuilt = build_f_from_g(back, labels)
    for x in partial.distinct_tuples():
        assert rebuilt(x) == partial(x)


def test_decompose_rejects_non_decomposable():
    F = quadratic_table(range(4)).perturbed((0, 1, 2, 3), 1)
    with pytest.raises(RelationViolated):
        decompose_g(F, 0, 0)


# ---------------------------------------------------------------------------
# property checks


def _random_g_tables():
    return st.dictionaries(
        st.tuples(st.integers(0, 3), st.integers(0, 3)),
        st.integers(-9, 9),
        min_size=0,
        max_size=16,
    )


@given(_random_g_tables())
@settings(max_examples=60, deadline=None)
def test_any_g_gives_swap_and_split_relations(sparse):
    labels = (0, 1, 2, 3)
    g = {(u, v): sparse.get((u, v), 0) for u in labels for v in labels}
    checks = check_relations(build_f_from_g(g, labels))
    assert checks["swap_sign"].passed
    assert checks["split_w"].passed


@given(_random_g_tables(), st.tuples(*([st.integers(-9, 9)] * 4)))
@settings(max_examples=60, deadline=None)
def test_symmetric_core_plus_shift_gives_full_symmetry(sparse, shifts):
    labels = (0, 1, 2, 3)
    sym = {}
    for u in labels:
        for v in labels:
            base = sparse.get((min(u, v), max(u, v)), 0)
            sym[(u, v)] = base + shifts[u] - shifts[v]
    F = build_f_from_g(sym, labels)
    assert all(chk.passed for chk in check_relations(F).values())
    assert verify_triple_symmetry(F).passed


@given(_random_g_tables())
@settings(max_examples=40, deadline=None)
def test_normalized_round_trip_property(sparse):
    labels = (0, 1, 2, 3)
    g = normalize_g({(u, v): sparse.get((u, v), 0) for u in labels for v in labels}, 0, 1)
    back = decompose_g(build_f_from_g(g, labels), 0, 1)
    assert all(back[k] == v for k, v in g.items())
