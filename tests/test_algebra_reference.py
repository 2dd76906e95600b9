"""The table checks against a reference copy of their plain per-pair loops.

The reference below is the straightforward form of f_triple,
check_relations and verify_triple_symmetry: it reads every triple afresh
for each (permutation, tuple) pair.  It also keeps the per-entry forms of
build_f_from_g, decompose_g, the permutation gathers and the table key
check.  The library reads each table once into columns and compares them
by exact equality before falling back to _eq; these tests require the same
result (passed, checked, witness or counterexample), or the same
exception, on every table kind the library meets.
"""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rotquad import (
    FunctionTable,
    RelationViolated,
    build_f_from_g,
    check_relations,
    decompose_g,
    f_triple,
    table_from_function,
    verify_triple_symmetry,
)
from rotquad.algebra import (
    FLOAT_EQ_TOL,
    SIGMA1,
    SIGMA3,
    TAU_CYCLE,
    Permutation,
    RelationCheck,
    SymmetryCheck,
    _gathers,
    act_on_tuple,
    all_permutations,
    mat_vec,
    theta_action,
)


# ---------------------------------------------------------------------------
# the reference loops


def _eq(a, b) -> bool:
    if isinstance(a, float) or isinstance(b, float):
        return abs(a - b) <= FLOAT_EQ_TOL
    return a == b


def reference_f_triple(F: FunctionTable, x) -> tuple:
    x = tuple(x)
    return (
        F(x),
        F(act_on_tuple(x, TAU_CYCLE)),
        F(act_on_tuple(x, TAU_CYCLE.compose(TAU_CYCLE))),
    )


def reference_check_relations(F: FunctionTable) -> dict[str, RelationCheck]:
    out: dict[str, RelationCheck] = {}

    checked = 0
    witness = None
    for t in F.distinct_tuples():
        a, b, c = (v for v in reference_f_triple(F, t))
        checked += 1
        if not _eq(a + b + c, 0):
            witness = (t, (a, b, c))
            break
    out["cyclic_sum"] = RelationCheck("cyclic_sum", witness is None, checked, witness)

    checked = 0
    witness = None
    for t in F.distinct_tuples():
        base = F(t)
        first = F(act_on_tuple(t, SIGMA1))
        second = F(act_on_tuple(t, SIGMA3))
        checked += 1
        if not (_eq(first, -base) and _eq(second, -base)):
            witness = (t, (base, first, second))
            break
    out["swap_sign"] = RelationCheck("swap_sign", witness is None, checked, witness)

    checked = 0
    witness = None
    for t in F.distinct_tuples():
        x1, x2, x3, x4 = t
        for w in F.labels:
            left = F.get((x1, w, x3, x4))
            right = F.get((w, x2, x3, x4))
            if left is None or right is None:
                continue
            checked += 1
            if not _eq(F(t), left + right):
                witness = ((t, w), (F(t), left, right))
                break
        if witness:
            break
    out["split_w"] = RelationCheck("split_w", witness is None, checked, witness)
    return out


def reference_verify_triple_symmetry(F: FunctionTable) -> SymmetryCheck:
    checked = 0
    for sigma in all_permutations():
        mat = theta_action(sigma)
        for t in F.distinct_tuples():
            expected = mat_vec(mat, reference_f_triple(F, t))
            got = reference_f_triple(F, act_on_tuple(t, sigma))
            checked += 1
            if not all(_eq(e, g) for e, g in zip(expected, got)):
                return SymmetryCheck(False, checked, (sigma.cycle_notation(), t, expected, got))
    return SymmetryCheck(True, checked)


def reference_build_f_from_g(g, labels=None) -> FunctionTable:
    if callable(g):
        if labels is None:
            raise ValueError("labels are required with a callable g")
        gv = g
    else:
        if labels is None:
            labels = sorted({u for u, _ in g} | {v for _, v in g})
        gv = lambda u, v: g[(u, v)]
    return table_from_function(
        labels,
        lambda x1, x2, x3, x4: gv(x1, x3) - gv(x1, x4) - gv(x2, x3) + gv(x2, x4),
    )

def reference_decompose_g(F: FunctionTable, a=None, b=None) -> dict:
    ordered = sorted(F.labels)
    if a is None:
        a = ordered[0]
    if b is None:
        b = ordered[1]
    if a not in F.labels or b not in F.labels:
        raise ValueError("a and b must be table labels")

    relations = reference_check_relations(F)
    for rel in ("swap_sign", "split_w"):
        if not relations[rel].passed:
            raise RelationViolated(
                f"table fails the {rel} relation at {relations[rel].counterexample!r}"
            )

    direct = {}
    total = True
    for u in F.labels:
        for v in F.labels:
            val = F.get((u, a, v, b))
            if val is None:
                total = False
                break
            direct[(u, v)] = val
        if not total:
            break

    if total:
        g = direct
    else:
        if a == b:
            raise ValueError("a partial table needs two distinct anchors")
        g = {}
        for u in F.labels:
            g[(u, u)] = 0
            if u != b:
                g[(u, b)] = 0
        for v in F.labels:
            if v != a:
                g[(a, v)] = 0  # forced: the slice tuple has a repeated first pair
        rest = [u for u in ordered if u not in (a, b)]
        u0 = rest[0]
        g[(u0, a)] = 0
        for u in F.labels:
            if u in (a, b, u0):
                continue
            g[(u, a)] = F((u, u0, a, b))
        for u in rest:
            for v in rest:
                if u != v:
                    g[(u, v)] = F((u, a, v, b))
        v0 = rest[0]
        g[(b, v0)] = 0
        for v in F.labels:
            if v in (b, v0):
                continue
            t0 = next(l for l in ordered if l not in (b, v, v0))
            g[(b, v)] = F((b, t0, v, v0)) + g[(t0, v)] - g[(t0, v0)]

    for t in F.distinct_tuples():
        want = F.get(t)
        if want is None:
            continue
        x1, x2, x3, x4 = t
        got = g[(x1, x3)] - g[(x1, x4)] - g[(x2, x3)] + g[(x2, x4)]
        if not _eq(want, got):
            raise RelationViolated(
                f"decomposition does not reproduce the table at {t!r}: {want} vs {got}"
            )
    return g

def reference_gathers(n: int) -> dict[Permutation, tuple[int, ...]]:
    tuples = list(itertools.permutations(range(n), 4))
    index = {t: i for i, t in enumerate(tuples)}
    return {
        sigma: tuple(index[act_on_tuple(t, sigma)] for t in tuples)
        for sigma in all_permutations()
    }


def reference_key_check(labels, values) -> None:
    label_set = set(labels)
    for t in values:
        if len(t) != 4 or any(u not in label_set for u in t):
            raise ValueError(f"bad tuple key {t!r}")


# ---------------------------------------------------------------------------
# comparison


def _outcome(fn, F):
    """The result of fn(F), or the type and message of what it raised."""
    try:
        return fn(F)
    except KeyError as exc:
        return (type(exc), str(exc))


def assert_same_checks(F: FunctionTable):
    assert _outcome(verify_triple_symmetry, F) == _outcome(reference_verify_triple_symmetry, F)
    assert _outcome(check_relations, F) == _outcome(reference_check_relations, F)
    for t in F.distinct_tuples():
        assert _outcome(lambda G: f_triple(G, t), F) == _outcome(
            lambda G: reference_f_triple(G, t), F
        )


def cyclic_g(rng: random.Random, labels) -> dict:
    """A g whose table satisfies every relation: a symmetric core plus a
    coboundary shift(u) - shift(v)."""
    sym = {}
    for i, u in enumerate(labels):
        for v in labels[i:]:
            sym[(u, v)] = sym[(v, u)] = rng.randint(-9, 9)
    shift = {u: rng.randint(-9, 9) for u in labels}
    return {(u, v): sym[(u, v)] + shift[u] - shift[v] for u in labels for v in labels}


def distinct_only(F: FunctionTable) -> FunctionTable:
    """F restricted to distinct-entry tuples, the shape rf_table returns."""
    return FunctionTable(F.labels, {t: F(t) for t in F.distinct_tuples()})


@pytest.mark.parametrize("n", [5, 6])
@pytest.mark.parametrize("seed", range(3))
def test_random_cyclic_g_tables(n, seed):
    rng = random.Random(seed)
    labels = tuple(range(n))
    F = build_f_from_g(cyclic_g(rng, labels), labels)
    assert verify_triple_symmetry(F).passed
    assert_same_checks(F)


@pytest.mark.parametrize("n", [4, 5])
@pytest.mark.parametrize("seed", range(3))
def test_random_asymmetric_g_tables(n, seed):
    # an arbitrary g breaks the cyclic relation and the triple symmetry
    rng = random.Random(100 + seed)
    labels = tuple(range(n))
    F = build_f_from_g({(u, v): rng.randint(-9, 9) for u in labels for v in labels}, labels)
    assert not verify_triple_symmetry(F).passed
    assert_same_checks(F)


def test_single_perturbation_at_every_distinct_tuple():
    labels = tuple(range(5))
    F = build_f_from_g(cyclic_g(random.Random(7), labels), labels)
    for t in F.distinct_tuples():
        G = F.perturbed(t, 1)
        out = verify_triple_symmetry(G)
        assert not out.passed
        assert out == reference_verify_triple_symmetry(G)
        assert check_relations(G) == reference_check_relations(G)


@pytest.mark.parametrize("noise, passes", [(1e-10, True), (1e-8, False)])
def test_float_table_tolerance(noise, passes):
    rng = random.Random(11)
    labels = tuple(range(5))
    F = build_f_from_g(cyclic_g(rng, labels), labels)
    values = {t: v + rng.uniform(-noise, noise) for t, v in F.values.items()}
    G = FunctionTable(labels, values)
    assert verify_triple_symmetry(G).passed is passes
    assert all(chk.passed for chk in check_relations(G).values()) is passes
    assert_same_checks(G)


def test_distinct_only_table():
    labels = tuple(range(6))
    F = distinct_only(build_f_from_g(cyclic_g(random.Random(3), labels), labels))
    assert verify_triple_symmetry(F).passed
    assert_same_checks(F)
    bad = F.perturbed(next(itertools.islice(F.distinct_tuples(), 50, None)), 2)
    assert not check_relations(bad)["split_w"].passed
    assert_same_checks(bad)


@pytest.mark.parametrize("shape", ["total", "distinct_only"])
def test_deleted_entry_raises_the_same_error(shape):
    labels = tuple(range(5))
    F = build_f_from_g(cyclic_g(random.Random(5), labels), labels)
    if shape == "distinct_only":
        F = distinct_only(F)
    for t in F.distinct_tuples():
        values = dict(F.values)
        del values[t]
        G = FunctionTable(labels, values)
        with pytest.raises(KeyError):
            verify_triple_symmetry(G)
        assert_same_checks(G)


# ---------------------------------------------------------------------------
# edge cases of the column reads: non-finite floats, Fractions, mixed types,
# and the decomposition, the build, the gathers and the key check


def _caught(fn, F):
    try:
        return fn(F)
    except (KeyError, ValueError, RelationViolated) as exc:
        return (type(exc), str(exc))


def assert_same_outcomes(F: FunctionTable):
    """Library and reference agree on every check and decomposition of F.

    Compared by repr, so that a NaN in a witness matches a NaN: NaN objects
    made by separate computations are unequal.
    """
    a, b = F.labels[-1], F.labels[0]
    library = [verify_triple_symmetry, check_relations, decompose_g,
               lambda G: decompose_g(G, a, b)]
    reference = [reference_verify_triple_symmetry, reference_check_relations,
                 reference_decompose_g, lambda G: reference_decompose_g(G, a, b)]
    assert repr([_caught(fn, F) for fn in library]) == repr(
        [_caught(fn, F) for fn in reference])


def nonzero_tuples(labels):
    return [t for t in itertools.product(labels, repeat=4) if t[0] != t[1] and t[2] != t[3]]


def with_value(F: FunctionTable, t, value) -> FunctionTable:
    return FunctionTable(F.labels, {**F.values, t: value})


def float_table(F: FunctionTable) -> FunctionTable:
    return FunctionTable(F.labels, {t: float(v) for t, v in F.values.items()})


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("kind", ["float", "mixed"])
@pytest.mark.parametrize("shape", ["total", "distinct_only"])
def test_non_finite_entries(value, kind, shape):
    # 0 * inf is NaN, so the plain loops fail every transport an infinite
    # entry enters, while a NaN object compares equal to itself in a list
    labels = tuple(range(5))
    F = build_f_from_g(cyclic_g(random.Random(13), labels), labels)
    if kind == "float":
        F = float_table(F)
    if shape == "distinct_only":
        F = distinct_only(F)
    keys = nonzero_tuples(labels)
    distinct = set(F.distinct_tuples())
    for t in (keys[0], keys[200], (0, 1, 0, 2)):
        G = with_value(F, t, value)
        if t in distinct:
            assert not verify_triple_symmetry(G).passed
        assert_same_outcomes(G)
    assert_same_outcomes(with_value(with_value(F, keys[7], value), keys[90], -value))


@pytest.mark.parametrize("mix", [False, True])
def test_fraction_tables(mix):
    labels = tuple(range(5))
    rng = random.Random(17)
    g = {k: Fraction(v, rng.randint(1, 7)) for k, v in cyclic_g(rng, labels).items()}
    g = {(u, v): g[(u, v)] + g[(v, u)] for u, v in g}  # symmetric, so F is cyclic
    if mix:
        g = {k: float(v) if rng.random() < 0.5 else v for k, v in g.items()}
    F = build_f_from_g(g, labels)
    assert F.values == reference_build_f_from_g(g, labels).values
    assert verify_triple_symmetry(F).passed
    assert_same_outcomes(F)
    for t, delta in [((0, 1, 2, 3), Fraction(1, 3)), ((4, 3, 2, 1), 1e-10),
                     ((2, 0, 2, 1), 0.5)]:
        assert_same_outcomes(F.perturbed(t, delta))
        assert_same_outcomes(distinct_only(F).perturbed(t, delta))


def test_mixed_int_float_tables():
    labels = tuple(range(5))
    rng = random.Random(19)
    F = build_f_from_g(cyclic_g(rng, labels), labels)
    mixed = FunctionTable(labels, {t: float(v) if rng.random() < 0.5 else v
                                   for t, v in F.values.items()})
    assert verify_triple_symmetry(mixed).passed
    assert_same_outcomes(mixed)
    for t in (next(iter(F.distinct_tuples())), (3, 1, 3, 0)):
        for delta in (1, 0.5, 1e-10, 1e-8):
            assert_same_outcomes(mixed.perturbed(t, delta))


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(4, 6),
    seed=st.integers(0, 2**16),
    kind=st.sampled_from(["int", "float"]),
    shape=st.sampled_from(["total", "distinct_only"]),
    changes=st.lists(
        st.tuples(st.integers(0, 10**6),
                  st.sampled_from([None, -2, -1, 1, 2, 0.5, 1e-10, 1e-8])),
        max_size=2),
)
def test_random_tables_check_as_the_reference(n, seed, kind, shape, changes):
    # a change of None deletes the entry; anything else perturbs it
    labels = tuple(range(n))
    F = build_f_from_g(cyclic_g(random.Random(seed), labels), labels)
    if kind == "float":
        F = float_table(F)
    if shape == "distinct_only":
        F = distinct_only(F)
    keys = nonzero_tuples(labels)
    for index, delta in changes:
        t = keys[index % len(keys)]
        if delta is None:
            F = FunctionTable(labels, {k: v for k, v in F.values.items() if k != t})
        else:
            F = F.perturbed(t, delta)
    assert_same_outcomes(F)


@pytest.mark.parametrize("labels", [None, (0, 1, 2, 3, 4), (4, 2, 0, 1, 3), ("a", "b", "c", "d")])
def test_build_f_from_g_as_the_reference(labels):
    names = labels or (0, 1, 2, 3, 4)
    rng = random.Random(23)
    kinds = (lambda: rng.randint(-9, 9), lambda: rng.uniform(-9, 9),
             lambda: Fraction(rng.randint(-9, 9), 7))
    g = {(u, v): rng.choice(kinds)() for u in names for v in names}
    F, R = build_f_from_g(g, labels), reference_build_f_from_g(g, labels)
    assert F.labels == R.labels
    assert list(F.values.items()) == list(R.values.items())
    fn = lambda u, v: g[(u, v)]
    assert build_f_from_g(fn, names).values == R.values
    with pytest.raises(KeyError):
        build_f_from_g({k: v for k, v in g.items() if k != (names[1], names[2])}, labels)


@pytest.mark.parametrize("n", [4, 5, 6])
def test_gathers_as_the_reference(n):
    assert _gathers(n) == reference_gathers(n)


@pytest.mark.parametrize("bad", [(0, 1, 2), (0, 1, 2, 9), (0, 1, 2, 3, 4), "0123", (9, 9, 9, 9)])
@pytest.mark.parametrize("at", [0, 17, -1])
def test_bad_keys_are_named_as_the_reference_names_them(bad, at):
    labels = tuple(range(5))
    keys = list(distinct_only(build_f_from_g(cyclic_g(random.Random(29), labels), labels)).values)
    keys.insert(at % (len(keys) + 1), bad)
    keys.append((0, 1, 2, 7))
    values = dict.fromkeys(keys, 1)
    with pytest.raises(ValueError) as want:
        reference_key_check(labels, values)
    with pytest.raises(ValueError) as got:
        FunctionTable(labels, values)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("shape", ["total", "distinct_only"])
def test_deleted_entries_of_a_zero_table(shape):
    # every relation holds on the zero table with its missing entries read
    # as 0, so only the read order decides which missing entry is named
    labels = tuple(range(5))
    F = build_f_from_g(dict.fromkeys(itertools.product(labels, repeat=2), 0), labels)
    if shape == "distinct_only":
        F = distinct_only(F)
    keys = list(F.distinct_tuples())
    for first, second in itertools.combinations(keys[:4] + [(1, 2, 0, 3), (2, 0, 1, 3)], 2):
        G = FunctionTable(labels, {k: v for k, v in F.values.items() if k not in (first, second)})
        assert_same_checks(G)
        assert_same_outcomes(G)


# ---------------------------------------------------------------------------
# read-once tables: every construction path, and the checks in either order


def reference_perturbed(F: FunctionTable, t, delta) -> FunctionTable:
    t = tuple(t)
    values = dict(F.values)
    values[t] = F.get(t) + delta if F.get(t) is not None else delta
    return FunctionTable(F.labels, values)


def construction_paths(labels, g):
    """(name, table, reference table) for each way a table is built: the
    constructor, build_f_from_g, and perturbed of a total table, of a
    distinct-only table at a distinct entry and at a missing one, and of a
    table with a deleted distinct entry at that entry.  The library tables
    are new objects on every call."""
    t, repeated = labels[:4], (labels[0], labels[1], labels[0], labels[2])
    R = reference_build_f_from_g(g, labels)
    distinct = {k: v for k, v in R.values.items() if len(set(k)) == 4}
    deleted = {k: v for k, v in distinct.items() if k != t}
    D, X = FunctionTable(labels, distinct), FunctionTable(labels, deleted)
    return [
        ("constructor", FunctionTable(labels, R.values), R),
        ("build", build_f_from_g(g, labels), R),
        ("perturbed total", build_f_from_g(g, labels).perturbed(t, 1),
         reference_perturbed(R, t, 1)),
        ("perturbed distinct-only", FunctionTable(labels, distinct).perturbed(t, -2),
         reference_perturbed(D, t, -2)),
        ("perturbed missing", FunctionTable(labels, distinct).perturbed(repeated, 1),
         reference_perturbed(D, repeated, 1)),
        ("perturbed deleted", FunctionTable(labels, deleted).perturbed(t, 3),
         reference_perturbed(X, t, 3)),
        ("perturbed twice", build_f_from_g(g, labels).perturbed(t, 1).perturbed(t, -1),
         reference_perturbed(reference_perturbed(R, t, 1), t, -1)),
    ]


CHECK_ORDERS = {
    "relations first": ("symmetry", "relations", "decompose", "decompose at anchors"),
    "decompose first": ("decompose", "decompose at anchors", "relations", "symmetry"),
}


def checks(a, b, library: bool) -> dict:
    if library:
        return {"symmetry": verify_triple_symmetry, "relations": check_relations,
                "decompose": decompose_g, "decompose at anchors": lambda G: decompose_g(G, a, b)}
    return {"symmetry": reference_verify_triple_symmetry, "relations": reference_check_relations,
            "decompose": reference_decompose_g,
            "decompose at anchors": lambda G: reference_decompose_g(G, a, b)}


G_KINDS = {
    "cyclic": lambda rng, labels: cyclic_g(rng, labels),
    "asymmetric": lambda rng, labels: {(u, v): rng.randint(-9, 9) for u in labels for v in labels},
    "float": lambda rng, labels: {k: v + 0.25 for k, v in cyclic_g(rng, labels).items()},
}


@pytest.mark.parametrize("order", CHECK_ORDERS)
@pytest.mark.parametrize("kind", G_KINDS)
@pytest.mark.parametrize("labels", [(0, 1, 2, 3, 4), (4, 2, 0, 1, 3), ("a", "b", "c", "d")])
def test_read_once_tables_check_as_the_reference(labels, kind, order):
    # one table object runs every check in the given order, so a later check
    # reads what an earlier one kept; the reference reads afresh each time
    g = G_KINDS[kind](random.Random(31), labels)
    a, b = labels[-1], labels[1]
    for name, F, R in construction_paths(labels, g):
        assert list(F.values.items()) == list(R.values.items()), name
        library, reference = checks(a, b, True), checks(a, b, False)
        got = [_caught(library[check], F) for check in CHECK_ORDERS[order]]
        want = [_caught(reference[check], R) for check in CHECK_ORDERS[order]]
        assert repr(got) == repr(want), name
        # and again on the same object, from what it kept
        assert repr([_caught(library[check], F) for check in CHECK_ORDERS[order]]) == repr(want)


@pytest.mark.parametrize("order", CHECK_ORDERS)
def test_read_once_tables_name_the_same_missing_entry(order):
    # deleted entries make the scans raise; a scan that raises keeps
    # nothing, so every later call raises the same KeyError again
    labels = tuple(range(5))
    F = distinct_only(build_f_from_g(cyclic_g(random.Random(37), labels), labels))
    keys = list(F.distinct_tuples())
    for gone in ([keys[0]], [keys[40], keys[3]], [keys[-1]]):
        values = {k: v for k, v in F.values.items() if k not in gone}
        G, R = FunctionTable(labels, values), FunctionTable(labels, values)
        library, reference = checks(2, 4, True), checks(2, 4, False)
        want = [_caught(reference[check], R) for check in CHECK_ORDERS[order]]
        for _ in range(2):
            got = [_caught(library[check], G) for check in CHECK_ORDERS[order]]
            assert repr(got) == repr(want), gone
        P = G.perturbed(gone[0], 1)
        want = [_caught(reference[check], reference_perturbed(R, gone[0], 1))
                for check in CHECK_ORDERS[order]]
        assert repr([_caught(library[check], P) for check in CHECK_ORDERS[order]]) == repr(want)
