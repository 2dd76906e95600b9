"""The table checks against a reference copy of their plain per-pair loops.

The reference below is the straightforward form of f_triple,
check_relations and verify_triple_symmetry: it reads every triple afresh
for each (permutation, tuple) pair.  The library reads each entry once and
compares by exact equality before falling back to _eq; these tests require
the same result (passed, checked, witness or counterexample), or the same
exception, on every table kind the library meets.
"""

import itertools
import random

import pytest

from rotquad import (
    FunctionTable,
    build_f_from_g,
    check_relations,
    f_triple,
    verify_triple_symmetry,
)
from rotquad.algebra import (
    FLOAT_EQ_TOL,
    SIGMA1,
    SIGMA3,
    TAU_CYCLE,
    RelationCheck,
    SymmetryCheck,
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
