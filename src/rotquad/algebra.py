"""Permutations of four marked points, their 3x3 integer matrices, and
finite function tables with the cyclic / sign / splitting relations.

A function F on ordered 4-tuples that satisfies the three relations is
determined by a two-variable table g via

    F(x1,x2,x3,x4) = g(x1,x3) - g(x1,x4) - g(x2,x3) + g(x2,x4)

and the triple (F(x), F of the two cyclic shifts) transforms under tuple
permutation through an integer matrix representation whose kernel is the
Klein four-group.  Everything here is exact arithmetic.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache
from operator import itemgetter

from .errors import ParseError, RelationViolated
from .geometry import DEFAULT_TOL, Tolerances, as_sphere_point
from .invariant import RfEvaluator
from .maps import MapSpec, require_fixed

FLOAT_EQ_TOL = 1e-9


def _eq(a, b) -> bool:
    if isinstance(a, float) or isinstance(b, float):
        return abs(a - b) <= FLOAT_EQ_TOL
    return a == b


# ---------------------------------------------------------------------------
# permutations


@dataclass(frozen=True, order=True)
class Permutation:
    """A bijection of {1, 2, 3, 4}; images[i-1] is the image of i."""

    images: tuple[int, int, int, int]

    def __post_init__(self):
        if sorted(self.images) != [1, 2, 3, 4]:
            raise ValueError(f"not a bijection of 1..4: {self.images!r}")

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    def compose(self, other: "Permutation") -> "Permutation":
        """self after other: (self.compose(other))(i) = self(other(i))."""
        return Permutation(tuple(self(other(i)) for i in (1, 2, 3, 4)))

    def inverse(self) -> "Permutation":
        inv = [0, 0, 0, 0]
        for i in (1, 2, 3, 4):
            inv[self(i) - 1] = i
        return Permutation(tuple(inv))

    def cycle_notation(self) -> str:
        seen = set()
        cycles = []
        for start in (1, 2, 3, 4):
            if start in seen:
                continue
            cyc = [start]
            seen.add(start)
            nxt = self(start)
            while nxt != start:
                cyc.append(nxt)
                seen.add(nxt)
                nxt = self(nxt)
            if len(cyc) > 1:
                cycles.append(cyc)
        if not cycles:
            return "e"
        return "".join("(" + "".join(str(i) for i in c) + ")" for c in cycles)


IDENTITY_PERM = Permutation((1, 2, 3, 4))


def parse_cycles(text: str) -> Permutation:
    """Cycle notation over {1,2,3,4}; cycles apply right to left.

    "e" and "()" denote the identity; whitespace is ignored.
    """
    s = "".join(text.split())
    if s in ("e", "()", ""):
        return IDENTITY_PERM
    cycles: list[list[int]] = []
    i = 0
    while i < len(s):
        if s[i] != "(":
            raise ParseError(f"expected '(' at position {i} of {text!r}")
        i += 1
        cyc: list[int] = []
        while i < len(s) and s[i] != ")":
            ch = s[i]
            if ch not in "1234":
                raise ParseError(f"bad symbol {ch!r} in {text!r}")
            v = int(ch)
            if v in cyc:
                raise ParseError(f"repeated element {v} within a cycle in {text!r}")
            cyc.append(v)
            i += 1
        if i >= len(s):
            raise ParseError(f"unclosed cycle in {text!r}")
        i += 1
        if cyc:
            cycles.append(cyc)
    perm = IDENTITY_PERM
    for cyc in cycles:  # leftmost cycle is the outermost function
        images = [1, 2, 3, 4]
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            images[a - 1] = b
        perm = perm.compose(Permutation(tuple(images)))
    return perm


SIGMA1 = parse_cycles("(12)")
SIGMA2 = parse_cycles("(23)")
SIGMA3 = parse_cycles("(34)")
TAU_CYCLE = parse_cycles("(123)")
TAU_SQUARED = TAU_CYCLE.compose(TAU_CYCLE)


def all_permutations() -> list[Permutation]:
    return [Permutation(p) for p in itertools.permutations((1, 2, 3, 4))]


def act_on_tuple(x, sigma: Permutation) -> tuple:
    """(x_sigma)_i = x_{sigma(i)}; a right action: acting by sigma then rho
    equals acting once by sigma composed with rho."""
    return tuple(x[sigma(i) - 1] for i in (1, 2, 3, 4))


# ---------------------------------------------------------------------------
# the matrix representation

Mat3 = tuple[tuple[int, int, int], ...]

MAT_ID: Mat3 = ((1, 0, 0), (0, 1, 0), (0, 0, 1))

# Generator matrices: the two transpositions at the ends share one matrix.
MAT_SWAP_OUTER: Mat3 = ((-1, 0, 0), (0, 0, -1), (0, -1, 0))
MAT_SWAP_MIDDLE: Mat3 = ((0, 0, -1), (0, -1, 0), (-1, 0, 0))

_GENERATORS: tuple[tuple[Permutation, Mat3], ...] = (
    (SIGMA1, MAT_SWAP_OUTER),
    (SIGMA2, MAT_SWAP_MIDDLE),
    (SIGMA3, MAT_SWAP_OUTER),
)


def mat_mul(a: Mat3, b: Mat3) -> Mat3:
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(3)) for j in range(3))
        for i in range(3)
    )


def mat_vec(a: Mat3, v) -> tuple:
    return tuple(sum(a[i][k] * v[k] for k in range(3)) for i in range(3))


@lru_cache(maxsize=1)
def _theta_table() -> dict[Permutation, Mat3]:
    """Extend the generator assignment to all 24 elements by word search.

    Every element is reached along several generator words; the matrix
    products along different words must coincide, which is asserted here
    (well-definedness of the extension), so the result does not depend on
    the chosen factorization.
    """
    table: dict[Permutation, Mat3] = {IDENTITY_PERM: MAT_ID}
    confirmations: dict[Permutation, int] = {IDENTITY_PERM: 0}
    frontier = [IDENTITY_PERM]
    while frontier:
        nxt: list[Permutation] = []
        for perm in frontier:
            for gen, gen_mat in _GENERATORS:
                longer = perm.compose(gen)
                product = mat_mul(table[perm], gen_mat)
                if longer not in table:
                    table[longer] = product
                    confirmations[longer] = 0
                    nxt.append(longer)
                else:
                    assert table[longer] == product, (
                        f"factorization-dependent matrix for {longer.cycle_notation()}"
                    )
                    confirmations[longer] += 1
        frontier = nxt
    assert len(table) == 24
    assert all(n > 0 for n in confirmations.values())
    return table


def theta(sigma: Permutation) -> Mat3:
    """The matrix of sigma in the 3-dimensional integer representation."""
    return _theta_table()[sigma]


def theta_action(sigma: Permutation) -> Mat3:
    """The matrix that transports triples along the right tuple action.

    Because the tuple action is a right action, the transport matrix of a
    composite is the product in reversed order; equivalently the matrix of
    the inverse element.  On the involutive generators this coincides with
    theta itself, so every generator equation keeps its familiar form.
    """
    return theta(sigma.inverse())


def theta_kernel_image() -> tuple[list[Permutation], int]:
    kernel = [p for p in all_permutations() if theta(p) == MAT_ID]
    image_size = len({theta(p) for p in all_permutations()})
    return sorted(kernel), image_size


# ---------------------------------------------------------------------------
# function tables


@dataclass(frozen=True, eq=False)
class FunctionTable:
    """A finite table of values on ordered 4-tuples of marked labels.

    Tuples with a repeated entry inside the first or the second pair are 0
    by convention and need not be stored.  Tables coming from an actual
    map invariant have no values on the remaining repeated-entry tuples
    (get returns None there); tables built from a two-variable g are total.
    """

    labels: tuple
    values: dict = field(default_factory=dict)

    def __post_init__(self):
        labels = tuple(self.labels)
        if len(set(labels)) != len(labels):
            raise ValueError("labels must be distinct")
        if len(labels) < 4:
            raise ValueError("need at least four labels")
        object.__setattr__(self, "labels", labels)
        label_set = set(labels)
        for t in self.values:
            if len(t) != 4 or any(u not in label_set for u in t):
                raise ValueError(f"bad tuple key {t!r}")

    def get(self, t):
        t = tuple(t)
        if t[0] == t[1] or t[2] == t[3]:
            return 0
        return self.values.get(t)

    def __call__(self, *t):
        if len(t) == 1:
            t = tuple(t[0])
        v = self.get(t)
        if v is None:
            raise KeyError(f"no value for {t!r}")
        return v

    def distinct_tuples(self):
        return itertools.permutations(self.labels, 4)

    def is_total_on_distinct(self) -> bool:
        return all(self.get(t) is not None for t in self.distinct_tuples())

    def perturbed(self, t, delta) -> "FunctionTable":
        """A copy with one entry shifted; for fault-injection tests."""
        t = tuple(t)
        values = dict(self.values)
        values[t] = self.get(t) + delta if self.get(t) is not None else delta
        return FunctionTable(self.labels, values)


def table_from_function(labels, fn) -> FunctionTable:
    """Tabulate fn on every 4-tuple that is not zero by convention."""
    labels = tuple(labels)
    values = {}
    for t in itertools.product(labels, repeat=4):
        if t[0] == t[1] or t[2] == t[3]:
            continue
        values[t] = fn(*t)
    return FunctionTable(labels, values)


def quadratic_table(labels) -> FunctionTable:
    """(x1 - x2) * (x3 - x4) on numeric labels; the model total table."""
    return table_from_function(labels, lambda a, b, c, d: (a - b) * (c - d))


# act_on_tuple by the cyclic shift and the double shift, as fixed gathers
_SHIFT = itemgetter(*(i - 1 for i in TAU_CYCLE.images))
_SHIFT_TWICE = itemgetter(*(i - 1 for i in TAU_SQUARED.images))


def f_triple(F: FunctionTable, x) -> tuple:
    """(F at x, F at the cyclic shift, F at the double shift).

    The components sum to zero whenever F satisfies the cyclic relation.
    """
    x = tuple(x)
    return F(x), F(_SHIFT(x)), F(_SHIFT_TWICE(x))


@lru_cache(maxsize=4)
def _gathers(n: int) -> dict[Permutation, tuple[int, ...]]:
    """The action of each permutation on the distinct 4-tuples of n labels.

    Entry i of sigma's gather is the position, in distinct_tuples() order,
    of the i-th tuple acted on by sigma.  It depends on n only, so every
    table on n labels shares it.
    """
    tuples = list(itertools.permutations(range(n), 4))
    index = {t: i for i, t in enumerate(tuples)}
    return {
        sigma: tuple(index[act_on_tuple(t, sigma)] for t in tuples)
        for sigma in all_permutations()
    }


def _lazy_values(F: FunctionTable):
    """F's distinct tuples, and a reader of F at the i-th of them.

    Each entry is read from F once, when first asked for, so a missing
    entry raises the KeyError of F(t) at the same point as a direct call.
    """
    tuples = list(F.distinct_tuples())
    values = [None] * len(tuples)

    def value(i):
        v = values[i]
        if v is None:
            v = values[i] = F(tuples[i])
        return v

    return tuples, value


@dataclass(frozen=True)
class RelationCheck:
    name: str
    passed: bool
    checked: int
    counterexample: tuple | None = None


def check_relations(F: FunctionTable) -> dict[str, RelationCheck]:
    """Exhaustive verification of the three table relations.

    cyclic_sum:   F(x) + F(x shifted) + F(x shifted twice) = 0
    swap_sign:    swapping either pair flips the sign
    split_w:      the first-pair splitting through every admissible w
    Each result carries the first counterexample, if any.

    Each relation first tests that the difference of its two sides is
    exactly zero, which implies _eq for every value type (equal infinities
    differ by NaN), and only otherwise compares through _eq.
    """
    tuples, value = _lazy_values(F)
    gathers = _gathers(len(F.labels))
    out: dict[str, RelationCheck] = {}

    checked = 0
    witness = None
    for i, (j, k) in enumerate(zip(gathers[TAU_CYCLE], gathers[TAU_SQUARED])):
        a, b, c = value(i), value(j), value(k)
        checked += 1
        if a + b + c != 0 and not _eq(a + b + c, 0):
            witness = (tuples[i], (a, b, c))
            break
    out["cyclic_sum"] = RelationCheck("cyclic_sum", witness is None, checked, witness)

    checked = 0
    witness = None
    for i, (j, k) in enumerate(zip(gathers[SIGMA1], gathers[SIGMA3])):
        base, first, second = value(i), value(j), value(k)
        checked += 1
        if (first + base != 0 or second + base != 0) and not (
            _eq(first, -base) and _eq(second, -base)
        ):
            witness = (tuples[i], (base, first, second))
            break
    out["swap_sign"] = RelationCheck("swap_sign", witness is None, checked, witness)

    checked = 0
    witness = None
    for i, t in enumerate(tuples):
        x1, x2, x3, x4 = t
        for w in F.labels:
            left = F.get((x1, w, x3, x4))
            right = F.get((w, x2, x3, x4))
            if left is None or right is None:
                continue
            checked += 1
            base = value(i)
            if base - (left + right) != 0 and not _eq(base, left + right):
                witness = ((t, w), (base, left, right))
                break
        if witness:
            break
    out["split_w"] = RelationCheck("split_w", witness is None, checked, witness)
    return out


@dataclass(frozen=True)
class SymmetryCheck:
    passed: bool
    checked: int
    witness: tuple | None = None


def verify_triple_symmetry(F: FunctionTable) -> SymmetryCheck:
    """The triple at a permuted tuple is the matrix transport of the triple.

    Checked for all 24 permutations against every distinct-entry tuple;
    equality is exact (or within 1e-9 for float tables).  The witness on
    failure is (cycle notation, tuple, expected, got).

    Each tuple's triple is read once, when the loop first reaches it.  The
    transport is compared by exact equality first; the transport matrices
    are signed permutations, so an infinite component makes another one
    NaN and only finite triples pass that test, which then pass _eq too.
    """
    tuples = list(F.distinct_tuples())
    triples = [None] * len(tuples)

    def triple(i):
        tr = triples[i] = f_triple(F, tuples[i])
        return tr

    gathers = _gathers(len(F.labels))
    perms = all_permutations()
    for s, sigma in enumerate(perms):
        mat = theta_action(sigma)
        (m00, m01, m02), (m10, m11, m12), (m20, m21, m22) = mat
        for i, j in enumerate(gathers[sigma]):
            a, b, c = triples[i] or triple(i)
            got = triples[j] or triple(j)
            if got != (m00 * a + m01 * b + m02 * c,
                       m10 * a + m11 * b + m12 * c,
                       m20 * a + m21 * b + m22 * c):
                expected = mat_vec(mat, (a, b, c))
                if not all(_eq(e, g) for e, g in zip(expected, got)):
                    return SymmetryCheck(
                        False, s * len(tuples) + i + 1,
                        (sigma.cycle_notation(), tuples[i], expected, got),
                    )
    return SymmetryCheck(True, len(perms) * len(tuples))


# ---------------------------------------------------------------------------
# the two-variable decomposition


def build_f_from_g(g, labels=None) -> FunctionTable:
    """The total table F(x1,x2,x3,x4) = g(x1,x3) - g(x1,x4) - g(x2,x3) + g(x2,x4).

    g is a mapping on ordered label pairs or a two-argument callable.
    """
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


def normalize_g(g: dict, a, b) -> dict:
    """Shift a two-variable table so the a-row and b-column vanish."""
    return {
        (u, v): g[(u, v)] - g[(u, b)] - g[(a, v)] + g[(a, b)]
        for (u, v) in g
    }


def decompose_g(F: FunctionTable, a=None, b=None) -> dict:
    """Recover a two-variable table g reproducing F, pinned by g(a,.) = g(.,b) = 0.

    For a total table the direct slice g(u,v) = F(u,a,v,b) is the unique
    normalized solution.  A table with values only on distinct-entry
    tuples determines g up to a constant on the (.,a) column and another
    on the (b,.) row; those are anchored at zero and the reconstruction is
    verified exhaustively against every available entry of F.
    """
    ordered = sorted(F.labels)
    if a is None:
        a = ordered[0]
    if b is None:
        b = ordered[1]
    if a not in F.labels or b not in F.labels:
        raise ValueError("a and b must be table labels")

    relations = check_relations(F)
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


# ---------------------------------------------------------------------------
# tables from the map invariant


def rf_table(
    spec: MapSpec,
    points,
    tol: Tolerances = DEFAULT_TOL,
    seed: int = 0,
) -> FunctionTable:
    """Tabulate the map invariant over all distinct 4-tuples of the points.

    Labels are the point indices 0..n-1.  The resulting table is total on
    distinct tuples and exact (integers), ready for the relation checks
    and the decomposition.
    """
    pts = [as_sphere_point(p) for p in points]
    if len(pts) < 4:
        raise ValueError("need at least four points")
    if len(set(pts)) != len(pts):
        raise ValueError("points must be pairwise distinct")
    require_fixed(spec, pts, tol)
    ev = RfEvaluator(spec, tol, seed)
    labels = tuple(range(len(pts)))
    values = {}
    for t in itertools.permutations(labels, 4):
        values[t] = ev.value(*(pts[i] for i in t))
    return FunctionTable(labels, values)
