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
from collections.abc import Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from operator import add, and_, is_, itemgetter, ne, neg, not_, or_, sub
from types import MappingProxyType
from typing import NamedTuple

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
        return Permutation(tuple(sorted((1, 2, 3, 4), key=self)))

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
# sigma3 then tau^k, for k = 0, 1, 2
SIGMA3_WORDS = tuple(SIGMA3.compose(shift) for shift in (IDENTITY_PERM, TAU_CYCLE, TAU_SQUARED))


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


def _by_words(start, generators: dict, step) -> dict:
    """start at the identity, extended along every word in the generators:
    the value at sigma.compose(gen) is step(the value at sigma,
    generators[gen]).  Each permutation is reached along several words,
    and the values along different words must coincide, which is asserted
    (the extension is well defined), as is that the words reach all 24."""
    table, order, confirmed = {IDENTITY_PERM: start}, [IDENTITY_PERM], set()
    for sigma in order:  # order grows as it is read: breadth first
        for gen, value in generators.items():
            longer, product = sigma.compose(gen), step(table[sigma], value)
            if longer in table:
                assert table[longer] == product, f"word-dependent value at {longer.cycle_notation()}"
                confirmed.add(longer)
            else:
                table[longer] = product
                order.append(longer)
    assert len(table) == len(confirmed) == 24
    return table


@lru_cache(maxsize=1)
def _theta_table() -> dict[Permutation, Mat3]:
    """The generator assignment, extended to all 24 elements by word search."""
    return _by_words(MAT_ID, dict(_GENERATORS), mat_mul)


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

    A table is read-only.  get and the checks read its product column (see
    _ProductLayout).  A table made from a mapping keeps a copy of it, keys
    validated in bulk, and reads the column from it on first use, one
    values.get per key.  build_f_from_g and perturbed hand a column over
    and keep no dict: values is then a view of a dict made on first read,
    in the order a dict built beside the column would have.  values is
    read-only: assigning to table.values[t] raises TypeError, and a later
    change to the caller's mapping changes no answer of the table.  A
    changed table is a new table (perturbed).  The relation results are
    kept with the table too, so check_relations and decompose_g scan each
    relation once.
    """

    labels: tuple
    values: Mapping = field(default_factory=dict)

    def __post_init__(self):
        labels = tuple(self.labels)
        if len(set(labels)) != len(labels):
            raise ValueError("labels must be distinct")
        if len(labels) < 4:
            raise ValueError("need at least four labels")
        values = dict(self.values)
        label_set = set(labels)
        try:
            valid = (set(map(len, values)) <= {4}
                     and label_set.issuperset(itertools.chain.from_iterable(values)))
        except TypeError:  # a key with no length; the scan below raises on it
            valid = False
        if not valid:
            for t in values:
                if len(t) != 4 or not label_set.issuperset(t):
                    raise ValueError(f"bad tuple key {t!r}")
        object.__setattr__(self, "values", MappingProxyType(values))
        self._keep(labels, None)

    def _keep(self, labels: tuple, product) -> None:
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "_index", dict(zip(labels, itertools.count())))
        object.__setattr__(self, "_product", product)
        object.__setattr__(self, "_checks", {})

    @classmethod
    def _with_column(cls, labels: tuple, make, column: list,
                     missing: list | None) -> "FunctionTable":
        """A table on checked labels that keeps a product column (with its
        missing mask); its values are make()'s dict, made on first read."""
        table = object.__new__(cls)
        table._keep(labels, (column, missing))
        object.__setattr__(table, "_make", make)
        return table

    def __getattr__(self, name):
        if name != "values":  # only a column-built table has no values yet
            raise AttributeError(name)
        object.__setattr__(self, "values", MappingProxyType(self._make()))
        return self.values

    def _column(self) -> tuple[list, list | None]:
        """The product column (see _ProductLayout) and its missing mask
        (None when no entry is missing), read on first use only."""
        if self._product is None:
            column, missing = _read(self.values, _product_keys(self.labels))
            column.append(0)
            if missing:
                missing.append(False)
            object.__setattr__(self, "_product", (column, missing))
        return self._product

    def get(self, t):
        t = tuple(t)
        if t[0] == t[1] or t[2] == t[3]:
            return 0
        i = _product_layout(len(self.labels)).position.get(tuple(map(self._index.get, t)))
        column, missing = self._column()
        return None if i is None or missing and missing[i] else column[i]

    def __call__(self, *t):
        if len(t) == 1:
            t = tuple(t[0])
        v = self.get(t)
        if v is None:
            raise KeyError(f"no value for {t!r}")
        return v

    def distinct_tuples(self):
        return itertools.permutations(self.labels, 4)

    def perturbed(self, t, delta) -> "FunctionTable":
        """A copy with one entry shifted; for fault-injection tests.

        A tuple that is zero by convention has no entry to shift (get never
        reads one there), so it raises ValueError, as does a tuple that is
        not a key of this table.  The copy keeps a copy of the product
        column with one slot changed; its values dict, when read, is this
        table's with that entry set.
        """
        t = tuple(t)
        if len(t) == 4 and (t[0] == t[1] or t[2] == t[3]):
            raise ValueError(f"{t!r} is zero by convention; there is no entry to perturb")
        if len(t) != 4 or not set(self.labels).issuperset(t):
            raise ValueError(f"bad tuple key {t!r}")
        i = _product_layout(len(self.labels)).position[tuple(map(self._index.get, t))]
        column, missing = self._column()
        column = column.copy()
        if missing and missing[i]:
            column[i] = delta
            missing = missing.copy()
            missing[i] = False
            if True not in missing:
                missing = None
        else:
            column[i] += delta
        value = column[i]
        return FunctionTable._with_column(
            self.labels, lambda: {**self.values, t: value}, column, missing)


def table_from_function(labels, fn) -> FunctionTable:
    """Tabulate fn on every 4-tuple that is not zero by convention."""
    labels = tuple(labels)
    return FunctionTable(labels, {t: fn(*t) for t in _product_keys(labels)})


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


# ---------------------------------------------------------------------------
# column reads and index gathers
#
# The index structures depend on the number of labels only; they are built
# on first use and shared by every table on that many labels.  Key lists are
# made per table from its own labels, because equal label tuples of
# different types (1 and 1.0) must not share keys.


@lru_cache(maxsize=4)
def _tuples(n: int) -> tuple[tuple[int, ...], ...]:
    """The distinct 4-tuples of label indices, in distinct_tuples() order."""
    return tuple(itertools.permutations(range(n), 4))


def _key(F: FunctionTable, i: int) -> tuple:
    """F's i-th distinct tuple, in distinct_tuples() order."""
    return tuple(map(F.labels.__getitem__, _tuples(len(F.labels))[i]))


@lru_cache(maxsize=4)
def _gathers(n: int) -> dict[Permutation, tuple[int, ...]]:
    """The action of each permutation on the distinct 4-tuples of n labels.

    Entry i of sigma's gather is the position, in distinct_tuples() order,
    of the i-th tuple acted on by sigma.  It depends on n only, so every
    table on n labels shares it.
    """
    tuples = _tuples(n)
    position = dict(zip(tuples, itertools.count())).__getitem__
    generators = {
        gen: tuple(map(position, map(itemgetter(*(i - 1 for i in gen.images)), tuples)))
        for gen, _ in _GENERATORS
    }
    # acting by sigma then rho is acting by sigma.compose(rho), so the
    # gather of the composite is rho's gather read at sigma's
    return _by_words(tuple(range(len(tuples))), generators,
                     lambda gather, rho: itemgetter(*gather)(rho))


@lru_cache(maxsize=4)
def _getters(n: int) -> dict[Permutation, itemgetter]:
    """_gathers(n) as getters: sigma's getter reads a column at sigma's gather."""
    return {sigma: itemgetter(*gather) for sigma, gather in _gathers(n).items()}


@lru_cache(maxsize=1)
def _transport() -> dict[Permutation, tuple[Mat3, tuple[tuple[int, int], ...]]]:
    """Each permutation's transport matrix, and that matrix as a signed
    permutation: row k is sign * (unit row p), given as (p, sign).

    Row k of sigma's matrix is also row 0 of the matrix of sigma then
    tau^k, because component k of the triple at x acted on by sigma is
    component 0 of the triple at x acted on by sigma then tau^k.  That is
    asserted here, with what verify_triple_symmetry's generator argument
    needs: tau's matrix shifts a triple cyclically, and along the words in
    tau and sigma3, which reach all 24 permutations, the matrix of sigma
    then a generator is the generator's matrix times sigma's.
    """
    out = {}
    for sigma in all_permutations():
        mat = theta_action(sigma)
        signed = []
        for row in mat:
            ((p, sign),) = ((p, m) for p, m in enumerate(row) if m)
            assert sign in (1, -1), f"transport of {sigma.cycle_notation()} is not signed"
            signed.append((p, sign))
        out[sigma] = (mat, tuple(signed))
    for sigma, (mat, _) in out.items():
        for k, shift in enumerate((IDENTITY_PERM, TAU_CYCLE, TAU_SQUARED)):
            assert theta_action(sigma.compose(shift))[0] == mat[k], (
                f"row {k} of the transport of {sigma.cycle_notation()}")
    assert out[TAU_CYCLE][1] == ((1, 1), (2, 1), (0, 1))
    assert list(out)[:2] == [IDENTITY_PERM, SIGMA3]  # verify_triple_symmetry's stop at (34)
    words = _by_words(MAT_ID, {gen: out[gen][0] for gen in (TAU_CYCLE, SIGMA3)},
                      lambda mat, gen_mat: mat_mul(gen_mat, mat))
    assert words == {sigma: mat for sigma, (mat, _) in out.items()}
    return out


class _ProductLayout(NamedTuple):
    """Where the checks find their entries in a product column.

    A product column holds a table's values at the tuples of the 4-fold
    label product that are not zero by convention (mask), in product
    order, followed by one 0 that every zero-convention tuple reads.
    position maps a label-index 4-tuple that is not zero by convention to
    its place in the column; distinct gathers its distinct tuples.  pivots
    gathers base, left and right of split_w's shortcut (see check_relations):
    F(t) = F(x1, w, x3, x4) + F(w, x2, x3, x4) through w = w0, x3, x4 for
    each distinct t, then 0 = A(w0, w) + A(w, w0) when n > 4.
    """

    mask: tuple[bool, ...]
    position: dict[tuple[int, ...], int]
    distinct: itemgetter
    pivots: tuple[itemgetter, itemgetter, itemgetter]


@lru_cache(maxsize=4)
def _product_layout(n: int) -> _ProductLayout:
    product = list(itertools.product(range(n), repeat=4))
    mask = tuple(t[0] != t[1] and t[2] != t[3] for t in product)
    position = dict(zip(itertools.compress(product, mask), itertools.count()))
    at, zero = position.get, len(position)
    rows = [(position[t], at((t[0], w, t[2], t[3]), zero), at((w, t[1], t[2], t[3]), zero))
            for t in _tuples(n) for w in (min({0, 1, 2} - {t[2], t[3]}), t[2], t[3])
            if w not in t[:2]]  # trivial through x1 or x2
    for x3, x4 in itertools.permutations(range(n), 2) if n > 4 else ():
        w0 = min({0, 1, 2} - {x3, x4})  # the first label outside the pair
        rows += [(zero, position[w0, w, x3, x4], position[w, w0, x3, x4])
                 for w in range(n) if w not in (w0, x3, x4)]
    return _ProductLayout(mask, position, itemgetter(*map(position.__getitem__, _tuples(n))),
                          tuple(itemgetter(*side) for side in zip(*rows)))


@lru_cache(maxsize=4)
def _split_scan(n: int) -> tuple[itemgetter, itemgetter, itemgetter]:
    """Gathers of F(t), F(x1, w, x3, x4) and F(w, x2, x3, x4) from a
    product column, for every pair (t, w) in split_w's scan order: t over
    distinct tuples, then w over labels."""
    position = _product_layout(n).position
    zero = len(position)
    base, left, right = [], [], []
    for t in _tuples(n):
        x1, x2, x3, x4 = t
        base += [position[t]] * n
        left += [position.get((x1, w, x3, x4), zero) for w in range(n)]
        right += [position.get((w, x2, x3, x4), zero) for w in range(n)]
    return itemgetter(*base), itemgetter(*left), itemgetter(*right)


def _product_keys(labels: tuple):
    """The tuples of a product column's entries, in its order."""
    return itertools.compress(itertools.product(labels, repeat=4),
                              _product_layout(len(labels)).mask)


@lru_cache(maxsize=8)
def _coboundary_getters(n: int, distinct: bool) -> tuple[itemgetter, ...]:
    """Gathers of g(x1,x3), g(x1,x4), g(x2,x3) and g(x2,x4) from g's values
    in label-pair product order, over a product column's tuples x, or over
    the distinct tuples x in distinct_tuples() order."""
    tuples = (itertools.permutations(range(n), 4) if distinct else itertools.compress(
        itertools.product(range(n), repeat=4), _product_layout(n).mask))
    tuples = list(tuples)
    return tuple(itemgetter(*(t[i] * n + t[j] for t in tuples))
                 for i, j in ((0, 2), (0, 3), (1, 2), (1, 3)))


def _coboundary(g, labels: tuple, distinct: bool = False) -> list:
    """g(x1,x3) - g(x1,x4) - g(x2,x3) + g(x2,x4) as a product column, or at
    the distinct tuples, with the operations of the formula in its order."""
    values = list(map(g.__getitem__, itertools.product(labels, repeat=2)))
    g13, g14, g23, g24 = (get(values) for get in _coboundary_getters(len(labels), distinct))
    return list(map(add, map(sub, map(sub, g13, g14), g23), g24))


def _read(values: dict, keys) -> tuple[list, list | None]:
    """values.get at each key, as a list with every missing value set to 0,
    and the mask of the missing ones (None when none is missing)."""
    column = list(map(values.get, keys))
    if None not in column:
        return column, None
    missing = list(map(is_, column, itertools.repeat(None)))
    for i in itertools.compress(itertools.count(), missing):
        column[i] = 0
    return column, missing


def _distinct_column(F: FunctionTable) -> tuple[tuple, tuple | None]:
    """F's values at its distinct tuples, in distinct_tuples() order and with
    every missing value set to 0, and the mask of the missing ones (None
    when none is missing): gathers of the kept product column."""
    column, missing = F._column()
    distinct = _product_layout(len(F.labels)).distinct
    m = distinct(missing) if missing else None
    return distinct(column), (m if m is not None and True in m else None)


def _rows(*columns):
    """The positions, in order, at which any of the columns is not exactly 0.

    The columns are lists of differences or of flags (False is 0); the
    common case, all zero, is settled by list.count at C speed.
    """
    if all(column.count(0) == len(column) for column in columns):
        return ()
    nonzero = (map(ne, column, itertools.repeat(0)) for column in columns)
    return itertools.compress(itertools.count(), map(any, zip(*nonzero)))


def _first_failure(rows, rule):
    """The first row at which rule returns a witness, and that witness."""
    for i in rows:
        witness = rule(i)
        if witness is not None:
            return i, witness
    return None, None


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

    F is read once, as its product column: split_w reads F at tuples with
    an entry repeated across the pairs, which are not distinct tuples.  Each
    relation's sides are index gathers of that column, and their
    difference is formed for all rows at once.  An exact zero difference
    implies _eq for every value type (equal infinities differ by NaN).
    Only a row whose difference is not exactly zero, or that reads a
    missing entry, is checked on its own with _eq, in the plain scan's
    order, reading F again, so a missing entry raises the scan's KeyError.
    Each result is kept with F, so decompose_g scans no relation again.

    On a table with no missing entry and only int and Fraction values,
    split_w is settled on three pivots.  Fix (x3, x4); let A(a, b) =
    F(a, b, x3, x4), 0 when a = b, and S the labels outside {x3, x4}.
    split_w asks A(x1, x2) = A(x1, w) + A(w, x2) for distinct x1, x2 in S
    and every label w: trivial for w = x1 or x2, so with four labels only
    the pivots x3 and x4 remain.  With n >= 5 it holds for every w exactly
    when it holds for w0 (S's first label), x3 and x4, and A(w0, w) =
    -A(w, w0) for every w in S.  Only if: with u a third label of S, the
    equations at (u, w0) through w and at (u, w) through w0 add up to
    A(w, w0) + A(w0, w) = 0.  If: for w in S outside {x1, x2, w0}, the
    equations at (x1, w) and (w, x2) through w0 add up to A(x1, w) +
    A(w, x2) = A(x1, w0) + A(w0, x2) + A(w0, w) + A(w, w0) = A(x1, x2).
    Exact arithmetic makes equality the test; any miss runs the full scan.
    """
    return _relations(F, cyclic_sum=True)


_EXACT = frozenset((int, Fraction))


def _relations(F: FunctionTable, cyclic_sum: bool) -> dict[str, RelationCheck]:
    """check_relations, with cyclic_sum only when asked for or when a distinct
    entry is missing: the scans' order decides which one the KeyError names.

    A relation's result is kept with F when its scan ends, and a kept
    result is not scanned again.  A scan depends on F alone, so every
    result, and the KeyError of a scan that reads a missing entry, is the
    same as when all the scans run.
    """
    col, m = _distinct_column(F)
    names = ("swap_sign", "split_w")
    if cyclic_sum or m is not None:
        names = ("cyclic_sum", *names)
    kept = F._checks
    todo = [name for name in names if name not in kept]
    if not todo:
        return {name: kept[name] for name in names}

    n = len(F.labels)
    gathers, getters = _gathers(n), _getters(n)

    def reads_missing(*sigmas):
        """Flags of the rows that read a missing entry, at a row or its images."""
        return [] if m is None else [m, *(getters[sigma](m) for sigma in sigmas)]

    def read(i, sigma):
        return F(_key(F, gathers[sigma][i]))

    def cyclic(i):
        a, b, c = F(_key(F, i)), read(i, TAU_CYCLE), read(i, TAU_SQUARED)
        return None if _eq(a + b + c, 0) else (_key(F, i), (a, b, c))

    if "cyclic_sum" in todo:
        shift, twice = getters[TAU_CYCLE], getters[TAU_SQUARED]
        flags = [list(map(add, map(add, col, shift(col)), twice(col))),
                 *reads_missing(TAU_CYCLE, TAU_SQUARED)]
        i, witness = _first_failure(_rows(*flags), cyclic)
        kept["cyclic_sum"] = RelationCheck(
            "cyclic_sum", witness is None, len(col) if witness is None else i + 1, witness)

    def swap(i):
        base, a, b = F(_key(F, i)), read(i, SIGMA1), read(i, SIGMA3)
        return None if _eq(a, -base) and _eq(b, -base) else (_key(F, i), (base, a, b))

    if "swap_sign" in todo:
        first, second = getters[SIGMA1], getters[SIGMA3]
        flags = [list(map(add, first(col), col)), list(map(add, second(col), col)),
                 *reads_missing(SIGMA1, SIGMA3)]
        i, witness = _first_failure(_rows(*flags), swap)
        kept["swap_sign"] = RelationCheck(
            "swap_sign", witness is None, len(col) if witness is None else i + 1, witness)

    def split(q):
        i, w = divmod(q, n)
        here = F(_key(F, i))
        if _eq(here, left[q] + right[q]):
            return None
        return (_key(F, i), F.labels[w]), (here, left[q], right[q])

    if "split_w" in todo:
        column, missing = F._column()
        base, left, right = _product_layout(n).pivots
        if (missing is None and _EXACT.issuperset(map(type, column))
                and tuple(map(add, left(column), right(column))) == base(column)):
            kept["split_w"] = RelationCheck("split_w", True, n * len(col))
            return {name: kept[name] for name in names}
        scan = _split_scan(n)
        base, left, right = (gather(column) for gather in scan)
        differs = list(map(sub, base, map(add, left, right)))
        if missing:
            # a pair with a missing side is skipped; a missing F(t) raises
            valid = list(map(not_, map(or_, scan[1](missing), scan[2](missing))))
            to_check = map(or_, scan[0](missing), map(ne, differs, itertools.repeat(0)))
            flags = [list(map(and_, valid, to_check))]
        else:
            valid = None
            flags = [differs]
        q, witness = _first_failure(_rows(*flags), split)
        if valid is None:
            checked = len(base) if witness is None else q + 1
        else:
            checked = valid.count(True) if witness is None else valid[:q + 1].count(True)
        kept["split_w"] = RelationCheck("split_w", witness is None, checked, witness)
    return {name: kept[name] for name in names}


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

    F is read as its kept column, over distinct_tuples(); the triples are
    that column and two gathers of it.  Each transport matrix is a signed
    permutation, so each component of a transported triple is plus or
    minus a triple column, compared at once with a gather of one.

    Exact agreement is settled on the generators tau = (123) and sigma3 =
    (34).  tau's equation holds by definition: its matrix shifts the triple
    cyclically, as acting by tau does.  sigma3's three components are the
    first components under sigma3 then tau^k, k = 0, 1, 2 (row k of sigma's
    matrix is row 0 of that of sigma then tau^k): three gathers.  Equations
    that hold at every tuple for sigma and for a generator hold for sigma
    then the generator, whose matrix is the generator's times sigma's, and
    exactly so, since a signed permutation of equal triples gives equal
    triples; the words in tau and sigma3 reach all 24 permutations (see
    _transport).  Exact agreement implies _eq only for finite values (a
    NaN object equals itself in a tuple comparison, and the matrix product
    turns an infinite entry into NaN).

    When the generators disagree on a table with no missing or non-finite
    entry, the plain scan's first failure is under sigma3, its second
    permutation, if anywhere: the identity holds at every row, and so does
    each row where sigma3's three comparisons agree.  The rows where they
    differ are checked with _eq in order.  If all hold (a float table within
    1e-9), or with a missing or non-finite entry, the permutations are
    compared in full, and each row whose comparison fails, or that reads a
    missing or non-finite entry, is checked with _eq in the plain scan's
    order, reading F again, so a missing entry raises the scan's KeyError.
    """
    n = len(F.labels)
    col, missing = _distinct_column(F)
    getters, gathers, transport = _getters(n), _gathers(n), _transport()
    shift, twice = getters[TAU_CYCLE], getters[TAU_SQUARED]
    triple = (col, shift(col), twice(col))
    odd_rows, zeros = None, list(map(sub, col, col))  # x - x is not 0 when x is not finite
    if missing or zeros.count(0) != len(zeros):
        odd = list(map(or_, map(ne, zeros, itertools.repeat(0)), missing or itertools.repeat(0)))
        odd_rows = list(map(or_, map(or_, odd, shift(odd)), twice(odd)))

    def failure(s, sigma, i):
        """The plain scan's result if it fails at row i of its s-th permutation, sigma."""
        mat = transport[sigma][0]
        expected = mat_vec(mat, f_triple(F, _key(F, i)))
        there = f_triple(F, _key(F, gathers[sigma][i]))
        if not all(_eq(e, g) for e, g in zip(expected, there)):
            return SymmetryCheck(False, s * len(col) + i + 1,
                                 (sigma.cycle_notation(), _key(F, i), expected, there))
        return None

    if odd_rows is None:
        # row 0 of the transport of sigma3 then tau^k is row k of sigma3's:
        # F at sigma x is sign * F at a shift of x, so -F at sigma x is F there
        negated = tuple(map(neg, col))
        sides = [(getters[sigma](col if sign > 0 else negated), triple[p])
                 for sigma, (p, sign) in zip(SIGMA3_WORDS, transport[SIGMA3][1])]
        if all(got == want for got, want in sides):
            return SymmetryCheck(True, len(transport) * len(col))
        rows = set(itertools.chain.from_iterable(
            itertools.compress(itertools.count(), map(ne, got, want)) for got, want in sides))
        _, result = _first_failure(sorted(rows), lambda i: failure(1, SIGMA3, i))
        if result is not None:
            return result

    negated = tuple(tuple(map(neg, x)) for x in triple)
    for s, (sigma, (_, signed)) in enumerate(transport.items()):
        gather = getters[sigma]
        got = tuple(map(gather, triple))
        want = tuple(triple[p] if sign > 0 else negated[p] for p, sign in signed)
        if got == want and odd_rows is None:
            continue
        flags = [list(map(ne, zip(*got), zip(*want)))]
        if odd_rows is not None:
            flags += [odd_rows, gather(odd_rows)]
        _, result = _first_failure(_rows(*flags), lambda i: failure(s, sigma, i))
        if result is not None:
            return result
    return SymmetryCheck(True, len(transport) * len(col))


# ---------------------------------------------------------------------------
# the two-variable decomposition


def build_f_from_g(g, labels=None) -> FunctionTable:
    """The total table F(x1,x2,x3,x4) = g(x1,x3) - g(x1,x4) - g(x2,x3) + g(x2,x4).

    g is a mapping on ordered label pairs or a two-argument callable.  A
    mapping is read once, in label-pair order, and F's product column is
    four gathers of it; the table keeps only that column (see FunctionTable).
    """
    if callable(g):
        if labels is None:
            raise ValueError("labels are required with a callable g")
        return table_from_function(
            labels,
            lambda x1, x2, x3, x4: g(x1, x3) - g(x1, x4) - g(x2, x3) + g(x2, x4),
        )
    if labels is None:
        labels = sorted({u for u, _ in g} | {v for _, v in g})
    labels = FunctionTable(labels).labels  # the label checks, before g is read
    column = _coboundary(g, labels)
    column.append(0)
    return FunctionTable._with_column(
        labels, lambda: dict(zip(_product_keys(labels), column)), column, None)


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

    relations = _relations(F, cyclic_sum=False)
    for rel in ("swap_sign", "split_w"):
        if not relations[rel].passed:
            raise RelationViolated(
                f"table fails the {rel} relation at {relations[rel].counterexample!r}"
            )

    # the slice F(u, a, v, b), label pairs (u, v) in product order, as one
    # gather of the column: a zero-convention tuple reads its 0
    n, ia, ib = len(F.labels), F._index[a], F._index[b]
    position = _product_layout(n).position
    at = itemgetter(*(position.get((u, ia, v, ib), len(position))
                      for u in range(n) for v in range(n)))
    column, missing = F._column()
    if not missing or True not in at(missing):
        g = dict(zip(itertools.product(F.labels, repeat=2), at(column)))
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

    # g's table at the distinct tuples, against F's, where only an entry
    # that differs exactly is looked at on its own.  The swap_sign check has
    # read every distinct entry, so none is missing.
    want, _ = _distinct_column(F)
    got = _coboundary(g, F.labels, distinct=True)
    for i in _rows(list(map(sub, want, got))):
        if not _eq(want[i], got[i]):
            raise RelationViolated(
                f"decomposition does not reproduce the table at {_key(F, i)!r}: "
                f"{want[i]} vs {got[i]}"
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
    values = {t: ev.value(*(pts[i] for i in t)) for t in itertools.permutations(labels, 4)}
    return FunctionTable(labels, values)
