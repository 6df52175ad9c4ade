"""Dense exact linear algebra over a finite field.

Matrices are immutable (tuple-of-tuples of raw ints plus a FieldSpec);
elimination (row_inserter) inserts rows into an echelon basis in their
given order and never modifies them, so every result is deterministic.
"""

from __future__ import annotations

from itertools import chain, combinations
from math import comb

from .errors import ENUMERATION_GUARD, Inconsistent, RankDeficient, ResourceGuard
from .galois import FieldSpec


class GFMatrix:
    __slots__ = ("rows", "cols", "data", "spec")

    def __init__(self, spec: FieldSpec, data):
        rows = tuple(map(tuple, data))
        spec.validate_all(chain.from_iterable(rows))
        if rows:
            ncols = len(rows[0])
            if any(len(r) != ncols for r in rows):
                raise ValueError("ragged rows")
        else:
            ncols = 0
        self.spec = spec
        self.data = rows
        self.rows = len(rows)
        self.cols = ncols

    def __getitem__(self, ij):
        i, j = ij
        return self.data[i][j]

    def row(self, i: int):
        return self.data[i]

    def restrict_columns(self, cols) -> "GFMatrix":
        cols = list(cols)
        return GFMatrix(self.spec, [[r[j] for j in cols] for r in self.data])

    def mul_vector(self, vec):
        if len(vec) != self.cols:
            raise ValueError("vector length differs from column count")
        mul, add = self.spec.mul, self.spec.add
        out = []
        for r in self.data:
            acc = 0
            for x, y in zip(r, vec):
                if x and y:
                    acc = add(acc, mul(x, y))
            out.append(acc)
        return out

    def to_dict(self) -> dict:
        return {"rows": self.rows, "cols": self.cols,
                "field": self.spec.to_dict(), "data": [list(r) for r in self.data]}

    @classmethod
    def from_dict(cls, d: dict) -> "GFMatrix":
        if not isinstance(d, dict):
            raise ValueError(f"a matrix must be an object, got {type(d).__name__}")
        m = cls(FieldSpec.from_dict(d["field"]), list_of_rows(d["data"], "matrix data"))
        for key in ("rows", "cols"):
            if key in d and (type(d[key]) is not int or d[key] != getattr(m, key)):
                raise ValueError(f"matrix declares {key} = {d[key]!r}, its data has "
                                 f"{getattr(m, key)}")
        return m

    def __eq__(self, other):
        return (isinstance(other, GFMatrix) and self.spec == other.spec
                and self.data == other.data)

    def __hash__(self):
        return hash((self.spec, self.data))

    def __repr__(self):
        return f"GFMatrix({self.spec}, {self.rows}x{self.cols})"


def list_of_rows(data, what: str) -> list:
    """data, checked to be a list of lists (the JSON form of a matrix or grid)."""
    if not (isinstance(data, list) and all(isinstance(row, list) for row in data)):
        raise ValueError(f"{what} must be a list of rows, each a list")
    return data


def row_inserter(spec: FieldSpec):
    """The one elimination over spec: insert(basis, row) -> bool.

    basis is a list of (pivot column, row, key) in insertion order, where
    each row is zero before its own pivot and at the pivots of the rows
    before it.  insert clears row against the basis rows in that order,
    appends it with its first nonzero column as pivot and returns True, or
    returns False if it reduced to zero; the basis then spans the same space
    as the rows inserted.  No pivot row is normalised: over a prime field the
    step is fraction-free, row <- a*row - f*prow for the pivot a; over
    GF(2^k) key is the pivot's log-inverse and row <- row - (f/a)*prow costs
    one table lookup per entry.
    """
    if spec.k > 1:
        exp, log, n = spec._exp, spec._log, spec.order - 1

        def pivot_key(a):
            return n - log[a]

        def clear(row, f, prow, key):
            lf = log[f] + key
            if lf >= n:
                lf -= n
            return [x ^ exp[lf + log[y]] if y else x for x, y in zip(row, prow)]
    else:
        p = spec.p

        def pivot_key(a):
            return a

        def clear(row, f, prow, a):
            return [(a * x - f * y) % p for x, y in zip(row, prow)]

    def insert(basis, row) -> bool:
        for c, prow, key in basis:
            f = row[c]
            if f:
                row = clear(row, f, prow, key)
        for c, x in enumerate(row):
            if x:
                basis.append((c, row, pivot_key(x)))
                return True
        return False
    return insert


def rank(m: GFMatrix) -> int:
    """Rank over GF(q): the number of rows row_inserter keeps.

    Once the basis holds m.cols rows every later row reduces to zero, so the
    rows of a taller-than-wide matrix stop being inserted there.
    """
    insert, basis = row_inserter(m.spec), []
    for row in m.data:
        if len(basis) == m.cols:
            break
        insert(basis, row)
    return len(basis)


def solve_unique(m: GFMatrix, rhs):
    """The unique x with m.x = rhs; full column rank required.

    Inserts the augmented rows, then back-substitutes in reverse insertion
    order: each basis row is zero at the pivots of the rows before it, so
    once the rows after it are solved, its own pivot is its one unknown.
    """
    if len(rhs) != m.rows:
        raise ValueError("rhs length differs from row count")
    spec = m.spec
    n = m.cols
    insert, basis = row_inserter(spec), []
    for r, v in zip(m.data, rhs):
        insert(basis, list(r) + [spec.validate(v)])
    if any(c == n for c, _, _ in basis):
        raise Inconsistent("no solution: contradictory equations")
    if len(basis) < n:
        raise RankDeficient(f"column rank {len(basis)} < {n}")
    sol = [0] * n
    for c, row, _ in reversed(basis):
        acc = row[n]
        for x, y in zip(row, sol):
            if x and y:
                acc = spec.sub(acc, spec.mul(x, y))
        sol[c] = spec.div(acc, row[c])
    return sol


def every_w_columns_independent(m: GFMatrix, w: int) -> bool:
    """True iff every w-subset of columns has rank w (MDS test at w = rows).

    The subsets are ranked one by one in lexicographic order, stopping at the
    first dependent one; ResourceGuard refuses, before any is ranked, when
    their number comb(cols, w) exceeds ENUMERATION_GUARD.
    """
    if not 1 <= w <= m.rows:
        raise ValueError("w must be in [1, rows]")
    subsets = comb(m.cols, w)
    if subsets > ENUMERATION_GUARD:
        raise ResourceGuard(f"{subsets} column subsets exceed guard {ENUMERATION_GUARD}")
    insert = row_inserter(m.spec)
    for subset in combinations(range(m.cols), w):
        basis = []
        if sum(insert(basis, [r[j] for j in subset]) for r in m.data) < w:
            return False
    return True
