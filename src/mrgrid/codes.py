"""Tensor-product codes C_col (x) C_row and their pseudo-parity check matrix.

Grid cells map to codeword coordinates row-major: cell (i, j) has index
i*n + j (0-based), matching a codeword written out row by row.  The
pseudo-parity matrix stacks all column constraints (a rows per grid column)
over a block diagonal of row-code parity matrices (b rows per grid row),
giving (a*n + b*m) x (m*n) in total.

A pattern E is correctable when the pseudo-parity matrix restricted to E's
cells has full column rank; restricted_rank is the one place that rank is
computed.  For a = 1 and nonzero column coefficients it equals
|V_E| + rank(B) for the reduced block B of reduce_restricted: (u-1)*b rows
for an irreducible pattern on u grid rows, one column per cell that is not
the first erased cell of its grid column, holding that grid column's
row-code column and its negation.  It carries no column coefficient.
certify_mr's sweep does not build it: B is the oracle that the sweep's
kernel coordinates are checked against.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import (Inconsistent, InconsistentWord, NotIrreducible, RankDeficient,
                     Uncorrectable)
from .galois import FieldSpec
from .gfmatrix import GFMatrix, list_of_rows, rank, solve_unique
from .patterns import ErasurePattern, Topology, _check_grid, is_irreducible


@dataclass(frozen=True)
class TensorCode:
    """A tensor product code given by its column and row parity-check matrices."""

    topology: Topology
    h_col: GFMatrix
    h_row: GFMatrix

    def __post_init__(self):
        t = self.topology
        if self.h_col.spec != self.h_row.spec:
            raise ValueError("h_col and h_row live in different fields")
        if (self.h_col.rows, self.h_col.cols) != (t.a, t.m):
            raise ValueError(f"h_col must be {t.a}x{t.m}")
        if (self.h_row.rows, self.h_row.cols) != (t.b, t.n):
            raise ValueError(f"h_row must be {t.b}x{t.n}")
        if rank(self.h_col) != t.a or rank(self.h_row) != t.b:
            raise ValueError("parity-check matrices must have full row rank")

    @property
    def spec(self) -> FieldSpec:
        return self.h_col.spec

    @classmethod
    def simple_parity_col(cls, topology: Topology, h_row: GFMatrix) -> "TensorCode":
        """Code with the all-ones single column parity (a = 1 normal form)."""
        if topology.a != 1:
            raise ValueError("simple parity column code requires a = 1")
        ones = GFMatrix(h_row.spec, [[1] * topology.m])
        return cls(topology, ones, h_row)

    def to_dict(self) -> dict:
        t = self.topology
        return {"field": self.spec.to_dict(), "m": t.m, "n": t.n, "a": t.a, "b": t.b,
                "h_col": self.h_col.to_dict(), "h_row": self.h_row.to_dict()}

    @classmethod
    def from_dict(cls, d: dict) -> "TensorCode":
        topo = Topology(d["m"], d["n"], d["a"], d["b"])
        code = cls(topo, GFMatrix.from_dict(d["h_col"]), GFMatrix.from_dict(d["h_row"]))
        if "field" in d and FieldSpec.from_dict(d["field"]) != code.spec:
            raise ValueError(f"code declares field {d['field']!r}, its matrices are over "
                             f"{code.spec}")
        return code


@dataclass(frozen=True)
class GridWord:
    """An m x n array of symbols with some cells erased (None)."""

    entries: tuple  # tuple of row tuples; None marks an erased cell
    erased: frozenset

    @classmethod
    def of(cls, entries, erased=None) -> "GridWord":
        """The word of entries with the cells in erased erased.

        With erased None, the erased cells are the None entries.  Otherwise
        each cell of erased must lie in the grid, where its entry becomes
        None, and a None entry outside erased raises ValueError naming the
        cell: decode would read it as the symbol 0.
        """
        rows = tuple(tuple(row) for row in entries)
        if erased is None:
            er = frozenset((i, j) for i, r in enumerate(rows)
                           for j, x in enumerate(r) if x is None)
        else:
            er = frozenset((int(i), int(j)) for i, j in erased)
            for i, r in enumerate(rows):
                for j, x in enumerate(r):
                    if x is None and (i, j) not in er:
                        raise ValueError(f"cell {(i, j)} is null but not erased")
        rows = tuple(tuple(None if (i, j) in er else x for j, x in enumerate(r))
                     for i, r in enumerate(rows))
        for (i, j) in er:
            if not (0 <= i < len(rows) and rows and 0 <= j < len(rows[0])):
                raise ValueError(f"erased cell {(i, j)} out of bounds")
        return cls(rows, er)

    def to_dict(self) -> dict:
        return {"entries": [[x for x in row] for row in self.entries],
                "erased": [[i, j] for i, j in sorted(self.erased)]}

    @classmethod
    def from_dict(cls, d: dict) -> "GridWord":
        erased = d.get("erased")
        if erased is not None and not all(
                len(cell) == 2 and all(type(x) is int for x in cell)
                for cell in list_of_rows(erased, "erased cells")):
            raise ValueError("erased cells must be [row, column] integer pairs")
        return cls.of(list_of_rows(d["entries"], "word entries"), erased)


def pseudo_parity_columns(code: TensorCode, cols) -> GFMatrix:
    """The pseudo-parity matrix restricted to the cell indices cols (i*n + j), in order.

    Every row is kept: first a column constraints per grid column j, with
    coefficient alpha_i^(k) at cell (i, j), then b row constraints per grid
    row i, with h_row's entry k at each cell of row i.
    """
    t = code.topology
    m, n = t.m, t.n
    cells = []
    for c in cols:
        if not 0 <= c < m * n:
            raise ValueError(f"cell index {c} outside the {m}x{n} grid")
        cells.append(divmod(c, n))
    rows = [[hk[ci] if cj == j else 0 for ci, cj in cells]
            for j in range(n) for hk in code.h_col.data]
    rows += [[hk[cj] if ci == i else 0 for ci, cj in cells]
             for i in range(m) for hk in code.h_row.data]
    return GFMatrix(code.spec, rows)


@lru_cache(maxsize=64)
def build_pseudo_parity(code: TensorCode) -> GFMatrix:
    """The (a*n + b*m) x (m*n) matrix of all row and column parity constraints."""
    t = code.topology
    return pseudo_parity_columns(code, range(t.m * t.n))


def restricted_rank(code: TensorCode, e: ErasurePattern) -> int:
    """The rank of the pseudo-parity matrix restricted to the cells of e.

    Raises ValueError for a cell outside the grid: a cell such as (0, n)
    would otherwise name the index of another cell.
    """
    t = code.topology
    _check_grid(t, e)
    return rank(pseudo_parity_columns(code, [i * t.n + j for i, j in sorted(e.cells)]))


def is_correctable_by(code: TensorCode, e: ErasurePattern, method: str = "direct") -> bool:
    """True iff the pseudo-parity matrix restricted to e has full column rank.

    method must be "direct" (plain elimination on H|_E, see restricted_rank);
    any other value raises ValueError.
    """
    if method != "direct":
        raise ValueError(f"unknown method {method!r}")
    return restricted_rank(code, e) == len(e.cells)


def encode(code: TensorCode, message) -> GridWord:
    """Systematic encoding: message fills the first (m-a) x (n-b) cells.

    The information set is U x V with U the first m-a rows and V the first
    n-b columns (parity positions last); the remaining cells are erased and
    decoded, which gives the unique completion satisfying every row and
    column parity.  A message of another length raises ValueError.  When
    U x V is not an information set of the code, decode's Uncorrectable or
    InconsistentWord propagates.
    """
    t = code.topology
    spec = code.spec
    msg = [spec.validate(x) for x in message]
    ku, kv = t.m - t.a, t.n - t.b
    if len(msg) != ku * kv:
        raise ValueError(f"message length must be {ku * kv}")
    symbols = iter(msg)
    grid = [[next(symbols) if i < ku and j < kv else None for j in range(t.n)]
            for i in range(t.m)]
    return GridWord.of(decode(code, GridWord.of(grid)), erased=())


def decode(code: TensorCode, word: GridWord):
    """Fill erased cells by solving the restricted parity system.

    Returns the completed m x n tuple-of-tuples.  Raises ValueError when the
    word is not m x n or holds a symbol outside the field, InconsistentWord
    when the known symbols violate the parities, Uncorrectable when the
    erased positions are not uniquely determined.
    """
    t = code.topology
    spec = code.spec
    if len(word.entries) != t.m or any(len(r) != t.n for r in word.entries):
        raise ValueError("word shape differs from the topology grid")
    for row in word.entries:
        for v in row:
            if v is not None:
                spec.validate(v)
    erased = sorted(word.erased)
    h = build_pseudo_parity(code)
    rhs = [spec.neg(x) for x in h.mul_vector([v or 0 for row in word.entries for v in row])]
    if not erased:
        if any(rhs):
            raise InconsistentWord("known symbols violate the parity checks")
        return word.entries
    sub = h.restrict_columns([i * t.n + j for i, j in erased])
    try:
        sol = solve_unique(sub, rhs)
    except Inconsistent as exc:
        raise InconsistentWord(str(exc)) from exc
    except RankDeficient as exc:
        raise Uncorrectable(str(exc)) from exc
    grid = [list(r) for r in word.entries]
    for (i, j), val in zip(erased, sol):
        grid[i][j] = val
    return tuple(tuple(r) for r in grid)


def reduce_restricted(code: TensorCode, e: ErasurePattern) -> GFMatrix:
    """Eliminate the identity part of H|_E, returning the (u0-1)*b x (|E|-v0) block B.

    One pivot cell per erased column (the least row) clears the column
    constraints; each remaining cell (i, j) with pivot (i0, j) leaves the
    row-code column h_j in row block i and -(alpha_i/alpha_i0) * h_j in row
    block i0.  Scaling row block k by alpha_k and each cell's column of B
    by 1/alpha_i turns that into h_j and -h_j, so the rank does not depend
    on the alphas once they are nonzero.  Every such column then has zero
    block sum, so the last row block is minus the sum of the others and is
    left out.  B's columns follow the non-pivot cells in column-major
    order, and rank(H|_E) = v0 + rank(B).
    """
    t = code.topology
    if t.a != 1:
        raise ValueError("the reduction is defined for a = 1 topologies")
    if not is_irreducible(t, e):
        raise NotIrreducible("pattern has a lightly erased row or column")
    if not e.cells:
        raise NotIrreducible("empty pattern")
    rows, cols = e.rows_used, e.cols_used
    if not all(code.h_col[0, i] for i in rows):
        raise ValueError("the reduction needs nonzero column-parity coefficients")
    b, last = t.b, len(rows) - 1
    block_t = []  # B transposed: one row per non-pivot cell
    for j in cols:
        hj = [row[j] for row in code.h_row.data]
        pivot, *rest = [k for k, i in enumerate(rows) if (i, j) in e.cells]
        neg = [code.spec.neg(x) for x in hj]  # -h_j is h_j in GF(2^k)
        for k in rest:
            row = [0] * (last * b)
            if k < last:
                row[k * b:(k + 1) * b] = hj
            row[pivot * b:(pivot + 1) * b] = neg
            block_t.append(row)
    return GFMatrix(code.spec, list(zip(*block_t)))
