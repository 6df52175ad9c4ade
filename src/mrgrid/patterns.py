"""Erasure-pattern combinatorics for grid-like topologies.

Rows and columns are 0-based throughout.  Pattern types are canonical
representatives of the orbit under row and column permutations: the
lexicographically least 0/1 mask, compared row-major.  For a fixed row
order the minimizing column order is obtained by sorting columns as
top-down bit strings, so canonicalization costs u! column sorts instead
of a u!*v! sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations
from math import comb, factorial

from .errors import EmptyPattern, ResourceGuard

CANONICAL_GUARD = 10 ** 8
ENUMERATION_GUARD = 10 ** 7


@dataclass(frozen=True)
class Topology:
    """Grid-like topology T_{m x n}(a, b, h)."""

    m: int
    n: int
    a: int
    b: int
    h: int = 0

    def __post_init__(self):
        if self.m < 1 or self.n < 1:
            raise ValueError("grid dimensions must be positive")
        if not 0 <= self.a <= self.m - 1:
            raise ValueError("need 0 <= a <= m-1")
        if not 0 <= self.b <= self.n - 1:
            raise ValueError("need 0 <= b <= n-1")
        if self.h < 0:
            raise ValueError("h must be non-negative")


@dataclass(frozen=True)
class ErasurePattern:
    """A set of erased grid cells, stored as (row, col) pairs."""

    cells: frozenset

    def __post_init__(self):
        for (i, j) in self.cells:
            if not (isinstance(i, int) and isinstance(j, int) and i >= 0 and j >= 0):
                raise ValueError(f"bad cell {(i, j)!r}")

    @classmethod
    def of(cls, cells) -> "ErasurePattern":
        return cls(frozenset((int(i), int(j)) for i, j in cells))

    def __len__(self):
        return len(self.cells)

    def __iter__(self):
        return iter(sorted(self.cells))

    @property
    def rows_used(self) -> tuple:
        return tuple(sorted({i for i, _ in self.cells}))

    @property
    def cols_used(self) -> tuple:
        return tuple(sorted({j for _, j in self.cells}))

    def in_bounds(self, m: int, n: int) -> bool:
        return all(i < m and j < n for i, j in self.cells)

    def to_list(self) -> list:
        return [[i, j] for i, j in sorted(self.cells)]

    @classmethod
    def from_list(cls, pairs) -> "ErasurePattern":
        return cls.of((i, j) for i, j in pairs)


@dataclass(frozen=True)
class PatternType:
    """Canonical u x v 0/1 mask with no empty row or column."""

    u: int
    v: int
    mask: tuple  # tuple of row tuples

    def cells(self):
        return [(i, j) for i in range(self.u) for j in range(self.v) if self.mask[i][j]]

    def weight(self) -> int:
        return sum(sum(row) for row in self.mask)

    def to_dict(self) -> dict:
        return {"u": self.u, "v": self.v,
                "mask": ["".join(str(x) for x in row) for row in self.mask]}

    @classmethod
    def from_dict(cls, d: dict) -> "PatternType":
        mask = tuple(tuple(int(ch) for ch in row) for row in d["mask"])
        return cls(d["u"], d["v"], mask)


def _check_grid(t: Topology, e: ErasurePattern):
    if t.h != 0:
        raise ValueError("pattern predicates are defined for h = 0 topologies")
    if not e.in_bounds(t.m, t.n):
        raise ValueError("pattern exceeds grid bounds")


def is_irreducible(t: Topology, e: ErasurePattern) -> bool:
    """Every erased cell sees >= a+1 erasures in its column and >= b+1 in its row."""
    _check_grid(t, e)
    col_count: dict[int, int] = {}
    row_count: dict[int, int] = {}
    for i, j in e.cells:
        row_count[i] = row_count.get(i, 0) + 1
        col_count[j] = col_count.get(j, 0) + 1
    return (all(c >= t.a + 1 for c in col_count.values())
            and all(r >= t.b + 1 for r in row_count.values()))


def is_regular(t: Topology, e: ErasurePattern, mode: str = "fast") -> bool:
    """Whether |E ∩ (U x V)| <= |V|a + |U|b - ab for all U, V with |U| >= a, |V| >= b.

    The subgrid bound is meaningful only when the tensor restriction has
    codimension sense, i.e. |U| >= a and |V| >= b; smaller boxes are vacuous.
    brute enumerates subsets of the pattern's own rows and columns, fast keeps,
    for each U, only the worst-case V = {columns with more than a erasures in U}.
    """
    _check_grid(t, e)
    if mode not in ("fast", "brute"):
        raise ValueError(f"unknown mode {mode!r}")
    a, b = t.a, t.b
    rows_used = e.rows_used
    cols_used = e.cols_used
    by_col = {j: 0 for j in cols_used}

    if mode == "fast":
        for r in range(max(a, 1), len(rows_used) + 1):
            for U in combinations(rows_used, r):
                uset = set(U)
                for j in by_col:
                    by_col[j] = 0
                for i, j in e.cells:
                    if i in uset:
                        by_col[j] += 1
                excess = sum(c - a for c in by_col.values() if c > a)
                if excess > b * (r - a):
                    return False
        return True

    # every V as a bitmask over cols_used; a V with fewer than max(b, 1)
    # columns gets a bound no erasure count can exceed
    sizes = [mask.bit_count() for mask in range(1 << len(cols_used))]
    vmin = max(b, 1)
    for r in range(max(a, 1), len(rows_used) + 1):
        bounds = [s * a + r * b - a * b if s >= vmin else len(e.cells) for s in sizes]
        for U in combinations(rows_used, r):
            uset = set(U)
            for j in by_col:
                by_col[j] = 0
            for i, j in e.cells:
                if i in uset:
                    by_col[j] += 1
            # |E ∩ (U x V)| for every V, each from V minus its highest column
            sums = [0]
            for j in cols_used:
                c = by_col[j]
                sums += [x + c for x in sums]
            if any(x > bound for x, bound in zip(sums, bounds)):
                return False
    return True


def canonical_type(e: ErasurePattern) -> PatternType:
    """Lexicographically least mask over all row/column permutations."""
    if not e.cells:
        raise EmptyPattern("cannot canonicalize an empty pattern")
    rows_used = e.rows_used
    cols_used = e.cols_used
    rpos = {i: k for k, i in enumerate(rows_used)}
    cpos = {j: k for k, j in enumerate(cols_used)}
    u, v = len(rows_used), len(cols_used)
    if factorial(u) * v > CANONICAL_GUARD:
        raise ResourceGuard("canonicalization guard exceeded")
    # columns as top-down bit tuples of the support mask
    cols = [[0] * u for _ in range(v)]
    for i, j in e.cells:
        cols[cpos[j]][rpos[i]] = 1
    best = None
    for perm in permutations(range(u)):
        ordered = sorted(tuple(col[p] for p in perm) for col in cols)
        mask = tuple(tuple(col[i] for col in ordered) for i in range(u))
        if best is None or mask < best:
            best = mask
    return PatternType(u, v, best)


def _mask_pattern(mask) -> ErasurePattern:
    return ErasurePattern.of((i, j) for i, row in enumerate(mask)
                             for j, x in enumerate(row) if x)


def enumerate_types(m: int, b: int, cap: int = ENUMERATION_GUARD) -> list[PatternType]:
    """All canonical types of regular irreducible patterns for T_{m x n}(1, b, 0).

    Types are n-independent: a type with v columns embeds in any grid with
    n >= v, so the enumeration ranges only over u <= m and the feasibility
    window u + b <= v <= b(u - 1), with column sums >= 2, row sums >= b + 1
    and at most 2b(u - 1) cells in total (forced by regularity on the full
    support together with irreducibility).
    """
    if m < 1 or b < 1:
        raise ValueError("need m >= 1 and b >= 1")
    found = {}
    explored = 0
    for u in range(1, m + 1):
        vmin, vmax = u + b, b * (u - 1)
        if vmin > vmax:
            continue
        # column types: subsets of the u rows with at least 2 cells
        col_types = [frozenset(s) for r in range(2, u + 1)
                     for s in combinations(range(u), r)]
        weights = [len(ct) for ct in col_types]
        total_cap = 2 * b * (u - 1)
        for v in range(vmin, vmax + 1):
            topo = Topology(u, v, 1, b)
            chosen = []

            def emit():
                row_counts = [0] * u
                for c in chosen:
                    for i in col_types[c]:
                        row_counts[i] += 1
                if any(rc < b + 1 for rc in row_counts):
                    return
                pattern = ErasurePattern.of(
                    (i, j) for j, c in enumerate(chosen) for i in col_types[c])
                if not is_regular(topo, pattern, mode="fast"):
                    return
                pt = canonical_type(pattern)
                found.setdefault((pt.u, pt.v, pt.mask), pt)

            def grow(start, weight):
                nonlocal explored
                explored += 1
                if explored > cap:
                    raise ResourceGuard("mask search space exceeds cap")
                remaining = v - len(chosen)
                if remaining == 0:
                    emit()
                    return
                if weight + 2 * remaining > total_cap:
                    return
                for c in range(start, len(col_types)):
                    w = weights[c]
                    if weight + w + 2 * (remaining - 1) > total_cap:
                        continue
                    chosen.append(c)
                    grow(c, weight + w)
                    chosen.pop()

            grow(0, 0)
    return sorted(found.values(), key=lambda pt: (pt.u, pt.v, pt.mask))


def type_orbit_masks(pt: PatternType, cap: int = ENUMERATION_GUARD) -> list[tuple]:
    """All distinct masks reachable from pt by row/column permutations."""
    u, v = pt.u, pt.v
    if factorial(u) * factorial(v) > cap:
        raise ResourceGuard("orbit size exceeds cap")
    cols = [tuple(pt.mask[i][j] for i in range(u)) for j in range(v)]
    seen = set()
    for rperm in permutations(range(u)):
        rcols = [tuple(col[p] for p in rperm) for col in cols]
        for cperm in permutations(range(v)):
            mask = tuple(tuple(rcols[c][i] for c in cperm) for i in range(u))
            seen.add(mask)
    return sorted(seen)


def count_instantiations(pt: PatternType, m: int, n: int) -> int:
    if pt.u > m or pt.v > n:
        raise ValueError("type does not fit the grid")
    return comb(m, pt.u) * comb(n, pt.v) * len(type_orbit_masks(pt))


def instantiate_type(pt: PatternType, m: int, n: int):
    """Yield every embedding of pt into the m x n grid, each a distinct cell set."""
    if pt.u > m or pt.v > n:
        raise ValueError("type does not fit the grid")
    orbit = type_orbit_masks(pt)
    for rows in combinations(range(m), pt.u):
        for cols in combinations(range(n), pt.v):
            for mask in orbit:
                yield ErasurePattern.of(
                    (rows[i], cols[j])
                    for i in range(pt.u) for j in range(pt.v) if mask[i][j])
