"""Erasure-pattern combinatorics for grid-like topologies.

Rows and columns are 0-based throughout.  Pattern types are canonical
representatives of the orbit under row and column permutations: the
lexicographically least 0/1 mask, compared row-major.  For a fixed row
order the minimizing column order is obtained by sorting columns as
top-down bit strings, so enumerate_types canonicalizes a mask with u!
column sorts instead of a u!*v! sweep.

_row_symmetry finds the group G of row permutations that map a type's
column multiset to itself.  row_class_masks walks the prefix tree of the
type's distinct column arrangements (at most v!) with G's cuts, which keep
one arrangement per row-relabelling class, the least, and returns it with
its rows sorted and packed as v-bit ints.  Every mask of the orbit is a row
order of exactly one class's mask, so type_orbit_masks takes their distinct
row orders.  row_class_count counts the classes from G and the
arrangements, building no mask.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import accumulate, chain, combinations, permutations
from math import comb, factorial

from .errors import ResourceGuard

ENUMERATION_GUARD = 10 ** 7


@dataclass(frozen=True)
class Topology:
    """Grid-like topology T_{m x n}(a, b, 0)."""

    m: int
    n: int
    a: int
    b: int

    def __post_init__(self):
        if not all(type(x) is int for x in (self.m, self.n, self.a, self.b)):
            raise ValueError(f"m, n, a and b must be integers, got {self!r}")
        if self.m < 1 or self.n < 1:
            raise ValueError("grid dimensions must be positive")
        if not 0 <= self.a <= self.m - 1:
            raise ValueError("need 0 <= a <= m-1")
        if not 0 <= self.b <= self.n - 1:
            raise ValueError("need 0 <= b <= n-1")


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

    def to_dict(self) -> dict:
        return {"u": self.u, "v": self.v,
                "mask": ["".join(str(x) for x in row) for row in self.mask]}


def _check_grid(t: Topology, e: ErasurePattern):
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


def _regular_columns(cols, u: int, a: int, b: int) -> bool:
    """is_regular's fast test on the pattern whose columns are the u-bit row
    masks cols (with a = 1, enumerate_types' leaf test): for each row subset
    U of more than a rows (fewer break nothing), the erasures past the first
    a in each column sum to at most b(|U| - a)."""
    over = [max(s - a, 0) for s in range(u + 1)]
    for U in range(1, 1 << u):
        r = U.bit_count()
        sizes = map(int.bit_count, map(U.__and__, cols))
        if r > a and sum(map(over.__getitem__, sizes)) > b * (r - a):
            return False
    return True


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
        # each column as the row mask of its erasures, bit k for rows_used[k]
        bits = {i: 1 << k for k, i in enumerate(rows_used)}
        for i, j in e.cells:
            by_col[j] |= bits[i]
        return _regular_columns(list(by_col.values()), len(rows_used), a, b)

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


def _search_nodes(u: int, b: int, max_v: int | None = None) -> int:
    """The calls of the unpruned column search for types with u rows and at
    most max_v columns (any number when None), or a lower bound on them
    above ENUMERATION_GUARD.

    The unpruned search is enumerate_types' grow without its row-count
    bound, so this count is an upper bound on the nodes enumerate_types
    visits.  For each v it visits the root and every multiset of k >= 1
    column types (comb(u, r) types of weight r, 2 <= r <= u) whose weight w
    satisfies grow's cap w + 2(v - k) <= b(u - 1) + v.  Every column weighs
    at least 2, so a multiset meeting the bound has every sub-multiset on
    its search path meeting it too.  At v = vmin the weight-2 multisets
    alone number comb(comb(u, 2) + vmin, vmin) with the root; when that
    bound already exceeds the guard it is returned, which keeps the table
    below small.  Otherwise count[k][w] counts the multisets of k columns
    and weight w, built one weight class at a time.
    """
    vmin, vmax = u + b, b * (u - 1)
    if max_v is not None:
        vmax = min(vmax, max_v)
    if vmin > vmax:
        return 0
    least = comb(comb(u, 2) + vmin, vmin)
    if least > ENUMERATION_GUARD:
        return least
    cap = b * (u - 1) + vmax
    count = [[0] * (cap + 1) for _ in range(vmax + 1)]
    count[0][0] = 1
    for r in range(2, u + 1):
        kinds = comb(u, r)
        grown = [[0] * (cap + 1) for _ in range(vmax + 1)]
        for k in range(vmax + 1):
            for w in range(2 * k, cap + 1):
                x = count[k][w]
                if not x:
                    continue
                for t in range(min(vmax - k, (cap - w) // r) + 1):
                    grown[k + t][w + r * t] += x * comb(kinds + t - 1, t)
        count = grown
    within = [list(accumulate(row)) for row in count]  # within[k][w]: weight <= w
    return sum(1 + sum(within[k][b * (u - 1) + v - 2 * (v - k)] for k in range(1, v + 1))
               for v in range(vmin, vmax + 1))


def enumerate_types(m: int, b: int, max_v: int | None = None) -> list[PatternType]:
    """All canonical types of regular irreducible patterns for T_{m x n}(1, b, 0),
    or only those with at most max_v columns.

    Types are n-independent: a type with v columns embeds in any grid with
    n >= v, so the enumeration ranges only over u <= m and the feasibility
    window u + b <= v <= b(u - 1), with column sums >= 2, row sums >= b + 1
    and at most b(u - 1) + v <= 2b(u - 1) cells in total (regularity on the
    full row set: the cells past the first of each column number at most
    b(u - 1)).  The column search keeps the row counts as it grows and stops
    a branch once the lightest row cannot reach b + 1 with the columns left
    or the weight cap with the lightest columns left; the column types are
    ordered by weight, so a column that overruns the cap ends its loop.
    Every row order of a column multiset is a leaf of the search, and
    regularity and the canonical form do not depend on the row order, so
    only leaves with non-increasing row counts are tested.
    A leaf's columns are u-bit masks, row 0 the most significant bit; it is
    tested by _regular_columns and canonicalized through one column table
    per row permutation: each row order sorts the columns, and the least
    candidate mask, packed into one int whose order is the row-major order
    of masks, is the type.
    The unpruned search is counted first (_search_nodes, an upper bound on
    the nodes visited) and refused before it starts when it would visit more
    than ENUMERATION_GUARD nodes.  Given max_v, the search and the count
    cover only the widths v <= max_v; a grid with n columns holds only the
    types with v <= n.
    """
    if m < 1 or b < 1:
        raise ValueError("need m >= 1 and b >= 1")
    nodes = 0
    for u in range(1, m + 1):
        nodes += _search_nodes(u, b, max_v)
        if nodes > ENUMERATION_GUARD:
            raise ResourceGuard(
                f"mask search space exceeds cap: at least {nodes} search nodes "
                f"(types with up to {u} rows), guard {ENUMERATION_GUARD}")
    found = set()
    for u in range(1, m + 1):
        vmin, vmax = u + b, b * (u - 1)
        if max_v is not None:
            vmax = min(vmax, max_v)
        if vmin > vmax:
            continue
        # column types: subsets of the u rows with at least 2 cells
        col_rows = [s for r in range(2, u + 1) for s in combinations(range(u), r)]
        col_bits = [sum(1 << (u - 1 - i) for i in s) for s in col_rows]
        weights = [len(s) for s in col_rows]
        # a column under a row permutation p: new row k is old row p[k]
        permuted = [[sum(1 << (u - 1 - k) for k, i in enumerate(p) if c >> (u - 1 - i) & 1)
                     for c in range(1 << u)] for p in permutations(range(u))]
        for v in range(vmin, vmax + 1):
            # a column's cells placed at the low bit of each row's v-bit
            # field, row 0 the most significant field
            spread = [sum(1 << ((u - 1 - k) * v) for k in range(u) if c >> (u - 1 - k) & 1)
                      for c in range(1 << u)]
            total_cap = b * (u - 1) + v
            chosen = []
            row_counts = [0] * u

            def emit():
                # one row order per row permutation class suffices
                if any(x < y for x, y in zip(row_counts, row_counts[1:])):
                    return
                cols = [col_bits[c] for c in chosen]
                if not _regular_columns(cols, u, 1, b):
                    return
                # the least row-major mask: each row order sorts the columns
                best = None
                for table in permuted:
                    key = 0
                    for c in sorted(map(table.__getitem__, cols)):
                        key = key << 1 | spread[c]
                    if best is None or key < best:
                        best = key
                found.add((u, v, best))

            def grow(start, weight):
                remaining = v - len(chosen)
                if min(row_counts) + remaining < b + 1:
                    return
                if remaining == 0:
                    emit()
                    return
                for c in range(start, len(col_rows)):
                    w = weights[c]
                    if weight + w + 2 * (remaining - 1) > total_cap:
                        break
                    chosen.append(c)
                    for i in col_rows[c]:
                        row_counts[i] += 1
                    grow(c, weight + w)
                    chosen.pop()
                    for i in col_rows[c]:
                        row_counts[i] -= 1

            grow(0, 0)
    return [PatternType(u, v, tuple(tuple(key >> ((u - 1 - i) * v + v - 1 - j) & 1
                                          for j in range(v)) for i in range(u)))
            for u, v, key in sorted(found)]


def _row_symmetry(pt: PatternType) -> tuple:
    """(kinds, left, arrangements, group): pt's distinct columns in
    lexicographic order, their multiplicities and the number of distinct
    column orderings; then the group G of row permutations that map the
    column multiset to itself, as the permutations of the indices in kinds
    that it makes (less the identity).  Raises ResourceGuard when the
    arrangements, then u!, exceed ENUMERATION_GUARD.
    """
    counts = Counter(zip(*pt.mask))
    kinds = sorted(counts)
    left = [counts[col] for col in kinds]
    arrangements = factorial(pt.v)
    for k in left:
        arrangements //= factorial(k)
    if arrangements > ENUMERATION_GUARD:
        raise ResourceGuard(
            f"{arrangements} column arrangements exceed guard {ENUMERATION_GUARD}")
    if factorial(pt.u) > ENUMERATION_GUARD:
        raise ResourceGuard(f"{factorial(pt.u)} row permutations exceed guard {ENUMERATION_GUARD}")
    index = {col: c for c, col in enumerate(kinds)}
    rows = list(zip(*kinds))
    group = set()
    for p in permutations(range(pt.u)):
        # the images are distinct, so p maps the multiset to itself when each
        # has its preimage's multiplicity (a Counter reads 0 off the multiset)
        image = list(zip(*map(rows.__getitem__, p)))
        if list(map(counts.__getitem__, image)) == left:
            group.add(tuple(map(index.__getitem__, image)))
    group.discard(tuple(range(len(kinds))))
    return kinds, left, arrangements, group


def row_class_count(pt: PatternType) -> int:
    """len(row_class_masks(pt)), with its guards, from G alone: G permutes
    the kinds freely on the arrangements (a permutation that fixes one fixes
    each of its columns), so each class holds len(group) + 1 of them."""
    _, _, arrangements, group = _row_symmetry(pt)
    return arrangements // (len(group) + 1)


def row_class_masks(pt: PatternType) -> list[tuple]:
    """One mask per row-relabelling class of pt's orbit, packed: the mask's
    rows sorted, each row a v-bit int with column 0 the most significant bit.

    Unpacked, equals sorted({tuple(sorted(mask)) for mask in
    type_orbit_masks(pt)}); int order is 0/1-tuple order, so the order is
    the same.  A prefix-tree walk over pt's distinct column arrangements
    carries the members of G tying the prefix (mapping it to itself), and a
    branch ends once one maps it to a smaller one.  A row permutation that
    maps one column arrangement to another maps the column multiset to
    itself, so it lies in G, and the walk reaches one leaf per class: its
    least arrangement.
    """
    u, v = pt.u, pt.v
    kinds, left, _, group = _row_symmetry(pt)
    # a column's cells at the low bit of each row's v-bit field
    spread = [sum(1 << (i * v) for i in range(u) if col[i]) for col in kinds]
    full = (1 << v) - 1
    found = []

    def extend(depth, rows, tied):
        if depth == v:
            found.append(tuple(sorted((rows >> (i * v)) & full for i in range(u))))
            return
        for c in range(len(kinds)):
            if not left[c]:
                continue
            still = []
            for g in tied:
                if g[c] < c:
                    break
                if g[c] == c:
                    still.append(g)
            else:
                left[c] -= 1
                extend(depth + 1, rows << 1 | spread[c], still)
                left[c] += 1

    extend(0, 0, list(group))
    return sorted(found)


def type_orbit_masks(pt: PatternType) -> list[tuple]:
    """All distinct masks reachable from pt by row/column permutations,
    sorted: the distinct row orders of each row class's mask (every mask of
    the orbit is a row order of exactly one of them), with 0/1 row tuples
    (int order is tuple order)."""
    masks = sorted(chain.from_iterable(set(permutations(rows)) for rows in row_class_masks(pt)))
    v = pt.v
    bits = {row: tuple(row >> (v - 1 - j) & 1 for j in range(v))
            for row in set(chain.from_iterable(masks))}
    return [tuple(map(bits.__getitem__, mask)) for mask in masks]
