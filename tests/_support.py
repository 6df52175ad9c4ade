"""Shared test helpers: field sweeps, random MDS parities, oracles."""

from itertools import combinations, combinations_with_replacement, permutations

from mrgrid import ErasurePattern, GFMatrix, TensorCode, Topology
# the field-order sweeps of the tests are the ones the CLI search uses
from mrgrid.galois import prime_powers_upto, spec_for_order  # noqa: F401


def _is_prime(n):
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


def random_mds_rows(spec, b, n, rng):
    """Random b x n parity matrix with every b columns independent.

    b = 2 samples distinct projective classes (the full MDS family up to
    column scaling); larger b uses a column-scaled Vandermonde on distinct
    nodes, so every b x b minor is a nonzero Vandermonde determinant.
    """
    if b == 1:
        return GFMatrix(spec, [[rng.randrange(1, spec.order) for _ in range(n)]])
    if b == 2:
        classes = [(1, r) for r in range(spec.order)] + [(0, 1)]
        if n > len(classes):
            raise ValueError("q too small for an MDS code of this length")
        chosen = rng.sample(classes, n)
        cols = []
        for (a, c) in chosen:
            s = rng.randrange(1, spec.order)
            cols.append((spec.mul(a, s), spec.mul(c, s)))
        return GFMatrix(spec, [list(x) for x in zip(*cols)])
    if n > spec.order:
        raise ValueError("q too small for a Vandermonde MDS code of this length")
    nodes = rng.sample(range(spec.order), n)
    cols = []
    for x in nodes:
        s = rng.randrange(1, spec.order)
        cols.append([spec.mul(s, spec.pow(x, k)) for k in range(b)])
    return GFMatrix(spec, [list(r) for r in zip(*cols)])


def random_nonzero_row(spec, m, rng):
    return GFMatrix(spec, [[rng.randrange(1, spec.order) for _ in range(m)]])


def mask_pattern(mask, columns=None) -> ErasurePattern:
    cols = columns or tuple(range(len(mask[0])))
    return ErasurePattern.of((i, cols[j])
                             for i in range(len(mask))
                             for j in range(len(mask[0])) if mask[i][j])


def simple_code(spec, m, n, b, values) -> TensorCode:
    h_row = GFMatrix(spec, [[spec.pow(v, k) for v in values] for k in range(b)])
    return TensorCode.simple_parity_col(Topology(m, n, 1, b), h_row)


# ----------------------------------------------------------------------
# canonical pattern classes with supports up to max_u x max_v (oracle side)
# ----------------------------------------------------------------------

def pattern_classes(max_u, max_v, max_cells):
    """All patterns up to row/column permutation: no empty row or column.

    Each class is (u, v, key) where key is the canonical sorted tuple of
    column-type indices; both regularity modes are invariant under row and
    column permutations, so checking one representative covers the orbit.
    """
    out = {}
    for u in range(1, max_u + 1):
        col_types = [tuple(sorted(s)) for r in range(1, u + 1)
                     for s in combinations(range(u), r)]
        index_of = {t: i for i, t in enumerate(col_types)}
        weights = [len(t) for t in col_types]
        bits = [sum(1 << i for i in t) for t in col_types]
        perm_maps = [tuple(index_of[tuple(sorted(perm[i] for i in col_types[t]))]
                           for t in range(len(col_types)))
                     for perm in permutations(range(u))]
        full = (1 << u) - 1
        for v in range(1, max_v + 1):
            for cols in combinations_with_replacement(range(len(col_types)), v):
                w = 0
                cover = 0
                for c in cols:
                    w += weights[c]
                    cover |= bits[c]
                if w > max_cells or cover != full:
                    continue
                key = min(tuple(sorted(pm[c] for c in cols)) for pm in perm_maps)
                out.setdefault((u, v, key), None)
    return sorted(out)


def class_pattern(u, key) -> ErasurePattern:
    col_types = [tuple(sorted(s)) for r in range(1, u + 1)
                 for s in combinations(range(u), r)]
    return ErasurePattern.of((i, j) for j, t in enumerate(key) for i in col_types[t])


def max_two_sidon(N: int) -> int:
    """Exhaustive maximum 2-Sidon subset size of Z_N (0 fixed by translation)."""
    if N == 1:
        return 1
    best = 1
    counts = [0] * N
    chosen = [0]

    def dfs(start):
        nonlocal best
        if len(chosen) > best:
            best = len(chosen)
        for x in range(start, N):
            if len(chosen) + (N - x) <= best:
                break
            bumped = []
            ok = True
            for s in chosen:
                t = (s + x) % N
                counts[t] += 1
                bumped.append(t)
                if counts[t] > 2:
                    ok = False
                    break
            if ok:
                chosen.append(x)
                dfs(x + 1)
                chosen.pop()
            for t in bumped:
                counts[t] -= 1

    dfs(1)
    return best
