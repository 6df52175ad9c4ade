"""Shared test helpers: field sweeps, random MDS parities, oracles."""

import random
import time
from itertools import accumulate, chain, combinations, combinations_with_replacement, permutations
from math import factorial

from mrgrid import ErasurePattern, GFMatrix, PatternType, TensorCode, Topology, search_mr
from mrgrid.errors import MrGridError, ResourceGuard
# the field-order sweeps of the tests are the ones the CLI search uses
from mrgrid.galois import prime_powers_upto, spec_for_order
from mrgrid.patterns import enumerate_types, is_regular, type_orbit_masks


def _is_prime(n):
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


def first_certified(m, b, n, q_max, seed=0):
    """The first greedy code certified in the q sweep, its q and the seconds taken."""
    t0 = time.time()
    for q in prime_powers_upto(2, q_max):
        code = search_mr(m, b, n, spec_for_order(q), strategy="greedy_indep", seed=seed)
        if code is not None:
            return code, q, time.time() - t0
    return None, None, time.time() - t0


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


# The Type I mask of T_{4xn}(1,2,0) (rows x six columns); the Type II and E0
# masks stay in mrgrid.mr, where the attacks build their witnesses from them.
TYPE_I_MASK = ((1, 1, 1, 0, 0, 0),
               (1, 1, 0, 1, 0, 0),
               (0, 0, 1, 0, 1, 1),
               (0, 0, 0, 1, 1, 1))


def mask_pattern(mask, columns=None) -> ErasurePattern:
    cols = columns or tuple(range(len(mask[0])))
    return ErasurePattern.of((i, cols[j])
                             for i in range(len(mask))
                             for j in range(len(mask[0])) if mask[i][j])


def simple_code(spec, m, n, b, values) -> TensorCode:
    h_row = GFMatrix(spec, [[spec.pow(v, k) for v in values] for k in range(b)])
    return TensorCode.simple_parity_col(Topology(m, n, 1, b), h_row)


# ----------------------------------------------------------------------
# canonical form of one pattern: the oracle of enumerate_types' packed form
# ----------------------------------------------------------------------

CANONICAL_GUARD = 10 ** 8


class EmptyPattern(MrGridError):
    pass


def canonical_type(e: ErasurePattern) -> PatternType:
    """Lexicographically least mask over all row/column permutations: for
    each row order, the columns sorted as top-down bit tuples."""
    if not e.cells:
        raise EmptyPattern("cannot canonicalize an empty pattern")
    rows_used = e.rows_used
    cols_used = e.cols_used
    rpos = {i: k for k, i in enumerate(rows_used)}
    cpos = {j: k for k, j in enumerate(cols_used)}
    u, v = len(rows_used), len(cols_used)
    if factorial(u) * v > CANONICAL_GUARD:
        raise ResourceGuard(f"canonicalization guard exceeded: u!*v = {factorial(u) * v} "
                            f"column sorts, guard {CANONICAL_GUARD}")
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


def instantiate_type(pt, m, n) -> list:
    """Every embedding of pt into the m x n grid: each orbit mask on each
    choice of pt.u rows and pt.v columns."""
    return [ErasurePattern.of((rows[i], cols[j]) for i in range(pt.u) for j in range(pt.v)
                              if mask[i][j])
            for rows in combinations(range(m), pt.u)
            for cols in combinations(range(n), pt.v)
            for mask in type_orbit_masks(pt)]


def brute_enumerate_types(m, b):
    """enumerate_types' column search without pruning: every multiset of
    column types within the weight cap 2b(u - 1) (at least enumerate_types'
    b(u - 1) + v), with no row-count bound while it grows and every row
    order of each leaf taken.  Leaves are tested with is_regular's brute
    mode, so the search shares no regularity code with enumerate_types."""
    found = {}
    for u in range(1, m + 1):
        vmin, vmax = u + b, b * (u - 1)
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
                if not is_regular(topo, pattern, mode="brute"):
                    return
                pt = canonical_type(pattern)
                found.setdefault((pt.u, pt.v, pt.mask), pt)

            def grow(start, weight):
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


def brute_orbit_masks(pt):
    """Every mask of pt's orbit, by applying all u! * v! row and column permutations."""
    rperms = list(permutations(range(pt.u)))
    seen = set()
    for cperm in permutations(range(pt.v)):
        rows = [tuple(row[c] for c in cperm) for row in pt.mask]
        for rperm in rperms:
            seen.add(tuple(rows[p] for p in rperm))
    return sorted(seen)


def unpack_mask(mask, v):
    """A packed mask (each row a v-bit int, column 0 the most significant
    bit, as row_class_masks returns them) as a tuple of 0/1 row tuples."""
    return tuple(tuple(row >> (v - 1 - j) & 1 for j in range(v)) for row in mask)


def brute_row_class_masks(pt):
    """row_class_masks by set-dedupe: every ordering of pt's columns with
    its rows sorted, as 0/1 row tuples."""
    return sorted({tuple(sorted(zip(*cols))) for cols in permutations(zip(*pt.mask))})


def tuple_sweep_plan(m, b, n):
    """mr._sweep_plan built from 0/1-tuple masks, with the masks left as
    tuples: each type's brute_row_class_masks, each row's support read from
    its tuple, and the masks sorted by their kernel row numbers with the
    prefix each shares with the one before it."""
    plan = []
    for pt in enumerate_types(m, b, n):
        masks = brute_row_class_masks(pt)
        support = {row: tuple(j for j, x in enumerate(row) if x) for mask in masks for row in mask}
        entries = sorted(set(support.values()))
        starts = list(accumulate((len(s) - b for s in entries), initial=0))
        numbers = {s: tuple(range(starts[i], starts[i + 1])) for i, s in enumerate(entries)}
        keyed = sorted((tuple(chain.from_iterable(sorted(numbers[support[row]] for row in mask))), k)
                       for k, mask in enumerate(masks))
        walk = []
        prev = ()
        for ids, k in keyed:
            lcp = 0
            while lcp < min(len(prev), len(ids)) and prev[lcp] == ids[lcp]:
                lcp += 1
            walk.append((k, lcp, ids[lcp:]))
            prev = ids
        plan.append((pt, tuple(masks), tuple(entries), tuple(walk)))
    return tuple(plan)


# ----------------------------------------------------------------------
# elimination oracles: one field-method call per matrix entry
# ----------------------------------------------------------------------

def brute_echelon(rows, spec, pivot_cols):
    """Gauss-Jordan elimination with entry-by-entry field ops, in place:
    each pivot (the first nonzero entry of its column at or below the
    current row, swapped up) is normalised and its whole column cleared,
    leaving the reduced row echelon form.  Returns the pivot column list.

    It shares no code with gfmatrix.row_inserter, which normalises no pivot,
    swaps no rows and clears each new row against the basis rows before it.
    """
    mul, sub, inv = spec.mul, spec.sub, spec.inv
    nrows = len(rows)
    pivots = []
    r = 0
    for c in range(pivot_cols):
        pivot = next((i for i in range(r, nrows) if rows[i][c]), None)
        if pivot is None:
            continue
        if pivot != r:
            rows[r], rows[pivot] = rows[pivot], rows[r]
        prow = rows[r]
        if prow[c] != 1:
            rows[r] = prow = [mul(inv(prow[c]), x) for x in prow]
        for i in range(nrows):
            f = rows[i][c]
            if i != r and f:
                rows[i] = [sub(x, mul(f, y)) for x, y in zip(rows[i], prow)]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots


def leibniz_determinant(spec, rows):
    """Sum over all permutations of sign * product of entries."""
    n = len(rows)
    det = 0
    for perm in permutations(range(n)):
        term = 1
        for i, j in enumerate(perm):
            term = spec.mul(term, rows[i][j])
        inversions = sum(perm[i] > perm[j] for i, j in combinations(range(n), 2))
        det = spec.sub(det, term) if inversions % 2 else spec.add(det, term)
    return det


# ----------------------------------------------------------------------
# the paper's rank-condition polynomials on raw ints, and the greedy search
# oracle: the rank polynomial under all 720 argument orders
# ----------------------------------------------------------------------

def f_t4(spec, x) -> int:
    """T_{4xn}(1,2,0): (x1-x4)(x2-x6)(x3-x5) - (x2-x4)(x1-x5)(x3-x6)."""
    sub, mul = spec.sub, spec.mul
    t1 = mul(mul(sub(x[0], x[3]), sub(x[1], x[5])), sub(x[2], x[4]))
    t2 = mul(mul(sub(x[1], x[3]), sub(x[0], x[4])), sub(x[2], x[5]))
    return sub(t1, t2)


def f_t3(spec, x) -> int:
    """T_{3xn}(1,3,0): (x1-x2)(x3-x4)[(x1-x6)(x2-x6)(x3-x5)(x4-x5)
    - (x1-x5)(x2-x5)(x3-x6)(x4-x6)]."""
    sub, mul = spec.sub, spec.mul
    lead = mul(sub(x[0], x[1]), sub(x[2], x[3]))
    if lead == 0:
        return 0
    p1 = mul(mul(sub(x[0], x[5]), sub(x[1], x[5])), mul(sub(x[2], x[4]), sub(x[3], x[4])))
    p2 = mul(mul(sub(x[0], x[4]), sub(x[1], x[4])), mul(sub(x[2], x[5]), sub(x[3], x[5])))
    return mul(lead, sub(p1, p2))


F_BY_KIND = {"t4_12": f_t4, "t3_13": f_t3}


def zero_under_some_permutation(spec, kind, values) -> bool:
    f = F_BY_KIND[kind]
    for perm in permutations(values):
        if f(spec, perm) == 0:
            return True
    return False


def brute_greedy_values(spec, kind, n, seed):
    """The greedy scan tested value by value: x is rejected if some 5-subset
    of the accepted values plus x zeroes f under some argument order."""
    order = list(spec.elements())
    if seed:
        random.Random(seed).shuffle(order)
    accepted = []
    for x in order:
        if len(accepted) >= n:
            break
        if any(zero_under_some_permutation(spec, kind, five + (x,))
               for five in combinations(accepted, 5)):
            continue
        accepted.append(x)
    return accepted if len(accepted) >= n else None


def involution_roots(spec, five):
    """The values x that put some pairing of x with the five values in involution.

    Three pairs {u, u'} are in involution when D = det[1, u+u', u*u'] (one
    row per pair) vanishes; for distinct values this is exactly "the rank
    polynomial of either special topology vanishes under some argument
    order", since f_t4(x) = -D({x1,x6}, {x2,x5}, {x3,x4}) and f_t3(x) =
    (x1-x2)(x3-x4)(x5-x6) * D({x1,x2}, {x3,x4}, {x5,x6}).  With x paired to
    a and the other pairs' sums s2, s3 and products p2, p3, D = c1*x + c0,
    so each of the 15 pairings forbids at most one x.  c1 = c0 = 0 cannot
    occur for distinct values: D = 0 says (t-x)(t-a) lies in the span of
    (t-b)(t-b') and (t-c)(t-c'); for two different x that span would be
    (t-a) times all linear polynomials, so (t-a) would divide (t-b)(t-b').
    """
    add, sub, mul = spec.add, spec.sub, spec.mul
    for i, a in enumerate(five):
        b, b2, c, c2 = five[:i] + five[i + 1:]
        for (u, u2), (w, w2) in (((b, b2), (c, c2)), ((b, c), (b2, c2)), ((b, c2), (b2, c))):
            s2, p2, s3, p3 = add(u, u2), mul(u, u2), add(w, w2), mul(w, w2)
            dp = sub(p3, p2)
            c1 = sub(mul(a, sub(s3, s2)), dp)
            if c1:
                c0 = sub(sub(mul(s2, p3), mul(s3, p2)), mul(a, dp))
                yield spec.neg(spec.div(c0, c1))


def five_subset_greedy_values(spec, n, seed):
    """The greedy scan by 5-subsets: every accepted value adds the
    involution_roots of its new 5-subsets to a forbidden set, which the scan
    skips.  It shares no pair, sum, product or involution between subsets."""
    order = list(spec.elements())
    if seed:
        random.Random(seed).shuffle(order)
    accepted = []
    forbidden = set()
    for x in order:
        if len(accepted) >= n:
            break
        if x in forbidden:
            continue
        # the new 5-subsets are x and four earlier values; the n-th value ends the scan
        if 4 <= len(accepted) < n - 1:
            for four in combinations(accepted, 4):
                forbidden.update(involution_roots(spec, (x,) + four))
        accepted.append(x)
    return accepted if len(accepted) >= n else None


# exact threshold predicates, each by cross-multiplication in integers

def q_below_t4_threshold(q: int, n: int) -> bool:
    """Exact check of q < (n-3)^2/4 + 2."""
    return 4 * q < (n - 3) ** 2 + 8


def q_below_t3_threshold(q: int, n: int) -> bool:
    """Exact check of q < sqrt(n^2 - 11n + 34)/2."""
    return 4 * q * q < n * n - 11 * n + 34


def exceeds_sidon_bound(size: int, N: int) -> bool:
    """Exact check of size > 2*sqrt(N) + 1."""
    return size >= 1 and (size - 1) ** 2 > 4 * N


def is_two_sidon(subset, modulus: int) -> bool:
    """Definition check: every pair sum shared by at most one other pair."""
    counts: dict[int, int] = {}
    for a, b in combinations(sorted(set(subset)), 2):
        s = (a + b) % modulus
        counts[s] = counts.get(s, 0) + 1
        if counts[s] > 2:
            return False
    return True


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
