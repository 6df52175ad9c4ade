"""MR certification, constructive row-code search, and lower-bound attacks.

The two supported attack topologies are T_{4xn}(1,2,0) and T_{3xn}(1,3,0).
Their pattern types are fixed six-column masks, and a mask placed on six
columns is uncorrectable exactly when the determinant of its reduced
pseudo-parity block (the paper's rank-condition polynomial f) vanishes.
certify_mr checks every mask of every type in kernel coordinates: once
both parities are MDS, a pattern on v columns is correctable iff the null
vectors of h_row on its grid rows' column supports, cut to the last v - b
of the v columns, are linearly independent.
Every attack validates its witness before returning: the witness pattern must
be rank-deficient in the code's own pseudo-parity matrix (codes.restricted_rank,
the one rank computation behind is_correctable_by and every rank the package
reports).  Every elimination, there and in certify_mr's sweep and null
vectors, inserts rows with gfmatrix.row_inserter.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, chain, combinations
from math import comb

# perfbench/tracing.py (SPAN_POINTS) wraps build_pseudo_parity,
# is_correctable_by, rank, every_w_columns_independent, enumerate_types,
# type_orbit_masks, discrete_log and primitive_element at mrgrid.mr, so all
# stay imported here; the first three and type_orbit_masks are not called here.
from .codes import (TensorCode, build_pseudo_parity, is_correctable_by,
                    restricted_rank)
from .errors import NotMds, ResourceGuard
from .galois import FieldSpec, discrete_log, primitive_element
from .gfmatrix import GFMatrix, every_w_columns_independent, rank, row_inserter
from .patterns import (ErasurePattern, Topology, enumerate_types, row_class_count,
                       row_class_masks, type_orbit_masks)

# Witness masks of the two attacks (rows x six columns).
TYPE_II_MASK = ((1, 1, 1, 0, 0, 0),
                (1, 0, 0, 1, 1, 0),
                (0, 1, 0, 1, 0, 1),
                (0, 0, 1, 0, 1, 1))
E0_MASK = ((1, 1, 1, 1, 0, 0),
           (1, 1, 0, 0, 1, 1),
           (0, 0, 1, 1, 1, 1))

DEFAULT_INSTANTIATION_CAP = 10 ** 7
DEFAULT_RANDOM_BUDGET = 200


@dataclass(frozen=True)
class CertReport:
    verdict: str  # certified | failed_mds | failed_pattern
    counterexample: ErasurePattern | None
    rank_found: int | None
    patterns_checked: int

    def to_dict(self) -> dict:
        return {"verdict": self.verdict,
                "counterexample": (self.counterexample.to_list()
                                   if self.counterexample else None),
                "rank_found": self.rank_found,
                "patterns_checked": self.patterns_checked}


@dataclass(frozen=True)
class SidonWitness:
    """Six distinct exponents t1..t6 with t1+t6 = t2+t5 = t3+t4 (mod modulus)."""

    exponents: tuple
    pairing: tuple
    modulus: int
    columns: tuple | None = None

    def to_dict(self) -> dict:
        return {"exponents": list(self.exponents),
                "pairing": [list(p) for p in self.pairing],
                "modulus": self.modulus,
                "columns": list(self.columns) if self.columns else None}


@dataclass(frozen=True)
class AttackOutcome:
    pattern: ErasurePattern
    rank_found: int
    witness: SidonWitness | None = None
    detail: dict | None = None

    def to_dict(self) -> dict:
        return {"pattern": self.pattern.to_list(),
                "rank_found": self.rank_found,
                "witness": self.witness.to_dict() if self.witness else None,
                "detail": self.detail}


# ----------------------------------------------------------------------
# Sidon machinery
# ----------------------------------------------------------------------

def find_sum_collision(exponents, modulus: int) -> SidonWitness | None:
    """Three pairwise-disjoint 2-subsets of the exponent set with equal sums mod modulus.

    Distinct 2-subsets sharing a sum are disjoint ({a,b} and {a,c} with
    equal sums forces b = c), so any sum bucket holding three pairs yields a
    witness.
    """
    residues = [int(t) % modulus for t in exponents]
    exps = sorted(set(residues))
    if len(exps) != len(residues):
        raise ValueError("exponents must be distinct mod modulus")
    buckets: dict[int, list] = {}
    for a, b in combinations(exps, 2):
        buckets.setdefault((a + b) % modulus, []).append((a, b))
    for s in sorted(buckets):
        pairs = buckets[s]
        if len(pairs) >= 3:
            (t1, t6), (t2, t5), (t3, t4) = pairs[:3]
            return SidonWitness(exponents=(t1, t2, t3, t4, t5, t6),
                                pairing=((t1, t6), (t2, t5), (t3, t4)),
                                modulus=modulus)
    return None


# ----------------------------------------------------------------------
# attacks
# ----------------------------------------------------------------------

def _validated_outcome(code: TensorCode, mask, columns, failure: str,
                       witness: SidonWitness | None = None,
                       detail: dict | None = None) -> AttackOutcome:
    """The AttackOutcome of mask placed on the six columns, once the pattern
    is checked to be rank-deficient in code; AssertionError(failure) if not."""
    pattern = ErasurePattern.of((i, columns[k])
                                for i in range(len(mask))
                                for k in range(6) if mask[i][k])
    r = restricted_rank(code, pattern)
    if r >= len(pattern.cells):
        raise AssertionError(failure)
    return AttackOutcome(pattern, r, witness=witness, detail=detail)


def _check_attack_shape(code: TensorCode, b: int, min_m: int):
    """Raise ValueError unless code is T_{m x n}(1, b, 0) with m >= min_m, and
    NotMds on a zero column-parity coefficient (the attacks assume an MDS
    column code)."""
    t = code.topology
    if t.a != 1 or t.b != b or t.m < min_m:
        raise ValueError(f"the attack needs a T_{{m x n}}(1, {b}, 0) code with m >= {min_m}, "
                         f"got m={t.m}, a={t.a}, b={t.b}")
    if not all(code.h_col.row(0)):
        raise NotMds("a column-parity coefficient is zero")


def attack_t4(code: TensorCode) -> AttackOutcome | None:
    """Uncorrectable Type II pattern for T_{m x n}(1,2,0), m >= 4, from a
    pair-sum collision.

    Weight-2 columns are normalized to (1, r); r maps to its discrete log t,
    and three disjoint equal-sum exponent pairs give a zero of the rank
    polynomial, hence a rank-deficient pattern on the first four grid rows
    for every MDS column code.
    """
    _check_attack_shape(code, 2, 4)
    h_row = code.h_row
    spec = h_row.spec
    n = h_row.cols
    if not every_w_columns_independent(h_row, 2):
        raise NotMds("h_row has two dependent columns")
    omega = primitive_element(spec)
    exp_to_col = {}
    for j in range(n):
        top, bot = h_row[0, j], h_row[1, j]
        if top and bot:
            t = discrete_log(spec, spec.div(bot, top), omega)
            exp_to_col[t] = j
    witness = find_sum_collision(exp_to_col.keys(), spec.order - 1)
    if witness is None:
        return None
    columns = tuple(exp_to_col[t] for t in witness.exponents)
    witness = SidonWitness(witness.exponents, witness.pairing, witness.modulus, columns)
    return _validated_outcome(code, TYPE_II_MASK, columns,
                              "pair-sum witness failed the rank validation", witness=witness)


def _disjoint_edges(edges) -> list:
    """Max-size vertex-disjoint edge pick from a partial-functional digraph.

    Edges sharing a difference form disjoint paths and cycles (out- and
    in-degrees are at most one), where taking alternate edges is optimal.
    Paths are walked from their heads first, so no path node is visited
    ahead of its walk; every node left unvisited then lies on a cycle.
    """
    succ = dict(edges)
    targets = set(succ.values())
    heads = sorted(i for i in succ if i not in targets)
    chosen = []
    visited = set()
    for cur in heads + sorted(succ):
        while cur in succ and cur not in visited:
            nxt = succ[cur]
            if nxt in visited:
                break
            chosen.append((cur, nxt))
            visited.update((cur, nxt))
            cur = succ.get(nxt)
    return chosen


def attack_t3(code: TensorCode) -> AttackOutcome | None:
    """Uncorrectable E0 pattern for T_{m x n}(1,3,0), m >= 3, on the first
    three grid rows.

    Either six columns share a zero first coordinate (the reduced block then
    loses three rows and two more dependencies, rank <= 4), or three disjoint
    column pairs share the same normalized difference vector, which makes the
    reduced block singular.
    """
    _check_attack_shape(code, 3, 3)
    h_row = code.h_row
    spec = h_row.spec
    n = h_row.cols
    zero_first = [j for j in range(n) if h_row[0, j] == 0]
    if len(zero_first) >= 6:
        columns = tuple(zero_first[:6])
        return _validated_outcome(
            code, E0_MASK, columns, "zero-first-coordinate columns failed the rank validation",
            detail={"kind": "zero_first_coordinate", "columns": list(columns)})
    gammas = {}
    seen = set()
    for j in range(n):
        top = h_row[0, j]
        if top == 0:
            continue
        g = (spec.div(h_row[1, j], top), spec.div(h_row[2, j], top))
        if g in seen:
            raise NotMds("two columns normalize to the same vector")
        seen.add(g)
        gammas[j] = g
    hit = find_difference_collision(gammas, spec)
    if hit is None:
        return None
    delta, chosen = hit
    (i1, j1), (i2, j2), (i3, j3) = chosen
    columns = (i1, j1, i2, j2, i3, j3)
    return _validated_outcome(code, E0_MASK, columns,
                              "difference collision failed the rank validation",
                              detail={"kind": "difference_collision",
                                      "delta": list(delta),
                                      "pairs": [list(p) for p in chosen]})


def find_difference_collision(gammas: dict, spec: FieldSpec):
    """Three vertex-disjoint ordered column pairs whose normalized vectors
    share one difference; returns (delta, pairs) or None.

    gammas maps column index -> (g1, g2) in the field squared and must be
    injective (attack_t3 raises NotMds before calling otherwise); pairs are
    oriented so the second column's vector is the first's plus delta.
    Injectivity makes each difference bucket a digraph of in- and out-degree
    at most one, on which _disjoint_edges finds a maximum disjoint pick.
    """
    buckets: dict[tuple, list] = {}
    cols = sorted(gammas)
    for i in cols:
        for j in cols:
            if i == j:
                continue
            gi, gj = gammas[i], gammas[j]
            delta = (spec.sub(gj[0], gi[0]), spec.sub(gj[1], gi[1]))
            buckets.setdefault(delta, []).append((i, j))
    for delta in sorted(buckets):
        edges = buckets[delta]
        if len(edges) < 3:
            continue
        chosen = _disjoint_edges(edges)
        if len(chosen) >= 3:
            return delta, tuple(sorted(chosen)[:3])
    return None


# ----------------------------------------------------------------------
# certification
# ----------------------------------------------------------------------

def _sorted_walk(b: int, v: int, masks) -> tuple[list, list]:
    """(entries, walk): the distinct rows of the masks, each as its column
    support, and each mask as (k, lcp, suffix) in sorted order.

    A mask is a tuple of rows, each a v-bit int with column 0 the most
    significant bit (as row_class_masks packs them).  A row with support C
    has |C| - b kernel rows (see _null_vectors), and the entries' kernel
    rows are numbered in entry order.  Each mask's rows are sorted by their
    index in entries, and the masks are sorted as tuples of their kernel row
    numbers; k is the mask's index in masks, and suffix lists its kernel
    rows past the prefix of length lcp that it shares with the previous mask.
    """
    columns = range(v)
    support = {row: tuple(j for j in columns if row >> (v - 1 - j) & 1)
               for row in set(chain.from_iterable(masks))}
    entries = sorted(support.values())
    starts = accumulate((len(s) - b for s in entries), initial=0)
    numbers = {s: tuple(range(a, a + len(s) - b)) for s, a in zip(entries, starts)}
    row_numbers = {row: numbers[s] for row, s in support.items()}
    walk = []
    prev = ()
    for ids, k in sorted((tuple(chain.from_iterable(sorted(map(row_numbers.get, mask)))), k)
                         for k, mask in enumerate(masks)):
        lcp = 0
        for x, y in zip(prev, ids):
            if x != y:
                break
            lcp += 1
        walk.append((k, lcp, ids[lcp:]))
        prev = ids
    return entries, walk


def _walk(walk, entry_rows, insert) -> int:
    """The least mask index k whose kernel rows in walk are dependent, else
    len(walk), the number of masks.

    One echelon basis serves the walk: each mask truncates it to the prefix
    it shares with the previous mask and inserts its own rows with insert
    (gfmatrix.row_inserter).  A row that reduces to zero ends its mask and
    leaves None at its depth d in the basis; every later mask whose lcp
    exceeds d keeps that None, shares the dependent row and fails with no
    elimination, and the first mask with a shorter lcp drops it.
    """
    basis = []
    first = len(walk)
    for k, lcp, suffix in walk:
        del basis[lcp:]
        if basis and basis[-1] is None:
            first = min(first, k)
            continue
        for e in suffix:
            if not insert(basis, entry_rows[e]):
                basis.append(None)
                first = min(first, k)
                break
    return first


def _null_vectors(insert, h_cols, b: int, columns) -> list:
    """A basis of the kernel of h_row on the row-code columns columns, each
    vector as its entries on columns: one vector per column past the first
    b, zero on the other columns past the first b.

    h_row must be MDS, so the first b columns are independent.  Each column
    h_c is inserted (gfmatrix.row_inserter) with the unit vector of its
    position appended; past the first b, its h part clears to zero against
    them, and what is left of the unit part is the dependency.
    """
    basis = []
    vectors = []
    for t, c in enumerate(columns):
        unit = [0] * len(columns)
        unit[t] = 1
        insert(basis, list(h_cols[c]) + unit)
        if t >= b:
            vectors.append(basis.pop()[1][b:])
    return vectors


def _truncated(vectors, support, b: int, width: int) -> list:
    """The kernel rows of a mask row with column support support (mask
    column indices): each of its null vectors at the mask columns b..v-1,
    as a row of length width = v - b."""
    rows = []
    for vec in vectors:
        row = [0] * width
        for j, x in zip(support, vec):
            if j >= b:
                row[j - b] = x
        rows.append(row)
    return rows


@lru_cache(maxsize=1)
def _sweep_plan(m: int, b: int, n: int, instantiation_cap: int) -> tuple:
    """The code-independent part of certify_mr's sweep on T_{m x n}(1, b, 0).

    One entry per type with at most n columns, in enumerate_types order:
    (pt, masks, entries, walk), masks its row_class_masks and entries and
    walk their _sorted_walk.  Raises ResourceGuard before any mask is built
    when the classes on all column subsets exceed instantiation_cap.  Every
    code of one shape shares the plan, so it is cached; only the last plan
    is kept, and a ResourceGuard is not cached.
    """
    types = enumerate_types(m, b, n)
    total = sum(comb(n, pt.v) * row_class_count(pt) for pt in types)
    if total > instantiation_cap:
        raise ResourceGuard(f"{total} pattern classes exceed cap {instantiation_cap}")
    plan = []
    for pt in types:
        masks = row_class_masks(pt)
        entries, walk = _sorted_walk(b, pt.v, masks)
        plan.append((pt, tuple(masks), tuple(entries), tuple(walk)))
    return tuple(plan)


def certify_mr(code: TensorCode,
               instantiation_cap: int = DEFAULT_INSTANTIATION_CAP,
               dedupe_rows: bool = True) -> CertReport:
    """Certify maximal recoverability for an a = 1 tensor code.

    Checks that both parities are MDS (every b columns of h_row independent,
    every column-parity coefficient nonzero), then that every instantiation
    of every regular irreducible pattern type is correctable.  Correctability
    is invariant under grid-row relabeling (see below), so one representative
    per row-relabeling class is checked, on grid rows range(u), and
    patterns_checked counts the classes.  dedupe_rows is accepted and
    ignored, so every call returns this one report; the keyword stays only
    because perfbench/checker.py, which the benchmark runs unchanged, still
    passes dedupe_rows=False.

    An instantiation E on the columns V is correctable iff H|_E has full
    column rank, i.e. no nonzero x on E has zero row and column syndromes.
    With y_i = alpha_i * x_i for the column-parity coefficients alpha_i,
    which the MDS check has made nonzero, that says the column-sum map from
    the direct sum over E's grid rows i of ker(h_row on C_i), C_i the row's
    column support, to ker(h_row on V) is injective.  h_row is MDS, so a
    vector of ker(h_row on V) is fixed by its entries at V's positions b..v-1.
    So E is correctable iff the kernel rows of its grid rows have full row
    rank: for each row, the _null_vectors of h_row on its support, truncated
    to those positions, in all sum(|C_i| - b) <= v - b rows of length v - b.
    They depend on the row supports alone, so which grid rows E uses, their
    order and the alphas drop out.  Every type is irreducible, so the sweep
    skips that test.  The types that fit in n columns, their masks and
    sorted walks depend on the shape alone and come from _sweep_plan, built
    once per shape and first, so its guards refuse a shape over the cap
    before the MDS check; the null vectors depend on the support's columns
    in the grid alone and are built once per call.

    Row order does not change a rank, so the masks of one type are checked
    together on each column subset, in one pass: _sorted_walk sorts each
    mask's rows, sorts the masks, and keeps for each its mask index and the
    kernel rows of the prefix it shares with the previous one; _walk runs
    one echelon basis through them with gfmatrix.row_inserter, the
    package's one elimination, which normalises no pivot, and returns the
    least mask index that fails.  So the verdict, the first rank-deficient
    instantiation in mask order and patterns_checked are those of a
    mask-by-mask sweep.  The counterexample is reported with the rank of
    the pseudo-parity matrix restricted to it.
    """
    t = code.topology
    if t.a != 1:
        raise ValueError("certification covers T_{m x n}(1, b, 0) topologies")
    plan = _sweep_plan(t.m, t.b, t.n, instantiation_cap)
    if not every_w_columns_independent(code.h_row, t.b):
        return CertReport("failed_mds", None, None, 0)
    if any(code.h_col[0, i] == 0 for i in range(t.m)):
        return CertReport("failed_mds", None, None, 0)
    b = t.b
    insert = row_inserter(code.spec)
    h_cols = list(zip(*code.h_row.data))
    kernels = {}
    checked = 0
    for pt, masks, entries, walk in plan:
        width = pt.v - b
        for cols in combinations(range(t.n), pt.v):
            entry_rows = []
            for support in entries:
                key = tuple(cols[j] for j in support)
                vectors = kernels.get(key)
                if vectors is None:
                    vectors = kernels[key] = _null_vectors(insert, h_cols, b, key)
                entry_rows += _truncated(vectors, support, b, width)
            first = _walk(walk, entry_rows, insert)
            if first == len(masks):
                checked += len(masks)
                continue
            mask = masks[first]
            e = ErasurePattern.of((i, cols[j]) for i in range(pt.u)
                                  for j in range(pt.v) if mask[i] >> (pt.v - 1 - j) & 1)
            return CertReport("failed_pattern", e, restricted_rank(code, e),
                              checked + first + 1)
    return CertReport("certified", None, None, checked)


# ----------------------------------------------------------------------
# constructive search
# ----------------------------------------------------------------------

# (m, b) of T_{4xn}(1,2,0) and T_{3xn}(1,3,0): one greedy rule serves both
_GREEDY_SHAPES = ((4, 2), (3, 3))


def _greedy_values(spec: FieldSpec, n: int, seed: int) -> list | None:
    """The first n field values of the scan with no six in involution, or None.

    The scan runs over the field in increasing value (seed permutes it) and
    rejects x if x is the image of an accepted value under the involution
    that swaps two disjoint accepted pairs.  Three pairs {u, u'} are in
    involution when D = det[1, u+u', u*u'] (one row per pair) vanishes; for
    distinct values this is exactly "the rank polynomial of either special
    topology vanishes under some argument order", since f_t4(x) =
    -D({x1,x6}, {x2,x5}, {x3,x4}) and f_t3(x) = (x1-x2)(x3-x4)(x5-x6) *
    D({x1,x2}, {x3,x4}, {x5,x6}).  Two pairs with sums s, s' and products p, p'
    give A = s'-s, B = p'-p and C = s*p'-s'*p, and D({x, a}, ...) = 0 says
    x = (a*B - C) / (a*A - B); for distinct values the two never both vanish
    (the pairs' (t-u)(t-u') would span (t-a) times the linear polynomials),
    and a*A = B forbids nothing.  So a value accepted after k earlier ones,
    4 <= k < n-1, forbids its image under every stored involution and, for
    each new pair {x, y} and stored pair disjoint from y, the images of the
    other accepted values: the 15 * C(k, 4) roots of its new 5-subsets.
    """
    add, sub, mul, div = spec.add, spec.sub, spec.mul, spec.div
    order = list(spec.elements())
    if seed:
        random.Random(seed).shuffle(order)
    accepted, pairs, involutions, forbidden = [], [], [], set()
    for x in order:
        if len(accepted) >= n:
            break
        if x in forbidden:
            continue
        # pairs (u, u', s, p) and involutions (A, B, C), kept while later values use them
        forbid, keep = 4 <= len(accepted) < n - 1, len(accepted) < n - 2
        for A, B, C in involutions if forbid else ():
            if den := sub(mul(x, A), B):
                forbidden.add(div(sub(mul(x, B), C), den))
        new_pairs = [(x, y, add(x, y), mul(x, y)) for y in accepted] if forbid or keep else []
        for _, y, s, p in new_pairs:
            for u, u2, s2, p2 in pairs:
                if y != u and y != u2:
                    A, B, C = sub(s2, s), sub(p2, p), sub(mul(s, p2), mul(s2, p))
                    if keep:
                        involutions.append((A, B, C))
                    for a in accepted if forbid else ():
                        if a != y and a != u and a != u2 and (den := sub(mul(a, A), B)):
                            forbidden.add(div(sub(mul(a, B), C), den))
        if keep:
            pairs += new_pairs
        accepted.append(x)
    return accepted if len(accepted) >= n else None


def search_mr(m: int, b: int, n: int, spec: FieldSpec,
              strategy: str = "greedy_indep", seed: int = 0,
              budget: int = DEFAULT_RANDOM_BUDGET,
              instantiation_cap: int = DEFAULT_INSTANTIATION_CAP) -> TensorCode | None:
    """Search one field for a certified MR row code; None means try a larger q.

    greedy_indep scans field elements in increasing value (seed permutes the
    scan) and rejects a value x if x is the image of an accepted value under
    the involution that swaps two disjoint accepted pairs (see _greedy_values);
    the rule is the same for (4, 2) and (3, 3), so both accept the same
    values.  The resulting Vandermonde-style candidate is gated by
    certify_mr.  random draws h_row uniformly and gates each draw the same way.
    """
    topo = Topology(m, n, 1, b)
    if strategy == "greedy_indep":
        if (m, b) not in _GREEDY_SHAPES:
            raise ValueError("greedy_indep supports (m, b) in {(4, 2), (3, 3)}")
        values = _greedy_values(spec, n, seed)
        if values is None:
            return None
        h_row = GFMatrix(spec, [[spec.pow(v, k) for v in values] for k in range(b)])
        code = TensorCode.simple_parity_col(topo, h_row)
        report = certify_mr(code, instantiation_cap)
        return code if report.verdict == "certified" else None
    if strategy == "random":
        rng = random.Random(seed)
        for _ in range(budget):
            data = [[rng.randrange(spec.order) for _ in range(n)] for _ in range(b)]
            try:
                h_row = GFMatrix(spec, data)
                code = TensorCode.simple_parity_col(topo, h_row)
            except ValueError:
                continue
            report = certify_mr(code, instantiation_cap)
            if report.verdict == "certified":
                return code
        return None
    raise ValueError(f"unknown strategy {strategy!r}")
