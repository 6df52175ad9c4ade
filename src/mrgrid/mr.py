"""MR certification, constructive row-code search, and lower-bound attacks.

The two supported attack topologies are T_{4xn}(1,2,0) and T_{3xn}(1,3,0).
Their pattern types are fixed six-column masks, and a mask placed on six
columns is uncorrectable exactly when the determinant of its reduced
pseudo-parity block (the paper's rank-condition polynomial f) vanishes.
For the paired types (Type II and E0) that block is 6x6, and on the masks
below its determinant is -D, for a 3x3 determinant D with one row per
column pair: the pair's binary quadratic form for Type II, the line through
its two points for E0.  certify_mr takes D for those masks and eliminates
only the others.
Every attack validates its witness before returning: the witness pattern must
be rank-deficient in the code's own pseudo-parity matrix, the same matrix and
rank computation behind every rank the package reports.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations
from math import comb

# perfbench/tracing.py (SPAN_POINTS) wraps build_pseudo_parity,
# is_correctable_by, rank, every_w_columns_independent, enumerate_types,
# type_orbit_masks, discrete_log and primitive_element at mrgrid.mr, so all of
# them stay imported here; build_pseudo_parity and is_correctable_by are
# imported only for that and are not called in this module.
from .codes import (TensorCode, block_rows, block_template, build_pseudo_parity,
                    is_correctable_by, negated_columns, pseudo_parity_columns)
from .errors import NotMds, ResourceGuard
from .galois import FieldSpec, discrete_log, primitive_element
from .gfmatrix import GFMatrix, every_w_columns_independent, rank, rank_step
from .patterns import (ErasurePattern, Topology, enumerate_types, row_class_masks,
                       type_orbit_masks)

# Pattern masks for the two special topologies (rows x six columns).
TYPE_I_MASK = ((1, 1, 1, 0, 0, 0),
               (1, 1, 0, 1, 0, 0),
               (0, 0, 1, 0, 1, 1),
               (0, 0, 0, 1, 1, 1))
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
    exps = sorted(set(int(t) % modulus for t in exponents))
    if len(exps) != len(set(exponents)):
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

def _masked_pattern(mask, columns) -> ErasurePattern:
    return ErasurePattern.of((i, columns[k])
                             for i in range(len(mask))
                             for k in range(6) if mask[i][k])


def _restricted_rank(code: TensorCode, pattern: ErasurePattern) -> int:
    cols = [i * code.topology.n + j for i, j in sorted(pattern.cells)]
    return rank(pseudo_parity_columns(code, cols))


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
    pattern = _masked_pattern(TYPE_II_MASK, columns)
    r = _restricted_rank(code, pattern)
    if r >= len(pattern.cells):
        raise AssertionError("pair-sum witness failed the rank validation")
    return AttackOutcome(pattern, r, witness=witness)


def _disjoint_edges(edges) -> list:
    """Max-size vertex-disjoint edge pick from a partial-functional digraph.

    Edges sharing a difference form disjoint paths and cycles (out- and
    in-degrees are at most one), where taking alternate edges is optimal.
    """
    succ = dict(edges)
    targets = set(succ.values())
    chosen = []
    visited = set()
    heads = sorted(i for i in succ if i not in targets)
    for h in heads:
        cur = h
        while cur in succ and cur not in visited:
            nxt = succ[cur]
            chosen.append((cur, nxt))
            visited.update((cur, nxt))
            cur = succ.get(nxt)
            if cur is None or cur in visited:
                break
    for i in sorted(succ):
        if i in visited:
            continue
        # remaining components are cycles
        cur = i
        while cur in succ and cur not in visited:
            nxt = succ[cur]
            if nxt in visited:
                break
            chosen.append((cur, nxt))
            visited.update((cur, nxt))
            cur = succ.get(nxt)
            if cur is None:
                break
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
        pattern = _masked_pattern(E0_MASK, columns)
        r = _restricted_rank(code, pattern)
        if r >= len(pattern.cells):
            raise AssertionError("zero-first-coordinate columns failed the rank validation")
        return AttackOutcome(pattern, r, detail={
            "kind": "zero_first_coordinate", "columns": list(columns)})
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
    pattern = _masked_pattern(E0_MASK, columns)
    r = _restricted_rank(code, pattern)
    if r >= len(pattern.cells):
        raise AssertionError("difference collision failed the rank validation")
    return AttackOutcome(pattern, r, detail={
        "kind": "difference_collision",
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
# pair determinants
# ----------------------------------------------------------------------

def _form_row(spec: FieldSpec, p, r) -> tuple:
    """The binary quadratic form (y*s - x*t)(y'*s - x'*t) of the points
    p = (x, y) and r = (x', y') of P^1, as its s^2, -s*t and t^2 coefficients."""
    mul = spec.mul
    (x, y), (x2, y2) = p, r
    return mul(y, y2), spec.add(mul(x, y2), mul(x2, y)), mul(x, x2)


def _cross_row(spec: FieldSpec, p, r) -> tuple:
    """The cross product p x r: the line through the points p and r of P^2."""
    mul, sub = spec.mul, spec.sub
    return (sub(mul(p[1], r[2]), mul(p[2], r[1])),
            sub(mul(p[2], r[0]), mul(p[0], r[2])),
            sub(mul(p[0], r[1]), mul(p[1], r[0])))


def _mask_pairing(mask):
    """(pair row, three column pairs) for a Type II or E0 mask, else None.

    A 4-row mask whose six columns have the six distinct 2-row supports is
    Type II; its columns pair by complementary supports, and a pair's row is
    its binary quadratic form (_form_row).  A 3-row mask whose six 2-row
    supports each occur twice is E0; its columns pair by equal supports, and
    a pair's row is the line through its two points (_cross_row).  Both
    rules survive any row or column permutation, so they hold on every mask
    of the two types' orbits.
    """
    if len(mask[0]) != 6:
        return None
    supports = [frozenset(i for i, x in enumerate(col) if x) for col in zip(*mask)]
    if any(len(s) != 2 for s in supports):
        return None
    if len(mask) == 4 and len(set(supports)) == 6:
        pair_row, partner = _form_row, frozenset(range(4)).difference
    elif len(mask) == 3 and all(supports.count(s) == 2 for s in supports):
        pair_row, partner = _cross_row, frozenset
    else:
        return None
    partners = [next(k for k, r in enumerate(supports) if k != j and r == partner(s))
                for j, s in enumerate(supports)]
    return pair_row, tuple((j, k) for j, k in enumerate(partners) if j < k)


def _pair_determinant(spec: FieldSpec, pairing, h_cols) -> int:
    """D: the 3x3 determinant of the pair rows of a _mask_pairing on the six
    row-code columns h_cols (in mask column order).

    D = 0 says the three pairs are in involution (Type II) or that their
    three lines meet in one point (E0).  The reduced block of TYPE_II_MASK
    and of E0_MASK is 6x6 with determinant -D; tests/test_mr.py proves both
    identities with sympy.  Any other mask of the type erases the same cells
    as the named mask on permuted rows and columns, and its pairing permutes
    along, so its block has the same rank and D != 0 makes every class
    correctable.
    """
    pair_row, pairs = pairing
    (a, b, c), (d, e, f), (g, h, i) = [pair_row(spec, h_cols[j], h_cols[k])
                                       for j, k in pairs]
    mul, sub = spec.mul, spec.sub
    return spec.add(sub(mul(a, sub(mul(e, i), mul(f, h))),
                        mul(b, sub(mul(d, i), mul(f, g)))),
                    mul(c, sub(mul(d, h), mul(e, g))))


# ----------------------------------------------------------------------
# certification
# ----------------------------------------------------------------------

def _sorted_walk(templates: dict) -> tuple[list, list]:
    """(entries, walk): the distinct entries of the templates (a dict from
    mask index to template), and each template as (k, lcp, suffix) in sorted
    order.

    Each template's entries are sorted column-major, with the left-out last
    row block (None) first, and the templates are sorted as tuples of
    entries; k is the template's mask index, and suffix lists its entries
    (as indices into entries) past the prefix of length lcp that it shares
    with the previous one.
    """
    def key(entry):
        j, off, off0 = entry
        return j, -1 if off is None else off, off0

    entries = sorted({entry for template in templates.values() for entry in template},
                     key=key)
    index = {entry: i for i, entry in enumerate(entries)}
    walk = []
    prev = ()
    for ids, k in sorted((tuple(sorted(index[e] for e in template)), k)
                         for k, template in templates.items()):
        lcp = 0
        for a, b in zip(prev, ids):
            if a != b:
                break
            lcp += 1
        walk.append((k, lcp, ids[lcp:]))
        prev = ids
    return entries, walk


def _walk(walk, entry_rows, pivot_key, clear, first: int) -> int:
    """The least mask index k below first whose template in walk has
    dependent rows, else first.

    One echelon basis serves the walk: each template truncates it to the
    prefix it shares with the previous template and inserts its own rows,
    cleared with gfmatrix.rank_step.  Basis rows keep their insertion order;
    each has zeros at the pivots of the rows before it, so one pass in that
    order clears a new row.  A row that reduces to zero ends its template
    and leaves None at its depth d in the basis; every later template whose
    lcp exceeds d keeps that None, shares the dependent row and fails with
    no elimination, and the first template with a shorter lcp drops it.
    """
    basis = []
    for k, lcp, suffix in walk:
        del basis[lcp:]
        if basis and basis[-1] is None:
            first = min(first, k)
            continue
        for e in suffix:
            row = entry_rows[e]
            for c, prow, key in basis:
                f = row[c]
                if f:
                    row = clear(row, f, prow, key)
            for c, x in enumerate(row):
                if x:
                    basis.append((c, row, pivot_key(x)))
                    break
            else:
                basis.append(None)
                first = min(first, k)
                break
    return first


def certify_mr(code: TensorCode,
               instantiation_cap: int = DEFAULT_INSTANTIATION_CAP,
               dedupe_rows: bool = True) -> CertReport:
    """Certify maximal recoverability for an a = 1 tensor code.

    Checks that both parities are MDS (every b columns of h_row independent,
    every column-parity coefficient nonzero), then that every instantiation
    of every regular irreducible pattern type is correctable.  Correctability
    is invariant under grid-row relabeling (the reduced block only changes by
    row/column scalings), so by default one representative per row-relabeling
    class is checked and patterns_checked counts classes; dedupe_rows=False
    enumerates every embedding literally.

    An instantiation E is correctable iff its reduced block B (see
    reduce_restricted) has full column rank |E| - |V_E|.  The MDS check has
    made every column-parity coefficient nonzero, so they drop out of that
    rank and B's layout depends on the mask alone: each non-pivot cell puts
    h_j at its row block and -h_j at its pivot's, and the last row block
    (minus the sum of the others) is left out.  Every type is irreducible,
    so the sweep skips that test; it compiles each mask once into a
    block_template, negates each row-code column once, and for each grid-row
    choice and column subset fills the rows of B transposed (block_rows).

    Row order does not change a rank, so the masks of one type are checked
    together on each column subset, in one pass.  Type II masks (b = 2) and
    E0 masks (b = 3) are paired once per mask (_mask_pairing) and take one
    3x3 pair determinant D on their six row-code columns: B is then 6x6, of
    the same rank as the block of TYPE_II_MASK or E0_MASK on permuted
    columns, whose determinant is -D, so the class is correctable iff
    D != 0.  The least mask index with D = 0 (or the number of masks) seeds
    _walk over the other masks' templates: _sorted_walk sorts each
    template's entries column-major (the left-out last row block first),
    sorts the templates, and keeps for each its mask index and the length
    (lcp) of the prefix it shares with the previous one; _walk runs one
    echelon basis through them with gfmatrix.rank_step, which normalises no
    pivot, and returns the least mask index that fails.  So the verdict, the
    first rank-deficient instantiation in mask order and patterns_checked
    are those of a mask-by-mask sweep.  The counterexample is reported with
    the rank of the pseudo-parity matrix restricted to it.
    """
    t = code.topology
    if t.a != 1:
        raise ValueError("certification covers T_{m x n}(1, b, 0) topologies")
    if not every_w_columns_independent(code.h_row, t.b):
        return CertReport("failed_mds", None, None, 0)
    if any(code.h_col[0, i] == 0 for i in range(t.m)):
        return CertReport("failed_mds", None, None, 0)
    # per usable type: the grid rows it is placed on and the masks placed there
    plans = []
    total = 0
    for pt in enumerate_types(t.m, t.b):
        if pt.v > t.n:
            continue
        if dedupe_rows:
            row_choices = [range(pt.u)]
            masks = row_class_masks(pt)
        else:
            row_choices = list(combinations(range(t.m), pt.u))
            masks = type_orbit_masks(pt)
        plans.append((pt, row_choices, masks))
        total += len(row_choices) * comb(t.n, pt.v) * len(masks)
    if total > instantiation_cap:
        unit = "classes" if dedupe_rows else "instantiations"
        raise ResourceGuard(f"{total} pattern {unit} exceed cap {instantiation_cap}")

    spec = code.spec
    pivot_key, clear = rank_step(spec)
    h_cols, neg_cols = negated_columns(code)
    checked = 0
    for pt, row_choices, masks in plans:
        height = (pt.u - 1) * t.b
        pairings = [_mask_pairing(mask) for mask in masks]
        paired = [(k, p) for k, p in enumerate(pairings) if p]
        entries, walk = _sorted_walk({k: block_template(t.b, mask)
                                      for k, (mask, p) in enumerate(zip(masks, pairings))
                                      if not p})
        for rows in row_choices:
            for cols in combinations(range(t.n), pt.v):
                col_h = [h_cols[j] for j in cols]
                col_neg = [neg_cols[j] for j in cols]
                first = next((k for k, p in paired if not _pair_determinant(spec, p, col_h)),
                             len(masks))
                first = _walk(walk, block_rows(entries, col_h, col_neg, height),
                              pivot_key, clear, first)
                if first == len(masks):
                    checked += len(masks)
                    continue
                mask = masks[first]
                e = ErasurePattern.of((rows[i], cols[j]) for i in range(pt.u)
                                      for j in range(pt.v) if mask[i][j])
                return CertReport("failed_pattern", e, _restricted_rank(code, e),
                                  checked + first + 1)
    return CertReport("certified", None, None, checked)


# ----------------------------------------------------------------------
# constructive search
# ----------------------------------------------------------------------

# (m, b) of T_{4xn}(1,2,0) and T_{3xn}(1,3,0): one greedy rule serves both
_GREEDY_SHAPES = ((4, 2), (3, 3))


def _involution_roots(spec: FieldSpec, five):
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


def _greedy_values(spec: FieldSpec, n: int, seed: int) -> list | None:
    """The first n field values of the scan with no six in involution, or None.

    The scan runs over the field in increasing value (seed permutes it) and
    accepts a value unless some pairing of it with five accepted values puts
    three pairs in involution (see _involution_roots).  Instead of testing
    each candidate, every accepted value adds the roots of its new 5-subsets
    to a forbidden set, which the scan skips.
    """
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
                forbidden.update(_involution_roots(spec, (x,) + four))
        accepted.append(x)
    return accepted if len(accepted) >= n else None


def _vandermonde_rows(spec: FieldSpec, values, height: int) -> GFMatrix:
    rows = [[spec.pow(v, k) for v in values] for k in range(height)]
    return GFMatrix(spec, rows)


def search_mr(m: int, b: int, n: int, spec: FieldSpec,
              strategy: str = "greedy_indep", seed: int = 0,
              budget: int = DEFAULT_RANDOM_BUDGET,
              instantiation_cap: int = DEFAULT_INSTANTIATION_CAP) -> TensorCode | None:
    """Search one field for a certified MR row code; None means try a larger q.

    greedy_indep scans field elements in increasing value (seed permutes the
    scan) and rejects a value x if some pairing of x with five accepted
    values puts three pairs in involution, which for six distinct values is
    exactly "the topology's rank polynomial vanishes under some argument
    order"; the rule is the same for (4, 2) and (3, 3), so both accept the
    same values.  The resulting Vandermonde-style candidate is gated by
    certify_mr.  random draws h_row uniformly and gates each draw the same way.
    """
    topo = Topology(m, n, 1, b)
    if strategy == "greedy_indep":
        if (m, b) not in _GREEDY_SHAPES:
            raise ValueError("greedy_indep supports (m, b) in {(4, 2), (3, 3)}")
        values = _greedy_values(spec, n, seed)
        if values is None:
            return None
        h_row = _vandermonde_rows(spec, values, b)
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
