"""MR certification, constructive row-code search, and lower-bound attacks.

The two supported attack topologies are T_{4xn}(1,2,0) and T_{3xn}(1,3,0).
Their pattern types are fixed six-column masks; the rank-condition
polynomials below are the determinants of the reduced pseudo-parity blocks,
so "f vanishes" is exactly "the pattern is uncorrectable" for the column
assignment used here.  Every attack validates its output by an independent
rank computation before returning.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations, permutations
from math import comb

from .codes import TensorCode, build_pseudo_parity, is_correctable_by
from .errors import MixedFields, NotMds, ResourceGuard
from .galois import FieldElement, FieldSpec, discrete_log, primitive_element
from .gfmatrix import GFMatrix, every_w_columns_independent, rank
from .patterns import ErasurePattern, Topology, enumerate_types, type_orbit_masks

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
# rank-condition polynomials
# ----------------------------------------------------------------------

def _f_t4(spec: FieldSpec, x) -> int:
    sub, mul = spec.sub, spec.mul
    t1 = mul(mul(sub(x[0], x[3]), sub(x[1], x[5])), sub(x[2], x[4]))
    t2 = mul(mul(sub(x[1], x[3]), sub(x[0], x[4])), sub(x[2], x[5]))
    return sub(t1, t2)


def _f_t3(spec: FieldSpec, x) -> int:
    sub, mul = spec.sub, spec.mul
    lead = mul(sub(x[0], x[1]), sub(x[2], x[3]))
    if lead == 0:
        return 0
    p1 = mul(mul(sub(x[0], x[5]), sub(x[1], x[5])), mul(sub(x[2], x[4]), sub(x[3], x[4])))
    p2 = mul(mul(sub(x[0], x[4]), sub(x[1], x[4])), mul(sub(x[2], x[5]), sub(x[3], x[5])))
    return mul(lead, sub(p1, p2))


_F_BY_KIND = {"t4_12": _f_t4, "t3_13": _f_t3}


def f_poly(topology_kind: str, args) -> FieldElement:
    """Rank-condition polynomial for the six-column pattern of the topology.

    t4_12: (x1-x4)(x2-x6)(x3-x5) - (x2-x4)(x1-x5)(x3-x6).
    t3_13: (x1-x2)(x3-x4)[(x1-x6)(x2-x6)(x3-x5)(x4-x5)
                          - (x1-x5)(x2-x5)(x3-x6)(x4-x6)].
    """
    if topology_kind not in _F_BY_KIND:
        raise ValueError(f"unknown topology kind {topology_kind!r}")
    if len(args) != 6:
        raise ValueError("f takes six arguments")
    spec = args[0].spec if isinstance(args[0], FieldElement) else None
    vals = []
    for x in args:
        if isinstance(x, FieldElement):
            if spec is None:
                spec = x.spec
            elif x.spec != spec:
                raise MixedFields("f arguments from different fields")
            vals.append(x.value)
        else:
            vals.append(x)
    if spec is None:
        raise ValueError("at least one argument must carry a FieldSpec")
    return FieldElement(_F_BY_KIND[topology_kind](spec, vals), spec)


def _zero_under_some_permutation(spec: FieldSpec, kind: str, values) -> bool:
    f = _F_BY_KIND[kind]
    for perm in permutations(values):
        if f(spec, perm) == 0:
            return True
    return False


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


def is_two_sidon(subset, modulus: int) -> bool:
    """Definition check: every pair sum shared by at most one other pair."""
    counts: dict[int, int] = {}
    for a, b in combinations(sorted(set(subset)), 2):
        s = (a + b) % modulus
        counts[s] = counts.get(s, 0) + 1
        if counts[s] > 2:
            return False
    return True


# ----------------------------------------------------------------------
# attacks
# ----------------------------------------------------------------------

def _masked_pattern(mask, columns) -> ErasurePattern:
    return ErasurePattern.of((i, columns[k])
                             for i in range(len(mask))
                             for k in range(6) if mask[i][k])


def _restricted_rank(code: TensorCode, pattern: ErasurePattern) -> int:
    h = build_pseudo_parity(code)
    cols = [i * code.topology.n + j for i, j in sorted(pattern.cells)]
    return rank(h.restrict_columns(cols))


def _ones_col_restricted_rank(h_row: GFMatrix, pattern: ErasurePattern) -> int:
    """rank of the all-ones-column pseudo-parity matrix restricted to the pattern.

    Assembled directly from h_row entries so degenerate inputs (h_row without
    full row rank) can still be rank-validated.
    """
    cells = sorted(pattern.cells)
    b, n = h_row.rows, h_row.cols
    rows = []
    for j in sorted({c for _, c in cells}):
        rows.append([1 if jj == j else 0 for _, jj in cells])
    for i in sorted({r for r, _ in cells}):
        for k in range(b):
            rows.append([h_row[k, jj] if ii == i else 0 for ii, jj in cells])
    return rank(GFMatrix(h_row.spec, rows))


def attack_t4(h_row: GFMatrix) -> AttackOutcome | None:
    """Uncorrectable Type II pattern for T_{4xn}(1,2,0) from a pair-sum collision.

    Weight-2 columns are normalized to (1, r); r maps to its discrete log t,
    and three disjoint equal-sum exponent pairs give a zero of the rank
    polynomial, hence a rank-deficient pattern for every [4,3,2] column code.
    """
    if h_row.rows != 2:
        raise ValueError("attack_t4 expects a 2 x n row parity matrix")
    spec = h_row.spec
    n = h_row.cols
    if not every_w_columns_independent(h_row, 2):
        raise NotMds("h_row has two dependent columns")
    omega = primitive_element(spec).value
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
    r = _ones_col_restricted_rank(h_row, pattern)
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


def attack_t3(h_row: GFMatrix) -> AttackOutcome | None:
    """Uncorrectable E0 pattern for T_{3xn}(1,3,0).

    Either six columns share a zero first coordinate (the reduced block then
    loses three rows and two more dependencies, rank <= 4), or three disjoint
    column pairs share the same normalized difference vector, which makes the
    reduced block singular.
    """
    if h_row.rows != 3:
        raise ValueError("attack_t3 expects a 3 x n row parity matrix")
    spec = h_row.spec
    n = h_row.cols
    zero_first = [j for j in range(n) if h_row[0, j] == 0]
    if len(zero_first) >= 6:
        columns = tuple(zero_first[:6])
        pattern = _masked_pattern(E0_MASK, columns)
        r = _ones_col_restricted_rank(h_row, pattern)
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
    r = _ones_col_restricted_rank(h_row, pattern)
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
# certification
# ----------------------------------------------------------------------

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
    """
    t = code.topology
    if t.a != 1 or t.h != 0:
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
            masks = sorted({tuple(sorted(mask)) for mask in type_orbit_masks(pt)})
        else:
            row_choices = list(combinations(range(t.m), pt.u))
            masks = type_orbit_masks(pt)
        plans.append((pt, row_choices, masks))
        total += len(row_choices) * comb(t.n, pt.v) * len(masks)
    if total > instantiation_cap:
        unit = "classes" if dedupe_rows else "instantiations"
        raise ResourceGuard(f"{total} pattern {unit} exceed cap {instantiation_cap}")

    checked = 0
    for pt, row_choices, masks in plans:
        for rows in row_choices:
            for cols in combinations(range(t.n), pt.v):
                for mask in masks:
                    e = ErasurePattern.of((rows[i], cols[j]) for i in range(pt.u)
                                          for j in range(pt.v) if mask[i][j])
                    checked += 1
                    if not is_correctable_by(code, e):
                        return CertReport("failed_pattern", e,
                                          _restricted_rank(code, e), checked)
    return CertReport("certified", None, None, checked)


# ----------------------------------------------------------------------
# constructive search
# ----------------------------------------------------------------------

_GREEDY_SHAPES = {(4, 2): "t4_12", (3, 3): "t3_13"}


def _greedy_values(spec: FieldSpec, kind: str, n: int, seed: int) -> list | None:
    order = list(spec.elements())
    if seed:
        random.Random(seed).shuffle(order)
    f = _F_BY_KIND[kind]
    accepted = []
    for x in order:
        if len(accepted) >= n:
            break
        if len(accepted) >= 5:
            ok = True
            for five in combinations(accepted, 5):
                if _zero_under_some_permutation(spec, kind, five + (x,)):
                    ok = False
                    break
            if not ok:
                continue
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
    scan) and accepts a value unless some 6-subset of the accepted set zeroes
    the topology's rank polynomial under some argument order; the resulting
    Vandermonde-style candidate is gated by certify_mr.  random draws h_row
    uniformly and gates each draw the same way.
    """
    topo = Topology(m, n, 1, b)
    if strategy == "greedy_indep":
        kind = _GREEDY_SHAPES.get((m, b))
        if kind is None:
            raise ValueError("greedy_indep supports (m, b) in {(4, 2), (3, 3)}")
        values = _greedy_values(spec, kind, n, seed)
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
