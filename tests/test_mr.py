import operator
import random
from itertools import accumulate, combinations, product
from types import SimpleNamespace

import pytest

from mrgrid import (ErasurePattern, FieldSpec, GFMatrix,
                    TensorCode, Topology, attack_t3, attack_t4, build_pseudo_parity,
                    certify_mr, every_w_columns_independent, find_sum_collision,
                    is_correctable_by, is_irreducible, is_regular, primitive_element,
                    rank, reduce_restricted, search_mr)
from mrgrid.errors import NotMds, ResourceGuard
from mrgrid.gfmatrix import row_inserter
from mrgrid import mr
from mrgrid.mr import (E0_MASK, TYPE_II_MASK, _disjoint_edges, _greedy_values, _null_vectors,
                       _sorted_walk, _truncated, _walk)
from mrgrid.patterns import enumerate_types, row_class_masks, type_orbit_masks
from _support import (TYPE_I_MASK, brute_echelon, brute_greedy_values, canonical_type, f_t3,
                      f_t4, first_certified, five_subset_greedy_values, is_two_sidon,
                      leibniz_determinant, mask_pattern, prime_powers_upto,
                      q_below_t3_threshold, q_below_t4_threshold, random_mds_rows,
                      random_nonzero_row, simple_code, spec_for_order, tuple_sweep_plan,
                      unpack_mask, zero_under_some_permutation)


# ----------------------------------------------------------------------
# the rank-condition polynomials (raw-int oracles in _support)
# ----------------------------------------------------------------------

def test_rank_polynomial_t4_examples():
    s = FieldSpec(7)
    assert f_t4(s, [1, 3, 2, 6, 4, 5]) == 0
    # x3 = x5 = x6 kills both products
    assert f_t4(s, [1, 2, 4, 3, 4, 4]) == 0
    # an arithmetic progression has equal pair sums and is always a zero
    assert f_t4(s, [0, 1, 2, 3, 4, 5]) == 0
    assert f_t4(s, [0, 1, 2, 3, 4, 6]) != 0


def test_rank_polynomial_t3_examples():
    s = FieldSpec(13)
    assert f_t3(s, [2, 2, 3, 4, 5, 6]) == 0
    # x5 = x6 makes the bracket vanish; swapping x5 and x6 negates it
    assert f_t3(s, [0, 1, 2, 3, 4, 4]) == 0
    assert f_t3(s, [0, 1, 2, 3, 4, 6]) == s.neg(f_t3(s, [0, 1, 2, 3, 6, 4])) != 0


def test_rank_polynomial_t4_is_the_type2_rank_determinant():
    # the reduced Type II block B has rank 6 exactly when f is nonzero
    rng = random.Random(0)
    s = FieldSpec(17)
    pattern = mask_pattern(TYPE_II_MASK)
    zeros = 0
    for _ in range(250):
        a = rng.sample(range(17), 6)
        code = simple_code(s, 4, 6, 2, a)
        f = f_t4(s, a)
        assert (rank(reduce_restricted(code, pattern)) == 6) == (f != 0)
        zeros += f == 0
    assert zeros > 0


def test_rank_polynomial_t3_is_the_e0_rank_determinant():
    # binds the corrected bracket to the actual reduced block over many fields
    pattern = mask_pattern(E0_MASK)
    for q in (11, 13, 16, 17, 19, 23):
        s = spec_for_order(q)
        rng = random.Random(q)
        zeros = 0
        for _ in range(300):
            a = rng.sample(range(q), 6)
            code = simple_code(s, 3, 6, 3, a)
            f = f_t3(s, a)
            assert (rank(reduce_restricted(code, pattern)) == 6) == (f != 0)
            zeros += f == 0
        assert zeros > 0, q


def _involution_det(ring, pairs):
    """det[1, u+u', u*u'] over the three pairs, in ring arithmetic."""
    add, sub, mul = ring.add, ring.sub, ring.mul
    (s1, p1), (s2, p2), (s3, p3) = [(add(u, w), mul(u, w)) for u, w in pairs]
    return add(sub(sub(mul(s2, p3), mul(s3, p2)), mul(s1, sub(p3, p2))),
               mul(p1, sub(s3, s2)))


def test_rank_polynomials_are_involution_determinants():
    """f_t4(x) = -D({x1,x6},{x2,x5},{x3,x4}) and
    f_t3(x) = (x1-x2)(x3-x4)(x5-x6) D({x1,x2},{x3,x4},{x5,x6}) as integer
    polynomials.  Both sides have degree at most 2 in every variable, so by
    the Combinatorial Nullstellensatz lemma (Alon, Lemma 2.1) agreeing on the
    grid {0,1,2}^6 proves the identities over Z, hence in every field."""
    ints = SimpleNamespace(add=operator.add, sub=operator.sub, mul=operator.mul)
    for x in product(range(3), repeat=6):
        x1, x2, x3, x4, x5, x6 = x
        d4 = _involution_det(ints, ((x1, x6), (x2, x5), (x3, x4)))
        assert f_t4(ints, x) == -d4
        d3 = _involution_det(ints, ((x1, x2), (x3, x4), (x5, x6)))
        assert f_t3(ints, x) == (x1 - x2) * (x3 - x4) * (x5 - x6) * d3


@pytest.mark.parametrize("q", [7, 8, 11])
def test_involution_determinant_is_never_constant_zero_in_x(q):
    # D({x,a},{b,b'},{c,c'}) = c1*x + c0; the greedy rule has no branch for
    # c1 = c0 = 0 because distinct a, b, b', c, c' never give it
    s = spec_for_order(q)
    for a in s.elements():
        rest = [v for v in s.elements() if v != a]
        for pair2 in combinations(rest, 2):
            for pair3 in combinations([v for v in rest if v not in pair2], 2):
                c0 = _involution_det(s, ((0, a), pair2, pair3))
                c1 = s.sub(_involution_det(s, ((1, a), pair2, pair3)), c0)
                assert (c1, c0) != (0, 0), (a, pair2, pair3)


def test_rank_polynomial_t3_bracket_matches_block_determinant():
    # 4x4 lower block of the simplified e0 reduction, determinant vs formula
    for q in (13, 31):
        s = FieldSpec(q)
        rng = random.Random(q)
        for _ in range(200):
            a = rng.sample(range(q), 6)
            sq = [s.mul(x, x) for x in a]
            block = [
                [s.sub(a[1], a[0]), 0, s.sub(a[0], a[4]), s.sub(a[0], a[5])],
                [s.sub(sq[1], sq[0]), 0, s.sub(sq[0], sq[4]), s.sub(sq[0], sq[5])],
                [0, s.sub(a[3], a[2]), s.sub(a[4], a[2]), s.sub(a[5], a[2])],
                [0, s.sub(sq[3], sq[2]), s.sub(sq[4], sq[2]), s.sub(sq[5], sq[2])],
            ]
            det = leibniz_determinant(s, block)
            f = f_t3(s, a)
            assert (det == 0) == (f == 0)


# ----------------------------------------------------------------------
# Sidon machinery
# ----------------------------------------------------------------------

def test_find_sum_collision_examples():
    w = find_sum_collision({0, 1, 2, 3, 4, 5}, 6)
    assert w is not None
    sums = {(a + b) % 6 for a, b in w.pairing}
    assert len(sums) == 1
    assert len({t for p in w.pairing for t in p}) == 6
    # the classic pairing with common sum 5 is also a qualifying bucket
    assert {(a + b) % 6 for (a, b) in ((0, 5), (1, 4), (2, 3))} == {5}
    assert find_sum_collision({0, 1, 2, 4}, 15) is None
    # oracle for the None case: no sum bucket holds three 2-subsets
    from collections import Counter
    counts = Counter((a + b) % 15 for a, b in combinations([0, 1, 2, 4], 2))
    assert max(counts.values()) < 3


def test_find_sum_collision_witness_structure():
    rng = random.Random(1)
    for _ in range(200):
        n = rng.randrange(8, 40)
        size = rng.randrange(4, min(n, 14))
        subset = rng.sample(range(n), size)
        w = find_sum_collision(subset, n)
        assert (w is None) == is_two_sidon(subset, n)
        if w:
            t1, t2, t3, t4, t5, t6 = w.exponents
            assert len({t1, t2, t3, t4, t5, t6}) == 6
            assert (t1 + t6) % n == (t2 + t5) % n == (t3 + t4) % n
            assert set(sum(w.pairing, ())) <= set(subset)


def test_find_sum_collision_rejects_duplicates():
    with pytest.raises(ValueError):
        find_sum_collision([0, 1, 16], 15)
    # a repeated exponent is a duplicate too, not merged into one
    with pytest.raises(ValueError, match="distinct"):
        find_sum_collision([1, 1, 2, 3, 4, 5, 6], 100)
    # the exponents are read once, so a one-shot iterable is not refused
    assert find_sum_collision(iter(range(6)), 6) == find_sum_collision(range(6), 6) is not None


# ----------------------------------------------------------------------
# attacks
# ----------------------------------------------------------------------

def _row_code(h_row, m) -> TensorCode:
    return TensorCode.simple_parity_col(Topology(m, h_row.cols, 1, h_row.rows), h_row)


def test_attack_t4_gf7_geometric_columns():
    s = FieldSpec(7)
    h = GFMatrix(s, [[1] * 6, [pow(3, t, 7) for t in range(6)]])
    out = attack_t4(_row_code(h, 4))
    assert out is not None
    assert len(out.pattern.cells) == 12
    assert out.rank_found < 12
    assert out.witness.columns is not None
    # returned pattern is a Type II instantiation on those columns
    topo = Topology(4, 6, 1, 2)
    assert is_irreducible(topo, out.pattern) and is_regular(topo, out.pattern)
    # more grid rows: the same witness on the first four
    assert attack_t4(_row_code(h, 6)).pattern == out.pattern


def test_attack_t4_rejected_by_random_column_codes():
    rng = random.Random(2)
    s = spec_for_order(16)
    h = random_mds_rows(s, 2, 13, rng)
    first = attack_t4(_row_code(h, 4))
    assert first is not None
    cols = [i * 13 + j for i, j in sorted(first.pattern.cells)]
    for k in range(21):
        coeffs = [1, 1, 1, 1] if k == 0 else [rng.randrange(1, 16) for _ in range(4)]
        code = TensorCode(Topology(4, 13, 1, 2), GFMatrix(s, [coeffs]), h)
        out = attack_t4(code)
        assert out.pattern == first.pattern
        hp = build_pseudo_parity(code)
        assert out.rank_found == rank(hp.restrict_columns(cols)) < 12


def test_attack_t4_none_on_sidon_exponents():
    # greedily grow a 2-Sidon exponent set in Z_31, embed as ratios over GF(32)
    n_mod = 31
    chosen = []
    for x in range(n_mod):
        if is_two_sidon(chosen + [x], n_mod):
            chosen.append(x)
        if len(chosen) == 6:
            break
    assert len(chosen) == 6
    s = FieldSpec(2, 5)
    w = primitive_element(s)
    h = GFMatrix(s, [[1] * 6, [s.pow(w, t) for t in chosen]])
    assert attack_t4(_row_code(h, 4)) is None


def test_attack_t4_not_mds():
    s = FieldSpec(7)
    with pytest.raises(NotMds):
        attack_t4(_row_code(GFMatrix(s, [[1, 2, 1], [3, 5, 3]]), 4))


def test_attacks_check_the_column_code():
    s = FieldSpec(7)
    h2 = GFMatrix(s, [[1] * 6, [pow(3, t, 7) for t in range(6)]])
    h3 = GFMatrix(s, [[1] * 6, list(range(6)), [t % 2 for t in range(6)]])
    for attack, h, m in ((attack_t4, h2, 4), (attack_t3, h3, 3)):
        assert attack(_row_code(h, m)) is not None
        # a zero column-parity coefficient: the column code is not MDS
        alphas = [1] * m
        alphas[1] = 0
        with pytest.raises(NotMds, match="column-parity coefficient"):
            attack(TensorCode(Topology(m, 6, 1, h.rows), GFMatrix(s, [alphas]), h))
        # too few grid rows, and two column parities
        with pytest.raises(ValueError):
            attack(_row_code(h, m - 1))
        h_col = GFMatrix(s, [[1] * m, list(range(1, m + 1))])
        with pytest.raises(ValueError):
            attack(TensorCode(Topology(m, 6, 2, h.rows), h_col, h))
    # each attack covers one row-code height
    with pytest.raises(ValueError):
        attack_t3(_row_code(h2, 4))
    with pytest.raises(ValueError):
        attack_t4(_row_code(h3, 4))


def test_attack_t3_zero_first_coordinate_branch():
    s = FieldSpec(7)
    data = [[0] * 6 + [1, 1], [1, 2, 3, 4, 5, 6, 0, 1], [1, 1, 2, 2, 3, 3, 1, 0]]
    out = attack_t3(_row_code(GFMatrix(s, data), 3))
    assert out.detail["kind"] == "zero_first_coordinate"
    assert out.rank_found < 12
    assert len(out.pattern.cells) == 12


def test_attack_t3_difference_collision_spec_example():
    # normalized vectors (t, t % 2): pairs (0,1), (2,3), (4,5) share delta (1, 1)
    s = FieldSpec(7)
    cols = [(1, t, t % 2) for t in range(6)]
    out = attack_t3(_row_code(GFMatrix(s, list(zip(*cols))), 3))
    assert out.detail["kind"] == "difference_collision"
    assert out.detail["delta"] == [1, 1]
    assert out.detail["pairs"] == [[0, 1], [2, 3], [4, 5]]
    assert out.rank_found < 12


def test_attack_t3_difference_collision_mds_instance():
    s = FieldSpec(7)
    gam = [(2, 1), (3, 2), (5, 2), (6, 3), (4, 6), (5, 0)]
    h = GFMatrix(s, list(zip(*[(1, a, b) for a, b in gam])))
    assert every_w_columns_independent(h, 3)
    out = attack_t3(_row_code(h, 3))
    assert out is not None and out.rank_found < 12


def test_attack_t3_none_and_errors():
    s = FieldSpec(7)
    h4 = GFMatrix(s, [[1, 1, 1, 1], [0, 1, 2, 3], [0, 1, 4, 2]])
    assert attack_t3(_row_code(h4, 3)) is None
    # columns 0 and 1 normalize to the same vector
    twin = GFMatrix(s, [[1, 2, 0, 0], [1, 2, 1, 0], [1, 2, 0, 1]])
    with pytest.raises(NotMds):
        attack_t3(_row_code(twin, 3))


def test_disjoint_edges_matches_brute_force_on_injective_gammas():
    # difference buckets of an injective gamma map: _disjoint_edges finds
    # three vertex-disjoint edges exactly when some edge triple is disjoint
    rng = random.Random(11)
    buckets_checked = hits = 0
    for q in (5, 7, 11, 8, 16):
        s = spec_for_order(q)
        points = [(x, y) for x in range(q) for y in range(q)]
        for _ in range(140):
            n = rng.randrange(6, 15)
            gammas = dict(enumerate(rng.sample(points, n)))
            buckets = {}
            for i, gi in gammas.items():
                for j, gj in gammas.items():
                    if i != j:
                        delta = (s.sub(gj[0], gi[0]), s.sub(gj[1], gi[1]))
                        buckets.setdefault(delta, []).append((i, j))
            for edges in buckets.values():
                chosen = _disjoint_edges(edges)
                assert set(chosen) <= set(edges)
                assert len({v for e in chosen for v in e}) == 2 * len(chosen)
                brute = any(len({v for e in trio for v in e}) == 6
                            for trio in combinations(edges, 3))
                assert (len(chosen) >= 3) == brute
                buckets_checked += 1
                hits += brute
    assert buckets_checked > 2 * 10 ** 4 and hits > 100


# ----------------------------------------------------------------------
# certification
# ----------------------------------------------------------------------

def test_certify_failed_mds_cases():
    s = FieldSpec(7)
    h = GFMatrix(s, [[1, 1, 2, 3, 4, 1], [2, 2, 3, 1, 5, 6]])  # repeated column
    code = TensorCode.simple_parity_col(Topology(4, 6, 1, 2), h)
    assert certify_mr(code).verdict == "failed_mds"
    good = GFMatrix(s, [[1] * 6, [1, 2, 3, 4, 5, 6]])
    weak_col = TensorCode(Topology(4, 6, 1, 2), GFMatrix(s, [[1, 1, 0, 1]]), good)
    assert certify_mr(weak_col).verdict == "failed_mds"


def test_certify_counterexample_invariants():
    s = FieldSpec(7)
    code = simple_code(s, 4, 6, 2, [pow(3, t, 7) for t in range(6)])
    rep = certify_mr(code)
    assert rep.verdict == "failed_pattern"
    topo = code.topology
    e = rep.counterexample
    assert is_regular(topo, e) and is_irreducible(topo, e)
    assert rep.rank_found < len(e.cells)
    # independent re-verification by plain elimination
    h = build_pseudo_parity(code)
    cols = [i * 6 + j for i, j in sorted(e.cells)]
    assert rank(h.restrict_columns(cols)) == rep.rank_found < len(e.cells)


def test_certify_dedupe_matches_full_enumeration(certified_t46):
    code, _, _ = certified_t46
    full = certify_mr(code, dedupe_rows=False)
    dedup = certify_mr(code, dedupe_rows=True)
    assert full.verdict == dedup.verdict == "certified"
    assert full.patterns_checked == 1800 and dedup.patterns_checked == 75
    s = FieldSpec(7)
    bad = simple_code(s, 4, 6, 2, [pow(3, t, 7) for t in range(6)])
    assert (certify_mr(bad, dedupe_rows=False).verdict
            == certify_mr(bad, dedupe_rows=True).verdict == "failed_pattern")


def test_certify_resource_guard():
    s = FieldSpec(11)
    code = simple_code(s, 4, 6, 2, [1, 2, 3, 4, 5, 6])
    with pytest.raises(ResourceGuard):
        certify_mr(code, instantiation_cap=10)


def test_sweep_plan_cache_contract(certified_t46, certified_t37):
    # the plan is a module-level functools cache of mrgrid.mr, so emptying
    # every cache_clear found in the module's namespace (as perfbench/run.py
    # does before each op) empties it
    assert mr._sweep_plan in [obj for obj in vars(mr).values()
                              if callable(getattr(obj, "cache_clear", None))]
    t46, _, _ = certified_t46
    t37, _, _ = certified_t37
    s = FieldSpec(7)
    bad46 = simple_code(s, 4, 6, 2, [pow(3, t, 7) for t in range(6)])
    bad37 = simple_code(s, 3, 7, 3, range(7))
    calls = [(t46, True), (bad46, True), (t37, True), (bad37, True), (t46, False),
             (bad46, False), (t46, True), (bad46, True)]
    cold = []
    for code, dedupe in calls:
        mr._sweep_plan.cache_clear()
        cold.append(certify_mr(code, dedupe_rows=dedupe))
    assert [r.verdict for r in cold] == ["certified", "failed_pattern"] * 4
    mr._sweep_plan.cache_clear()
    warm = [certify_mr(code, dedupe_rows=dedupe) for code, dedupe in calls]
    assert warm == cold
    # one miss per change of shape or mode; the plan of the last one is kept
    info = mr._sweep_plan.cache_info()
    assert (info.hits, info.misses, info.maxsize, info.currsize) == (4, 4, 1, 1)


@pytest.mark.parametrize("m,b,n,dedupe", [(4, 2, 8, True), (3, 3, 8, True), (4, 3, 8, True),
                                          (3, 4, 8, True), (5, 2, 8, True), (4, 2, 7, False),
                                          (3, 3, 7, False)])
def test_packed_sweep_plan_equals_the_tuple_plan(m, b, n, dedupe):
    # the plan keeps its masks packed; unpacked, they and the entries and
    # walks built from them are those of a plan built on 0/1-tuple masks,
    # with the row classes found by set-dedupe over column arrangements.
    # The literal sweep walks the same classes, so both modes build one plan
    plan = mr._sweep_plan(m, b, n, dedupe, mr.DEFAULT_INSTANTIATION_CAP)
    unpacked = tuple((pt, tuple(unpack_mask(mask, pt.v) for mask in masks), entries, walk)
                     for pt, masks, entries, walk in plan)
    assert unpacked == tuple_sweep_plan(m, b, n)
    assert plan == mr._sweep_plan(m, b, n, True, mr.DEFAULT_INSTANTIATION_CAP)


def test_sweep_plan_does_not_cache_a_resource_guard(certified_t46):
    code, _, _ = certified_t46
    mr._sweep_plan.cache_clear()
    with pytest.raises(ResourceGuard, match="75 pattern classes exceed cap 10"):
        certify_mr(code, instantiation_cap=10)
    assert mr._sweep_plan.cache_info().currsize == 0
    rep = certify_mr(code)
    assert (rep.verdict, rep.patterns_checked) == ("certified", 75)
    # the low cap fails again, though the default cap's plan is cached
    with pytest.raises(ResourceGuard, match="75 pattern classes exceed cap 10"):
        certify_mr(code, instantiation_cap=10)


def test_cap_is_checked_before_any_mask_is_built(certified_t46, monkeypatch):
    # the totals come from the mask counts alone
    code, _, _ = certified_t46

    def built(pt):
        raise AssertionError(f"masks of {pt} built before the cap check")

    monkeypatch.setattr(mr, "row_class_masks", built)
    monkeypatch.setattr(mr, "_packed_orbit_masks", built)
    mr._sweep_plan.cache_clear()
    with pytest.raises(ResourceGuard, match="75 pattern classes exceed cap 10"):
        certify_mr(code, instantiation_cap=10)
    with pytest.raises(ResourceGuard, match="1800 pattern instantiations exceed cap 10"):
        certify_mr(code, instantiation_cap=10, dedupe_rows=False)


def test_cap_is_checked_before_the_mds_check(certified_t46, monkeypatch):
    # the plan comes first, so a shape over the cap is refused before any of
    # the code's C(n, b) MDS subsets is tested
    def mds_check(*args):
        raise AssertionError("MDS check ran before the cap check")

    monkeypatch.setattr(mr, "every_w_columns_independent", mds_check)
    mr._sweep_plan.cache_clear()
    code, _, _ = certified_t46
    with pytest.raises(ResourceGuard, match="75 pattern classes exceed cap 10"):
        certify_mr(code, instantiation_cap=10)
    s = FieldSpec(1048573)
    wide = simple_code(s, 3, 40, 5, range(1, 41))
    with pytest.raises(ResourceGuard, match="3913081272100 pattern classes exceed cap 10000000"):
        certify_mr(wide)
    # a code that is not MDS is refused too when its shape is over the cap
    monkeypatch.undo()
    h = GFMatrix(FieldSpec(7), [[1, 1, 2, 3, 4, 1], [2, 2, 3, 1, 5, 6]])  # repeated column
    weak = TensorCode.simple_parity_col(Topology(4, 6, 1, 2), h)
    with pytest.raises(ResourceGuard, match="75 pattern classes exceed cap 10"):
        certify_mr(weak, instantiation_cap=10)
    assert certify_mr(weak).verdict == "failed_mds"


def test_certify_t4x13_gf16_always_fails():
    # below the (n-3)^2/4 + 2 threshold no MDS row code certifies
    rng = random.Random(3)
    s = spec_for_order(16)
    h = random_mds_rows(s, 2, 13, rng)
    code = TensorCode.simple_parity_col(Topology(4, 13, 1, 2), h)
    rep = certify_mr(code)
    assert rep.verdict == "failed_pattern"
    topo = code.topology
    assert is_regular(topo, rep.counterexample)
    assert not is_correctable_by(code, rep.counterexample, method="direct")


def _kernel_classes(code):
    """(pattern, reduced-block verdict) for every class certify_mr checks, in
    its order.

    The verdict is full column rank of the class's reduced block
    (reduce_restricted), which carries no column-parity coefficient.
    """
    t = code.topology
    for pt in enumerate_types(t.m, t.b):
        if pt.v > t.n:
            continue
        masks = [unpack_mask(mask, pt.v) for mask in row_class_masks(pt)]
        for cols in combinations(range(t.n), pt.v):
            for mask in masks:
                e = mask_pattern(mask, cols)
                yield e, rank(reduce_restricted(code, e)) == len(e.cells) - pt.v


def _direct_report(code, embeddings):
    """certify_mr's pattern sweep with the direct rank as the only predicate."""
    checked = 0
    for e in embeddings:
        checked += 1
        if not is_correctable_by(code, e, method="direct"):
            return ("failed_pattern", e.to_list(), checked)
    return ("certified", None, checked)


@pytest.mark.parametrize("m,b,n,orders", [(4, 2, 7, (7, 8)), (3, 3, 7, (7, 8)),
                                          (4, 3, 7, (7, 8)), (3, 4, 8, (8, 11))])
def test_kernel_verdict_matches_the_direct_rank_on_every_class(m, b, n, orders):
    # the direct rank sees the random column-parity coefficients, the kernel
    # verdict does not
    rng = random.Random(m * 100 + b * 10 + n)
    verdicts = set()
    for q in orders:
        s = spec_for_order(q)
        code = TensorCode(Topology(m, n, 1, b), random_nonzero_row(s, m, rng),
                          random_mds_rows(s, b, n, rng))
        classes = list(_kernel_classes(code))
        for e, full in classes:
            assert full == is_correctable_by(code, e, method="direct"), (q, e.to_list())
            verdicts.add(full)
        rep = certify_mr(code)
        assert rep.verdict != "failed_mds"
        got = (rep.verdict, rep.counterexample and rep.counterexample.to_list(),
               rep.patterns_checked)
        assert got == _direct_report(code, [e for e, _ in classes])
    assert verdicts == {True, False}


def test_literal_sweep_matches_the_direct_rank_on_unused_grid_rows():
    # dedupe_rows=False counts every orbit mask on every choice of grid rows:
    # E0 on every 3 of 4 rows, and on T_5x6(1,2,0) a Type II failure once
    # Type I has passed on all 5 choices of 4 rows
    verdicts = []
    for m, b, q in ((4, 3, 13), (4, 3, 16), (4, 3, 17), (5, 2, 13)):
        rng = random.Random(q)
        s = spec_for_order(q)
        code = TensorCode(Topology(m, 6, 1, b), random_nonzero_row(s, m, rng),
                          random_mds_rows(s, b, 6, rng))
        embeddings = (ErasurePattern.of((rows[i], cols[j]) for i in range(pt.u)
                                        for j in range(pt.v) if mask[i][j])
                      for pt in enumerate_types(m, b, 6)
                      for rows in combinations(range(m), pt.u)
                      for cols in combinations(range(6), pt.v)
                      for mask in type_orbit_masks(pt))
        rep = certify_mr(code, dedupe_rows=False)
        got = (rep.verdict, rep.counterexample and rep.counterexample.to_list(),
               rep.patterns_checked)
        assert got == _direct_report(code, embeddings)
        verdicts.append(rep.verdict)
    assert verdicts == ["failed_pattern", "failed_pattern", "certified", "failed_pattern"]


# ----------------------------------------------------------------------
# the Type II and E0 minors (behind attack_t4, attack_t3 and _greedy_values)
# ----------------------------------------------------------------------

def _symbolic_block_det(mask, b):
    """The determinant of mask's square reduced block B, with symbolic
    row-code entries h<k><j>: each mask column j's first erased row i0 is
    its pivot, and each other erased cell (i, j) gives B a column with h_j
    at row block i (unless i is the last row) and -h_j at row block i0.
    The block has no column-parity coefficient to carry."""
    sp = pytest.importorskip("sympy")
    h_cols = [tuple(sp.Symbol(f"h{k}{j}") for k in range(b)) for j in range(6)]
    height = (len(mask) - 1) * b
    columns = []
    for j, col in enumerate(zip(*mask)):
        i0 = col.index(1)
        for i in range(i0 + 1, len(mask)):
            if col[i]:
                entry = [0] * height
                if i < len(mask) - 1:
                    entry[i * b:(i + 1) * b] = h_cols[j]
                entry[i0 * b:(i0 + 1) * b] = [-x for x in h_cols[j]]
                columns.append(entry)
    block = sp.Matrix(columns).T
    assert block.shape == (6, 6)
    return sp, block.det(method="berkowitz"), h_cols


def _pair_determinant(sp, pair_row, pairs, h_cols):
    """D: the 3x3 determinant with one pair_row per column pair."""
    return sp.Matrix([pair_row(h_cols[j], h_cols[k]) for j, k in pairs]).det()


def _form_row(p, r):
    """The binary quadratic form (y*s - x*t)(y'*s - x'*t) of the points
    p = (x, y) and r = (x', y') of P^1, as its s^2, -s*t and t^2 coefficients."""
    (x, y), (x2, y2) = p, r
    return [y * y2, x * y2 + x2 * y, x * x2]


def _cross_row(p, r):
    """The cross product p x r: the line through the points p and r of P^2."""
    return [p[1] * r[2] - p[2] * r[1], p[2] * r[0] - p[0] * r[2], p[0] * r[1] - p[1] * r[0]]


def test_type2_minor_is_the_involution_determinant():
    # TYPE_II_MASK's columns pair by complementary 2-row supports; D = 0 says
    # the three pairs are in involution
    sp, det, h = _symbolic_block_det(TYPE_II_MASK, 2)
    d = _pair_determinant(sp, _form_row, ((0, 5), (1, 4), (2, 3)), h)
    assert sp.expand(det + d) == 0
    assert sp.expand(d) != 0


def test_e0_minor_is_the_concurrency_determinant():
    # E0_MASK's columns pair by equal 2-row supports; D = 0 says the three
    # lines through the pairs' points meet in one point
    sp, det, h = _symbolic_block_det(E0_MASK, 3)
    d = _pair_determinant(sp, _cross_row, ((0, 1), (2, 3), (4, 5)), h)
    assert sp.expand(det + d) == 0
    assert sp.expand(d) != 0


def test_type1_minor_factors_into_three_2x2_minors():
    # every Type I class is correctable once h_row is MDS; certify_mr does
    # not use this yet
    sp, det, h = _symbolic_block_det(TYPE_I_MASK, 2)
    pair_minors = [h[j][0] * h[k][1] - h[j][1] * h[k][0] for j, k in ((0, 1), (2, 3), (4, 5))]
    assert sp.expand(det - sp.Mul(*pair_minors)) == 0


def test_involution_free_code_walks_every_class(monkeypatch):
    # the code `search --m 4 --b 2 --n 8` reports: greedy values, q = 79
    code = search_mr(4, 2, 8, spec_for_order(79))
    assert code is not None
    compiled, walked = [], []

    def counted_sorted_walk(b, v, masks):
        compiled.extend(unpack_mask(mask, v) for mask in masks)
        return _sorted_walk(b, v, masks)

    def counted_walk(walk, entry_rows, insert):
        hit = _walk(walk, entry_rows, insert)
        walked.append((len(walk), hit))
        return hit

    monkeypatch.setattr(mr, "_sorted_walk", counted_sorted_walk)
    monkeypatch.setattr(mr, "_walk", counted_walk)
    # search_mr has built and cached this shape's plan with the real
    # _sorted_walk; drop it so the counted one sorts the masks
    mr._sweep_plan.cache_clear()
    rep = certify_mr(code)
    assert (rep.verdict, rep.patterns_checked) == ("certified", 2100)
    # C(8, 6) column subsets times 45 Type I and 30 Type II row classes:
    # every mask of both types is sorted into its type's walk, one walk per
    # type and column subset, and no walk fails
    type1, type2 = (canonical_type(mask_pattern(mask)) for mask in (TYPE_I_MASK, TYPE_II_MASK))
    assert [canonical_type(mask_pattern(mask)) for mask in compiled] == [type1] * 45 + [type2] * 30
    assert walked == [(45, 45)] * 28 + [(30, 30)] * 28
    # a second certification of the shape reuses the plan: it sorts no
    # mask and runs the same sweep
    del walked[:]
    assert certify_mr(code) == rep
    assert len(compiled) == 75
    assert walked == [(45, 45)] * 28 + [(30, 30)] * 28


def _first_dependent_row(rows, spec, height):
    """The index of the first row in the span of the rows before it, or None;
    by normalised elimination of ever longer prefixes."""
    for i in range(len(rows)):
        prefix = [list(r) for r in rows[:i + 1]]
        if len(brute_echelon(prefix, spec, height)) <= i:
            return i
    return None


def _supports(mask):
    return [tuple(j for j, x in enumerate(row) if x) for row in mask]


def _kernel_rows(code, supports, cols, insert):
    """The kernel rows of the row supports on the column subset cols, in
    order, from certify_mr's own helpers; no null vector is reused."""
    b = code.topology.b
    h_cols = list(zip(*code.h_row.data))
    rows = []
    for support in supports:
        vectors = _null_vectors(insert, h_cols, b, tuple(cols[j] for j in support))
        rows += _truncated(vectors, support, b, len(cols) - b)
    return rows


@pytest.mark.parametrize("m,b", [(4, 2), (3, 3), (4, 3), (3, 4), (5, 2)])
def test_kernel_rows_agree_with_both_rank_oracles(m, b):
    # every row-class mask of every type with v <= 7, on three sampled
    # column subsets of a random MDS row code per field: full row rank of
    # the kernel rows certify_mr walks, full column rank of H|_E with
    # random column-parity coefficients (is_correctable_by) and full
    # column rank of the reduced block (reduce_restricted) agree
    rng = random.Random(10 * m + b)
    n = 7
    verdicts = set()
    for q in (7, 8, 13, 16, 31):
        s = spec_for_order(q)
        insert = row_inserter(s)
        code = TensorCode(Topology(m, n, 1, b), random_nonzero_row(s, m, rng),
                          random_mds_rows(s, b, n, rng))
        for pt in enumerate_types(m, b, n):
            subsets = list(combinations(range(n), pt.v))
            for mask in row_class_masks(pt):
                mask = unpack_mask(mask, pt.v)
                for cols in rng.sample(subsets, min(3, len(subsets))):
                    rows = _kernel_rows(code, _supports(mask), cols, insert)
                    assert all(len(row) == pt.v - b for row in rows)
                    kernel = len(brute_echelon(rows, s, pt.v - b)) == len(rows)
                    e = mask_pattern(mask, cols)
                    direct = is_correctable_by(code, e)
                    reduced = rank(reduce_restricted(code, e)) == len(e.cells) - pt.v
                    assert kernel == direct == reduced, (q, e.to_list())
                    verdicts.add(kernel)
    assert verdicts == {True, False}


@pytest.mark.parametrize("m,b,n", [(4, 2, 8), (3, 3, 8), (4, 3, 8), (3, 4, 8), (5, 2, 7)])
def test_sorted_walk_matches_per_mask_elimination(m, b, n):
    # every type's row-class masks on every column subset of two random MDS
    # row codes per field, with random column-parity coefficients.  The walk
    # must return the least mask index whose reduced block
    # (reduce_restricted) lacks full column rank; some subsets fail first in
    # sorted order at a mask that is not the first in mask order.
    types = []
    for pt in enumerate_types(m, b):
        if pt.v > n:
            continue
        packed = row_class_masks(pt)
        masks = [unpack_mask(mask, pt.v) for mask in packed]
        entries, walk = _sorted_walk(b, pt.v, packed)
        assert entries == sorted({s for mask in masks for s in _supports(mask)})
        assert walk[0][1] == 0
        walked, prev = {}, ()
        for k, lcp, suffix in walk:
            prev = prev[:lcp] + suffix
            walked[k] = prev
        assert len(walked) == len(walk) == len(masks)
        # a mask walks the kernel rows of its supports, in entry order
        starts = list(accumulate((len(s) - b for s in entries), initial=0))
        index = {s: i for i, s in enumerate(entries)}
        assert walked == {k: tuple(r for i in sorted(index[s] for s in _supports(mask))
                                   for r in range(starts[i], starts[i + 1]))
                          for k, mask in enumerate(masks)}
        types.append((pt, masks, entries, walk, walked))
    rng = random.Random(1000 * m + 100 * b + n)
    failed = sorted_first_differs = 0
    for q in (8, 11, 13, 16, 17):
        spec = spec_for_order(q)
        insert = row_inserter(spec)
        for _ in range(2):
            code = TensorCode(Topology(m, n, 1, b), random_nonzero_row(spec, m, rng),
                              random_mds_rows(spec, b, n, rng))
            for pt, masks, entries, walk, walked in types:
                for cols in combinations(range(n), pt.v):

                    def fails(k):
                        e = mask_pattern(masks[k], cols)
                        return rank(reduce_restricted(code, e)) < len(e.cells) - pt.v

                    expected = next(filter(fails, range(len(masks))), len(masks))
                    entry_rows = _kernel_rows(code, entries, cols, insert)
                    assert _walk(walk, entry_rows, insert) == expected, (q, pt, cols)
                    if expected < len(masks):
                        failed += 1
                        sorted_first_differs += next(k for k, _, _ in walk if fails(k)) != expected
    assert failed and sorted_first_differs
    # The walk takes any rows, not only kernel rows: uniform ones, and the
    # same with a zero first row and the second a multiple of the third,
    # which come first in the sorted order.  It must return the least mask
    # index whose walked rows are dependent (normalised elimination); some
    # failing rows lie in a prefix that the next sorted mask shares, so the
    # walk skips that mask (the MDS codes above give no such prefix).
    shared_dead_prefix = 0
    for q in (7, 8, 11, 13, 16):
        spec = spec_for_order(q)
        insert = row_inserter(spec)
        for pt, masks, entries, walk, walked in types:
            width = pt.v - b
            uniform = [[rng.randrange(q) for _ in range(width)]
                       for _ in range(sum(len(s) - b for s in entries))]
            planted = [[0] * width, [spec.mul(rng.randrange(1, q), x) for x in uniform[2]]]
            planted += uniform[2:]
            for entry_rows in (uniform, planted):

                def fails(k):
                    rows = [list(entry_rows[e]) for e in walked[k]]
                    return len(brute_echelon(rows, spec, width)) < len(rows)

                expected = next(filter(fails, range(len(masks))), len(masks))
                assert _walk(walk, entry_rows, insert) == expected, (q, pt)
                if expected == len(masks):
                    continue
                i, k = next((i, k) for i, (k, _, _) in enumerate(walk) if fails(k))
                depth = _first_dependent_row([entry_rows[e] for e in walked[k]],
                                             spec, width)
                shared_dead_prefix += i + 1 < len(walk) and depth < walk[i + 1][1]
    assert shared_dead_prefix


# ----------------------------------------------------------------------
# search
# ----------------------------------------------------------------------

def test_search_greedy_deterministic(certified_t46):
    code, q, _ = certified_t46
    again = search_mr(4, 2, 6, code.spec, strategy="greedy_indep", seed=0)
    assert again is not None and again.h_row == code.h_row


def test_search_accepted_set_avoids_f_zeros(certified_t46):
    code, _, _ = certified_t46
    values = list(code.h_row.row(1))
    spec = code.spec
    for six in combinations(values, 6):
        assert not zero_under_some_permutation(spec, "t4_12", six)


@pytest.mark.parametrize("q", [7, 8, 11, 13, 16, 31, 32, 61, 64])
def test_greedy_values_match_the_720_order_oracle(q):
    s = spec_for_order(q)
    for n in (6, 7, 8):
        for seed in (0, q):
            values = _greedy_values(s, n, seed)
            for kind in ("t4_12", "t3_13"):
                assert values == brute_greedy_values(s, kind, n, seed), (kind, n, seed)


def test_greedy_values_match_the_five_subset_oracle():
    for q in prime_powers_upto(2, 128):
        s = spec_for_order(q)
        for n in range(6, 11):
            for seed in {0, 1, q, 12345}:
                assert _greedy_values(s, n, seed) == five_subset_greedy_values(s, n, seed), \
                    (q, n, seed)


def _involution_scan(spec, n, seed, own_images=True, pair_images=True):
    """mr._greedy_values with either half of its forbidden set left out: the
    images of each new value under the stored involutions (own_images), or
    the images of the other accepted values under each new pair's
    involutions (pair_images)."""
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
        forbid, keep = 4 <= len(accepted) < n - 1, len(accepted) < n - 2
        for A, B, C in involutions if forbid and own_images else ():
            if den := sub(mul(x, A), B):
                forbidden.add(div(sub(mul(x, B), C), den))
        new_pairs = [(x, y, add(x, y), mul(x, y)) for y in accepted]
        for _, y, s, p in new_pairs:
            for u, u2, s2, p2 in pairs:
                if y != u and y != u2:
                    A, B, C = sub(s2, s), sub(p2, p), sub(mul(s, p2), mul(s2, p))
                    if keep:
                        involutions.append((A, B, C))
                    for a in accepted if forbid and pair_images else ():
                        if a != y and a != u and a != u2 and (den := sub(mul(a, A), B)):
                            forbidden.add(div(sub(mul(a, B), C), den))
        if keep:
            pairs += new_pairs
        accepted.append(x)
    return accepted if len(accepted) >= n else None


@pytest.mark.parametrize("halves", [(False, True), (True, False)])
def test_involution_scan_needs_both_halves(halves):
    # the local copy with both halves is the library's scan; with either half
    # left out it accepts a value the 5-subset oracle forbids
    cases = [(spec_for_order(q), n, seed) for q in (31, 32, 61, 64, 79, 128)
             for n in (7, 8) for seed in (0, 1)]
    assert all(_involution_scan(s, n, seed) == _greedy_values(s, n, seed)
               for s, n, seed in cases)
    assert any(_involution_scan(s, n, seed, *halves) != five_subset_greedy_values(s, n, seed)
               for s, n, seed in cases)


def test_search_q_found_clears_the_paper_thresholds():
    # the smallest greedy q per n sits above both lower-bound thresholds, and
    # (4,2) and (3,3) share the greedy rule, hence q and values
    found_t4 = {n: first_certified(4, 2, n, 1024)[:2] for n in (6, 7, 8, 9)}
    assert {n: q for n, (_, q) in found_t4.items()} == {6: 11, 7: 31, 8: 79, 9: 149}
    for n, (code, q) in found_t4.items():
        assert not q_below_t4_threshold(q, n)
        assert not q_below_t3_threshold(q, n)
        if n <= 8:
            t3_code, t3_q, _ = first_certified(3, 3, n, 1024)
            assert t3_q == q and t3_code.h_row.row(1) == code.h_row.row(1)


def test_search_small_n_certifies_without_type_patterns():
    # n = 4 < 6 columns: no type instantiations exist, any MDS h_row certifies
    s = FieldSpec(5)
    code = search_mr(4, 2, 4, s, strategy="greedy_indep", seed=0)
    assert code is not None
    assert certify_mr(code).patterns_checked == 0
    # the Vandermonde ansatz needs q distinct values, but a random draw can use
    # the full projective line, so q = 3 already admits an MDS 2x4 row code
    assert search_mr(4, 2, 4, FieldSpec(3), strategy="random", seed=0, budget=500) is not None


def test_search_random_strategy():
    s = FieldSpec(11)
    code = search_mr(4, 2, 6, s, strategy="random", seed=5, budget=300)
    assert code is not None
    assert certify_mr(code).verdict == "certified"


def test_search_not_found_on_tiny_field():
    assert search_mr(4, 2, 6, FieldSpec(5), strategy="greedy_indep", seed=0) is None


def test_search_rejects_unknown_shapes():
    with pytest.raises(ValueError):
        search_mr(5, 2, 6, FieldSpec(11), strategy="greedy_indep")
    with pytest.raises(ValueError):
        search_mr(4, 2, 6, FieldSpec(11), strategy="annealing")


def test_certify_dedupe_with_unused_grid_rows():
    # u = 4 types certified inside a 5-row grid: the row-relabeling classes
    # must agree with the literal sweep over all C(5,4) row choices
    s = FieldSpec(13)
    h_row = GFMatrix(s, [[1] * 6, [1, 2, 3, 5, 9, 11]])
    code = TensorCode(Topology(5, 6, 1, 2), GFMatrix(s, [[1] * 5]), h_row)
    dedup = certify_mr(code, dedupe_rows=True)
    full = certify_mr(code, dedupe_rows=False)
    assert dedup.verdict == full.verdict
    if dedup.verdict == "failed_pattern":
        topo = code.topology
        for rep in (dedup, full):
            assert is_regular(topo, rep.counterexample)
            assert rep.rank_found < len(rep.counterexample.cells)
    else:
        assert (dedup.patterns_checked, full.patterns_checked) == (75, 9000)


def test_certify_dedupe_matches_literal_sweep_t4x6_b3():
    # T_4x6(1,3,0) has one usable type, E0 (u = 3, v = 6): 15 row classes, or
    # its 90 orbit masks on each of the 4 row choices
    topo = Topology(4, 6, 1, 3)
    bad = simple_code(FieldSpec(13), 4, 6, 3, [0, 1, 3, 7, 9, 12])
    good = simple_code(FieldSpec(1009), 4, 6, 3, [3, 17, 101, 444, 700, 958])
    reports = {(code, dedupe): certify_mr(code, dedupe_rows=dedupe)
               for code in (bad, good) for dedupe in (True, False)}
    for dedupe in (True, False):
        rep = reports[bad, dedupe]
        assert rep.verdict == "failed_pattern"
        e = rep.counterexample
        assert is_regular(topo, e) and is_irreducible(topo, e)
        assert not is_correctable_by(bad, e, method="direct")
        assert rep.rank_found < len(e.cells)
    assert reports[good, True].verdict == reports[good, False].verdict == "certified"
    assert (reports[good, True].patterns_checked, reports[good, False].patterns_checked) == (15, 360)
