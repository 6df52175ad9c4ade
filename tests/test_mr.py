import random
from itertools import combinations

import pytest

from mrgrid import (ErasurePattern, FieldElement, FieldSpec, GFMatrix,
                    TensorCode, Topology, attack_t3, attack_t4, build_pseudo_parity,
                    certify_mr, f_poly, find_sum_collision, is_correctable_by,
                    is_irreducible, is_regular, rank, reduce_restricted, search_mr)
from mrgrid.errors import MixedFields, NotMds, ResourceGuard
from mrgrid.gfmatrix import determinant
from mrgrid.mr import (E0_MASK, TYPE_II_MASK, _disjoint_edges,
                       _zero_under_some_permutation, is_two_sidon)
from _support import mask_pattern, random_mds_rows, simple_code, spec_for_order


def fe(spec, vals):
    return [FieldElement(v, spec) for v in vals]


# ----------------------------------------------------------------------
# f_poly
# ----------------------------------------------------------------------

def test_f_poly_t4_examples():
    s = FieldSpec(7)
    assert f_poly("t4_12", fe(s, [1, 3, 2, 6, 4, 5])).value == 0
    # x3 = x5 = x6 kills both products
    assert f_poly("t4_12", fe(s, [1, 2, 4, 3, 4, 4])).value == 0
    # an arithmetic progression has equal pair sums and is always a zero
    assert f_poly("t4_12", fe(s, [0, 1, 2, 3, 4, 5])).value == 0
    assert f_poly("t4_12", fe(s, [0, 1, 2, 3, 4, 6])).value != 0


def test_f_poly_t3_examples_and_errors():
    s = FieldSpec(13)
    assert f_poly("t3_13", fe(s, [2, 2, 3, 4, 5, 6])).value == 0
    with pytest.raises(MixedFields):
        f_poly("t4_12", fe(s, [1, 2, 3, 4, 5]) + fe(FieldSpec(7), [1]))
    with pytest.raises(ValueError):
        f_poly("t9", fe(s, [1, 2, 3, 4, 5, 6]))


def test_f_poly_t4_is_the_type2_rank_determinant():
    # the reduced Type II block B has rank 6 exactly when f is nonzero
    rng = random.Random(0)
    s = FieldSpec(17)
    pattern = mask_pattern(TYPE_II_MASK)
    zeros = 0
    for _ in range(250):
        a = rng.sample(range(17), 6)
        code = simple_code(s, 4, 6, 2, a)
        f = f_poly("t4_12", fe(s, a)).value
        assert (rank(reduce_restricted(code, pattern)) == 6) == (f != 0)
        zeros += f == 0
    assert zeros > 0


def test_f_poly_t3_is_the_e0_rank_determinant():
    # binds the corrected bracket to the actual reduced block over many fields
    pattern = mask_pattern(E0_MASK)
    for q in (11, 13, 16, 17, 19, 23):
        s = spec_for_order(q)
        rng = random.Random(q)
        zeros = 0
        for _ in range(300):
            a = rng.sample(range(q), 6)
            code = simple_code(s, 3, 6, 3, a)
            f = f_poly("t3_13", fe(s, a)).value
            assert (rank(reduce_restricted(code, pattern)) == 6) == (f != 0)
            zeros += f == 0
        assert zeros > 0, q


def test_f_poly_t3_bracket_matches_block_determinant():
    # 4x4 lower block of the simplified e0 reduction, determinant vs formula
    for q in (13, 31):
        s = FieldSpec(q)
        rng = random.Random(q)
        for _ in range(200):
            a = rng.sample(range(q), 6)
            sq = [s.mul(x, x) for x in a]
            block = GFMatrix(s, [
                [s.sub(a[1], a[0]), 0, s.sub(a[0], a[4]), s.sub(a[0], a[5])],
                [s.sub(sq[1], sq[0]), 0, s.sub(sq[0], sq[4]), s.sub(sq[0], sq[5])],
                [0, s.sub(a[3], a[2]), s.sub(a[4], a[2]), s.sub(a[5], a[2])],
                [0, s.sub(sq[3], sq[2]), s.sub(sq[4], sq[2]), s.sub(sq[5], sq[2])],
            ])
            det = determinant(block)
            f = f_poly("t3_13", fe(s, a)).value
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


# ----------------------------------------------------------------------
# attacks
# ----------------------------------------------------------------------

def test_attack_t4_gf7_geometric_columns():
    s = FieldSpec(7)
    h = GFMatrix(s, [[1] * 6, [pow(3, t, 7) for t in range(6)]])
    out = attack_t4(h)
    assert out is not None
    assert len(out.pattern.cells) == 12
    assert out.rank_found < 12
    assert out.witness.columns is not None
    # returned pattern is a Type II instantiation on those columns
    topo = Topology(4, 6, 1, 2)
    assert is_irreducible(topo, out.pattern) and is_regular(topo, out.pattern)


def test_attack_t4_rejected_by_random_column_codes():
    rng = random.Random(2)
    s = spec_for_order(16)
    h = random_mds_rows(s, 2, 13, rng)
    out = attack_t4(h)
    assert out is not None
    cols = [i * 13 + j for i, j in sorted(out.pattern.cells)]
    for k in range(21):
        coeffs = [1, 1, 1, 1] if k == 0 else [rng.randrange(1, 16) for _ in range(4)]
        code = TensorCode(Topology(4, 13, 1, 2), GFMatrix(s, [coeffs]), h)
        hp = build_pseudo_parity(code)
        assert rank(hp.restrict_columns(cols)) < 12


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
    from mrgrid import primitive_element
    w = primitive_element(s).value
    h = GFMatrix(s, [[1] * 6, [s.pow(w, t) for t in chosen]])
    assert attack_t4(h) is None


def test_attack_t4_not_mds():
    s = FieldSpec(7)
    with pytest.raises(NotMds):
        attack_t4(GFMatrix(s, [[1, 2, 1], [3, 5, 3]]))


def test_attack_t3_zero_first_coordinate_branch():
    s = FieldSpec(7)
    data = [[0] * 6 + [1, 1], [1, 2, 3, 4, 5, 6, 0, 1], [1, 1, 2, 2, 3, 3, 1, 0]]
    out = attack_t3(GFMatrix(s, data))
    assert out.detail["kind"] == "zero_first_coordinate"
    assert out.rank_found < 12
    assert len(out.pattern.cells) == 12


def test_attack_t3_difference_collision_spec_example():
    s = FieldSpec(7)
    cols = [(1, t, t) for t in range(6)]
    out = attack_t3(GFMatrix(s, list(zip(*cols))))
    assert out.detail["kind"] == "difference_collision"
    assert out.detail["delta"] == [1, 1]
    assert len(out.detail["pairs"]) == 3
    used = [c for p in out.detail["pairs"] for c in p]
    assert len(set(used)) == 6


def test_attack_t3_difference_collision_mds_instance():
    s = FieldSpec(7)
    gam = [(2, 1), (3, 2), (5, 2), (6, 3), (4, 6), (5, 0)]
    h = GFMatrix(s, list(zip(*[(1, a, b) for a, b in gam])))
    from mrgrid import every_w_columns_independent
    assert every_w_columns_independent(h, 3)
    out = attack_t3(h)
    assert out is not None and out.rank_found < 12


def test_attack_t3_none_and_errors():
    s = FieldSpec(7)
    h4 = GFMatrix(s, [[1, 1, 1, 1], [0, 1, 2, 3], [0, 1, 4, 2]])
    assert attack_t3(h4) is None
    with pytest.raises(NotMds):
        attack_t3(GFMatrix(s, [[1, 2], [1, 2], [1, 2]]))


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
        assert not _zero_under_some_permutation(spec, "t4_12", six)


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


def test_f_poly_accepts_mixed_raw_ints():
    s = FieldSpec(7)
    args = [FieldElement(1, s), 3, 2, 6, 4, 5]
    assert f_poly("t4_12", args).value == 0
    with pytest.raises(ValueError):
        f_poly("t4_12", [1, 2, 3, 4, 5, 6])


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
