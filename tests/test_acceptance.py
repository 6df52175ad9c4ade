"""Acceptance suite: one test per criterion, each printing a PASS line.

The heavyweight sweeps (criteria 2 and 3) vectorize the enumeration with
numpy bit tricks and bind the vectorized predicates to the library functions
by exhaustive smaller-range checks plus random cross-samples.
"""

import math
import random
import time
from itertools import combinations

import numpy as np
import pytest

from mrgrid import (ErasurePattern, FieldSpec, GFMatrix, GridWord,
                    TensorCode, Topology, attack_t4, bound, build_pseudo_parity,
                    certify_mr, decode, encode, enumerate_types,
                    find_sum_collision, is_correctable_by,
                    is_regular, primitive_element, rank, reduce_restricted)
from mrgrid.mr import E0_MASK, TYPE_II_MASK
from _support import (TYPE_I_MASK, canonical_type, class_pattern, exceeds_sidon_bound, f_t4,
                      is_two_sidon, mask_pattern, max_two_sidon, pattern_classes,
                      q_below_t4_threshold, random_mds_rows, random_nonzero_row,
                      prime_powers_upto, spec_for_order)


def report(cid, detail):
    print(f"\nCRITERION {cid} PASS: {detail}")


def test_c01_pattern_type_enumeration():
    t0 = time.time()
    t42 = enumerate_types(4, 2)
    expected42 = {canonical_type(mask_pattern(TYPE_I_MASK)),
                  canonical_type(mask_pattern(TYPE_II_MASK))}
    assert set(t42) == expected42 and len(t42) == 2
    t33 = enumerate_types(3, 3)
    assert t33 == [canonical_type(mask_pattern(E0_MASK))]
    assert enumerate_types(2, 2) == []
    for m in range(1, 6):
        assert enumerate_types(m, 1) == []
    elapsed = time.time() - t0
    assert elapsed < 10
    report(1, f"types(4,2)=Type I+II, types(3,3)=E0, empty cases empty; {elapsed:.2f}s < 10s")


def test_c02_regularity_oracle_equivalence():
    t0 = time.time()
    disagreements = 0
    classes = pattern_classes(4, 8, 14)
    checked = 0
    for (u, v, key) in classes:
        e = class_pattern(u, key)
        for b in (1, 2, 3):
            # regularity depends only on the support, so embed into a grid
            # large enough for the topology bounds
            topo = Topology(max(u, 2), max(v, b + 1), 1, b)
            if is_regular(topo, e, "fast") != is_regular(topo, e, "brute"):
                disagreements += 1
            checked += 1
    rng = random.Random(0)
    rand_checked = 0
    while rand_checked < 10 ** 4:
        m, n = 4, rng.choice([8, 9])
        size = rng.randrange(15, 25)
        cells = set()
        while len(cells) < size:
            cells.add((rng.randrange(m), rng.randrange(n)))
        e = ErasurePattern.of(cells)
        a = rng.choice([1, 1, 1, 2])
        b = rng.choice([1, 2, 3])
        topo = Topology(m, n, a, b)
        if is_regular(topo, e, "fast") != is_regular(topo, e, "brute"):
            disagreements += 1
        rand_checked += 1
    elapsed = time.time() - t0
    assert disagreements == 0
    assert elapsed < 60
    report(2, f"{len(classes)} support classes (m<=4, |E|<=14, up to 4x8) x b sweeps "
              f"({checked} checks) + {rand_checked} random larger: "
              f"0 disagreements; {elapsed:.1f}s < 60s")


def test_c03_correctable_equals_regular_through_mr_code(certified_t46):
    code, q, _ = certified_t46
    t0 = time.time()
    n_all = 1 << 24
    all_masks = np.arange(n_all, dtype=np.uint32)
    P = all_masks[np.bitwise_count(all_masks) <= 12]
    # regularity, vectorized: for every row subset U the worst column set V
    regular = np.ones(len(P), dtype=bool)
    for u_bits in range(1, 16):
        rows = [i for i in range(4) if u_bits >> i & 1]
        excess = np.zeros(len(P), dtype=np.int8)
        for j in range(6):
            cnt = np.zeros(len(P), dtype=np.int8)
            for i in rows:
                cnt += ((P >> np.uint32(6 * i + j)) & np.uint32(1)).astype(np.int8)
            np.maximum(cnt - 1, 0, out=cnt)
            excess += cnt
        regular &= excess <= 2 * (len(rows) - 1)
    # correctability, vectorized peel to irreducible cores + exact core ranks
    core = P.copy()
    while True:
        before = core
        clear = np.zeros(len(P), dtype=np.uint32)
        for i in range(4):
            rc = np.bitwise_count((core >> np.uint32(6 * i)) & np.uint32(0x3F))
            light = (rc > 0) & (rc <= 2)
            clear |= np.where(light, np.uint32(0x3F << (6 * i)), np.uint32(0))
        for j in range(6):
            colmask = np.uint32(sum(1 << (6 * i + j) for i in range(4)))
            cc = np.bitwise_count(core & colmask)
            light = (cc > 0) & (cc <= 1)
            clear |= np.where(light, colmask, np.uint32(0))
        core = core & ~clear
        if np.array_equal(core, before):
            break
    uniq, inverse = np.unique(core, return_inverse=True)
    corr_u = np.zeros(len(uniq), dtype=bool)
    for k, cm in enumerate(uniq):
        cm = int(cm)
        if cm == 0:
            corr_u[k] = True
            continue
        e = ErasurePattern.of((i, j) for i in range(4) for j in range(6) if cm >> (6 * i + j) & 1)
        # an irreducible core has rank(H|_E) = |V_E| + rank(B) (reduce_restricted)
        corr_u[k] = len(e.cols_used) + rank(reduce_restricted(code, e)) == len(e.cells)
    correctable = corr_u[inverse]
    assert np.array_equal(correctable, regular)
    # bind the vectorized predicates to the library functions
    rng = random.Random(1)
    topo = code.topology
    for idx in rng.sample(range(len(P)), 2000):
        cm = int(P[idx])
        e = ErasurePattern.of((i, j) for i in range(4) for j in range(6)
                              if cm >> (6 * i + j) & 1)
        assert is_regular(topo, e) == bool(regular[idx])
    for idx in rng.sample(range(len(P)), 400):
        cm = int(P[idx])
        e = ErasurePattern.of((i, j) for i in range(4) for j in range(6)
                              if cm >> (6 * i + j) & 1)
        assert is_correctable_by(code, e, method="direct") == bool(correctable[idx])
    elapsed = time.time() - t0
    report(3, f"certified q={q} code: correctable == regular on all {len(P)} patterns "
              f"(|E|<=12 on 4x6; {len(uniq)} distinct cores), 2400 library cross-samples; "
              f"{elapsed:.0f}s")


def test_c04_attack_below_threshold_at_desk_scale():
    t0 = time.time()
    s = spec_for_order(16)
    assert q_below_t4_threshold(16, 13)  # (13-3)^2/4 + 2 = 27 > 16
    rng = random.Random(42)
    type2 = canonical_type(mask_pattern(TYPE_II_MASK))
    successes = 0
    for _ in range(200):
        h = random_mds_rows(s, 2, 13, rng)
        patterns = set()
        for k in range(21):
            coeffs = [1] * 4 if k == 0 else [rng.randrange(1, 16) for _ in range(4)]
            code = TensorCode(Topology(4, 13, 1, 2), GFMatrix(s, [coeffs]), h)
            out = attack_t4(code)
            assert out is not None
            assert canonical_type(out.pattern) == type2
            patterns.add(out.pattern)
            cols = [i * 13 + j for i, j in sorted(out.pattern.cells)]
            direct = rank(build_pseudo_parity(code).restrict_columns(cols))
            assert out.rank_found == direct < 12
            # independent route: rank(H|_E) = |V_E| + rank(B) for the reduced block
            assert direct == 6 + rank(reduce_restricted(code, out.pattern))
        assert len(patterns) == 1  # the witness depends on the row code only
        successes += 1
    elapsed = time.time() - t0
    assert successes == 200
    assert elapsed < 120
    report(4, f"attack_t4 on 200 random 2x13 MDS over GF(16), each under the all-ones "
              f"and 20 random column codes: 4200/4200 Type II witnesses, rank_found "
              f"== direct rank < 12; {elapsed:.1f}s < 120s")


def test_c05_pair_sum_zero_property():
    t0 = time.time()
    rng = random.Random(7)
    orders = list(prime_powers_upto(11, 512))
    checked = 0
    while checked < 10 ** 3:
        q = rng.choice(orders)
        s = spec_for_order(q)
        n_mod = q - 1
        sum_val = rng.randrange(n_mod)
        pairs = []
        used = set()
        attempts = 0
        while len(pairs) < 3 and attempts < 200:
            attempts += 1
            t = rng.randrange(n_mod)
            u = (sum_val - t) % n_mod
            if t == u or t in used or u in used:
                continue
            pairs.append((t, u))
            used.update((t, u))
        if len(pairs) < 3:
            continue
        (t1, t6), (t2, t5), (t3, t4) = pairs
        w = primitive_element(s)
        args = [s.pow(w, t) for t in (t1, t2, t3, t4, t5, t6)]
        assert f_t4(s, args) == 0
        checked += 1
    elapsed = time.time() - t0
    report(5, f"f(t4) vanishes at omega^t tuples with equal pair sums: "
              f"{checked}/1000 across q <= 512; {elapsed:.1f}s")


def test_c06_sidon_bound_and_collision_completeness():
    t0 = time.time()
    max_sizes = {}
    for n_mod in range(2, 31):
        size = max_two_sidon(n_mod)
        max_sizes[n_mod] = size
        assert not exceeds_sidon_bound(size, n_mod)
        assert size <= 2 * math.sqrt(n_mod) + 1
    # completeness of the collision finder: a witness is returned exactly on
    # non-2-Sidon sets (exhaustive for N <= 14, sampled above)
    for n_mod in range(2, 15):
        for mask in range(1 << n_mod):
            subset = [i for i in range(n_mod) if mask >> i & 1]
            if len(subset) < 2:
                continue
            w = find_sum_collision(subset, n_mod)
            assert (w is None) == is_two_sidon(subset, n_mod)
    rng = random.Random(2)
    above_bound_checked = 0
    for n_mod in range(15, 31):
        floor_bound = int(2 * math.sqrt(n_mod) + 1)
        for _ in range(400):
            size = rng.randrange(2, n_mod + 1)
            subset = rng.sample(range(n_mod), size)
            w = find_sum_collision(subset, n_mod)
            assert (w is None) == is_two_sidon(subset, n_mod)
            if exceeds_sidon_bound(size, n_mod):
                assert w is not None
                above_bound_checked += 1
        if floor_bound + 1 <= n_mod:
            for _ in range(100):
                subset = rng.sample(range(n_mod), floor_bound + 1)
                assert find_sum_collision(subset, n_mod) is not None
                above_bound_checked += 1
    elapsed = time.time() - t0
    report(6, f"max 2-Sidon sizes for N<=30 all within 2*sqrt(N)+1 "
              f"(max at N=30 is {max_sizes[30]}); collision finder complete on "
              f"32k exhaustive + sampled sets, {above_bound_checked} above-bound "
              f"witnesses; {elapsed:.0f}s")


def test_c07_decoder_roundtrip(certified_t46):
    t0 = time.time()
    rng = random.Random(0)
    qs = [16, 17, 19, 23, 29, 31, 32, 37]
    roundtrips = 0
    for _ in range(10 ** 3):
        q = rng.choice(qs)
        s = spec_for_order(q)
        m = rng.randrange(2, 5)
        b = rng.randrange(1, 4)
        n = rng.randrange(max(b + 1, 4), 11)
        code = TensorCode(Topology(m, n, 1, b),
                          random_nonzero_row(s, m, rng),
                          random_mds_rows(s, b, n, rng))
        msg = [rng.randrange(q) for _ in range((m - 1) * (n - b))]
        word = encode(code, msg)
        topo = code.topology
        while True:
            size = rng.randrange(1, n + b * m - b + 1)
            cells = set()
            while len(cells) < size:
                cells.add((rng.randrange(m), rng.randrange(n)))
            e = ErasurePattern.of(cells)
            if is_regular(topo, e):
                break
        assert decode(code, GridWord.of(word.entries, e.cells)) == word.entries
        roundtrips += 1
    # non-regular patterns on a certified MR code are uncorrectable
    code, _, _ = certified_t46
    word = encode(code, [rng.randrange(code.spec.order) for _ in range(12)])
    topo = code.topology
    rejected = 0
    while rejected < 200:
        size = rng.randrange(2, 19)
        cells = set()
        while len(cells) < size:
            cells.add((rng.randrange(4), rng.randrange(6)))
        e = ErasurePattern.of(cells)
        if is_regular(topo, e):
            continue
        from mrgrid.errors import Uncorrectable
        with pytest.raises(Uncorrectable):
            decode(code, GridWord.of(word.entries, e.cells))
        rejected += 1
    elapsed = time.time() - t0
    assert roundtrips == 1000
    report(7, f"1000/1000 encode-erase-decode roundtrips on random regular "
              f"patterns; 200/200 non-regular patterns on the certified code "
              f"raised Uncorrectable; {elapsed:.0f}s")


def test_c08_pseudo_parity_structure():
    t0 = time.time()
    rng = random.Random(5)
    shapes_checked = 0
    words_checked = 0
    for _ in range(100):
        m = rng.randrange(2, 5)
        n = rng.randrange(3, 9)
        a = rng.randrange(1, m)
        b = rng.randrange(1, min(n, 4))
        q = rng.choice([11, 13, 16, 17])
        s = spec_for_order(q)
        h_col = random_mds_rows(s, a, m, rng)
        h_row = random_mds_rows(s, b, n, rng)
        code = TensorCode(Topology(m, n, a, b), h_col, h_row)
        h = build_pseudo_parity(code)
        assert (h.rows, h.cols) == (a * n + b * m, m * n)
        assert h.cols - rank(h) == (m - a) * (n - b)
        shapes_checked += 1
        for _ in range(10):
            msg = [rng.randrange(q) for _ in range((m - a) * (n - b))]
            w = encode(code, msg)
            flat = [x for row in w.entries for x in row]
            assert all(v == 0 for v in h.mul_vector(flat))
            words_checked += 1
    elapsed = time.time() - t0
    assert shapes_checked == 100 and words_checked == 1000
    report(8, f"dimensions (an+bm)x(mn) on 100 shapes, {words_checked} codewords "
              f"annihilated, null-space dim == (m-a)(n-b) throughout; {elapsed:.0f}s")


def test_c09_bound_arithmetic():
    assert bound("kmg_poly", {"m": 2, "b": 1, "n": 10}).value == 2401
    assert bound("gopalan_general", {"m": 2, "b": 1, "n": 3}).value == 228
    assert bound("t4_lower_threshold", {"n": 13}).value == 27
    assert bound("type_count", {"m": 2, "b": 1}).value == 4
    report(9, "kmg_poly(2,1,10)=2401, gopalan_general(2,1,3)=228, "
              "t4_lower_threshold(13)=27, type_count(2,1)=4")


def test_c10_search_feasibility(certified_t46, certified_t37):
    code46, q46, t46 = certified_t46
    assert q46 <= 1 << 10
    assert t46 < 600
    rep = certify_mr(code46, dedupe_rows=False)
    assert rep.verdict == "certified" and rep.patterns_checked == 1800
    code37, q37, t37 = certified_t37
    assert q37 <= 1 << 12
    assert t37 < 600
    rep = certify_mr(code37, dedupe_rows=False)
    assert rep.verdict == "certified" and rep.patterns_checked == 630
    report(10, f"T_(4x6)(1,2,0) certified at q={q46} in {t46:.1f}s; "
               f"T_(3x7)(1,3,0) certified at q={q37} in {t37:.1f}s "
               f"(both re-verified by full enumeration)")
