import random
from itertools import product

import pytest

from mrgrid import (ErasurePattern, FieldSpec, GFMatrix, GridWord, TensorCode,
                    Topology, build_pseudo_parity, decode, encode,
                    is_correctable_by, is_irreducible, is_regular, rank,
                    reduce_restricted)
from mrgrid.codes import pseudo_parity_columns, restricted_rank
from mrgrid.errors import InconsistentWord, NotIrreducible, Uncorrectable
from mrgrid.mr import E0_MASK, TYPE_II_MASK
from _support import (TYPE_I_MASK, mask_pattern, random_mds_rows, random_nonzero_row,
                      simple_code, spec_for_order)


def test_pseudo_parity_hand_example():
    s = FieldSpec(2)
    code = TensorCode(Topology(2, 2, 1, 1), GFMatrix(s, [[1, 1]]), GFMatrix(s, [[1, 1]]))
    h = build_pseudo_parity(code)
    assert (h.rows, h.cols) == (4, 4)
    assert all(sum(row) == 2 for row in h.data)


def test_pseudo_parity_dimensions_random_shapes():
    rng = random.Random(0)
    for _ in range(40):
        m = rng.randrange(2, 5)
        n = rng.randrange(2, 8)
        a = rng.randrange(1, m)
        b = rng.randrange(1, min(n, 4))
        q = rng.choice([7, 11, 16])
        s = spec_for_order(q)
        h_col = random_mds_rows(s, a, m, rng) if a > 1 else random_nonzero_row(s, m, rng)
        h_row = random_mds_rows(s, b, n, rng)
        code = TensorCode(Topology(m, n, a, b), h_col, h_row)
        h = build_pseudo_parity(code)
        assert (h.rows, h.cols) == (a * n + b * m, m * n)


def test_pseudo_parity_columns_is_the_restricted_pseudo_parity():
    # both attack shapes, prime and GF(2^k); column lists in any order,
    # including the sorted twelve cells the attacks rank
    rng = random.Random(5)
    for q in (13, 16, 31, 32):
        s = spec_for_order(q)
        for m, b, n in ((4, 2, 9), (3, 3, 8)):
            code = TensorCode(Topology(m, n, 1, b), random_nonzero_row(s, m, rng),
                              random_mds_rows(s, b, n, rng))
            full = build_pseudo_parity(code)
            picks = [rng.sample(range(m * n), rng.randrange(1, 13)) for _ in range(8)]
            picks.append(sorted(rng.sample(range(m * n), 12)))
            for cols in picks:
                assert pseudo_parity_columns(code, cols) == full.restrict_columns(cols)
            with pytest.raises(ValueError):
                pseudo_parity_columns(code, [0, m * n])


def test_pseudo_parity_annihilates_codewords():
    # the kernel has dimension (m-a)(n-b), and encoded words lie in it
    rng = random.Random(1)
    s = FieldSpec(11)
    code = simple_code(s, 3, 5, 2, [1, 2, 3, 4, 5])
    h = build_pseudo_parity(code)
    assert h.cols - rank(h) == (3 - 1) * (5 - 2)
    for _ in range(25):
        w = encode(code, [rng.randrange(11) for _ in range(6)])
        assert all(v == 0 for v in h.mul_vector([x for row in w.entries for x in row]))


def test_encode_examples():
    s = FieldSpec(2)
    code = TensorCode(Topology(2, 2, 1, 1), GFMatrix(s, [[1, 1]]), GFMatrix(s, [[1, 1]]))
    assert encode(code, [0]).entries == ((0, 0), (0, 0))
    assert encode(code, [1]).entries == ((1, 1), (1, 1))
    with pytest.raises(ValueError, match="^message length must be 1$"):
        encode(code, [1, 0])


def test_encode_satisfies_all_parities():
    rng = random.Random(2)
    for q, m, n, a, b in ((7, 3, 5, 1, 2), (16, 4, 6, 1, 2), (13, 3, 6, 2, 3), (8, 2, 4, 1, 1)):
        s = spec_for_order(q)
        h_col = random_mds_rows(s, a, m, rng) if a > 1 else random_nonzero_row(s, m, rng)
        h_row = random_mds_rows(s, b, n, rng)
        code = TensorCode(Topology(m, n, a, b), h_col, h_row)
        h = build_pseudo_parity(code)
        for _ in range(10):
            msg = [rng.randrange(q) for _ in range((m - a) * (n - b))]
            w = encode(code, msg)
            flat = [x for row in w.entries for x in row]
            assert all(v == 0 for v in h.mul_vector(flat))
            # systematic placement
            k = 0
            for i in range(m - a):
                for j in range(n - b):
                    assert w.entries[i][j] == msg[k]
                    k += 1


def test_encode_outside_an_information_set_raises_decode_errors():
    # C_row = {x : x0 + x1 = 0} leaves x2 free, so the first two columns are
    # not an information set: encode is decode of the parity cells and fails
    s = FieldSpec(7)
    code = TensorCode(Topology(2, 3, 1, 1), GFMatrix(s, [[1, 1]]), GFMatrix(s, [[1, 1, 0]]))
    with pytest.raises(Uncorrectable):
        encode(code, [1, 6])
    with pytest.raises(InconsistentWord):
        encode(code, [1, 1])
    # random codes: encode succeeds exactly when the parity cells are correctable
    rng = random.Random(11)
    outcomes = []
    while len(outcomes) < 60:
        s = spec_for_order(rng.choice((3, 4, 5)))
        m, n, a, b = rng.choice(((3, 4, 1, 2), (3, 4, 2, 1), (2, 5, 1, 3)))
        try:
            code = TensorCode(Topology(m, n, a, b),
                              GFMatrix(s, [[rng.randrange(s.order) for _ in range(m)]
                                           for _ in range(a)]),
                              GFMatrix(s, [[rng.randrange(s.order) for _ in range(n)]
                                           for _ in range(b)]))
        except ValueError:  # a parity matrix without full row rank
            continue
        parity = ErasurePattern.of((i, j) for i in range(m) for j in range(n)
                                   if i >= m - a or j >= n - b)
        msg = [rng.randrange(s.order) for _ in range((m - a) * (n - b))]
        try:
            encode(code, msg)
            encoded = True
        except (Uncorrectable, InconsistentWord):
            encoded = False
        assert encoded == is_correctable_by(code, parity, method="direct")
        outcomes.append(encoded)
    assert 0 < sum(outcomes) < len(outcomes)


def test_decode_no_erasures_verbatim_and_inconsistent():
    s = FieldSpec(7)
    code = simple_code(s, 3, 4, 1, [1, 2, 3, 4])
    w = encode(code, [1, 2, 3, 4, 5, 6])
    assert decode(code, w) == w.entries
    bad = [list(r) for r in w.entries]
    bad[0][0] = s.add(bad[0][0], 1)
    with pytest.raises(InconsistentWord):
        decode(code, GridWord.of(bad))


def test_decode_single_cell_column_parity():
    s = FieldSpec(13)
    code = simple_code(s, 4, 5, 2, [1, 2, 3, 4, 5])
    rng = random.Random(3)
    msg = [rng.randrange(13) for _ in range(9)]
    w = encode(code, msg)
    erased = GridWord.of(w.entries, [(2, 3)])
    got = decode(code, erased)
    column_rest = sum(w.entries[i][3] for i in range(4) if i != 2)
    assert got[2][3] == s.neg(column_rest % 13)
    assert got == w.entries


def test_decode_uncorrectable_and_inconsistent_priority():
    s = FieldSpec(7)
    code = simple_code(s, 4, 6, 2, [1, 2, 3, 4, 5, 6])
    w = encode(code, [0] * 12)
    # a fully erased 2x3 box is not regular, hence not correctable
    box = ErasurePattern.of((i, j) for i in range(2) for j in range(3))
    with pytest.raises(Uncorrectable):
        decode(code, GridWord.of(w.entries, box.cells))
    # corrupt a known symbol: inconsistency reported even though the pattern is bad
    bad = [list(r) for r in GridWord.of(w.entries, box.cells).entries]
    bad[3][5] = 1
    with pytest.raises(InconsistentWord):
        decode(code, GridWord.of(bad))


def test_decode_roundtrip_random_regular():
    rng = random.Random(4)
    s = spec_for_order(16)
    code = simple_code(s, 4, 7, 2, [1, 2, 3, 4, 5, 6, 7])
    topo = code.topology
    for _ in range(40):
        msg = [rng.randrange(16) for _ in range(3 * 5)]
        w = encode(code, msg)
        while True:
            cells = {(rng.randrange(4), rng.randrange(7))
                     for _ in range(rng.randrange(1, 8))}
            e = ErasurePattern.of(cells)
            if is_regular(topo, e) and is_correctable_by(code, e):
                break
        assert decode(code, GridWord.of(w.entries, e.cells)) == w.entries


def test_is_correctable_examples():
    s = FieldSpec(11)
    code = simple_code(s, 3, 5, 2, [1, 2, 3, 4, 5])
    assert is_correctable_by(code, ErasurePattern.of([]))
    one_col = ErasurePattern.of((i, 2) for i in range(3))
    assert is_correctable_by(code, one_col)
    # collision columns over GF(7): Type II on (1, w^t) columns is not correctable
    s7 = FieldSpec(7)
    bad = simple_code(s7, 4, 6, 2, [pow(3, t, 7) for t in range(6)])
    pattern = mask_pattern(TYPE_II_MASK)
    assert not is_correctable_by(bad, pattern)
    assert not is_correctable_by(bad, pattern, method="direct")


def test_is_correctable_by_rejects_unknown_method():
    code = simple_code(FieldSpec(11), 3, 5, 2, [1, 2, 3, 4, 5])
    one_col = ErasurePattern.of((i, 2) for i in range(3))
    for method in ("auto", "Direct", "nonsense", "", None):
        with pytest.raises(ValueError, match="unknown method"):
            is_correctable_by(code, one_col, method=method)


def test_cells_outside_the_grid_are_rejected():
    code = simple_code(FieldSpec(11), 3, 5, 2, [1, 2, 3, 4, 5])
    # (0, 5) has the in-range index 5, which belongs to the cell (1, 0)
    for cells in ([(0, 5)], [(3, 0)], [(0, 0), (2, 4), (0, 5)], [(7, 9)]):
        e = ErasurePattern.of(cells)
        with pytest.raises(ValueError, match="grid bounds"):
            restricted_rank(code, e)
        with pytest.raises(ValueError, match="grid bounds"):
            is_correctable_by(code, e)


def test_is_correctable_by_matches_the_whole_matrix_and_the_reduced_block():
    rng = random.Random(5)
    s = spec_for_order(16)
    code = simple_code(s, 4, 6, 2, [1, 2, 3, 5, 9, 11])
    h = build_pseudo_parity(code)
    irreducible = 0
    for _ in range(150):
        cells = {(rng.randrange(4), rng.randrange(6))
                 for _ in range(rng.randrange(0, 14))}
        e = ErasurePattern.of(cells)
        verdict = is_correctable_by(code, e)
        whole = rank(h.restrict_columns([i * 6 + j for i, j in sorted(e.cells)]))
        assert verdict == (whole == len(e.cells))
        if e.cells and is_irreducible(code.topology, e):
            irreducible += 1
            reduced = len(e.cols_used) + rank(reduce_restricted(code, e))
            assert verdict == (reduced == len(e.cells))
    assert irreducible > 0


def test_reduce_restricted_type1_rank_condition():
    s = FieldSpec(13)
    rng = random.Random(6)
    pattern = mask_pattern(TYPE_I_MASK)
    for _ in range(60):
        a = [rng.randrange(13) for _ in range(6)]
        try:
            code = simple_code(s, 4, 6, 2, a)
        except ValueError:
            continue
        b_block = reduce_restricted(code, pattern)
        cond = (s.sub(a[1], a[0]) * s.sub(a[3], a[2]) * s.sub(a[5], a[4])) % 13
        assert (rank(b_block) == 6) == (cond != 0)


def test_reduce_restricted_type2_rank_condition():
    s = FieldSpec(13)
    rng = random.Random(7)
    pattern = mask_pattern(TYPE_II_MASK)
    hits = 0
    for _ in range(200):
        a = rng.sample(range(13), 6)
        code = simple_code(s, 4, 6, 2, a)
        b_block = reduce_restricted(code, pattern)
        f = (s.sub(a[0], a[3]) * s.sub(a[1], a[5]) * s.sub(a[2], a[4])
             - s.sub(a[1], a[3]) * s.sub(a[0], a[4]) * s.sub(a[2], a[5])) % 13
        assert (rank(b_block) == 6) == (f != 0)
        hits += f == 0
    assert hits > 0  # the zero branch was exercised


def test_reduce_restricted_e0_block_shape():
    s = FieldSpec(11)
    code = simple_code(s, 3, 6, 3, [1, 2, 3, 4, 5, 6])
    pattern = mask_pattern(E0_MASK)
    b_block = reduce_restricted(code, pattern)
    assert (b_block.rows, b_block.cols) == (6, 6)


def test_reduce_restricted_matches_direct_rank():
    rng = random.Random(8)
    checked = 0
    while checked < 150:
        m, n, b = rng.choice([(3, 6, 2), (4, 6, 2), (4, 7, 2), (3, 7, 3)])
        q = rng.choice([7, 11, 16])
        s = spec_for_order(q)
        try:
            h_col = random_nonzero_row(s, m, rng)
            h_row = GFMatrix(s, [[rng.randrange(q) for _ in range(n)] for _ in range(b)])
            code = TensorCode(Topology(m, n, 1, b), h_col, h_row)
        except ValueError:
            continue
        cells = set()
        for j in rng.sample(range(n), rng.randrange(4, n + 1)):
            for i in rng.sample(range(m), 2):
                cells.add((i, j))
        e = ErasurePattern.of(cells)
        if not is_irreducible(code.topology, e):
            continue
        h = build_pseudo_parity(code)
        direct = rank(h.restrict_columns([i * n + j for i, j in sorted(e.cells)]))
        assert direct == len(e.cols_used) + rank(reduce_restricted(code, e))
        checked += 1


def test_reduce_restricted_requires_irreducible():
    s = FieldSpec(7)
    code = simple_code(s, 4, 6, 2, [1, 2, 3, 4, 5, 6])
    with pytest.raises(NotIrreducible):
        reduce_restricted(code, ErasurePattern.of([(0, 0)]))


def test_reduce_restricted_requires_nonzero_column_coefficients():
    # the block leaves the coefficients out, which is exact only when none is zero
    s = FieldSpec(7)
    h_row = GFMatrix(s, [[1] * 6, [1, 2, 3, 4, 5, 6]])
    for alphas in ([1, 1, 1, 0], [0, 1, 1, 1]):
        code = TensorCode(Topology(4, 6, 1, 2), GFMatrix(s, [alphas]), h_row)
        with pytest.raises(ValueError, match="nonzero column-parity"):
            reduce_restricted(code, mask_pattern(TYPE_II_MASK))
    # rows the pattern leaves out may carry a zero
    code = TensorCode(Topology(5, 6, 1, 2), GFMatrix(s, [[2, 1, 3, 1, 0]]), h_row)
    e = mask_pattern(TYPE_II_MASK)
    direct = rank(build_pseudo_parity(code).restrict_columns(
        [i * 6 + j for i, j in sorted(e.cells)]))
    assert direct == 6 + rank(reduce_restricted(code, e))


def test_codeword_rows_and_columns_in_component_codes():
    rng = random.Random(9)
    s = FieldSpec(11)
    h_col = random_mds_rows(s, 2, 4, rng)
    h_row = random_mds_rows(s, 2, 5, rng)
    code = TensorCode(Topology(4, 5, 2, 2), h_col, h_row)
    for _ in range(10):
        msg = [rng.randrange(11) for _ in range(2 * 3)]
        w = encode(code, msg)
        for i in range(4):
            assert all(v == 0 for v in h_row.mul_vector(list(w.entries[i])))
        for j in range(5):
            col = [w.entries[i][j] for i in range(4)]
            assert all(v == 0 for v in h_col.mul_vector(col))


def test_code_and_word_json_roundtrip():
    s = FieldSpec(2, 4)
    code = simple_code(s, 4, 6, 2, [1, 2, 3, 4, 5, 6])
    assert TensorCode.from_dict(code.to_dict()) == code
    w = encode(code, [1] * 12)
    we = GridWord.of(w.entries, [(0, 0), (1, 1)])
    d = we.to_dict()
    assert d["entries"][0][0] is None
    assert GridWord.from_dict(d) == we


def test_decode_validates_shape_and_symbols():
    s = FieldSpec(7)
    code = simple_code(s, 3, 4, 1, [1, 2, 3, 4])
    with pytest.raises(ValueError, match="^word shape differs from the topology grid$"):
        decode(code, GridWord.of([[0] * 4] * 2))
    bad = GridWord.of([[9, 0, 0, 0], [0] * 4, [0] * 4])
    with pytest.raises(ValueError):
        decode(code, bad)


def test_erase_bounds_check():
    s = FieldSpec(7)
    code = simple_code(s, 3, 4, 1, [1, 2, 3, 4])
    w = encode(code, [0] * 6)
    with pytest.raises(ValueError, match="out of bounds"):
        GridWord.of(w.entries, [(5, 0)])
    # a null outside an explicit erased list would decode as the symbol 0
    with pytest.raises(ValueError, match=r"^cell \(0, 1\) is null but not erased$"):
        GridWord.of([[0, None, 0, 0], [0] * 4, [0] * 4], [(0, 0)])
