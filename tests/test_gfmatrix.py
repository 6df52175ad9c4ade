import random
from itertools import combinations, product

import pytest

from mrgrid import (FieldSpec, GFMatrix, every_w_columns_independent, rank,
                    reduce_restricted, solve_unique)
from mrgrid.errors import Inconsistent, RankDeficient, ResourceGuard
from mrgrid.gfmatrix import row_inserter
from mrgrid.mr import TYPE_II_MASK
from _support import (brute_echelon, f_t4, leibniz_determinant, mask_pattern, simple_code,
                      spec_for_order)

ORACLE_ORDERS = (2, 3, 7, 8, 16, 257, 1024, 1048573)


def identity(spec, n):
    return GFMatrix(spec, [[int(i == j) for j in range(n)] for i in range(n)])


def test_rank_examples():
    s = FieldSpec(5)
    assert rank(identity(s, 4)) == 4
    s2 = FieldSpec(2)
    assert rank(GFMatrix(s2, [[1, 1], [1, 1]])) == 1
    assert rank(GFMatrix(s, [[0] * 5] * 3)) == 0


def test_simplified_type2_block_rank_six():
    # the reduced Type II block of a Vandermonde row code has full rank 6
    # exactly when the rank polynomial f_t4 of its column values is nonzero
    s = FieldSpec(13)
    pattern = mask_pattern(TYPE_II_MASK)
    a = [1, 2, 3, 4, 5, 7]
    assert f_t4(s, a) != 0
    assert rank(reduce_restricted(simple_code(s, 4, 6, 2, a), pattern)) == 6
    # an arithmetic progression zeroes f_t4, and the block drops rank
    a = [0, 1, 2, 3, 4, 5]
    assert f_t4(s, a) == 0
    assert rank(reduce_restricted(simple_code(s, 4, 6, 2, a), pattern)) < 6


def test_solve_examples():
    s = FieldSpec(7)
    ident = identity(s, 3)
    assert solve_unique(ident, [2, 0, 5]) == [2, 0, 5]
    s2 = FieldSpec(2)
    with pytest.raises(Inconsistent):
        solve_unique(GFMatrix(s2, [[1], [1]]), [1, 0])
    vand = GFMatrix(s, [[1, 1], [1, 3]])
    assert solve_unique(vand, [0, 0]) == [0, 0]
    with pytest.raises(RankDeficient):
        solve_unique(GFMatrix(s, [[1, 1], [2, 2]]), [1, 2])


def test_solve_roundtrip_random():
    rng = random.Random(0)
    for q in (2, 3, 7, 16):
        s = spec_for_order(q)
        for _ in range(30):
            rows, cols = rng.randrange(2, 7), rng.randrange(1, 5)
            if cols > rows:
                rows = cols
            m = GFMatrix(s, [[rng.randrange(q) for _ in range(cols)] for _ in range(rows)])
            if rank(m) < cols:
                continue
            x = [rng.randrange(q) for _ in range(cols)]
            rhs = m.mul_vector(x)
            assert solve_unique(m, rhs) == x


def test_every_w_columns_examples():
    s = FieldSpec(11)
    two_rows = GFMatrix(s, [[1] * 5, [1, 2, 3, 4, 5]])
    assert every_w_columns_independent(two_rows, 2)
    repeated = GFMatrix(s, [[1, 1, 1], [2, 2, 3]])
    assert not every_w_columns_independent(repeated, 2)
    vand3 = GFMatrix(s, [[1] * 5, [1, 2, 3, 4, 5], [1, 4, 9, 5, 3]])
    # 3x3 Vandermonde determinant oracle: product of pairwise differences
    for subset in combinations(range(5), 3):
        sub = vand3.restrict_columns(subset)
        prod = 1
        nodes = [1, 2, 3, 4, 5]
        for i, j in combinations(subset, 2):
            prod = s.mul(prod, s.sub(nodes[j], nodes[i]))
        assert (rank(sub) == 3) == (prod != 0)
    assert every_w_columns_independent(vand3, 3)


def test_every_w_matches_bruteforce():
    rng = random.Random(1)
    for q in (2, 3, 7):
        s = FieldSpec(q)
        for _ in range(25):
            rows = rng.randrange(1, 4)
            cols = rng.randrange(rows, 9)
            m = GFMatrix(s, [[rng.randrange(q) for _ in range(cols)] for _ in range(rows)])
            for w in range(1, rows + 1):
                brute = all(rank(m.restrict_columns(c)) == w
                            for c in combinations(range(cols), w))
                assert every_w_columns_independent(m, w) == brute


def test_every_w_resource_guard():
    s = FieldSpec(2)
    wide = GFMatrix(s, [[0] * 65] * 2)
    with pytest.raises(ResourceGuard):
        every_w_columns_independent(wide, 2)


def test_rank_equals_transpose_rank():
    rng = random.Random(3)
    for q in (2, 3, 4, 7, 16):
        s = spec_for_order(q)
        for _ in range(12):
            rows, cols = rng.randrange(1, 31), rng.randrange(1, 31)
            m = GFMatrix(s, [[rng.randrange(q) for _ in range(cols)] for _ in range(rows)])
            assert rank(m) == rank(GFMatrix(s, list(zip(*m.data))))


def test_matrix_json_roundtrip():
    s = FieldSpec(2, 4)
    m = GFMatrix(s, [[1, 2, 3], [4, 5, 6]])
    assert GFMatrix.from_dict(m.to_dict()) == m


def test_ragged_rows_are_rejected():
    with pytest.raises(ValueError, match="ragged rows"):
        GFMatrix(FieldSpec(7), [[1, 2], [3]])


def _sparse_entry(spec, rng):
    return 0 if rng.random() < 0.3 else rng.randrange(spec.order)


def _rank_deficient(spec, rng, nrows, ncols):
    """A random product of nrows x r and r x ncols factors (rank <= r), with a
    row and a column zeroed now and then."""
    r = rng.randrange(min(nrows, ncols) + 1)
    left = [[_sparse_entry(spec, rng) for _ in range(r)] for _ in range(nrows)]
    right = [[_sparse_entry(spec, rng) for _ in range(ncols)] for _ in range(r)]
    rows = [[0] * ncols for _ in range(nrows)]
    for i, j, k in product(range(nrows), range(ncols), range(r)):
        rows[i][j] = spec.add(rows[i][j], spec.mul(left[i][k], right[k][j]))
    if nrows and rng.random() < 0.5:
        rows[rng.randrange(nrows)] = [0] * ncols
    if ncols and rng.random() < 0.5:
        j = rng.randrange(ncols)
        for row in rows:
            row[j] = 0
    return rows


def _full_random(spec, rng, nrows, ncols):
    return [[_sparse_entry(spec, rng) for _ in range(ncols)] for _ in range(nrows)]


def _inserted(spec, rows):
    """The basis row_inserter builds from rows, and what each insert returned."""
    insert, basis = row_inserter(spec), []
    return basis, [insert(basis, row) for row in rows]


@pytest.mark.parametrize("q", ORACLE_ORDERS)
def test_echelon_matches_entrywise_oracle(q):
    """The basis has the pivots of the Gauss-Jordan reference and the same
    row space (the same reduced row echelon form), and rank counts its rows,
    on rank-deficient matrices with zero rows and columns."""
    spec = spec_for_order(q)
    rng = random.Random(q)
    for trial in range(96):
        nrows, ncols = rng.randrange(1, 10), rng.randrange(1, 12)
        make = _rank_deficient if trial % 3 else _full_random
        rows = make(spec, rng, nrows, ncols)
        basis, _ = _inserted(spec, rows)
        reduced = [list(r) for r in rows]
        pivots = brute_echelon(reduced, spec, ncols)
        assert sorted(c for c, _, _ in basis) == pivots
        assert rank(GFMatrix(spec, rows)) == len(pivots)
        basis_rows = [list(row) for _, row, _ in basis]
        assert brute_echelon(basis_rows, spec, ncols) == pivots
        assert basis_rows == reduced[:len(pivots)]
        assert not any(map(any, reduced[len(pivots):]))


@pytest.mark.parametrize("q", ORACLE_ORDERS)
def test_rank_only_echelon_matches_the_reduced_rank(q):
    """Each insert keeps a row exactly when it raises the reduced rank of
    the rows so far, on matrices with zero rows and repeated rows."""
    spec = spec_for_order(q)
    rng = random.Random(1000 + q)
    for trial in range(96):
        nrows, ncols = rng.randrange(1, 10), rng.randrange(1, 12)
        make = _rank_deficient if trial % 2 else _full_random
        rows = make(spec, rng, nrows, ncols)
        for _ in range(rng.randrange(3)):
            rows.insert(rng.randrange(len(rows) + 1), [0] * ncols)
        for _ in range(rng.randrange(3)):
            rows.insert(rng.randrange(len(rows) + 1), list(rng.choice(rows)))
        _, kept = _inserted(spec, rows)
        ranks = [len(brute_echelon([list(r) for r in rows[:i]], spec, ncols))
                 for i in range(len(rows) + 1)]
        assert kept == [b > a for a, b in zip(ranks, ranks[1:])]


@pytest.mark.parametrize("q", ORACLE_ORDERS)
def test_rank_of_tall_matrices_matches_the_reduced_rank(q):
    """rank stops inserting rows once its basis holds one per column; on
    matrices with more rows than columns it still equals the reduced rank,
    whether they have full column rank, reach it before their last rows, or
    are rank-deficient."""
    spec = spec_for_order(q)
    rng = random.Random(5000 + q)
    seen = set()
    for trial in range(96):
        ncols = rng.randrange(1, 9)
        nrows = ncols + rng.randrange(1, 14)
        if trial % 3 == 2:
            # the last column is zero above the last row
            rows = [r + [0] for r in _full_random(spec, rng, nrows - 1, ncols - 1)]
            rows.append(_full_random(spec, rng, 1, ncols - 1)[0] + [rng.randrange(1, q)])
        else:
            make = _rank_deficient if trial % 3 else _full_random
            rows = make(spec, rng, nrows, ncols)
        expected = len(brute_echelon([list(r) for r in rows], spec, ncols))
        assert rank(GFMatrix(spec, rows)) == expected
        early = len(brute_echelon([list(r) for r in rows[:-1]], spec, ncols)) == ncols
        seen.add("early" if early else "full" if expected == ncols else "deficient")
    assert seen == {"early", "full", "deficient"}


@pytest.mark.parametrize("q", ORACLE_ORDERS)
def test_basis_rows_are_zero_before_their_pivot_and_at_earlier_pivots(q):
    """The invariant that lets one pass in insertion order clear a new row
    and back-substitution run in reverse insertion order."""
    spec = spec_for_order(q)
    rng = random.Random(3000 + q)
    for trial in range(64):
        nrows, ncols = rng.randrange(1, 10), rng.randrange(1, 12)
        make = _rank_deficient if trial % 2 else _full_random
        basis, _ = _inserted(spec, make(spec, rng, nrows, ncols))
        for i, (c, row, _) in enumerate(basis):
            assert row[c] and not any(row[:c])
            assert not any(row[d] for d, _, _ in basis[:i])


def _outcome(solve, m, rhs):
    """solve(m, rhs) as ("ok", x) or (exception class, message)."""
    try:
        return "ok", solve(m, rhs)
    except (Inconsistent, RankDeficient) as exc:
        return type(exc), str(exc)


def _reduced_solve(m, rhs):
    """solve_unique read off the entry-by-entry reduced row echelon form."""
    n = m.cols
    rows = [list(r) + [v] for r, v in zip(m.data, rhs)]
    pivots = brute_echelon(rows, m.spec, n)
    if any(r[n] for r in rows[len(pivots):]):
        raise Inconsistent("no solution: contradictory equations")
    if len(pivots) < n:
        raise RankDeficient(f"column rank {len(pivots)} < {n}")
    return [r[n] for r in rows[:n]]


@pytest.mark.parametrize("q", ORACLE_ORDERS)
def test_solve_unique_matches_the_reduced_oracle(q):
    """Back-substitution after the rank-only step gives the solution, the
    exception class and the message that the normalised elimination gives,
    on tall, rank-deficient and inconsistent systems; each kind occurs."""
    spec = spec_for_order(q)
    rng = random.Random(2000 + q)
    seen = set()
    for trial in range(120):
        ncols = rng.randrange(0, 7)
        nrows = ncols + rng.randrange(0, 4) if trial % 5 else rng.randrange(0, 8)
        make = _rank_deficient if trial % 2 else _full_random
        m = GFMatrix(spec, make(spec, rng, nrows, ncols))
        x = [rng.randrange(q) for _ in range(m.cols)]
        rhs = m.mul_vector(x)
        if nrows and trial % 3 == 0:
            i = rng.randrange(nrows)
            rhs[i] = spec.add(rhs[i], rng.randrange(1, q))
        got = _outcome(solve_unique, m, rhs)
        assert got == _outcome(_reduced_solve, m, rhs), (m.data, rhs)
        seen.add((got[0], nrows > ncols))
        if got[0] == "ok" and trial % 3:
            assert got[1] == x
    assert {("ok", True), ("ok", False), (RankDeficient, True),
            (RankDeficient, False), (Inconsistent, True)} <= seen


@pytest.mark.parametrize("q", ORACLE_ORDERS)
def test_determinant_matches_leibniz(q):
    """A square matrix has full rank exactly when its Leibniz determinant is
    nonzero; then solve_unique recovers any x from m.x."""
    spec = spec_for_order(q)
    rng = random.Random(q)
    for trial in range(30):
        n = trial % 6
        make = _rank_deficient if trial % 2 else _full_random
        rows = make(spec, rng, n, n)
        m = GFMatrix(spec, rows)
        nonsingular = leibniz_determinant(spec, rows) != 0
        assert (rank(m) == n) == nonsingular
        if nonsingular:
            x = [rng.randrange(q) for _ in range(n)]
            assert solve_unique(m, m.mul_vector(x)) == x


def _validate_message(spec, x):
    with pytest.raises(ValueError) as exc:
        spec.validate(x)
    return str(exc.value)


@pytest.mark.parametrize("q", (7, 8))
def test_constructor_rejects_what_validate_rejects(q):
    spec = spec_for_order(q)
    bad = (-1, q, 1.5, "1", None)
    for x in bad:
        for rows in ([[x]], [[0, 1], [2, x]], [[x, 1], [2, 3]], [[1, 2, x]]):
            with pytest.raises(ValueError) as exc:
                GFMatrix(spec, rows)
            assert str(exc.value) == _validate_message(spec, x)
    # the first bad entry in row-major order names the error
    for rows, first in (([[1, "1"], [-1, 2]], "1"), ([[0, 1], [None, q]], None),
                        ([[1.5, -1]], 1.5), ([[0, 1, 2], [q, 3], ["1"]], q)):
        with pytest.raises(ValueError) as exc:
            GFMatrix(spec, rows)
        assert str(exc.value) == _validate_message(spec, first)
    # a bool is not a field element, though it equals one
    with pytest.raises(ValueError) as exc:
        GFMatrix(spec, [[True, 0], [False, q - 1]])
    assert str(exc.value) == _validate_message(spec, True) == f"True is not an element of {spec}"
    assert GFMatrix(spec, []).rows == 0 and GFMatrix(spec, [[], []]).cols == 0
    assert GFMatrix(spec, (iter(r) for r in [[1, 2], [3, 4]])).data == ((1, 2), (3, 4))
    with pytest.raises(ValueError, match="ragged rows"):
        GFMatrix(spec, [[1, 2], [3]])
