import random
import sys
from collections import Counter
from itertools import combinations, combinations_with_replacement
from math import comb, factorial, prod

import pytest

from mrgrid import (ErasurePattern, PatternType, Topology, enumerate_types, is_irreducible,
                    is_regular, patterns)
from mrgrid.bounds import comb_le
from mrgrid.errors import ResourceGuard
from mrgrid.mr import E0_MASK, TYPE_II_MASK
from mrgrid.patterns import row_class_count, row_class_masks, type_orbit_masks
from _support import (TYPE_I_MASK, EmptyPattern, brute_enumerate_types, brute_orbit_masks,
                      brute_row_class_masks, canonical_type, instantiate_type, mask_pattern,
                      unpack_mask)


E1 = mask_pattern(TYPE_I_MASK)
E2 = mask_pattern(TYPE_II_MASK)
E0 = mask_pattern(E0_MASK)
T46 = Topology(4, 6, 1, 2)
T36 = Topology(3, 6, 1, 3)


def test_irreducibility_examples():
    assert is_irreducible(T46, E1)
    assert is_irreducible(T46, E2)
    single = ErasurePattern.of([(1, 2)])
    assert not is_irreducible(Topology(4, 6, 1, 2), single)
    assert is_irreducible(T46, ErasurePattern.of([]))
    # a row holding exactly b erasures is below the b+1 threshold
    row_b = ErasurePattern.of([(0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1)])
    assert not is_irreducible(T46, row_b)


def test_regularity_examples():
    assert is_regular(T46, E1, "fast") and is_regular(T46, E1, "brute")
    assert is_regular(T46, E2, "fast")
    full = ErasurePattern.of((i, j) for i in range(2) for j in range(3))
    assert not is_regular(T46, full, "fast")
    assert not is_regular(T46, full, "brute")
    assert is_regular(T36, E0, "fast") and is_regular(T36, E0, "brute")


def test_regular_empty_and_small():
    assert is_regular(T46, ErasurePattern.of([]))
    assert is_regular(T46, ErasurePattern.of([(0, 0)]))


def test_canonical_type_examples():
    single = canonical_type(ErasurePattern.of([(3, 4)]))
    assert (single.u, single.v, single.mask) == (1, 1, ((1,),))
    with pytest.raises(EmptyPattern):
        canonical_type(ErasurePattern.of([]))
    assert canonical_type(E1) != canonical_type(E2)


def test_canonical_type_permutation_invariant():
    rng = random.Random(0)
    for _ in range(60):
        m, n = rng.randrange(1, 5), rng.randrange(1, 7)
        cells = {(rng.randrange(m), rng.randrange(n))
                 for _ in range(rng.randrange(1, 10))}
        e = ErasurePattern.of(cells)
        base = canonical_type(e)
        rp = list(range(m))
        cp = list(range(n))
        rng.shuffle(rp)
        rng.shuffle(cp)
        permuted = ErasurePattern.of((rp[i], cp[j]) for i, j in cells)
        assert canonical_type(permuted) == base
        # idempotence: canonicalizing the canonical mask is a fixed point
        again = canonical_type(mask_pattern(base.mask))
        assert again == base


def test_enumerate_types_known_answers():
    t42 = enumerate_types(4, 2)
    assert len(t42) == 2
    assert canonical_type(E1) in t42 and canonical_type(E2) in t42
    t33 = enumerate_types(3, 3)
    assert t33 == [canonical_type(E0)]
    assert enumerate_types(2, 2) == []
    for m in range(1, 5):
        assert enumerate_types(m, 1) == []


def test_enumerate_types_against_exhaustive_oracle():
    # oracle: enumerate all column multisets (any column with >= 2 cells can
    # appear; irreducibility forbids lighter columns outright), keep the
    # irreducible + brute-regular ones, canonicalize
    for (m, b) in ((4, 2), (3, 3), (2, 2), (3, 1), (4, 1)):
        expected = set()
        vmax = b * (m - 1)
        for u in range(2, m + 1):
            col_types = [frozenset(s) for r in range(2, u + 1)
                         for s in combinations(range(u), r)]
            for v in range(1, vmax + 1):
                for cols in combinations_with_replacement(range(len(col_types)), v):
                    used = set()
                    for c in cols:
                        used.update(col_types[c])
                    if len(used) != u:
                        continue
                    e = ErasurePattern.of((i, j) for j, c in enumerate(cols)
                                          for i in col_types[c])
                    topo = Topology(u, v, 1, b) if b <= v - 1 else None
                    if topo is None:
                        continue
                    if not is_irreducible(topo, e):
                        continue
                    if not is_regular(topo, e, "brute"):
                        continue
                    pt = canonical_type(e)
                    expected.add((pt.u, pt.v, pt.mask))
        got = {(pt.u, pt.v, pt.mask) for pt in enumerate_types(m, b)}
        assert got == expected, (m, b)


@pytest.mark.parametrize("m,b", [(4, 2), (3, 3), (4, 3), (3, 4), (5, 2), (2, 2),
                                 (3, 1), (4, 1), (5, 1)])
def test_pruned_type_search_matches_the_unpruned_search(m, b):
    # the row-count bound and the non-increasing row-count leaves keep every type
    assert enumerate_types(m, b) == brute_enumerate_types(m, b)


def test_enumerated_type_invariants():
    # every type is irreducible and regular, so every embedding certify_mr
    # places is too: row and column counts of a mask do not change when its
    # rows and columns are placed on grid rows and columns
    for (m, b) in ((4, 2), (3, 3), (4, 3), (3, 4), (5, 2)):
        types = enumerate_types(m, b)
        assert types
        assert len(types) <= comb_le(m * b * (m - 1), 2 * b * (m - 1))
        for pt in types:
            w = sum(map(sum, pt.mask))
            assert pt.u + b <= pt.v <= b * pt.u - b
            assert 2 * (pt.u + b) <= w <= 2 * b * (pt.u - 1)
            assert (b + 1) * pt.u <= w
            e = mask_pattern(pt.mask)
            topo = Topology(pt.u, pt.v, 1, b)
            assert is_irreducible(topo, e)
            assert is_regular(topo, e, "fast") and is_regular(topo, e, "brute")


def test_enumerate_types_resource_guard(monkeypatch):
    monkeypatch.setattr(patterns, "ENUMERATION_GUARD", 10)
    with pytest.raises(ResourceGuard):
        enumerate_types(5, 3)


def _grow_calls(u, b, max_v=None):
    """Calls of the unpruned column search for u-row types with at most max_v
    columns: enumerate_types' grow, with its weight cap b(u - 1) + v but no
    row-count bound, run without emitting types."""
    vmin, vmax = u + b, b * (u - 1)
    if max_v is not None:
        vmax = min(vmax, max_v)
    weights = [r for r in range(2, u + 1) for _ in combinations(range(u), r)]
    calls = 0
    for v in range(vmin, vmax + 1):
        cap = b * (u - 1) + v  # enumerate_types' weight cap

        def grow(start, weight, remaining):
            nonlocal calls
            calls += 1
            if remaining == 0 or weight + 2 * remaining > cap:
                return
            for c in range(start, len(weights)):
                if weight + weights[c] + 2 * (remaining - 1) <= cap:
                    grow(c, weight + weights[c], remaining - 1)
        grow(0, 0, v)
    return calls


@pytest.mark.parametrize("u,b", [(2, 2), (3, 3), (4, 2), (3, 4), (4, 3), (3, 5), (5, 2)])
def test_search_node_count_matches_the_recursion(u, b):
    assert patterns._search_nodes(u, b) == _grow_calls(u, b)
    # bounded widths count only the widths searched: nothing below u + b,
    # everything from b(u - 1) on
    counts = [patterns._search_nodes(u, b, max_v) for max_v in range(b * (u - 1) + 2)]
    assert counts == [_grow_calls(u, b, max_v) for max_v in range(b * (u - 1) + 2)]
    assert counts[:u + b] == [0] * (u + b) and counts[-1] == counts[-2] == _grow_calls(u, b)
    assert counts == sorted(counts)


def _enumeration_grow_calls(m, b, max_v):
    """The calls of enumerate_types' own grow, counted by a profile hook."""
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        code = frame.f_code
        calls += (event == "call" and code.co_name == "grow"
                  and code.co_filename == patterns.__file__)

    sys.setprofile(count)
    try:
        enumerate_types(m, b, max_v)
    finally:
        sys.setprofile(None)
    return calls


@pytest.mark.parametrize("m,b,max_v", [(4, 2, None), (3, 3, None), (3, 4, 9), (4, 3, 7),
                                       (4, 3, 8), (5, 2, 7)])
def test_search_node_count_bounds_the_pruned_search(m, b, max_v):
    # the guard's count stays an upper bound on the nodes grow visits
    nodes = sum(patterns._search_nodes(u, b, max_v) for u in range(1, m + 1))
    assert 0 < _enumeration_grow_calls(m, b, max_v) <= nodes


@pytest.mark.parametrize("m,b", [(4, 2), (3, 3), (4, 3), (3, 4), (5, 2)])
def test_width_bounded_enumeration_is_the_filtered_enumeration(m, b):
    types = enumerate_types(m, b)
    for max_v in range(b * (m - 1) + 2):
        assert enumerate_types(m, b, max_v) == [pt for pt in types if pt.v <= max_v], max_v


def test_enumerate_types_guard_fails_fast(monkeypatch):
    # the guard counts only the widths searched: up to 7 columns the unpruned
    # search of (6, 2) visits 100,452 nodes, and no 6-row type fits
    assert sum(patterns._search_nodes(u, 2, 7) for u in range(1, 7)) == 100452
    assert enumerate_types(6, 2, 7) == enumerate_types(5, 2, 7)
    # the unpruned search for (5, 2) visits 924 + 143286 nodes, which bounds
    # the pruned one; a guard one below that refuses it before searching, with
    # the count and the guard in the message
    assert patterns._search_nodes(4, 2) + patterns._search_nodes(5, 2) == 144210
    guard = patterns.ENUMERATION_GUARD
    # a search that reaches a leaf fails: with the guard at the count the
    # search starts and stops at its first leaf test
    monkeypatch.setattr(patterns, "_regular_columns", None)
    monkeypatch.setattr(patterns, "ENUMERATION_GUARD", 144210)
    with pytest.raises(TypeError, match="'NoneType' object is not callable"):
        enumerate_types(5, 2)
    monkeypatch.setattr(patterns, "ENUMERATION_GUARD", 144209)
    with pytest.raises(ResourceGuard, match="at least 144210 search nodes .* guard 144209"):
        enumerate_types(5, 2)
    # the unpruned search of (6, 2) would visit 32,381,548 nodes, over the
    # default guard
    monkeypatch.setattr(patterns, "ENUMERATION_GUARD", guard)
    with pytest.raises(ResourceGuard, match="at least 32381548 search nodes"):
        enumerate_types(6, 2)
    # a huge b is refused from the weight-2 lower bound, before any table
    with pytest.raises(ResourceGuard, match="types with up to 3 rows"):
        enumerate_types(3, 10 ** 9)


def test_enumerate_types_at_b1_counts_no_search(monkeypatch):
    # no u has a width u + 1 <= v <= u - 1, so neither loop over u runs
    calls = []
    monkeypatch.setattr(patterns, "_search_nodes", lambda *args: calls.append(args) or 0)
    assert enumerate_types(1000, 1) == []
    assert enumerate_types(1000, 1, 7) == []
    assert calls == []


def test_search_node_count_admits_eight_column_b3_searches():
    # T_{m x 8}(1, 3, 0) for any m: no type of six or more rows fits in eight
    # columns, and the counted search is under the guard (no search is run)
    nodes = sum(patterns._search_nodes(u, 3, 8) for u in range(1, 6))
    assert nodes == 3619073 < patterns.ENUMERATION_GUARD
    assert patterns._search_nodes(6, 3, 8) == 0


def test_instantiate_type_examples():
    one = canonical_type(ErasurePattern.of([(0, 0)]))
    cells = list(instantiate_type(one, 2, 2))
    assert len(cells) == 4
    assert {tuple(sorted(c.cells)) for c in cells} == {((0, 0),), ((0, 1),), ((1, 0),), ((1, 1),)}
    # E0 needs three grid rows
    assert list(instantiate_type(canonical_type(E0), 2, 6)) == []


def test_instantiate_e0_against_bruteforce_filter():
    pt = canonical_type(E0)
    got = {e.cells for e in instantiate_type(pt, 3, 6)}
    assert len(got) == len(type_orbit_masks(pt))
    topo = Topology(3, 6, 1, 3)
    expected = set()
    for cells in combinations([(i, j) for i in range(3) for j in range(6)], 12):
        e = ErasurePattern.of(cells)
        if not is_irreducible(topo, e):
            continue
        if not is_regular(topo, e, "fast"):
            continue
        if canonical_type(e) == pt:
            expected.add(e.cells)
    assert got == expected


def test_fast_equals_brute_small_exhaustive():
    # every pattern on a 3x4 grid with |E| <= 8, across topology parameters
    cells_all = [(i, j) for i in range(3) for j in range(4)]
    patterns = []
    for size in range(0, 9):
        patterns.extend(combinations(cells_all, size))
    for a, b in ((1, 1), (1, 2), (1, 3), (2, 1), (2, 2)):
        topo = Topology(3, 4, a, b)
        for cells in patterns:
            e = ErasurePattern.of(cells)
            assert is_regular(topo, e, "fast") == is_regular(topo, e, "brute")


def test_pattern_type_json_roundtrip():
    e = ErasurePattern.from_list(E1.to_list())
    assert e == E1


def test_topology_validation():
    with pytest.raises(ValueError):
        Topology(1, 4, 1, 1)
    with pytest.raises(ValueError):
        Topology(4, 4, 1, 4)
    with pytest.raises(ValueError):
        Topology(0, 4, 0, 1)


def test_canonical_type_guard_on_huge_supports():
    cells = [(i, 0) for i in range(13)] + [(i, 1) for i in range(13)]
    with pytest.raises(ResourceGuard, match=r"u!\*v = 12454041600 column sorts, guard 100000000"):
        canonical_type(ErasurePattern.of(cells))


def test_instantiate_count_matches_distinct_embeddings():
    pt = canonical_type(E1)
    seen = {e.cells for e in instantiate_type(pt, 4, 7)}
    assert len(seen) == comb(7, 6) * len(type_orbit_masks(pt)) == 1080 * 7


def test_orbit_masks_match_bruteforce_permutation_sweep():
    # every type whose u! * v! sweep stays small, across five shapes
    checked = 0
    for (m, b) in ((4, 2), (3, 3), (4, 3), (3, 4), (5, 2)):
        for pt in enumerate_types(m, b):
            if factorial(pt.u) * factorial(pt.v) > 250_000:
                continue
            orbit = brute_orbit_masks(pt)
            assert type_orbit_masks(pt) == orbit, pt
            classes = [unpack_mask(mask, pt.v) for mask in row_class_masks(pt)]
            assert classes == sorted({tuple(sorted(mask)) for mask in orbit}), pt
            checked += 1
    assert checked == 14


@pytest.mark.parametrize("m,b", [(4, 3), (5, 2)])
def test_row_class_masks_match_set_dedupe_over_arrangements(m, b):
    # every type up to eight columns, whatever its row-symmetry group: the
    # orderly walk keeps exactly one arrangement per class
    types = enumerate_types(m, b, 8)
    assert len(types) == {(4, 3): 16, (5, 2): 12}[(m, b)]
    for pt in types:
        classes = [unpack_mask(mask, pt.v) for mask in row_class_masks(pt)]
        assert classes == brute_row_class_masks(pt), pt


def test_mask_counts_match_the_mask_lists():
    # the class count behind the sweep's cap check, on every type of five
    # shapes up to eight columns; each orbit mask is a row order of one
    # class's mask, so the orbit holds the distinct row orders of the
    # classes' masks
    types = [pt for m, b in ((4, 2), (3, 3), (4, 3), (3, 4), (5, 2))
             for pt in enumerate_types(m, b, 8)]
    assert len(types) == 33
    for pt in types:
        classes = row_class_masks(pt)
        assert row_class_count(pt) == len(classes), pt
        if factorial(pt.u) * factorial(pt.v) <= 250_000:
            orders = sum(factorial(pt.u) // prod(map(factorial, Counter(mask).values()))
                         for mask in classes)
            assert len(type_orbit_masks(pt)) == orders, pt


def test_row_class_masks_examples_and_guard():
    # Type II has six distinct columns: 720 arrangements, 30 row classes;
    # Type I repeats two of its columns: 6!/(2!2!) = 180 arrangements, 45 classes
    two, one = canonical_type(E2), canonical_type(E1)
    assert (len(row_class_masks(two)), len(type_orbit_masks(two))) == (30, 720)
    assert (len(row_class_masks(one)), len(type_orbit_masks(one))) == (45, 1080)
    # four equal columns have one arrangement, hence one class
    block = canonical_type(ErasurePattern.of((i, j) for i in range(3) for j in range(4)))
    assert row_class_masks(block) == [(0b1111,) * 3]
    # rows are packed with column 0 the most significant bit: E0's least
    # class has the rows 001111, 110011 and 111100
    assert row_class_masks(canonical_type(E0))[0] == (0b001111, 0b110011, 0b111100)
    # the guard counts distinct arrangements, not u! * v!: eleven distinct
    # columns give 11! of them, checked before any is built
    cols = [tuple((k >> i) & 1 for i in range(4)) for k in range(1, 12)]
    wide = PatternType(4, 11, tuple(zip(*cols)))
    with pytest.raises(ResourceGuard, match="39916800 column arrangements exceed guard"):
        row_class_masks(wide)
    with pytest.raises(ResourceGuard, match="39916800 column arrangements exceed guard"):
        row_class_count(wide)
    # the orbit masks are the classes' row orders, so the class guard refuses them too
    with pytest.raises(ResourceGuard, match="39916800 column arrangements exceed guard"):
        type_orbit_masks(wide)
    # G is sought among the u! row permutations: eleven rows are refused
    # though two equal columns have one arrangement
    tall = PatternType(11, 2, ((1, 1),) * 11)
    with pytest.raises(ResourceGuard, match="39916800 row permutations exceed guard"):
        row_class_masks(tall)
