import math
from fractions import Fraction

import pytest

from mrgrid import bound, enumerate_types
from mrgrid.bounds import DIGIT_LIMIT, _log10_comb_le, comb_le
from mrgrid.errors import MissingConstant, ResourceGuard
from _support import exceeds_sidon_bound, q_below_t3_threshold, q_below_t4_threshold


def test_kmg_poly_example():
    rep = bound("kmg_poly", {"m": 2, "b": 1, "n": 10})
    assert rep.value == 24 * 100 + 1 == 2401


def test_kmg_poly_at_b_zero_is_exact():
    # c0(2, 0) = 3! * comb_le(0, 0) = 6, and n^(b-1) = 1/3
    rep = bound("kmg_poly", {"m": 2, "b": 0, "n": 3})
    assert rep.value == Fraction(19, 3) and isinstance(rep.value, Fraction)
    assert rep.to_dict()["value"] == {"numerator": "19", "denominator": "3"}


@pytest.mark.parametrize("m,b,n", [(2, 0, 0), (-1, 1, 0), (0, 1, 1), (2, -1, 3), (2, 1, 0),
                                   (-5, 1, 3)])
def test_kmg_poly_refuses_parameters_outside_its_domain(m, b, n):
    with pytest.raises(ValueError, match="kmg_poly needs m >= 1, b >= 0 and n >= 1"):
        bound("kmg_poly", {"m": m, "b": b, "n": n})


@pytest.mark.parametrize("name,params,message", [
    ("gopalan_general", {"m": -5, "b": 1, "n": 3},
     "gopalan_general needs m >= 1, b >= 0 and n >= 1, got m = -5, b = 1, n = 3"),
    ("gopalan_general", {"m": 2, "b": 1, "n": 0},
     "gopalan_general needs m >= 1, b >= 0 and n >= 1, got m = 2, b = 1, n = 0"),
    ("type_count", {"m": -5, "b": 1}, "type_count needs m >= 1 and b >= 0, got m = -5, b = 1"),
    ("type_count", {"m": 2, "b": -1}, "type_count needs m >= 1 and b >= 0, got m = 2, b = -1"),
    ("t4_lower_threshold", {"n": -3}, "t4_lower_threshold needs n >= 1, got n = -3"),
    ("t3_lower_threshold", {"n": 0}, "t3_lower_threshold needs n >= 1, got n = 0"),
    ("sidon_max", {"N": -4}, "sidon_max needs N >= 1, got N = -4"),
    ("sidon_max", {"N": 0}, "sidon_max needs N >= 1, got N = 0"),
])
def test_bounds_refuse_parameters_outside_their_domain(name, params, message):
    # each is refused before any value or estimate is computed; the least
    # values of the domain are accepted
    with pytest.raises(ValueError, match=f"^{message}$"):
        bound(name, params)
    least = {"m": 1, "b": 0, "n": 1, "N": 1}
    assert bound(name, {k: least[k] for k in params}).value


def test_gopalan_general_example():
    rep = bound("gopalan_general", {"m": 2, "b": 1, "n": 3})
    assert comb_le(6, 4) == 57
    assert rep.value == 4 * 57 == 228


def test_threshold_examples():
    rep = bound("t4_lower_threshold", {"n": 13})
    assert rep.value == 27
    rep = bound("t4_lower_threshold", {"n": 12})
    assert rep.value == Fraction(81, 4) + 2 == Fraction(89, 4)
    rep = bound("t3_lower_threshold", {"n": 20})
    assert rep.value == {"radicand": 400 - 220 + 34, "divisor": 2}
    assert abs(rep.approx - (214 ** 0.5) / 2) < 1e-12


def test_type_count_examples():
    assert bound("type_count", {"m": 2, "b": 1}).value == 4
    for (m, b) in ((4, 2), (3, 3)):
        assert bound("type_count", {"m": m, "b": b}).value >= len(enumerate_types(m, b))


def test_sidon_max_form():
    rep = bound("sidon_max", {"N": 15})
    assert rep.value == {"radicand": 60, "divisor": 1, "offset": 1}
    assert abs(rep.approx - (2 * 15 ** 0.5 + 1)) < 1e-12


def test_kmg_beats_gopalan_for_long_rows():
    for (m, b) in ((3, 2), (4, 2)):
        n = 50
        kmg = bound("kmg_poly", {"m": m, "b": b, "n": n}).value
        gop = bound("gopalan_general", {"m": m, "b": b, "n": n}).value
        assert kmg < gop


def test_missing_constants():
    with pytest.raises(MissingConstant):
        bound("t4_upper", {"n": 20})
    with pytest.raises(MissingConstant):
        bound("hypergraph_alpha", {"nv": 100, "delta_r": 720, "r": 5})
    with pytest.raises(MissingConstant):
        bound("kmg_poly", {"m": 2, "b": 1})
    assert bound("t4_upper", {"n": 20, "C": 1.0}).approx > 0
    assert bound("hypergraph_alpha",
                 {"nv": 10 ** 6, "delta_r": 720, "r": 5, "c_r": 1.0}).approx > 0


def test_unknown_bound_name():
    with pytest.raises(ValueError):
        bound("fermat", {})


def test_exact_threshold_predicates():
    # cross-checked against exact rational / integer arithmetic
    for n in range(4, 40):
        thr = Fraction((n - 3) ** 2, 4) + 2
        for q in range(2, 300):
            assert q_below_t4_threshold(q, n) == (q < thr)
    for n in range(12, 60):
        rad = Fraction(n * n - 11 * n + 34)
        for q in range(2, 40):
            assert q_below_t3_threshold(q, n) == (Fraction(q) ** 2 * 4 < rad)
    for N in range(2, 40):
        for size in range(1, 30):
            assert exceeds_sidon_bound(size, N) == ((size - 1) ** 2 > 4 * N)
    # criterion boundary: n = 13 gives threshold 27 > 16
    assert q_below_t4_threshold(16, 13)
    assert not q_below_t4_threshold(27, 13)


def test_bound_report_json():
    rep = bound("kmg_poly", {"m": 2, "b": 1, "n": 10})
    d = rep.to_dict()
    assert d["value"] == "2401"
    d = bound("t4_lower_threshold", {"n": 12}).to_dict()
    assert d["value"] == {"numerator": "89", "denominator": "4"}
    d = bound("t3_lower_threshold", {"n": 20}).to_dict()
    assert d["value"]["radicand"] == 214


def test_log10_comb_le_is_a_close_lower_bound():
    # the guard's estimate never exceeds the exact log, and stays within
    # log10(n + 1) of it, on both sides of the float cap
    cases = [(n, k) for n in range(60) for k in range(70)]
    cases += [(10 ** 13, 3), (10 ** 13, 200), (3 * 10 ** 12, 90), (2000, 900), (2000, 1100)]
    for n, k in cases:
        exact = math.log10(comb_le(n, k))
        estimate = _log10_comb_le(n, k)
        assert estimate <= exact + 1e-9, (n, k)
        if n <= 10 ** 12:
            assert exact <= estimate + math.log10(n + 1) + 1e-9, (n, k)


def test_the_digit_limit_is_exact():
    # 24 n^2 + 1 at n = 2 * 10^2149 has 4300 digits and prints; at
    # n = 3 * 10^2149 it has 4301 and is refused, as is a 4301-digit radicand
    rep = bound("kmg_poly", {"m": 2, "b": 1, "n": 2 * 10 ** 2149})
    assert len(rep.to_dict()["value"]) == DIGIT_LIMIT
    with pytest.raises(ResourceGuard, match="kmg_poly has at least 4301 digits"):
        bound("kmg_poly", {"m": 2, "b": 1, "n": 3 * 10 ** 2149})
    assert bound("sidon_max", {"N": 2 * 10 ** 4299}).value["radicand"] == 8 * 10 ** 4299
    with pytest.raises(ResourceGuard, match="sidon_max has at least 4301 digits"):
        bound("sidon_max", {"N": 3 * 10 ** 4299})
