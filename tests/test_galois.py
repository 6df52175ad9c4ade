import pytest

from mrgrid import FieldSpec, discrete_log, galois, primitive_element
from mrgrid.errors import DivisionByZero, ZeroHasNoLog
from mrgrid.galois import ORDER_CAP
from _support import prime_powers_upto, spec_for_order, _is_prime


def schoolbook_gf2k_mul(a, b, modulus, k):
    """Carry-less polynomial multiply reduced mod the field polynomial."""
    prod = 0
    for i in range(k):
        if b >> i & 1:
            prod ^= a << i
    for d in range(2 * k - 2, k - 1, -1):
        if prod >> d & 1:
            prod ^= modulus << (d - k)
    return prod


def test_prime_field_examples():
    s = FieldSpec(7)
    assert s.mul(3, 5) == 1
    assert s.add(6, 4) == 3
    assert s.sub(2, 5) == 4
    assert s.inv(3) == 5
    assert s.div(1, 3) == 5
    assert s.neg(2) == 5
    assert s.pow(3, 6) == 1


def test_gf8_mul_example_and_identity():
    s = FieldSpec(2, 3)
    assert s.modulus == 0b1011
    assert s.mul(0b010, 0b100) == 0b011
    for x in s.elements():
        assert s.mul(x, 1) == x


@pytest.mark.parametrize("k", [3, 4, 8])
def test_gf2k_mul_matches_schoolbook(k):
    s = FieldSpec(2, k)
    step = 1 if k < 5 else 7
    for a in range(0, s.order, step):
        for b in range(0, s.order, step):
            assert s.mul(a, b) == schoolbook_gf2k_mul(a, b, s.modulus, k)


def test_primitive_element_examples():
    s7 = FieldSpec(7)
    assert primitive_element(s7) == 3
    # order oracle: powers of 3 enumerate all of F_7*
    assert sorted(s7.pow(3, e) for e in range(1, 7)) == [1, 2, 3, 4, 5, 6]
    assert primitive_element(FieldSpec(2)) == 1
    assert primitive_element(FieldSpec(2, 3)) == 0b010


def test_primitive_element_is_least():
    for q in [5, 11, 13, 16, 32]:
        s = FieldSpec(2, q.bit_length() - 1) if q & (q - 1) == 0 and q > 2 else FieldSpec(q)
        w = primitive_element(s)
        for x in range(1, w):
            assert s.element_order(x) < s.order - 1


def test_discrete_log_examples():
    s = FieldSpec(7)
    assert discrete_log(s, 1, 3) == 0
    assert discrete_log(s, 3, 3) == 1
    assert discrete_log(s, 6, 3) == 3
    with pytest.raises(ZeroHasNoLog):
        discrete_log(s, 0, 3)


@pytest.mark.parametrize("p,k", [(13, 1), (2, 4), (31, 1)])
def test_discrete_log_bijection_and_homomorphism(p, k):
    s = FieldSpec(p, k)
    base = primitive_element(s)
    logs = [discrete_log(s, x, base) for x in range(1, s.order)]
    assert sorted(logs) == list(range(s.order - 1))
    n = s.order - 1
    for x in range(1, s.order):
        for y in range(1, s.order, 3):
            lhs = discrete_log(s, s.mul(x, y), base)
            assert lhs == (discrete_log(s, x, base) + discrete_log(s, y, base)) % n


def test_prime_powers_upto_yields_exactly_the_supported_orders():
    def supported(q):
        try:
            spec_for_order(q)
        except ValueError:
            return False
        return True

    assert list(prime_powers_upto(2, 600)) == [q for q in range(601) if supported(q)]
    assert list(prime_powers_upto(-5, 600)) == list(prime_powers_upto(0, 600))
    assert list(prime_powers_upto(100, 130)) == [101, 103, 107, 109, 113, 127, 128]
    assert list(prime_powers_upto(24, 26)) == list(prime_powers_upto(30, 20)) == []
    # GF(2^k) for k > 16 has no default modulus; orders above ORDER_CAP are refused
    orders = list(prime_powers_upto(2, 1 << 18))
    assert [q for q in orders if q & (q - 1) == 0] == [1 << k for k in range(1, 17)]
    assert all(supported(q) for q in orders[-3:])
    assert not supported(1 << 17) and not supported(ORDER_CAP + 1)


def test_prime_powers_upto_tests_only_orders_in_range(monkeypatch):
    # the scan starts at lo: no order below it is trial-divided
    calls = []
    is_prime = galois._is_prime
    monkeypatch.setattr(galois, "_is_prime", lambda q: calls.append(q) or is_prime(q))
    lo, hi = ORDER_CAP - 100, ORDER_CAP
    assert list(galois.prime_powers_upto(lo, hi)) == [q for q in range(lo, hi + 1) if is_prime(q)]
    assert len(calls) <= hi - lo + 1 and min(calls) >= lo


def test_field_axioms_exhaustive_upto_64():
    orders = [q for q in prime_powers_upto(2, 64)
              if _is_prime(q) or q & (q - 1) == 0]
    for q in orders:
        s = FieldSpec(2, q.bit_length() - 1) if q & (q - 1) == 0 and q > 2 else FieldSpec(q)
        els = range(s.order)
        for x in els:
            if x:
                assert s.mul(x, s.inv(x)) == 1
            assert s.add(x, s.neg(x)) == 0
            if s.p == 2:
                assert s.add(x, x) == 0
        for x in els:
            for y in els:
                xy = s.mul(x, y)
                assert xy == s.mul(y, x)
                for z in els:
                    assert s.mul(xy, z) == s.mul(x, s.mul(y, z))
                    assert s.mul(x, s.add(y, z)) == s.add(xy, s.mul(x, z))


def test_spec_validation():
    with pytest.raises(ValueError):
        FieldSpec(6)
    with pytest.raises(ValueError):
        FieldSpec(3, 2)
    with pytest.raises(ValueError):
        FieldSpec(2, 21)
    # x^4+x^3+x^2+x+1 is irreducible but x has order 5: not primitive
    with pytest.raises(ValueError):
        FieldSpec(2, 4, modulus=0b11111)
    # (x^2+x+1)^2 is reducible
    with pytest.raises(ValueError):
        FieldSpec(2, 4, modulus=0b10101)


def test_spec_json_roundtrip():
    for s in (FieldSpec(101), FieldSpec(2, 8)):
        assert FieldSpec.from_dict(s.to_dict()) == s
    assert FieldSpec(2, 3).to_dict() == {"p": 2, "k": 3, "modulus": 0b1011}
    assert FieldSpec(7).to_dict() == {"p": 7, "k": 1}


def test_pow_negative_exponent_and_orders():
    s = FieldSpec(7)
    with pytest.raises(DivisionByZero):
        s.inv(0)
    assert s.pow(3, -1) == s.inv(3)
    assert s.pow(3, -2) == s.mul(s.inv(3), s.inv(3))
    assert s.element_order(1) == 1
    s16 = FieldSpec(2, 4)
    assert s16.pow(0, 0) == 1 and s16.pow(0, 5) == 0
    with pytest.raises(DivisionByZero):
        s16.element_order(0)

