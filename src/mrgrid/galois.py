"""Exact arithmetic in prime fields GF(p) and binary extension fields GF(2^k).

Field elements are plain non-negative ints: the least residue for a prime
field, the polynomial-coefficient bitmask for GF(2^k).  A FieldSpec carries
the arithmetic; GF(2^k) multiplication goes through log/antilog tables built
once per spec, prime fields use direct modular arithmetic.  The zero and one
elements are always represented by 0 and 1.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DivisionByZero, MixedFields, ZeroHasNoLog

ORDER_CAP = 1 << 20

# One primitive polynomial per extension degree (x generates the
# multiplicative group); overridable per FieldSpec.
PRIMITIVE_POLY = {
    2: 0b111,                # x^2 + x + 1
    3: 0b1011,               # x^3 + x + 1
    4: 0b10011,              # x^4 + x + 1
    5: 0b100101,             # x^5 + x^2 + 1
    6: 0b1000011,            # x^6 + x + 1
    7: 0b10001001,           # x^7 + x^3 + 1
    8: 0b100011101,          # x^8 + x^4 + x^3 + x^2 + 1
    9: 0b1000010001,         # x^9 + x^4 + 1
    10: 0b10000001001,       # x^10 + x^3 + 1
    11: 0b100000000101,      # x^11 + x^2 + 1
    12: 0b1000001010011,     # x^12 + x^6 + x^4 + x + 1
    13: 0b10000000011011,    # x^13 + x^4 + x^3 + x + 1
    14: 0b100010001000011,   # x^14 + x^10 + x^6 + x + 1
    15: 0b1000000000000011,  # x^15 + x + 1
    16: 0b10001000000001011, # x^16 + x^12 + x^3 + x + 1
}


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def _prime_factors(n: int) -> list[int]:
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1 if f == 2 else 2
    if n > 1:
        out.append(n)
    return out


class FieldSpec:
    """Description of GF(p^k); prime fields of any p, extensions only over GF(2)."""

    def __init__(self, p: int, k: int = 1, modulus: int | None = None):
        if not _is_prime(p):
            raise ValueError(f"characteristic {p} is not prime")
        if k < 1:
            raise ValueError("extension degree must be >= 1")
        if k > 1 and p != 2:
            raise ValueError("extension fields are supported only over GF(2)")
        if k > 16:
            raise ValueError("extension degree capped at 16")
        q = p ** k
        if q > ORDER_CAP:
            raise ValueError(f"field order {q} exceeds cap {ORDER_CAP}")
        self.p = p
        self.k = k
        self.order = q
        if p == 2 and k > 1:
            self.modulus = PRIMITIVE_POLY[k] if modulus is None else modulus
            self._build_tables()
        else:
            if modulus is not None:
                raise ValueError("modulus_poly applies only to GF(2^k), k > 1")
            self.modulus = None
        self._dlog_cache: dict[int, dict[int, int]] = {}

    def _build_tables(self):
        # Repeated multiplication by x; the scan doubles as a validity check:
        # x has order 2^k - 1 iff the modulus is irreducible and primitive.
        q, mod = self.order, self.modulus
        if mod.bit_length() != self.k + 1:
            raise ValueError("modulus degree must equal the extension degree")
        exp = [0] * (2 * q)
        log = [0] * q
        val = 1
        for i in range(q - 1):
            if val == 1 and i > 0:
                raise ValueError("modulus_poly is not primitive over GF(2)")
            exp[i] = val
            log[val] = i
            val <<= 1
            if val & q:
                val ^= mod
        if val != 1:
            raise ValueError("modulus_poly is not irreducible over GF(2)")
        for i in range(q - 1, 2 * q):
            exp[i] = exp[i - (q - 1)]
        self._exp = exp
        self._log = log

    # ------------------------------------------------------------------
    # arithmetic on raw ints
    # ------------------------------------------------------------------
    def add(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        return (a + b) % self.p

    def sub(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        return (a - b) % self.p

    def neg(self, a: int) -> int:
        if self.p == 2:
            return a
        return (-a) % self.p

    def mul(self, a: int, b: int) -> int:
        if self.k > 1:
            if a == 0 or b == 0:
                return 0
            return self._exp[self._log[a] + self._log[b]]
        return (a * b) % self.p

    def inv(self, a: int) -> int:
        if a == 0:
            raise DivisionByZero("zero has no multiplicative inverse")
        if self.k > 1:
            return self._exp[(self.order - 1) - self._log[a]]
        return pow(a, self.p - 2, self.p)

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            return self.pow(self.inv(a), -e)
        if self.k > 1:
            if a == 0:
                return 0 if e else 1
            return self._exp[(self._log[a] * e) % (self.order - 1)]
        return pow(a, e, self.p)

    def element_order(self, a: int) -> int:
        """Multiplicative order of a nonzero element."""
        if a == 0:
            raise DivisionByZero("zero has no multiplicative order")
        n = self.order - 1
        order = n
        for f in _prime_factors(n):
            while order % f == 0 and self.pow(a, order // f) == 1:
                order //= f
        return order

    def elements(self) -> range:
        return range(self.order)

    # ------------------------------------------------------------------
    def validate(self, a: int) -> int:
        if not isinstance(a, int) or not 0 <= a < self.order:
            raise ValueError(f"{a!r} is not an element of {self}")
        return a

    def to_dict(self) -> dict:
        d = {"p": self.p, "k": self.k}
        if self.modulus is not None:
            d["modulus"] = self.modulus
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "FieldSpec":
        return cls(d["p"], d.get("k", 1), d.get("modulus"))

    def __eq__(self, other):
        return (isinstance(other, FieldSpec)
                and (self.p, self.k, self.modulus) == (other.p, other.k, other.modulus))

    def __hash__(self):
        return hash((self.p, self.k, self.modulus))

    def __repr__(self):
        if self.k == 1:
            return f"GF({self.p})"
        return f"GF(2^{self.k}, modulus={bin(self.modulus)})"


def prime_powers_upto(limit: int):
    """Yield, in increasing order, the orders q <= limit that spec_for_order
    accepts: the primes and the powers of two."""
    for q in range(2, limit + 1):
        if q & (q - 1) == 0 or _is_prime(q):
            yield q


def spec_for_order(q: int) -> FieldSpec:
    """GF(q) for a prime q, or GF(2^k) with the default modulus for q = 2^k."""
    if q & (q - 1) == 0 and q > 2:
        return FieldSpec(2, q.bit_length() - 1)
    return FieldSpec(q)


@dataclass(frozen=True)
class FieldElement:
    """A field element paired with its FieldSpec; value is the raw int encoding."""

    value: int
    spec: FieldSpec

    def __post_init__(self):
        self.spec.validate(self.value)


_UNARY = {"neg", "inv"}
_BINARY = {"add", "sub", "mul", "div", "pow"}


def field_op(spec: FieldSpec, op: str, operands) -> FieldElement:
    """Apply a named field operation to FieldElements belonging to spec.

    For "pow" the second operand may be a plain int exponent.
    """
    vals = []
    for x in operands:
        if isinstance(x, FieldElement):
            if x.spec != spec:
                raise MixedFields(f"operand from {x.spec} used in {spec}")
            vals.append(x.value)
        else:
            vals.append(x)
    if op in _UNARY:
        if len(vals) != 1:
            raise ValueError(f"{op} takes one operand")
        return FieldElement(getattr(spec, op)(spec.validate(vals[0])), spec)
    if op not in _BINARY:
        raise ValueError(f"unknown operation {op!r}")
    if len(vals) != 2:
        raise ValueError(f"{op} takes two operands")
    if op == "pow":
        return FieldElement(spec.pow(spec.validate(vals[0]), vals[1]), spec)
    return FieldElement(getattr(spec, op)(spec.validate(vals[0]), spec.validate(vals[1])), spec)


def primitive_element(spec: FieldSpec) -> FieldElement:
    """Least-valued element of multiplicative order q - 1."""
    n = spec.order - 1
    if n == 0:
        raise ValueError("GF(1) is not a field")
    for x in range(1, spec.order):
        if spec.element_order(x) == n:
            return FieldElement(x, spec)
    raise AssertionError("no primitive element found")  # unreachable


def discrete_log(spec: FieldSpec, x, base=None) -> int:
    """The t in [0, q-1) with base**t == x; base defaults to primitive_element."""
    xv = x.value if isinstance(x, FieldElement) else spec.validate(x)
    if xv == 0:
        raise ZeroHasNoLog("discrete log of zero is undefined")
    if base is None:
        bv = primitive_element(spec).value
    else:
        bv = base.value if isinstance(base, FieldElement) else spec.validate(base)
    if spec.k > 1 and bv == 2:
        return spec._log[xv]
    table = spec._dlog_cache.get(bv)
    if table is None:
        table = {}
        val = 1
        for t in range(spec.order - 1):
            table[val] = t
            val = spec.mul(val, bv)
        if val != 1 or len(table) != spec.order - 1:
            raise ValueError(f"{bv} is not a primitive element of {spec}")
        spec._dlog_cache[bv] = table
    return table[xv]
