"""Closed-form field-size bounds, evaluated exactly.

Combinatorial terms use exact integer arithmetic; irrational thresholds are
reported as radicands with a divisor so callers can gate parameters by exact
cross-multiplication instead of floating comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial

from .errors import MissingConstant, ResourceGuard

DIGIT_LIMIT = 4300  # Python's default int-to-str limit: the longest value a report prints
_CAP = 10 ** 12  # the estimates clamp their arguments here, where floats stay precise


@dataclass(frozen=True)
class BoundReport:
    name: str
    params: dict
    value: object  # int | Fraction | dict with "radicand"/"divisor"
    approx: float | None  # None when the value is too large for a float
    applicability: str

    def __post_init__(self):
        # the exact parts are ints and Fractions whose denominator is at most
        # 4, or n for kmg_poly at b = 0, so the numerator bounds the digits
        parts = self.value.values() if isinstance(self.value, dict) else [self.value]
        longest = max((abs(x.numerator) for x in parts if isinstance(x, (int, Fraction))),
                      default=0)
        if longest >= 10 ** DIGIT_LIMIT:
            _too_long(self.name, max(math.log10(longest), DIGIT_LIMIT), margin=0)

    def to_dict(self) -> dict:
        if isinstance(self.value, int):
            v = str(self.value)
        elif isinstance(self.value, Fraction):
            v = {"numerator": str(self.value.numerator),
                 "denominator": str(self.value.denominator)}
        else:
            v = self.value
        return {"name": self.name, "params": dict(sorted(self.params.items())),
                "value": v, "approx": self.approx, "applicability": self.applicability}


def comb_le(n: int, k: int) -> int:
    """Sum of C(n, i) for 0 <= i <= k."""
    return sum(comb(n, i) for i in range(min(k, n) + 1))


def c0_constant(m: int, b: int) -> int:
    return factorial(m + 1) * comb_le(m * b * (m - 1), 2 * b * (m - 1))


def _approx(value) -> float | None:
    """float(value), or None (JSON null) when the exact value is too large for a float."""
    try:
        return float(value)
    except OverflowError:
        return None


def _finite(x: float) -> float | None:
    """x, or None (JSON null) when float arithmetic overflowed to inf or nan."""
    return x if math.isfinite(x) else None


def _need_finite(params: dict, *names):
    for x in names:
        if not math.isfinite(params[x]):
            raise ValueError(f"{x} must be a finite number, got {params[x]}")


def _log10_comb_le(n: int, k: int) -> float:
    """A lower bound on log10 comb_le(n, k) for n, k >= 0: its largest term.
    comb_le grows with k, so clamping k keeps the bound."""
    k = min(k, n // 2, _CAP)
    if k and n > _CAP:
        return k * (math.log10(n) - math.log10(k))  # C(n, k) >= (n / k)^k
    return (math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)) / math.log(10)


def _too_long(name: str, log10_value: float, margin: int = 1):
    """Raise ResourceGuard when a value of at least 10^log10_value is sure to
    have more than DIGIT_LIMIT digits; margin absorbs an estimate's rounding."""
    if log10_value >= DIGIT_LIMIT + margin:
        raise ResourceGuard(f"{name} has at least {math.floor(log10_value) + 1} digits, "
                            f"more than the {DIGIT_LIMIT} a report prints")


def _need(params: dict, *names):
    missing = [x for x in names if x not in params]
    if missing:
        raise MissingConstant(f"missing parameter(s): {', '.join(missing)}")
    return [params[x] for x in names]


def bound(name: str, params: dict) -> BoundReport:
    """Evaluate a named field-size bound; see BOUND_NAMES for the catalogue.
    A value too long to print is refused, by an estimate before it is built."""
    if name == "gopalan_general":
        m, b, n = _need(params, "m", "b", "n")
        redundancy = n + b * m - b
        if redundancy >= 1 and m * n >= 0:
            _too_long(name, math.log10(redundancy) + _log10_comb_le(m * n, redundancy))
        value = redundancy * comb_le(m * n, redundancy)
        return BoundReport(name, params, value, _approx(value),
                           "q above this admits an MR instantiation of any topology")
    if name == "kmg_poly":
        m, b, n = _need(params, "m", "b", "n")
        if not (m >= 1 and b >= 0 and n >= 1):
            raise ValueError(f"kmg_poly needs m >= 1, b >= 0 and n >= 1, "
                             f"got m = {m}, b = {b}, n = {n}")
        k = min(2 * b * (m - 1), _CAP)  # (m+1)! * comb_le(...) * n^k is a lower bound
        _too_long(name, math.lgamma(min(m, _CAP) + 2) / math.log(10)
                  + _log10_comb_le(m * b * (m - 1), k) + k * math.log10(n))
        value = (c0_constant(m, b) * n ** (2 * b * (m - 1))
                 + (n ** (b - 1) if b else Fraction(1, n)))
        return BoundReport(name, params, value, _approx(value),
                           "q at or above this admits an MR code for T_{m x n}(1,b,0)")
    if name in ("t4_upper", "t3_upper"):
        (n,) = _need(params, "n")
        if "C" not in params:
            raise MissingConstant("the n^5/log n bounds need the constant C supplied")
        if n < 2:
            raise ValueError(f"the n^5/log n bounds need n >= 2, got n = {n}")
        _need_finite(params, "C")
        c = params["C"]
        n5 = _approx(n ** 5)
        approx = None if n5 is None else _finite(c * n5 / math.log(n))
        return BoundReport(name, params, {"formula": "C*n^5/log(n)", "C": c},
                           approx, "existence threshold up to the unspecified constant")
    if name == "t4_lower_threshold":
        (n,) = _need(params, "n")
        value = Fraction((n - 3) ** 2, 4) + 2
        if value.denominator == 1:
            value = int(value)
        return BoundReport(name, params, value, _approx(value),
                           "q below (n-3)^2/4 + 2 admits no MR code for T_{4 x n}(1,2,0)")
    if name == "t3_lower_threshold":
        (n,) = _need(params, "n")
        radicand = n * n - 11 * n + 34  # (n - 5.5)^2 + 3.75 > 0
        rad_float = _approx(radicand)
        return BoundReport(name, params, {"radicand": radicand, "divisor": 2},
                           None if rad_float is None else math.sqrt(rad_float) / 2,
                           "q below sqrt(n^2-11n+34)/2 admits no MR code for T_{3 x n}(1,3,0)")
    if name == "sidon_max":
        (N,) = _need(params, "N")
        n_float = _approx(N)
        return BoundReport(name, params, {"radicand": 4 * N, "divisor": 1, "offset": 1},
                           None if n_float is None else 2 * math.sqrt(n_float) + 1,
                           "a 2-Sidon subset of Z_N has at most 2*sqrt(N) + 1 elements")
    if name == "type_count":
        m, b = _need(params, "m", "b")
        if m >= 1 and b >= 0:
            _too_long(name, _log10_comb_le(m * b * (m - 1), 2 * b * (m - 1)))
        value = comb_le(m * b * (m - 1), 2 * b * (m - 1))
        return BoundReport(name, params, value, _approx(value),
                           "upper bound on the number of regular irreducible pattern types")
    if name == "hypergraph_alpha":
        nv, dr, r = _need(params, "nv", "delta_r", "r")
        if "c_r" not in params:
            raise MissingConstant("hypergraph_alpha needs the constant c_r supplied")
        _need_finite(params, "c_r", "delta_r")
        if not (r >= 1 and 0 < dr <= nv):
            raise ValueError("hypergraph_alpha needs r >= 1 and 0 < delta_r <= nv, "
                             f"got r = {r}, delta_r = {dr}, nv = {nv}")
        c_r, nv_float = params["c_r"], _approx(nv)
        approx = None
        if nv_float is not None:
            ratio = nv_float / dr
            approx = _finite(c_r * (ratio * math.log(ratio)) ** (1.0 / r))
        return BoundReport(name, params, {"formula": "c_r*((nv/D)*log(nv/D))^(1/r)"},
                           approx, "independence number lower bound, valid for small r-degree")
    raise ValueError(f"unknown bound name {name!r}")


BOUND_NAMES = ("gopalan_general", "kmg_poly", "t4_upper", "t3_upper",
               "t4_lower_threshold", "t3_lower_threshold", "sidon_max",
               "type_count", "hypergraph_alpha")

