"""Independent checks of every op's output.

Each check takes a different route from the code path that produced the
output:

- failed certification: the counterexample is regular by the brute-force
  oracle and rank-deficient by direct elimination on the restricted
  pseudo-parity matrix (not the reduced block the sweep uses);
- ``certified``: ``patterns_checked`` equals the class total, recomputed
  here from ``comb(n, v)`` and orbit representatives that this module
  enumerates itself (distinct column arrangements, rows sorted) instead of
  the library's row-and-column permutation sweep;
- search: the returned code passes the literal sweep
  ``certify_mr(dedupe_rows=False)``;
- attack witness: the pattern's direct rank is below its size; a ``None``
  outcome is confirmed by a brute-force scan for three disjoint pairs with
  equal sums of discrete logs (t4) or equal differences (t3), in this
  module's own field arithmetic;
- decode: the output grid equals the encoded grid, which set-up verified
  against every row and column parity in this module's own arithmetic.

``check`` returns None for an accepted output and a reason otherwise.
"""

from __future__ import annotations

import json
from collections import Counter
from itertools import combinations
from math import comb


class OwnField:
    """Field arithmetic written apart from ``mrgrid.galois``."""

    def __init__(self, d: dict):
        self.p, self.k = d["p"], d.get("k", 1)
        self.modulus = d.get("modulus")
        self.order = self.p ** self.k

    def add(self, a, b):
        return a ^ b if self.p == 2 else (a + b) % self.p

    def sub(self, a, b):
        return a ^ b if self.p == 2 else (a - b) % self.p

    def mul(self, a, b):
        if self.k == 1:
            return a * b % self.p
        out = 0
        while b:
            if b & 1:
                out ^= a
            b >>= 1
            a <<= 1
            if a >> self.k:
                a ^= self.modulus
        return out

    def inv(self, a):
        return self.power(a, self.order - 2)

    def power(self, a, e):
        out = 1
        while e:
            if e & 1:
                out = self.mul(out, a)
            a = self.mul(a, a)
            e >>= 1
        return out

    def log_table(self) -> dict:
        """Discrete logs to the least generator of the multiplicative group."""
        for g in range(2, self.order):
            table, x = {}, 1
            for t in range(self.order - 1):
                if x in table:
                    break
                table[x] = t
                x = self.mul(x, g)
            if len(table) == self.order - 1:
                return table
        raise ValueError("no generator found")


def distinct_arrangements(items):
    """Each distinct ordering of a multiset, once."""
    counts = Counter(items)
    keys = sorted(counts)
    out = []

    def grow():
        if len(out) == len(items):
            yield tuple(out)
            return
        for key in keys:
            if counts[key]:
                counts[key] -= 1
                out.append(key)
                yield from grow()
                out.pop()
                counts[key] += 1

    return grow()


def row_classes(mask) -> set:
    """Masks of the type's orbit up to row relabelling, each as sorted rows.

    Sorting rows removes any row permutation, so the classes are the
    row-sorted forms of the distinct column arrangements.
    """
    u = len(mask)
    cols = [tuple(row[j] for row in mask) for j in range(len(mask[0]))]
    return {tuple(sorted(tuple(col[i] for col in arr) for i in range(u)))
            for arr in distinct_arrangements(cols)}


def _load(path):
    with open(path) as fh:
        return json.load(fh)


class Checker:
    """Judges op outputs through the ``mrgrid`` loaded when it is made.

    run.py imports ``mrgrid`` afresh for every measured pass, so nothing
    the checker computes or caches reaches a measured op.
    """

    def __init__(self):
        import mrgrid
        self.mrgrid = mrgrid
        self._totals = {}

    def class_total(self, m: int, b: int, n: int) -> int:
        key = (m, b, n)
        if key not in self._totals:
            self._totals[key] = sum(
                comb(n, pt.v) * len(row_classes(pt.mask))
                for pt in self.mrgrid.enumerate_types(m, b) if pt.v <= n)
        return self._totals[key]

    def check(self, op, status: int, out: str):
        try:
            report = json.loads(out)
        except ValueError:
            return f"exit {status}, output is not JSON"
        return getattr(self, "_check_" + op.kind)(op, status, report)

    # ------------------------------------------------------------------
    def _code(self, path):
        return self.mrgrid.TensorCode.from_dict(_load(path))

    def _direct_rank(self, code, cells) -> int:
        mg = self.mrgrid
        cols = [i * code.topology.n + j for i, j in sorted(cells)]
        return mg.rank(mg.build_pseudo_parity(code).restrict_columns(cols))

    def _check_certify(self, op, status, report):
        mg = self.mrgrid
        rep = report.get("report", {})
        code = self._code(op.expect["code"])
        t = code.topology
        total = self.class_total(t.m, t.b, t.n)
        verdict = rep.get("verdict")
        if verdict == "certified":
            if op.expect.get("must_fail"):
                return "certified a code below the t4 field-size threshold"
            if status != 0:
                return f"certified with exit {status}"
            if rep.get("counterexample") is not None or rep.get("rank_found") is not None:
                return "certified report carries a counterexample"
            if rep.get("patterns_checked") != total:
                return f"patterns_checked {rep.get('patterns_checked')} != class total {total}"
            return None
        if verdict != "failed_pattern":
            return f"unexpected verdict {verdict!r} for an MDS code"
        if status != 1:
            return f"failed certification with exit {status}"
        if not 1 <= rep.get("patterns_checked", 0) <= total:
            return f"patterns_checked {rep.get('patterns_checked')} outside 1..{total}"
        cells = rep.get("counterexample") or []
        e = mg.ErasurePattern.from_list(cells)
        if not cells or not e.in_bounds(t.m, t.n):
            return "counterexample missing or outside the grid"
        if not mg.is_regular(t, e, mode="brute"):
            return "counterexample is not regular"
        if mg.is_correctable_by(code, e, method="direct"):
            return "counterexample is correctable"
        if rep.get("rank_found") != self._direct_rank(code, e.cells):
            return "rank_found differs from the direct rank"
        return None

    def _check_search(self, op, status, report):
        mg = self.mrgrid
        x = op.expect
        if status != 0 or report.get("q_found") is None:
            return f"no code found (exit {status})"
        if [report.get(k) for k in ("m", "b", "n", "seed")] != [x["m"], x["b"], x["n"], x["seed"]]:
            return "report echoes different parameters"
        q = report["q_found"]
        tried = [p["q"] for p in report.get("progress", [])]
        if tried != [v for v in range(2, q + 1) if _prime_power(v)]:
            return "progress does not list every field order up to q_found"
        if [p["outcome"] for p in report["progress"]][-1] != "found":
            return "last field tried is not the one found"
        code = mg.TensorCode.from_dict(report["code"])
        t = code.topology
        if (code.spec.order, t.m, t.b, t.n) != (q, x["m"], x["b"], x["n"]):
            return "returned code has the wrong field or shape"
        if any(code.h_col[0, i] != 1 for i in range(t.m)):
            return "returned code lacks the all-ones column parity"
        if mg.certify_mr(code, dedupe_rows=False).verdict != "certified":
            return "returned code fails the literal sweep"
        return None

    def _check_attack(self, op, status, report):
        mg = self.mrgrid
        code = self._code(op.expect["code"])
        outcome = report.get("outcome")
        if outcome is None:
            if status != 1:
                return f"no witness with exit {status}"
            if _has_collision(op.expect["topology"], code):
                return "attack returned None but a collision exists"
            return None
        if status != 0:
            return f"witness with exit {status}"
        cells = outcome.get("pattern") or []
        e = mg.ErasurePattern.from_list(cells)
        if not cells or not e.in_bounds(code.topology.m, code.topology.n):
            return "witness pattern missing or outside the grid"
        r = self._direct_rank(code, e.cells)
        if r >= len(e.cells):
            return "witness pattern has full rank"
        if outcome.get("rank_found") != r:
            return "rank_found differs from the direct rank"
        return None

    def _check_decode(self, op, status, report):
        if status != 0:
            return f"decode exit {status}"
        if report.get("grid") != op.expect["grid"]:
            return "decoded grid differs from the encoded grid"
        return None


def _prime_power(q: int) -> bool:
    if q & (q - 1) == 0:
        return q >= 2
    return all(q % f for f in range(2, int(q ** 0.5) + 1))


def codeword_ok(code_dict: dict, grid) -> bool:
    """Every column and row parity of the code holds on grid (own arithmetic)."""
    f = OwnField(code_dict["field"])
    h_col, h_row = code_dict["h_col"]["data"], code_dict["h_row"]["data"]

    def dot(u, v):
        acc = 0
        for a, b in zip(u, v):
            acc = f.add(acc, f.mul(a, b))
        return acc

    cols = [list(c) for c in zip(*grid)]
    return (all(dot(h, col) == 0 for h in h_col for col in cols)
            and all(dot(h, row) == 0 for h in h_row for row in grid))


def _has_collision(topology: str, code) -> bool:
    """Brute force: three disjoint column pairs with equal log sums (t4) or
    equal normalized differences (t3), or six zero-first columns (t3)."""
    d = code.to_dict()
    f = OwnField(d["field"])
    h = d["h_row"]["data"]
    n = len(h[0])
    if topology == "t4":
        logs = f.log_table()
        keys = {j: logs[f.mul(h[1][j], f.inv(h[0][j]))]
                for j in range(n) if h[0][j] and h[1][j]}
        pairs = [((i, j), (keys[i] + keys[j]) % (f.order - 1))
                 for i, j in combinations(sorted(keys), 2)]
    else:
        if sum(1 for j in range(n) if h[0][j] == 0) >= 6:
            return True
        g = {j: (f.mul(h[1][j], f.inv(h[0][j])), f.mul(h[2][j], f.inv(h[0][j])))
             for j in range(n) if h[0][j]}
        pairs = [((i, j), (f.sub(g[j][0], g[i][0]), f.sub(g[j][1], g[i][1])))
                 for i in g for j in g if i != j]
    buckets = {}
    for pair, key in pairs:
        buckets.setdefault(key, []).append(pair)
    return any(len({v for p in trio for v in p}) == 6
               for group in buckets.values() for trio in combinations(group, 3))
