"""Seeded inputs and op batches for the four benchmark workloads.

A workload turns a seed into a list of ops.  Each op is the argv of one
``mrgrid`` command plus what the checker needs to judge its output; the
code and word files the argv names are written into a work directory.
The same seed always gives the same files and the same argv.  Every op
passes ``--threads 1``.

Input construction goes through the library (``GFMatrix``, the MDS test,
``encode``): that is the one-time set-up a user pays before the first
command.  The checker re-derives what it relies on by other routes.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from itertools import combinations

# GF(2^k) moduli written into every input file, so the checker's own
# arithmetic and the program agree on the field without sharing tables.
GF2_MODULUS = {2: 0b111, 3: 0b1011, 4: 0b10011, 5: 0b100101, 8: 0b100011101}
BIG_PRIME = 1048573  # largest prime below the library's 2^20 order cap

NAMES = ("certify_sweep_gf16", "certify_orbits_prime", "search_greedy", "attack_decode")


@dataclass
class Op:
    kind: str            # certify | search | attack | decode
    argv: list
    expect: dict = field(default_factory=dict)


def field_dict(q: int) -> dict:
    if q & (q - 1) == 0:
        k = q.bit_length() - 1
        return {"p": 2, "k": k, "modulus": GF2_MODULUS[k]}
    return {"p": q, "k": 1}


def _spec(mrgrid, q):
    return mrgrid.FieldSpec.from_dict(field_dict(q))


def _mds_rows(mrgrid, spec, b, n, rng):
    """Random b x n matrix, every b columns independent, grown column by column."""
    cols = []
    for _ in range(1000 * n):
        if len(cols) == n:
            break
        cand = [rng.randrange(spec.order) for _ in range(b)]
        w = min(b - 1, len(cols))
        if all(mrgrid.rank(mrgrid.GFMatrix(spec, list(zip(*sub, cand)))) == w + 1
               for sub in combinations(cols, w)):
            cols.append(cand)
    if len(cols) < n:
        raise ValueError(f"no {b} x {n} MDS matrix found over GF({spec.order})")
    return mrgrid.GFMatrix(spec, list(zip(*cols)))


def _vandermonde_rows(mrgrid, spec, b, n, rng):
    """Column-scaled Vandermonde rows on distinct random nodes (MDS for n <= q)."""
    cols = [[spec.mul(s, spec.pow(x, k)) for k in range(b)]
            for x, s in zip(rng.sample(range(spec.order), n),
                            (rng.randrange(1, spec.order) for _ in range(n)))]
    return mrgrid.GFMatrix(spec, list(zip(*cols)))


def _code(mrgrid, q, m, n, b, rng, ones_col, vandermonde=False):
    spec = _spec(mrgrid, q)
    rows = _vandermonde_rows if vandermonde else _mds_rows
    h_row = rows(mrgrid, spec, b, n, rng)
    alphas = [1] * m if ones_col else [rng.randrange(1, spec.order) for _ in range(m)]
    return mrgrid.TensorCode(mrgrid.Topology(m, n, 1, b),
                             mrgrid.GFMatrix(spec, [alphas]), h_row)


def _write(workdir, name, obj) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w") as fh:
        json.dump(obj, fh, sort_keys=True)
    return path


def _certify_op(mrgrid, workdir, tag, q, m, n, b, rng, **expect):
    code = _code(mrgrid, q, m, n, b, rng, ones_col=False)
    path = _write(workdir, f"{tag}.json", code.to_dict())
    return Op("certify", ["certify", "--code", path, "--threads", "1"],
              dict(code=path, **expect))


# Sizes per workload: "full" is what the benchmark measures, "tiny" is the
# smoke-test size.  Each tuple lists (q, m, n, b) for certify codes.
SIZES = {
    "certify_sweep_gf16": {"full": [(16, 4, 11, 2)], "tiny": [(8, 4, 9, 2)]},
    "certify_orbits_prime": {"full": [(BIG_PRIME, 4, 7, 3), (BIG_PRIME, 3, 8, 4)],
                             "tiny": [(BIG_PRIME, 3, 7, 4)]},
    # (m, b, n, searches per pass)
    "search_greedy": {"full": [(3, 3, 7, 48)], "tiny": [(3, 3, 6, 2)]},
    # (t4 attacks, t3 attacks, decode codes, words per decode code)
    "attack_decode": {"full": (20, 20, 2, 20), "tiny": (2, 2, 1, 2)},
}


def build(mrgrid, name: str, seed: int, workdir: str, size: str = "full") -> list[Op]:
    """Write the workload's input files for seed and return its op batch."""
    rng = random.Random(f"{name}:{seed}")
    spec = SIZES[name][size]
    ops = []
    if name == "certify_sweep_gf16":
        for k, (q, m, n, b) in enumerate(spec):
            # below the t4 threshold (n-3)^2/4 + 2 > q every code must fail
            ops.append(_certify_op(mrgrid, workdir, f"sweep{k}", q, m, n, b, rng,
                                   must_fail=4 * (q - 2) < (n - 3) ** 2))
    elif name == "certify_orbits_prime":
        for k, (q, m, n, b) in enumerate(spec):
            ops.append(_certify_op(mrgrid, workdir, f"orbit{k}", q, m, n, b, rng))
    elif name == "search_greedy":
        for m, b, n, count in spec:
            for _ in range(count):
                scan = rng.randrange(1, 2 ** 31)
                ops.append(Op("search",
                              ["search", "--m", str(m), "--b", str(b), "--n", str(n),
                               "--q-max", "1024", "--seed", str(scan), "--threads", "1"],
                              dict(m=m, b=b, n=n, seed=scan)))
    elif name == "attack_decode":
        t4, t3, dcodes, words = spec
        attacks = []
        for k in range(t4):
            code = _code(mrgrid, 16, 4, 13, 2, rng, ones_col=True)
            attacks.append(("t4", _write(workdir, f"t4_{k}.json", code.to_dict())))
        for k in range(t3):
            # random 3 x 10 rows almost never hold a difference collision over
            # GF(32); Vandermonde rows do, as in the paper's t3 construction
            code = _code(mrgrid, 32, 3, 10, 3, rng, ones_col=True, vandermonde=True)
            attacks.append(("t3", _write(workdir, f"t3_{k}.json", code.to_dict())))
        decodes = []
        for c in range(dcodes):
            code = _code(mrgrid, 257, 4, 10, 2, rng, ones_col=False)
            cpath = _write(workdir, f"dec{c}.json", code.to_dict())
            for w in range(words):
                msg = [rng.randrange(257) for _ in range(3 * 8)]
                grid = [list(r) for r in mrgrid.encode(code, msg).entries]
                erased = _correctable_erasures(rng, 4, 10, 2)
                word = {"entries": [[None if (i, j) in erased else x
                                     for j, x in enumerate(row)]
                                    for i, row in enumerate(grid)]}
                wpath = _write(workdir, f"dec{c}_w{w}.json", word)
                decodes.append((cpath, wpath, grid))
        # alternate attacks and decodes through the pass
        for k in range(max(len(attacks), len(decodes))):
            if k < len(attacks):
                topo, path = attacks[k]
                ops.append(Op("attack", ["attack", "--code", path, "--topology", topo,
                                         "--threads", "1"], dict(code=path, topology=topo)))
            if k < len(decodes):
                cpath, wpath, grid = decodes[k]
                ops.append(Op("decode", ["decode", "--code", cpath, "--word", wpath,
                                         "--threads", "1"], dict(code=cpath, grid=grid)))
    else:
        raise ValueError(f"unknown workload {name!r}")
    return ops


def _correctable_erasures(rng, m, n, b) -> set:
    """One fully erased grid row plus at most b erasures in every other row.

    The other rows are recovered by the MDS row code and the full row then by
    the column parity, so the pattern is correctable for every code with an
    MDS row code and a nonzero column parity.
    """
    full = rng.randrange(m)
    cells = {(full, j) for j in range(n)}
    for i in range(m):
        if i != full:
            cells.update((i, j) for j in rng.sample(range(n), rng.randrange(b + 1)))
    return cells
