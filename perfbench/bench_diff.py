"""Compare two sets of benchmark results.

    python3 perfbench/bench_diff.py BASE CHANGE

BASE and CHANGE are files (or directories of ``*.jsonl`` files) written by
``run.py --out``, one JSON record per workload run.  For every workload and
end-to-end metric the tool prints each side's median and quartiles and labels
the pairing:

- ``better``: the change wins at least 9 of every 10 pairs (run i of BASE
  against run i of CHANGE, ties counting for neither) and the medians differ
  by more than the quartile spread of BASE's own runs;
- ``worse``: the change's median is worse than BASE's by more than the bound
  in BENCHMARK.json;
- ``unresolved``: either side's quartile spread is wider than the bound,
  unless every CHANGE run beats every BASE run;
- ``same``: none of the above.

Traced runs give per-layer metrics; for each the tool prints both medians,
the delta and the delta as a share of BASE, with the prediction from
layers.json (``moves`` when the metric should move an end-to-end metric of
this workload, ``still`` when it should not).
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def load(path) -> dict:
    """{(workload, trace): {metric: [values in run order]}}; info metrics included."""
    path = Path(path)
    files = sorted(path.glob("*.jsonl")) if path.is_dir() else [path]
    out: dict = {}
    for f in files:
        for line in f.read_text().splitlines():
            if not line.strip():
                continue
            rec = json.loads(line)
            series = out.setdefault((rec["workload"], rec["trace"]), {})
            values = {k: m["value"] for k, m in rec["result"]["metrics"].items()}
            for k, v in rec.get("info", {}).items():
                values.setdefault(k, v)
            for k, v in values.items():
                series.setdefault(k, []).append(v)
    return out


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def spread(xs) -> float:
    q1, med, q3 = quartiles(xs)
    return (q3 - q1) / abs(med) if med else 0.0


def label(base, change, bound, higher_better) -> str:
    sign = 1 if higher_better else -1
    mb, mc = statistics.median(base), statistics.median(change)
    if sign * (mb - mc) > bound * abs(mb):
        return "worse"
    pairs = list(zip(base, change))
    wins = sum(1 for b, c in pairs if sign * (c - b) > 0)
    all_beat = min(sign * c for c in change) > max(sign * b for b in base)
    q1, _, q3 = quartiles(base)
    if pairs and wins >= 0.9 * len(pairs) and sign * (mc - mb) > (q3 - q1):
        return "better"
    if max(spread(base), spread(change)) > bound and not all_beat:
        return "unresolved"
    return "same"


def fmt(x) -> str:
    return f"{x:.6g}"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        sys.stderr.write(__doc__.split("\n\n")[1] + "\n")
        return 2
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    layers = json.loads((HERE / "layers.json").read_text())["predictions"]
    e2e = {m["name"]: m for m in bench["end_to_end"]}
    base, change = load(argv[0]), load(argv[1])
    for (workload, trace) in sorted(set(base) & set(change)):
        b, c = base[(workload, trace)], change[(workload, trace)]
        runs = f"{len(next(iter(b.values())))} vs {len(next(iter(c.values())))} runs"
        print(f"== {workload} ({'per-layer' if trace else 'end-to-end'}, {runs})")
        for metric in sorted(set(b) & set(c)):
            bq, cq = quartiles(b[metric]), quartiles(c[metric])
            if not trace:
                spec = e2e.get(metric)
                tag = (label(b[metric], c[metric], spec["bound"], spec["better"] == "higher")
                       if spec else "info")
                print(f"  {metric:30s} base {fmt(bq[1])} [{fmt(bq[0])}, {fmt(bq[2])}]"
                      f"  change {fmt(cq[1])} [{fmt(cq[0])}, {fmt(cq[2])}]  {tag}")
            else:
                delta = cq[1] - bq[1]
                share = f"{delta / bq[1]:+.1%}" if bq[1] else "n/a"
                pred = layers.get(metric, {})
                moves = [e for w, e in pred.get("moves", []) if w == workload]
                note = ("moves " + ",".join(moves) if moves
                        else "still" if workload in pred.get("still", []) else "")
                print(f"  {metric:34s} base {fmt(bq[1])}  change {fmt(cq[1])}"
                      f"  delta {fmt(delta)} ({share} of base)  {note}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
