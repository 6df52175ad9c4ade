"""mrgrid benchmark: run one seeded workload through ``mrgrid.cli.run``.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of workloads.NAMES, or ``all`` to run every workload in turn.
Each op is an in-process ``mrgrid.cli.run(argv)`` call with stdout and
stderr captured: the ``mrgrid`` command without interpreter start-up.  The
run repeats the workload's op batch (a "pass") for about S seconds of op
time, checks every output, and prints the metrics, op times in units of a
reference loop (see reference_s); the last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

Each pass runs on a freshly imported ``mrgrid``, and every functools cache
in it is emptied before each op, so no op reuses work that an earlier op,
the set-up or the checker did: each ``mrgrid`` command starts from empty
caches too.  Outputs are checked after the passes, once per distinct
output of an op, so that the checker's time and memory stay out of every
figure.  ``all`` runs each workload in its own child process.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` spends half
the time untraced and half traced (spans around every layer call, see
tracing.py), then makes one untimed pass that counts field operations,
and reports the per-layer metrics of one pass.

The run writes only inside the checkout that holds this file: inputs go to
``perfbench/.work/`` and are removed at the end.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import traceback
from importlib import metadata
from itertools import permutations
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 11  # before the passes, and again after them
REF_EVERY_S = 0.25
REF_SHARE = 0.1
# A fixed nominal time of one reference loop iteration: its two halves, timed
# apart on the 2-vCPU Xeon host the benchmark was defined on, took about this
# long together.  setup_s is set-up time in reference units times this.
REF_NOMINAL_S = 0.00065

sys.path.insert(0, str(HERE))
sys.path.insert(0, str(SRC))
import checker as checker_mod  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

LAYER_MAP = json.loads((HERE / "layers.json").read_text())
DIGESTS_PATH = HERE / "reference_digests.json"


class SetupError(Exception):
    pass


# ----------------------------------------------------------------------
# set-up
# ----------------------------------------------------------------------

def _mrgrid_modules():
    return [k for k in sys.modules if k == "mrgrid" or k.startswith("mrgrid.")]


def fresh_import():
    """Import mrgrid from this checkout's src/ as if for the first time."""
    for mod in _mrgrid_modules():
        del sys.modules[mod]
    mrgrid = importlib.import_module("mrgrid")
    importlib.import_module("mrgrid.cli")
    if Path(mrgrid.__file__).resolve().parent != SRC / "mrgrid":
        raise SetupError(f"imported mrgrid from {mrgrid.__file__}, not from {SRC}")
    return mrgrid


def cached_functions() -> list:
    """Every functools cache reachable from the loaded mrgrid modules."""
    found = {}
    for mod in _mrgrid_modules():
        for obj in vars(sys.modules[mod]).values():
            if callable(getattr(obj, "cache_clear", None)):
                found[id(obj)] = obj
    return list(found.values())


def setup(name, seed, workdir, size):
    """Import and input construction, each timed SETUP_REPEATS times.

    Returns ([import, construction] in seconds, the same in reference
    units, ops); each time is the minimum over the repeats, the least
    disturbed by the host.  The caller sets up again after the passes and
    keeps the smaller minima.
    """
    clock = ReferenceClock()
    intervals = []
    with clock.sampling():
        for _ in range(SETUP_REPEATS):
            for mod in _mrgrid_modules():  # collect the last import outside the timing
                del sys.modules[mod]
            gc.collect()
            t0 = clock.now()
            mrgrid = fresh_import()
            t1 = clock.now()
            ops = workloads.build(mrgrid, name, seed, workdir, size)
            intervals += [(t0, t1), (t1, clock.now())]
    scaled = clock.scaled(intervals)
    seconds = [min(b - a for a, b in intervals[k::2]) for k in (0, 1)]
    return seconds, [min(scaled[k::2]) for k in (0, 1)], ops


# ----------------------------------------------------------------------
# executing and judging ops
# ----------------------------------------------------------------------

def execute(cli, caches, op, tracer=None, field_counts=None, now=perf_counter):
    """Run one op on empty caches; returns (status, stdout, stderr, start, end),
    start and end read from the clock now."""
    for fn in caches:
        fn.cache_clear()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.ExitStack() as stack:
        stack.enter_context(contextlib.redirect_stdout(out))
        stack.enter_context(contextlib.redirect_stderr(err))
        if field_counts is not None:
            stack.enter_context(tracing.count_field_ops(field_counts))
        if tracer is not None:
            stack.enter_context(tracer.patched())
        t0 = now()
        try:
            if tracer is None:
                status = cli.run(op.argv)
            else:
                status = tracer.call("cli.run", cli.run, op.argv)
        except Exception:  # a traceback is a failed op, not a failed benchmark
            status = None
            err.write(traceback.format_exc())
        t1 = now()
    return status, out.getvalue(), err.getvalue(), t0, t1


class Judge:
    """Records each op's outputs during the passes; ``finish`` checks them.

    Each distinct (status, output) of an op is checked once, after the
    passes, and counts as failed as often as it occurred.
    """

    def __init__(self, name, ops, seed, size):
        self.checker = checker_mod.Checker()
        self.ops = ops
        self.outputs = [{} for _ in ops]  # per op: {(status, out): [count, err]}
        self.attempted = 0
        self.failed = 0
        self.reasons = []
        self.classes = {}
        digests = json.loads(DIGESTS_PATH.read_text()) if DIGESTS_PATH.exists() else {}
        self.digests = digests.get(name) if (seed == 0 and size == "full") else None
        for op in ops:
            if op.kind == "decode":
                with open(op.expect["code"]) as fh:
                    if not checker_mod.codeword_ok(json.load(fh), op.expect["grid"]):
                        raise SetupError("encoded reference grid violates the parities")

    def __call__(self, k, status, out, err):
        self.attempted += 1
        self.outputs[k].setdefault((status, out), [0, err])[0] += 1

    def finish(self):
        for k, seen in enumerate(self.outputs):
            for i, ((status, out), (count, err)) in enumerate(seen.items()):
                reason = self._reason(k, status, out, err) if i == 0 else \
                    "output differs from an earlier run of the same argv"
                if reason is not None:
                    self.failed += count
                    if len(self.reasons) < 5:
                        self.reasons.append(f"op {k} {self.ops[k].argv[0]}: {reason}")

    def _reason(self, k, status, out, err):
        if status is None:
            return "uncaught exception: " + err.strip().splitlines()[-1]
        reason = self.checker.check(self.ops[k], status, out)
        if reason is None and self.digests is not None:
            if hashlib.sha256(out.encode()).hexdigest() != self.digests[k]:
                reason = "report differs from the committed seed-0 digest"
        if reason is None and self.ops[k].kind == "certify":
            self.classes[k] = json.loads(out)["report"]["patterns_checked"]
        return reason


def reference_s(budget: float) -> float:
    """Median iteration time of a fixed pure-Python integer loop that shares
    no code with mrgrid, iterated for about budget seconds (at least three
    times).

    On a shared host the speed of Python drifts by 10-70 % for seconds to
    minutes with no change in work; dividing op times by this loop's time,
    measured every REF_EVERY_S while they run (see ReferenceClock), cancels
    much of that drift.  The loop spends about half its time in bare integer
    arithmetic and half building lists, tuples and dict entries: in the
    host's slow spells the first half slowed down less than the workloads'
    ops and the second more, each by up to a fifth.
    """
    times = []
    end = perf_counter() + budget
    table = {}
    while len(times) < 3 or perf_counter() < end:
        t0 = perf_counter()
        acc = 1
        for i in range(4000):
            acc = (acc * 31 + i) % 65521
        for i in range(300):
            acc = (acc * 31 + i) % 65521
            table[acc & 1023] = acc
        rows = [[(i * 7 + j * 13) % 251 for j in range(12)] for i in range(12)]
        for c in range(12):
            p = rows[c]
            rows = [r if r is p else [(x - r[c] * y) % 251 for x, y in zip(r, p)]
                    for r in rows]
        seen = {tuple(q[k] for k in (2, 0, 1)) for q in permutations(range(6), 3)}
        table[len(seen)] = rows[-1][-1]
        times.append(perf_counter() - t0)
    return statistics.median(times)


class ReferenceClock:
    """A clock that stops while the reference loop runs, and the loop's times.

    Inside ``sampling()`` a SIGALRM timer interrupts whatever runs, ops
    included, every REF_EVERY_S of wall time, and times the reference loop
    for REF_SHARE of that interval.  ``now()`` leaves that time out, so op
    times and span times do not include it.
    """

    def __init__(self):
        self.paused = 0.0
        self.samples = []  # (clock time, reference loop seconds), in time order
        self._busy = False

    def now(self) -> float:
        return perf_counter() - self.paused

    def sample(self, *_):
        if self._busy:
            return
        self._busy = True
        t0 = perf_counter()
        try:
            self.samples.append((t0 - self.paused, reference_s(REF_SHARE * REF_EVERY_S)))
        finally:
            self.paused += perf_counter() - t0
            self._busy = False

    @contextlib.contextmanager
    def sampling(self):
        self.sample()
        previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, REF_EVERY_S, REF_EVERY_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            self.sample()

    def scaled(self, intervals) -> list:
        """Each (start, end) clock interval in reference units: the stretch
        between two samples is divided by the mean of the two.  intervals
        are in time order and lie between the first and the last sample."""
        s, out, j = self.samples, [], 0
        for a, b in intervals:
            while j + 2 < len(s) and s[j + 1][0] <= a:
                j += 1
            total, k, x = 0.0, j, a
            while x < b:
                end = min(s[k + 1][0], b) if k + 2 < len(s) else b
                total += (end - x) * 2 / (s[k][1] + s[k + 1][1])
                x, k = end, k + 1
            out.append(total)
        return out


def run_passes(ops, judge, budget, tracer_factory=None, field_counts=None):
    """Whole passes over ops for about budget seconds of op time.

    Each pass imports mrgrid afresh.  Returns the op durations in seconds
    and the same durations in reference units, one list per pass, each
    pass's tracer (None when untraced), and the reference loop times.
    """
    clock = ReferenceClock()
    passes, intervals, tracers, spent = [], [], [], 0.0
    with clock.sampling():
        # stop before a pass that would overrun the budget by more than half a pass
        while not passes or spent + sum(passes[-1]) / 2 < budget:
            cli = fresh_import().cli
            caches = cached_functions()
            tracer = tracer_factory(clock.now) if tracer_factory else None
            times = []
            for k, op in enumerate(ops):
                status, out, err, t0, t1 = execute(cli, caches, op, tracer, field_counts,
                                                   clock.now)
                judge(k, status, out, err)
                times.append(t1 - t0)
                intervals.append((t0, t1))
            passes.append(times)
            tracers.append(tracer)
            spent += sum(times)
    flat = iter(clock.scaled(intervals))
    scaled_passes = [[next(flat) for _ in p] for p in passes]
    return passes, scaled_passes, tracers, [r for _, r in clock.samples]


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------

def end_to_end(passes, scaled_passes, refs, setup, peak_rss_mb, ops, judge):
    """Reported metrics and info-only metrics, each as (value, unit).

    Time metrics are reported in units of the reference loop ("ref", see
    reference_s), setup_s as seconds at the loop's nominal speed
    (REF_NOMINAL_S); the same figures in seconds are printed for
    information.
    """
    times = [t for p in passes for t in p]
    scaled = [t for p in scaled_passes for t in p]
    (import_s, build_s), (import_ref, build_ref) = setup
    metrics = {
        "setup_s": ((import_ref + build_ref) * REF_NOMINAL_S, "s"),
        "wall_ref": (statistics.median(sum(p) for p in scaled_passes), "ref"),
        "ops_per_ref": (len(scaled) / sum(scaled), "1/ref"),
        "op_p50_ref": (statistics.median(scaled), "ref"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    extra = {"setup_wall_s": (import_s + build_s, "s"),
             "import_s": (import_s, "s"),
             "build_s": (build_s, "s"),
             "wall_s": (statistics.median(sum(p) for p in passes), "s"),
             "ops_per_s": (len(times) / sum(times), "1/s"),
             "op_p50_s": (statistics.median(times), "s"),
             "ref_s": (statistics.median(refs), "s"),
             "error_rate": (judge.failed / judge.attempted, "ratio"),
             "op_samples": (len(times), "count")}
    if len(times) >= 100:
        extra["op_p90_s"] = (statistics.quantiles(times, n=10, method="inclusive")[8], "s")
    certify = [k for k, op in enumerate(ops) if op.kind == "certify"]
    if certify and all(k in judge.classes for k in certify):
        busy = sum(p[k] for p in passes for k in certify)
        extra["classes_per_s"] = (len(passes) * sum(judge.classes[k] for k in certify) / busy,
                                  "1/s")
    return metrics, extra


def layer_metrics(tracer, judge, field_counts, dominant):
    st = tracing.self_times(tracer.spans)

    def calls(n):
        return st.get(n, (0, 0.0, 0.0))[0]

    def total(n):
        return st.get(n, (0, 0.0, 0.0))[1]

    def own(n):
        return st.get(n, (0, 0.0, 0.0))[2]

    counts = tracer.counts
    classes = counts.get("mr.classes_checked", 0)
    class_total = sum(judge.checker.class_total(*shape) for shape in tracer.certify_shapes)
    attacks = calls("mr.attack")
    m = {
        "galois.mul_ops": field_counts.get("mul", 0),
        "galois.inv_ops": field_counts.get("inv", 0),
        "galois.addsub_ops": sum(field_counts.get(op, 0) for op in ("add", "sub", "neg")),
        "galois.discrete_log_calls": calls("galois.discrete_log"),
        "galois.discrete_log_s": total("galois.discrete_log"),
        "gfmatrix.rank_calls": calls("gfmatrix.rank"),
        "gfmatrix.rank_s": total("gfmatrix.rank"),
        "gfmatrix.matrices_built": counts.get("gfmatrix.matrices_built", 0),
        "gfmatrix.solve_unique_calls": calls("gfmatrix.solve_unique"),
        "gfmatrix.solve_unique_s": total("gfmatrix.solve_unique"),
        "gfmatrix.mds_check_s": total("gfmatrix.mds_check"),
        "patterns.type_orbit_masks_calls": calls("patterns.type_orbit_masks"),
        "patterns.type_orbit_masks_s": total("patterns.type_orbit_masks"),
        "patterns.orbit_masks": counts.get("patterns.orbit_masks", 0),
        "patterns.enumerate_types_s": total("patterns.enumerate_types"),
        "patterns.is_irreducible_calls": calls("patterns.is_irreducible"),
        "patterns.is_irreducible_s": total("patterns.is_irreducible"),
        "codes.is_correctable_by_calls": calls("codes.is_correctable_by"),
        "codes.is_correctable_by_self_s": own("codes.is_correctable_by"),
        "codes.reduce_restricted_calls": calls("codes.reduce_restricted"),
        "codes.reduce_restricted_s": total("codes.reduce_restricted"),
        "codes.tensor_codes_built": calls("codes.TensorCode"),
        "codes.decode_calls": calls("codes.decode"),
        "codes.decode_s": total("codes.decode"),
        "mr.classes_checked": classes,
        "mr.sweep_fraction": classes / class_total if class_total else 0.0,
        "mr.certify_mr_self_s": own("mr.certify_mr"),
        "mr.search_mr_self_s": own("mr.search_mr"),
        "mr.search_fields_tried": calls("mr.search_mr"),
        "mr.attack_calls": attacks,
        "mr.attack_s": total("mr.attack"),
        "mr.attack_witness_ratio": counts.get("mr.attack_witnesses", 0) / attacks if attacks else 0.0,
        "cli.runs": calls("cli.run"),
        "cli.run_self_s": own("cli.run"),
    }
    for layer in tracing.LAYERS:
        m[f"{layer}.self_s"] = sum((v[2] for k, v in st.items() if k.split(".")[0] == layer), 0.0)
    group = sum(own(n) for n in dominant)
    rest = max((v[2] for k, v in st.items() if k not in dominant), default=0.0)
    m["dominant.share"] = group / sum(v[2] for v in st.values())
    m["dominant.lead"] = group / rest if rest else 0.0
    return m


def per_layer(untraced, traced, tracers, judge, field_counts, dominant):
    """Per-pass layer metrics (median over traced passes) and tracing overhead.

    untraced and traced are (passes, scaled passes) pairs; the overhead ratio
    compares pass times in reference units, so host drift between the halves
    cancels.
    """
    per_pass = [layer_metrics(t, judge, field_counts, dominant) for t in tracers]
    out = {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}

    def median_pass(passes):
        return statistics.median(sum(p) for p in passes)

    out["trace.overhead_s"] = median_pass(traced[0]) - median_pass(untraced[0])
    out["trace.overhead_ratio"] = median_pass(traced[1]) / median_pass(untraced[1]) - 1
    return out


# ----------------------------------------------------------------------
# one workload
# ----------------------------------------------------------------------

def run_workload(name, seed, seconds, trace, size="full"):
    workdir = HERE / ".work" / f"{name}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setup_s, setup_ref, ops = setup(name, seed, str(workdir), size)
        judge = Judge(name, ops, seed, size)
        if not trace:
            passes, scaled, _, refs = run_passes(ops, judge, seconds)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            judge.finish()
            again = setup(name, seed, str(workdir), size)
            setup_mins = ([min(x) for x in zip(setup_s, again[0])],
                          [min(x) for x in zip(setup_ref, again[1])])
            metrics, extra = end_to_end(passes, scaled, refs, setup_mins,
                                        peak_rss_mb, ops, judge)
            units = {k: u for k, (_, u) in {**metrics, **extra}.items()}
            values = {k: v for k, (v, _) in {**metrics, **extra}.items()}
            reported = list(metrics)
        else:
            dominant = LAYER_MAP["dominant"][name]["spans"]
            untraced = run_passes(ops, judge, seconds / 2)
            traced = run_passes(ops, judge, seconds / 2, tracing.Tracer)
            field_counts = {}
            run_passes(ops, judge, 0, field_counts=field_counts)
            judge.finish()
            values = per_layer(untraced[:2], traced[:2], traced[2], judge, field_counts,
                               dominant)
            units = {k: _unit(k) for k in values}
            reported = list(values)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            (HERE / ".work").rmdir()
    result = {"correct": judge.failed == 0, "attempted": judge.attempted,
              "failed": judge.failed,
              "metrics": {k: {"value": values[k], "unit": units[k]} for k in reported}}
    return result, values, units, judge


def _unit(metric):
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(("_ratio", "_fraction", ".share", ".lead")):
        return "ratio"
    return "count"


def stamp(seed):
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), platform.machine())
    except OSError:
        cpu = platform.machine()
    try:
        numpy = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy = None
    head = ROOT / ".git" / "HEAD"
    commit = None
    if head.exists():
        ref = head.read_text().strip()
        commit = ((ROOT / ".git" / ref[5:]).read_text().strip()
                  if ref.startswith("ref: ") and (ROOT / ".git" / ref[5:]).exists() else ref)
    src = hashlib.sha256()
    for path in sorted((SRC / "mrgrid").glob("*.py")):
        src.update(path.read_bytes())
    return {"nproc": os.cpu_count(), "python": platform.python_version(), "cpu": cpu,
            "numpy": numpy, "git_commit": commit, "src_sha256": src.hexdigest()[:16],
            "seed": seed}


def print_table(name, trace, values, units, reasons, reported):
    print(f"# workload {name} ({'traced' if trace else 'untraced'})")
    for k, v in values.items():
        mark = "" if k in reported else "  (info)"
        print(f"  {k:34s} {v:14.6g} {units[k]}{mark}")
    for r in reasons:
        print(f"  FAILED {r}")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="append one JSON record per workload to this file")
    args = p.parse_args(argv)
    if not (SRC / "mrgrid" / "__init__.py").is_file():
        sys.stderr.write(f"mrgrid sources not found under {SRC}\n")
        return 2
    os.environ.pop("MRGRID_THREADS", None)
    if args.workload == "all":
        return run_all(args)
    info = stamp(args.seed)
    print("# " + json.dumps(info, sort_keys=True))
    name = args.workload
    try:
        result, values, units, judge = run_workload(
            name, args.seed, args.seconds, bool(args.trace))
    except SetupError as exc:
        sys.stderr.write(f"set-up failed: {exc}\n")
        return 2
    print_table(name, args.trace, values, units, judge.reasons, result["metrics"])
    if args.out:
        with open(args.out, "a") as fh:
            fh.write(json.dumps({"workload": name, "trace": args.trace,
                                 "seconds": args.seconds,
                                 "stamp": info, "result": result,
                                 "info": values}, sort_keys=True) + "\n")
    print(json.dumps(result, sort_keys=True))
    return 0


def run_all(args):
    """Each workload in its own child process, so that none inherits the
    memory peak of another; the result line merges theirs, metric names
    prefixed with the workload."""
    results = {}
    for name in workloads.NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)] + (["--out", args.out] if args.out else [])
        child = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        lines = child.stdout.splitlines()
        if child.returncode != 0 or not lines:
            sys.stdout.write(child.stdout)
            return child.returncode or 2
        print("\n".join(lines[:-1]), flush=True)
        results[name] = json.loads(lines[-1])
    final = {"correct": all(r["correct"] for r in results.values()),
             "attempted": sum(r["attempted"] for r in results.values()),
             "failed": sum(r["failed"] for r in results.values()),
             "metrics": {f"{n}.{k}": v for n, r in results.items()
                         for k, v in r["metrics"].items()}}
    print(json.dumps(final, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
