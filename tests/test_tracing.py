import importlib
import importlib.util
from pathlib import Path

from mrgrid import ErasurePattern, FieldSpec, certify_mr, is_correctable_by, is_regular
from _support import simple_code

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_every_span_point_resolves_in_the_package():
    # the benchmark tracer wraps each (module, attr) of SPAN_POINTS with
    # setattr, so a name the package drops breaks every traced run
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.SPAN_POINTS
    missing = [(mod, attr) for mod, attr, _ in tracing.SPAN_POINTS
               if not callable(getattr(importlib.import_module(mod), attr, None))]
    assert missing == []


def test_the_benchmark_checkers_calls_keep_their_answers():
    # perfbench/checker.py checks every op with three calls into the package:
    # certify_mr(code, dedupe_rows=False) on each searched code, and brute
    # is_regular and the direct rank on each counterexample.  The keyword is
    # ignored, so both modes give one report
    good = simple_code(FieldSpec(1009), 4, 6, 3, [3, 17, 101, 444, 700, 958])
    bad = simple_code(FieldSpec(7), 4, 6, 2, [pow(3, t, 7) for t in range(6)])
    reports = []
    for code in (good, bad):
        rep = certify_mr(code, dedupe_rows=False)
        assert rep == certify_mr(code)
        reports.append((rep.verdict, rep.patterns_checked))
    assert reports == [("certified", 15), ("failed_pattern", 46)]
    e = rep.counterexample
    assert is_regular(bad.topology, e, mode="brute")
    grid = ErasurePattern.of((i, j) for i in range(4) for j in range(6))
    assert not is_regular(bad.topology, grid, mode="brute")
    assert not is_correctable_by(bad, e, method="direct")
    # the same cells are correctable in the certified code's T_4x6(1,3,0)
    # grid, where three cells per row break no parity of a rank-3 row code
    assert is_correctable_by(good, e, method="direct")
