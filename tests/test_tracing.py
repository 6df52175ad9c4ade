import importlib
import importlib.util
from pathlib import Path

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
