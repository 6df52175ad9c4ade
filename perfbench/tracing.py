"""Spans around calls into each mrgrid layer, recorded from outside the package.

``Tracer.patched()`` swaps each public function for a wrapper at the name its
caller looks it up by (``mrgrid.codes.rank``, ``mrgrid.mr.rank``, ...), so
that no file of the package changes.  A span is ``[id, parent, name, start,
end]``; spans stay in memory until the run ends.  A layer's self time is its
span time minus the time of its child spans.

``count_field_ops()`` is a separate, untimed pass that counts calls of the
``FieldSpec`` arithmetic methods.
"""

from __future__ import annotations

import contextlib
import sys
from time import perf_counter

# (module, attribute, span name): every name a caller looks a layer up by.
SPAN_POINTS = [
    ("mrgrid.cli", "certify_mr", "mr.certify_mr"),
    ("mrgrid.cli", "search_mr", "mr.search_mr"),
    ("mrgrid.cli", "attack_t4", "mr.attack"),
    ("mrgrid.cli", "attack_t3", "mr.attack"),
    ("mrgrid.cli", "decode", "codes.decode"),
    ("mrgrid.mr", "certify_mr", "mr.certify_mr"),
    ("mrgrid.mr", "is_correctable_by", "codes.is_correctable_by"),
    ("mrgrid.mr", "build_pseudo_parity", "codes.build_pseudo_parity"),
    ("mrgrid.mr", "rank", "gfmatrix.rank"),
    ("mrgrid.mr", "every_w_columns_independent", "gfmatrix.mds_check"),
    ("mrgrid.mr", "enumerate_types", "patterns.enumerate_types"),
    ("mrgrid.mr", "type_orbit_masks", "patterns.type_orbit_masks"),
    ("mrgrid.mr", "discrete_log", "galois.discrete_log"),
    ("mrgrid.mr", "primitive_element", "galois.primitive_element"),
    ("mrgrid.codes", "rank", "gfmatrix.rank"),
    ("mrgrid.codes", "solve_unique", "gfmatrix.solve_unique"),
    ("mrgrid.codes", "is_irreducible", "patterns.is_irreducible"),
    ("mrgrid.codes", "reduce_restricted", "codes.reduce_restricted"),
    ("mrgrid.codes", "build_pseudo_parity", "codes.build_pseudo_parity"),
]
LAYERS = ("galois", "gfmatrix", "patterns", "codes", "mr", "cli")
FIELD_OPS = ("add", "sub", "neg", "mul", "inv", "div", "pow")


class Tracer:
    def __init__(self, clock=perf_counter):
        self.clock = clock
        self.spans: list = []
        self.stack: list = []
        self.counts: dict = {}
        self.certify_shapes: list = []  # (m, b, n) of each certify_mr call

    def bump(self, key, by=1):
        self.counts[key] = self.counts.get(key, 0) + by

    def call(self, name, fn, *args, **kw):
        spans, stack = self.spans, self.stack
        rec = [len(spans), stack[-1] if stack else -1, name, self.clock(), 0.0]
        spans.append(rec)
        stack.append(rec[0])
        try:
            result = fn(*args, **kw)
        finally:
            rec[4] = self.clock()
            stack.pop()
        hook = _HOOKS.get(name)
        if hook is not None:
            hook(self, args, result)
        return result

    def _wrap(self, name, fn):
        def traced(*args, **kw):
            return self.call(name, fn, *args, **kw)
        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def patched(self):
        """Route every span point and constructor through this tracer."""
        from mrgrid.codes import TensorCode
        from mrgrid.gfmatrix import GFMatrix
        saved = []
        try:
            for mod, attr, name in SPAN_POINTS:
                module = sys.modules[mod]
                fn = getattr(module, attr)
                saved.append((module, attr, fn))
                setattr(module, attr, self._wrap(name, fn))
            post_init = TensorCode.__post_init__
            saved.append((TensorCode, "__post_init__", post_init))
            TensorCode.__post_init__ = self._wrap("codes.TensorCode", post_init)
            gf_init = GFMatrix.__init__
            saved.append((GFMatrix, "__init__", gf_init))

            def counted_init(obj, *args, **kw):
                self.bump("gfmatrix.matrices_built")
                gf_init(obj, *args, **kw)
            GFMatrix.__init__ = counted_init
            yield self
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)


def _certify_hook(tracer, args, report):
    tracer.bump("mr.classes_checked", report.patterns_checked)
    t = args[0].topology
    tracer.certify_shapes.append((t.m, t.b, t.n))


def _attack_hook(tracer, args, outcome):
    tracer.bump("mr.attack_witnesses", outcome is not None)


def _orbit_hook(tracer, args, masks):
    tracer.bump("patterns.orbit_masks", len(masks))


_HOOKS = {"mr.certify_mr": _certify_hook, "mr.attack": _attack_hook,
          "patterns.type_orbit_masks": _orbit_hook}


def self_times(spans) -> dict:
    """Per span name: (calls, total seconds, self seconds)."""
    child = [0.0] * len(spans)
    for sid, parent, _, start, end in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict = {}
    for sid, _, name, start, end in spans:
        calls, total, own = out.get(name, (0, 0.0, 0.0))
        out[name] = (calls + 1, total + end - start, own + end - start - child[sid])
    return out


@contextlib.contextmanager
def count_field_ops(counts: dict):
    """Count calls of each FieldSpec arithmetic method (div and pow included,
    and the mul and inv calls div makes)."""
    from mrgrid.galois import FieldSpec
    saved = {op: getattr(FieldSpec, op) for op in FIELD_OPS}

    def counting(op, fn):
        def wrapper(*args):
            counts[op] = counts.get(op, 0) + 1
            return fn(*args)
        return wrapper

    try:
        for op, fn in saved.items():
            setattr(FieldSpec, op, counting(op, fn))
        yield counts
    finally:
        for op, fn in saved.items():
            setattr(FieldSpec, op, fn)
