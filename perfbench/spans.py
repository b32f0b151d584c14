"""Span recorder that measures nftsynth's layers from outside.

`Tracer.patched(nft)` replaces the public names listed in `LAYER_NAMES`
on the nftsynth modules with timing wrappers and restores them on exit;
the package itself is never edited.  Each wrapped call records a span
(name, start, end, parent, operation id) in memory.  `poly_mul` runs
~260k times per D=16384 operation, so its calls are not kept one by
one: they are summed into a counter block on the enclosing span
(calls, seconds, FFT-branch calls, computed flops and bytes).

Self time of a span is its duration minus the time its child spans and
its poly_mul calls cover.

`patch_attrs` is the one replace-and-restore helper; ops.py uses it too,
to read results back from the calls the CLI makes.
"""

import json
import math
from contextlib import contextmanager
from functools import partial
from time import perf_counter

# (module, attribute, span name).  Every module that imported a name gets
# its own patch, because `from .x import f` binds f in the importer too.
# `forward._mat_reduce` is defined in `inverse` and runs under its
# globals, so patching `inverse.poly_mul` covers both transforms.
LAYER_NAMES = (
    ("cli", "main", "cli"),
    ("synthesis", "make_ub", "specfact.make_ub"),
    ("asymptotics", "make_ub", "specfact.make_ub"),
    ("synthesis", "synthesize_ab", "synthesis.synthesize_ab"),
    ("cli", "synthesize_ab", "synthesis.synthesize_ab"),
    ("inverse", "invert_fast", "inverse.invert_fast"),
    ("cli", "invert_fast", "inverse.invert_fast"),
    ("cli", "invert_sequential", "inverse.invert_sequential"),
    ("forward", "forward_fast", "forward.forward_fast"),
    ("cli", "forward_fast", "forward.forward_fast"),
    ("forward", "reflection_coefficient", "forward.reflection_coefficient"),
    ("cli", "reflection_coefficient", "forward.reflection_coefficient"),
    ("cli", "find_eigenvalues", "forward.find_eigenvalues"),
    ("forward", "norming_constants", "forward.norming_constants"),
    ("cli", "norming_constants", "forward.norming_constants"),
    ("asymptotics", "asymptotic_reflection", "asymptotics.asymptotic_reflection"),
    ("cli", "asymptotic_reflection", "asymptotics.asymptotic_reflection"),
    ("asymptotics", "predict", "asymptotics.predict"),
    ("cli", "predict", "asymptotics.predict"),
)
POLY_MUL = "poly.poly_mul"

# poly counter block layout
CALLS, SECONDS, FFT_CALLS, FLOPS, BYTES = range(5)
COMPLEX_BYTES = 16


@contextmanager
def patch_attrs(replacements):
    """Set obj.attr = make(obj.attr) for each (obj, attr, make); restore on exit."""
    saved = []
    try:
        for obj, attr, make in replacements:
            orig = getattr(obj, attr)
            saved.append((obj, attr, orig))
            setattr(obj, attr, make(orig))
        yield
    finally:
        for obj, attr, orig in reversed(saved):
            setattr(obj, attr, orig)


def poly_mul_cost(lp, lq, cutoff):
    """(used_fft, flops, bytes) of one poly_mul, computed from input lengths.

    Direct convolution: lp*lq complex multiply-adds (8 flops each).  FFT
    branch: three length-m transforms (5 m log2 m flops each) plus m
    complex products, with each transform reading and writing m values.
    """
    n = lp + lq - 1
    io = COMPLEX_BYTES * (lp + lq + n)
    if n <= cutoff:
        return False, 8 * lp * lq, io
    m = 1 << (n - 1).bit_length()
    return True, 15 * m * math.log2(m) + 6 * m, io + COMPLEX_BYTES * 6 * m


class Span:
    """One call of a wrapped name; `poly` sums the poly_mul calls made directly in it."""

    __slots__ = ("sid", "parent", "op", "name", "start", "end", "poly", "child_s")

    def __init__(self, sid, parent, op, name, start):
        self.sid, self.parent, self.op, self.name = sid, parent, op, name
        self.start, self.end = start, None
        self.poly = [0, 0.0, 0, 0.0, 0]
        self.child_s = 0.0

    @property
    def duration(self):
        return self.end - self.start

    @property
    def self_s(self):
        return self.duration - self.child_s - self.poly[SECONDS]


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._op = None
        self._t0 = perf_counter()

    @contextmanager
    def operation(self, op_id, name):
        """Root span of one operation; every span inside carries `op_id`."""
        self._op = op_id
        try:
            with self.span(name):
                yield
        finally:
            self._op = None

    @contextmanager
    def span(self, name):
        parent = self._stack[-1] if self._stack else None
        s = Span(len(self.spans), parent.sid if parent else None, self._op,
                 name, perf_counter())
        self.spans.append(s)
        self._stack.append(s)
        try:
            yield s
        finally:
            s.end = perf_counter()
            self._stack.pop()
            if parent is not None:
                parent.child_s += s.duration

    def wrap(self, fn, name):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def wrap_poly_mul(self, fn, cutoff):
        stack = self._stack

        def traced_poly_mul(p, q):
            t0 = perf_counter()
            out = fn(p, q)
            dt = perf_counter() - t0
            used_fft, flops, nbytes = poly_mul_cost(len(p), len(q), cutoff)
            c = stack[-1].poly
            c[CALLS] += 1
            c[SECONDS] += dt
            c[FFT_CALLS] += used_fft
            c[FLOPS] += flops
            c[BYTES] += nbytes
            return out
        return traced_poly_mul

    def patched(self, nft):
        """Wrap every name in LAYER_NAMES plus inverse.poly_mul; restore on exit."""
        reps = [(getattr(nft, mod_name), attr, partial(self.wrap, name=span_name))
                for mod_name, attr, span_name in LAYER_NAMES]
        reps.append((nft.inverse, "poly_mul",
                     partial(self.wrap_poly_mul, cutoff=nft.poly._FFT_CUTOFF)))
        return patch_attrs(reps)

    def op_summary(self, op_id):
        """Per-name totals for one operation: {name: {calls, self_s, total_s, ...}}."""
        out = {}
        for s in self.spans:
            if s.op != op_id:
                continue
            row = out.setdefault(s.name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
            row["calls"] += 1
            row["self_s"] += s.self_s
            row["total_s"] += s.duration
            if s.poly[CALLS]:
                pm = out.setdefault(POLY_MUL, {"calls": 0, "self_s": 0.0, "total_s": 0.0,
                                                "fft_calls": 0, "flops": 0.0, "bytes": 0})
                pm["calls"] += s.poly[CALLS]
                pm["self_s"] += s.poly[SECONDS]
                pm["total_s"] += s.poly[SECONDS]
                pm["fft_calls"] += s.poly[FFT_CALLS]
                pm["flops"] += s.poly[FLOPS]
                pm["bytes"] += s.poly[BYTES]
                row["poly_mul_calls"] = row.get("poly_mul_calls", 0) + s.poly[CALLS]
        return out

    def write(self, path):
        """Write every span as one JSON line, times relative to tracer creation."""
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s.sid, "parent": s.parent, "op": s.op, "name": s.name,
                    "start_s": s.start - self._t0, "end_s": s.end - self._t0,
                    "self_s": s.self_s,
                    "poly_mul": dict(zip(("calls", "seconds", "fft_calls", "flops", "bytes"),
                                         s.poly)) if s.poly[CALLS] else None,
                }) + "\n")
