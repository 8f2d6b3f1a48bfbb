"""Span tracer that wraps lowdisc's public functions from outside.

Nothing in the program changes.  ``Tracer.install`` replaces each traced
public function by a timing wrapper at every lowdisc module that binds
the name (``cli`` binds ``l2_exact``, ``nets`` binds ``kernel_basis``, the
package binds ``read_point_file``), and wraps ``PointSet`` and ``DualSpace``
methods on the class.  Private helpers are never wrapped, so they can be
renamed or deleted freely; a public name that disappears reads as zero.

Spans stay in memory; ``metrics`` turns them into per-layer numbers when
the run ends:

- ``<span>.s`` total time, ``.self_s`` time not covered by traced
  children, ``.calls``, plus counters taken from arguments and results;
- ``constructions.matrices.*``: all ``*_matrices`` functions together,
  counting only calls not nested in another of them;
- ``<layer>.self_s``: the self time of all spans of that layer.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from contextlib import contextmanager

TRACED = {
    "cli": ("main", "build_matrices", "build_points", "cmd_construct", "cmd_verify",
            "cmd_discrepancy", "cmd_scaling"),
    "constructions": ("cs_matrices", "faure_matrices", "niederreiter_net_matrices",
                      "interlace_matrices", "dp_net_matrices", "interlace_pointset", "dp_net",
                      "dp_finite_base", "dp_finite_pointset", "dp_sequence", "arbitrary_n_trim",
                      "davenport_symmetrized", "van_der_corput"),
    "nets": ("generate_net_points", "generate_sequence_points", "compute_t_value",
             "geometric_net_check", "dual_space", "char_property_sum", "PointSet.__init__",
             "PointSet.digit_array", "PointSet.float_array", "PointSet.prefix",
             "DualSpace.element_digits", "DualSpace.elements", "DualSpace.contains"),
    "field": ("kernel_basis", "matrix_rank"),
    "weights": ("min_dual_weight", "verify_order_alpha"),
    "discrepancy": ("l2_exact", "lq_estimate"),
    "pointfile": ("dumps_point_file", "loads_point_file", "write_point_file", "read_point_file"),
}
LAYERS = tuple(TRACED)
MATRIX_GROUP = "constructions.matrices"


def _points(args, result):
    return (len(result),)


# span name -> (counter names, counter values from the bound arguments and the result)
COUNTERS = {
    "constructions.interlace_pointset": (("points",), _points),
    "constructions.arbitrary_n_trim": (("points",), _points),
    "constructions.davenport_symmetrized": (("points",), _points),
    "nets.generate_net_points": (("points",), _points),
    "nets.generate_sequence_points": (("points",), _points),
    "nets.dual_space": (("elements",), lambda a, r: (r.size,)),
    "weights.min_dual_weight": (("elements",), lambda a, r: (a["dual"].size,)),
    # the float path's per-block temporary: 256 rows x N x s float64 (computed, not measured)
    "discrepancy.l2_exact": (("pairs", "temp_bytes"), lambda a, r: (r.N**2, 256 * r.N * r.s * 8)),
    "discrepancy.lq_estimate": (("comparisons",), lambda a, r: (a["samples"] * r.N * r.s,)),
    "pointfile.dumps_point_file": (("bytes",), lambda a, r: (len(r),)),
    "pointfile.loads_point_file": (("bytes",), lambda a, r: (len(a["text"]),)),
}
PEAK_COUNTERS = {"temp_bytes"}  # reported as the maximum over calls, not the sum
RATES = {"points": ("points_per_s", 1.0), "pairs": ("pairs_per_s", 1.0),
         "comparisons": ("comparisons_per_s", 1.0), "bytes": ("mb_per_s", 1e-6)}


def _span_name(layer: str, qualname: str) -> str:
    cls, _, method = qualname.partition(".")
    return f"{layer}.{cls}" if method == "__init__" else f"{layer}.{qualname}"


def covered_length(start: float, end: float, intervals) -> float:
    """Length of [start, end] covered by the union of the intervals."""
    total, reach = 0.0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the part its direct children cover.

    ``spans`` holds (name, start, end, parent index or -1, counters).
    """
    children = [[] for _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    return [end - start - covered_length(start, end, kids)
            for (_, start, end, _, _), kids in zip(spans, children)]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.names = [_span_name(layer, q) for layer, names in TRACED.items() for q in names]
        self._stack: list[int] = []
        self._undo: list[tuple] = []
        self._active = True

    def _wrap(self, name, fn):
        keys, counter = COUNTERS.get(name, ((), None))
        signature = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self._active:
                return fn(*args, **kwargs)
            index = len(self.spans)
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, None]
            self.spans.append(span)
            self._stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if counter:
                span[4] = tuple(zip(keys, counter(signature.bind(*args, **kwargs).arguments, result)))
            return result

        return traced

    def install(self) -> None:
        layers = {layer: importlib.import_module("lowdisc." + layer) for layer in LAYERS}
        modules = [m for n, m in list(sys.modules.items())
                   if n == "lowdisc" or n.startswith("lowdisc.")]
        for layer, qualnames in TRACED.items():
            module = layers[layer]
            for qualname in qualnames:
                name = _span_name(layer, qualname)
                if "." in qualname:
                    cls_name, method = qualname.split(".")
                    cls = getattr(module, cls_name, None)
                    original = vars(cls).get(method) if cls is not None else None
                    if original is not None:
                        setattr(cls, method, self._wrap(name, original))
                        self._undo.append((cls, method, original))
                    continue
                original = getattr(module, qualname, None)
                if original is None:
                    continue
                wrapper = self._wrap(name, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._undo.append((mod, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    @contextmanager
    def paused(self):
        """Calls made inside (output checks) record no spans."""
        self._active = False
        try:
            yield
        finally:
            self._active = True

    def metrics(self) -> dict[str, float]:
        return span_metrics(self.spans, self.names)


def in_matrix_group(name: str) -> bool:
    return name.startswith("constructions.") and name.endswith("_matrices")


def span_metrics(spans, names) -> dict[str, float]:
    """Per-layer metrics from spans; every name in ``names`` is reported, called or not."""
    out: dict[str, float] = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    for name in names:
        out.update({f"{name}.s": 0.0, f"{name}.self_s": 0.0, f"{name}.calls": 0})
    out.update({f"{MATRIX_GROUP}.s": 0.0, f"{MATRIX_GROUP}.calls": 0})
    counters = {f"{name}.{key}": 0 for name, (keys, _) in COUNTERS.items() for key in keys}

    def add(key, value):
        out[key] = out.get(key, 0) + value

    for (name, start, end, parent, counts), own in zip(spans, self_times(spans)):
        add(f"{name}.s", end - start)
        add(f"{name}.self_s", own)
        add(f"{name}.calls", 1)
        add(name.split(".")[0] + ".self_s", own)
        for key, value in counts or ():
            full = f"{name}.{key}"
            counters[full] = max(counters[full], value) if key in PEAK_COUNTERS else counters[full] + value
        if in_matrix_group(name):
            ancestor = parent
            while ancestor >= 0 and not in_matrix_group(spans[ancestor][0]):
                ancestor = spans[ancestor][3]
            if ancestor < 0:
                add(f"{MATRIX_GROUP}.s", end - start)
                add(f"{MATRIX_GROUP}.calls", 1)
    for full, value in counters.items():
        out[full] = value
        name, _, key = full.rpartition(".")
        if key in RATES:
            rate, scale = RATES[key]
            seconds = out.get(f"{name}.s", 0.0)
            out[f"{name}.{rate}"] = value * scale / seconds if seconds > 0 else 0.0
    return out
