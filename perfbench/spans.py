"""Layer spans recorded from outside ``tsum``.

``Tracer.install`` wraps every public function defined in each layer
module of ``tsum`` and rebinds every module attribute (and every field of
a registry entry such as ``reductions.FAMILIES``) that *is* the original,
so calls made inside the package through names bound by ``from .x import
y`` are caught too.  Each call becomes a span: name, parent span, start
and end.  Spans stay in memory until the traced run writes them out.

``numeric`` holds leaf helpers called once per term; wrapping them would
dominate the traced run, so their time counts as self time of the caller.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import json
import statistics
import sys
import time

LAYERS = ("cli", "suite", "identities", "reductions", "series", "special", "jets")
KEYED = ("hurwitz_zeta", "alt_hurwitz_zeta", "digamma")  # cached in `special`
KERNELS = ("kernel_value", "kernel_jet")
CONSTANTS = ("riemann_zeta", "alt_zeta", "single_t", "single_t_bar", "dirichlet_beta",
             "ttilde", "ttilde_bar", "single_T", "single_T_bar")

# Every per-layer metric of a traced run, with its unit.
PER_LAYER_UNITS = {
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "series.accel.self_s": "s", "series.accel.calls": "count", "series.accel.terms": "count",
    "series.naive.self_s": "s", "series.naive.terms": "count", "series.naive.terms_per_s": "1/s",
    "series.partial_fractions.self_s": "s",
    **{f"special.{fn}.{m}": u for fn in KEYED
       for m, u in (("calls", "count"), ("self_s", "s"), ("first_self_s", "s"),
                    ("repeat_ratio", "ratio"))},
    "special.distinct_keys": "count",
    "special.kernel.self_s": "s", "special.psi_jet.self_s": "s", "special.constants.self_s": "s",
    "jets.calls": "count",
    "identities.calls": "count",
    "reductions.reduce_s": "s", "reductions.eval_symbolic_s": "s",
    "suite.case_p50_ms": "ms", "suite.case_p90_ms": "ms", "suite.cases": "count",
    "trace.cold_s": "s", "trace.unattributed_s": "s", "trace.spans": "count",
    "trace.overhead_ratio": "ratio",
}

# span record fields
NAME, PARENT, START, END, CHILD, EXTRA = range(6)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        seen = set() if name.split(".", 1)[1] in KEYED else None
        counts_terms = name in ("series.accel_linear_sum", "series.naive_sum")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            rec = [name, stack[-1] if stack else -1, 0.0, 0.0, 0.0, None]
            if seen is not None:
                key = (args, tuple(sorted(kwargs.items())))
                rec[EXTRA] = key not in seen
                seen.add(key)
            spans.append(rec)
            stack.append(sid)
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                rec[END] = end
                if rec[PARENT] >= 0:
                    spans[rec[PARENT]][CHILD] += end - rec[START]
            if counts_terms:
                rec[EXTRA] = result.terms_used
            return result

        return wrapper

    def install(self) -> None:
        """Wrap the public functions of every layer module of the imported ``tsum``."""
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"tsum.{layer}"]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__
                        and not inspect.isgeneratorfunction(obj)):
                    wrappers[obj] = self._wrap(f"{layer}.{attr}", obj)
        for name, mod in list(sys.modules.items()):
            if name != "tsum" and not name.startswith("tsum."):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._undo.append((mod, attr, obj, setattr))
                    setattr(mod, attr, wrappers[obj])
                elif isinstance(obj, dict):
                    for entry in obj.values():
                        self._rebind_fields(entry, wrappers)

    def _rebind_fields(self, entry, wrappers) -> None:
        if not dataclasses.is_dataclass(entry) or isinstance(entry, type):
            return
        for f in dataclasses.fields(entry):
            value = getattr(entry, f.name)
            if inspect.isfunction(value) and value in wrappers:
                # registry entries are frozen dataclasses
                self._undo.append((entry, f.name, value, object.__setattr__))
                object.__setattr__(entry, f.name, wrappers[value])

    def uninstall(self) -> None:
        for obj, attr, original, setter in reversed(self._undo):
            setter(obj, attr, original)
        self._undo.clear()

    def dump(self, path, t0: float) -> None:
        """Write the spans, times relative to ``t0``, as one JSON document."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "parent", "start_s", "end_s"],
                       "spans": [[s[NAME], s[PARENT], round(s[START] - t0, 7),
                                  round(s[END] - t0, 7)] for s in self.spans]}, fh)


def layer_metrics(spans: list[list], cold_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass that took ``cold_s`` seconds.

    Self time is a span's duration minus the time its child spans cover.
    ``trace.unattributed_s`` is the part of the pass outside every span, so
    the layer self times plus it add up to ``trace.cold_s``.
    """
    m = {name: 0.0 for name in PER_LAYER_UNITS}
    keys: set = set()
    first_calls = {fn: 0 for fn in KEYED}
    case_ms = []
    roots = 0.0
    for name, parent, start, end, child, extra in spans:
        dur = end - start
        self_s = dur - child
        layer, fn = name.split(".", 1)
        m[f"{layer}.self_s"] += self_s
        if parent < 0:
            roots += dur
        if fn in KEYED:
            m[f"special.{fn}.calls"] += 1
            m[f"special.{fn}.self_s"] += self_s
            if extra:
                first_calls[fn] += 1
                m[f"special.{fn}.first_self_s"] += self_s
        elif name == "series.accel_linear_sum":
            m["series.accel.self_s"] += self_s
            m["series.accel.calls"] += 1
            m["series.accel.terms"] += extra or 0
        elif name == "series.naive_sum":
            m["series.naive.self_s"] += self_s
            m["series.naive.terms"] += extra or 0
        elif name == "series.partial_fractions":
            m["series.partial_fractions.self_s"] += self_s
        elif fn in KERNELS:
            m["special.kernel.self_s"] += self_s
        elif name == "special.psi_jet":
            m["special.psi_jet.self_s"] += self_s
        elif layer == "special" and fn in CONSTANTS:
            m["special.constants.self_s"] += self_s
        elif name == "suite.run_case":
            case_ms.append(dur * 1000.0)
        elif name == "reductions.eval_symbolic":
            m["reductions.eval_symbolic_s"] += self_s
        elif layer == "reductions" and fn.startswith("reduce_"):
            m["reductions.reduce_s"] += self_s
        if layer in ("jets", "identities"):
            m[f"{layer}.calls"] += 1
    for fn in KEYED:
        calls = m[f"special.{fn}.calls"]
        m[f"special.{fn}.repeat_ratio"] = (calls - first_calls[fn]) / calls if calls else 0.0
    m["special.distinct_keys"] = sum(first_calls.values())
    if m["series.naive.self_s"] > 0:
        m["series.naive.terms_per_s"] = m["series.naive.terms"] / m["series.naive.self_s"]
    if case_ms:
        m["suite.cases"] = len(case_ms)
        m["suite.case_p50_ms"] = statistics.median(case_ms)
        m["suite.case_p90_ms"] = (statistics.quantiles(case_ms, n=10)[-1]
                                  if len(case_ms) > 1 else case_ms[0])
    m["trace.cold_s"] = cold_s
    m["trace.unattributed_s"] = cold_s - roots
    m["trace.spans"] = len(spans)
    return m


def self_time_residual(m: dict[str, float]) -> float:
    """Layer self times plus ``trace.unattributed_s`` minus ``trace.cold_s``;
    zero up to rounding when every span's time is accounted once."""
    total = sum(m[f"{layer}.self_s"] for layer in LAYERS) + m["trace.unattributed_s"]
    return total - m["trace.cold_s"]
