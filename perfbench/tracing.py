"""Span tracing of effham's public functions and methods, patched at run time.

:func:`install` wraps every public function and method of the traced
modules and rebinds the wrapper in every ``effham`` module (and the
package itself) that holds the original object, so a call made through
``effham.heff_n_timedep``, ``effham.builder.heff_n_timedep`` or the
``builder.heff_n_timedep`` lookup inside ``effham.diagnostics`` is seen
alike. Each call appends one span ``[name, start, end, parent, case,
note]`` to an in-memory list; :func:`summarize` turns one pass of spans
into per-layer totals, and :func:`layer_metrics` into the per-layer
metrics of ``BENCHMARK.json``. Nothing under ``src/`` is changed.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import inspect
import sys
import time
from collections import defaultdict

#: Modules whose public names are traced; the first path component is the layer.
TRACED_MODULES = ("tones", "series", "model", "builder", "oracle",
                  "diagnostics", "metrics", "dsl", "cli")

#: Operator methods traced besides public names (not on dataclasses, whose
#: dunders are generated).
TRACED_DUNDERS = ("__init__", "__add__", "__sub__", "__neg__", "__mul__",
                  "__rmul__", "__call__")


def _arg(args, kwargs, index, name, default=None):
    return args[index] if len(args) > index else kwargs.get(name, default)


def _materialize(index, name):
    """Turn the iterable argument at ``index``/``name`` into a tuple, so its
    length can be read; the wrapped function iterates it once either way."""

    def prepare(args, kwargs):
        if len(args) > index:
            return args[:index] + (tuple(args[index]),) + args[index + 1:], kwargs
        if name in kwargs:
            return args, {**kwargs, name: tuple(kwargs[name])}
        return args, kwargs

    return prepare


def _model_key(H) -> str:
    hasher = hashlib.sha1()
    for tone in H.tones:
        hasher.update(repr(tone.omega).encode())
        hasher.update(tone.h.tobytes())
    return hasher.hexdigest()


def _note_poly_init(args, kwargs, out):
    return {"in": len(_arg(args, kwargs, 1, "terms", ())), "out": len(args[0].terms)}


def _note_series_init(args, kwargs, out):
    self = args[0]
    slots = len(self.entries)
    return {"in": len(_arg(args, kwargs, 2, "entries", ())), "out": slots,
            "bytes": slots * self.dim * self.dim * 16}


def _note_series_mul(args, kwargs, out):
    other = args[1]
    if not hasattr(other, "entries"):
        return {"pairs": 0}
    return {"pairs": len(args[0].entries) * len(other.entries)}


def _note_series_grid(args, kwargs, out):
    return {"points_x_slots": out.shape[0] * len(args[0].entries)}


def _note_model_grid(args, kwargs, out):
    return {"points": out.shape[0]}


def _note_heff_n(args, kwargs, out):
    n = int(_arg(args, kwargs, 1, "n"))
    return {"order": n, "key": (_model_key(_arg(args, kwargs, 0, "H")), n)}


def _note_propagate(args, kwargs, out):
    # coarse run at `steps` plus fine run at 2*steps; none when t == 0
    t = float(_arg(args, kwargs, 1, "t"))
    return {"steps": 3 * out.steps if t != 0.0 else 0}


def _note_to_json(args, kwargs, out):
    return {"bytes": len(out)}


NOTES = {
    "tones.TonePoly.__init__": (_materialize(1, "terms"), _note_poly_init),
    "series.OperatorSeries.__init__": (_materialize(2, "entries"), _note_series_init),
    "series.OperatorSeries.__mul__": (None, _note_series_mul),
    "series.OperatorSeries.evaluate_grid": (None, _note_series_grid),
    "model.MultiToneHamiltonian.evaluate_grid": (None, _note_model_grid),
    "builder.heff_n_timedep": (None, _note_heff_n),
    "oracle.propagate_exact": (None, _note_propagate),
    "oracle.propagate_series": (None, _note_propagate),
    "diagnostics.Report.to_json": (None, _note_to_json),
}


class Tracer:
    """In-memory span recorder. ``case`` tags every span opened while it is
    set; while it is ``None`` the patched names record nothing."""

    def __init__(self):
        self.spans: list[list] = []
        self.case: str | None = None
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        prepare, note = NOTES.get(name, (None, None))
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.case is None:  # output checks between timed calls
                return fn(*args, **kwargs)
            if prepare is not None:
                args, kwargs = prepare(args, kwargs)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.case, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if note is not None:
                rec[5] = note(args, kwargs, out)
            return out

        return traced

    def install(self) -> int:
        """Patch every traced name; returns the number of bindings replaced."""
        wrappers: dict[int, object] = {}
        for layer in TRACED_MODULES:
            mod = sys.modules[f"effham.{layer}"]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrappers[id(obj)] = (obj, self.wrap(f"{layer}.{attr}", obj))
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._patch_class(layer, obj)
        for modname, mod in list(sys.modules.items()):
            if modname != "effham" and not modname.startswith("effham."):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._undo.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])
        return len(self._undo)

    def _patch_class(self, layer: str, cls):
        dunders = () if dataclasses.is_dataclass(cls) else TRACED_DUNDERS
        for attr, obj in list(vars(cls).items()):
            if not inspect.isfunction(obj):
                continue
            if attr.startswith("_") and attr not in dunders:
                continue
            self._undo.append((cls, attr, obj))
            setattr(cls, attr, self.wrap(f"{layer}.{cls.__name__}.{attr}", obj))

    def uninstall(self):
        for owner, attr, obj in reversed(self._undo):
            setattr(owner, attr, obj)
        self._undo.clear()

    def take(self) -> list[list]:
        """Return the spans recorded so far and start a fresh list."""
        spans = self.spans[:]
        self.spans.clear()
        return spans


# ----------------------------------------------------------------------
# span analysis


def summarize(spans: list[list]) -> dict:
    """Per span name: calls, inclusive and self seconds, summed notes.

    Self time is a span's duration minus the durations of its direct
    children. Also collects the series' largest computed size, the
    distinct heff_n builds per case, and the model grid points evaluated
    under a quad_oracle span.
    """
    child = [0.0] * len(spans)
    for rec in spans:
        if rec[3] >= 0:
            child[rec[3]] += rec[2] - rec[1]
    names = _name_table()
    max_bytes = 0
    heff_keys = set()
    quad_points = 0
    for i, (name, start, end, parent, case, note) in enumerate(spans):
        agg = names[name]
        agg["calls"] += 1
        agg["s"] += end - start
        agg["self_s"] += end - start - child[i]
        if note:
            for key, value in note.items():
                if key == "key":
                    heff_keys.add((case, value))
                elif key == "order":
                    names[f"{name}.o{value}"]["s"] += end - start
                else:
                    agg["notes"][key] += value
            if name == "series.OperatorSeries.__init__":
                max_bytes = max(max_bytes, note["bytes"])
            if name == "model.MultiToneHamiltonian.evaluate_grid":
                p = parent
                while p >= 0:
                    if spans[p][0] == "oracle.quad_oracle":
                        quad_points += note["points"]
                        break
                    p = spans[p][3]
    return {"names": names, "max_bytes": max_bytes,
            "heff_builds": len(heff_keys), "quad_points": quad_points,
            "spans": len(spans)}


def _name_table() -> dict[str, dict]:
    return defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0,
                                "notes": defaultdict(float)})


def merge(total: dict | None, part: dict) -> dict:
    """Add one :func:`summarize` result into a running total."""
    if total is None:
        total = {"names": _name_table(), "max_bytes": 0, "heff_builds": 0,
                 "quad_points": 0, "spans": 0}
    for name, agg in part["names"].items():
        dst = total["names"][name]
        dst["calls"] += agg["calls"]
        dst["s"] += agg["s"]
        dst["self_s"] += agg["self_s"]
        for key, value in agg["notes"].items():
            dst["notes"][key] += value
    total["max_bytes"] = max(total["max_bytes"], part["max_bytes"])
    for key in ("heff_builds", "quad_points", "spans"):
        total[key] += part[key]
    return total


# Per-layer metrics: (name, unit, how, span names). ``how`` is "calls",
# "s" (inclusive seconds), "self_s", or "note:<key>" (summed note). All are
# per traced pass, except where layer_metrics derives them otherwise.
POLY_MUL = ("tones.TonePoly.__mul__", "tones.TonePoly.__rmul__")
POLY_INIT = ("tones.TonePoly.__init__",)
SERIES_INIT = ("series.OperatorSeries.__init__",)
SERIES_MUL = ("series.OperatorSeries.__mul__",)
HEFF_N = ("builder.heff_n_timedep",)
DYSON = ("builder.dyson_term",)
MODEL_GRID = ("model.MultiToneHamiltonian.evaluate_grid",)
PROPAGATE = ("oracle.propagate_exact", "oracle.propagate_series")
QUAD = ("oracle.quad_oracle",)
DEFECTS = ("metrics.hermiticity_defect", "metrics.unitarity_defect")

SPEC = [
    ("tones.poly_mul.calls", "count", "calls", POLY_MUL),
    ("tones.poly_mul.self_s", "s", "self_s", POLY_MUL),
    ("tones.integrate.self_s", "s", "self_s", ("tones.TonePoly.integrate_from_zero",)),
    ("tones.poly_init.terms_in", "count", "note:in", POLY_INIT),
    ("tones.poly_init.terms_out", "count", "note:out", POLY_INIT),
    ("series.init.self_s", "s", "self_s", SERIES_INIT),
    ("series.init.entries_in", "count", "note:in", SERIES_INIT),
    ("series.init.slots_out", "count", "note:out", SERIES_INIT),
    ("series.mul.calls", "count", "calls", SERIES_MUL),
    ("series.mul.pairs", "count", "note:pairs", SERIES_MUL),
    ("series.mul.self_s", "s", "self_s", SERIES_MUL),
    ("series.integrate.self_s", "s", "self_s", ("series.OperatorSeries.integrate_from_zero",)),
    ("series.evaluate_grid.self_s", "s", "self_s", ("series.OperatorSeries.evaluate_grid",)),
    ("series.evaluate_grid.points_x_slots", "count", "note:points_x_slots",
     ("series.OperatorSeries.evaluate_grid",)),
    ("series.residual.self_s", "s", "self_s", ("series.series_residual",)),
    *[(f"builder.heff_n.s.o{n}", "s", "s", (f"builder.heff_n_timedep.o{n}",))
      for n in range(2, 7)],
    ("builder.heff_n.calls", "count", "calls", HEFF_N),
    ("builder.dyson_term.s", "s", "s", DYSON),
    ("builder.dyson_term.calls", "count", "calls", DYSON),
    ("builder.heff_secular.s", "s", "s", ("builder.heff_secular",)),
    ("model.evaluate_grid.calls", "count", "calls", MODEL_GRID),
    ("model.evaluate_grid.points", "count", "note:points", MODEL_GRID),
    ("model.evaluate_grid.self_s", "s", "self_s", MODEL_GRID),
    ("model.frequency_report.s", "s", "s", ("model.frequency_report",)),
    ("model.to_operator_series.calls", "count", "calls",
     ("model.MultiToneHamiltonian.to_operator_series",)),
    ("oracle.propagate_exact.s", "s", "s", ("oracle.propagate_exact",)),
    ("oracle.propagate_series.s", "s", "s", ("oracle.propagate_series",)),
    ("oracle.rk4.steps", "count", "note:steps", PROPAGATE),
    ("oracle.quad_oracle.calls", "count", "calls", QUAD),
    ("oracle.quad_oracle.s", "s", "s", QUAD),
    ("diagnostics.run_report.s", "s", "s", ("diagnostics.run_report",)),
    ("diagnostics.run_report.self_s", "s", "self_s", ("diagnostics.run_report",)),
    ("diagnostics.eq6_gap_grid.s", "s", "s", ("diagnostics.eq6_gap_grid",)),
    ("diagnostics.to_json.s", "s", "s", ("diagnostics.Report.to_json",)),
    ("diagnostics.json_bytes", "bytes", "note:bytes", ("diagnostics.Report.to_json",)),
    ("metrics.defect.calls", "count", "calls", DEFECTS),
    ("metrics.defect.self_s", "s", "self_s", DEFECTS),
    ("dsl.load_model.s", "s", "s", ("dsl.load_model",)),
    ("dsl.parse_model.s", "s", "s", ("dsl.parse_model",)),
    ("dsl.compile_model.s", "s", "s", ("dsl.compile_model",)),
    ("cli.main.s", "s", "s", ("cli.main",)),
    ("cli.main.self_s", "s", "self_s", ("cli.main",)),
]

#: Layers each workload must exercise, as per-layer metrics that must be
#: non-zero in its traced run. A zero means a patched name is no longer called.
EXPECTED_NONZERO = {
    "closed_form": ["tones.poly_mul.calls", "tones.poly_init.terms_in",
                    "tones.integrate.self_s", "series.init.entries_in",
                    "series.mul.pairs", "series.integrate.self_s",
                    "series.residual.self_s", "builder.heff_n.calls",
                    "builder.dyson_term.calls", "model.to_operator_series.calls"],
    "report": ["tones.poly_mul.calls", "series.mul.pairs",
               "series.evaluate_grid.points_x_slots", "builder.heff_n.calls",
               "builder.dyson_term.calls", "builder.heff_secular.s",
               "model.to_operator_series.calls", "model.evaluate_grid.points",
               "model.frequency_report.s", "oracle.quad_oracle.calls",
               "diagnostics.run_report.s", "diagnostics.eq6_gap_grid.s",
               "diagnostics.json_bytes", "metrics.defect.calls",
               "dsl.load_model.s", "dsl.parse_model.s", "dsl.compile_model.s",
               "cli.main.s"],
    "oracle": ["model.evaluate_grid.calls", "model.evaluate_grid.points",
               "series.evaluate_grid.points_x_slots", "oracle.propagate_exact.s",
               "oracle.propagate_series.s", "oracle.rk4.steps",
               "oracle.quad_oracle.calls", "oracle.quad_oracle.points"],
}


def _value(names, how: str, spans) -> float:
    if how.startswith("note:"):
        key = how[5:]
        return float(sum(names[s]["notes"].get(key, 0.0) for s in spans if s in names))
    return float(sum(names[s][how] for s in spans if s in names))


def layer_metrics(total: dict, passes: int, gate: dict | None, speed: float,
                  traced_pass_s: float, untraced_pass_s: float) -> dict[str, dict]:
    """Per-layer metrics per traced pass, plus the derived ratios.

    Times are divided by ``speed``, the traced half's speed factor, as the
    end-to-end times are; ``traced_pass_s`` is raw and ``untraced_pass_s``
    already scaled. ``series.residual.self_s`` comes from ``gate`` (the
    traced correctness gate), since no timed pass calls ``series_residual``.
    """
    names = total["names"]
    out: dict[str, dict] = {}
    for name, unit, how, spans in SPEC:
        out[name] = {"value": _value(names, how, spans) / passes, "unit": unit}
    residual = ("series.series_residual",)
    out["series.residual.self_s"]["value"] = (
        _value(gate["names"], "self_s", residual) if gate else 0.0
    )

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    steps = _value(names, "note:steps", PROPAGATE)
    out["tones.merge_ratio"] = {"value": ratio(_value(names, "note:out", POLY_INIT),
                                               _value(names, "note:in", POLY_INIT)),
                                "unit": "ratio"}
    out["series.slot_yield"] = {"value": ratio(_value(names, "note:out", SERIES_INIT),
                                               _value(names, "note:in", SERIES_INIT)),
                                "unit": "ratio"}
    out["series.max_bytes_computed"] = {"value": float(total["max_bytes"]), "unit": "bytes"}
    out["builder.heff_n.rebuilds"] = {
        "value": ratio(_value(names, "calls", HEFF_N), total["heff_builds"]),
        "unit": "ratio",
    }
    out["oracle.rk4.us_per_step"] = {"value": 1e6 * ratio(_value(names, "s", PROPAGATE), steps),
                                     "unit": "us"}
    out["oracle.quad_oracle.points"] = {"value": total["quad_points"] / passes, "unit": "count"}
    out["trace.overhead_s"] = {"value": traced_pass_s - untraced_pass_s * speed, "unit": "s"}
    out["trace.pass_s"] = {"value": traced_pass_s, "unit": "s"}
    out["trace.spans"] = {"value": total["spans"] / passes, "unit": "count"}
    for m in out.values():
        if m["unit"] in ("s", "us"):
            m["value"] /= speed
    return out


def missing_layers(workload: str, metrics: dict[str, dict]) -> list[str]:
    """Expected per-layer metrics that stayed at zero in this workload's trace."""
    return [name for name in EXPECTED_NONZERO[workload] if not metrics[name]["value"] > 0]
