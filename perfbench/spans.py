"""In-memory spans around sindykit's layers, recorded from outside the package.

The tracer edits no file of the package.  ``installed`` replaces each traced
public function, wherever a ``sindykit`` module binds it, by a wrapper that
opens a span around the call, and wraps the right-hand-side closures made by
``system_rhs`` and ``SparseModel.rhs`` with counters.  Every binding is put
back when the context ends.  Spans stay in memory; ``write_trace`` writes
them out once, with a self-time table.

A counter is charged to the innermost open span, so counts are taken where
the work happens: the RHS evaluations charged to ``integrate.dp45_adaptive``
spans are the adaptive integrator's own.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path
from time import perf_counter


class TraceError(RuntimeError):
    """A traced function or an expected span is missing."""


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    run: str
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Single-threaded span recorder: a stack of open spans and a list of closed ones."""

    def __init__(self, run: str) -> None:
        self.run = run
        self.spans: list[Span] = []
        self.loose: dict = {}  # counts made while no span was open
        self._open: list[Span] = []

    def begin(self, name: str) -> Span:
        parent = self._open[-1].id if self._open else None
        span = Span(len(self.spans), name, parent, self.run, perf_counter())
        self.spans.append(span)
        self._open.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = perf_counter()
        if self._open.pop() is not span:
            raise TraceError(f"span {span.name} closed out of order")

    @contextmanager
    def span(self, name: str):
        s = self.begin(name)
        try:
            yield s
        finally:
            self.end(s)

    def count(self, key: str, amount: float = 1) -> None:
        counts = self._open[-1].counts if self._open else self.loose
        counts[key] = counts.get(key, 0) + amount


# Traced functions, by defining module, with a hook that turns
# (args, kwargs, result) into counts for the call's span.
def _samples(args, kwargs, result):
    return {"samples": result.n_samples}


def _tv_samples(args, kwargs, result):
    return {"samples": len(args[0])}


def _cells(args, kwargs, result):
    rows, cols = result.values.shape
    return {"cells": rows * cols}


def _lstsq_cells(args, kwargs, result):
    a = args[0]
    return {"cells": a.shape[0] * a.shape[1]}


def _stlsq_passes(args, kwargs, result):
    return {"passes": sum(result[1].iterations_used)}


def _thresholds(args, kwargs, result):
    return {"thresholds": len(args[2] if len(args) > 2 else kwargs["thresholds"])}


def _bytes_written(args, kwargs, result):
    path = Path(result)
    sidecar = path.with_name(path.stem + ".meta.json")
    return {"bytes": path.stat().st_size + sidecar.stat().st_size}


TRACED = {
    "systems.simulate": _samples,
    "systems.logistic_ensemble": None,
    "systems.iterate_map": None,
    "integrate.rk4_fixed": None,
    "integrate.dp45_adaptive": None,
    "differentiation.add_noise": None,
    "differentiation.differentiate_dataset": None,
    "differentiation.tv_derivative": _tv_samples,
    "library.build_matrix": _cells,
    "regression.fit": None,
    "regression.stlsq": _stlsq_passes,
    "regression.least_squares": _lstsq_cells,
    "selection.sweep": _thresholds,
    "dataio.write_dataset_csv": _bytes_written,
    "dataio.read_dataset_csv": _samples,
}

SYSTEM_RHS_EVALS = "systems.rhs_evals"
MODEL_RHS_EVALS = "model.rhs_evals"
MODEL_RHS_S = "model.rhs_s"


def _spanned(tracer: Tracer, name: str, fn, hook):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        span = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(span)
        if hook is not None:
            for key, value in hook(args, kwargs, result).items():
                span.counts[key] = span.counts.get(key, 0) + value
        return result

    return traced


def _counted_system_rhs(tracer: Tracer, factory):
    @functools.wraps(factory)
    def system_rhs(*args, **kwargs):
        f = factory(*args, **kwargs)

        def counted(x):
            tracer.count(SYSTEM_RHS_EVALS)
            return f(x)

        return counted

    return system_rhs


def _timed_model_rhs(tracer: Tracer, method):
    @functools.wraps(method)
    def rhs(self):
        f = method(self)

        def timed(x):
            t0 = perf_counter()
            y = f(x)
            tracer.count(MODEL_RHS_S, perf_counter() - t0)
            tracer.count(MODEL_RHS_EVALS)
            return y

        return timed

    return rhs


def _rebind(original, replacement) -> list[tuple[object, str, object]]:
    """Point every name bound to ``original`` in a sindykit module at ``replacement``."""
    patches = []
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "sindykit" and not mod_name.startswith("sindykit."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                patches.append((module, attr, original))
    return patches


@contextmanager
def installed(tracer: Tracer):
    """Trace sindykit's layers into ``tracer`` for the duration of the block."""
    importlib.import_module("sindykit.cli")  # bind every module that the commands use
    patches: list[tuple[object, str, object]] = []
    try:
        for qualname, hook in TRACED.items():
            module_name, fn_name = qualname.split(".")
            module = importlib.import_module(f"sindykit.{module_name}")
            original = getattr(module, fn_name, None)
            if original is None:
                raise TraceError(f"sindykit.{qualname} no longer exists")
            patches += _rebind(original, _spanned(tracer, qualname, original, hook))
        systems = importlib.import_module("sindykit.systems")
        patches += _rebind(systems.system_rhs,
                           _counted_system_rhs(tracer, systems.system_rhs))
        model_cls = importlib.import_module("sindykit.model").SparseModel
        patches.append((model_cls, "rhs", model_cls.rhs))
        model_cls.rhs = _timed_model_rhs(tracer, model_cls.rhs)
        yield tracer
    finally:
        for obj, attr, original in reversed(patches):
            setattr(obj, attr, original)


def self_time(span: Span, children: list[Span]) -> float:
    """The span's duration minus the part of its interval that children cover."""
    covered, reach = 0.0, span.start
    for child in sorted(children, key=lambda c: c.start):
        lo, hi = max(child.start, reach), min(child.end, span.end)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return span.duration - covered


def children_of(spans: list[Span]) -> dict[int, list[Span]]:
    kids: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            kids.setdefault(s.parent, []).append(s)
    return kids


def self_time_table(spans: list[Span]) -> list[dict]:
    """Calls, inclusive and self seconds per span name, largest self time first."""
    kids = children_of(spans)
    rows: dict[str, dict] = {}
    for s in spans:
        row = rows.setdefault(s.name, {"name": s.name, "calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += s.duration
        row["self_s"] += self_time(s, kids.get(s.id, []))
    return sorted(rows.values(), key=lambda r: -r["self_s"])


def check_expected(spans: list[Span], loose: dict, names: frozenset[str],
                   counters: frozenset[str]) -> None:
    """Raise when an expected span never fired or an expected counter stayed zero."""
    fired = {s.name for s in spans}
    counted = {k for counts in [loose] + [s.counts for s in spans] for k, v in counts.items() if v}
    missing = sorted(names - fired) + sorted(counters - counted)
    if missing:
        raise TraceError(
            "expected spans or counters never fired (was a call rerouted?): "
            + ", ".join(missing))


def dp45_step_attempts(rhs_evals: float, calls: int) -> float:
    """Steps tried by Dormand-Prince: one RHS call per run, then six per attempt."""
    return (rhs_evals - calls) / 6


def write_trace(path: Path, spans: list[Span], loose: dict) -> None:
    doc = {
        "spans": [asdict(s) for s in spans],
        "loose_counts": loose,
        "self_time": self_time_table(spans),
    }
    path.write_text(json.dumps(doc, indent=1))


def layer_metrics(spans: list[Span], loose: dict) -> dict[str, tuple[float, str]]:
    """Per-layer figures (value, unit) from one traced pass."""
    kids = children_of(spans)
    named: dict[str, list[Span]] = {}
    for s in spans:
        named.setdefault(s.name, []).append(s)

    def calls(name: str) -> int:
        return len(named.get(name, ()))

    def total(name: str) -> float:
        return sum(s.duration for s in named.get(name, ()))

    def self_s(name: str) -> float:
        return sum(self_time(s, kids.get(s.id, [])) for s in named.get(name, ()))

    def counted(key: str, name: str | None = None) -> float:
        pool = spans if name is None else named.get(name, ())
        extra = loose.get(key, 0) if name is None else 0
        return sum(s.counts.get(key, 0) for s in pool) + extra

    def per(value: float, base: float) -> float:
        return value / base if base else 0.0

    by_id = {s.id: s for s in spans}

    def under(span: Span, ancestor: str) -> bool:
        while span.parent is not None:
            span = by_id[span.parent]
            if span.name == ancestor:
                return True
        return False

    dp45 = "integrate.dp45_adaptive"
    dp45_evals = counted(SYSTEM_RHS_EVALS, dp45) + counted(MODEL_RHS_EVALS, dp45)
    tv = "differentiation.tv_derivative"
    tv_s, tv_columns = total(tv), calls(tv)
    lib_cells = counted("cells", "library.build_matrix")
    thresholds = counted("thresholds", "selection.sweep")
    sweep_builds = sum(1 for s in named.get("library.build_matrix", ())
                       if under(s, "selection.sweep"))
    cli_spans = [s for s in spans if s.name.startswith("cli.")]
    return {
        "systems.simulate_s": (total("systems.simulate"), "s"),
        "systems.simulate_self_s": (self_s("systems.simulate"), "s"),
        "systems.rhs_evals": (counted(SYSTEM_RHS_EVALS), "count"),
        "systems.samples": (counted("samples", "systems.simulate"), "count"),
        "systems.map_s": (total("systems.iterate_map"), "s"),
        "systems.map_segments": (calls("systems.iterate_map"), "count"),
        "integrate.rk4_s": (total("integrate.rk4_fixed"), "s"),
        "integrate.dp45_s": (total(dp45), "s"),
        "integrate.dp45_calls": (calls(dp45), "count"),
        "integrate.dp45_rhs_evals": (dp45_evals, "count"),
        "integrate.dp45_step_attempts": (dp45_step_attempts(dp45_evals, calls(dp45)), "count"),
        "model.rhs_evals": (counted(MODEL_RHS_EVALS), "count"),
        "model.rhs_us": (1e6 * per(counted(MODEL_RHS_S), counted(MODEL_RHS_EVALS)), "us"),
        "differentiation.tv_s": (tv_s, "s"),
        "differentiation.tv_columns": (tv_columns, "count"),
        "differentiation.tv_samples": (counted("samples", tv), "count"),
        "differentiation.tv_ms_per_column": (1e3 * per(tv_s, tv_columns), "ms"),
        "differentiation.noise_s": (total("differentiation.add_noise"), "s"),
        "library.build_s": (total("library.build_matrix"), "s"),
        "library.build_calls": (calls("library.build_matrix"), "count"),
        "library.cells": (lib_cells, "count"),
        "library.mb_computed": (lib_cells * 8 / 1e6, "MB"),
        "regression.fit_s": (total("regression.fit"), "s"),
        "regression.fit_calls": (calls("regression.fit"), "count"),
        "regression.lstsq_s": (total("regression.least_squares"), "s"),
        "regression.lstsq_calls": (calls("regression.least_squares"), "count"),
        "regression.lstsq_cells": (counted("cells", "regression.least_squares"), "count"),
        "regression.stlsq_self_s": (self_s("regression.stlsq"), "s"),
        "regression.stlsq_passes": (counted("passes", "regression.stlsq"), "count"),
        "selection.sweep_s": (total("selection.sweep"), "s"),
        "selection.self_s": (self_s("selection.sweep"), "s"),
        "selection.thresholds": (thresholds, "count"),
        "selection.builds_per_threshold": (per(sweep_builds, thresholds), "count"),
        "dataio.write_s": (total("dataio.write_dataset_csv"), "s"),
        "dataio.bytes_written": (counted("bytes", "dataio.write_dataset_csv"), "B"),
        "dataio.read_s": (total("dataio.read_dataset_csv"), "s"),
        "dataio.rows_read": (counted("samples", "dataio.read_dataset_csv"), "count"),
        "cli.self_s": (sum(self_time(s, kids.get(s.id, [])) for s in cli_spans), "s"),
    }
