"""Span tracer for the benchmark's traced runs.

The tracer wraps eegx functions at the module attribute the pipeline
calls through: ``cli`` calls ``ed.chi_matrix``, so the wrapper goes on
``eegx.extremal_dep.chi_matrix``; ``cli`` holds its own reference to
``heatmap_svg``, so that wrapper goes on ``eegx.cli.heatmap_svg``. Each
call becomes one span (name, start, end, parent, pass id). Spans stay in
memory until the run ends; self times and counts are derived from them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import Callable

import numpy as np


@dataclass
class Span:
    id: int
    parent: int | None
    pass_id: int
    name: str
    start: float
    end: float = float("nan")
    error: str | None = None
    counts: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Layer:
    """One wrapped attribute.

    ``name`` is the span name, or a function of the bound call arguments
    when one attribute stands for two layers (chi with and without the
    bootstrap). ``count`` maps (bound arguments, return value) to layer
    counters. It runs after the span closes, and the arguments are bound
    before it opens, so the cost of both goes to the parent span's self
    time (``cli.self_s`` for calls made by the CLI).
    """

    module: str
    attr: str
    name: str | Callable[[inspect.BoundArguments], str]
    count: Callable[[inspect.BoundArguments, object], dict] | None = None


def _file_bytes(path) -> int:
    total = 0
    for p in (str(path), str(path) + ".meta.json"):
        if os.path.exists(p):
            total += os.path.getsize(p)
    return total


def _chi_name(a: inspect.BoundArguments) -> str:
    return "extremal_dep.chi_boot" if a.arguments["n_boot"] > 0 else "extremal_dep.chi_point"


def _chi_counts(a: inspect.BoundArguments, cm) -> dict:
    data = a.arguments["data"]
    t, c = np.shape(getattr(data, "data", data))
    n_boot = a.arguments["n_boot"]
    return {
        "extremal_dep.replicates": n_boot,
        "extremal_dep.ranked_values": (1 + n_boot) * t * c,
        "extremal_dep.sparse_pairs": sum(e.sparse for e in cm.estimates),
    }


#: The layers of the eegx pipeline, one entry per wrapped attribute.
LAYERS = (
    Layer("eegx.signal_io", "load_recording", "signal_io.load",
          lambda a, r: {"signal_io.bytes_read": _file_bytes(a.arguments["path"])}),
    Layer("eegx.signal_io", "split_at_onset", "signal_io.split"),
    Layer("eegx.preprocess", "decompose_bands", "preprocess.decompose",
          lambda a, deco: {"preprocess.filtered_series":
                           sum(m.shape[1] for m in deco.bands.values())}),
    Layer("eegx.spectral", "welch", "spectral.welch"),
    Layer("eegx.spectral", "periodogram", "spectral.periodogram"),
    Layer("eegx.spectral", "band_power", "spectral.band_power"),
    Layer("eegx.evt_univariate", "fit_channel_tail", "evt_univariate.fit_channel_tail"),
    Layer("eegx.evt_univariate", "mean_residual_life", "evt_univariate.mean_residual_life"),
    Layer("eegx.evt_univariate", "parameter_stability", "evt_univariate.parameter_stability"),
    Layer("eegx.evt_univariate", "fit_gpd", "evt_univariate.fit_gpd"),
    Layer("eegx.cond_extremes", "fit_gpd", "evt_univariate.fit_gpd"),
    Layer("eegx.extremal_dep", "chi_matrix", _chi_name, _chi_counts),
    Layer("eegx.extremal_dep", "stationary_bootstrap_indices", "extremal_dep.bootstrap_index"),
    Layer("eegx.cond_extremes", "conditional_model", "cond_extremes.conditional_model"),
    Layer("eegx.cond_extremes", "fit_marginal", "cond_extremes.fit_marginal"),
    Layer("eegx.cond_extremes", "to_laplace", "cond_extremes.to_laplace"),
    Layer("eegx.cond_extremes", "fit_ht", "cond_extremes.fit_ht"),
    Layer("eegx.cond_extremes", "simulate_conditional", "cond_extremes.simulate"),
    Layer("eegx.cond_extremes", "from_laplace", "cond_extremes.from_laplace"),
    Layer("eegx.cond_extremes", "conditional_summary", "cond_extremes.summary"),
    Layer("eegx.cli", "heatmap_svg", "svg.heatmap"),
    Layer("eegx.cli", "main", "cli.main"),
)

#: Metric names that are not ``<span>_s`` / ``<span>_calls`` / a counter.
ALIASES = {
    "cli.self_s": "cli.main_s",
    "evt_univariate.tail_fits": "evt_univariate.fit_channel_tail_ok",
    "evt_univariate.tail_fits_skipped": "evt_univariate.fit_channel_tail_errors",
}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._pass_id = -1

    def _open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), parent, self._pass_id, name, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, layer: Layer):
        sig = inspect.signature(fn)
        needs_args = callable(layer.name) or layer.count is not None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = None
            if needs_args:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
            span = self._open(layer.name(bound) if callable(layer.name) else layer.name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                self._close(span)
            if layer.count is not None:
                span.counts = layer.count(bound, result)
            return result

        return wrapper

    @contextmanager
    def traced_pass(self):
        """Wrap every layer for one pass under a root span named ``pass``;
        restore the original attributes on exit, also when the pass raises."""
        saved = []
        try:
            for layer in LAYERS:
                mod = importlib.import_module(layer.module)
                orig = getattr(mod, layer.attr)
                saved.append((mod, layer.attr, orig))
                setattr(mod, layer.attr, self._wrap(orig, layer))
            self._pass_id += 1
            root = self._open("pass")
            try:
                yield
            finally:
                self._close(root)
        finally:
            for mod, attr, orig in reversed(saved):
                setattr(mod, attr, orig)

    def layer_values(self) -> dict[str, float]:
        """Per-pass self seconds, calls, ok/error calls and counters.

        A span's self time is its duration minus the durations of its
        direct children; calls are single-threaded, so children nest.
        """
        passes = self._pass_id + 1
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.end - s.start
        out: dict[str, float] = {}

        def add(key, v):
            out[key] = out.get(key, 0.0) + v / passes

        for s in self.spans:
            add(f"{s.name}_s", s.end - s.start - child[s.id])
            add(f"{s.name}_calls", 1)
            add(f"{s.name}_ok" if s.error is None else f"{s.name}_errors", 1)
            for key, v in s.counts.items():
                add(key, v)
        for metric, key in ALIASES.items():
            out[metric] = out.get(key, 0.0)
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s)) + "\n")
