"""Span tracing of exdyn's layers from outside the package.

``install`` wraps every public function of each layer module, and patches
the wrapper in at every binding site: the modules import each other's
functions by name (``cli`` binds ``run_trajectory``, ``harness`` binds
``substream`` and ``assign_cells``, ``config`` binds ``scatter_for_seed``),
so a wrapper on the defining module alone would miss those calls.  The
``ExemplarCloud`` methods are patched on the class.  Nothing inside the
package is edited; ``install`` returns a callable that undoes the patches.

A span's self time is its duration minus the durations of its direct
child spans.  Spans are aggregated per name as they close, since the
exemplar cloud alone opens one per model update.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

LAYERS = ("config", "presets", "model", "harness", "geometry", "rng", "ar1", "cli")

# private functions that still get a span of their own
_PRIVATE_SPANS = {"harness": ("_grid_boundary_segments",)}
_CLOUD_METHODS = ("seed_category", "add", "pruned")


class Tracer:
    """Per-span-name call counts, total and self time, plus counters that
    observers compute from a call's arguments and result."""

    def __init__(self):
        self.spans = {}            # name -> [calls, total_s, self_s]
        self.counters = {}
        self.top_level_s = 0.0     # summed duration of spans with no parent
        self._open = []            # child time accumulated by each open span

    def add(self, counter, amount):
        self.counters[counter] = self.counters.get(counter, 0) + amount

    def raise_to(self, counter, value):
        self.counters[counter] = max(self.counters.get(counter, 0), value)

    def record(self, name, start, end):
        """A top-level span timed by the caller."""
        stats = self.spans.setdefault(name, [0, 0.0, 0.0])
        stats[0] += 1
        stats[1] += end - start
        stats[2] += end - start
        self.top_level_s += end - start

    def wrap(self, name, fn, observe=None):
        stats = self.spans.setdefault(name, [0, 0.0, 0.0])
        open_spans = self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            open_spans.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                self_s = duration - open_spans.pop()
                if open_spans:
                    open_spans[-1] += duration
                else:
                    self.top_level_s += duration
                stats[0] += 1
                stats[1] += duration
                stats[2] += self_s
            if observe is not None:
                observe(self, args, kwargs, result, self_s)
            return result

        return traced

    def calls(self, name):
        return self.spans.get(name, (0, 0.0, 0.0))[0]

    def total_s(self, name):
        return self.spans.get(name, (0, 0.0, 0.0))[1]

    def self_s(self, name):
        return self.spans.get(name, (0, 0.0, 0.0))[2]

    def layer(self, layer):
        """(calls, self_s) summed over every span of ``layer``."""
        prefix = layer + "."
        calls = self_s = 0
        for name, (n, _, s) in self.spans.items():
            if name.startswith(prefix):
                calls += n
                self_s += s
        return calls, self_s


def _binder(fn):
    signature = inspect.signature(fn)

    def bind(args, kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments
    return bind


def _observe_trajectory(fn):
    bind = _binder(fn)

    def observe(tracer, args, kwargs, record, self_s):
        a = bind(args, kwargs)
        config = a["config"]
        # the pair shape is defined by the input, not by which engine ran
        pair = (config.k == 2 and config.domain.dim == 1
                and config.dist.kind == "uniform" and a["cloud"] is None)
        kind = "pair" if pair else "general"
        tracer.add(f"{kind}_steps", int(a["n_steps"]))
        tracer.add(f"{kind}_self_s", self_s)
        nbytes = sum(arr.nbytes for arr in (record.steps, record.means,
                                            record.weights, record.winners)
                     if arr is not None)
        tracer.raise_to("record_bytes", nbytes)
    return observe


def _observe_ensemble(fn):
    bind = _binder(fn)

    def observe(tracer, args, kwargs, result, self_s):
        a = bind(args, kwargs)
        horizon = max((int(n) for n in a["n_targets"]), default=0)
        tracer.add("replica_steps", int(a["replicas"]) * horizon)
    return observe


def _observe_assign(tracer, args, kwargs, labels, self_s):
    points = args[0] if args else kwargs["points"]
    means = args[1] if len(args) > 1 else kwargs["means"]
    n = len(labels)
    k = len(means)
    dim = len(points[0]) if n else 0
    tracer.add("samples_classified", n)
    tracer.raise_to("temp_bytes_max", n * k * dim * 8)


_OBSERVERS = {
    "harness.run_trajectory": _observe_trajectory,
    "harness.boundary_samples": _observe_ensemble,
    "geometry.assign_cells": lambda fn: _observe_assign,
}


def install(tracer: Tracer):
    """Trace every layer of the imported ``exdyn``; returns the undo."""
    modules = {layer: importlib.import_module(f"exdyn.{layer}") for layer in LAYERS}
    wrappers = {}
    for layer, module in modules.items():
        for attr, obj in vars(module).items():
            public = not attr.startswith("_") or attr in _PRIVATE_SPANS.get(layer, ())
            if public and inspect.isfunction(obj) and obj.__module__ == module.__name__:
                name = f"{layer}.{attr}"
                make = _OBSERVERS.get(name)
                wrappers[obj] = tracer.wrap(name, obj, make(obj) if make else None)

    undo = []
    sites = [m for n, m in sys.modules.items() if n == "exdyn" or n.startswith("exdyn.")]
    for module in sites:
        for attr, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                setattr(module, attr, wrappers[obj])
                undo.append((module, attr, obj))

    cloud = modules["model"].ExemplarCloud
    for attr in _CLOUD_METHODS:
        original = vars(cloud)[attr]
        setattr(cloud, attr, tracer.wrap(f"model.ExemplarCloud.{attr}", original))
        undo.append((cloud, attr, original))

    def restore():
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
    return restore


def _rate(amount, seconds):
    return amount / seconds if seconds > 0 else 0.0


def layer_metrics(tracer: Tracer) -> dict:
    """The per-layer metrics that spans and observers give.

    Rates divide work by the self time of the spans doing it; a layer a
    workload never enters reports 0.
    """
    c = tracer.counters
    ar1_calls, ar1_self = tracer.layer("ar1")
    _, geometry_self = tracer.layer("geometry")
    _, cli_self = tracer.layer("cli")
    ensemble_self = tracer.self_s("harness.boundary_samples")
    substream_s = tracer.total_s("rng.substream")
    streams = tracer.calls("rng.substream")
    samples = c.get("samples_classified", 0)
    return {
        "config.parse_s": tracer.total_s("config.parse_config"),
        "presets.scatter_s": tracer.total_s("presets.scatter_for_seed"),
        "ar1.calls": ar1_calls,
        "ar1.self_s": ar1_self,
        "harness.trajectory_runs": tracer.calls("harness.run_trajectory"),
        "harness.trajectory_self_s": tracer.self_s("harness.run_trajectory"),
        "harness.pair_steps_per_s": _rate(c.get("pair_steps", 0),
                                          c.get("pair_self_s", 0.0)),
        "harness.general_steps_per_s": _rate(c.get("general_steps", 0),
                                             c.get("general_self_s", 0.0)),
        "harness.ensemble_replica_steps_per_s": _rate(c.get("replica_steps", 0),
                                                      ensemble_self),
        "harness.ensemble_self_s": ensemble_self,
        "harness.snapshot_self_s": tracer.self_s("harness.figure1_snapshot"),
        "harness.record_bytes": c.get("record_bytes", 0),
        "model.cloud_add_calls": tracer.calls("model.ExemplarCloud.add"),
        "model.cloud_add_s": tracer.total_s("model.ExemplarCloud.add"),
        "geometry.samples_classified": samples,
        "geometry.samples_per_s": _rate(samples, geometry_self),
        "geometry.self_s": geometry_self,
        "geometry.temp_bytes_max": c.get("temp_bytes_max", 0),
        "rng.streams_created": streams,
        "rng.substream_s": substream_s,
        "rng.streams_per_s": _rate(streams, substream_s),
        "cli.self_s": cli_self,
    }
