"""Spans around the calls into geophase's modules, recorded from outside.

The tracer replaces module attributes with timing wrappers; nothing inside
``src/`` changes.  It wraps, in each of the six modules,

* every public function the module defines, and
* every function the module imports from another geophase module, under
  the name of the module that defines it.  That import is the boundary
  between two layers: ``analysis._amplitudes_for_thetas`` is the name
  ``analysis`` uses for the ``protocol`` kernel, and
  ``trajectories.gauss_amplitudes`` the name ``trajectories`` uses for the
  ``measurement`` readout amplitudes.

Because Python resolves a module's globals at call time, calls inside a
module (``mc_interference`` -> ``interference_terms``) go through the
wrappers too, which is what gives nested spans and self times.  A name that
a later version of the package no longer has is simply not wrapped.

Spans are aggregated in memory as they close: per span name the call
count, total and self time; per (span, parent span) edge the call count
and total time; plus a few work counters read from the arguments and
results at the boundary.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from time import perf_counter

import numpy as np

MODULES = ("qutrit", "measurement", "protocol", "trajectories", "analysis",
           "cli")

#: Private functions wrapped although no other module imports them: the
#: block partition is the only place the MC block count is visible.
EXTRA_TARGETS = (("trajectories", "_blocks"),)

#: Element-level helpers called once per curve node pair; a span each
#: would cost more than the helper and distort the caller's self time.
SKIPPED = frozenset({"analysis.wrap_angle"})


def _arg(args, kwargs, pos, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else default


def _amplitude_counts(args, kwargs, result, dt):
    nodes = int(np.size(args[0]))
    schedule = _arg(args, kwargs, 4, "phi_schedule")
    steps = len(schedule) if schedule else int(_arg(args, kwargs, 2, "n_meas", 6))
    return {"amplitudes.nodes": nodes, "amplitudes.node_steps": nodes * steps}


def _curve_counts(args, kwargs, result, dt):
    grid = _arg(args, kwargs, 1, "grid")
    if grid is None:
        start = getattr(importlib.import_module("geophase.analysis"),
                        "DEFAULT_CURVE_NODES", result.theta.size)
    else:
        start = np.unique(np.asarray(grid, dtype=float)).size
    return {"phase_vs_theta.nodes_inserted": result.theta.size - start}


def _mc_counts(args, kwargs, result, dt):
    spec, cfg = args[0], _arg(args, kwargs, 1, "cfg")
    counts = {"trajectories.samples": cfg.n_samples}
    if int(_arg(args, kwargs, 2, "workers", 1)) <= 1:
        counts["trajectories.serial_s"] = dt
        counts["trajectories.serial_sample_steps"] = cfg.n_samples * spec.n_meas
    return counts


def _block_counts(args, kwargs, result, dt):
    return {"trajectories.blocks": len(result)}


#: Work counters read at a boundary, keyed by span name.
HOOKS = {
    "protocol._amplitudes_for_thetas": _amplitude_counts,
    "analysis.phase_vs_theta": _curve_counts,
    "trajectories.interference_terms": _mc_counts,
    "trajectories._blocks": _block_counts,
}


def _targets():
    """(module, attribute, span name) for every function to wrap."""
    for short in MODULES:
        try:
            mod = importlib.import_module(f"geophase.{short}")
        except ImportError:
            continue
        for attr, obj in list(vars(mod).items()):
            if not inspect.isfunction(obj):
                continue
            home = obj.__module__
            if not home.startswith("geophase."):
                continue
            name = f"{home.split('.', 1)[1]}.{obj.__name__}"
            own_private = home == mod.__name__ and attr.startswith("_")
            if (short, attr) not in EXTRA_TARGETS and (own_private
                                                       or name in SKIPPED):
                continue
            yield mod, attr, name


class Tracer:
    """Aggregated spans of one traced interval.

    ``install`` patches the modules and returns a function that restores
    them; ``snapshot`` returns the aggregates as plain JSON-able data.  Use
    a fresh tracer for each traced interval.
    """

    def __init__(self):
        self.stats: dict[str, list[float]] = {}    # name -> [calls, total, self]
        self.edges: dict[tuple, list[float]] = {}  # (name, parent) -> [calls, total]
        self.counters: dict[str, float] = {}
        self._frames: list[list] = []              # [name, child time]

    def install(self):
        patched = []
        for mod, attr, name in _targets():
            original = getattr(mod, attr)
            setattr(mod, attr, self._wrap(name, original, HOOKS.get(name)))
            patched.append((mod, attr, original))

        def restore():
            for mod, attr, original in reversed(patched):
                setattr(mod, attr, original)
        return restore

    def _wrap(self, name, fn, hook):
        frames, stats, edges = self._frames, self.stats, self.edges
        counters = self.counters

        @functools.wraps(fn)
        def span(*args, **kwargs):
            parent = frames[-1][0] if frames else None
            frame = [name, 0.0]
            frames.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                frames.pop()
                if frames:
                    frames[-1][1] += dt
                s = stats.setdefault(name, [0, 0.0, 0.0])
                s[0] += 1
                s[1] += dt
                s[2] += dt - frame[1]
                e = edges.setdefault((name, parent), [0, 0.0])
                e[0] += 1
                e[1] += dt
            if hook is not None:
                try:
                    counts = hook(args, kwargs, result, dt)
                except (AttributeError, IndexError, KeyError, TypeError):
                    counts = {}  # a changed signature loses the counter only
                for key, value in counts.items():
                    counters[key] = counters.get(key, 0) + value
            return result

        return span

    def snapshot(self) -> dict:
        return {"stats": {k: list(v) for k, v in self.stats.items()},
                "edges": [[k[0], k[1], v[0], v[1]]
                          for k, v in self.edges.items()],
                "counters": dict(self.counters)}


def merge(snapshots) -> dict:
    """Sum several snapshots (e.g. one per traced CLI process)."""
    stats, edges, counters = {}, {}, {}
    for snap in snapshots:
        for name, (calls, total, self_s) in snap["stats"].items():
            s = stats.setdefault(name, [0, 0.0, 0.0])
            s[0] += calls
            s[1] += total
            s[2] += self_s
        for name, parent, calls, total in snap["edges"]:
            e = edges.setdefault((name, parent), [0, 0.0])
            e[0] += calls
            e[1] += total
        for key, value in snap["counters"].items():
            counters[key] = counters.get(key, 0) + value
    return {"stats": stats,
            "edges": [[k[0], k[1], v[0], v[1]] for k, v in edges.items()],
            "counters": counters}


def self_shares(snap: dict, wall: float) -> dict[str, float]:
    """Each module's summed self time, and the largest self time of one
    span, as shares of ``wall``: how a pass's time splits across layers."""
    shares = {f"{module} self share": 0.0 for module in MODULES}
    largest = 0.0
    for name, (_, _, self_s) in snap["stats"].items():
        key = f"{name.split('.', 1)[0]} self share"
        shares[key] = shares.get(key, 0.0) + self_s / wall
        largest = max(largest, self_s / wall)
    shares["largest span self share"] = largest
    return shares


def layer_metrics(snap: dict) -> dict[str, float]:
    """Per-layer metrics of one traced pass, by the names BENCHMARK.json uses.

    A layer the pass never entered reads 0.
    """
    stats, counters = snap["stats"], snap["counters"]

    def calls(name):
        return stats.get(name, [0, 0.0, 0.0])[0]

    def total(name):
        return stats.get(name, [0, 0.0, 0.0])[1]

    def self_s(name):
        return stats.get(name, [0, 0.0, 0.0])[2]

    def edge(name, parent):
        calls_, total_ = 0, 0.0
        for n, p, c, t in snap["edges"]:
            if n == name and p == parent:
                calls_, total_ = calls_ + c, total_ + t
        return calls_, total_

    def ratio(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    amp = "protocol._amplitudes_for_thetas"
    run = "protocol.run_protocol_analytic"
    curve = "analysis.phase_vs_theta"
    search = "analysis.find_critical_strength"
    terms = "trajectories.interference_terms"
    mc = "trajectories.mc_interference"
    return {
        "protocol.amplitudes.calls": calls(amp),
        "protocol.amplitudes.nodes": counters.get("amplitudes.nodes", 0),
        "protocol.amplitudes.self_s": self_s(amp),
        "protocol.amplitudes.ns_per_node_step": ratio(
            total(amp), counters.get("amplitudes.node_steps", 0), 1e9),
        "protocol.bloch_paths.self_s": self_s("protocol._bloch_paths_for_thetas"),
        "protocol.run_protocol_analytic.calls": calls(run),
        "protocol.run_protocol_analytic.us_per_call": ratio(total(run),
                                                            calls(run), 1e6),
        "analysis.sweep_phase_map.self_s": self_s("analysis.sweep_phase_map"),
        "analysis.phase_vs_theta.calls": calls(curve),
        "analysis.phase_vs_theta.self_s": self_s(curve),
        "analysis.phase_vs_theta.nodes_inserted": counters.get(
            "phase_vs_theta.nodes_inserted", 0),
        "analysis.find_critical_strength.self_s": self_s(search),
        "analysis.find_critical_strength.curves_per_search": ratio(
            edge(curve, search)[0], calls(search)),
        "analysis.trajectory_surface.self_s": self_s("analysis.trajectory_surface"),
        "measurement.gauss_amplitudes.calls": calls("measurement.gauss_amplitudes"),
        "measurement.gauss_amplitudes.self_s": self_s("measurement.gauss_amplitudes"),
        "trajectories.samples": counters.get("trajectories.samples", 0),
        "trajectories.blocks": counters.get("trajectories.blocks", 0),
        "trajectories.interference_terms.self_s": self_s(terms),
        "trajectories.ns_per_sample_step": ratio(
            counters.get("trajectories.serial_s", 0.0),
            counters.get("trajectories.serial_sample_steps", 0), 1e9),
        "trajectories.reduce_s": total(mc) - edge(terms, mc)[1],
        "trajectories.readout_histogram.self_s": self_s(
            "trajectories.readout_histogram"),
    }
