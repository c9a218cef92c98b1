"""Spans around kinwave's layer functions, recorded from outside the program.

Each layer function is replaced, where its callers look it up, by a wrapper
that records a span (name, start, end, parent) while tracing is active.
Spans live in flat arrays until the run ends; ``layer_metrics`` turns the
spans of one round into the per-layer metrics named in BENCHMARK.json.
"""
from __future__ import annotations

import functools
import importlib
import time
from array import array

import numpy as np

# span name -> where its callers look the function up: (module, attribute)
# for functions, (module, class, attribute) for methods and classmethods
LAYERS = {
    "cli.write": [("kinwave.cli", "_write_json"), ("kinwave.cli", "_dump_curves")],
    "solvers.solve_nash": [("kinwave.cli", "solve_nash")],
    "solvers.solve_global": [("kinwave.cli", "solve_global")],
    "solvers.total_cost": [("kinwave.cli", "total_cost"), ("kinwave.solvers", "total_cost")],
    "solvers.cost_profile": [("kinwave.solvers", "cost_profile")],
    "solvers._swap_step": [("kinwave.solvers", "_swap_step")],
    "solvers._project_box_simplex": [("kinwave.solvers", "_project_box_simplex")],
    "network.compute_bounds": [("kinwave.solvers", "compute_bounds")],
    "loading.network_load": [("kinwave.cli", "network_load"),
                             ("kinwave.solvers", "network_load")],
    "loading._split_exit": [("kinwave.loading", "_split_exit")],
    "curves.lax_hopf_exit": [("kinwave.loading", "lax_hopf_exit")],
    "curves._exact_minplus": [("kinwave.curves", "_exact_minplus")],
    "curves._grid_minplus": [("kinwave.curves", "_grid_minplus")],
    "curves._monge_row_minima": [("kinwave.curves", "_monge_row_minima")],
    "curves.simplify": [("kinwave.curves", "CumulativeCurve", "simplify")],
    "curves.from_step_rates": [("kinwave.curves", "CumulativeCurve", "from_step_rates")],
    "curves.combine": [("kinwave.curves", "CumulativeCurve", "combine")],
    "curves.inverse": [("kinwave.curves", "CumulativeCurve", "inverse")],
    "flux.conjugate": [("kinwave.flux", "FluxDescriptor", "conjugate")],
}

# per-layer metrics reported for every workload, in BENCHMARK.json order
SELF_S = ["cli.write", "solvers.solve_nash", "solvers.cost_profile", "solvers._swap_step",
          "solvers._project_box_simplex", "solvers.solve_global", "solvers.total_cost",
          "network.compute_bounds", "loading.network_load", "loading._split_exit",
          "curves.lax_hopf_exit", "curves._exact_minplus", "curves._grid_minplus",
          "curves._monge_row_minima", "curves.simplify", "curves.from_step_rates",
          "curves.combine", "curves.inverse", "flux.conjugate"]
CALLS = ["solvers.cost_profile", "solvers.total_cost", "loading.network_load",
         "loading._split_exit", "curves.lax_hopf_exit", "curves._exact_minplus",
         "curves._grid_minplus", "curves.simplify", "curves.from_step_rates",
         "curves.inverse", "flux.conjugate"]
LAYER_UNITS = {
    **{f"{n}.self_s": "s" for n in SELF_S},
    **{f"{n}.calls": "count" for n in CALLS},
    "loading.network_load.mean_s": "s",
    "loading.windows": "count",
    "loading.exit_cache_hit_ratio": "ratio",
    "curves.exit_breakpoints": "count",
    "solvers.nash_iterations": "count",        # read from report.json by the worker
    "solvers.descent_iterations": "count",
}


class Tracer:
    """Span recorder; wrappers record only while ``active`` is true."""

    def __init__(self):
        self.active = False
        self.names = list(LAYERS)
        self.name_ids = {n: i for i, n in enumerate(self.names)}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name = array("H")
        self._stack = []
        # counters read from the layers' arguments and results
        self.windows = 0              # sum of LoadingResult.windows
        self.exit_breakpoints = 0     # breakpoints of lax_hopf_exit results
        self.descent_probes = 0.0     # up-probes of solve_global, in iterations
        self.round_marks = [(0, self.counters())]

    def counters(self):
        return (self.windows, self.exit_breakpoints, self.descent_probes)

    def mark_round(self):
        self.round_marks.append((len(self.start), self.counters()))

    def wrap(self, span, fn, after=None):
        nid = self.name_ids[span]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(self.start)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.name.append(nid)
            self.end.append(0.0)
            self._stack.append(idx)
            self.start.append(time.perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end[idx] = time.perf_counter()
                self._stack.pop()
            if after is not None:
                after(args, out)
            return out

        return wrapper

    # -- counters taken from arguments and results ---------------------

    def _after_load(self, args, result):
        self.windows += result.windows

    def _after_exit(self, args, curve):
        self.exit_breakpoints += len(curve.t)

    def _after_total_cost(self, args, J):
        # a forward finite-difference probe of solve_global raises one
        # group's mass by h = 1e-4 * size; each descent iteration makes
        # exactly one such probe per (path, bin) cell
        network, profile = args[0], args[1]
        masses = profile.group_masses()
        cells = 0
        up = False
        for k, g in enumerate(network.groups):
            cells += len(network.paths_for_group(k)) * profile.n_bins
            h = 1e-4 * max(g.size, 1e-6)
            up = up or masses[k] - g.size > 0.5 * h
        if up:
            self.descent_probes += 1.0 / cells

    def install(self):
        """Replace every layer function by its traced wrapper."""
        after = {"loading.network_load": self._after_load,
                 "curves.lax_hopf_exit": self._after_exit}
        for span, sites in LAYERS.items():
            for site in sites:
                mod = importlib.import_module(site[0])
                if len(site) == 2:
                    hook = after.get(span)
                    if site == ("kinwave.solvers", "total_cost"):
                        hook = self._after_total_cost
                    setattr(mod, site[1], self.wrap(span, getattr(mod, site[1]), hook))
                    continue
                cls = getattr(mod, site[1])
                raw = cls.__dict__[site[2]]
                if isinstance(raw, classmethod):
                    setattr(cls, site[2], classmethod(self.wrap(span, raw.__func__)))
                else:
                    setattr(cls, site[2], self.wrap(span, raw))

    # -- reduction -----------------------------------------------------

    def arrays(self):
        return (np.frombuffer(self.name, dtype=np.uint16),
                np.frombuffer(self.start, dtype=float),
                np.frombuffer(self.end, dtype=float),
                np.frombuffer(self.parent, dtype=np.int64))

    def layer_metrics(self, r):
        """Per-layer metrics of round ``r`` (spans between two marks)."""
        (i0, c0), (i1, c1) = self.round_marks[r], self.round_marks[r + 1]
        name, start, end, parent = (a[i0:i1] for a in self.arrays())
        dur = end - start
        child = np.zeros(len(dur))
        inside = parent >= i0
        np.add.at(child, parent[inside] - i0, dur[inside])
        self_t = np.bincount(name, weights=dur - child, minlength=len(self.names))
        calls = np.bincount(name, minlength=len(self.names))
        busy = np.bincount(name, weights=dur, minlength=len(self.names))
        ids = self.name_ids
        out = {f"{n}.self_s": float(self_t[ids[n]]) for n in SELF_S}
        out.update({f"{n}.calls": int(calls[ids[n]]) for n in CALLS})
        loads = calls[ids["loading.network_load"]]
        out["loading.network_load.mean_s"] = (
            float(busy[ids["loading.network_load"]] / loads) if loads else 0.0)
        windows, breakpoints, probes = (b - a for a, b in zip(c0, c1))
        out["loading.windows"] = int(windows)
        exits = calls[ids["curves.lax_hopf_exit"]]
        splits = calls[ids["loading._split_exit"]]
        out["loading.exit_cache_hit_ratio"] = float(1.0 - exits / splits) if splits else 0.0
        out["curves.exit_breakpoints"] = float(breakpoints / exits) if exits else 0.0
        out["solvers.descent_iterations"] = int(round(probes))
        return out

    def write(self, path):
        """Write every recorded span as ``id,name,start_s,end_s,parent`` rows,
        times in seconds from the first span's start."""
        name, start, end, parent = self.arrays()
        t0 = start[0] if len(start) else 0.0
        with open(path, "w", encoding="utf-8") as f:
            f.write("id,name,start_s,end_s,parent\n")
            for i in range(len(start)):
                f.write(f"{i},{self.names[name[i]]},{start[i] - t0:.9f},"
                        f"{end[i] - t0:.9f},{parent[i]}\n")
