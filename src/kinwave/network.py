"""Network topology, driver groups, cost functions, and a-priori bounds."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DomainError
from .flux import ArcDescriptor, kind_params, table_knots


class CostFunction:
    """Scalar cost of a departure or arrival time, with derivative.

    Kinds:
      * ``affine(a, b)``:      c(t) = a + b*t, evaluated as the quadratic with c = 0
      * ``quadratic(a, b, c)``: c(t) = a + b*t + c*t**2
      * ``vickrey(target, early_rate, late_rate, smoothing)``:
        c(t) = t + P(t - target) with P a smoothed two-sided schedule
        penalty (early_rate on the early side, late_rate on the late
        side); the kink at the target is rounded over ``smoothing``.

    Every kind's derivative is monotone (nondecreasing for vickrey), so its
    extremes on a window sit at the window's ends.  A value, derivative or
    mean that overflows reads inf, without a warning.
    """

    KINDS = {   # parameter -> default, None for a required one
        "affine": {"a": None, "b": None},
        "quadratic": {"a": None, "b": None, "c": None},
        "vickrey": {"target": None, "early_rate": None, "late_rate": None,
                    "smoothing": 0.05},
    }

    def __init__(self, kind, params):
        self.kind = kind
        self.params = p = kind_params(self.KINDS, kind, params, "cost")
        if not all(np.isfinite(float(x)) for x in p.values()):
            raise ConfigurationError(f"{kind} cost parameters must be finite")
        if kind == "vickrey" and (p["early_rate"] < 0 or p["late_rate"] < 0
                                  or p["smoothing"] < 1e-150):   # its square must not underflow
            raise ConfigurationError("vickrey rates must be >= 0, smoothing >= 1e-150")

    @classmethod
    def affine(cls, a, b):
        return cls("affine", {"a": a, "b": b})

    @classmethod
    def quadratic(cls, a, b, c):
        return cls("quadratic", {"a": a, "b": b, "c": c})

    @classmethod
    def vickrey(cls, target, early_rate, late_rate,
                smoothing=KINDS["vickrey"]["smoothing"]):
        return cls(
            "vickrey",
            {"target": target, "early_rate": early_rate, "late_rate": late_rate,
             "smoothing": smoothing},
        )

    def _offset_root(self, t):
        """x = t - target and the smoothed ramps' root sqrt(x*x + eps*eps),
        taken by np.hypot where the square overflows: an infinite root would
        make a zero rate's ramp read NaN.  The ramps are (x + root) / 2 late
        and (root - x) / 2 early."""
        x = t - self.params["target"]
        eps = self.params["smoothing"]
        s = np.sqrt(x * x + eps * eps)
        return x, np.where(np.isinf(s), np.hypot(x, eps), s) if np.isinf(s).any() else s

    @np.errstate(over="ignore")
    def value(self, t):
        t_arr = np.asarray(t, dtype=float)
        p = self.params
        if self.kind != "vickrey":    # affine is the quadratic with c = 0
            out = p["a"] + p["b"] * t_arr + p.get("c", 0.0) * t_arr * t_arr
        else:
            x, s = self._offset_root(t_arr)
            out = t_arr + (p["early_rate"] * (0.5 * (s - x)) + p["late_rate"] * (0.5 * (x + s)))
        return float(out) if np.isscalar(t) else out

    @np.errstate(over="ignore")
    def deriv(self, t):
        t_arr = np.asarray(t, dtype=float)
        p = self.params
        if self.kind != "vickrey":
            out = p["b"] + 2.0 * p.get("c", 0.0) * t_arr
        else:
            x, s = self._offset_root(t_arr)
            out = 1.0 + (-p["early_rate"] * (0.5 * (1.0 - x / s))
                         + p["late_rate"] * (0.5 * (1.0 + x / s)))
        return float(out) if np.isscalar(t) else out

    @np.errstate(over="ignore")
    def mean(self, a, b):
        """Exact mean of the cost over each interval [a, b], elementwise, a < b.

        Affine and quadratic: value(m) + c*w**2/12, m the midpoint, w the width.
        Vickrey: c(t) = (1 - early)*t + early*target + (early + late)*R(x),
        x = t - target, where R(x) = (x + s)/2, s = sqrt(x**2 + eps**2), is the
        smoothed ramp; so written, t and early*t do not cancel far before the
        target when early is near 1.  R's antiderivative is
        (x**2 + x*s + eps**2*asinh(x/eps))/4.  Across the target its two ends
        have opposite signs and are summed, with R taken as eps**2/(2*(s - x))
        for x < 0.  On one side R is max(x, 0) + R(-|x|), and the mean of
        R(-|x|) is written by difference formulas, so that short segments far
        from the target keep their digits; s is taken as in ``value``.  Where
        x1 - x0 overflows, or x**2 does at the late end of a segment across
        the target, the mean reads inf.
        """
        a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
        m, w = 0.5 * (a + b), b - a
        p = self.params
        if self.kind != "vickrey":
            return self.value(m) + p.get("c", 0.0) * w * w / 12.0
        early, eps = p["early_rate"], p["smoothing"]
        if early == p["late_rate"] == 0:     # c(t) = t; its ramp term may read 0 * inf
            return m
        x, s = self._offset_root(np.stack([a, b]))
        (x0, x1), (s0, s1), (h0, h1) = x, s, 0.5 * x     # h0 + h1 does not overflow
        with np.errstate(divide="ignore", invalid="ignore"):
            # one side: R(-|x|) has antiderivative eps**2*(|x|/(s + |x|) + asinh(|x|/eps))/4
            u = (h0 + h1) / (h1 * s0 + h0 * s1)
            ramp = np.maximum(h0 + h1, 0.0) + 0.25 * eps * eps * (
                eps * eps * u / np.multiply(*(s + np.abs(x))) + np.arcsinh(w * u) / w)
            anti = 0.25 * (x * np.where(x >= 0, x + s, eps * eps / (s - x))
                           + eps * eps * np.arcsinh(x / eps))
            ramp = np.where((x0 < 0) & (x1 > 0), (anti[1] - anti[0]) / (x1 - x0), ramp)
        ramp = np.where(np.isfinite(x1 - x0), ramp, np.inf)    # an overflowed width reads inf
        return (1.0 - early) * m + early * p["target"] + (early + p["late_rate"]) * ramp

    def __repr__(self):
        args = ", ".join(f"{k}={v:g}" for k, v in self.params.items())
        return f"CostFunction({self.kind}, {args})"


@dataclass(frozen=True)
class GroupDescriptor:
    """A homogeneous population of drivers sharing OD pair and costs."""

    size: float
    origin: str
    destination: str
    departure_cost: CostFunction
    arrival_cost: CostFunction

    def __post_init__(self):
        if not 0 <= self.size < np.inf:
            raise ConfigurationError("group size must be finite and nonnegative")
        if self.origin == self.destination:
            raise ConfigurationError("group origin and destination must differ")

    def combined_cost(self, t):
        return self.departure_cost.value(t) + self.arrival_cost.value(t)


@dataclass(frozen=True)
class Path:
    """A loop-free chain of arcs between an origin and a destination."""

    nodes: tuple
    arcs: tuple

    def __post_init__(self):
        seen = set()
        for n in self.nodes:
            if n in seen:
                raise ConfigurationError(f"path repeats node {n!r}")
            seen.add(n)
        for arc, (a, b) in zip(self.arcs, zip(self.nodes[:-1], self.nodes[1:])):
            if arc.from_node != a or arc.to_node != b:
                raise ConfigurationError("path arcs do not chain through its nodes")

    @property
    def origin(self):
        return self.nodes[0]

    @property
    def destination(self):
        return self.nodes[-1]

    @property
    def free_flow_time(self):
        return sum(a.mu for a in self.arcs)

    def __repr__(self):
        return "Path(" + "->".join(self.nodes) + ")"


@dataclass(frozen=True)
class SolverBounds:
    """A-priori horizon, rate, and window bounds used by the solvers."""

    t_max: float       # worst-case travel time over any viable path
    t0: float          # no departure/arrival outside [-t0, t0] at equilibrium
    kappa: float       # equilibrium departure-rate bound
    horizon: float     # half-width of the feasible departure window
    delta_min: float   # shortest free-flow traversal time over all arcs

    def __post_init__(self):
        if not all(0 < x < np.inf for x in vars(self).values()):
            raise ConfigurationError("all solver bounds must be finite and positive")
        total = self.horizon - self.t0
        if total < -1e-9 * max(1.0, self.horizon):
            raise ConfigurationError("horizon must not be below t0")


class Network:
    """Immutable road network with driver groups and enumerated paths.

    ``dt`` is the accuracy of every Greenshields arc exit a loading of this
    network computes: the exit's table of chords (``FluxDescriptor.exit_table``)
    keeps a steady travel time within about dt free-flow times.  Exits of
    piecewise-linear fluxes are exact and do not read it.
    """

    def __init__(self, nodes, arcs, groups, dt=1e-3):
        if not 0 < dt < np.inf:
            raise ConfigurationError(f"dt must be positive and finite, got {dt!r}")
        table_knots(dt)     # a dt past the knot cap fails here, not at a load
        self.dt = dt
        self.nodes = list(nodes)
        if len(set(self.nodes)) != len(self.nodes):
            raise ConfigurationError("duplicate node ids")
        node_set = set(self.nodes)
        seen_pairs = set()
        for arc in arcs:
            if arc.from_node not in node_set or arc.to_node not in node_set:
                raise ConfigurationError(
                    f"arc {arc.from_node}->{arc.to_node} references unknown node"
                )
            if arc.key in seen_pairs:
                raise ConfigurationError(f"duplicate arc {arc.from_node}->{arc.to_node}")
            seen_pairs.add(arc.key)
        self.arcs = list(arcs)
        self.groups = list(groups)
        if not self.groups:
            raise ConfigurationError("a network needs at least one group")
        for g in self.groups:
            if g.origin not in node_set or g.destination not in node_set:
                raise ConfigurationError("group references unknown node")
        self.paths = enumerate_paths(self)
        # the (group, path) cells as a mask, and listed group-major, paths ascending
        self.viable = np.array([[(p.origin, p.destination) == (g.origin, g.destination)
                                 for p in self.paths] for g in self.groups], dtype=bool)
        self.viable.flags.writeable = False
        for k, g in enumerate(self.groups):
            if not self.viable[k].any():
                raise ConfigurationError(
                    f"group {k} has no viable path {g.origin}->{g.destination}"
                )
        self.cells = tuple(map(tuple, np.argwhere(self.viable).tolist()))

    @property
    def total_demand(self):
        return sum(g.size for g in self.groups)

    def paths_for_group(self, k):
        """Indices into self.paths of the viable paths of group k."""
        return np.flatnonzero(self.viable[k]).tolist()

    @property
    def f_max(self):
        return max(a.flux.f_max for a in self.arcs)


def enumerate_paths(network) -> list:
    """All loop-free chains joining each OD pair that some group uses.

    Deterministic order: lexicographic by node sequence.
    """
    out_arcs = {}
    for arc in network.arcs:
        out_arcs.setdefault(arc.from_node, []).append(arc)

    paths = []
    for origin, dest in {(g.origin, g.destination) for g in network.groups}:
        stack = [(origin, (origin,), ())]
        while stack:
            node, visited, arcs = stack.pop()
            if node == dest:
                paths.append(Path(visited, arcs))
                continue
            for arc in out_arcs.get(node, []):
                if arc.to_node in visited:
                    continue
                stack.append((arc.to_node, visited + (arc.to_node,), arcs + (arc,)))
    paths.sort(key=lambda p: p.nodes)
    return paths


def max_travel_time(path: Path, total_demand: float) -> float:
    """Worst-case traversal time of a path under total demand.

    Per arc: queueing bounded by demand over capacity, driving bounded by
    length over the slowest uncongested speed.
    """
    if total_demand < 0:
        raise DomainError("total demand must be nonnegative")
    return sum(
        total_demand / a.flux.f_max + a.length / a.flux.speed_at_capacity
        for a in path.arcs
    )


_SCAN_STEP = 0.25
_SCAN_CAP = 10**6


def _bounded_groups(network: Network) -> list:
    """The groups the solver bounds read: those with drivers, or every group
    if none has any.  An empty group departs nothing, so it moves no bound."""
    return [k for k, g in enumerate(network.groups) if g.size > 0] or \
        list(range(len(network.groups)))


def scan_window(network: Network, t_max: float) -> float:
    """Smallest t0 = _SCAN_STEP*j, 1 <= j <= _SCAN_CAP, such that every
    group's combined cost has its minimum in [-t0, t0] (its derivative is
    <= 0 at -t0 and >= 0 at t0) and exceeds at both -t0 and t0 the cost of
    the crude strategy of leaving at t = 0.

    Combined costs are convex (checked below), so both conditions stay met
    once met, and doubling and bisection find the same t0 as a step-by-step
    scan.  At _SCAN_CAP the error names the first group that fails and why:
    a flat cost, a minimum not bracketed, or a cost that never grows.
    Only ``_bounded_groups`` are scanned.
    """
    for k, g in enumerate(network.groups):
        if g.departure_cost.params.get("c", 0.0) + g.arrival_cost.params.get("c", 0.0) < 0:
            raise ConfigurationError(f"group {k} combined cost is not convex: its "
                                     "quadratic coefficients sum below zero")
    groups = [(k, network.groups[k]) for k in _bounded_groups(network)]
    rhs = max(g.departure_cost.value(0.0) + g.arrival_cost.value(t_max) for _, g in groups)

    def failure(j):
        """The first group that fails at step j, with the reason, or None."""
        ends = np.array([-_SCAN_STEP * j, _SCAN_STEP * j])
        for k, g in groups:
            d = g.departure_cost.deriv(ends) + g.arrival_cost.deriv(ends)
            if d[0] == 0 == d[1]:
                return f"group {k} combined cost is flat: it has no minimum to bracket"
            if d[0] > 0 or d[1] < 0:
                return (f"could not bracket group {k}'s cost minimum within "
                        f"+-{ends[1]:g}; check costs")
            if not np.all(g.combined_cost(ends) > rhs):
                return (f"group {k} combined cost does not grow at the scan horizon "
                        f"+-{ends[1]:g}; check cost coercivity")
        return None

    lo, hi = 0, 1       # invariant: failure(lo) (j = 0 stands below the grid)
    while (reason := failure(hi)) is not None:
        if hi == _SCAN_CAP:
            raise ConfigurationError(reason)
        lo, hi = hi, min(2 * hi, _SCAN_CAP)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if failure(mid) is None else (mid, hi)
    return _SCAN_STEP * hi


def compute_bounds(network: Network) -> SolverBounds:
    """Derive the horizon/rate bounds needed by the equilibrium solver.

    Every bound reads only ``_bounded_groups`` and their paths.
    """
    G = network.total_demand
    live = _bounded_groups(network)
    paths = {p for k, p in network.cells if k in live}
    t_max = max(max_travel_time(network.paths[p], G) for p in paths)
    t0 = scan_window(network, t_max)

    # conservative derivative window: intermediate iterates may arrive up to
    # t_max past the departure window.  Every cost kind's derivative is
    # monotone, so its extremes sit at the window's ends.
    ends = np.array([-t0 - t_max, t0 + t_max])
    groups = [network.groups[k] for k in live]
    phi_max = max(float(np.max(np.abs(g.departure_cost.deriv(ends)))) for g in groups)
    psi_min = min(float(np.min(g.arrival_cost.deriv(ends))) for g in groups)
    if psi_min <= 0:
        raise ConfigurationError(
            "arrival cost is not strictly increasing on the working window"
        )
    if phi_max <= 0:
        raise ConfigurationError("departure cost has zero derivative on the window")
    kappa = phi_max * network.f_max / psi_min
    delta_min = min(a.mu for a in network.arcs)
    return SolverBounds(t_max=t_max, t0=t0, kappa=kappa, horizon=t0 + G / kappa,
                        delta_min=delta_min)


def validate_assumptions(network: Network, window) -> dict:
    """Check cost monotonicity and growth on a window (fluxes check
    their own concavity and positivity when built).  Cost derivatives are
    monotone, so their signs are checked at the window's ends.  Returns
    ``{"passed": all items passed, "items": [{"name", "passed", "detail"}]}``."""
    lo, hi = window
    ends = np.array([lo, hi])
    items = []
    for k, g in enumerate(network.groups):
        mid = g.combined_cost(0.5 * (lo + hi))
        for name, ok in (
                ("departure cost decreasing", np.all(g.departure_cost.deriv(ends) < 0)),
                ("arrival cost increasing", np.all(g.arrival_cost.deriv(ends) > 0)),
                ("combined cost grows at window edges",
                 g.combined_cost(lo) >= mid - 1e-9 and g.combined_cost(hi) >= mid - 1e-9)):
            items.append({"name": f"group[{k}] {name}", "passed": bool(ok), "detail": ""})
    return {"passed": all(item["passed"] for item in items), "items": items}
