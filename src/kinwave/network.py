"""Network topology, driver groups, cost functions, and a-priori bounds."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, DomainError
from .flux import ArcDescriptor, kind_params


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
    extremes on a window sit at the window's ends.
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
                                  or p["smoothing"] <= 0):
            raise ConfigurationError("vickrey rates must be >= 0, smoothing > 0")

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

    @staticmethod
    def _smooth_relu(x, eps):
        return 0.5 * (x + np.sqrt(x * x + eps * eps))

    @staticmethod
    def _smooth_relu_deriv(x, eps):
        return 0.5 * (1.0 + x / np.sqrt(x * x + eps * eps))

    def value(self, t):
        t_arr = np.asarray(t, dtype=float)
        p = self.params
        if self.kind != "vickrey":    # affine is the quadratic with c = 0
            out = p["a"] + p["b"] * t_arr + p.get("c", 0.0) * t_arr * t_arr
        else:
            x = t_arr - p["target"]
            eps = p["smoothing"]
            pen = p["early_rate"] * self._smooth_relu(-x, eps) + p[
                "late_rate"
            ] * self._smooth_relu(x, eps)
            out = t_arr + pen
        return float(out) if np.isscalar(t) else out

    def deriv(self, t):
        t_arr = np.asarray(t, dtype=float)
        p = self.params
        if self.kind != "vickrey":
            out = p["b"] + 2.0 * p.get("c", 0.0) * t_arr
        else:
            x = t_arr - p["target"]
            eps = p["smoothing"]
            dpen = -p["early_rate"] * self._smooth_relu_deriv(-x, eps) + p[
                "late_rate"
            ] * self._smooth_relu_deriv(x, eps)
            out = 1.0 + dpen
        return float(out) if np.isscalar(t) else out

    def __call__(self, t):
        return self.value(t)

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
    """Immutable road network with driver groups and enumerated paths."""

    def __init__(self, nodes, arcs, groups):
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
        for g in self.groups:
            if g.origin not in node_set or g.destination not in node_set:
                raise ConfigurationError("group references unknown node")
        self.paths = enumerate_paths(self)
        self._paths_by_od = {}
        for i, p in enumerate(self.paths):
            self._paths_by_od.setdefault((p.origin, p.destination), []).append(i)
        for k, g in enumerate(self.groups):
            if (g.origin, g.destination) not in self._paths_by_od:
                raise ConfigurationError(
                    f"group {k} has no viable path {g.origin}->{g.destination}"
                )

    @property
    def total_demand(self):
        return sum(g.size for g in self.groups)

    def paths_for_group(self, k):
        """Indices into self.paths of the viable paths of group k."""
        g = self.groups[k]
        return self._paths_by_od[(g.origin, g.destination)]

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
    for lst in out_arcs.values():
        lst.sort(key=lambda a: a.to_node)

    od_pairs = sorted({(g.origin, g.destination) for g in network.groups})
    paths = []
    for origin, dest in od_pairs:
        stack = [(origin, (origin,), ())]
        found = []
        while stack:
            node, visited, arcs = stack.pop()
            if node == dest:
                found.append(Path(visited, arcs))
                continue
            # push in reverse so lexicographically smaller successors pop first
            for arc in reversed(out_arcs.get(node, [])):
                if arc.to_node in visited:
                    continue
                stack.append((arc.to_node, visited + (arc.to_node,), arcs + (arc,)))
        found.sort(key=lambda p: p.nodes)
        paths.extend(found)
    paths.sort(key=lambda p: p.nodes)
    return paths


def max_travel_time(network: Network, path: Path, total_demand: float) -> float:
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


def scan_window(network: Network, t_max: float) -> float:
    """Smallest t0 = t_init + _SCAN_STEP*j, j <= _SCAN_CAP, outside which
    departing is certainly worse than the crude strategy of leaving at t = 0.

    t_init is the smallest window containing all cost minima.  Doubling and
    bisection find the same t0 as a step-by-step scan: combined costs are
    convex (checked below), so monotone past their minimisers, which t_init
    passes up to ``_initial_window``'s step (<= _SCAN_STEP for |minima| < 512).
    """
    rhs = max(
        g.departure_cost.value(0.0) + g.arrival_cost.value(t_max) for g in network.groups
    )
    for k, g in enumerate(network.groups):
        if g.departure_cost.params.get("c", 0.0) + g.arrival_cost.params.get("c", 0.0) < 0:
            raise ConfigurationError(f"group {k} combined cost is not convex: its "
                                     "quadratic coefficients sum below zero")

    t_init = _initial_window(network)

    def stops(j):
        t0 = t_init + _SCAN_STEP * j
        return not any(g.combined_cost(t) <= rhs for g in network.groups for t in (t0, -t0))

    lo, hi = -1, 0      # invariant: not stops(lo) (j = -1 stands below the grid)
    while not stops(hi):
        if hi == _SCAN_CAP:
            raise ConfigurationError(
                "combined costs do not grow at the scan horizon; check cost coercivity"
            )
        lo, hi = hi, min(2 * hi + 1, _SCAN_CAP)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if stops(mid) else (mid, hi)
    return t_init + _SCAN_STEP * hi


def compute_bounds(network: Network) -> SolverBounds:
    """Derive the horizon/rate bounds needed by the equilibrium solver."""
    G = network.total_demand
    t_max = max(max_travel_time(network, p, G) for p in network.paths)
    t0 = scan_window(network, t_max)

    # conservative derivative window: intermediate iterates may arrive up to
    # t_max past the departure window.  Every cost kind's derivative is
    # monotone, so its extremes sit at the window's ends.
    ends = np.array([-t0 - t_max, t0 + t_max])
    phi_max = max(float(np.max(np.abs(g.departure_cost.deriv(ends)))) for g in network.groups)
    psi_min = min(float(np.min(g.arrival_cost.deriv(ends))) for g in network.groups)
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


def _initial_window(network):
    """Smallest window (rounded to 0.25) containing every group's cost minimum;
    a cost flat up to rounding has none (``argmin`` would pick a noise point)."""
    extent = 1.0
    while True:
        grid = np.linspace(-extent, extent, 4097)
        interior = True
        t_far = 0.0
        for k, g in enumerate(network.groups):
            vals = g.combined_cost(grid)
            if np.ptp(vals) <= 64 * np.finfo(float).eps * max(1.0, np.max(np.abs(vals))):
                raise ConfigurationError(f"group {k} combined cost is flat: it has no "
                                         "minimum to bracket")
            i = int(np.argmin(vals))
            if i == 0 or i == len(grid) - 1:
                interior = False
                break
            t_far = max(t_far, abs(grid[i]))
        if interior:
            return max(0.25, float(np.ceil(t_far / 0.25) * 0.25))
        extent *= 2.0
        if extent > 1e9:
            raise ConfigurationError("could not bracket the cost minima; check costs")


@dataclass
class ValidationReport:
    """Outcome of the structural-assumption checks, item by item."""

    items: list = field(default_factory=list)

    def add(self, name, passed, detail=""):
        self.items.append({"name": name, "passed": bool(passed), "detail": detail})

    @property
    def passed(self):
        return all(item["passed"] for item in self.items)

    def as_dict(self):
        return {"passed": self.passed, "items": self.items}


def validate_assumptions(network: Network, window) -> ValidationReport:
    """Check cost monotonicity and growth on a window (fluxes check
    their own concavity and positivity when built).  Cost derivatives are
    monotone, so their signs are checked at the window's ends."""
    lo, hi = window
    report = ValidationReport()
    ends = np.array([lo, hi])
    for k, g in enumerate(network.groups):
        dphi = g.departure_cost.deriv(ends)
        dpsi = g.arrival_cost.deriv(ends)
        report.add(f"group[{k}] departure cost decreasing", bool(np.all(dphi < 0)))
        report.add(f"group[{k}] arrival cost increasing", bool(np.all(dpsi > 0)))
        mid = g.combined_cost(0.5 * (lo + hi))
        report.add(
            f"group[{k}] combined cost grows at window edges",
            g.combined_cost(lo) >= mid - 1e-9 and g.combined_cost(hi) >= mid - 1e-9,
        )
    return report
