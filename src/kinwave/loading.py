"""Full-network loading: departure rates to arc curves and arrival times.

Loading is causal: an arc's exit up to time t depends only on its entry up
to t - mu, mu being its free-flow time.  ``network_load`` sweeps the arcs in
feeder order, loading each from its feeders' latest curves, which carry the
time up to which they are exact; on an acyclic feeder graph one sweep loads
the network exactly.  All curve arithmetic is exact piecewise-linear
(triangular/sampled fluxes) or sampled on a uniform grid (smooth fluxes).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .curves import CumulativeCurve, ExitComputation, lax_hopf_exit
from .errors import AdmissibilityError, DomainError, LoadingError
from .network import Network, Path, max_travel_time

_MASS_TOL = 1e-9


class DepartureProfile:
    """Piecewise-constant departure rates per (group, path) on a bin grid.

    ``rates`` has shape (n_groups, n_paths, n_bins); bin ``l`` covers
    [start + l*bin_width, start + (l+1)*bin_width).
    """

    def __init__(self, start, bin_width, rates):
        if bin_width <= 0:
            raise AdmissibilityError("bin width must be positive")
        self.start = float(start)
        self.bin_width = float(bin_width)
        self.rates = np.asarray(rates, dtype=float)
        if self.rates.ndim != 3:
            raise AdmissibilityError("rates must have shape (groups, paths, bins)")

    @property
    def n_bins(self):
        return self.rates.shape[2]

    @property
    def end(self):
        return self.start + self.bin_width * self.n_bins

    @property
    def bin_edges(self):
        return self.start + self.bin_width * np.arange(self.n_bins + 1)

    def group_masses(self):
        return self.rates.sum(axis=(1, 2)) * self.bin_width

    def validate(self, network: Network, rate_cap=None, tol=_MASS_TOL,
                 check_mass=True):
        """Check shape, finiteness, nonnegativity, caps, path viability, and
        mass balance."""
        K, P = len(network.groups), len(network.paths)
        if self.rates.shape[:2] != (K, P):
            raise AdmissibilityError(
                f"rates shaped {self.rates.shape}, expected ({K}, {P}, n_bins)"
            )
        if not np.all(np.isfinite(self.rates)):
            raise AdmissibilityError("departure rates must be finite")
        if np.any(self.rates < -tol):
            raise AdmissibilityError("departure rates must be nonnegative")
        if rate_cap is not None and np.any(self.rates > rate_cap + tol):
            raise AdmissibilityError(f"departure rate exceeds the cap {rate_cap}")
        for k, viable in enumerate(network.viable):
            for p, ok in enumerate(viable):
                if not ok and np.any(np.abs(self.rates[k, p]) > tol):
                    raise AdmissibilityError(
                        f"group {k} assigns flow to non-connecting path {p}"
                    )
            mass = self.rates[k].sum() * self.bin_width
            G_k = network.groups[k].size
            if check_mass and abs(mass - G_k) > tol * max(1.0, G_k):
                raise AdmissibilityError(
                    f"group {k} departs mass {mass:.12g}, expected {G_k:.12g}"
                )

    def departure_curve(self, k, p) -> CumulativeCurve:
        return CumulativeCurve.from_step_rates(self.bin_edges, self.rates[k, p])


@dataclass
class LoadingResult:
    """All curves produced by one network loading.

    ``arc_flows[key]`` holds the aggregate entry/exit pair of an arc;
    ``comp_entry`` / ``comp_exit`` map (k, p, key) to that group-path's
    share of the arc's curves; ``departures[(k, p)]`` and ``arrivals[(k, p)]``
    are the cumulative counts leaving the origin and delivered at the
    destination, for every cell of the network.  ``end_time`` is the last
    time an arc exit drains and ``windows`` the number of loading sweeps, 1
    on an acyclic feeder graph.
    """

    network: Network
    profile: DepartureProfile
    arc_flows: dict = field(default_factory=dict)      # key -> ExitComputation
    comp_entry: dict = field(default_factory=dict)     # (k, p, key) -> curve
    comp_exit: dict = field(default_factory=dict)
    departures: dict = field(default_factory=dict)     # (k, p) -> curve
    arrivals: dict = field(default_factory=dict)
    end_time: float = 0.0
    windows: int = 0

    def arrival_total(self, k):
        return sum(self.arrivals[(k, p)].total for p in self.network.paths_for_group(k))

    def check_invariants(self, tol=1e-6):
        """Causality, capacity, composition, and conservation checks."""
        G = max(1.0, self.network.total_demand)
        for key, comp in self.arc_flows.items():
            comp.validate(tol * G / max(1.0, comp.entry.total))
            parts = [c for (k, p, kk), c in self.comp_exit.items() if kk == key]
            if parts:
                ts = np.unique(np.concatenate((comp.entry.t, comp.exit.t)))
                s = sum(c(ts) for c in parts)
                if np.max(np.abs(s - comp.exit(ts))) > tol * G:
                    raise LoadingError(f"exit compositions do not sum on arc {key}")
        for k, g in enumerate(self.network.groups):
            if abs(self.arrival_total(k) - g.size) > tol * G:
                raise LoadingError(f"group {k} arrivals do not match its size")


def _split_exit(exit_curve, entry_curve, comps, t_hi):
    """FIFO split of an arc's exit flow among its entry components.

    Returns one exit-composition curve per entry component, exact on the
    piecewise-linear data: the (k,p) count among the first ``exit(t)``
    leavers equals that component's count at the matched entry time.  The
    curves end at the smaller of ``t_hi``, up to which the exit is exact,
    and the exit's drain time.  A lone component is the entry itself, so
    its share is the whole exit, cut there.
    """
    t_hi = min(t_hi, exit_curve.inverse(exit_curve.total))
    cut = float(exit_curve(t_hi))
    if len(comps) == 1:
        keep = exit_curve.t < t_hi
        lone = CumulativeCurve(np.append(exit_curve.t[keep], t_hi),
                               np.append(exit_curve.v[keep], cut), validate=False)
        return dict.fromkeys(comps, lone)
    vals = np.concatenate([entry_curve.v] + [entry_curve(c.t) for c in comps.values()])
    reach = np.minimum(vals[vals <= cut + 1e-15 * max(1.0, cut)], exit_curve.total)
    ts = np.unique(np.concatenate(
        (exit_curve.t[exit_curve.t <= t_hi], [t_hi], exit_curve.inverse(reach))))
    ts = ts[ts <= t_hi + 1e-12]
    taus = entry_curve.inverse(np.minimum(exit_curve(ts), entry_curve.total))
    out = {}
    for key, comp in comps.items():
        out[key] = CumulativeCurve(ts, comp(taus), validate=False).simplify()
    return out


def _feeder_order(arcs, paths):
    """``arcs`` ordered so that a comes before b when some path uses a and
    then b; a cycle is broken at its first arc in ``arcs``."""
    preds = {a.key: {u.key for path in paths for u, b in zip(path, path[1:]) if b.key == a.key}
             for a in arcs}
    order, pending = [], list(arcs)
    while pending:
        placed = {a.key for a in order}
        order.append(next((a for a in pending if preds[a.key] <= placed), pending[0]))
        pending.remove(order[-1])
    return order


def network_load(network: Network, profile: DepartureProfile, *, dt=1e-3,
                 rate_cap=None, check_mass=True) -> LoadingResult:
    """Propagate a departure profile through the network.

    Sweeps the live arcs in ``_feeder_order``: each arc combines its
    component entries, computes its whole exit and splits it among them.
    Its exit components are exact up to its mu plus the least exact-until
    time of its feeders: +inf for a departure or a final feeder, the first
    live departure time for a hop not yet reached.  Sweeps stop once every
    group's mass has reached its destination, after one sweep on an acyclic
    feeder graph; at most as many run as windows of the shortest mu would.
    ``check_mass=False`` skips the per-group mass-balance check (used for
    finite-difference cost probes, which perturb one bin at a time).
    """
    profile.validate(network, rate_cap=rate_cap, check_mass=check_mass)

    result = LoadingResult(network, profile)
    G = network.total_demand
    masses = profile.group_masses()

    # live cells: (k, p) -> list of arcs along the path, and the reverse
    # index: arc key -> list of (k, p, hop) feeding that arc.  Every other
    # cell departs and arrives nothing.
    path_arcs = {}
    feeders = {a.key: [] for a in network.arcs}
    comp_exit = {}      # (k, p, hop) -> latest exit composition; hop -1: departures
    for k, p in network.cells:
        if masses[k] <= 0 or not np.any(profile.rates[k, p] > 0):
            result.departures[(k, p)] = result.arrivals[(k, p)] = \
                CumulativeCurve.zero(profile.start)
            continue
        arcs = network.paths[p].arcs
        path_arcs[(k, p)] = arcs
        for hop, arc in enumerate(arcs):
            feeders[arc.key].append((k, p, hop))
        result.departures[(k, p)] = profile.departure_curve(k, p)
        comp_exit[(k, p, -1)] = result.departures[(k, p)]

    if not path_arcs:
        result.end_time = profile.start
        return result

    t_max = max(max_travel_time(network, network.paths[p], G) for (_, p) in path_arcs)
    horizon = profile.end + t_max + 1.0
    first_live = min(int(np.argmax(profile.rates[k, p] > 0)) for (k, p) in path_arcs)
    t_first = profile.start + first_live * profile.bin_width
    zero = CumulativeCurve.zero(t_first)
    order = _feeder_order([a for a in network.arcs if feeders[a.key]], path_arcs.values())
    exact_until = {}    # arc key -> time up to which its exit compositions are exact

    def short_path():
        """First (group, path) whose arrivals fall short of its departures, or None."""
        for (k, p), arcs in path_arcs.items():
            last = comp_exit.get((k, p, len(arcs) - 1))
            want = profile.rates[k, p].sum() * profile.bin_width
            if last is None or last.total < want - _MASS_TOL * max(1.0, want):
                return k, p

    sweeps = np.ceil((horizon - profile.start) / min(a.mu for a in network.arcs))
    max_sweeps = int(min(2**31, sweeps)) + 2     # min() also caps an overflowed (inf) ratio
    for sweep in range(max_sweeps):
        for arc in order:
            fed = feeders[arc.key]
            comps = {(k, p, h): comp_exit.get((k, p, h - 1), zero) for (k, p, h) in fed}
            exact_until[arc.key] = arc.mu + min(
                exact_until.get(path_arcs[(k, p)][h - 1].key, t_first) if h else np.inf
                for (k, p, h) in fed)
            entry = CumulativeCurve.combine(list(comps.values()))
            exit_curve = lax_hopf_exit(entry, arc, dt=dt)
            result.arc_flows[arc.key] = ExitComputation(entry, exit_curve, arc)
            comp_exit.update(_split_exit(exit_curve, entry, comps, exact_until[arc.key]))
            result.comp_entry.update({(k, p, arc.key): c for (k, p, _), c in comps.items()})
        result.windows = sweep + 1
        if (short := short_path()) is None or min(exact_until.values()) == np.inf:
            break
    if short is not None:
        k, p = short
        raise LoadingError(
            f"network did not drain within the horizon {horizon:.6g}: the arrivals "
            f"of group {k} on path {p} {network.paths[p]!r} fell short of its "
            "departures; check for capacity bottlenecks"
        )

    for (k, p), arcs in path_arcs.items():
        for hop, arc in enumerate(arcs):
            result.comp_exit[(k, p, arc.key)] = comp_exit[(k, p, hop)]
        result.arrivals[(k, p)] = comp_exit[(k, p, len(arcs) - 1)]
    result.end_time = max(c.t[-1] for c in result.arrivals.values())
    return result


def arrival_time_path(loading: LoadingResult, path: Path, t):
    """Arrival time at the path's destination for a departure at time t.

    Composes the per-arc FIFO exit times along the path; free-flow shift
    where an arc carried no traffic.
    """
    scalar = np.isscalar(t)
    out = np.atleast_1d(np.asarray(t, dtype=float))
    for arc in path.arcs:
        comp = loading.arc_flows.get(arc.key)
        if comp is None or comp.entry.total <= 0:
            out = out + arc.mu
        else:
            out = comp.exit_time(out)
    return float(out[0]) if scalar else out


def per_driver_times(loading: LoadingResult, k, p):
    """Generalized-inverse time maps (β -> departure time, β -> arrival time).

    β indexes drivers of group k on path p in departure order; both maps
    raise DomainError beyond the (k, p) mass.
    """
    dep = loading.departures.get((k, p))
    arr = loading.arrivals.get((k, p))
    if dep is None or arr is None:
        raise DomainError(f"no loading data for group {k}, path {p}")
    return dep.inverse, arr.inverse
