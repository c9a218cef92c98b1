"""Full-network loading: departure rates to arc curves and arrival times.

The loading recursion advances time in windows of the shortest free-flow
arc traversal: within one window every arc's exit depends only on entry
data from earlier windows, so arcs can be processed in any order.  An arc
exit is the whole exit of the entry known so far, so it is cached and
reused while that entry is unchanged.  All curve arithmetic is exact
piecewise-linear (triangular/sampled fluxes) or sampled on a uniform grid
(smooth fluxes).
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
        """Check shape, nonnegativity, caps, path viability, and mass balance."""
        K, P = len(network.groups), len(network.paths)
        if self.rates.shape[:2] != (K, P):
            raise AdmissibilityError(
                f"rates shaped {self.rates.shape}, expected ({K}, {P}, n_bins)"
            )
        if np.any(self.rates < -tol):
            raise AdmissibilityError("departure rates must be nonnegative")
        if rate_cap is not None and np.any(self.rates > rate_cap + tol):
            raise AdmissibilityError(f"departure rate exceeds the cap {rate_cap}")
        for k in range(K):
            viable = set(network.paths_for_group(k))
            for p in range(P):
                if p not in viable and np.any(np.abs(self.rates[k, p]) > tol):
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

    def copy(self):
        return DepartureProfile(self.start, self.bin_width, self.rates.copy())


@dataclass
class LoadingResult:
    """All curves produced by one network loading.

    ``arc_flows[key]`` holds the aggregate entry/exit pair of an arc;
    ``comp_entry`` / ``comp_exit`` map (k, p, key) to that group-path's
    share of the arc's curves; ``arrivals[(k, p)]`` is the cumulative
    count delivered at the destination.
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
        return sum(
            self.arrivals[(k, p)].total
            for p in self.network.paths_for_group(k)
            if (k, p) in self.arrivals
        )

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
    leavers equals that component's count at the matched entry time.
    """
    cut = float(exit_curve(t_hi))
    vals = np.concatenate([entry_curve.v] + [c.v for c in comps.values()])
    reach = np.minimum(vals[vals <= cut + 1e-15 * max(1.0, cut)], exit_curve.total)
    ts = np.unique(np.concatenate(
        (exit_curve.t[exit_curve.t <= t_hi], [t_hi], exit_curve.inverse(reach))))
    ts = ts[ts <= t_hi + 1e-12]
    taus = entry_curve.inverse(np.minimum(exit_curve(ts), entry_curve.total))
    out = {}
    for key, comp in comps.items():
        out[key] = CumulativeCurve(ts, comp(taus), validate=False).simplify()
    return out


def network_load(network: Network, profile: DepartureProfile, *, dt=1e-3,
                 rate_cap=None, check_mass=True) -> LoadingResult:
    """Propagate a departure profile through the network.

    Advances in windows of the shortest free-flow traversal time until
    every group's mass has reached its destination, then returns all
    aggregate and per-(group, path) curves.  ``check_mass=False`` skips
    the per-group mass-balance check (used for finite-difference cost
    probes, which perturb one bin at a time).
    """
    profile.validate(network, rate_cap=rate_cap, check_mass=check_mass)
    if not np.all(np.isfinite(profile.rates)):
        raise AdmissibilityError("departure rates must be finite")

    result = LoadingResult(network, profile)
    G = network.total_demand
    masses = profile.group_masses()

    # (k, p) -> list of arcs along the path, and the reverse index:
    # arc key -> list of (k, p, hop) feeding that arc
    path_arcs = {}
    feeders = {a.key: [] for a in network.arcs}
    for k in range(len(network.groups)):
        for p in network.paths_for_group(k):
            if masses[k] <= 0 or not np.any(profile.rates[k, p] > 0):
                continue
            arcs = network.paths[p].arcs
            path_arcs[(k, p)] = arcs
            for hop, arc in enumerate(arcs):
                feeders[arc.key].append((k, p, hop))
            result.departures[(k, p)] = profile.departure_curve(k, p)

    if not path_arcs:
        t0 = profile.start
        for k in range(len(network.groups)):
            for p in network.paths_for_group(k):
                result.arrivals[(k, p)] = CumulativeCurve.zero(t0)
        result.end_time = t0
        return result

    t_max = max(max_travel_time(network, network.paths[p], G) for (_, p) in path_arcs)
    horizon = profile.end + t_max + 1.0
    delta = min(a.mu for a in network.arcs)
    # start the recursion at the first actual departure, not the grid start
    first_live = min(
        int(np.argmax(profile.rates[k, p] > 0)) for (k, p) in path_arcs
    )
    t_cur = profile.start + first_live * profile.bin_width

    # per (k, p, hop): exit composition known up to t_cur, or None before
    # the corresponding window is reached
    comp_exit = {}

    def entry_components(arc):
        """Component entry curves of one arc given data valid up to t_cur."""
        comps = {}
        for (k, p, hop) in feeders[arc.key]:
            if hop == 0:
                comps[(k, p, hop)] = result.departures[(k, p)]
            else:
                prev = comp_exit.get((k, p, hop - 1))
                comps[(k, p, hop)] = prev if prev is not None else CumulativeCurve.zero(
                    t_cur
                )
        return comps

    def short_path():
        """First (group, path) whose arrivals fall short of its departures, or None."""
        for (k, p), arcs in path_arcs.items():
            last = comp_exit.get((k, p, len(arcs) - 1))
            want = profile.rates[k, p].sum() * profile.bin_width
            if last is None or last.total < want - _MASS_TOL * max(1.0, want):
                return k, p

    max_windows = int(np.ceil((horizon - profile.start) / delta)) + 2
    exit_cache = {}
    for window in range(max_windows):
        t_next = t_cur + delta
        new_exit = {}
        for arc in network.arcs:
            comps = entry_components(arc)
            if not comps:
                continue
            entry = CumulativeCurve.combine(list(comps.values()))
            # the entry often stops changing between windows (all upstream
            # mass delivered); the exit computed then is still its whole exit
            cached = exit_cache.get(arc.key)
            if cached is not None and np.array_equal(cached[0].t, entry.t) and \
                    np.array_equal(cached[0].v, entry.v):
                exit_curve = cached[1]
            else:
                exit_curve = lax_hopf_exit(entry, arc, dt=dt)
                exit_cache[arc.key] = (entry, exit_curve)
            result.arc_flows[arc.key] = ExitComputation(entry, exit_curve, arc)
            new_exit.update(_split_exit(exit_curve, entry, comps, t_next))
            for ckey, comp in comps.items():
                result.comp_entry[(ckey[0], ckey[1], arc.key)] = comp.truncate(t_next)
        comp_exit = new_exit
        t_cur = t_next
        result.windows = window + 1

        if short_path() is None:
            break
    else:
        k, p = short_path()
        raise LoadingError(
            f"network did not drain within the horizon {horizon:.6g}: the arrivals "
            f"of group {k} on path {p} {network.paths[p]!r} fell short of its "
            "departures; check for capacity bottlenecks"
        )

    for (k, p), arcs in path_arcs.items():
        for hop, arc in enumerate(arcs):
            result.comp_exit[(k, p, arc.key)] = comp_exit[(k, p, hop)]
        result.arrivals[(k, p)] = comp_exit[(k, p, len(arcs) - 1)]
    for k in range(len(network.groups)):
        for p in network.paths_for_group(k):
            if (k, p) not in result.arrivals:
                result.arrivals[(k, p)] = CumulativeCurve.zero(profile.start)
                result.departures.setdefault((k, p), CumulativeCurve.zero(profile.start))
    result.end_time = t_cur
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
