"""Full-network loading: departure rates to arc curves and arrival times.

Loading is causal: an arc's exit up to time t depends only on its entry up
to t - mu, mu being its free-flow time.  ``network_load`` sweeps the arcs in
feeder order, loading each from its feeders' latest curves, which carry the
time up to which they are exact; on an acyclic feeder graph one sweep loads
the network exactly.  All curve arithmetic is exact piecewise-linear, a
Greenshields exit being exact for the table of chords ``network.dt`` sets.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .curves import CumulativeCurve, ExitComputation, lax_hopf_exit
from .errors import AdmissibilityError, ConfigurationError, LoadingError
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
        if self.rates.ndim != 3 or not self.rates.shape[2]:
            raise AdmissibilityError("rates must have shape (groups, paths, bins), bins >= 1")

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

    def validate(self, network: Network, check_mass=True):
        """Check shape, finiteness, nonnegativity, path viability, and mass
        balance."""
        K, P = len(network.groups), len(network.paths)
        if self.rates.shape[:2] != (K, P):
            raise AdmissibilityError(
                f"rates shaped {self.rates.shape}, expected ({K}, {P}, n_bins)"
            )
        if not np.all(np.isfinite(self.rates)):
            raise AdmissibilityError("departure rates must be finite")
        if np.any(self.rates < 0):
            raise AdmissibilityError("departure rates must be nonnegative")
        for k, viable in enumerate(network.viable):
            for p, ok in enumerate(viable):
                if not ok and np.any(self.rates[k, p] > 0):   # the loader would drop it
                    raise AdmissibilityError(
                        f"group {k} assigns flow to non-connecting path {p}"
                    )
            mass = self.rates[k].sum() * self.bin_width
            G_k = network.groups[k].size
            if check_mass and abs(mass - G_k) > _MASS_TOL * max(1.0, G_k):
                raise AdmissibilityError(
                    f"group {k} departs mass {mass:.12g}, expected {G_k:.12g}"
                )

    def departure_curve(self, k, p) -> CumulativeCurve:
        return CumulativeCurve.from_step_rates(self.bin_edges, self.rates[k, p])


@dataclass
class LoadingResult:
    """All curves produced by one network loading.

    ``arc_flows[key]`` holds the aggregate entry/exit pair of an arc.
    ``curves[(k, p)]``, for every cell of the network, is the cell's
    departure curve and then its share of each arc exit along the path:
    entry ``h`` is what the cell brings into hop ``h``, and the last entry
    is its arrivals.  A cell that departs nothing holds its zero departure
    curve alone.  ``splits[key]`` is an arc's last FIFO split: the time up to
    which its shares are exact and the entry components it split, keyed by
    (k, p, hop).  Its shares are in ``curves``: the split is the only writer
    of hop + 1 of each of its cells.  ``windows`` is the number of loading
    sweeps, 1 on an acyclic feeder graph.
    """

    network: Network
    profile: DepartureProfile
    arc_flows: dict = field(default_factory=dict)      # key -> ExitComputation
    curves: dict = field(default_factory=dict)         # (k, p) -> tuple of curves
    splits: dict = field(default_factory=dict)         # key -> (t_hi, comps)
    windows: int = 0

    @property
    def end_time(self):
        """The time the last cell's arrivals end, the profile's start if none."""
        return max((c[-1].t[-1] for c in self.curves.values()), default=self.profile.start)

    def arrival_total(self, k):
        return sum(self.curves[(k, p)][-1].total for p in self.network.paths_for_group(k))

    def check_invariants(self, tol=1e-6):
        """Causality, capacity, composition, and conservation checks."""
        G = max(1.0, self.network.total_demand)
        shares = {}     # arc key -> [(a cell's entry, its exit share)]
        for (_, p), record in self.curves.items():
            for arc, entry, share in zip(self.network.paths[p].arcs, record, record[1:]):
                shares.setdefault(arc.key, []).append((entry, share))
        for key, comp in self.arc_flows.items():
            comp.validate(tol * G / max(1.0, comp.entry.total))
            ts = np.unique(np.concatenate((comp.entry.t, comp.exit.t)))
            for side, parts in zip(("entry", "exit"), zip(*shares.get(key, []))):
                s = sum(c(ts) for c in parts)
                if np.max(np.abs(s - getattr(comp, side)(ts))) > tol * G:
                    raise LoadingError(f"{side} compositions do not sum on arc {key}")
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


def network_load(network: Network, profile: DepartureProfile, *, check_mass=True,
                 reuse: LoadingResult | None = None) -> LoadingResult:
    """Propagate a departure profile through the network.

    Sweeps the live arcs in feeder order, which each load reads from its own
    live cells: each arc combines its component entries, computes its whole
    exit and splits it among them.  Its exit components are exact up to its
    mu plus the least exact-until time of its predecessors, the arcs its
    cells ride just before it: +inf if it has none, the first live departure
    time for one not yet swept.  Sweeps stop once every group's mass has
    reached its destination, after one sweep on an acyclic feeder graph; at
    most as many run as windows of the shortest mu would.
    ``check_mass=False`` skips the per-group mass-balance check (used for
    finite-difference cost probes, which perturb one bin at a time).

    ``reuse``, a loading of the same network (else ConfigurationError),
    lends what the new load would compute again, each as it is:
    - a cell's departure curve, when its rate row and the bin edges have the
      same bytes as in ``reuse``'s profile (bytes, since -0.0 == 0.0);
    - an arc whole, its ``ExitComputation`` and its cells' exit shares, when
      its components are the very curves ``reuse`` split and they are cut at
      the same time: the exit and its split are functions of these alone.
    So a load that changes one bin of one cell rebuilds only the curves
    downstream of it.
    """
    if reuse is not None and reuse.network is not network:
        raise ConfigurationError("reuse must be a loading of the same network")
    profile.validate(network, check_mass=check_mass)

    result = LoadingResult(network, profile)
    live = profile.rates[network.viable] > 0        # one row per cell, in cell order
    t_first = profile.start + int(np.argmax(live.any(axis=0))) * profile.bin_width
    zero = CumulativeCurve.zero(t_first)
    lent = reuse.profile if reuse is not None and \
        reuse.profile.bin_edges.tobytes() == profile.bin_edges.tobytes() else None

    # live cells: (k, p) -> list of arcs along the path, and the reverse
    # index: arc key -> list of (k, p, hop) feeding that arc.  A live cell's
    # record is filled hop by hop, and a hop not yet reached holds ``zero``.
    path_arcs = {}
    feeders = {a.key: [] for a in network.arcs}
    for (k, p), row in zip(network.cells, live):
        if not row.any():
            result.curves[(k, p)] = (CumulativeCurve.zero(profile.start),)
            continue
        path_arcs[(k, p)] = arcs = network.paths[p].arcs
        for hop, arc in enumerate(arcs):
            feeders[arc.key].append((k, p, hop))
        if lent is not None and lent.rates[k, p].tobytes() == profile.rates[k, p].tobytes():
            departures = reuse.curves[(k, p)][0]
        else:
            departures = profile.departure_curve(k, p)
        result.curves[(k, p)] = [departures] + [zero] * len(arcs)

    if not path_arcs:
        return result

    # each swept arc's predecessors, the arcs its live cells ride just before
    # it; the sweep takes the first arc, as listed, whose predecessors are
    # placed, and where none is, the first pending arc, which breaks a cycle
    preds = {key: {path_arcs[(k, p)][h - 1].key for k, p, h in fed if h}
             for key, fed in feeders.items() if fed}
    order, placed, pending = [], set(), [a for a in network.arcs if a.key in preds]
    while pending:
        order.append(next((a for a in pending if preds[a.key] <= placed), pending[0]))
        placed.add(order[-1].key)
        pending.remove(order[-1])
    t_max = max(max_travel_time(network.paths[p], network.total_demand)
                for p in {p for _, p in path_arcs})
    horizon = profile.end + t_max + 1.0
    exact_until = {}    # arc key -> time up to which its exit compositions are exact

    def short_path():
        """First (group, path) whose arrivals fall short of its departures, or None."""
        for k, p in path_arcs:
            want = profile.rates[k, p].sum() * profile.bin_width
            if result.curves[(k, p)][-1].total < want - _MASS_TOL * max(1.0, want):
                return k, p

    sweeps = np.ceil((horizon - profile.start) / min(a.mu for a in network.arcs))
    max_sweeps = int(min(2**31, sweeps)) + 2     # min() also caps an overflowed (inf) ratio
    for sweep in range(max_sweeps):
        for arc in order:
            fed = feeders[arc.key]
            comps = {(k, p, h): result.curves[(k, p)][h] for (k, p, h) in fed}
            t_hi = exact_until[arc.key] = arc.mu + min(
                (exact_until.get(u, t_first) for u in preds[arc.key]), default=np.inf)
            result.splits[arc.key] = (t_hi, comps)
            lent_split = reuse.splits.get(arc.key) if reuse is not None else None
            if lent_split is not None and lent_split[0] == t_hi \
                    and lent_split[1].keys() == comps.keys() \
                    and all(c is lent_split[1][key] for key, c in comps.items()):
                result.arc_flows[arc.key] = reuse.arc_flows[arc.key]
                for k, p, h in comps:
                    result.curves[(k, p)][h + 1] = reuse.curves[(k, p)][h + 1]
                continue
            entry = CumulativeCurve.combine(list(comps.values()))
            exit_curve = lax_hopf_exit(entry, arc, dt=network.dt)
            result.arc_flows[arc.key] = ExitComputation(entry, exit_curve, arc)
            for (k, p, h), share in _split_exit(exit_curve, entry, comps, t_hi).items():
                result.curves[(k, p)][h + 1] = share
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
    result.curves = {cell: tuple(record) for cell, record in result.curves.items()}
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
