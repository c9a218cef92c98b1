"""Reference computations made apart from kinwave, from first principles.

- ``PointQueueNetwork``: a stepped multi-path FIFO point-queue simulator.
  On a triangular arc the kinematic-wave exit is a point queue: free-flow
  delay ``mu = L / v_free`` followed by service at capacity ``F_max``.
- ``greenshields_density``: bisection for the uncongested Greenshields
  density carrying a flow, giving steady-state travel times ``L * rho / u``.
- ``dense_grid_argmin``: the minimiser of ``phi(t) + psi(t + mu)`` on a
  dense grid.
- ``best_split``: exhaustive search over a scalar split, refined by golden
  section.

``selfcheck`` tests each oracle against closed-form cases.  Nothing here
imports kinwave.
"""
from __future__ import annotations

import math

import numpy as np


# ---------------------------------------------------------------------
# Costs of the scenario schema, evaluated from their documents
# ---------------------------------------------------------------------


def cost_value(doc, t):
    t = np.asarray(t, dtype=float)
    if doc["kind"] == "affine":
        return doc["a"] + doc["b"] * t
    x = t - doc["target"]     # vickrey
    eps = doc.get("smoothing", 0.05)

    def relu(y):
        return 0.5 * (y + np.sqrt(y * y + eps * eps))

    return t + doc["early_rate"] * relu(-x) + doc["late_rate"] * relu(x)


def cost_slope_bound(doc, lo, hi):
    """max |c'(t)| on [lo, hi], from a dense grid of exact differences."""
    t = np.linspace(lo, hi, 20001)
    return float(np.max(np.abs(np.diff(cost_value(doc, t)) / np.diff(t))))


# ---------------------------------------------------------------------
# Point-queue simulator
# ---------------------------------------------------------------------


def left_inverse(ts, vals, beta):
    """First time the nondecreasing sampled curve reaches each ``beta``."""
    beta = np.asarray(beta, dtype=float)
    idx = np.clip(np.searchsorted(vals, beta, side="left"), 1, len(ts) - 1)
    v0, v1 = vals[idx - 1], vals[idx]
    dv = v1 - v0
    frac = np.where(dv > 0, (beta - v0) / np.where(dv > 0, dv, 1.0), 1.0)
    out = ts[idx - 1] + np.clip(frac, 0.0, 1.0) * (ts[idx] - ts[idx - 1])
    return np.where(beta <= vals[0], ts[0], out)


class PointQueueNetwork:
    """Stepped FIFO point queues on a DAG of triangular arcs.

    ``arcs`` maps (from, to) -> (mu, capacity); ``inflows`` maps a path
    (tuple of nodes) to a callable cumulative departure curve.  Every arc
    serves its aggregate inflow A, delayed by ``mu``, at its capacity:

        D(t) = min over s <= t of  A(s - mu) + capacity * (t - s)

    with ``s`` and ``t`` on a uniform grid of step ``h``.  Restricting ``s``
    to the grid raises D by at most ``capacity * h``, an exit-time error of
    ``h``; interpolating between grid times adds at most ``h`` more, and on
    an arc fed by another arc, interpolating the fed curve adds at most
    ``r * h`` in count, where ``r`` bounds its rate.  So each driver's exit
    time errs by at most ``(2 + r / capacity) * h`` per arc; ``time_error``
    sums that along the worst path.  Each arc's exit is split among its
    paths first-in first-out, by matching cumulative counts.
    """

    def __init__(self, arcs, inflows, t_lo, t_hi, h):
        self.arcs = dict(arcs)
        self.ts = t_lo + h * np.arange(int(math.ceil((t_hi - t_lo) / h)) + 1)
        self.paths = {tuple(p): f for p, f in inflows.items()}
        self.entry, self.exit = {}, {}       # arc -> aggregate curves on ts
        comp = {}                            # path -> its flow at its next arc
        rate = {p: 0.0 for p in self.paths}  # rate bound of that flow (0: exact)
        error = {p: 0.0 for p in self.paths}
        rank = _topo_rank(self.paths)
        for key in sorted({e for p in self.paths for e in zip(p[:-1], p[1:])},
                          key=lambda e: rank[e[0]]):
            mu, cap = self.arcs[key]
            users = [p for p in self.paths if key in zip(p[:-1], p[1:])]
            A = np.zeros(len(self.ts))
            Ad = np.zeros(len(self.ts))
            for p in users:
                if p in comp:
                    A += comp[p]
                    Ad += np.interp(self.ts - mu, self.ts, comp[p], left=0.0)
                else:   # first hop: the departure curve is exact
                    A += self.paths[p](self.ts)
                    Ad += self.paths[p](self.ts - mu)
            r = sum(rate[p] for p in users)
            D = cap * self.ts + np.minimum.accumulate(Ad - cap * self.ts)
            D = np.minimum(D, Ad)
            self.entry[key], self.exit[key] = A, D
            taus = left_inverse(self.ts, A, D)
            for p in users:
                flow = comp[p] if p in comp else self.paths[p](self.ts)
                comp[p] = np.interp(taus, self.ts, flow)
                error[p] += (2.0 + r / cap) * h
                rate[p] = cap if r == 0.0 else min(cap, r)
        self.arrivals = comp
        self.time_error = max(error.values())

    def arrival_time(self, path, t):
        """Arrival time at the path's end of a driver departing at ``t``."""
        path = tuple(path)
        tau = np.asarray(t, dtype=float)
        for key in zip(path[:-1], path[1:]):
            mu, _ = self.arcs[key]
            A, D = self.entry[key], self.exit[key]
            beta = np.interp(tau, self.ts, A)
            tau = np.maximum(tau + mu, left_inverse(self.ts, D, np.minimum(beta, D[-1])))
        return tau

    def total_cost(self, path_costs, n=20000):
        """sum over drivers of phi(departure) + psi(arrival), by the midpoint
        rule over driver counts; ``path_costs[path] = (phi, psi)``."""
        J = 0.0
        for p, (phi, psi) in path_costs.items():
            dep = np.asarray(self.paths[p](self.ts), dtype=float)
            arr = self.arrivals[p]
            G = dep[-1]
            if G <= 0:
                continue
            beta = (np.arange(n) + 0.5) * (G / n)
            J += float(np.sum(phi(left_inverse(self.ts, dep, beta))
                              + psi(left_inverse(self.ts, arr, beta))) * G / n)
        return J


def _topo_rank(paths):
    """Position of each node in a topological order of the paths' DAG."""
    succ, indeg = {}, {}
    for p in paths:
        for a, b in zip(p[:-1], p[1:]):
            if b not in succ.setdefault(a, set()):
                succ[a].add(b)
                indeg[b] = indeg.get(b, 0) + 1
            indeg.setdefault(a, 0)
    order = sorted(n for n, d in indeg.items() if d == 0)
    for n in order:
        for m in sorted(succ.get(n, ())):
            indeg[m] -= 1
            if indeg[m] == 0:
                order.append(m)
    if len(order) != len(indeg):
        raise ValueError("paths form a cycle")
    return {n: i for i, n in enumerate(order)}


def step_curve(start, width, rates):
    """Cumulative curve of piecewise-constant rates on bins of ``width``."""
    rates = np.asarray(rates, dtype=float)
    edges = start + width * np.arange(len(rates) + 1)
    cum = np.concatenate(([0.0], np.cumsum(rates * width)))

    def curve(t):
        return np.interp(t, edges, cum, left=0.0, right=cum[-1])

    return curve


# ---------------------------------------------------------------------
# Greenshields steady state
# ---------------------------------------------------------------------


def greenshields_density(u, v_free, rho_jam):
    """The rho in [0, rho_jam / 2] with v_free * rho * (1 - rho / rho_jam) = u."""
    if u > v_free * rho_jam / 4.0 * (1.0 + 1e-12):
        raise ValueError("flow above capacity")
    lo, hi = 0.0, rho_jam / 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if v_free * mid * (1.0 - mid / rho_jam) < u:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-16 * rho_jam:
            break
    return 0.5 * (lo + hi)


def steady_travel_time(u, arcs):
    """sum of L * rho(u) / u over Greenshields arcs given as (L, v_free, rho_jam)."""
    return sum(L * greenshields_density(u, v, R) / u for L, v, R in arcs)


# ---------------------------------------------------------------------
# Scalar search oracles
# ---------------------------------------------------------------------


def dense_grid_argmin(f, lo, hi, n=400001):
    ts = np.linspace(lo, hi, n)
    return float(ts[int(np.argmin(f(ts)))])


def best_split(J, total, n=101, refine=40):
    """min over x in [0, total] of J(x): grid search, then golden section
    around the best grid point.  Returns (x, J(x))."""
    xs = np.linspace(0.0, total, n)
    vals = [J(x) for x in xs]
    i = int(np.argmin(vals))
    a, b = xs[max(i - 1, 0)], xs[min(i + 1, n - 1)]
    g = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = b - g * (b - a), a + g * (b - a)
    fc, fd = J(c), J(d)
    for _ in range(refine):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - g * (b - a)
            fc = J(c)
        else:
            a, c, fc = c, d, fd
            d = a + g * (b - a)
            fd = J(d)
    best = min([(vals[i], xs[i]), (fc, c), (fd, d)])
    return best[1], best[0]


# ---------------------------------------------------------------------
# Closed-form checks of the oracles themselves
# ---------------------------------------------------------------------


def selfcheck():
    """Return a list of failed closed-form checks (empty when all pass)."""
    bad = []

    def expect(name, ok):
        if not ok:
            bad.append(name)

    h = 1e-4
    # constant inflow below capacity: a pure shift by mu
    mu, cap, r, T = 0.7, 0.5, 0.3, 2.0
    sim = PointQueueNetwork({("a", "b"): (mu, cap)},
                            {("a", "b"): step_curve(0.0, T, [r])}, 0.0, 5.0, h)
    t = np.linspace(0.1, 1.9, 7)
    expect("below capacity shifts by mu",
           np.max(np.abs(sim.arrival_time(("a", "b"), t) - (t + mu))) <= sim.time_error)
    # inflow above capacity: the queue drains at capacity
    r = 0.8
    sim = PointQueueNetwork({("a", "b"): (mu, cap)},
                            {("a", "b"): step_curve(0.0, T, [r])}, 0.0, 6.0, h)
    t = np.linspace(0.1, 1.9, 7)
    want = mu + r * t / cap
    expect("above capacity drains at F_max",
           np.max(np.abs(sim.arrival_time(("a", "b"), t) - want)) <= sim.time_error)
    D = sim.exit[("a", "b")]
    expect("exit slope within capacity", np.max(np.diff(D)) <= cap * h * (1 + 1e-9))
    # a chain whose second arc is the bottleneck
    sim = PointQueueNetwork({("a", "m"): (0.4, 2.0), ("m", "b"): (0.6, cap)},
                            {("a", "m", "b"): step_curve(0.0, T, [r])}, 0.0, 6.0, h)
    want = 0.4 + 0.6 + r * t / cap
    expect("chain queue drains at the bottleneck",
           np.max(np.abs(sim.arrival_time(("a", "m", "b"), t) - want)) <= sim.time_error)
    # two paths merging onto one arc: FIFO shares of a drained queue
    arcs = {("a", "m"): (0.5, 2.0), ("b", "m"): (0.5, 2.0), ("m", "d"): (1.0, cap)}
    sim = PointQueueNetwork(arcs, {("a", "m", "d"): step_curve(0.0, 1.0, [0.4]),
                                   ("b", "m", "d"): step_curve(0.0, 1.0, [0.4])},
                            0.0, 6.0, h)
    t = np.linspace(0.1, 0.9, 5)
    want = 0.5 + 1.0 + 0.8 * t / cap
    got = sim.arrival_time(("a", "m", "d"), t)
    expect("merge queue drains at F_max", np.max(np.abs(got - want)) <= sim.time_error)
    expect("merge shares split evenly",
           abs(sim.arrivals[("a", "m", "d")][-1] - 0.4) <= 1e-9)
    # Greenshields bisection against the quadratic root
    for u, v, R in ((0.05, 1.0, 1.0), (0.2, 1.3, 0.9), (0.29, 1.2, 1.0)):
        closed = 0.5 * R * (1.0 - math.sqrt(1.0 - 4.0 * u / (v * R)))
        expect(f"greenshields density u={u}",
               abs(greenshields_density(u, v, R) - closed) <= 1e-12)
    # dense grid: -t + (t + mu) + a (t + mu - T)^2 is least at t = T - mu
    mu, a, T = 0.8, 0.5, 1.3
    tstar = dense_grid_argmin(lambda t: -t + (t + mu) + a * (t + mu - T) ** 2, -5.0, 5.0)
    expect("dense grid argmin", abs(tstar - (T - mu)) <= 10.0 / 400000)
    # split search on a convex quadratic
    x, _ = best_split(lambda x: (x - 0.013) ** 2 + 1.0, 0.2)
    expect("exhaustive split", abs(x - 0.013) <= 1e-6)
    return bad


if __name__ == "__main__":
    failed = selfcheck()
    print("oracle self-check:", "ok" if not failed else "FAILED " + ", ".join(failed))
    raise SystemExit(1 if failed else 0)
