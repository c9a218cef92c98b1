"""Checks of every command's outputs, by oracle or by required property.

Each ``check_*`` function takes the scenario document a command ran on and
its output directory, and returns a list of problems (empty when the
outputs are correct).  Paths, capacities and costs are re-derived here from
the scenario documents, not read from kinwave.
"""
from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

import oracles

MASS_TOL = 1e-9     # relative tolerance on masses and counts
SIM_STEP = 1e-5     # point-queue time step
SIM_POINTS = 2_000_000   # cap on simulated time points; coarsens the step if hit


# ---------------------------------------------------------------------
# Scenario facts, derived from the documents
# ---------------------------------------------------------------------


def f_max(flux):
    """Capacity of a greenshields or triangular flux."""
    if flux["kind"] == "greenshields":
        return flux["v_free"] * flux["rho_jam"] / 4.0
    v, w, R = flux["v_free"], flux["w_back"], flux["rho_jam"]
    return v * w * R / (v + w)


def free_flow_time(arc):
    return arc["length"] / arc["flux"]["v_free"]


def simple_paths(doc, origin, dest):
    """Loop-free node sequences from origin to dest, in lexicographic order."""
    succ = {}
    for a in doc["arcs"]:
        succ.setdefault(a["from"], []).append(a["to"])
    out, stack = [], [(origin,)]
    while stack:
        p = stack.pop()
        if p[-1] == dest:
            out.append(p)
            continue
        stack.extend(p + (n,) for n in succ.get(p[-1], ()) if n not in p)
    return sorted(out)


def all_paths(doc):
    """kinwave's path list: every OD pair's paths, sorted by node sequence."""
    ods = sorted({(g["origin"], g["destination"]) for g in doc["groups"]})
    return sorted(p for o, d in ods for p in simple_paths(doc, o, d))


def read_curve(path):
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return data[:, 0], data[:, 1]


def read_json(path):
    return json.loads(Path(path).read_text(encoding="utf-8"))


def _rel(a, b):
    return abs(a - b) / max(1.0, abs(b))


def check_profile_masses(doc, prof, paths):
    problems = []
    rates = np.asarray(prof["rates"], dtype=float)
    for k, g in enumerate(doc["groups"]):
        viable = {i for i, p in enumerate(paths)
                  if (p[0], p[-1]) == (g["origin"], g["destination"])}
        mass = float(rates[k].sum() * prof["bin_width"])
        if _rel(mass, g["size"]) > MASS_TOL:
            problems.append(f"group {k} mass {mass!r} != size {g['size']!r}")
        stray = [i for i in range(len(paths)) if i not in viable and rates[k, i].any()]
        if stray or np.any(rates[k] < 0):
            problems.append(f"group {k} has negative or stray rates")
    return problems


# ---------------------------------------------------------------------
# nash-triangular
# ---------------------------------------------------------------------


def _simulate(doc, prof, paths):
    """Point-queue run of a profile on a network of triangular arcs."""
    arcs = {(a["from"], a["to"]): (free_flow_time(a), f_max(a["flux"])) for a in doc["arcs"]}
    rates = np.asarray(prof["rates"], dtype=float)
    start, width = prof["start"], prof["bin_width"]
    inflows, live = {}, np.zeros(rates.shape[2], dtype=bool)
    for k in range(rates.shape[0]):
        for i, p in enumerate(paths):
            if rates[k, i].any():
                inflows[p] = oracles.step_curve(start, width, rates[k, i])
                live |= rates[k, i] > 0
    edges = start + width * np.arange(rates.shape[2] + 1)
    t_lo = float(edges[:-1][live].min())
    G = float(rates.sum() * width)
    longest = max(sum(arcs[e][0] for e in zip(p[:-1], p[1:])) for p in paths)
    drain = sum(G / cap for _, cap in arcs.values())
    t_hi = float(edges[1:][live].max()) + longest + drain + 1.0
    h = max(SIM_STEP, (t_hi - t_lo) / SIM_POINTS)
    return oracles.PointQueueNetwork(arcs, inflows, t_lo, t_hi, h)


def check_nash(name, doc, out, tol):
    problems = []
    report = read_json(out / "report.json")
    prof = read_json(out / "profile.json")
    paths = all_paths(doc)
    problems += check_profile_masses(doc, prof, paths)
    eq = report["equilibrium"]
    if not (eq["converged"] and eq["gap"] <= tol):
        problems.append(f"gap {eq['gap']!r} above tol {tol!r}")

    sim = _simulate(doc, prof, paths)
    rates = np.asarray(prof["rates"], dtype=float)
    start, width = prof["start"], prof["bin_width"]
    n_bins = rates.shape[2]
    edges = start + width * np.arange(n_bins + 1)
    mids = edges[:-1] + 0.5 * width
    times = np.unique(np.concatenate((edges, mids)))
    mid_idx = np.searchsorted(times, mids)
    J_sim, J_err = 0.0, 0.0
    for k, g in enumerate(doc["groups"]):
        phi = lambda t, d=g["departure_cost"]: oracles.cost_value(d, t)   # noqa: E731
        psi = lambda t, d=g["arrival_cost"]: oracles.cost_value(d, t)     # noqa: E731
        # arrivals fall between the first departure and the simulated horizon
        slope = oracles.cost_slope_bound(g["arrival_cost"], times[0],
                                         max(times[-1], sim.ts[-1]) + sim.ts[-1] - sim.ts[0])
        used, best = -math.inf, math.inf
        for i, p in enumerate(paths):
            if (p[0], p[-1]) != (g["origin"], g["destination"]):
                continue
            cost = phi(times) + psi(sim.arrival_time(p, times))
            best = min(best, float(cost.min()))
            live = rates[k, i] * width > 1e-9 * max(1.0, g["size"])
            if live.any():
                used = max(used, float(cost[mid_idx][live].max()))
        cost_err = slope * sim.time_error
        J_err += g["size"] * cost_err
        J_sim += sim.total_cost({p: (phi, psi) for i, p in enumerate(paths)
                                 if rates[k, i].any()})
        if used - best > tol + 2 * cost_err:
            problems.append(f"point-queue gap {used - best:.3e} above tol + {2 * cost_err:.1e}")
        if abs((used - best) - eq["groups"][k]["gap"]) > 2 * cost_err + 1e-12:
            problems.append(f"gap {eq['groups'][k]['gap']:.6e} but point queue gives "
                            f"{used - best:.6e} (error bound {2 * cost_err:.1e})")
    # a per-driver cost accuracy of tol, plus the simulator's own error
    G = sum(g["size"] for g in doc["groups"])
    if abs(J_sim - report["total_cost"]) > tol * G + J_err:
        problems.append(f"total_cost {report['total_cost']!r} but point queue gives {J_sim!r}")

    if name == "free_flow":
        g = doc["groups"][0]
        mu = free_flow_time(doc["arcs"][0])
        t_star = oracles.dense_grid_argmin(
            lambda t: oracles.cost_value(g["departure_cost"], t)
            + oracles.cost_value(g["arrival_cost"], t + mu), edges[0], edges[-1])
        live = rates[0].sum(axis=0) * width > 1e-9 * max(1.0, g["size"])
        far = (edges[:-1][live] > t_star + width) | (edges[1:][live] < t_star - width)
        if far.any():
            problems.append(f"support reaches past one bin from the minimiser {t_star:.6f}")
    if name == "diamond":
        masses = rates[0].sum(axis=1) * width
        split = float(masses[0] / masses.sum())
        if abs(split - 0.5) > 0.02:
            problems.append(f"diamond path split {split:.4f} not 0.5 +- 0.02")
    return problems


# ---------------------------------------------------------------------
# load-greenshields
# ---------------------------------------------------------------------


def check_load(name, doc, out, dt):
    problems = []
    report = read_json(out / "report.json")
    G = sum(g["size"] for g in doc["groups"])
    tol = MASS_TOL * max(1.0, G)
    for k, g in enumerate(doc["groups"]):
        if _rel(report["arrival_totals"][k], g["size"]) > MASS_TOL:
            problems.append(f"group {k} arrivals {report['arrival_totals'][k]!r} "
                            f"!= size {g['size']!r}")
    cdir = out / "curves"
    for a in doc["arcs"]:
        stem = f"{a['from']}_{a['to']}"
        if not (cdir / f"arc_{stem}_entry.csv").exists():
            problems.append(f"arc {stem}: no curves dumped")
            continue
        te, ve = read_curve(cdir / f"arc_{stem}_entry.csv")
        tx, vx = read_curve(cdir / f"arc_{stem}_exit.csv")
        ts = np.union1d(te, tx)
        exit_v = np.interp(ts, tx, vx, left=0.0)
        if np.any(exit_v > np.interp(ts, te, ve, left=0.0) + tol):
            problems.append(f"arc {stem}: exit exceeds entry")
        if abs(vx[-1] - ve[-1]) > tol:
            problems.append(f"arc {stem}: exit total {vx[-1]!r} != entry total {ve[-1]!r}")
        slope = np.max(np.diff(vx) / np.diff(tx)) if len(tx) > 1 else 0.0
        if slope > f_max(a["flux"]) + 1e-9:
            problems.append(f"arc {stem}: exit slope {slope!r} above F_max")
        parts = sorted(cdir.glob(f"comp_g*_p*_{stem}_exit.csv"))
        if not parts:
            problems.append(f"arc {stem}: no component exits dumped")
            continue
        total = sum(np.interp(ts, *read_curve(f), left=0.0) for f in parts)
        if np.max(np.abs(total - exit_v)) > tol:
            problems.append(f"arc {stem}: component exits do not sum to the exit")
    if name == "steady":
        problems += _check_steady(doc, cdir, dt)
    return problems


def _check_steady(doc, cdir, dt):
    """Arrival times past the start-up fan against t + sum L * rho(u) / u."""
    prof = doc["profile"]
    u, T = prof["rates"][0][0][0], prof["bin_width"]
    fluxes = {(a["flux"]["v_free"], a["flux"]["rho_jam"]) for a in doc["arcs"]}
    (v_free, R), = fluxes       # one diagram on every arc
    L = sum(a["length"] for a in doc["arcs"])
    rho = oracles.greenshields_density(u, v_free, R)
    v = u / rho                             # vehicle speed in the steady state
    c = v_free * (1.0 - 2.0 * rho / R)      # slowest wave of the start-up fan
    # drivers leaving before t_first reach the start-up fan before the end of
    # the chain; the fan behind the last departure catches those after t_last
    t_first = L * (v - c) / (c * v)
    t_last = T - L * (v_free - v) / (v * v_free)
    if not t_first + 0.25 < t_last - 0.25:
        return ["steady window is empty"]
    t = np.linspace(t_first + 0.25, t_last - 0.25, 9)
    want = t + oracles.steady_travel_time(u, [(a["length"], v_free, R) for a in doc["arcs"]])
    ta, va = read_curve(cdir / "arrivals_g0_p0.csv")
    got = oracles.left_inverse(ta, va, u * (t - prof["start"]))
    worst = float(np.max(np.abs(got - want)))
    if worst > 2 * dt:
        return [f"steady arrival error {worst:.2e} above 2 dt"]
    return []


# ---------------------------------------------------------------------
# opt-merge
# ---------------------------------------------------------------------


def uniform_profile(doc, prof):
    """Equal mass on every viable (path, bin) cell of the solver's grid."""
    paths = all_paths(doc)
    n_bins = len(prof["rates"][0][0])
    rates = np.zeros((len(doc["groups"]), len(paths), n_bins))
    for k, g in enumerate(doc["groups"]):
        viable = [i for i, p in enumerate(paths)
                  if (p[0], p[-1]) == (g["origin"], g["destination"])]
        rates[k, viable] = g["size"] / (len(viable) * n_bins * prof["bin_width"])
    return {"start": prof["start"], "bin_width": prof["bin_width"],
            "rates": rates.tolist()}


def check_opt(name, doc, out, load_cost):
    """``load_cost(profile)`` runs ``kinwave load`` on ``doc`` with that
    profile and returns its reported total_cost."""
    problems = []
    report = read_json(out / "report.json")
    prof = read_json(out / "profile.json")
    paths = all_paths(doc)
    problems += check_profile_masses(doc, prof, paths)
    J = report["total_cost"]
    J_load = load_cost(prof)
    if J_load != J:
        problems.append(f"total_cost {J!r} but load of profile.json gives {J_load!r}")
    J_uniform = load_cost(uniform_profile(doc, prof))
    if J > J_uniform:
        problems.append(f"total_cost {J!r} above the uniform profile's {J_uniform!r}")
    if name == "two_bin":
        g = doc["groups"][0]
        start, width = prof["start"], prof["bin_width"]
        arcs = {(a["from"], a["to"]): (free_flow_time(a), f_max(a["flux"]))
                for a in doc["arcs"]}
        path = paths[0]
        phi = lambda t: oracles.cost_value(g["departure_cost"], t)   # noqa: E731
        psi = lambda t: oracles.cost_value(g["arrival_cost"], t)     # noqa: E731
        t_hi = start + 2 * width + sum(m for m, _ in arcs.values()) + sum(
            g["size"] / cap for _, cap in arcs.values()) + 1.0

        def cost(x):
            inflow = oracles.step_curve(start, width, [x / width, (g["size"] - x) / width])
            sim = oracles.PointQueueNetwork(arcs, {path: inflow}, start, t_hi, 1e-4)
            return sim.total_cost({path: (phi, psi)})

        _, best = oracles.best_split(cost, g["size"])
        if abs(J - best) > 1e-3 * abs(best):
            problems.append(f"total_cost {J!r} but exhaustive split gives {best!r}")
    return problems
