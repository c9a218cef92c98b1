"""Acceptance gate: nine end-to-end criteria checked against independent oracles.

Each test prints a single `criterion N: PASS/FAIL` line (visible even under
pytest's output capture) and asserts the criterion at its pinned tolerance.
"""
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import kinwave
from kinwave import (ArcDescriptor, CostFunction, CumulativeCurve, DepartureProfile,
                     FluxDescriptor, GroupDescriptor, Network, arrival_time_path,
                     compute_bounds, lax_hopf_exit, modulus_of_continuity,
                     network_load, solve_global, solve_nash, total_cost)

from helpers import nash_certificate_instances, random_scenario
from oracles import greenshields_density, left_inverse, point_queue_sim

_shared = {"slope_checks": [], "nash": None}


def _announce(capsys, n, ok, detail):
    with capsys.disabled():
        print(f"\ncriterion {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {n}: {detail}"


def _record_slopes(loading):
    for comp in loading.arc_flows.values():
        _shared["slope_checks"].append((comp.exit.max_slope, comp.arc.flux.f_max))


# ---------------------------------------------------------------------
# 1. Conservation and causality on randomized scenarios
# ---------------------------------------------------------------------


def test_criterion_1_conservation_causality(capsys):
    t_start = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for i in range(50):
        # coarse dt: the invariants checked here are structural
        # (they hold at any resolution), and the fine default would blow
        # the wall-clock budget on the curved-flux scenarios
        net, prof = random_scenario(rng, allow_greenshields=(i % 7 == 0), dt=4e-3)
        loading = network_load(net, prof)
        _record_slopes(loading)
        G = max(net.total_demand, 1e-12)
        for key, comp in loading.arc_flows.items():
            ts = np.unique(np.concatenate((comp.entry.t, comp.exit.t)))
            causality = float(np.max(comp.exit(ts) - comp.entry(ts), initial=0.0))
            conservation = abs(comp.exit.total - comp.entry.total)
            worst = max(worst, causality / G, conservation / G)
        for k, g in enumerate(net.groups):
            worst = max(worst, abs(loading.arrival_total(k) - g.size) / G)
    elapsed = time.perf_counter() - t_start
    ok = worst <= 1e-6 and elapsed < 30.0
    _announce(capsys, 1, ok,
              f"50 scenarios, worst violation {worst:.2e} (tol 1e-6*G), "
              f"{elapsed:.1f}s (< 30s)")


# ---------------------------------------------------------------------
# 2. Kinematic-wave steady-state travel time
# ---------------------------------------------------------------------


def test_criterion_2_kinematic_wave_oracle(capsys):
    t_start = time.perf_counter()
    dt = 1e-3
    worst = 0.0
    for u in (0.05, 0.16, 0.24):
        net = Network(
            ["a", "b"],
            [ArcDescriptor("a", "b", 1.0, FluxDescriptor.greenshields(1.0, 1.0))],
            [GroupDescriptor(10.0 * u, "a", "b", CostFunction.affine(0.0, -1.0),
                             CostFunction.affine(0.0, 1.0))],
            dt=dt,
        )
        prof = DepartureProfile(0.0, 10.0, np.full((1, 1, 1), u))
        loading = network_load(net, prof)
        _record_slopes(loading)
        shift = greenshields_density(u) / u
        # departures past the startup fan ride the steady state exactly
        for t in (4.0, 6.0, 8.0):
            arr = arrival_time_path(loading, net.paths[0], t)
            worst = max(worst, abs(arr - (t + shift)))
    elapsed = time.perf_counter() - t_start
    ok = worst <= 2.0 * dt and elapsed < 5.0
    _announce(capsys, 2, ok,
              f"steady-state arrival error {worst:.2e} (tol {2*dt:.0e}), "
              f"{elapsed:.1f}s (< 5s)")


# ---------------------------------------------------------------------
# 3. Event-driven point-queue simulation
# ---------------------------------------------------------------------


def test_criterion_3_event_driven_fifo_oracle(capsys):
    rng = np.random.default_rng(77)
    worst = 0.0
    for case in range(10):
        n_arcs = 1 + case % 2
        arcs, nodes = [], ["n0"]
        for j in range(n_arcs):
            flux = FluxDescriptor.triangular(
                rng.uniform(0.6, 1.5), rng.uniform(0.6, 1.5), rng.uniform(0.6, 1.5)
            )
            nodes.append(f"n{j + 1}")
            arcs.append(ArcDescriptor(nodes[j], nodes[j + 1],
                                      rng.uniform(0.4, 1.2), flux))
        rates = rng.uniform(0.2, 1.4 * min(a.flux.f_max for a in arcs), size=4)
        width = 0.5
        size = float(rates.sum() * width)
        net = Network(nodes, arcs,
                      [GroupDescriptor(size, nodes[0], nodes[-1],
                                       CostFunction.affine(0.0, -1.0),
                                       CostFunction.affine(0.0, 1.0))])
        prof = DepartureProfile(0.0, width, rates.reshape(1, 1, -1))
        loading = network_load(net, prof)
        _record_slopes(loading)

        dep = prof.departure_curve(0, 0)
        horizon = (prof.end + sum(a.mu for a in arcs)
                   + sum(size / a.flux.f_max for a in arcs) + 1.0)
        ts, exit_cum = point_queue_sim(
            dep, [(a.mu, a.flux.f_max) for a in arcs], 0.0, horizon, step=1e-4
        )
        for t in np.linspace(0.05, prof.end - 0.05, 15):
            sim = left_inverse(ts, exit_cum, dep(t))
            got = arrival_time_path(loading, net.paths[0], t)
            worst = max(worst, abs(got - sim))
    ok = worst <= 5e-3
    _announce(capsys, 3, ok,
              f"10 scenarios, worst arrival-time deviation {worst:.2e} (tol 5e-3)")


# ---------------------------------------------------------------------
# 4. Exit-time modulus of continuity
# ---------------------------------------------------------------------


def _random_entry(rng, M, edges):
    rates = rng.uniform(0.0, M, size=len(edges) - 1)
    return CumulativeCurve.from_step_rates(edges, rates)


def test_criterion_4_exit_time_modulus(capsys):
    rng = np.random.default_rng(5150)
    arcs = {
        "triangular": ArcDescriptor("a", "b", 1.0,
                                    FluxDescriptor.triangular(1.0, 1.0, 1.0)),
        "sampled": ArcDescriptor(
            "a", "b", 1.0,
            FluxDescriptor.sampled(
                [[0, 0], [0.2, 0.18], [0.5, 0.25], [0.8, 0.12], [1, 0]]
            ),
        ),
        "greenshields": ArcDescriptor("a", "b", 1.0,
                                      FluxDescriptor.greenshields(1.0, 1.0)),
    }
    gaps = np.array([0.05, 0.3, 1.0])
    edges = np.linspace(0.0, 1.0, 4)
    worst = -np.inf
    for name, arc in arcs.items():
        M = 2.0 * arc.flux.f_max
        G = M * (edges[-1] - edges[0])
        phi = modulus_of_continuity(arc, M, G)
        phi_vals = np.array([phi(x) for x in gaps])
        for _ in range(1000):
            entry = _random_entry(rng, M, edges)
            if entry.total <= 0:
                continue
            exit_c = lax_hopf_exit(entry, arc, dt=2e-3)
            _shared["slope_checks"].append((exit_c.max_slope, arc.flux.f_max))
            from kinwave import ExitComputation
            comp = ExitComputation(entry, exit_c, arc)
            t1 = rng.uniform(0.0, 1.0, size=3)
            for t, gap, bound in zip(t1, gaps, phi_vals):
                inc = comp.exit_time(t + gap) - comp.exit_time(t)
                worst = max(worst, inc - bound)

    # path version: two-arc chains, modulus composed through the chain
    path_worst = -np.inf
    tri = FluxDescriptor.triangular(1.0, 1.0, 1.0)
    for _ in range(100):
        L1, L2 = rng.uniform(0.4, 1.2, size=2)
        net = Network(
            ["a", "m", "b"],
            [ArcDescriptor("a", "m", L1, tri), ArcDescriptor("m", "b", L2, tri)],
            [GroupDescriptor(1.0, "a", "b", CostFunction.affine(0.0, -1.0),
                             CostFunction.affine(0.0, 1.0))],
        )
        M0 = 1.0
        rates = rng.uniform(0.0, M0, size=4)
        size = float(rates.sum() * 0.25)
        if size <= 0:
            continue
        net = Network(net.nodes, net.arcs,
                      [GroupDescriptor(size, "a", "b",
                                       CostFunction.affine(0.0, -1.0),
                                       CostFunction.affine(0.0, 1.0))])
        prof = DepartureProfile(0.0, 0.25, rates.reshape(1, 1, -1))
        loading = network_load(net, prof)
        _record_slopes(loading)
        phi1 = modulus_of_continuity(net.arcs[0], M0, size)
        # arc 2 sees entry rates capped by arc 1's capacity
        phi2 = modulus_of_continuity(net.arcs[1], net.arcs[0].flux.f_max, size)
        for gap in (0.1, 0.5):
            bound = phi2(phi1(gap))
            for t in rng.uniform(0.0, 1.0, size=2):
                inc = (arrival_time_path(loading, net.paths[0], t + gap)
                       - arrival_time_path(loading, net.paths[0], t))
                path_worst = max(path_worst, inc - bound)
    ok = worst <= 1e-6 and path_worst <= 1e-6
    _announce(capsys, 4, ok,
              f"worst excess over modulus: single-arc {worst:.2e}, "
              f"two-arc path {path_worst:.2e} (tol 1e-6)")


# ---------------------------------------------------------------------
# 5. Capacity bound on every computed exit slope
# ---------------------------------------------------------------------


def test_criterion_5_capacity_lipschitz(capsys):
    # include a fresh overloaded case in addition to everything recorded
    # by criteria 1-4
    arc = ArcDescriptor("a", "b", 1.0, FluxDescriptor.greenshields(1.0, 1.0))
    entry = CumulativeCurve.from_step_rates([0.0, 1.0], [0.5])
    exit_c = lax_hopf_exit(entry, arc, dt=1e-3)
    _shared["slope_checks"].append((exit_c.max_slope, arc.flux.f_max))
    checks = _shared["slope_checks"]
    worst = max(s - f for s, f in checks)
    ok = worst <= 1e-9
    _announce(capsys, 5, ok,
              f"{len(checks)} exit curves, worst slope excess over F_max "
              f"{worst:.2e} (tol 1e-9)")


# ---------------------------------------------------------------------
# 6. Nash certificates on three reference instances
# ---------------------------------------------------------------------


def _nash_instances():
    """Solve the three certificate instances once; cache for criterion 7."""
    if _shared["nash"] is not None:
        return _shared["nash"]
    out = {name: (net, *solve_nash(net, **kwargs))
           for name, (net, kwargs) in nash_certificate_instances().items()}
    _shared["nash"] = out
    return out


def test_criterion_6_nash_certificates(capsys):
    t_start = time.perf_counter()
    instances = _nash_instances()
    details, ok = [], True
    for name, (net, prof, report) in instances.items():
        spread = max(r["used_cost"] - r["support_min_cost"] for r in report.groups)
        no_better = max(r["used_cost"] - r["best_cost"] for r in report.groups)
        good = (report.gap <= 1e-3 and spread <= 1e-3 and no_better <= 1e-3
                and report.rates_ok and report.support_ok)
        if name == "diamond":
            masses = prof.rates.sum(axis=2) * prof.bin_width
            ps = net.paths_for_group(0)
            split = masses[0, ps[0]] / masses[0].sum()
            good = good and abs(split - 0.5) <= 0.02
        ok = ok and good
        details.append(f"{name} gap {report.gap:.2e}")
    elapsed = time.perf_counter() - t_start
    ok = ok and elapsed < 60.0
    _announce(capsys, 6, ok, ", ".join(details) + f"; {elapsed:.1f}s (< 60s)")


# ---------------------------------------------------------------------
# 7. Global optimum against exhaustive search; optimum dominates equilibrium
# ---------------------------------------------------------------------


def test_criterion_7_global_optimum(capsys):
    phi = CostFunction.affine(0.0, -1.0)
    psi = CostFunction.vickrey(1.0, 0.2, 0.4, 0.25)
    net = Network(
        ["a", "b"],
        [ArcDescriptor("a", "b", 1.0, FluxDescriptor.triangular(1.0, 1.0, 1.0))],
        [GroupDescriptor(0.2, "a", "b", phi, psi)],
    )
    prof, J, _ = solve_global(net, bins=2, max_iter=60, restarts=2, seed=1)
    best = np.inf
    for x in np.linspace(0.0, 0.2, 201):
        rates = np.array([[[x, 0.2 - x]]]) / prof.bin_width
        best = min(best, total_cost(
            net, DepartureProfile(prof.start, prof.bin_width, rates)))
    rel = abs(J - best) / max(abs(best), 1e-12)
    ok = rel <= 1e-3

    # the optimum never costs more than the equilibrium (warm-started from it)
    doms = []
    for name, (net_i, nash_prof, _) in _nash_instances().items():
        J_nash = total_cost(net_i, nash_prof)
        _, J_opt, _ = solve_global(net_i, bins=nash_prof.n_bins, max_iter=2,
                                   restarts=0, init=nash_prof)
        doms.append(J_opt - J_nash)
        ok = ok and J_opt <= J_nash + 1e-3
    _announce(capsys, 7, ok,
              f"2-bin exhaustive rel. diff {rel:.2e} (tol 1e-3); "
              f"J_opt - J_nash max {max(doms):.2e} (tol 1e-3)")


# ---------------------------------------------------------------------
# 8. Monotone comparison and sup-norm contraction
# ---------------------------------------------------------------------


def test_criterion_8_monotone_contraction(capsys):
    rng = np.random.default_rng(808)
    arcs = [
        ArcDescriptor("a", "b", 1.0, FluxDescriptor.triangular(1.0, 1.0, 1.0)),
        ArcDescriptor("a", "b", 1.0, FluxDescriptor.sampled(
            [[0, 0], [0.2, 0.18], [0.5, 0.25], [0.8, 0.12], [1, 0]])),
        ArcDescriptor("a", "b", 1.0, FluxDescriptor.greenshields(1.0, 1.0)),
    ]
    worst_order, worst_contract = -np.inf, -np.inf
    edges = np.linspace(0.0, 2.0, 5)
    for i in range(100):
        arc = arcs[i % 3]
        hi_rates = rng.uniform(0.05, 1.5 * arc.flux.f_max, size=4)
        lo_rates = hi_rates * rng.uniform(0.05, 1.0, size=4)
        lo = CumulativeCurve.from_step_rates(edges, lo_rates)
        hi = CumulativeCurve.from_step_rates(edges, hi_rates)
        e_lo = lax_hopf_exit(lo, arc, dt=1e-3)
        e_hi = lax_hopf_exit(hi, arc, dt=1e-3)
        grid = np.unique(np.concatenate((e_lo.t, e_hi.t, lo.t, hi.t)))
        worst_order = max(worst_order, float(np.max(e_lo(grid) - e_hi(grid))))
        gap_in = float(np.max(np.abs(hi(grid) - lo(grid))))
        gap_out = float(np.max(np.abs(e_hi(grid) - e_lo(grid))))
        worst_contract = max(worst_contract, gap_out - gap_in)
    ok = worst_order <= 1e-9 and worst_contract <= 1e-9
    _announce(capsys, 8, ok,
              f"100 ordered pairs: worst order violation {worst_order:.2e}, "
              f"worst contraction excess {worst_contract:.2e} (tol 1e-9)")


# ---------------------------------------------------------------------
# 9. Byte-identical outputs under a fixed seed
# ---------------------------------------------------------------------


def test_criterion_9_determinism(capsys, tmp_path):
    doc = {
        "format": 1,
        "nodes": ["a", "b"],
        "arcs": [{"from": "a", "to": "b", "length": 1.0,
                  "flux": {"kind": "triangular", "v_free": 1.0, "w_back": 1.0,
                           "rho_jam": 2.0}}],
        "groups": [{"size": 0.03, "origin": "a", "destination": "b",
                    "departure_cost": {"kind": "affine", "a": 0.0, "b": -1.0},
                    "arrival_cost": {"kind": "vickrey", "target": 1.0,
                                     "early_rate": 0.2, "late_rate": 0.4,
                                     "smoothing": 0.25}}],
        "solver": {"bins": 128, "tol": 0.005, "max_iter": 400, "seed": 11,
                   "restarts": 2},
    }
    scen = tmp_path / "scenario.json"
    scen.write_text(json.dumps(doc), encoding="utf-8")

    # the subprocesses import kinwave from this checkout's src, as this process does
    src = str(Path(kinwave.__file__).resolve().parent.parent)
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    mismatches = []
    for cmd, bins_flag in (("nash", None), ("opt", 4)):
        outs = []
        for tag in ("r1", "r2"):
            out = tmp_path / f"{cmd}_{tag}"
            args = [sys.executable, "-m", "kinwave.cli", cmd, "--scenario",
                    str(scen), "--out", str(out), "--dump-curves"]
            if bins_flag:
                args += ["--bins", str(bins_flag)]
            proc = subprocess.run(args, capture_output=True, check=False, env=env, text=True)
            assert proc.returncode == 0, f"{cmd} exited {proc.returncode}: {proc.stderr}"
            outs.append(out)
        a, b = outs
        files_a = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file()
                         and p.name != "timing.json")
        files_b = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file()
                         and p.name != "timing.json")
        if files_a != files_b or not files_a:
            mismatches.append(f"{cmd}: file sets differ or empty")
            continue
        for rel in files_a:
            if (a / rel).read_bytes() != (b / rel).read_bytes():
                mismatches.append(f"{cmd}: {rel}")
    ok = not mismatches
    _announce(capsys, 9, ok,
              "repeated nash and opt runs byte-identical"
              if ok else f"differing files: {mismatches}")
