"""Shared builders for randomized test networks and departure profiles."""
from __future__ import annotations

import numpy as np

from kinwave import (ArcDescriptor, CostFunction, DepartureProfile, FluxDescriptor,
                     GroupDescriptor, Network, solvers)


def ascent_vertex(monkeypatch):
    """Make ``solvers._vertex`` return the vertex of -J and its gap, which
    is positive: the vertex lies up the slope, so no step toward it lowers J."""
    vertex = solvers._vertex
    monkeypatch.setattr(solvers, "_vertex", lambda network, mass, caps, J, cost:
                        vertex(network, mass, caps, -J, lambda m: -cost(m)))


def random_flux(rng, allow_greenshields=False):
    kind = rng.integers(0, 3 if allow_greenshields else 2)
    if kind == 0:
        return FluxDescriptor.triangular(
            rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)
        )
    if kind == 1:
        peak = rng.uniform(0.15, 0.5)
        rho_peak = rng.uniform(0.3, 0.7)
        # concavity needs the midpoint value above half the peak
        mid = rng.uniform(0.55, 0.95) * peak
        return FluxDescriptor.sampled(
            [[0.0, 0.0], [0.5 * rho_peak, mid], [rho_peak, peak], [1.0, 0.0]]
        )
    return FluxDescriptor.greenshields(rng.uniform(0.8, 1.5), rng.uniform(0.8, 1.5))


def random_scenario(rng, max_nodes=6, max_groups=3, allow_greenshields=False,
                    n_bins=4, bin_width=0.5, dt=1e-3):
    """A connected random network plus an admissible departure profile.

    Node chain guarantees every group a path; extra forward arcs add
    alternatives.  Rates are drawn in [0, 2 * F_max]; group sizes are set
    to the drawn mass so the profile is admissible by construction.  The
    network is built at Greenshields accuracy ``dt``, which changes no draw.
    """
    n = int(rng.integers(2, max_nodes + 1))
    nodes = [f"n{i}" for i in range(n)]
    arcs = {}
    for i in range(n - 1):
        arcs[(i, i + 1)] = ArcDescriptor(
            nodes[i], nodes[i + 1], rng.uniform(0.3, 1.5),
            random_flux(rng, allow_greenshields),
        )
    for _ in range(rng.integers(0, n)):
        i = int(rng.integers(0, n - 1))
        j = int(rng.integers(i + 1, n))
        if (i, j) not in arcs:
            arcs[(i, j)] = ArcDescriptor(
                nodes[i], nodes[j], rng.uniform(0.3, 1.5),
                random_flux(rng, allow_greenshields),
            )
    arc_list = list(arcs.values())
    f_cap = min(a.flux.f_max for a in arc_list)

    n_groups = int(rng.integers(1, max_groups + 1))
    spans, rates_list = [], []
    for _ in range(n_groups):
        i = int(rng.integers(0, n - 1))
        j = int(rng.integers(i + 1, n))
        spans.append((i, j))
        rates_list.append(rng.uniform(0.0, 2.0 * f_cap, size=n_bins))

    groups = []
    for (i, j), rates in zip(spans, rates_list):
        size = float(np.sum(rates) * bin_width)
        groups.append(GroupDescriptor(
            size, nodes[i], nodes[j],
            CostFunction.affine(0.0, -1.0), CostFunction.quadratic(0.0, 1.0, 0.2),
        ))
    network = Network(nodes, arc_list, groups, dt=dt)

    K, P = len(groups), len(network.paths)
    full = np.zeros((K, P, n_bins))
    for k, ((i, j), rates) in enumerate(zip(spans, rates_list)):
        # place all mass on the chain path i -> i+1 -> ... -> j
        chain = tuple(nodes[i: j + 1])
        p = next(
            q for q in network.paths_for_group(k) if network.paths[q].nodes == chain
        )
        full[k, p] = rates
    profile = DepartureProfile(0.0, bin_width, full)
    return network, profile


def nash_certificate_instances():
    """The three criterion-6 Nash instances: name -> (network, solve_nash keywords)."""
    phi = CostFunction.affine(0.0, -1.0)
    psi = CostFunction.vickrey(1.0, 0.2, 0.4, 0.25)
    tri = FluxDescriptor.triangular(1.0, 1.0, 1.0)
    # (a) scalar free-flow: capacity far above demand
    free_flow = Network(
        ["a", "b"],
        [ArcDescriptor("a", "b", 1.0, FluxDescriptor.triangular(1.0, 1.0, 2.0))],
        [GroupDescriptor(0.03, "a", "b", phi, psi)],
    )
    # (b) symmetric diamond: two identical two-arc routes
    diamond = Network(
        ["1", "2", "3", "4"],
        [ArcDescriptor("1", "2", 1.0, tri), ArcDescriptor("1", "3", 1.0, tri),
         ArcDescriptor("2", "4", 1.0, tri), ArcDescriptor("3", "4", 1.0, tri)],
        [GroupDescriptor(1.5, "1", "4", phi, psi)],
    )
    # (c) congested single arc: demand well above what the target window
    # can serve, so the queue shapes the equilibrium
    congested = Network(
        ["a", "b"],
        [ArcDescriptor("a", "b", 1.0, tri)],
        [GroupDescriptor(0.3, "a", "b", phi, CostFunction.vickrey(1.3, 0.6, 0.6, 2.0))],
    )
    return {
        "free_flow": (free_flow, {"bins": 256, "tol": 1e-3, "max_iter": 2000}),
        "diamond": (diamond, {"bins": 64, "tol": 1e-3, "max_iter": 2000}),
        "congested": (congested, {"bins": 512, "tol": 1e-3, "max_iter": 2500,
                                  "damping": 0.2}),
    }
