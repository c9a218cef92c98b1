"""Seeded scenario documents for the three benchmark workloads.

The seed draws one mass scale ``c`` (log-uniform in [0.8, 1.25]) that
multiplies every group size, departure rate, jam density, sampled flow and
``opt`` improvement tolerance.  Scaling masses and densities together
leaves every travel time, solver trajectory and iteration count unchanged,
so each seed costs the same work while every number the checks compare is
different.

Every scenario is a plain ``"format": 1`` document; the program sees nothing
but these files.
"""
from __future__ import annotations

import random

PHI = {"kind": "affine", "a": 0.0, "b": -1.0}
PSI_CERT = {"kind": "vickrey", "target": 1.0, "early_rate": 0.2,
            "late_rate": 0.4, "smoothing": 0.25}
PSI_CONGESTED = {"kind": "vickrey", "target": 1.3, "early_rate": 0.6,
                 "late_rate": 0.6, "smoothing": 2.0}
PSI_MERGE = {"kind": "vickrey", "target": 1.0, "early_rate": 0.9,
             "late_rate": 1.0, "smoothing": 0.25}

DT = 1e-3            # Greenshields grid step of the load workload
NASH_TOL = 1e-3      # Nash gap target
OPT_TWO_BIN_TOL = 1e-7   # improvement tol of the two-bin descent, per unit of c
OPT_MERGE_TOL = 1e-4     # improvement tol of the merge descent, per unit of c
OPT_MAX_ITER = 200       # far above the iterations either descent needs


def mass_scale(seed: int) -> float:
    rng = random.Random(seed)
    return 0.8 * (1.25 / 0.8) ** rng.random()


def triangular(v_free, w_back, rho_jam):
    return {"kind": "triangular", "v_free": v_free, "w_back": w_back,
            "rho_jam": rho_jam}


def greenshields(v_free, rho_jam):
    return {"kind": "greenshields", "v_free": v_free, "rho_jam": rho_jam}


def sampled(points, c):
    return {"kind": "sampled", "breakpoints": [[c * r, c * q] for r, q in points]}


def arc(a, b, length, flux):
    return {"from": a, "to": b, "length": length, "flux": flux}


def group(size, origin, dest, arrival_cost=PSI_CERT):
    return {"size": size, "origin": origin, "destination": dest,
            "departure_cost": PHI, "arrival_cost": arrival_cost}


def doc(nodes, arcs, groups, solver=None, profile=None):
    out = {"format": 1, "nodes": nodes, "arcs": arcs, "groups": groups}
    if solver is not None:
        out["solver"] = solver
    if profile is not None:
        out["profile"] = profile
    return out


# ---------------------------------------------------------------------
# nash-triangular: the three criterion-6 certificate instances
# ---------------------------------------------------------------------


def nash_scenarios(c):
    tri = triangular(1.0, 1.0, c)
    return {
        "free_flow": doc(
            ["a", "b"], [arc("a", "b", 1.0, triangular(1.0, 1.0, 2.0 * c))],
            [group(0.03 * c, "a", "b")],
            {"bins": 256, "tol": NASH_TOL, "max_iter": 2000},
        ),
        "diamond": doc(
            ["1", "2", "3", "4"],
            [arc("1", "2", 1.0, tri), arc("1", "3", 1.0, tri),
             arc("2", "4", 1.0, tri), arc("3", "4", 1.0, tri)],
            [group(1.5 * c, "1", "4")],
            {"bins": 64, "tol": NASH_TOL, "max_iter": 2000},
        ),
        "congested": doc(
            ["a", "b"], [arc("a", "b", 1.0, tri)],
            [group(0.3 * c, "a", "b", PSI_CONGESTED)],
            {"bins": 512, "tol": NASH_TOL, "max_iter": 2500, "damping": 0.2},
        ),
    }


# ---------------------------------------------------------------------
# load-greenshields: chains, a merge, and a steady-state chain
# ---------------------------------------------------------------------

# departure rates as fractions of capacity; two bins exceed it, so queues form
CHAIN_RATE_FRACTIONS = [0.3, 0.6, 1.4, 0.9, 1.2, 0.5]
MERGE_RATE_FRACTIONS = [[0.8, 0.8, 0.4], [0.3, 0.7, 0.7]]
STEADY_FRACTION = 0.64   # constant rate of the steady-state chain
STEADY_END = 4.0         # the steady chain departs on [0, STEADY_END)


def load_scenarios(c):
    gs = greenshields(1.0, c)
    f_max = c / 4.0
    chain = doc(
        ["a", "b", "c"],
        [arc("a", "b", 1.0, gs), arc("b", "c", 0.8, greenshields(1.0, 1.5 * c))],
        [group(sum(CHAIN_RATE_FRACTIONS) * f_max * 0.5, "a", "c")],
        {"dt": DT},
        {"start": 0.0, "bin_width": 0.5,
         "rates": [[[r * f_max for r in CHAIN_RATE_FRACTIONS]]]},
    )
    # two groups from different origins share the downstream arc m -> d,
    # whose capacity is below their summed peak rate
    merge_rates = [[r * f_max for r in MERGE_RATE_FRACTIONS[0]],
                   [r * f_max for r in MERGE_RATE_FRACTIONS[1]]]
    merge = doc(
        ["o1", "o2", "m", "d"],
        [arc("o1", "m", 1.0, gs), arc("o2", "m", 0.9, gs),
         arc("m", "d", 1.0, greenshields(1.0, 1.2 * c))],
        [group(sum(r) * 0.5, o, "d") for r, o in zip(merge_rates, ("o1", "o2"))],
        {"dt": DT},
        # paths sort as o1->m->d, o2->m->d; each group uses its own
        {"start": 0.0, "bin_width": 0.5,
         "rates": [[merge_rates[0], [0.0] * 3], [[0.0] * 3, merge_rates[1]]]},
    )
    u = STEADY_FRACTION * f_max
    steady = doc(
        ["s0", "s1", "s2", "s3"],
        [arc("s0", "s1", 1.0, gs), arc("s1", "s2", 0.8, gs), arc("s2", "s3", 1.2, gs)],
        [group(u * STEADY_END, "s0", "s3")],
        {"dt": DT},
        {"start": 0.0, "bin_width": STEADY_END, "rates": [[[u]]]},
    )
    return {"chain": chain, "merge": merge, "steady": steady}


# ---------------------------------------------------------------------
# opt-merge: the criterion-7 two-bin arc and a 5-arc two-path merge
# ---------------------------------------------------------------------

MULTI_KINK = [[0.0, 0.0], [0.1, 0.1], [0.2, 0.17], [0.3, 0.21], [0.6, 0.13], [1.0, 0.0]]
MERGE_SIZE = 0.1
MERGE_BINS = 3


def opt_scenarios(c):
    two_bin = doc(
        ["a", "b"], [arc("a", "b", 1.0, triangular(1.0, 1.0, c))],
        [group(0.2 * c, "a", "b")],
        {"bins": 2, "tol": OPT_TWO_BIN_TOL * c, "max_iter": OPT_MAX_ITER,
         "restarts": 2, "seed": 1},
    )
    merge = doc(
        ["o", "a", "b", "m", "d"],
        [arc("o", "a", 0.5, triangular(1.0, 1.0, c)),
         arc("a", "m", 0.6, sampled(MULTI_KINK, c)),
         arc("o", "b", 0.4, sampled(MULTI_KINK, c)),
         arc("b", "m", 0.7, triangular(1.2, 0.8, c)),
         arc("m", "d", 0.5, sampled(MULTI_KINK, c))],
        [group(MERGE_SIZE * c, "o", "d", PSI_MERGE)],
        {"bins": MERGE_BINS, "tol": OPT_MERGE_TOL * c, "max_iter": OPT_MAX_ITER,
         "restarts": 1, "seed": 1},
    )
    return {"two_bin": two_bin, "merge": merge}
