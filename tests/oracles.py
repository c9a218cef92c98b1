"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written from first principles (bisection,
grid search, stepped simulation) rather than reusing the package's
machinery, so that agreement is evidence and not tautology.
"""
from __future__ import annotations

import numpy as np


# ---------------------------------------------------------------------
# Flux-level oracles
# ---------------------------------------------------------------------


def greenshields_density(u, v_free=1.0, rho_jam=1.0, tol=1e-14):
    """Bisection for the density on the increasing branch with F(rho) = u."""
    f_max = v_free * rho_jam / 4.0
    if u > f_max + 1e-12:
        raise ValueError("flow above capacity")
    lo, hi = 0.0, rho_jam / 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if v_free * mid * (1.0 - mid / rho_jam) < u:
            lo = mid
        else:
            hi = mid
        if hi - lo < tol:
            break
    return 0.5 * (lo + hi)


def conjugate_by_grid(g, f_max, p, n=10**4):
    """g*(p) = max_{u in [0, F_max]} (p*u - g(u)) by dense grid search."""
    u = np.linspace(0.0, f_max, n)
    gu = np.array([g(x) for x in u])
    return float(np.max(p * u - gu))


def greenshields_conjugate_grid(p, v_free=1.0, rho_jam=1.0, n=10**4):
    f_max = v_free * rho_jam / 4.0
    return conjugate_by_grid(
        lambda u: greenshields_density(u, v_free, rho_jam), f_max, p, n
    )


# ---------------------------------------------------------------------
# Single-arc evolution oracle
# ---------------------------------------------------------------------


def brute_lax_hopf(entry_t, entry_v, conj, length, t, tau_step=1e-4):
    """Brute-force minimization of U(tau) + L*conj((t - tau)/L) over a tau grid."""
    t0 = float(entry_t[0])
    taus = np.arange(t0, t + tau_step, tau_step)
    taus = np.clip(taus, t0, t)
    U = np.interp(taus, entry_t, entry_v)
    vals = U + length * np.asarray(conj((t - taus) / length), dtype=float)
    return float(np.min(vals))


# ---------------------------------------------------------------------
# Event-driven point-queue simulator (exact model for triangular fluxes)
# ---------------------------------------------------------------------


def point_queue_sim(entry_fn, arcs, t_lo, t_hi, step=1e-4):
    """Stepped point-queue propagation through a chain of (mu, capacity) arcs.

    Each arc delays flow by its free-flow time mu and serves the queue at
    its capacity.  Returns (times, cumulative exit of the last arc).
    """
    n = int(np.ceil((t_hi - t_lo) / step)) + 1
    ts = t_lo + step * np.arange(n)
    cum = np.asarray(entry_fn(ts), dtype=float)
    for mu, cap in arcs:
        fed = np.interp(ts - mu, ts, cum, left=0.0)
        out = np.empty(n)
        x = min(fed[0], 0.0) if fed[0] <= 0 else 0.0
        out[0] = x
        for i in range(1, n):
            x = min(fed[i], x + cap * step)
            out[i] = x
        cum = out
    return ts, cum


def left_inverse(ts, vals, beta):
    """First time vals reaches beta (linear interpolation within a step)."""
    idx = int(np.searchsorted(vals, beta, side="left"))
    if idx == 0:
        return float(ts[0])
    idx = min(idx, len(ts) - 1)
    dv = vals[idx] - vals[idx - 1]
    frac = (beta - vals[idx - 1]) / dv if dv > 0 else 1.0
    return float(ts[idx - 1] + frac * (ts[idx] - ts[idx - 1]))


# ---------------------------------------------------------------------
# Cost and optimization oracles
# ---------------------------------------------------------------------


def riemann_cost(dep_inv, arr_inv, total, phi, psi, n=10**5):
    """Riemann-sum of phi(departure(beta)) + psi(arrival(beta)) over drivers."""
    betas = (np.arange(n) + 0.5) * (total / n)
    vals = phi(dep_inv(betas)) + psi(arr_inv(betas))
    return float(np.sum(vals) * (total / n))


def scalar_best_cost(phi, psi, mu, lo, hi, n=200001):
    """min over t of phi(t) + psi(t + mu) on a dense grid (free-flow driver)."""
    ts = np.linspace(lo, hi, n)
    return float(np.min(phi(ts) + psi(ts + mu)))


def count_simple_paths(edges, origin, dest):
    """Number of loop-free directed paths by exhaustive recursion."""
    adj = {}
    for a, b in edges:
        adj.setdefault(a, []).append(b)

    def walk(node, seen):
        if node == dest:
            return 1
        return sum(
            walk(nxt, seen | {nxt})
            for nxt in adj.get(node, [])
            if nxt not in seen
        )

    return walk(origin, {origin})


# ---------------------------------------------------------------------
# Exit-time modulus oracle
# ---------------------------------------------------------------------


def _least_true(pred, lo, iters):
    """Elementwise least x >= lo with pred(x), for pred False then True.

    Doubling steps past lo bracket it; bisection then narrows the bracket.
    """
    hi = lo + 1.0
    ok = pred(hi)
    while not np.all(ok):
        hi = np.where(ok, hi, lo + 2.0 * (hi - lo))
        ok = pred(hi)
    low = lo.copy()
    for _ in range(iters):
        mid = 0.5 * (low + hi)
        ok = pred(mid)
        low, hi = np.where(ok, low, mid), np.where(ok, mid, hi)
    return np.where(pred(lo), lo, hi)


def modulus_by_search(kernel, mu, M, G, xis, bisect_iters=50, ternary_iters=80):
    """Exit-time modulus phi(xi) of one arc by nested search.

    ``kernel`` is the arc's min-plus kernel K, zero up to the free-flow time
    mu and convex after it.  phi(xi) is the larger of
      * phi_flat: the least d >= 0 with K(mu + d) >= min(M*xi, G), and
      * phi_sharp: xi + tau - mu for the least tau >= mu with
        M*x <= K(tau + x) on all of 0 <= x <= max(xi, M*xi),
    each found by bisection.  For a given tau the worst x comes from a
    ternary search, since M*x - K(tau + x) is concave in x.  ``M``, ``G``
    and ``xis`` may be arrays; the searches run elementwise.  The default step
    counts resolve phi to about 1e-13 for spans up to 1e2.
    """
    xi = np.asarray(xis, dtype=float)
    span = np.maximum(xi, M * xi)

    def excess(tau, x):
        return M * x - kernel(tau + x)

    def feasible(tau):
        lo, hi = np.zeros_like(span), span.copy()
        for _ in range(ternary_iters):
            m1, m2 = lo + (hi - lo) / 3.0, hi - (hi - lo) / 3.0
            up = excess(tau, m1) < excess(tau, m2)
            lo, hi = np.where(up, m1, lo), np.where(up, hi, m2)
        worst = np.maximum(excess(tau, 0.5 * (lo + hi)), excess(tau, span))
        return np.maximum(worst, excess(tau, 0.0)) <= 0

    target = np.minimum(M * xi, G)
    tau = _least_true(feasible, np.full_like(xi, mu), bisect_iters)
    flat = _least_true(lambda d: kernel(mu + d) >= target, np.zeros_like(xi), bisect_iters)
    return np.maximum(xi + tau - mu, flat)
