"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written from first principles (bisection,
grid search, stepped simulation) rather than reusing the package's
machinery, so that agreement is evidence and not tautology.  The
exceptions are the regression oracles at the end, ``reference_inverse``,
``reference_simplify``, ``reference_csv_rows``, ``reference_envelope``,
``window_network_load`` and the closed forms that the flux and cost tables
replaced.
"""
from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction

import numpy as np

from kinwave import (AdmissibilityError, CumulativeCurve, DomainError, ExitComputation,
                     LoadingError, LoadingResult, lax_hopf_exit, max_travel_time)

_MASS_TOL = 1e-9


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


def rational_minplus(entry_t, entry_v, kinks, slopes, t):
    """min over tau of U(tau) + K(t - tau), in exact rational arithmetic on the
    float inputs.

    K is zero up to kinks[0], then rises with slope slopes[k] from kinks[k]
    to kinks[k + 1], and with slopes[-1] past kinks[-1]; a one-kink kernel
    is a point queue's, slopes[0] * max(0, s - kinks[0]).  U is piecewise
    linear with constant extension, so the minimum is taken at a breakpoint
    tau_i or at a time t - kinks[k], where U or K has its kinks.
    """
    T = [Fraction(x) for x in entry_t]
    U = [Fraction(x) for x in entry_v]
    S = [Fraction(x) for x in kinks]
    R = [Fraction(x) for x in slopes]
    t = Fraction(t)

    def kernel(s):
        out = Fraction(0)
        for k, (start, rate) in enumerate(zip(S, R)):
            if s <= start:
                break
            end = S[k + 1] if k + 1 < len(S) else s
            out += rate * (min(s, end) - start)
        return out

    def entry(tau):
        k = bisect_right(T, tau)      # breakpoints at or before tau
        if k == 0:
            return U[0]
        if k == len(T):
            return U[-1]
        return U[k - 1] + (U[k] - U[k - 1]) * (tau - T[k - 1]) / (T[k] - T[k - 1])

    return min([Ui + kernel(t - Ti) for Ti, Ui in zip(T, U)]
               + [entry(t - s) + kernel(s) for s in S])


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


def linear_scan_window(groups, t_max, t_init, step=0.25, cap=10**6):
    """First t0 = t_init + step*j, j <= cap, where every group's combined cost
    exceeds the crude cost at both t0 and -t0, tested one j at a time.

    Returns None when no j up to ``cap`` qualifies.
    """
    rhs = max(g.departure_cost.value(0.0) + g.arrival_cost.value(t_max) for g in groups)
    for j in range(cap + 1):
        t0 = t_init + step * j
        if all(g.combined_cost(t0) > rhs and g.combined_cost(-t0) > rhs for g in groups):
            return t0
    return None


# ---------------------------------------------------------------------
# Regression oracle: the masked-gather curve inverse
# ---------------------------------------------------------------------
#
# ``CumulativeCurve.inverse`` as it was before it was rewritten with fewer
# numpy calls.  The arithmetic of the two is the same, so their outputs
# must agree bit for bit.


def reference_inverse(curve, beta):
    """Generalized left inverse inf{ t : curve(t) >= beta }; see ``inverse``."""
    scalar = np.isscalar(beta)
    b = np.atleast_1d(np.asarray(beta, dtype=float))
    tol = 1e-9 * max(1.0, curve.total)
    if np.any(b < -tol) or np.any(b > curve.total + tol):
        raise DomainError("count outside [0, total mass]")
    b = np.clip(b, 0.0, curve.total)
    idx = np.searchsorted(curve.v, b, side="left")
    idx = np.clip(idx, 0, len(curve.t) - 1)
    out = np.empty_like(b)
    at_start = idx == 0
    out[at_start] = curve.t[0]
    rest = ~at_start
    i = idx[rest]
    dv = curve.v[i] - curve.v[i - 1]
    frac = np.where(dv > 0, (b[rest] - curve.v[i - 1]) / np.where(dv > 0, dv, 1.0), 1.0)
    out[rest] = curve.t[i - 1] + frac * (curve.t[i] - curve.t[i - 1])
    return float(out[0]) if scalar else out


# ---------------------------------------------------------------------
# Regression oracles: the point-by-point simplify and the f-string rows
# ---------------------------------------------------------------------
#
# ``CumulativeCurve.simplify`` as it was before it tested long collinear
# runs in numpy chunks: every point after a dropped one goes through the
# Python loop.  The keep/drop test is the same, so the two must agree bit
# for bit.  ``curves.csv_rows`` as it was before it formatted a curve with
# one ``%`` operation; the two must agree byte for byte.


def reference_simplify(curve):
    """Drop interior breakpoints that are collinear with the last kept one."""
    t, v = curve.t, curve.v
    tol = 1e-12 * max(1.0, float(np.abs(v).max()))
    cross = (t[1:-1] - t[:-2]) * (v[2:] - v[:-2]) - (t[2:] - t[:-2]) * (v[1:-1] - v[:-2])
    span = np.maximum(t[2:] - t[:-2], 1e-300)
    cands = np.flatnonzero(np.abs(cross) <= tol * span)
    if not len(cands):
        return curve
    tl, vl, keep, i = t.tolist(), v.tolist(), np.ones(len(t), dtype=bool), 0
    for a in cands.tolist():
        if a < i:
            continue
        i, ta, va = a + 1, tl[a], vl[a]
        while i < len(tl) - 1:
            cr = (tl[i] - ta) * (vl[i + 1] - va) - (tl[i + 1] - ta) * (vl[i] - va)
            if abs(cr) > tol * max(tl[i + 1] - ta, 1e-300):
                break
            keep[i] = False
            i += 1
    return CumulativeCurve(t[keep], v[keep], validate=False)


def reference_csv_rows(curve, prefix=""):
    """The f-string row formatter that ``csv_rows`` replaced."""
    return "".join(f"{prefix}{t:.17g},{v:.17g}\n"
                   for t, v in zip(curve.t.tolist(), curve.v.tolist()))


# ---------------------------------------------------------------------
# Regression oracle: the lower envelope of the kernel's pieces
# ---------------------------------------------------------------------
#
# ``curves._exact_minplus`` as it was before it became a cascade of window
# minima and the point queue: every member function U_i + K(t - tau_i) and
# U(t - s_k) + K(s_k) is evaluated on candidate times, and ``refine``
# inserts crossings, accepting one within 1e-11 * max(1, G) of the envelope.


def reference_envelope(entry, arc):
    """Inf-convolution ``(t, v)`` as the lower envelope of the kernel's pieces."""
    flux = arc.flux
    L = arc.length
    mu = arc.mu
    total = entry.total
    taus, U = entry.t, entry.v
    paces = np.asarray(flux.conjugate_kinks(), dtype=float)
    s_kinks = L * paces  # s_kinks[0] == mu
    K_at_kinks = L * flux.conjugate(paces)

    # candidate kink times of the lower envelope; the envelope reaches the
    # total mass once every member function has, so collect each member's
    # reach-total time as well
    drain_a = taus + arc.minplus_kernel_inverse(total - U)
    drain_b = entry.inverse(np.maximum(0.0, total - K_at_kinks)) + s_kinks
    cands = (taus[:, None] + s_kinks[None, :]).ravel()
    cands = np.unique(np.concatenate((cands, drain_a, drain_b, [taus[0] + mu])))
    t_end = float(max(np.max(drain_a), np.max(drain_b)))
    cands = cands[(cands >= taus[0] + mu - 1e-15) & (cands <= t_end + 1e-15)]
    if cands[-1] < t_end:
        cands = np.append(cands, t_end)

    def eval_all(tvec):
        tvec = np.atleast_1d(np.asarray(tvec, dtype=float))
        fam_a = U[None, :] + arc.minplus_kernel(tvec[:, None] - taus[None, :])
        fam_b = entry(tvec[:, None] - s_kinks[None, :]) + K_at_kinks[None, :]
        return np.concatenate((fam_a, fam_b), axis=1)

    mat = eval_all(cands)
    vals = mat.min(axis=1)
    winners = mat.argmin(axis=1)
    scale = max(1.0, total)

    pts = [(float(cands[0]), float(vals[0]))]

    def refine(a, va, wa, b, vb, wb, mat_a, mat_b, depth=0):
        # all member functions are affine on [a, b]; insert envelope kinks
        if wa == wb or b - a <= 1e-13 * max(1.0, abs(a), abs(b)) or depth > 30:
            pts.append((float(b), float(vb)))
            return
        fa1, fb1 = mat_a[wa], mat_b[wa]
        fa2, fb2 = mat_a[wb], mat_b[wb]
        m1 = (fb1 - fa1) / (b - a)
        m2 = (fb2 - fa2) / (b - a)
        if abs(m1 - m2) < 1e-300:
            pts.append((float(b), float(vb)))
            return
        x = a + (fa2 - fa1) / (m1 - m2)
        if not (a + 1e-13 < x < b - 1e-13):
            pts.append((float(b), float(vb)))
            return
        row = eval_all([x])[0]
        vx = row.min()
        wx = int(row.argmin())
        cross_val = fa1 + m1 * (x - a)
        if vx < cross_val - 1e-11 * scale:
            refine(a, va, wa, x, vx, wx, mat_a, row, depth + 1)
            refine(x, vx, wx, b, vb, wb, row, mat_b, depth + 1)
        else:
            pts.append((float(x), float(cross_val)))
            pts.append((float(b), float(vb)))

    for i in range(len(cands) - 1):
        refine(
            cands[i], vals[i], winners[i], cands[i + 1], vals[i + 1], winners[i + 1],
            mat[i], mat[i + 1],
        )

    ts = np.array([p[0] for p in pts])
    vs = np.array([p[1] for p in pts])
    keep = np.concatenate(([True], np.diff(ts) > 1e-14 * max(1.0, abs(ts[-1]))))
    return ts[keep], vs[keep]


# ---------------------------------------------------------------------
# Regression oracle: the fixed-window network loading
# ---------------------------------------------------------------------
#
# Unlike the oracles above, this one reuses the package's curve machinery
# (``combine``, ``lax_hopf_exit``, ``LoadingResult``).  It is the loader as
# it was before loading ran in feeder-order sweeps, kept so that the sweeps
# can be checked against it: it advances in windows of the shortest
# free-flow time and recomputes every arc in every window.  One line differs
# from that loader: its FIFO split, like the package's, cuts the exit at the
# aggregate count of every component breakpoint, ``entry_curve(c.t)``.  The
# component counts ``c.v`` it used before miss a component's kink wherever
# the aggregate entry runs straight through it, so the split depended on
# where the windows fell.  ``truncate`` freezes a component entry at the
# window's end, as the curve method of that name did.


def _window_split_exit(exit_curve, entry_curve, comps, t_hi):
    """FIFO split of an arc's exit flow among its entry components.

    Returns one exit-composition curve per entry component, exact on the
    piecewise-linear data: the (k,p) count among the first ``exit(t)``
    leavers equals that component's count at the matched entry time.
    """
    cut = float(exit_curve(t_hi))
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


def truncate(curve, T):
    """``curve`` frozen at time T (constant extension afterwards)."""
    if T >= curve.t[-1]:
        return curve
    keep = curve.t < T - 1e-15
    return CumulativeCurve(np.append(curve.t[keep], T), np.append(curve.v[keep], curve(T)),
                           validate=False)


def window_network_load(network, profile, *, dt=1e-3, rate_cap=None, check_mass=True):
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
            new_exit.update(_window_split_exit(exit_curve, entry, comps, t_next))
            for ckey, comp in comps.items():
                result.comp_entry[(ckey[0], ckey[1], arc.key)] = truncate(comp, t_next)
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


# ---------------------------------------------------------------------
# Regression oracles: the closed forms of the special-case kinds
# ---------------------------------------------------------------------
#
# A triangular flux is held as its three-point table, a sampled flux's
# conjugate is read off a table of its kinks, and an affine cost is the
# quadratic with c = 0.  These are the forms each was evaluated by before.


class TriangularClosedForm:
    """F(rho) = min(v_free*rho, w_back*(rho_jam - rho)) in closed form."""

    def __init__(self, v_free, w_back, rho_jam):
        self.v_free, self.w_back, self.rho_jam = v_free, w_back, rho_jam
        self.rho_star = w_back * rho_jam / (v_free + w_back)
        self.f_max = v_free * self.rho_star
        self.free_flow_pace = 1.0 / v_free

    def flow(self, rho):
        return np.maximum(np.minimum(self.v_free * rho, self.w_back * (self.rho_jam - rho)),
                          0.0)

    def density(self, u):
        return u / self.v_free

    def conjugate(self, p):
        return self.f_max * np.maximum(0.0, p - self.free_flow_pace)

    def conjugate_inverse(self, x):
        return self.free_flow_pace + x / self.f_max

    def wave_pace(self, u):
        return np.full_like(np.asarray(u, dtype=float), self.free_flow_pace)

    def conjugate_kinks(self):
        return [self.free_flow_pace]


def vertex_conjugate(breakpoints, p):
    """g*(p) = max(0, max_j p*u_j - rho_j) over the (density, flow) breakpoints
    up to the capacity point: the conjugate of a convex piecewise-linear g is
    attained at a vertex."""
    rho, u = np.asarray(breakpoints, dtype=float).T
    i_star = int(np.argmax(u))
    vals = np.asarray(p, dtype=float)[..., None] * u[: i_star + 1] - rho[: i_star + 1]
    return np.maximum(np.max(vals, axis=-1), 0.0)


def affine_value(a, b, t):
    return a + b * np.asarray(t, dtype=float)


def affine_deriv(a, b, t):
    return np.full_like(np.asarray(t, dtype=float), b)
