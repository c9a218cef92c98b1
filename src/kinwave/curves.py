"""Piecewise-linear cumulative-count curves and single-arc evolution.

A cumulative curve records how many vehicles have passed a reference
point by each time.  Arc dynamics reduce to a min-plus (inf-) convolution
of the entry curve with the convex kernel built from the flux conjugate:

    exit(t) = min_tau { entry(tau) + L * g*((t - tau) / L) }

For fluxes whose conjugate is piecewise linear (triangular, sampled) the
convolution is evaluated exactly; for smooth conjugates (Greenshields) it
is evaluated on a uniform time grid of step ``dt``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, LoadingError
from .flux import ArcDescriptor

_REL = 1e-12


class CumulativeCurve:
    """Nondecreasing continuous piecewise-linear function of time.

    Constant extension on both sides: value(t) = v[0] for t <= t[0]
    (v[0] must be zero) and value(t) = v[-1] for t >= t[-1].
    Immutable by convention; all operations return new curves.
    """

    __slots__ = ("t", "v")

    def __init__(self, t, v, validate=True):
        t = np.atleast_1d(np.asarray(t, dtype=float))
        v = np.atleast_1d(np.asarray(v, dtype=float))
        if validate:
            if t.shape != v.shape or t.ndim != 1 or len(t) == 0:
                raise DomainError("curve needs matching 1-d time and value arrays")
            if not np.all(np.isfinite(t)) or not np.all(np.isfinite(v)):
                raise DomainError("curve breakpoints must be finite")
            if np.any(np.diff(t) <= 0):
                raise DomainError("breakpoint times must be strictly increasing")
            scale = max(1.0, float(np.max(np.abs(v))))
            if np.any(np.diff(v) < -1e-9 * scale):
                raise DomainError("curve values must be nondecreasing")
            if abs(v[0]) > 1e-9 * scale:
                raise DomainError("curve must start at value 0")
            # snap tiny negative drifts so downstream arithmetic stays monotone
            v = np.maximum.accumulate(np.maximum(v, 0.0))
        self.t = t
        self.v = v

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, t0=0.0):
        return cls([t0], [0.0], validate=False)

    @classmethod
    def from_step_rates(cls, times, rates):
        """Curve with piecewise-constant rate ``rates[i]`` on [times[i], times[i+1])."""
        times = np.asarray(times, dtype=float)
        rates = np.asarray(rates, dtype=float)
        if len(times) != len(rates) + 1:
            raise DomainError("need len(times) == len(rates) + 1")
        if np.any(rates < 0):
            raise DomainError("rates must be nonnegative")
        widths = np.diff(times)
        if np.any(widths <= 0):
            raise DomainError("breakpoint times must be strictly increasing")
        v = np.concatenate(([0.0], np.cumsum(rates * widths)))
        keep = np.ones(len(times), dtype=bool)
        keep[1:-1] = rates[1:] != rates[:-1]    # an edge between equal rates is collinear
        return cls(times[keep], v[keep]).simplify()

    @classmethod
    def combine(cls, curves):
        """Pointwise sum of curves (exact on the union of breakpoints)."""
        curves = [c for c in curves if c is not None]
        if not curves:
            return cls.zero()
        ts = np.unique(np.concatenate([c.t for c in curves]))
        vs = np.sum([c(ts) for c in curves], axis=0)
        return cls(ts, vs, validate=False).simplify()

    # -- queries ------------------------------------------------------

    def __call__(self, x):
        out = np.interp(x, self.t, self.v)
        return float(out) if np.isscalar(x) else out

    @property
    def total(self):
        return float(self.v[-1])

    @property
    def slopes(self):
        if len(self.t) < 2:
            return np.zeros(0)
        return np.diff(self.v) / np.diff(self.t)

    @property
    def max_slope(self):
        s = self.slopes
        return float(np.max(s)) if len(s) else 0.0

    def inverse(self, beta):
        """Generalized left inverse inf{ t : value(t) >= beta }.

        beta = 0 returns the first breakpoint time.  beta above the total
        mass raises DomainError.
        """
        scalar = np.isscalar(beta)
        b = np.array(beta, dtype=float, ndmin=1)
        t, v, total = self.t, self.v, self.total
        tol = 1e-9 * max(1.0, total)
        if b.size and (b.min() < -tol or b.max() > total + tol):
            raise DomainError("count outside [0, total mass]")
        b = np.minimum(np.maximum(b, 0.0), total)
        if len(t) == 1:
            return float(t[0]) if scalar else np.full_like(b, t[0])
        idx = np.minimum(np.searchsorted(v, b, side="left"), len(t) - 1)
        i = np.maximum(idx, 1)
        j = i - 1
        vj, tj = v[j], t[j]
        dv = v[i] - vj
        flat = dv <= 0          # a flat segment answers with its right end
        frac = (b - vj) / np.where(flat, 1.0, dv)
        frac[flat] = 1.0
        out = tj + frac * (t[i] - tj)
        out[idx == 0] = t[0]
        return float(out[0]) if scalar else out

    # -- transforms ---------------------------------------------------

    def simplify(self):
        """Drop interior breakpoints that are (numerically) collinear, in one O(n) pass.

        Left to right, point i goes when |cross(a, i, i+1)| <= _REL * scale *
        (t[i+1] - t[a]), a being the last kept point and scale = max(1, max|v|).
        Only the points after a dropped one need the Python loop.
        """
        t, v = self.t, self.v
        tol = _REL * max(1.0, float(np.abs(v).max()))
        cross = (t[1:-1] - t[:-2]) * (v[2:] - v[:-2]) - (t[2:] - t[:-2]) * (v[1:-1] - v[:-2])
        span = np.maximum(t[2:] - t[:-2], 1e-300)
        cands = np.flatnonzero(np.abs(cross) <= tol * span)   # anchors a with a+1 droppable
        if not len(cands):
            return self
        tl, vl, keep, i = t.tolist(), v.tolist(), np.ones(len(t), dtype=bool), 0
        for a in cands.tolist():
            if a < i:
                continue    # a+1 was already tested against an earlier anchor
            i, ta, va = a + 1, tl[a], vl[a]
            while i < len(tl) - 1:
                cr = (tl[i] - ta) * (vl[i + 1] - va) - (tl[i + 1] - ta) * (vl[i] - va)
                if abs(cr) > tol * max(tl[i + 1] - ta, 1e-300):
                    break   # i is kept and anchors the points after it
                keep[i] = False
                i += 1
        return CumulativeCurve(t[keep], v[keep], validate=False)

    def truncate(self, T):
        """Freeze the curve at time T (constant extension afterwards)."""
        if T >= self.t[-1]:
            return self
        val = self(T)
        keep = self.t < T - 1e-15
        t = np.concatenate((self.t[keep], [T]))
        v = np.concatenate((self.v[keep], [val]))
        return CumulativeCurve(t, v, validate=False)

    def shift(self, dt):
        return CumulativeCurve(self.t + dt, self.v, validate=False)


# ---------------------------------------------------------------------
# Min-plus evolution along one arc
# ---------------------------------------------------------------------


def _exact_minplus(entry: CumulativeCurve, arc: ArcDescriptor):
    """Exact inf-convolution ``(t, v)`` for piecewise-linear conjugates."""
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


def _monge_row_minima(ts, taus, U, kernel):
    """Row minima of A[r, c] = U[c] + K(ts[r] - taus[c]) by divide and conquer.

    Valid because the kernel is convex, making A inverse-Monge; the
    leftmost minimizing column is then nondecreasing in the row index.
    Each interval (r0, r1, c0, c1) solves its middle row rm over columns
    [c0, c1) and hands rows [r0, rm) the columns up to that row's argmin
    and rows (rm, r1) the columns from it.  The recursion runs one level at
    a time: the level's intervals are laid out as flat (row, col) cells, at
    most len(ts) + len(taus) of them, and ``kernel`` is called once,
    elementwise, on all their ts[r] - taus[c], so about log2 len(ts) calls
    in all.  Each segment's leftmost minimum is the first cell equal to its
    ``np.minimum.reduceat`` value, and ``vals`` is read from that cell, so
    ties and signed zeros come out as ``np.argmin`` per row gives them.
    The kernel must not return NaN.
    """
    n = len(ts)
    vals = np.empty(n)
    args = np.empty(n, dtype=int)
    r0, r1 = np.array([0]), np.array([n])
    c0, c1 = np.array([0]), np.array([len(taus)])
    while len(r0):
        rm = (r0 + r1) // 2
        lens = c1 - c0
        starts = np.concatenate(([0], np.cumsum(lens[:-1])))
        cols = np.repeat(c0 - starts, lens) + np.arange(starts[-1] + lens[-1])
        flat = kernel(np.repeat(ts[rm], lens) - taus[cols]) + U[cols]
        seg_min = np.minimum.reduceat(flat, starts)
        hits = np.flatnonzero(flat == np.repeat(seg_min, lens))
        first = hits[np.searchsorted(hits, starts)]
        j = cols[first]
        vals[rm] = flat[first]
        args[rm] = j
        r0, r1 = np.concatenate((r0, rm + 1)), np.concatenate((rm, r1))
        c0, c1 = np.concatenate((c0, j)), np.concatenate((j + 1, c1))
        live = r0 < r1
        r0, r1, c0, c1 = r0[live], r1[live], c0[live], c1[live]
    return vals, args


def _grid_minplus(entry, arc, dt):
    """Grid evaluation ``(t, v)`` of the inf-convolution for smooth conjugates.

    Samples every ``dt`` from entry.t[0] + mu, minimizing over entry
    breakpoints plus the same grid, up to t_N >= tau_last + G/F_max +
    L/v(rho_star) + dt, which drains the total mass G: g*(p) >= p*F_max -
    rho_star for any concave flux, so K(s) >= F_max*(s - L/v(rho_star)) and
    at t_N every member is at least G + F_max*dt (tau <= tau_last) or G + K.
    """
    flux = arc.flux
    t_end = entry.t[-1] + entry.total / flux.f_max + arc.length / flux.speed_at_capacity + dt
    t_lo = entry.t[0] + arc.mu
    n = max(2, int(np.ceil((t_end - t_lo) / dt)) + 1)
    ts = t_lo + dt * np.arange(n)
    tau_grid = entry.t[0] + dt * np.arange(int(np.ceil((ts[-1] - entry.t[0]) / dt)) + 1)
    taus = np.unique(np.concatenate((tau_grid, entry.t)))
    vals, _ = _monge_row_minima(ts, taus, entry(taus), arc.minplus_kernel)
    return ts, vals


def lax_hopf_exit(entry: CumulativeCurve, arc: ArcDescriptor, dt: float = 1e-3):
    """Exit curve of an arc fed by ``entry``, via the variational formula.

    Always the whole curve, from entry.t[0] + mu to the entry's total mass.
    Exact for piecewise-linear conjugates; sampled on a grid of step ``dt``
    otherwise.
    """
    if not np.isfinite(entry.total):
        raise DomainError("entry curve must carry bounded total mass")
    entry = entry.simplify()
    total = entry.total
    if total <= 0.0:
        return CumulativeCurve([entry.t[0] + arc.mu], [0.0], validate=False)
    if arc.flux.conjugate_kinks() is not None:
        ts, vs = _exact_minplus(entry, arc)
    else:
        ts, vs = _grid_minplus(entry, arc, dt)
    vs = np.maximum.accumulate(np.clip(vs, 0.0, total))
    curve = CumulativeCurve(ts, vs, validate=False).simplify()
    # Snap tail values that are within rounding error of the final total:
    # a one-ulp dip on the last flat segment would otherwise push left
    # inverses of the total past the whole tail, grossly inflating exit
    # times of the last drivers.
    snap = 64.0 * np.finfo(float).eps * max(1.0, total)
    near = curve.v >= total - snap
    if np.any(near) and not np.all(curve.v[near] == total):
        v = curve.v.copy()
        v[near] = total
        curve = CumulativeCurve(curve.t, v).simplify()
    return curve


@dataclass(frozen=True)
class ExitComputation:
    """Entry/exit curve pair for one arc, with FIFO exit-time queries."""

    entry: CumulativeCurve
    exit: CumulativeCurve
    arc: ArcDescriptor

    def validate(self, tol=1e-9):
        """Causality, capacity slope and conservation, to ``tol`` times
        max(1, entry mass)."""
        ts = np.unique(np.concatenate((self.entry.t, self.exit.t)))
        scale = max(1.0, self.entry.total)
        key = self.arc.key
        if np.any(self.exit(ts) > self.entry(ts) + tol * scale):
            raise LoadingError(f"exit curve exceeds entry curve on arc {key}")
        if self.exit.max_slope > self.arc.flux.f_max + 1e-9:
            raise LoadingError(f"exit curve steeper than capacity on arc {key}")
        if abs(self.exit.total - self.entry.total) > tol * scale:
            raise LoadingError(f"exit and entry totals differ on arc {key}")

    def exit_time(self, t):
        """Exit time of a driver entering (possibly queueing) at time t.

        Equals max(t + mu, first time the exit curve reaches the driver's
        cumulative entry count); nondecreasing in t.
        """
        scalar = np.isscalar(t)
        tv = np.atleast_1d(np.asarray(t, dtype=float))
        beta = np.minimum(self.entry(tv), self.exit.total)
        out = np.maximum(tv + self.arc.mu, self.exit.inverse(beta))
        return float(out[0]) if scalar else out


def exit_time(entry: CumulativeCurve, arc: ArcDescriptor, t, dt: float = 1e-3):
    """Convenience wrapper: exit time for a single query against ``entry``."""
    comp = ExitComputation(entry, lax_hopf_exit(entry, arc, dt=dt), arc)
    return comp.exit_time(t)


# ---------------------------------------------------------------------
# Modulus of continuity for arc exit times
# ---------------------------------------------------------------------


def modulus_of_continuity(arc: ArcDescriptor, M: float, G: float):
    """Uniform modulus phi with exit_time(t2) - exit_time(t1) <= phi(t2 - t1).

    Valid for entry curves whose rate is bounded by M and whose total
    mass is at most G.  phi is continuous with phi(0) = 0.  In closed form,
    with K the arc's min-plus kernel, mu = K^-1(0) its free-flow time and
    S = max(xi, M*xi), phi(xi) is the larger of

      phi_flat(xi)  = K^-1(min(M*xi, G)) - mu, the extra delay of a driver
                      behind everything that can enter in a span xi, and
      phi_sharp(xi) = xi - mu + max over 0 <= x <= S of (K^-1(M*x) - x),
                      where K^-1(M*x) - x is the travel time of a driver
                      right behind M*x vehicles that entered over the
                      span x before it.

    The bracket is concave in x, with slope M / K'(K^-1(M*x)) - 1.  For
    M >= F_max it never falls, so its maximiser is x = S.  Below capacity
    it peaks where K' = M, at x = L*g*(g'(M))/M = L*g'(M) - L*g(M)/M: how
    far the kinematic wave of flow M (travel time L*g'(M)) trails its
    vehicles (travel time L*g(M)/M).  The peak value is L*g(M)/M, the
    travel time at uncongested flow M.
    """
    if M <= 0 or G <= 0:
        raise DomainError("need positive rate bound M and mass bound G")
    flux, L, mu = arc.flux, arc.length, arc.mu
    x_peak = np.inf
    if M < flux.f_max:
        x_peak = L * max(0.0, flux.wave_pace(M) - flux.density(M) / M)

    def phi(xi):
        if xi < 0:
            raise DomainError("time gap must be nonnegative")
        if xi == 0:
            return 0.0
        x = min(max(xi, M * xi), x_peak)
        phi_sharp = xi + (arc.minplus_kernel_inverse(M * x) - x - mu)
        phi_flat = arc.minplus_kernel_inverse(min(M * xi, G)) - mu
        return max(phi_sharp, phi_flat)

    return phi


def write_curve_csv(curve: CumulativeCurve, path):
    """Export a curve as ``t,value`` rows at full precision."""
    with open(path, "w", encoding="utf-8") as f:
        f.write("t,value\n")
        for t, v in zip(curve.t, curve.v):
            f.write(f"{t:.17g},{v:.17g}\n")
