"""Piecewise-linear cumulative-count curves and single-arc evolution.

A cumulative curve records how many vehicles have passed a reference
point by each time.  Arc dynamics reduce to a min-plus (inf-) convolution
of the entry curve with the convex kernel built from the flux conjugate:

    exit(t) = min_tau { entry(tau) + L * g*((t - tau) / L) }

The convolution is evaluated exactly for a piecewise-linear conjugate, one
kernel piece at a time in slope order: a window minimum for each piece
below capacity, then Vickrey's point queue at F_max, a running minimum,
then the free-flow shift.  A triangular flux has one kink, so its exit is
the point queue alone.  A Greenshields conjugate is smooth, so its exit
uses the kernel of a table of chords (``FluxDescriptor.exit_table``);
``_grid_minplus``, the reference that table is measured against, samples
the smooth kernel on a grid.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, LoadingError
from .flux import ArcDescriptor

_REL = 1e-12
_SNAP = 64.0 * np.finfo(float).eps     # an exit's tail this near its total, relative, is the total


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
        """Curve with piecewise-constant rate ``rates[i]`` on [times[i], times[i+1]).

        Checked here, so the curve is built without the constructor's checks:
        a NaN or infinity in ``times`` or ``rates`` (0 * inf included) makes
        the last value, a sum of nonnegative terms, non-finite, and so does
        an overflow, which is computed without a warning.
        """
        times = np.asarray(times, dtype=float)
        rates = np.asarray(rates, dtype=float)
        if rates.ndim != 1 or times.shape != (len(rates) + 1,):
            raise DomainError("need len(times) == len(rates) + 1")
        if np.any(rates < 0):
            raise DomainError("rates must be nonnegative")
        with np.errstate(over="ignore", invalid="ignore"):
            widths = np.diff(times)
            if np.any(widths <= 0):
                raise DomainError("breakpoint times must be strictly increasing")
            v = np.cumsum(np.concatenate(([0.0], rates * widths)))   # 0.0 + x turns -0.0 into 0.0
        if not (np.isfinite(times[0]) and np.isfinite(v[-1])):
            raise DomainError("curve breakpoints must be finite")
        keep = np.ones(len(times), dtype=bool)
        keep[1:-1] = rates[1:] != rates[:-1]    # an edge between equal rates is collinear
        return cls(times[keep], v[keep], validate=False).simplify()

    @classmethod
    def combine(cls, curves):
        """Pointwise sum of curves (exact on the union of breakpoints); a
        single curve is returned as it is."""
        if not curves:
            return cls.zero()
        if len(curves) == 1:
            return curves[0]
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
        return np.diff(self.v) / np.diff(self.t)

    @property
    def max_slope(self):
        s = self.slopes
        return float(np.max(s)) if len(s) else 0.0

    def inverse(self, beta):
        """Generalized left inverse inf{ t : value(t) >= beta }.

        beta = 0 returns the first breakpoint time.  beta outside
        [0, total mass] (beyond a 1e-9 relative tolerance) or NaN raises
        DomainError.
        """
        scalar = np.isscalar(beta)
        b = np.array(beta, dtype=float, ndmin=1)
        t, v, total = self.t, self.v, self.total
        tol = 1e-9 * max(1.0, total)
        if b.size and not (b.min() >= -tol and b.max() <= total + tol):   # NaN fails too
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
        Only the points after a dropped one need a second look: each run of
        dropped points is found by ``_run_end`` from its anchor.
        """
        t, v = self.t, self.v
        tol = _REL * max(1.0, float(np.abs(v).max()))
        cross = (t[1:-1] - t[:-2]) * (v[2:] - v[:-2]) - (t[2:] - t[:-2]) * (v[1:-1] - v[:-2])
        span = np.maximum(t[2:] - t[:-2], 1e-300)
        with np.errstate(over="ignore"):    # an infinite bound exceeds every finite cross
            cands = np.flatnonzero(np.abs(cross) <= tol * span)   # anchors a with a+1 droppable
        if not len(cands):
            return self
        keep, end = np.ones(len(t), dtype=bool), 0
        tl, vl = t.tolist(), v.tolist()
        for a in cands.tolist():
            if a < end:
                continue    # a+1 was already tested against an earlier anchor
            end = _run_end(tl, vl, a, tol)
            keep[a + 1:end] = False
        return CumulativeCurve(t[keep], v[keep], validate=False)


def _run_end(t, v, a, tol):
    """The first point after anchor ``a`` that ``simplify`` keeps, from the
    breakpoints as lists.

    Point i > a goes when |cross(a, i, i+1)| <= tol * (t[i+1] - t[a]), a test
    that reads no other point of the run, so the run ends at the first i that
    fails it, or at the last point.
    """
    ta, va = t[a], v[a]
    for i in range(a + 1, len(t) - 1):
        cr = (t[i] - ta) * (v[i + 1] - va) - (t[i + 1] - ta) * (v[i] - va)
        if abs(cr) > tol * max(t[i + 1] - ta, 1e-300):
            return i
    return len(t) - 1


# ---------------------------------------------------------------------
# Min-plus evolution along one arc
# ---------------------------------------------------------------------


def _exact_minplus(entry: CumulativeCurve, arc: ArcDescriptor, dt: float = 1e-3):
    """Exact exit ``(t, v)`` with the kernel of ``arc.flux.exit_table(dt)``,
    as a cascade.

    After mu = L*p_1 the kernel is convex with slopes u_1 < ... < u_m = F_max
    over lengths L*(p_k - p_{k-1}) between the conjugate kinks p_k, and a
    min-plus convolution with it is the chain of convolutions with its
    pieces in slope order (Le Boudec and Thiran, Network Calculus, 2001,
    sec. 3.1): m - 1 window minima, then the point queue at F_max, then the
    shift by mu.  A triangular flux has m = 1: its exit is the point queue
    alone.  A piece changes the curve only where a rate of V exceeds its
    slope, so the window passes stop at the first piece whose slope no rate
    exceeds: an entry below u_1 costs the point queue and the shift alone.
    """
    flux = arc.flux.exit_table(dt)
    p = flux.conjugate_kinks()
    t, v = entry.t, entry.v
    for u, ell in zip(flux._g_u[1:-1], arc.length * (p[1:] - p[:-1])):
        if not np.any(v[1:] - v[:-1] > u * (t[1:] - t[:-1])):
            break   # V is its own window minimum, and the later slopes are larger
        t, v = _window_min(t, v, u, ell)
    ts, vs = _point_queue(t, v, flux.f_max)
    ts = ts + arc.length * flux.free_flow_pace
    keep = np.concatenate(([True], np.diff(ts) > 0))   # the shift may round times together
    return ts[keep], vs[keep]


def _window_min(t, v, u, ell):
    """Exact ``(x, w)`` of Win V(x) = min over 0 <= s <= ell of V(x - s) + u*s,
    for a V with some rate above u (else Win V is V itself).

    Between consecutive candidates (the times t and t + ell) no breakpoint
    enters or leaves the window, so Win V is the least of three lines: the
    head V(x), the tail V(x - ell) + u*ell, and v_j + u*(x - t_j) for the j
    that minimises v_i - u*t_i over the breakpoints lo <= i < hi inside the
    window all along the interval.  That range minimum is one
    ``np.minimum.reduceat`` over the ranks of v - u*t.  The breakpoints are
    the candidates where the least line changes and the crossings of two
    lines under the third, each evaluated at its own time; dropping the
    others keeps a cascade of passes from doubling its points at each pass.
    """
    n = len(t)
    tl, vl = t + ell, v + u * ell
    x = np.sort(np.concatenate((t, tl)))
    x0, x1 = x[:-1], x[1:]
    lo, hi = np.searchsorted(tl, x1), np.searchsorted(t, x0, "right")
    order = np.argsort(v - u * t, kind="stable")
    rank = np.append(np.argsort(order), 0)    # one past the end, as hi may be n
    j = order[np.minimum.reduceat(rank, np.column_stack((lo, hi)).ravel())[::2]]
    vj, tj = np.where(lo < hi, v[j], np.inf), t[j]   # none inside: no interior line
    H, T = np.interp(x, t, v), np.interp(x, tl, vl)
    # the lines at both ends of each interval, the head repeated last so
    # that each row minus the next is the difference of a pair
    m0 = np.array((H[:-1], T[:-1], vj + u * (x0 - tj), H[:-1]))
    m1 = np.array((H[1:], T[1:], vj + u * (x1 - tj), H[1:]))
    # a candidate is a kink where the least line changes, by member and by
    # segment or j; a tie at either end of an interval counts as a crossing
    ids, cols = np.array((hi, lo + n + 1, j + 2 * n + 2)), np.arange(len(x0))
    k0, k1 = m0[:3].argmin(axis=0), m1[:3].argmin(axis=0)
    kink = np.concatenate(([True], ids[k1[:-1], cols[:-1]] != ids[k0[1:], cols[1:]]))
    w0 = m0[k0, cols]
    d0, d1 = m0[:-1] - m0[1:], m1[:-1] - m1[1:]
    r, a = np.nonzero(np.sign(d0) != np.sign(d1))    # no product to underflow
    d0, d1 = d0[r, a], d1[r, a]
    xc = x0[a] + (x1[a] - x0[a]) * (d0 / (d0 - d1))
    mc = np.array((np.interp(xc, t, v), np.interp(xc, tl, vl), vj[a] + u * (xc - tj[a])))
    cols = np.arange(len(a))
    on = mc[(r + 2) % 3, cols] >= np.minimum(mc[r, cols], mc[(r + 1) % 3, cols])
    xs = np.concatenate((x0[kink], xc[on], x[-1:]))
    ws = np.concatenate((w0[kink], mc.min(axis=0)[on], v[-1:]))
    order = np.argsort(xs, kind="stable")
    xs, ws = xs[order], ws[order]
    keep = np.concatenate(([True], xs[1:] > xs[:-1]))   # t and t + ell may coincide
    return xs[keep], ws[keep]


def _point_queue(taus, U, F):
    """Exit ``(t, v)`` of Vickrey's point queue of capacity F, before the shift by mu.

    The kernel is F*max(0, s), so exit(s) = F*s + M(s), M the running
    minimum of W = U - F*tau over tau <= s.  At a breakpoint tau_i that is
    U_j + F*(tau_i - tau_j), j the last breakpoint up to i where W meets its
    running minimum: U_i itself, copied, when the queue is empty (j = i).  A
    segment on which W falls through the running minimum gains the point
    where the queue empties, and a queue left at the last breakpoint drains
    at capacity by (G - U_j)/F after tau_j, when that time is finite.
    Between these points the exit is linear.  When W never rises the queue
    stays empty, and the exit is U itself (plus 0.0, as the general formula
    turns -0.0 into 0.0).
    """
    W = U - F * taus
    if np.all(W[1:] <= W[:-1]):
        return taus, U + 0.0
    m = np.minimum.accumulate(W)
    j = np.maximum.accumulate(np.where(W <= m, np.arange(len(W)), 0))
    vs = U[j] + F * (taus - taus[j])
    # segments i where the queue empties inside: x = tau_i + Q_i / (F - r_i)
    i = np.flatnonzero((W[:-1] > m[:-1]) & (W[1:] < m[:-1]))
    dt, du = taus[i + 1] - taus[i], U[i + 1] - U[i]
    with np.errstate(divide="ignore", invalid="ignore"):   # a rate F to rounding: not inside
        xs = taus[i] + (U[i] - vs[i]) * dt / (F * dt - du)
    inside = (xs > taus[i]) & (xs < taus[i + 1])
    i, xs = i[inside], xs[inside]
    ts = np.insert(taus, i + 1, xs)
    vs = np.insert(vs, i + 1, U[j[i]] + F * (xs - taus[j[i]]))
    with np.errstate(over="ignore"):
        t_drain = taus[j[-1]] + (U[-1] - U[j[-1]]) / F
    if taus[-1] < t_drain < np.inf:
        ts, vs = np.append(ts, t_drain), np.append(vs, U[-1])
    return ts, vs


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
    """Grid evaluation ``(t, v)`` of the inf-convolution with ``arc``'s own kernel.

    The reference that Greenshields exit tables are measured against; no
    loading calls it.  Samples every ``dt`` from entry.t[0] + mu, minimizing
    over entry breakpoints plus the same grid, up to t_N >= tau_last +
    G/F_max + L/v(rho_star) + dt, which drains the total mass G: g*(p) >=
    p*F_max - rho_star for any concave flux, so K(s) >= F_max*(s -
    L/v(rho_star)) and at t_N every member is at least G + F_max*dt (tau <=
    tau_last) or G + K.
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


def _snap_tail(curve, total):
    """``curve`` with its values within _SNAP * max(1, total) of ``total`` set to it.

    A one-ulp dip on the last flat segment would otherwise push left
    inverses of the total past the whole tail, grossly inflating exit times
    of the last drivers.  The values are nondecreasing and at most
    ``total``, so the near tail starts where one ``searchsorted`` puts
    total - snap, and it is all ``total`` when its first value is.
    """
    i = np.searchsorted(curve.v, total - _SNAP * max(1.0, total))
    if i == len(curve.v) or curve.v[i] == total:
        return curve
    v = curve.v.copy()
    v[i:] = total
    return CumulativeCurve(curve.t, v).simplify()


def lax_hopf_exit(entry: CumulativeCurve, arc: ArcDescriptor, dt: float = 1e-3):
    """Exit curve of an arc fed by ``entry``, via the variational formula.

    Always the whole curve, from entry.t[0] + mu to the entry's total mass:
    window minima then the point queue (``_exact_minplus``), exact for the
    kernel of ``arc.flux.exit_table(dt)``, which is the arc's own kernel for
    triangular and sampled fluxes and a table of chords at accuracy ``dt``
    for Greenshields.  Raises LoadingError, naming the arc, when the exit's
    total misses the entry's by more than 1e-9 * max(1, total): a drain time
    too large for a float, for one.
    """
    if not np.isfinite(entry.total):
        raise DomainError("entry curve must carry bounded total mass")
    total = entry.total
    if total <= 0.0:
        return CumulativeCurve([entry.t[0] + arc.mu], [0.0], validate=False)
    ts, vs = _exact_minplus(entry, arc, dt)
    vs = np.maximum.accumulate(np.clip(vs, 0.0, total))
    curve = _snap_tail(CumulativeCurve(ts, vs, validate=False).simplify(), total)
    if abs(curve.total - total) > 1e-9 * max(1.0, total):
        raise LoadingError(f"arc {arc.key}: the exit carries {curve.total:.6g} of the "
                           f"entry's {total:.6g} vehicles")
    return curve


@dataclass(frozen=True)
class ExitComputation:
    """Entry/exit curve pair for one arc, with FIFO exit-time queries."""

    entry: CumulativeCurve
    exit: CumulativeCurve
    arc: ArcDescriptor

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


def csv_rows(curve: CumulativeCurve, prefix=""):
    """A curve's breakpoints as ``<prefix>t,value`` lines at full precision.

    One ``%`` operation formats them all; ``%.17g`` writes a float as
    ``f"{x:.17g}"`` does, and a ``%`` in ``prefix`` is escaped.
    """
    pairs = np.column_stack((curve.t, curve.v)).ravel().tolist()
    return ((prefix.replace("%", "%%") + "%.17g,%.17g\n") * len(curve.t)) % tuple(pairs)


def write_curve_csv(curve: CumulativeCurve, *paths):
    """Export a curve as ``t,value`` rows at full precision to each of
    ``paths``, formatting it once."""
    text = "t,value\n" + csv_rows(curve)
    for path in paths:
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)
