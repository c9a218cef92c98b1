"""Cost evaluation, equilibrium diagnostics, and the two solvers.

Costs: each driver pays phi(departure) + psi(arrival).  The global
solver minimizes the aggregate cost over admissible departure patterns;
the Nash solver seeks a pattern where no driver can do better by
switching departure time or path, measured by the equilibrium gap.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .curves import CumulativeCurve
from .errors import ConfigurationError
from .loading import DepartureProfile, LoadingResult, arrival_time_path, network_load
from .network import Network, SolverBounds, compute_bounds

_EMPTY_FRAC = 1e-9   # bins carrying less than this fraction of G_k count as empty
# adaptive Nash step (Malitsky and Tam, SIAM J. Optim. 30, 2020): the step
# grows by at most _STEP_GROWTH per load and stays within _STEP_THETA of the
# inverse local Lipschitz estimate; theta 0.7 and 1.0 stalled on a congested arc
_STEP_THETA = 0.5
_STEP_GROWTH = 1.5
# grid continuation (nested iteration, Brandt, Math. Comp. 31, 1977): solve_nash
# works from _COARSEST_BINS up, and a coarser grid stops after _COARSE_LOADS
_COARSEST_BINS = 32
_COARSE_LOADS = 8


@np.errstate(over="ignore")
def _integrate_against(curve: CumulativeCurve, cost) -> float:
    """Stieltjes integral of a cost against a curve: the curve is linear
    between breakpoints, so each segment's mass times the cost's exact mean
    over it; a sum past the float range reads inf, without a warning."""
    dm = np.diff(curve.v)
    live = dm > 0
    return float(np.dot(dm[live], cost.mean(curve.t[:-1][live], curve.t[1:][live])))


def total_cost(network: Network, profile: DepartureProfile, *,
               loading: LoadingResult | None = None) -> float:
    """Aggregate cost J = sum over drivers of phi(departure) + psi(arrival)."""
    if loading is None:
        loading = network_load(network, profile)
    J = 0.0
    for k, p in network.cells:
        record = loading.curves[(k, p)]
        if record[0].total > 0:
            g = network.groups[k]
            J += _integrate_against(record[0], g.departure_cost)
            J += _integrate_against(record[-1], g.arrival_cost)
    return J


def cost_profile(network: Network, loading: LoadingResult) -> np.ndarray:
    """Per-(group, path) driver cost on the profile's bin grid, shaped
    (groups, paths, 2 * bins + 1): entry ``[k, p, i]`` is the cost
    phi_k(t) + psi_k(arrival at destination) of a departure at the i-th of
    the bin edges and midpoints interleaved, so ``[..., 1::2]`` holds the
    midpoints; NaN on the paths group k cannot take."""
    prof = loading.profile
    edges = prof.bin_edges
    times = np.empty(2 * prof.n_bins + 1)
    times[0::2] = edges
    times[1::2] = edges[:-1] + 0.5 * prof.bin_width
    values = np.full((len(network.groups), len(network.paths), times.size), np.nan)
    for k, p in network.cells:
        g = network.groups[k]
        arr = arrival_time_path(loading, network.paths[p], times)
        values[k, p] = g.departure_cost.value(times) + g.arrival_cost.value(arr)
    return values


@dataclass
class EquilibriumReport:
    """Equilibrium-gap diagnostics for a departure profile."""

    # per group: "used_cost" (max cost on its support), "support_min_cost",
    # "best_cost" (cheapest anywhere on the grid) and "gap" (used less best)
    groups: list
    gap: float
    iterations: int = 0
    converged: bool = True
    stop_reason: str | None = None           # "tol" or "max_iter" after a solve
    step: float | None = None                # the last step taken, after a solve
    gap_history: list = field(default_factory=list)
    rate_bound: float | None = None          # kappa diagnostic bound
    max_rate: float | None = None
    support_window: tuple | None = None      # [-T0, T0] padded by one bin
    support_ok: bool | None = None
    rates_ok: bool | None = None
    loading: LoadingResult | None = None     # the profile's, after a solve

    def as_dict(self):
        """The report as ``report.json`` writes it: every field but ``loading``."""
        return {k: v for k, v in vars(self).items() if k != "loading"}


def _gap_from_costs(network, profile, costs) -> EquilibriumReport:
    width = profile.bin_width
    groups = []
    for k, g in enumerate(network.groups):
        viable = network.viable[k]
        values = costs[k, viable]
        c_best = float(np.min(values))
        live = profile.rates[k, viable] * width > _EMPTY_FRAC * max(1.0, g.size)
        support = values[:, 1::2][live]
        if support.size:
            c_used = float(np.max(support))
            c_sup_min = float(np.min(support))
        else:                           # zero-mass group
            c_used = c_sup_min = c_best
        groups.append({"used_cost": c_used, "support_min_cost": c_sup_min,
                       "best_cost": c_best, "gap": max(c_used - c_best, 0.0)})
    return EquilibriumReport(groups, max(r["gap"] for r in groups))


def nash_gap(network: Network, profile: DepartureProfile) -> EquilibriumReport:
    """Equilibrium gap: realized support cost minus best alternative cost.

    Zero (within tolerance) exactly when the profile is a Nash
    equilibrium on its bin grid.
    """
    loading = network_load(network, profile)
    return _gap_from_costs(network, profile, cost_profile(network, loading))


# ---------------------------------------------------------------------
# Nash solver: damped proportional-swap dynamics
# ---------------------------------------------------------------------


def _make_grid(bounds: SolverBounds, bins: int):
    start = -bounds.horizon
    width = 2.0 * bounds.horizon / bins
    return start, width


def _uniform_start(network, bounds, bins, start, width):
    """Uniform rates over [-T0, T0] split equally across viable paths."""
    K, P = len(network.groups), len(network.paths)
    rates = np.zeros((K, P, bins))
    edges = start + width * np.arange(bins + 1)
    lo = np.maximum(edges[:-1], -bounds.t0)
    hi = np.minimum(edges[1:], bounds.t0)
    overlap = np.maximum(hi - lo, 0.0)     # sums to 2*T0 > 0: the grid spans +-horizon >= T0
    for k, g in enumerate(network.groups):
        viable = network.viable[k]
        rates[k, viable] = g.size / viable.sum() * overlap / (overlap.sum() * width)
    return rates


def _grid_sequence(bins):
    """The bin counts solve_nash works through, coarsest first: ``bins``
    halved while the count is even and the half keeps _COARSEST_BINS."""
    grids = [bins]
    while grids[-1] % 2 == 0 and grids[-1] // 2 >= _COARSEST_BINS:
        grids.append(grids[-1] // 2)
    return grids[::-1]


def solve_nash(network: Network, *, bins=64, tol=1e-3, max_iter=5000,
               damping=0.2):
    """Seek a Nash equilibrium by damped mass transfer toward cheap cells.

    Each iteration loads the network once, at the predictor y, and shifts
    mass from expensive (path, bin) cells toward cheap ones, with rates kept
    in [0, 4*kappa].  Popov's past-extragradient uses the costs F(y) twice:
    the anchor steps to x' = swap(x, F(y)) and the next predictor is
    swap(x', F(y)), so queueing feedback does not induce limit cycles.

    The step lambda is adaptive, in per-group mass fractions y = m / G_k
    with F(y) the cell costs at bin midpoints.  After each later load it
    becomes min(1.5 * lambda, 0.5 * |dy| / |dF|) over the last two
    predictors, so it grows where the costs barely move and shrinks where
    they are steep, at no extra load.  It stays at most 1 / tol, where a
    cell costing tol above its group's cheapest sheds the whole group mass.

    The grids run coarsest first (see _grid_sequence).  The first starts
    uniform with the step ``damping``; each finer one starts from the
    previous grid's best profile, each bin's rate copied to its two halves,
    with half the previous grid's last step, or ``damping`` if larger.  A
    grid of b bins stops at a gap of tol * bins / b, since a bin's cost dip
    grows with its width, and a coarser grid after _COARSE_LOADS loads.
    ``max_iter`` bounds the loads over all grids, and ``iterations`` and
    ``gap_history`` count them all.

    Returns the final grid's loaded predictor with the least gap and its
    diagnostics, which hold its ``loading``; ``converged`` is False if that
    gap is above ``tol``, and ``stop_reason`` says whether the last load met
    ``tol`` or used up ``max_iter``.  With max_iter = 0 that is the uniform
    start on ``bins`` bins, loaded once, and ``iterations`` is 0.
    """
    if bins < 2:
        raise ConfigurationError("solve_nash needs at least 2 bins")
    if not tol > 0:
        raise ConfigurationError("solve_nash needs tol > 0")
    bounds = compute_bounds(network)
    cap = 4.0 * bounds.kappa
    grids = _grid_sequence(bins)[-max(max_iter, 1):]   # at least one load per grid
    history = []
    for i, b in enumerate(grids):
        start, width = _make_grid(bounds, b)
        if i == 0:
            rates = _uniform_start(network, bounds, b, start, width)
            if np.any(rates > cap):
                raise ConfigurationError("initial uniform rates exceed the 4*kappa cap")
            step = damping
        else:
            # halving the bin width doubles the Lipschitz constant in mass fractions
            rates = np.repeat(profile.rates, 2, axis=2)
            step = max(damping, 0.5 * step)
        finer = len(grids) - 1 - i
        loads = max_iter - len(history) - finer
        if finer:
            loads = min(_COARSE_LOADS, loads)
        profile, report, step, last_gap = _descend(
            network, DepartureProfile(start, width, rates), cap=cap,
            tol=tol * bins / b, loads=loads, step=step, history=history)

    report.iterations = min(len(history), max_iter)
    report.converged = report.gap <= tol
    report.stop_reason = "tol" if last_gap <= tol else "max_iter"
    report.step = step   # the final grid's last step; its first if it took none
    report.gap_history = history
    _attach_diagnostics(network, profile, report, bounds)
    return profile, report


def _descend(network, profile, *, cap, tol, loads, step, history):
    """Popov's past extragradient with the Malitsky-Tam step, on the grid of
    ``profile`` and from it, until a load's gap is at most ``tol`` or after
    ``loads`` loads (at least one); appends each load's gap to ``history``.
    Returns the loaded predictor with the least gap, its report, the last
    step taken and the last load's gap.
    """
    anchor = predictor = profile
    best_profile, best_report = None, None
    # the step's coordinates: each nonempty group's (path, bin) masses as
    # fractions of its size, and their midpoint costs, group after group
    sizes = np.array([g.size for g in network.groups])
    cells = network.viable & (sizes > 0)[:, None]
    per_rate = (profile.bin_width / sizes[cells.nonzero()[0]])[:, None]
    y_prev = F_prev = None
    for it in range(1, max(loads, 1) + 1):
        loading = network_load(network, predictor)
        costs = cost_profile(network, loading)
        report = _gap_from_costs(network, predictor, costs)
        report.loading = loading
        history.append(report.gap)
        if best_report is None or report.gap < best_report.gap:
            best_profile, best_report = predictor, report
        if report.gap <= tol or it >= loads:
            break
        y, F = predictor.rates[cells] * per_rate, costs[cells][:, 1::2]
        if F_prev is not None:
            dF = float(np.linalg.norm(F - F_prev))
            step *= _STEP_GROWTH
            if dF > 0:
                step = min(step, _STEP_THETA * float(np.linalg.norm(y - y_prev)) / dF)
            step = min(step, 1.0 / tol)
        y_prev, F_prev = y, F
        anchor = _swap_step(network, anchor, costs, step, cap)
        predictor = _swap_step(network, anchor, costs, step, cap)
    return best_profile, best_report, step, report.gap


def _project_box_simplex(v, total, cap=np.inf):
    """Euclidean projection of v onto {0 <= x <= cap, sum x = total}, with
    ``cap`` one bound for every cell or one per cell.

    Exact: s(theta) = sum clip(v - theta, 0, cap) is piecewise linear and
    nonincreasing with kinks at v - cap and v, so walk the sorted kinks to
    the segment where s crosses ``total`` and solve for theta on it
    (Condat, Math. Prog. 2016).  No feasible x exceeds ``total``, so an
    infinite cap acts as cap = total.  Needs total <= sum of the caps.
    """
    if total <= 0:
        return np.zeros_like(v)
    cap = np.minimum(cap, total)
    kinks = np.concatenate((v, v - cap))
    order = np.argsort(kinks)[::-1]
    k = kinks[order]
    # walking theta down, passing v_i frees cell i and passing v_i - cap caps it
    active = np.cumsum(np.where(order < v.size, 1, -1))
    s = np.concatenate(([0.0], np.cumsum(-np.diff(k) * active[:-1])))
    j = min(int(np.searchsorted(s, total)), k.size - 1)
    theta = k[j - 1] - (total - s[j - 1]) / active[j - 1]
    return np.clip(v - theta, 0.0, cap)


def _project_groups(network, mass, cap=np.inf):
    """Project each group's viable cells of a (groups, paths, bins) mass
    array onto {0 <= m <= cap, sum m = G_k}, path after path, ``cap`` a
    number or an array shaped like ``mass``; the cells of paths a group
    cannot take are zero."""
    out = np.zeros_like(mass)
    for k, g in enumerate(network.groups):
        ok = network.viable[k]
        cells = mass[k, ok]
        c = cap[k, ok].ravel() if np.ndim(cap) else cap
        out[k, ok] = _project_box_simplex(cells.ravel(), g.size, c).reshape(cells.shape)
    return out


def _swap_step(network, profile, costs, step, cap):
    """One damped mass transfer: shift each group's mass toward its cheap
    (path, bin) cells.

    Projected fixed-point update m <- proj(m - alpha * Phi) on the
    box-constrained mass simplex: cells costlier than the projection
    threshold send mass, all cheaper cells receive, and the transfer
    sizes scale with the cost excess, so steps shrink as the gap closes.
    Phi is each cell's cost above its group's cheapest: the projection is
    the same for any shift, and this one leaves the cheap cells' masses
    unrounded however large alpha is.
    """
    width = profile.bin_width
    alpha = step * np.array([max(g.size, 1e-12) for g in network.groups])
    F = costs[..., 1::2]
    excess = F - np.nanmin(F, axis=(1, 2), keepdims=True)
    mass = profile.rates * width - alpha[:, None, None] * excess
    new = _project_groups(network, mass, cap * width)
    return DepartureProfile(profile.start, width, new / width)


def _attach_diagnostics(network, profile, report, bounds):
    width = profile.bin_width
    report.rate_bound = bounds.kappa
    report.max_rate = float(profile.rates.max()) if profile.rates.size else 0.0
    window = (-bounds.t0 - width, bounds.t0 + width)
    report.support_window = window
    edges = profile.bin_edges
    live = profile.rates.sum(axis=(0, 1)) * width > _EMPTY_FRAC * max(
        1.0, network.total_demand
    )
    if np.any(live):
        lo = float(edges[:-1][live].min())
        hi = float(edges[1:][live].max())
        report.support_ok = lo >= window[0] - 1e-12 and hi <= window[1] + 1e-12
    else:
        report.support_ok = True
    report.rates_ok = report.max_rate <= bounds.kappa * (1.0 + 1e-6)


# ---------------------------------------------------------------------
# Global-optimum solver: conditional gradient over the capped mass box
# ---------------------------------------------------------------------


@dataclass
class OptimumReport:
    """How the start whose profile solve_global returns stopped."""

    iterations: int            # Frank-Wolfe gaps measured
    gap: float | None          # the last one; on max_iter, before the last step
    stop_reason: str           # "gap", "no_decrease" or "max_iter"
    loading: LoadingResult     # of the returned profile

    @property
    def converged(self):
        return self.stop_reason == "gap"


def _mass_caps(network, start, bins, width):
    """Each cell's mass cap F_1 * width, F_1 the capacity of the first arc on
    the cell's path.  A group keeps cap G_k where its cells cannot hold its
    size, or where its departure cost does not fall at both ends of the
    window, the test of ``validate_assumptions``: departing early into a
    queue can then be cheaper."""
    caps = np.zeros((len(network.groups), len(network.paths), bins))
    for k, p in network.cells:
        caps[k, p] = network.paths[p].arcs[0].flux.f_max * width
    ends = np.array([start, start + bins * width])
    for k, g in enumerate(network.groups):
        if caps[k].sum() < g.size or not np.all(g.departure_cost.deriv(ends) < 0):
            caps[k, network.viable[k]] = g.size
    return caps


def _fill(m, cap, lo, hi, total):
    """Fill ``total`` into cells cheapest unit first, where cell i offers m_i
    units at ``lo[i]`` and cap_i - m_i more at ``hi[i]`` >= ``lo[i]``.
    Returns the units taken from the two offers."""
    price = np.concatenate((lo, hi))
    room = np.concatenate((m, np.maximum(cap - m, 0.0)))
    order = np.argsort(price, kind="stable")      # a cell's lower offer first
    before = np.cumsum(room[order]) - room[order]
    take = np.empty_like(room)
    take[order] = np.clip(total - before, 0.0, room[order])
    return take[:m.size], take[m.size:]


def _vertex(network, mass, caps, J, cost):
    """The Frank-Wolfe vertex s at ``mass`` and the gap <g, mass - s>.

    ``cost(mass)`` is J at a mass.  g holds one-sided differences with
    h = 1e-7 * G_k: forward at the cells a fill may raise, backward at the
    live cells it lowers, including the capped ones, where a forward probe
    would measure the queue that the cap excludes.  Each group's s fills
    its cheapest cells up to their caps: a cell keeps its mass at the
    backward price and takes more at the forward one.
    """
    s = np.zeros_like(mass)
    gap = 0.0
    for k, g in enumerate(network.groups):
        if g.size <= 0:
            continue
        h = 1e-7 * g.size
        paths = np.flatnonzero(network.viable[k])
        m, cap = mass[k, paths].ravel(), caps[k, paths].ravel()

        def slope(j, dm):
            cell = (k, paths[j // mass.shape[2]], j % mass.shape[2])
            saved = mass[cell]
            mass[cell] = saved + dm
            J_t = cost(mass)
            mass[cell] = saved
            return (J_t - J) / dm

        up = (m + h <= cap) | (m <= 0)
        hi = np.full(m.size, np.nan)
        lo = np.full(m.size, np.nan)
        for j in np.flatnonzero(up):
            hi[j] = slope(j, h)
        lowered = ~up
        while True:
            for j in np.flatnonzero(lowered):
                lo[j] = slope(j, -min(h, m[j]))
            price_lo = np.where(np.isnan(lo), hi, lo)
            price_hi = np.fmax(hi, price_lo)
            keep, add = _fill(m, cap, price_lo, price_hi, g.size)
            lowered = (keep < m) & np.isnan(lo)
            if not np.any(lowered):
                break
        s[k, paths] = (keep + add).reshape(paths.size, -1)
        gap += float(price_lo @ (m - keep) - price_hi @ add)
    return s, max(gap, 0.0)     # s = mass is feasible, so only rounding is below 0


def solve_global(network: Network, *, bins=16, tol=1e-6, max_iter=100,
                 restarts=2, seed=0, init: DepartureProfile | None = None):
    """Minimize aggregate cost over admissible departure patterns.

    Conditional gradient (Frank and Wolfe, Naval Res. Logist. Q. 3, 1956) on
    each group's mass simplex, boxed by the per-cell caps of _mass_caps:
    with phi decreasing, an optimum never queues where its drivers enter,
    so the box holds it; a group whose phi does not fall is capped by its
    size alone.  The starts are random points (plus ``init`` if
    given, e.g. an equilibrium profile), or the uniform rate if there are
    none, each projected into the box.  Each iteration takes the vertex s
    and gap of _vertex and stops once the gap is at most ``tol``; the gap
    is a stationarity measure where J is not convex (Lacoste-Julien, arXiv
    1607.00345).  Otherwise it steps to m + gamma (s - m), gamma from the
    quadratic through J, the slope -gap and J(s), and takes the lower of
    J(s) and J there; while neither is below J, gamma is halved, at most 20
    times.  ``max_iter`` bounds the gaps measured per start.

    The iterate's loading is lent to every probe and trial as ``reuse``.

    Returns the best profile found, its cost and an OptimumReport on its
    start.
    """
    if bins < 2:
        raise ConfigurationError("solve_global needs at least 2 bins")
    bounds = compute_bounds(network)
    start, width = _make_grid(bounds, bins)
    rng = np.random.default_rng(seed)
    viable = np.repeat(network.viable[..., None], bins, axis=2)
    caps = _mass_caps(network, start, bins, width)

    def objective(mass, base=None):
        """J at ``mass`` and its loading, reusing the exits of ``base``."""
        profile = DepartureProfile(start, width, mass / width)
        loading = network_load(network, profile, check_mass=False, reuse=base)
        return total_cost(network, profile, loading=loading), loading

    starts = []
    if init is not None:
        if abs(init.start - start) > 1e-12 or abs(init.bin_width - width) > 1e-12 or \
                init.n_bins != bins:
            raise ConfigurationError("init profile must share the solver's bin grid")
        starts.append(np.where(viable, init.rates * init.bin_width, 0.0))
    for _ in range(restarts):
        mass = np.zeros(viable.shape)
        for k, g in enumerate(network.groups):
            mass[k, viable[k]] = rng.dirichlet(np.ones(viable[k].sum())) * g.size
        starts.append(mass)
    if not starts:      # the uniform mass
        sizes = np.array([g.size for g in network.groups])[:, None, None]
        starts.append(np.where(viable, sizes / viable.sum(axis=(1, 2), keepdims=True), 0.0))

    best_J, best_report = np.inf, None
    for mass in starts:
        mass = _project_groups(network, mass, caps)
        J, base = objective(mass)
        gap, reason, it = None, "max_iter", 0
        for it in range(1, max_iter + 1):
            s, gap = _vertex(network, mass, caps, J, lambda m: objective(m, base)[0])
            if gap <= tol:
                reason = "gap"
                break
            J_s, loading_s = objective(s, base)
            curve = J_s - J + gap           # J(s) less its linear model
            trial = (J_s, s, loading_s)
            if curve > gap / 2:
                gamma = gap / (2 * curve)
                for _ in range(21):         # gamma, then at most 20 halvings
                    m_t = (1 - gamma) * mass + gamma * s
                    J_t, loading_t = objective(m_t, base)
                    if J_t < trial[0]:
                        trial = (J_t, m_t, loading_t)
                    if trial[0] < J:
                        break
                    gamma /= 2
            if not trial[0] < J:
                reason = "no_decrease"
                break
            J, mass, base = trial
        if J < best_J:
            best_J, best_report = J, OptimumReport(it, gap, reason, base)
    return best_report.loading.profile, best_J, best_report
