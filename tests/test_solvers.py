"""Cost evaluation, equilibrium gap, and the two solvers on small instances."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kinwave import (ArcDescriptor, ConfigurationError, CostFunction,
                     DepartureProfile, FluxDescriptor, GroupDescriptor, Network,
                     arrival_time_path, cost_profile, nash_gap, network_load,
                     per_driver_times, solve_global, solve_nash, total_cost)
from kinwave import solvers
from kinwave.solvers import _project_box_simplex

from helpers import nash_certificate_instances
from oracles import riemann_cost, scalar_best_cost

TRI = FluxDescriptor.triangular(1.0, 1.0, 1.0)


def build(arcs_spec, groups_spec):
    nodes = sorted({n for a in arcs_spec for n in (a[0], a[1])})
    arcs = [ArcDescriptor(a, b, L, flux) for a, b, L, flux in arcs_spec]
    groups = [GroupDescriptor(size, o, d, phi, psi)
              for size, o, d, phi, psi in groups_spec]
    return Network(nodes, arcs, groups)


PHI = CostFunction.affine(0.0, -1.0)
PSI_Q = CostFunction.quadratic(0.0, 1.0, 0.2)
# increasing on all of R (penalty slopes in (-1, 1)): safe for compute_bounds
PSI_V = CostFunction.vickrey(1.0, 0.2, 0.4, 0.25)


def scalar_argmin(phi, psi, mu, lo=-8.0, hi=8.0, n=160001):
    ts = np.linspace(lo, hi, n)
    vals = phi(ts) + psi(ts + mu)
    return float(ts[np.argmin(vals)])


class TestTotalCost:
    def test_zero_demand(self):
        net = build([("a", "b", 1.0, TRI)], [(0.0, "a", "b", PHI, PSI_Q)])
        prof = DepartureProfile(0.0, 1.0, np.zeros((1, 1, 1)))
        assert total_cost(net, prof) == 0.0

    def test_telescoping_free_flow(self):
        # phi(t) = -t, psi(tau) = tau, free flow: every driver pays mu = 1
        net = build([("a", "b", 1.0, TRI)],
                    [(0.1, "a", "b", PHI, CostFunction.affine(0.0, 1.0))])
        prof = DepartureProfile(0.0, 1.0, np.full((1, 1, 1), 0.1))
        assert total_cost(net, prof) == pytest.approx(0.1, abs=1e-12)

    def test_congested_against_riemann_oracle(self):
        net = build([("a", "b", 1.0, TRI)], [(1.2, "a", "b", PHI, PSI_Q)])
        prof = DepartureProfile(0.0, 1.0, np.full((1, 1, 1), 1.2))
        loading = network_load(net, prof)
        dep_inv, arr_inv = per_driver_times(loading, 0, 0)
        oracle = riemann_cost(dep_inv, arr_inv, 1.2, PHI.value, PSI_Q.value)
        assert total_cost(net, prof, loading=loading) == pytest.approx(
            oracle, abs=1e-5
        )


class TestCostProfile:
    def test_pointwise_recomputation(self):
        net = build([("a", "b", 1.0, TRI)], [(0.8, "a", "b", PHI, PSI_Q)])
        prof = DepartureProfile(0.0, 0.5, np.full((1, 1, 4), 0.4))
        loading = network_load(net, prof)
        costs = cost_profile(net, loading)
        for i, t in enumerate(costs.times):
            arr = arrival_time_path(loading, net.paths[0], t)
            want = PHI.value(t) + PSI_Q.value(arr)
            assert costs.values[(0, 0)][i] == pytest.approx(want, abs=1e-12)

    def test_midpoints_indexing(self):
        net = build([("a", "b", 1.0, TRI)], [(0.4, "a", "b", PHI, PSI_Q)])
        prof = DepartureProfile(0.0, 0.5, np.full((1, 1, 4), 0.2))
        costs = cost_profile(net, network_load(net, prof))
        mids = prof.bin_edges[:-1] + 0.25
        assert np.allclose(costs.times[costs.midpoint_index], mids)


class TestNashGap:
    def test_zero_mass_group(self):
        net = build([("a", "b", 1.0, TRI)], [(0.0, "a", "b", PHI, PSI_Q)])
        prof = DepartureProfile(0.0, 1.0, np.zeros((1, 1, 2)))
        report = nash_gap(net, prof)
        assert report.gap == pytest.approx(0.0, abs=1e-12)

    def test_tiny_group_at_free_flow_minimizer(self):
        # combined free-flow cost is mu + 0.2*(t+1)^2, minimized at t = -1;
        # a negligible group parked there has (almost) no better alternative
        net = build([("a", "b", 1.0, TRI)], [(1e-6, "a", "b", PHI, PSI_Q)])
        width = 0.05
        rates = np.zeros((1, 1, 81))
        rates[0, 0, 40] = 1e-6 / width          # bin centered at -1 + width/2
        prof = DepartureProfile(-1.0 - 40.5 * width, width, rates)
        report = nash_gap(net, prof)
        assert report.gap <= 1e-3

    def test_lopsided_two_path_profile(self):
        # all mass on the longer branch of an uncongested diamond: the gap
        # equals the (exactly computable) detour cost difference
        arcs = [("a", "u", 1.0, TRI), ("u", "b", 1.0, TRI),
                ("a", "v", 2.0, TRI), ("v", "b", 2.0, TRI)]
        net = build(arcs, [(1e-6, "a", "b", PHI, PSI_Q)])
        long_p = next(p for p in net.paths_for_group(0)
                      if net.paths[p].free_flow_time > 2.5)
        rates = np.zeros((1, len(net.paths), 2))
        rates[0, long_p, :] = 1e-6 / 1.0
        prof = DepartureProfile(-1.5, 0.5, rates)
        report = nash_gap(net, prof)
        assert report.gap > 0.1
        # oracle: recompute used and best costs from scratch on the grid
        loading = network_load(net, prof)
        edges = prof.bin_edges
        times = np.unique(np.concatenate((edges, edges[:-1] + 0.25)))
        best = min(
            float(np.min(PHI.value(times) + PSI_Q.value(
                arrival_time_path(loading, net.paths[p], times))))
            for p in net.paths_for_group(0)
        )
        mids = edges[:-1] + 0.25
        used = float(np.max(PHI.value(mids) + PSI_Q.value(
            arrival_time_path(loading, net.paths[long_p], mids))))
        assert report.gap == pytest.approx(used - best, abs=1e-9)


class TestSolveNash:
    def test_free_flow_concentrates_at_scalar_minimizer(self):
        net = build([("a", "b", 1.0, FluxDescriptor.triangular(1.0, 1.0, 2.0))],
                    [(0.01, "a", "b", PHI, PSI_V)])
        prof, report = solve_nash(net, bins=256, tol=2.5e-3, max_iter=1500)
        assert report.converged
        assert report.gap <= 2.5e-3
        # support sits near the minimizer of phi(t) + psi(t + mu)
        t_star = scalar_argmin(PHI.value, PSI_V.value, 1.0)
        live = prof.rates[0, 0] * prof.bin_width > 1e-9 * 0.01
        centers = prof.bin_edges[:-1] + 0.5 * prof.bin_width
        assert np.all(np.abs(centers[live] - t_star) < 0.5)
        oracle = scalar_best_cost(PHI.value, PSI_V.value, 1.0, -8.0, 8.0)
        assert min(report.group_best_cost) == pytest.approx(oracle, abs=5e-3)

    def test_diagnostics_and_report_shape(self):
        net = build([("a", "b", 1.0, TRI)], [(0.05, "a", "b", PHI, PSI_V)])
        prof, report = solve_nash(net, bins=32, tol=5e-3, max_iter=500)
        d = report.as_dict()
        assert set(d) >= {"gap", "converged", "iterations", "stop_reason", "step",
                          "groups", "rate_bound", "support_window"}
        assert d["stop_reason"] == "tol"
        assert report.rates_ok and report.support_ok
        assert len(report.gap_history) == report.iterations

    def test_rejects_degenerate_bins(self):
        net = build([("a", "b", 1.0, TRI)], [(0.05, "a", "b", PHI, PSI_V)])
        with pytest.raises(ConfigurationError):
            solve_nash(net, bins=1)

    @pytest.mark.parametrize("max_iter", [6, 400])
    def test_one_load_per_iteration(self, monkeypatch, max_iter):
        # Popov's scheme loads only the predictor; the reported gap is the
        # loaded best profile's own gap, and the history ends at the last load
        net = build([("a", "b", 1.0, TRI)], [(0.3, "a", "b", PHI, PSI_V)])
        loaded = []

        def recording(network, profile, **kwargs):
            loaded.append(profile)
            return network_load(network, profile, **kwargs)

        monkeypatch.setattr(solvers, "network_load", recording)
        prof, report = solve_nash(net, bins=32, tol=5e-3, max_iter=max_iter)
        monkeypatch.undo()
        assert len(loaded) == report.iterations == len(report.gap_history)
        assert report.converged == (max_iter == 400)
        assert any(p is prof for p in loaded)
        assert report.gap == nash_gap(net, prof).gap
        assert report.gap_history[-1] == nash_gap(net, loaded[-1]).gap
        assert report.gap == min(report.gap_history)

    @pytest.mark.parametrize("tol", [1e-9, 1e9])
    def test_zero_iterations_reports_uniform_start(self, monkeypatch, tol):
        # like opt's best start: the uniform start, loaded once and reported
        net = build([("a", "b", 1.0, TRI)], [(0.3, "a", "b", PHI, PSI_V)])
        start, _ = solve_nash(net, bins=32, tol=tol, max_iter=1)
        loaded = []

        def recording(network, profile, **kwargs):
            loaded.append(profile)
            return network_load(network, profile, **kwargs)

        monkeypatch.setattr(solvers, "network_load", recording)
        prof, report = solve_nash(net, bins=32, tol=tol, max_iter=0)
        monkeypatch.undo()
        assert loaded == [prof]
        assert np.array_equal(prof.rates, start.rates)
        assert report.iterations == 0
        assert report.gap == nash_gap(net, prof).gap == report.gap_history[0]
        assert report.converged == (tol > 1.0)
        assert report.stop_reason == ("tol" if tol > 1.0 else "max_iter")
        assert report.step == 0.2      # no step taken: the first step, damping


def _step_coordinates(network, profile, costs):
    """Mass fractions m / G_k and midpoint costs, over every group and path."""
    y, F = [], []
    for k, g in enumerate(network.groups):
        for p in network.paths_for_group(k):
            y.append(profile.rates[k, p] * profile.bin_width / g.size)
            F.append(costs.midpoints(k, p))
    return np.concatenate(y), np.concatenate(F)


@pytest.fixture(scope="module")
def certificate_solves():
    """Each criterion-6 instance solved once, with the step of every swap and
    the step coordinates of every load recorded."""
    real_swap, real_cost_profile = solvers._swap_step, solvers.cost_profile
    out = {}
    for name, (net, kwargs) in nash_certificate_instances().items():
        steps, points = [], []

        def swap(network, profile, costs, step, cap):
            steps.append(step)
            return real_swap(network, profile, costs, step, cap)

        def costing(network, loading):
            costs = real_cost_profile(network, loading)
            points.append(_step_coordinates(network, loading.profile, costs))
            return costs

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solvers, "_swap_step", swap)
            mp.setattr(solvers, "cost_profile", costing)
            report = solve_nash(net, **kwargs)[1]
        assert steps[::2] == steps[1::2]     # anchor and predictor share a step
        out[name] = (report, steps[::2], points)
    return out


class TestAdaptiveStep:
    @pytest.mark.parametrize("name, ceiling", [
        ("free_flow", 40), ("diamond", 11), ("congested", 891)])
    def test_iteration_ceilings(self, certificate_solves, name, ceiling):
        # the fixed step took 771, 11 and 891 iterations
        report, steps, points = certificate_solves[name]
        assert report.converged and report.stop_reason == "tol"
        assert report.iterations <= ceiling
        assert len(points) == report.iterations == len(steps) + 1
        assert report.step == steps[-1]

    def test_free_flow_step_grows_geometrically(self, certificate_solves):
        # no queue forms, so the costs depend on the profile only by rounding,
        # and the Lipschitz estimate never binds
        report, steps, points = certificate_solves["free_flow"]
        F0 = points[0][1]
        assert all(np.max(np.abs(F - F0)) <= 1e-14 * np.max(np.abs(F0)) for _, F in points)
        want = [0.2]
        while len(want) < len(steps):
            want.append(want[-1] * solvers._STEP_GROWTH)
        assert steps == want

    def test_congested_step_within_lipschitz_bound(self, certificate_solves):
        report, steps, points = certificate_solves["congested"]
        assert steps[0] == 0.2
        bounded = 0
        for k in range(1, len(steps)):
            (y0, F0), (y1, F1) = points[k - 1], points[k]
            dy, dF = np.linalg.norm(y1 - y0), np.linalg.norm(F1 - F0)
            assert steps[k] <= steps[k - 1] * solvers._STEP_GROWTH
            assert steps[k] * dF <= solvers._STEP_THETA * dy * (1 + 1e-12)
            bounded += steps[k] < steps[k - 1] * solvers._STEP_GROWTH
        assert bounded > 0      # the estimate binds, so the step adapts


class TestSolveGlobal:
    def test_single_driver_limit(self):
        net = build([("a", "b", 1.0, TRI)], [(1e-4, "a", "b", PHI, PSI_V)])
        prof, J = solve_global(net, bins=8, max_iter=40, restarts=2, seed=0)
        oracle = scalar_best_cost(PHI.value, PSI_V.value, 1.0, -8.0, 8.0)
        # per-driver cost within one bin-curvature of the scalar optimum
        width = prof.bin_width
        assert J / 1e-4 == pytest.approx(oracle, abs=0.3 * width ** 2 + 1e-4)

    def test_two_bin_exhaustive(self):
        net = build([("a", "b", 1.0, TRI)], [(0.2, "a", "b", PHI, PSI_V)])
        prof, J = solve_global(net, bins=2, max_iter=60, restarts=2, seed=1)
        best = np.inf
        for x in np.linspace(0.0, 0.2, 101):
            rates = np.array([[[x, 0.2 - x]]]) / prof.bin_width
            trial = DepartureProfile(prof.start, prof.bin_width, rates)
            best = min(best, total_cost(net, trial))
        assert J <= best + 1e-3 * max(1.0, abs(best))
        assert J >= best - 1e-9  # the exhaustive grid contains near-optima

    def test_dominates_equilibrium(self):
        net = build([("a", "b", 1.0, TRI)], [(0.3, "a", "b", PHI, PSI_V)])
        nash_prof, report = solve_nash(net, bins=64, tol=5e-3, max_iter=600)
        J_nash = total_cost(net, nash_prof)
        prof, J_opt = solve_global(net, bins=64, max_iter=3, restarts=0,
                                   init=nash_prof)
        assert J_opt <= J_nash + 1e-3

    def test_probes_never_reload_the_iterate(self, monkeypatch):
        # the lower probe of an empty cell is the iterate itself, whose cost
        # J is known: every profile loaded while descending is a new one
        net = build([("a", "b", 1.0, TRI)], [(0.2, "a", "b", PHI, PSI_V)])
        grid, _ = solve_global(net, bins=4, max_iter=0, restarts=1)
        init = DepartureProfile(grid.start, grid.bin_width,
                                np.array([[[0.0, 0.15, 0.05, 0.0]]]) / grid.bin_width)
        loaded = []

        def recording(network, profile, **kwargs):
            loaded.append(profile.rates.tobytes())
            return total_cost(network, profile, **kwargs)

        monkeypatch.setattr(solvers, "total_cost", recording)
        solve_global(net, bins=4, max_iter=2, restarts=0, init=init)
        assert len(loaded) > 1 + 4 + 2      # the iterate, 4 up and 2 down probes
        assert len(set(loaded)) == len(loaded)

    def test_init_grid_mismatch(self):
        net = build([("a", "b", 1.0, TRI)], [(0.3, "a", "b", PHI, PSI_V)])
        bad = DepartureProfile(0.0, 1.0, np.full((1, 1, 1), 0.3))
        with pytest.raises(ConfigurationError):
            solve_global(net, bins=4, init=bad)


@settings(max_examples=80, deadline=None)
@given(n=st.integers(2, 600), seed=st.integers(0, 2**32 - 1),
       capped=st.booleans(), empty=st.booleans())
def test_project_box_simplex_kkt(n, seed, capped, empty):
    """Feasible, of the form clip(v - theta, 0, cap) for one theta, and
    carrying the full mass up to rounding."""
    rng = np.random.default_rng(seed)
    total = 0.0 if empty else float(rng.uniform(0.01, 10.0))
    v = rng.normal(size=n) * max(total, 1.0)
    cap = total / n * rng.uniform(1.0, 5.0) if capped else np.inf
    x = _project_box_simplex(v, total, cap)
    assert np.all(x >= 0.0) and np.all(x <= cap)
    assert abs(x.sum() - total) <= 1e-12 * total
    # KKT form: x = clip(v - theta, 0, cap) for one theta; try the theta
    # each cell strictly inside its box implies, and the edges that the
    # cells at 0 and at cap allow
    thetas = list((v - x)[(x > 0.0) & (x < cap)])
    if np.any(x == 0.0):
        thetas.append(np.max(v[x == 0.0]))
    if np.any(x == cap):
        thetas.append(np.min((v - cap)[x == cap]))
    err = np.abs(np.clip(v - np.array(thetas)[:, None], 0.0, cap) - x).max(axis=1)
    assert err.min() <= 1e-12 * max(1.0, np.max(np.abs(v)))
