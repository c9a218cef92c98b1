"""Cost evaluation, equilibrium gap, and the two solvers on small instances."""
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kinwave import (ArcDescriptor, ConfigurationError, CostFunction,
                     DepartureProfile, FluxDescriptor, GroupDescriptor, Network,
                     arrival_time_path, compute_bounds, cost_profile, max_travel_time,
                     nash_gap, network_load, per_driver_times, solve_global, solve_nash,
                     total_cost)
from kinwave import loading as kinwave_loading
from kinwave import solvers
from kinwave.solvers import _project_box_simplex

from helpers import ascent_vertex, nash_certificate_instances
from oracles import (bottleneck_equilibrium, greedy_fill_cost, riemann_cost,
                     scalar_best_cost)

TRI = FluxDescriptor.triangular(1.0, 1.0, 1.0)


def build(arcs_spec, groups_spec, dt=1e-3):
    nodes = sorted({n for a in arcs_spec for n in (a[0], a[1])})
    arcs = [ArcDescriptor(a, b, L, flux) for a, b, L, flux in arcs_spec]
    groups = [GroupDescriptor(size, o, d, phi, psi)
              for size, o, d, phi, psi in groups_spec]
    return Network(nodes, arcs, groups, dt=dt)


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
        assert np.allclose(costs.times[1::2], mids)


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
        with pytest.raises(ConfigurationError, match="tol > 0"):   # the step bound is 1 / tol
            solve_nash(net, bins=32, tol=0.0)

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
            F.append(costs.values[k, p, 1::2])
    return np.concatenate(y), np.concatenate(F)


def _record_solve(network, kwargs):
    """Solve with the step of every swap and the step coordinates of every
    load recorded, each beside its grid's bin count."""
    real_swap, real_cost_profile = solvers._swap_step, solvers.cost_profile
    steps, points = [], []

    def swap(network, profile, costs, step, cap):
        steps.append((profile.n_bins, step))
        return real_swap(network, profile, costs, step, cap)

    def costing(network, loading):
        costs = real_cost_profile(network, loading)
        points.append((loading.profile.n_bins,
                       _step_coordinates(network, loading.profile, costs)))
        return costs

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solvers, "_swap_step", swap)
        mp.setattr(solvers, "cost_profile", costing)
        report = solve_nash(network, **kwargs)[1]
    assert steps[::2] == steps[1::2]     # anchor and predictor share a step
    return report, steps[::2], points


def _per_grid(recorded):
    """Recorded (bins, item) pairs as {bins: [items]}, coarsest grid first."""
    out = {}
    for bins, item in recorded:
        out.setdefault(bins, []).append(item)
    return dict(sorted(out.items()))


@pytest.fixture(scope="module")
def certificate_solves():
    """Each criterion-6 instance solved once: its report, and the steps and
    step coordinates of each grid."""
    out = {}
    for name, (net, kwargs) in nash_certificate_instances().items():
        report, steps, points = _record_solve(net, kwargs)
        out[name] = (report, _per_grid(steps), _per_grid(points))
    return out


class TestAdaptiveStep:
    @pytest.mark.parametrize("name, ceiling", [
        ("free_flow", 40), ("diamond", 11), ("congested", 200)])
    def test_iteration_ceilings(self, certificate_solves, name, ceiling):
        # one grid with the fixed step took 771, 11 and 891 iterations, and
        # with the adaptive step 15, 5 and 776; the grids from 32 bins up take
        # 27, 8 and 171, and the congested ceiling leaves 29 loads of margin
        report, steps, points = certificate_solves[name]
        assert report.converged and report.stop_reason == "tol"
        assert report.iterations <= ceiling
        assert list(points) == solvers._grid_sequence(max(points))
        assert sum(map(len, points.values())) == report.iterations
        # a grid swaps after every load but its last
        assert all(len(steps.get(b, [])) == len(p) - 1 for b, p in points.items())
        *coarse, final = points
        assert all(len(points[b]) <= solvers._COARSE_LOADS for b in coarse)
        assert report.step == steps[final][-1]
        # a grid of b bins stops at its first load with gap <= tol * final / b
        tol = nash_certificate_instances()[name][1]["tol"]
        gaps = iter(report.gap_history)
        for b, grid_points in points.items():
            grid_gaps = [next(gaps) for _ in grid_points]
            assert all(g > tol * final / b for g in grid_gaps[:-1])

    def test_free_flow_step_grows_geometrically(self, certificate_solves):
        # no queue forms, so the costs depend on the profile only by rounding,
        # and the Lipschitz estimate never binds: on each grid the step grows
        # from damping, or from half the coarser grid's last step if larger
        report, steps, points = certificate_solves["free_flow"]
        last = None
        for b, grid_steps in steps.items():
            F0 = points[b][0][1]
            assert all(np.max(np.abs(F - F0)) <= 1e-14 * np.max(np.abs(F0))
                       for _, F in points[b])
            want = [0.2 if last is None else max(0.2, 0.5 * last)]
            while len(want) < len(grid_steps):
                want.append(want[-1] * solvers._STEP_GROWTH)
            assert grid_steps == want
            last = grid_steps[-1]

    def test_congested_step_within_lipschitz_bound(self, certificate_solves):
        report, steps, points = certificate_solves["congested"]
        assert next(iter(steps.values()))[0] == 0.2
        bounded = 0
        for b, grid_steps in steps.items():
            for k in range(1, len(grid_steps)):
                (y0, F0), (y1, F1) = points[b][k - 1], points[b][k]
                dy, dF = np.linalg.norm(y1 - y0), np.linalg.norm(F1 - F0)
                assert grid_steps[k] <= grid_steps[k - 1] * solvers._STEP_GROWTH
                assert grid_steps[k] * dF <= solvers._STEP_THETA * dy * (1 + 1e-12)
                bounded += grid_steps[k] < grid_steps[k - 1] * solvers._STEP_GROWTH
        assert bounded > 0      # the estimate binds, so the step adapts

    def test_coarse_grid_stops_within_its_budget(self, monkeypatch):
        # on 16 bins the diamond's gap cannot reach its tolerance (4 times
        # tol): without a budget that grid takes 1,998 of the 2,000 loads,
        # one is left to each finer grid, and the solve does not converge
        monkeypatch.setattr(solvers, "_COARSEST_BINS", 16)
        net, kwargs = nash_certificate_instances()["diamond"]
        report, steps, points = _record_solve(net, kwargs)
        points = _per_grid(points)
        assert list(points) == [16, 32, 64]
        assert len(points[16]) == solvers._COARSE_LOADS
        assert min(report.gap_history[:solvers._COARSE_LOADS]) > kwargs["tol"] * 4
        # past the stuck grid, the solve stays within the diamond's ceiling
        assert report.converged and report.iterations - solvers._COARSE_LOADS <= 11


class TestBottleneckCertificate:
    """solve_nash against the closed-form equilibrium of one bottleneck."""

    @staticmethod
    def congested():
        net, kwargs = nash_certificate_instances()["congested"]
        g = net.groups[0]
        eq = bottleneck_equilibrium(g.size, net.arcs[0].flux.f_max,
                                    net.paths[0].free_flow_time, g.arrival_cost.params)
        return net, kwargs, eq

    def test_oracle_self_check(self):
        # equal early and late rates make the smoothed penalty even about the
        # target, so the rush of G/F = 0.6 is centred on it: T_a = 1.3 - 0.3
        net, _, eq = self.congested()
        psi = net.groups[0].arrival_cost
        assert eq.arrival_start == 1.0
        assert psi.value(1.6) - psi.value(1.0) == pytest.approx(0.6, abs=1e-15)
        assert eq.cost == pytest.approx(psi.value(1.0), abs=1e-15)   # mu = T_a = 1
        tau = psi.value(np.array([1.0, 1.3, 1.6])) - eq.cost
        assert eq.departures(tau) == pytest.approx([0.0, 0.15, 0.3], abs=1e-12)
        assert eq.departures(tau[[0, -1]] + [-1.0, 1.0]).tolist() == [0.0, 0.3]

    def test_oracle_sharp_vickrey(self):
        # with a sharp penalty the early drivers' share is late / (early + late)
        # (Arnott, de Palma and Lindsey, J. Urban Econ. 27, 1990)
        eq = bottleneck_equilibrium(0.4, 0.5, 1.0, {"target": 2.0, "early_rate": 0.5,
                                                    "late_rate": 1.5, "smoothing": 1e-12})
        assert eq.arrival_start == pytest.approx(2.0 - 0.8 * 1.5 / 2.0, abs=1e-11)
        assert eq.cost == pytest.approx(1.0 + 0.5 * 0.6, abs=1e-11)

    def test_nash_departures_match(self):
        # D at the bin edges within F * width / 16 of D* (7.3e-4 here); the
        # single 512-bin grid was 5.5e-4 away and the grids from 32 bins up
        # are 5.2e-4 away; every supported bin costs within tol of c*
        net, kwargs, eq = self.congested()
        prof, report = solve_nash(net, **kwargs)
        D = np.concatenate(([0.0], np.cumsum(prof.rates[0, 0] * prof.bin_width)))
        tol = net.arcs[0].flux.f_max * prof.bin_width / 16
        assert np.max(np.abs(D - eq.departures(prof.bin_edges))) <= tol
        for cost in (report.group_used_cost[0], report.group_support_min[0]):
            assert cost == pytest.approx(eq.cost, abs=kwargs["tol"])


class TestSolveGlobal:
    def test_single_driver_limit(self):
        net = build([("a", "b", 1.0, TRI)], [(1e-4, "a", "b", PHI, PSI_V)])
        prof, J, _ = solve_global(net, bins=8, max_iter=40, restarts=2, seed=0)
        oracle = scalar_best_cost(PHI.value, PSI_V.value, 1.0, -8.0, 8.0)
        # per-driver cost within one bin-curvature of the scalar optimum
        width = prof.bin_width
        assert J / 1e-4 == pytest.approx(oracle, abs=0.3 * width ** 2 + 1e-4)

    def test_two_bin_exhaustive(self):
        net = build([("a", "b", 1.0, TRI)], [(0.2, "a", "b", PHI, PSI_V)])
        prof, J, _ = solve_global(net, bins=2, max_iter=60, restarts=2, seed=1)
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
        prof, J_opt, _ = solve_global(net, bins=64, max_iter=3, restarts=0,
                                      init=nash_prof)
        assert J_opt <= J_nash + 1e-3

    def test_probes_never_reload_the_iterate(self, monkeypatch):
        # from two live cells the first vertex lowers one of them, so the
        # probes go both ways: forward ones raise the group's mass and
        # backward ones lower it.  Every mass loaded is a new one
        net = build([("a", "b", 1.0, TRI)], [(0.2, "a", "b", PHI, PSI_V)])
        grid, _, _ = solve_global(net, bins=4, max_iter=0, restarts=1)
        init = DepartureProfile(grid.start, grid.bin_width,
                                np.array([[[0.0, 0.15, 0.05, 0.0]]]) / grid.bin_width)
        loaded = []

        def recording(network, profile, **kwargs):
            loaded.append(profile.rates.tobytes())
            return total_cost(network, profile, **kwargs)

        monkeypatch.setattr(solvers, "total_cost", recording)
        solve_global(net, bins=4, max_iter=2, restarts=0, init=init)
        masses = [np.frombuffer(b).sum() * grid.bin_width for b in loaded]
        assert any(m > 0.2 for m in masses) and any(m < 0.2 for m in masses)
        assert len(set(loaded)) == len(loaded)

    def test_line_search_never_reloads_the_iterate(self, monkeypatch):
        # within a start no mass is loaded twice, neither the iterate nor a
        # vertex, and the start's first load is its only one without ``reuse``
        instances = reference_instances()

        def recording(network, profile, **kwargs):
            if kwargs.get("reuse") is None:
                starts.append([])
            starts[-1].append(profile.rates.tobytes())
            return network_load(network, profile, **kwargs)

        monkeypatch.setattr(solvers, "network_load", recording)
        for name, (net, kwargs) in instances.items():
            starts = []
            solve_global(net, **kwargs)
            assert len(starts) == kwargs["restarts"] + ("init" in kwargs), name
            for loaded in starts:
                assert len(set(loaded)) == len(loaded), name

    @pytest.mark.parametrize("name", ["two_bin", "merge", "two_groups", "empty_group",
                                      "greenshields", "warm_start"])
    def test_matches_the_loop_without_reuse(self, name, monkeypatch):
        # the same profile bytes, J bits and report as when every probe and
        # trial is loaded afresh
        net, kwargs = reference_instances()[name]
        prof, J, report = solve_global(net, **kwargs)

        def fresh(network, profile, *, reuse=None, **kw):
            return network_load(network, profile, **kw)

        monkeypatch.setattr(solvers, "network_load", fresh)
        ref, J_ref, ref_report = solve_global(net, **kwargs)
        assert (prof.start, prof.bin_width) == (ref.start, ref.bin_width)
        assert prof.rates.tobytes() == ref.rates.tobytes()
        assert np.float64(J).tobytes() == np.float64(J_ref).tobytes()
        assert (report.iterations, report.gap, report.stop_reason) == \
            (ref_report.iterations, ref_report.gap, ref_report.stop_reason)

    def test_merge_reaches_the_exhaustive_optimum(self):
        # perfbench's merge: at seed 0 (c = 1.16615) a G/16 scan of its
        # 6-cell simplex puts every driver on path 1 in bin 1 at J =
        # 0.3074467538, and J scales with c, so 0.26364167 here.  The
        # projected descent stopped 2.7% above it, at 0.27083502
        net, kwargs = reference_instances()["merge"]
        prof, J, report = solve_global(net, **kwargs)
        assert J == pytest.approx(0.26364167, rel=1e-3)
        assert report.stop_reason == "gap" and report.converged
        assert report.gap <= kwargs["tol"]

    def test_a_start_no_step_lowers_stops_where_it_began(self, monkeypatch):
        # each trial lies toward a vertex up the slope, so the start stops on
        # no_decrease after one gap, with its own profile and J
        net, kwargs = reference_instances()["two_bin"]
        kwargs = dict(kwargs, restarts=1, tol=1e-6)
        start, J_start, _ = solve_global(net, **dict(kwargs, max_iter=0))
        ascent_vertex(monkeypatch)
        prof, J, report = solve_global(net, **kwargs)
        assert report.stop_reason == "no_decrease" and report.converged is False
        assert report.iterations == 1 and report.gap > kwargs["tol"]
        assert prof.rates.tobytes() == start.rates.tobytes() and J == J_start

    @pytest.mark.parametrize("name", ["arc", "arc_late", "arc_capped", "merge",
                                      "rising_phi_1_4", "rising_phi_2_4", "rising_phi_2_6"])
    def test_no_worse_than_an_uncapped_scan(self, name):
        # every split of G into eighths over the cells, caps ignored, so a
        # queue the cap excludes is scanned too.  In "arc_capped" a cell
        # holds 0.84 G, and J fills one cell to its cap and the next with
        # the rest.  J exceeded the scan by at most 6.7e-16 on these and 60
        # other one-arc instances, so the bound is rounding.  In "rising_phi_*"
        # phi falls only before t = 1, so departing early into a queue is
        # cheaper; capped at F * width, J stopped 22-40% above the scan
        late = CostFunction.vickrey(1.3, 0.6, 0.6, 2.0)
        low = FluxDescriptor.triangular(1.0, 1.0, 0.1)
        narrow = FluxDescriptor.triangular(1.0, 1.0, 0.4)

        def rising(G):
            phi, psi = CostFunction.quadratic(0.0, -1.0, 0.5), CostFunction.affine(0.0, 1.0)
            return build([("a", "b", 1.0, narrow)], [(G, "a", "b", phi, psi)])

        instances = {
            "arc": (build([("a", "b", 1.0, TRI)], [(0.3, "a", "b", PHI, PSI_V)]), 3),
            "arc_late": (build([("a", "b", 1.0, TRI)], [(0.6, "a", "b", PHI, late)]), 4),
            "arc_capped": (build([("a", "b", 1.0, low)], [(0.5, "a", "b", PHI, late)]), 8),
            "merge": (reference_instances()["merge"][0], 2),
            "rising_phi_1_4": (rising(1.0), 4),
            "rising_phi_2_4": (rising(2.0), 4),
            "rising_phi_2_6": (rising(2.0), 6),
        }
        net, bins = instances[name]
        prof, J, report = solve_global(net, bins=bins, restarts=2, seed=1)
        assert report.converged
        G = net.groups[0].size
        cells = [(p, i) for p in net.paths_for_group(0) for i in range(bins)]
        best = np.inf
        for cut in itertools.combinations(range(8 + len(cells) - 1), len(cells) - 1):
            units = np.diff((-1, *cut, 8 + len(cells) - 1)) - 1
            rates = np.zeros(prof.rates.shape)
            for (p, i), u in zip(cells, units):
                rates[0, p, i] = u * G / 8 / prof.bin_width
            best = min(best, total_cost(net, DepartureProfile(prof.start, prof.bin_width,
                                                              rates)))
        assert J <= best + 1e-12 * max(1.0, abs(best))

    def test_congested_reaches_the_greedy_fill(self, monkeypatch):
        # criterion 6's congested arc at 64 bins: no cell queues inside the
        # box, so J is linear there and the fill of the cheapest cells is
        # the optimum.  No load, probes included, leaves the box
        net, _ = nash_certificate_instances()["congested"]
        peaks = []

        def recording(network, profile, **kwargs):
            peaks.append(profile.rates.max())
            return network_load(network, profile, **kwargs)

        monkeypatch.setattr(solvers, "network_load", recording)
        prof, J, report = solve_global(net, bins=64, restarts=0)
        g, arc = net.groups[0], net.arcs[0]
        want = greedy_fill_cost(g.size, arc.flux.f_max, net.paths[0].free_flow_time,
                                g.departure_cost, g.arrival_cost, prof.bin_edges)
        assert report.converged
        assert abs(J - want) <= 1e-6
        assert max(peaks) <= arc.flux.f_max * (1 + 1e-12)

    def test_a_start_is_projected_into_the_box(self):
        # the whole group in one bin of the congested arc is 3.2 times the
        # bin's cap F * width: the start loaded is the projection, which
        # spreads the excess evenly over the bins
        net, _ = nash_certificate_instances()["congested"]
        grid, _, _ = solve_global(net, bins=64, max_iter=0, restarts=0)
        rates = np.zeros((1, 1, 64))
        rates[0, 0, 32] = 0.3 / grid.bin_width
        init = DepartureProfile(grid.start, grid.bin_width, rates)
        prof, J, _ = solve_global(net, bins=64, max_iter=0, restarts=0, init=init)
        F = net.arcs[0].flux.f_max
        assert prof.rates[0, 0, 32] == pytest.approx(F, rel=1e-12)
        assert np.all(prof.rates <= F * (1 + 1e-12))
        assert prof.group_masses() == pytest.approx([0.3], rel=1e-12)

    def test_no_start_given_is_uniform(self, monkeypatch):
        # restarts=0 and no init: the descent starts from the uniform rate
        net = build([("a", "b", 1.0, TRI)], [(0.2, "a", "b", PHI, PSI_V)])
        loaded = []

        def recording(network, profile, **kwargs):
            loaded.append(profile.rates.copy())
            return total_cost(network, profile, **kwargs)

        monkeypatch.setattr(solvers, "total_cost", recording)
        prof, J, _ = solve_global(net, bins=4, max_iter=0, restarts=0)
        monkeypatch.undo()
        assert len(loaded) == 1
        assert np.allclose(prof.rates, 0.2 / (4 * prof.bin_width), rtol=1e-15, atol=0.0)
        assert np.array_equal(loaded[0], prof.rates)
        assert J == total_cost(net, prof)

    def test_init_grid_mismatch(self):
        net = build([("a", "b", 1.0, TRI)], [(0.3, "a", "b", PHI, PSI_V)])
        bad = DepartureProfile(0.0, 1.0, np.full((1, 1, 1), 0.3))
        with pytest.raises(ConfigurationError):
            solve_global(net, bins=4, init=bad)


def reference_instances():
    """name -> (network, solve_global keywords): the instances on which
    ``reuse`` must not change the solve."""
    two_bin = build([("a", "b", 1.0, TRI)], [(0.2, "a", "b", PHI, PSI_V)])
    # the perfbench opt-merge network: two paths over triangular and
    # 5-kink sampled arcs
    kinks = FluxDescriptor.sampled([[0.0, 0.0], [0.1, 0.1], [0.2, 0.17], [0.3, 0.21],
                                    [0.6, 0.13], [1.0, 0.0]])
    merge = build([("o", "a", 0.5, TRI), ("a", "m", 0.6, kinks), ("o", "b", 0.4, kinks),
                   ("b", "m", 0.7, FluxDescriptor.triangular(1.2, 0.8, 1.0)),
                   ("m", "d", 0.5, kinks)],
                  [(0.1, "o", "d", PHI, CostFunction.vickrey(1.0, 0.9, 1.0, 0.25))])
    # two paths a->d and a->m->d, so a probe on a->d reuses a Greenshields exit
    gs_flux = FluxDescriptor.greenshields(1.0, 1.0)
    gs = build([("a", "d", 1.0, gs_flux), ("a", "m", 0.5, gs_flux), ("m", "d", 0.5, TRI)],
               [(0.1, "a", "d", PHI, PSI_V)], dt=5e-3)
    grid, _, _ = solve_global(two_bin, bins=4, max_iter=0, restarts=1)
    init = DepartureProfile(grid.start, grid.bin_width,
                            np.array([[[0.0, 0.15, 0.05, 0.0]]]) / grid.bin_width)
    return {
        "two_bin": (two_bin, dict(bins=2, max_iter=60, restarts=2, seed=1)),
        "merge": (merge, dict(bins=3, tol=1e-4, max_iter=200, restarts=1, seed=1)),
        "two_groups": (TestTwoGroups.NET, dict(bins=4, max_iter=2, restarts=1)),
        "empty_group": (TestEmptyGroup.NET, dict(bins=4, max_iter=2, restarts=1)),
        "greenshields": (gs, dict(bins=3, max_iter=2, restarts=1)),
        "warm_start": (two_bin, dict(bins=4, max_iter=60, restarts=1, init=init)),
    }


class TestTwoGroups:
    """Groups 0 (a->b) and 1 (a->c) share arc a->b, and each has one of the
    two paths it cannot take."""

    NET = build([("a", "b", 1.0, TRI), ("b", "c", 1.0, TRI)],
                [(0.2, "a", "b", PHI, PSI_V), (0.3, "a", "c", PHI, PSI_V)])

    def check_masses(self, prof):
        viable = [self.NET.paths_for_group(k) for k in range(2)]
        assert [len(ps) for ps in viable] == [1, 1] and viable[0] != viable[1]
        for k, (ps, other) in enumerate(zip(viable, viable[::-1])):
            assert np.all(prof.rates[k, other] == 0.0)
            assert np.all(prof.rates[k, ps] >= 0.0)
        assert prof.group_masses() == pytest.approx([0.2, 0.3], rel=1e-12)

    def test_nash(self):
        prof, report = solve_nash(self.NET, bins=16, tol=5e-3, max_iter=60)
        assert report.iterations > 1
        self.check_masses(prof)
        assert report.gap == nash_gap(self.NET, prof).gap
        assert report.group_gap == nash_gap(self.NET, prof).group_gap

    def test_global(self):
        prof, J, _ = solve_global(self.NET, bins=4, max_iter=2, restarts=1)
        self.check_masses(prof)
        assert J == total_cost(self.NET, prof)


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestEmptyGroup:
    """A zero-size group (b->c) beside a 0.2 group (a->b): it has no step
    coordinates (a fraction of a zero size would be 0/0), its projection is
    the zero mass, and it never departs."""

    NET = build([("a", "b", 1.0, TRI), ("b", "c", 1.0, TRI)],
                [(0.2, "a", "b", PHI, PSI_V), (0.0, "b", "c", PHI, PSI_V)])

    def check_masses(self, prof):
        assert np.all(prof.rates[1] == 0.0)
        assert np.all(prof.rates[0, self.NET.viable[0]] >= 0.0)
        assert np.all(prof.rates[0, ~self.NET.viable[0]] == 0.0)
        assert prof.group_masses() == pytest.approx([0.2, 0.0], abs=1e-12)

    def test_nash(self):
        prof, report = solve_nash(self.NET, bins=16, tol=5e-3, max_iter=60)
        assert report.iterations > 1
        self.check_masses(prof)
        assert report.gap == nash_gap(self.NET, prof).gap
        assert report.group_gap == nash_gap(self.NET, prof).group_gap

    def test_global(self):
        prof, J, _ = solve_global(self.NET, bins=4, max_iter=2, restarts=1)
        self.check_masses(prof)
        assert J == total_cost(self.NET, prof)


class TestGridStep:
    """A one-arc Greenshields network built at dt 2e-2: the solvers, nash_gap
    and total_cost all load it at that step, so they agree to the bit."""

    NET = build([("a", "b", 1.0, FluxDescriptor.greenshields(1.0, 1.0))],
                [(0.3, "a", "b", PHI, PSI_V)], dt=2e-2)

    def test_nash(self):
        prof, report = solve_nash(self.NET, bins=32, max_iter=30)
        assert report.gap == nash_gap(self.NET, prof).gap
        J = total_cost(self.NET, prof, loading=report.loading)
        assert total_cost(self.NET, prof) == J
        # the step is read: the default 1e-3 grid prices the profile otherwise
        fine = build([("a", "b", 1.0, FluxDescriptor.greenshields(1.0, 1.0))],
                     [(0.3, "a", "b", PHI, PSI_V)])
        assert total_cost(fine, prof) != J

    def test_global(self):
        prof, J, report = solve_global(self.NET, bins=3, max_iter=2, restarts=1)
        assert total_cost(self.NET, prof) == J
        assert total_cost(self.NET, prof, loading=report.loading) == J


def test_long_greenshields_arc_keeps_exits_small(monkeypatch):
    # a length-10 arc carrying 10 vehicles at capacity 0.25: grid exits at
    # dt 1e-3 kept up to 1,039 breakpoints over the 40-time-unit drain, and
    # nash (3 loads) and opt (38) at bins 4 took seconds to a minute
    net = build([("a", "b", 10.0, FluxDescriptor.greenshields(1.0, 1.0))],
                [(10.0, "a", "b", PHI, PSI_V)])
    exit_fn, sizes = kinwave_loading.lax_hopf_exit, []

    def counted(entry, arc, dt):
        out = exit_fn(entry, arc, dt)
        sizes.append(len(out.t))
        return out

    monkeypatch.setattr(kinwave_loading, "lax_hopf_exit", counted)
    solve_nash(net, bins=4, max_iter=3)
    solve_global(net, bins=4, max_iter=3, restarts=1)
    assert len(sizes) <= 16      # 3 loads for nash, 13 for opt
    assert max(sizes) <= 32      # 12-16 breakpoints per exit


class TestEmptyGroupBounds:
    """An empty a->c group beside a 0.2 a->b group on a->b->c: the bounds,
    and so the Nash solve, are those of the a->b group alone."""

    ARCS = [("a", "b", 1.0, TRI), ("b", "c", 1.0, TRI)]
    ALONE = build(ARCS, [(0.2, "a", "b", PHI, PSI_V)])
    BOTH = build(ARCS, [(0.2, "a", "b", PHI, PSI_V), (0.0, "a", "c", PHI, PSI_V)])

    def test_bounds(self):
        # the a->b->c path and the empty group once moved t_max from 1.4 to
        # 2.8 and t0 from 7.0 to 16.75
        bounds = compute_bounds(self.ALONE)
        assert (bounds.t_max, bounds.t0) == (1.4, 7.0)
        assert compute_bounds(self.BOTH) == bounds
        # an empty group whose cost minimum lies far out is not scanned either
        late = CostFunction.vickrey(10.0, 0.2, 0.4, 0.25)
        far = build(self.ARCS, [(0.2, "a", "b", PHI, PSI_V), (0.0, "a", "b", PHI, late)])
        assert compute_bounds(far) == bounds

    def test_nash(self):
        kwargs = dict(bins=32, tol=5e-3, max_iter=200)
        prof, report = solve_nash(self.ALONE, **kwargs)
        both, both_report = solve_nash(self.BOTH, **kwargs)
        (p,) = self.BOTH.paths_for_group(0)
        assert (both.start, both.bin_width) == (prof.start, prof.bin_width)
        assert both.rates[0, p].tobytes() == prof.rates[0, 0].tobytes()
        assert not np.any(np.delete(both.rates.reshape(-1, 32), p, axis=0))
        assert both_report.gap_history == report.gap_history
        assert both_report.group_gap == report.group_gap + [0.0]
        assert both_report.iterations == report.iterations
        assert both_report.stop_reason == report.stop_reason == "tol"

    def test_all_empty_reads_every_path(self):
        net = build(self.ARCS, [(0.0, "a", "b", PHI, PSI_V), (0.0, "a", "c", PHI, PSI_V)])
        assert compute_bounds(net).t_max == max(
            max_travel_time(net, path, 0.0) for path in net.paths) == 2.0


def test_swap_with_huge_step_is_an_exact_best_response():
    # bins 5 and 6 tie for the cheapest cost, so a huge step moves all the
    # mass onto them and projects their two masses: each loses the same
    # theta.  The step sheds alpha times each cell's excess over the group's
    # cheapest cost, so the two keep their digits; by the raw costs near 2,
    # alpha * F would be 6e8 and round them by 4e-8
    net = build([("a", "b", 1.0, TRI)], [(0.3, "a", "b", PHI, PSI_V)])
    m = 0.3 * np.arange(1, 17.0) / np.arange(1, 17.0).sum()
    prof = DepartureProfile(-4.0, 0.5, m[None, None, :] / 0.5)
    values = np.full((1, 1, 33), np.nan)
    excess = np.maximum(np.maximum(5 - np.arange(16), np.arange(16) - 6), 0)
    values[0, 0, 1::2] = 2.0 + 1e-3 * excess ** 2
    costs = solvers.CostProfile(np.linspace(-4.0, 4.0, 33), values)
    new = solvers._swap_step(net, prof, costs, 1e9, np.inf)
    theta = (m[5] + m[6] - 0.3) / 2
    want = np.zeros(16)
    want[5:7] = m[5:7] - theta
    assert np.allclose(new.rates[0, 0] * new.bin_width, want, rtol=1e-15, atol=0.0)


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
