"""Topology, cost functions, path enumeration, and a-priori solver bounds."""
import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from kinwave import (ArcDescriptor, ConfigurationError, CostFunction, FluxDescriptor,
                     GroupDescriptor, Network, SolverBounds, compute_bounds,
                     enumerate_paths, max_travel_time, validate_assumptions)
from kinwave.network import scan_window

from helpers import random_scenario
from oracles import (affine_deriv, affine_value, cost_mean_by_quad, count_simple_paths,
                     linear_bracket_window, linear_scan_window)

TRI = FluxDescriptor.triangular(1.0, 1.0, 1.0)
GS = FluxDescriptor.greenshields(1.0, 1.0)
NAN, INF = float("nan"), float("inf")


def simple_group(size=0.1, origin="a", destination="b", psi=None):
    return GroupDescriptor(
        size, origin, destination,
        CostFunction.affine(0.0, -1.0),
        psi or CostFunction.quadratic(0.0, 1.0, 0.2),
    )


def single_arc_network(flux=TRI, length=1.0, size=0.1, psi=None):
    return Network(
        ["a", "b"], [ArcDescriptor("a", "b", length, flux)],
        [simple_group(size, psi=psi)],
    )


class TestCostFunction:
    def test_affine(self):
        c = CostFunction.affine(1.0, -2.0)
        assert c.value(3.0) == pytest.approx(-5.0)
        assert c.deriv(3.0) == pytest.approx(-2.0)

    @settings(max_examples=60, deadline=None)
    @given(a=st.floats(-1e6, 1e6), b=st.floats(-1e6, 1e6),
           ts=st.lists(st.floats(-1e3, 1e3), max_size=8))
    def test_affine_is_the_quadratic_with_zero_c(self, a, b, ts):
        affine, quadratic = CostFunction.affine(a, b), CostFunction.quadratic(a, b, 0.0)
        t = np.array([-2.5, 0.0, 3.0] + ts)
        for method, old in (("value", affine_value), ("deriv", affine_deriv)):
            new, quad = getattr(affine, method), getattr(quadratic, method)
            bits = np.asarray(new(t)).view(np.int64)
            assert np.array_equal(bits, np.asarray(quad(t)).view(np.int64))
            assert np.array_equal(new(t), old(a, b, t))    # equal, up to the sign of a zero
            for s in t:
                assert np.float64(new(s)).view(np.int64) == np.float64(quad(s)).view(np.int64)

    def test_quadratic(self):
        c = CostFunction.quadratic(1.0, 0.0, 2.0)
        assert c.value(2.0) == pytest.approx(9.0)
        assert c.deriv(2.0) == pytest.approx(8.0)

    def test_vickrey_limits(self):
        c = CostFunction.vickrey(1.0, 0.5, 2.0, smoothing=1e-4)
        # far from the target the smoothing is invisible
        assert c.value(-9.0) == pytest.approx(-9.0 + 0.5 * 10.0, abs=1e-3)
        assert c.value(11.0) == pytest.approx(11.0 + 2.0 * 10.0, abs=1e-3)
        assert c.deriv(-9.0) == pytest.approx(1.0 - 0.5, abs=1e-3)
        assert c.deriv(11.0) == pytest.approx(1.0 + 2.0, abs=1e-3)

    def test_vickrey_penalty_slope_above_minus_one(self):
        c = CostFunction.vickrey(0.0, 0.9, 3.0, smoothing=0.05)
        ts = np.linspace(-10.0, 10.0, 2001)
        assert np.all(c.deriv(ts) - 1.0 > -1.0)

    def test_finite_difference_derivative(self):
        for c in (CostFunction.quadratic(0.3, -1.0, 0.7),
                  CostFunction.vickrey(1.0, 0.4, 0.9, 0.3)):
            ts = np.linspace(-3.0, 3.0, 25)
            h = 1e-6
            fd = (c.value(ts + h) - c.value(ts - h)) / (2 * h)
            assert np.max(np.abs(fd - c.deriv(ts))) < 1e-6

    @staticmethod
    def _assert_means_exact(cost, a, b):
        got = cost.mean(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
        for lo, hi, mean in zip(a, b, got):
            ref = cost_mean_by_quad(cost, lo, hi)
            assert abs(mean - ref) <= 1e-13 * max(1.0, abs(ref)), (cost, lo, hi, mean, ref)

    @pytest.mark.parametrize("cost", [
        CostFunction.affine(2.0, -0.7), CostFunction.quadratic(4.0, -3.0, 1.0),
        CostFunction.vickrey(1.0, 0.5, 2.0, 0.05), CostFunction.vickrey(-3.0, 0.9, 4.0, 0.25),
        CostFunction.vickrey(40.0, 0.999, 0.1, 1e-3),
    ], ids=["affine", "quadratic", "vickrey", "vickrey-wide", "vickrey-early-near-1"])
    def test_mean_matches_quadrature(self, cost):
        # segments 100 smoothings long on either side of the target and across
        # it, 1e-9 wide near |t| = 1e3, and 1e-12 wide across and at the target
        target = cost.params.get("target", 0.0)
        eps = cost.params.get("smoothing", 0.05)
        a = [target - 100 * eps, target, target - 50 * eps, target - 300 * eps,
             target + 7 * eps, -1e3 - 1e-9, 1e3, -987.654321, 1003.0625,
             target - 5e-13, target - 1e-12, target, target - 3e-13]
        b = [target, target + 100 * eps, target + 50 * eps, target - 200 * eps,
             target + 107 * eps, -1e3, 1e3 + 1e-9, -987.654321 + 1e-9, 1003.0625 + 1e-9,
             target + 5e-13, target, target + 1e-12, target + 7e-13]
        self._assert_means_exact(cost, a, b)

    def test_vickrey_mean_keeps_digits_at_early_rate_one(self):
        # early = 1 makes the cost target + (1 + late)*R(x): t and early*t
        # cancel exactly far before the target, so the mean, about 0.7 there,
        # keeps its last digits (m - early*(m - target) loses about 1e-13)
        cost = CostFunction.vickrey(0.7, 1.0, 0.4, 0.25)
        a = np.array([-1000.3, -987.654321, -750.25])
        b = a + np.array([1e-9, 1e-9, 2.0])
        for lo, hi, mean in zip(a, b, cost.mean(a, b)):
            assert mean == pytest.approx(cost_mean_by_quad(cost, lo, hi), rel=1e-15, abs=1e-15)

    @settings(max_examples=200, deadline=None)
    @given(st.data(), st.sampled_from(sorted(CostFunction.KINDS)),
           st.floats(-1e3, 1e3), st.floats(-12.0, 3.0))
    def test_mean_matches_quadrature_drawn(self, data, kind, lo, log_width):
        params = data.draw(st.fixed_dictionaries({
            "affine": {"a": st.floats(-50, 50), "b": st.floats(-50, 50)},
            "quadratic": {"a": st.floats(-50, 50), "b": st.floats(-50, 50),
                          "c": st.floats(-5, 5)},
            "vickrey": {"target": st.floats(-50, 50), "early_rate": st.floats(0, 10),
                        "late_rate": st.floats(0, 10), "smoothing": st.floats(1e-3, 10)},
        }[kind]))
        hi = lo + 10.0 ** log_width
        assume(hi > lo)
        self._assert_means_exact(CostFunction(kind, params), [lo], [hi])

    def test_rejects_unknown_kind(self):
        with pytest.raises(ConfigurationError):
            CostFunction("exp", {})

    @pytest.mark.parametrize("kind, params, match", [
        ("affine", {"a": 1.0}, "affine cost: missing parameter 'b'"),
        ("quadratic", {"a": 0.0, "b": 1.0}, "missing parameter 'c'"),
        ("vickrey", {"target": 1.0, "early_rate": 0.2},
         "vickrey cost: missing parameter 'late_rate'"),
        ("affine", {"a": 1.0, "b": 0.0, "c": 2.0}, "affine cost: unknown parameter 'c'"),
        ("vickrey", {"target": 1.0, "early_rate": 0.2, "late_rate": 0.4, "eps": 0.1},
         "unknown parameter 'eps'"),
    ], ids=["affine-missing", "quadratic-missing", "vickrey-missing", "affine-unknown",
            "vickrey-unknown"])
    def test_parameters_checked_against_kinds(self, kind, params, match):
        with pytest.raises(ConfigurationError, match=match):
            CostFunction(kind, params)

    def test_vickrey_smoothing_default(self):
        default = CostFunction.KINDS["vickrey"]["smoothing"]
        built = CostFunction("vickrey", {"target": 1.0, "early_rate": 0.2, "late_rate": 0.4})
        assert built.params["smoothing"] == default
        assert CostFunction.vickrey(1.0, 0.2, 0.4).params == built.params
        assert list(built.params) == list(CostFunction.KINDS["vickrey"])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_vickrey_smoothing_whose_square_underflows(self):
        # the formulas read smoothing**2: at 1e-300 it is 0, and the
        # derivative at the target was 0/0
        with pytest.raises(ConfigurationError, match="smoothing >= 1e-150"):
            CostFunction.vickrey(1.0, 0.2, 0.4, smoothing=1e-300)
        c = CostFunction.vickrey(1.0, 0.2, 0.4, smoothing=1e-150)
        assert c.deriv(1.0) == pytest.approx(1.1)
        assert np.isfinite(c.mean(np.array([0.0, 0.5]), np.array([1.0, 2.0]))).all()

    @pytest.mark.parametrize("make", [
        lambda: CostFunction.affine(NAN, -1.0),
        lambda: CostFunction.quadratic(0.0, 1.0, INF),
        lambda: CostFunction.vickrey(1.0, NAN, 0.4),
        lambda: CostFunction.vickrey(NAN, 0.2, 0.4),
        lambda: CostFunction.vickrey(1.0, 0.2, 0.4, smoothing=INF),
    ], ids=["affine-nan", "quadratic-inf", "vickrey-rate-nan", "vickrey-target-nan",
            "vickrey-smoothing-inf"])
    def test_rejects_non_finite_parameters(self, make):
        with pytest.raises(ConfigurationError):
            make()


class TestNetworkConstruction:
    def test_duplicate_arc(self):
        arcs = [ArcDescriptor("a", "b", 1.0, TRI), ArcDescriptor("a", "b", 2.0, TRI)]
        with pytest.raises(ConfigurationError):
            Network(["a", "b"], arcs, [simple_group()])

    def test_unknown_node(self):
        with pytest.raises(ConfigurationError):
            Network(["a"], [ArcDescriptor("a", "z", 1.0, TRI)], [])

    def test_group_without_path(self):
        with pytest.raises(ConfigurationError):
            Network(["a", "b"], [ArcDescriptor("b", "a", 1.0, TRI)], [simple_group()])

    def test_same_origin_destination(self):
        with pytest.raises(ConfigurationError):
            simple_group(origin="a", destination="a")

    @pytest.mark.parametrize("size", [NAN, INF])
    def test_group_rejects_non_finite_size(self, size):
        with pytest.raises(ConfigurationError):
            simple_group(size=size)

    @pytest.mark.parametrize("dt", [0.0, -1e-3, NAN, INF])
    def test_rejects_a_grid_step_not_positive_and_finite(self, dt):
        arcs = [ArcDescriptor("a", "b", 1.0, TRI)]
        assert Network(["a", "b"], arcs, [simple_group()]).dt == 1e-3
        with pytest.raises(ConfigurationError, match="dt must be positive and finite"):
            Network(["a", "b"], arcs, [simple_group()], dt=dt)


@pytest.mark.parametrize("field", ["t_max", "t0", "kappa", "horizon", "delta_min"])
@pytest.mark.parametrize("bad", [NAN, INF])
def test_solver_bounds_reject_non_finite(field, bad):
    values = {"t_max": 1.0, "t0": 1.0, "kappa": 1.0, "horizon": 2.0, "delta_min": 1.0}
    SolverBounds(**values)
    with pytest.raises(ConfigurationError):
        SolverBounds(**dict(values, **{field: bad}))


class TestEnumeratePaths:
    def test_single_arc(self):
        net = single_arc_network()
        assert len(net.paths) == 1
        assert net.paths[0].free_flow_time == pytest.approx(1.0)

    def test_diamond(self):
        arcs = [
            ArcDescriptor("1", "2", 1.0, TRI), ArcDescriptor("1", "3", 1.0, TRI),
            ArcDescriptor("2", "4", 1.0, TRI), ArcDescriptor("3", "4", 1.0, TRI),
        ]
        net = Network(["1", "2", "3", "4"], arcs,
                      [simple_group(origin="1", destination="4")])
        assert len(net.paths) == 2
        assert [p.nodes for p in net.paths] == [("1", "2", "4"), ("1", "3", "4")]

    def test_complete_graph_on_four_nodes(self):
        nodes = ["1", "2", "3", "4"]
        edges = [(a, b) for a, b in itertools.permutations(nodes, 2)]
        arcs = [ArcDescriptor(a, b, 1.0, TRI) for a, b in edges]
        net = Network(nodes, arcs, [simple_group(origin="1", destination="4")])
        assert len(net.paths) == count_simple_paths(edges, "1", "4") == 5

    def test_no_repeated_nodes(self):
        nodes = ["1", "2", "3", "4", "5"]
        edges = [(a, b) for a, b in itertools.permutations(nodes, 2)]
        arcs = [ArcDescriptor(a, b, 1.0, TRI) for a, b in edges]
        net = Network(nodes, arcs, [simple_group(origin="1", destination="5")])
        for p in net.paths:
            assert len(set(p.nodes)) == len(p.nodes)
        assert len(net.paths) == count_simple_paths(edges, "1", "5")

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_order_of_arcs_and_groups_leaves_paths_unchanged(self, seed):
        rng = np.random.default_rng(seed)
        net = random_scenario(rng, max_nodes=7, max_groups=4)[0]
        shuffled = Network(net.nodes, list(rng.permutation(net.arcs)),
                           list(rng.permutation(net.groups)))

        def listing(network):
            return [(p.nodes, [id(a) for a in p.arcs]) for p in network.paths]

        assert listing(shuffled) == listing(net)


class TestCells:
    """``Network.cells`` and ``viable`` list the (group, path) pairs that
    the loader and the solvers iterate; their order fixes every sum over them."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_cells_are_the_nested_loop_over_groups(self, seed):
        rng = np.random.default_rng(seed)
        net = random_scenario(rng, max_groups=4)[0]
        # groups out of OD order, so a later group can own earlier paths
        net = Network(net.nodes, net.arcs, list(rng.permutation(net.groups)))
        assert net.cells == tuple(
            (k, p) for k in range(len(net.groups)) for p in net.paths_for_group(k))
        want = np.zeros((len(net.groups), len(net.paths)), dtype=bool)
        for k, p in net.cells:
            want[k, p] = True
        assert np.array_equal(net.viable, want)
        with pytest.raises(ValueError):
            net.viable[0, 0] = not net.viable[0, 0]

    def test_complete_graph_with_two_groups(self):
        nodes = ["1", "2", "3", "4"]
        arcs = [ArcDescriptor(a, b, 1.0, TRI) for a, b in itertools.permutations(nodes, 2)]
        net = Network(nodes, arcs, [simple_group(origin="3", destination="1"),
                                    simple_group(origin="1", destination="4")])
        first = [p.nodes for p in net.paths[:5]]
        assert first == sorted(first) and all(n[0] == "1" for n in first)
        assert net.cells == tuple([(0, p) for p in range(5, 10)] + [(1, p) for p in range(5)])
        assert net.viable.sum(axis=1).tolist() == [5, 5]


class TestMaxTravelTime:
    def test_single_greenshields_arc(self):
        net = single_arc_network(flux=GS, size=0.25)
        # queueing G/F_max = 1, driving L/v(rho_star) = 2
        assert max_travel_time(net.paths[0], 0.25) == pytest.approx(3.0)

    def test_zero_demand(self):
        net = single_arc_network(flux=GS)
        assert max_travel_time(net.paths[0], 0.0) == pytest.approx(2.0)

    def test_two_arc_additivity(self):
        arcs = [ArcDescriptor("a", "m", 1.0, GS), ArcDescriptor("m", "b", 1.0, GS)]
        net = Network(["a", "m", "b"], arcs, [simple_group(size=0.25)])
        assert max_travel_time(net.paths[0], 0.25) == pytest.approx(6.0)


class TestBounds:
    def test_window_scan_against_dense_oracle(self):
        # symmetric quadratic arrival cost with a known coercive structure
        net = single_arc_network(flux=GS, size=0.1,
                                 psi=CostFunction.quadratic(4.0, -3.0, 1.0))
        t_max = max_travel_time(net.paths[0], 0.1)
        t0 = scan_window(net, t_max)
        g = net.groups[0]
        rhs = g.departure_cost.value(0.0) + g.arrival_cost.value(t_max)
        # oracle: dense scan for the smallest window with the exclusion property
        grid = np.arange(0.0, t0 + 5.0, 1e-3)
        comb = np.minimum(g.combined_cost(grid), g.combined_cost(-grid))
        viable = grid[comb <= rhs]
        t0_star = float(viable.max()) if len(viable) else 0.0
        assert t0 > t0_star
        assert t0 <= t0_star + 0.5 + 1e-9  # scan resolution
        assert g.combined_cost(t0) > rhs and g.combined_cost(-t0) > rhs

    def test_kappa_ratio(self):
        net = single_arc_network(flux=GS, size=0.1,
                                 psi=CostFunction.quadratic(0.0, 1.0, 0.05))
        b = compute_bounds(net)
        grid = np.linspace(-b.t0 - b.t_max, b.t0 + b.t_max, 1001)
        g = net.groups[0]
        phi_max = np.max(np.abs(g.departure_cost.deriv(grid)))
        psi_min = np.min(g.arrival_cost.deriv(grid))
        assert b.kappa == pytest.approx(phi_max * net.f_max / psi_min, rel=1e-12)
        assert b.horizon == pytest.approx(b.t0 + 0.1 / b.kappa, rel=1e-12)
        assert b.delta_min == pytest.approx(1.0)

    @settings(max_examples=300, deadline=None)
    @given(st.data(), st.sampled_from(sorted(CostFunction.KINDS)),
           st.floats(-1e3, 1e3), st.floats(1e-3, 2e3))
    def test_derivative_extremes_at_window_ends(self, data, kind, lo, width):
        # compute_bounds and validate_assumptions read each cost derivative
        # at the window's two ends only: every kind's derivative is monotone
        params = data.draw(st.fixed_dictionaries({
            "affine": {"a": st.floats(-50, 50), "b": st.floats(-50, 50)},
            "quadratic": {"a": st.floats(-50, 50), "b": st.floats(-50, 50),
                          "c": st.floats(-5, 5)},
            "vickrey": {"target": st.floats(-50, 50), "early_rate": st.floats(0, 10),
                        "late_rate": st.floats(0, 10), "smoothing": st.floats(1e-3, 10)},
        }[kind]))
        cost = CostFunction(kind, params)
        d_ends = cost.deriv(np.array([lo, lo + width]))
        d_grid = cost.deriv(np.linspace(lo, lo + width, 10**4))
        # a few ulps of the derivative's largest term
        scale = 1.0 + np.max(np.abs(d_grid)) + params.get("early_rate", 0.0) + \
            params.get("late_rate", 0.0)
        tol = 4 * np.spacing(scale)
        assert np.max(d_ends) >= np.max(d_grid) - tol
        assert np.min(d_ends) <= np.min(d_grid) + tol

    def test_kappa_invariant_under_cost_offsets(self):
        psi_a = CostFunction.quadratic(0.0, 1.0, 0.05)
        psi_b = CostFunction.quadratic(7.0, 1.0, 0.05)
        ka = compute_bounds(single_arc_network(flux=GS, psi=psi_a)).kappa
        kb = compute_bounds(single_arc_network(flux=GS, psi=psi_b)).kappa
        assert ka == pytest.approx(kb, rel=1e-9)

    def test_rejects_nonmonotone_arrival_cost(self):
        # arrival cost decreasing somewhere on the working window
        net = single_arc_network(psi=CostFunction.quadratic(4.0, -3.0, 1.0))
        with pytest.raises(ConfigurationError):
            compute_bounds(net)

    def test_noncoercive_costs_error(self):
        net = single_arc_network(psi=CostFunction.affine(0.0, 1.0))
        with pytest.raises(ConfigurationError):
            scan_window(net, 1.0)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(["affine", "quadratic", "vickrey"]),
                              st.floats(-3.0, 3.0), st.floats(0.0, 2.0),
                              st.floats(0.0, 2.0), st.floats(0.01, 1.0)),
                    min_size=1, max_size=3),
           st.floats(0.1, 5.0))
    def test_scan_matches_linear_oracle(self, specs, t_max):
        # convex combined costs: affine departure cost plus any arrival cost
        # kind with a nonnegative curvature; slopes bounded away from zero so
        # the linear oracle stays short.  An affine group has no interior
        # minimum, so both searches must reject it.
        groups = []
        for kind, a, b, c, eps in specs:
            psi = {"affine": lambda: CostFunction.affine(a, 1.1 + b),
                   "quadratic": lambda: CostFunction.quadratic(a, b, 0.05 + c),
                   "vickrey": lambda: CostFunction.vickrey(a, 0.1 + 0.4 * c, 0.2 + b,
                                                           eps)}[kind]()
            groups.append(GroupDescriptor(0.1, "a", "b", CostFunction.affine(0.0, -1.0),
                                          psi))
        net = Network(["a", "b"], [ArcDescriptor("a", "b", 1.0, TRI)], groups)
        t_init = linear_bracket_window(net.groups, cap=4000)
        if t_init is None:
            with pytest.raises(ConfigurationError):
                scan_window(net, t_max)
            return
        expected = linear_scan_window(net.groups, t_max, t_init, cap=4000)
        assert expected is not None
        assert scan_window(net, t_max) == expected

    def test_scan_slow_growth(self):
        # a late penalty of 1e-5 per unit puts t0 about 1.2e5 out, some 4.8e5
        # grid steps, which the search covers in a few dozen tests; at 1e-7
        # t0 would lie past the grid's last point
        def net(late):
            return single_arc_network(psi=CostFunction.vickrey(1.0, 0.2, late, 0.25))
        t_max = max_travel_time(net(1e-5).paths[0], 0.1)
        assert scan_window(net(1e-5), t_max) == 121203.0
        with pytest.raises(ConfigurationError, match="coercivity"):
            scan_window(net(1e-7), t_max)

    def test_rejects_flat_combined_cost(self):
        # -t + (c + t) is constant, so the combined derivative is exactly 0 at
        # both ends of every scan step; with this c its values carry rounding
        # noise (a least value at t = 129.5), which no scan may take for a minimum
        net = single_arc_network(psi=CostFunction.affine(1.5451834406094775, 1.0))
        with pytest.raises(ConfigurationError, match="group 0 combined cost is flat"):
            compute_bounds(net)

    @pytest.mark.parametrize("psi, reason", [
        (CostFunction.affine(0.5, 1.0), "group 1 combined cost is flat"),
        (CostFunction.affine(0.0, 2.0), "could not bracket group 1's cost minimum"),
        (CostFunction.vickrey(1.0, 0.2, 1e-7, 0.25), "group 1 combined cost does not grow"),
    ], ids=["flat", "unbracketed", "no-growth"])
    def test_cap_failure_names_its_cause(self, psi, reason):
        # beside a well-posed group 0, group 1 departs at cost -t and arrives
        # at cost psi: a constant sum, the sum t with no minimum, and a late
        # penalty too small to pass the crude cost within 0.25e6
        groups = [simple_group(), GroupDescriptor(0.1, "a", "b",
                                                  CostFunction.affine(0.0, -1.0), psi)]
        net = Network(["a", "b"], [ArcDescriptor("a", "b", 1.0, TRI)], groups)
        with pytest.raises(ConfigurationError, match=reason):
            scan_window(net, 1.0)

    def test_rejects_nonconvex_combined_cost(self):
        # |t| - 0.1 t^2 rises above the crude cost only on a short stretch
        # and then falls without bound: no equilibrium window exists
        net = Network(["a", "b"], [ArcDescriptor("a", "b", 1.0, TRI)],
                      [GroupDescriptor(0.1, "a", "b", CostFunction.quadratic(0.0, -1.0, -0.1),
                                       CostFunction.vickrey(0.0, 1.0, 1.0, 0.05))])
        with pytest.raises(ConfigurationError, match="not convex"):
            scan_window(net, 1.2)


class TestValidateAssumptions:
    def test_passing_setup(self):
        net = single_arc_network(flux=GS)
        report = validate_assumptions(net, (-2.0, 2.0))
        assert report["passed"]

    def test_cubic_arrival_cost_fails(self):
        net = single_arc_network(psi=CostFunction.quadratic(0.0, 0.0, 1.0))
        # psi'(t) = 2t vanishes at 0 and is negative below
        report = validate_assumptions(net, (-1.0, 1.0))
        assert not report["passed"]
        failed = [i["name"] for i in report["items"] if not i["passed"]]
        assert any("arrival cost increasing" in n for n in failed)

    def test_vickrey_items_match_affine(self):
        # a Vickrey arrival cost is checked by the same items as any other
        # kind: "arrival cost increasing" already covers its penalty slope
        names = [
            [i["name"] for i in validate_assumptions(single_arc_network(psi=psi),
                                                     (-2.0, 2.0))["items"]]
            for psi in (CostFunction.affine(0.0, 1.0),
                        CostFunction.vickrey(1.0, 0.4, 0.9, 0.3))
        ]
        assert names[0] == names[1]

    def test_increasing_departure_cost_fails(self):
        net = Network(
            ["a", "b"], [ArcDescriptor("a", "b", 1.0, TRI)],
            [GroupDescriptor(0.1, "a", "b", CostFunction.affine(0.0, 1.0),
                             CostFunction.quadratic(0.0, 1.0, 0.2))],
        )
        report = validate_assumptions(net, (-1.0, 1.0))
        assert not report["passed"]
