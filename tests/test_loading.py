"""Network loading: propagation, FIFO splitting, conservation, per-driver maps."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kinwave import (AdmissibilityError, ArcDescriptor, CostFunction, CumulativeCurve,
                     DepartureProfile, DomainError, FluxDescriptor, GroupDescriptor,
                     LoadingError, Network, arrival_time_path, modulus_of_continuity,
                     network_load, per_driver_times, total_cost)
from kinwave import curves, lax_hopf_exit, loading
from kinwave.loading import _split_exit

from helpers import random_flux, random_scenario
from oracles import _window_split_exit, brute_lax_hopf, window_network_load

TRI = FluxDescriptor.triangular(1.0, 1.0, 1.0)
GS = FluxDescriptor.greenshields(1.0, 1.0)


def make_network(arcs_spec, groups_spec):
    nodes = sorted({n for a in arcs_spec for n in (a[0], a[1])})
    arcs = [ArcDescriptor(a, b, L, flux) for a, b, L, flux in arcs_spec]
    groups = [
        GroupDescriptor(size, o, d, CostFunction.affine(0.0, -1.0),
                        CostFunction.quadratic(0.0, 1.0, 0.2))
        for size, o, d in groups_spec
    ]
    return Network(nodes, arcs, groups)


def single_arc(flux=TRI, size=0.16):
    return make_network([("a", "b", 1.0, flux)], [(size, "a", "b")])


class TestProfileValidation:
    def test_negative_rates(self):
        net = single_arc()
        with pytest.raises(AdmissibilityError):
            DepartureProfile(0.0, 1.0, -np.ones((1, 1, 2))).validate(net)

    def test_shape_mismatch(self):
        net = single_arc()
        with pytest.raises(AdmissibilityError):
            DepartureProfile(0.0, 1.0, np.zeros((2, 1, 2))).validate(net)

    def test_mass_mismatch(self):
        net = single_arc(size=0.5)
        prof = DepartureProfile(0.0, 1.0, 0.1 * np.ones((1, 1, 2)))
        with pytest.raises(AdmissibilityError):
            prof.validate(net)
        prof.validate(net, check_mass=False)  # probe mode skips the balance

    @pytest.mark.parametrize("check_mass", [True, False])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_nonfinite_rates(self, bad, check_mass):
        # NaN compares False with everything, so the sign, viability and mass
        # checks all let it through; only an explicit finiteness check stops it
        net = single_arc(size=0.1)
        prof = DepartureProfile(0.0, 1.0, np.array([[[0.1, bad]]]))
        with pytest.raises(AdmissibilityError, match="finite"):
            prof.validate(net, check_mass=check_mass)

    def test_rate_cap(self):
        net = single_arc(size=1.0)
        prof = DepartureProfile(0.0, 1.0, np.full((1, 1, 1), 1.0))
        with pytest.raises(AdmissibilityError):
            prof.validate(net, rate_cap=0.5)

    def test_flow_on_nonconnecting_path(self):
        net = make_network(
            [("a", "b", 1.0, TRI), ("b", "c", 1.0, TRI)],
            [(0.1, "a", "b"), (0.1, "b", "c")],
        )
        rates = np.zeros((2, len(net.paths), 1))
        # both groups dump their mass on group 0's path
        p0 = net.paths_for_group(0)[0]
        rates[0, p0, 0] = 0.1
        rates[1, p0, 0] = 0.1
        with pytest.raises(AdmissibilityError):
            DepartureProfile(0.0, 1.0, rates).validate(net)


class TestNetworkLoad:
    def test_zero_profile(self):
        net = single_arc(size=0.0)
        prof = DepartureProfile(0.0, 1.0, np.zeros((1, 1, 2)))
        res = network_load(net, prof)
        assert res.arrival_total(0) == 0.0
        res.check_invariants()

    def test_zero_profile_gives_every_cell_its_curves(self):
        net = make_network([("a", "b", 1.0, TRI), ("b", "c", 1.0, TRI), ("a", "c", 1.0, TRI)],
                           [(0.0, "a", "c"), (0.0, "b", "c")])
        prof = DepartureProfile(-1.0, 0.5, np.zeros((2, len(net.paths), 3)))
        res = network_load(net, prof)
        assert len(net.cells) == 3
        assert list(res.departures) == list(res.arrivals) == list(net.cells)
        for cell in net.cells:
            for curve in (res.departures[cell], res.arrivals[cell]):
                assert curve.total == 0.0 and curve.t[0] == -1.0
        assert res.end_time == -1.0 and res.windows == 0
        assert total_cost(net, prof, loading=res) == 0.0

    def test_steady_state_arrivals(self):
        # sub-capacity constant inflow: post-transient drivers ride the
        # kinematic-wave steady state with travel time L*g(u)/u = 1.25
        net = single_arc(flux=GS, size=0.16)
        prof = DepartureProfile(0.0, 1.0, np.full((1, 1, 1), 0.16))
        res = network_load(net, prof, dt=1e-3)
        res.check_invariants()
        assert arrival_time_path(res, net.paths[0], 1.0) == pytest.approx(
            2.25, abs=2e-3
        )
        # the first drivers beat the steady shift (startup fan)
        assert arrival_time_path(res, net.paths[0], 0.0) < 1.25 - 0.05
        # arrival curve agrees with the brute-force variational oracle
        entry = res.arc_flows[("a", "b")].entry
        exit_c = res.arc_flows[("a", "b")].exit
        for t in (1.2, 1.8, 2.2):
            oracle = brute_lax_hopf(entry.t, entry.v, GS.conjugate, 1.0, t)
            assert exit_c(t) == pytest.approx(oracle, abs=2e-3)

    def test_short_grid_exit_is_an_error(self, monkeypatch):
        # a grid exit that never drains must stop the loading with an error
        # naming the arc, not return short arrival curves
        def zeros(ts, taus, U, kernel):
            return np.zeros(len(ts)), np.zeros(len(ts), dtype=int)

        monkeypatch.setattr(curves, "_monge_row_minima", zeros)
        net = single_arc(flux=GS, size=0.16)
        prof = DepartureProfile(0.0, 1.0, np.full((1, 1, 1), 0.16))
        with pytest.raises(LoadingError, match=r"arc \('a', 'b'\): the exit carries 0 of "
                                               r"the entry's 0.16 vehicles"):
            network_load(net, prof, dt=1e-2)

    def test_short_arrivals_name_the_path(self, monkeypatch):
        # arrivals that fall short of the departures after the last sweep
        # stop the loading with an error naming the starved path
        def half_exit(entry, arc, dt):
            return CumulativeCurve([entry.t[0] + arc.mu, entry.t[-1] + arc.mu],
                                   [0.0, 0.5 * entry.total])

        monkeypatch.setattr(loading, "lax_hopf_exit", half_exit)
        prof = DepartureProfile(0.0, 1.0, np.full((1, 1, 1), 0.16))
        with pytest.raises(LoadingError, match=r"group 0 on path 0 Path\(a->b\)"):
            network_load(single_arc(), prof)

    def test_two_group_merge_conserves_per_group(self):
        net = make_network(
            [("a", "b", 1.0, TRI), ("b", "c", 1.0, TRI)],
            [(0.3, "a", "c"), (0.2, "b", "c")],
        )
        rates = np.zeros((2, len(net.paths), 2))
        rates[0, net.paths_for_group(0)[0]] = [0.2, 0.4]
        rates[1, net.paths_for_group(1)[0]] = [0.3, 0.1]
        prof = DepartureProfile(0.0, 0.5, rates)
        res = network_load(net, prof)
        res.check_invariants()
        assert res.arrival_total(0) == pytest.approx(0.3, abs=1e-9)
        assert res.arrival_total(1) == pytest.approx(0.2, abs=1e-9)

    def test_overloaded_shared_arc_slope_at_capacity(self):
        net = make_network(
            [("a", "b", 1.0, TRI), ("b", "c", 1.0, TRI)],
            [(0.8, "a", "c"), (0.8, "b", "c")],
        )
        rates = np.zeros((2, len(net.paths), 1))
        rates[0, net.paths_for_group(0)[0]] = 0.8
        rates[1, net.paths_for_group(1)[0]] = 0.8
        res = network_load(net, DepartureProfile(0.0, 1.0, rates))
        res.check_invariants()
        exit_c = res.arc_flows[("b", "c")].exit
        assert exit_c.max_slope <= 0.5 + 1e-9
        # the queue drains exactly at capacity for a while
        assert np.max(exit_c.slopes) == pytest.approx(0.5, abs=1e-9)

    def test_fifo_split_shares(self):
        # two groups entering one arc: exit shares at time t equal entry
        # shares at the matched entry time
        net = make_network([("a", "b", 1.0, TRI)],
                           [(0.6, "a", "b"), (0.3, "a", "b")])
        rates = np.zeros((2, 1, 2))
        rates[0, 0] = [0.8, 0.4]
        rates[1, 0] = [0.2, 0.4]
        res = network_load(net, DepartureProfile(0.0, 0.5, rates))
        comp = res.arc_flows[("a", "b")]
        for t in np.linspace(1.05, 3.0, 12):
            tau = comp.entry.inverse(min(comp.exit(t), comp.entry.total))
            for k in (0, 1):
                part = res.comp_exit[(k, 0, ("a", "b"))]
                assert part(t) == pytest.approx(
                    res.departures[(k, 0)](tau), abs=1e-9
                )

    def test_random_scenarios_invariants(self):
        rng = np.random.default_rng(42)
        for _ in range(6):
            net, prof = random_scenario(rng)
            res = network_load(net, prof)
            res.check_invariants(tol=1e-6)

    def test_perturbation_continuity(self):
        # shrinking a one-bin perturbation shrinks every arrival-time change
        net = single_arc(flux=TRI, size=0.6)
        base = DepartureProfile(0.0, 0.5, np.array([[[0.4, 0.8]]]))
        res0 = network_load(net, base)
        ts = np.linspace(0.0, 1.0, 21)
        a0 = arrival_time_path(res0, net.paths[0], ts)
        sups = []
        for delta in (1e-2, 1e-3):
            rates = base.rates.copy()
            rates[0, 0, 1] += delta / 0.5
            res = network_load(
                net, DepartureProfile(0.0, 0.5, rates), check_mass=False
            )
            sups.append(np.max(np.abs(arrival_time_path(res, net.paths[0], ts) - a0)))
        assert sups[1] <= sups[0] + 1e-9
        phi = modulus_of_continuity(net.arcs[0], M=2.0, G=1.0)
        assert sups[0] <= phi(1e-2 / 0.5) + 1e-6


def assert_same_loading(res, ref):
    """Every arc, component and arrival curve of ``res`` equals ``ref``'s as a
    piecewise-linear function, to 1e-12 * max(1, G) on their breakpoints."""
    tol = 1e-12 * max(1.0, res.network.total_demand)
    pairs = [(res.arrivals, ref.arrivals), (res.comp_entry, ref.comp_entry),
             (res.comp_exit, ref.comp_exit)]
    pairs += [({k: getattr(c, side) for k, c in res.arc_flows.items()},
               {k: getattr(c, side) for k, c in ref.arc_flows.items()})
              for side in ("entry", "exit")]
    for got, want in pairs:
        assert got.keys() == want.keys()
        for key, curve in got.items():
            ts = np.union1d(curve.t, want[key].t)
            assert np.max(np.abs(curve(ts) - want[key](ts))) <= tol, key


class TestSweepsMatchWindows:
    """The feeder-order sweeps against the fixed-window recursion they replace."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_random_scenarios(self, seed):
        rng = np.random.default_rng(seed)
        net, prof = random_scenario(rng, allow_greenshields=True)
        # list the arcs out of path order, so the sweep has to find that order
        net = Network(net.nodes, list(rng.permutation(net.arcs)), net.groups)
        res = network_load(net, prof, dt=1e-2)
        assert res.windows == 1     # the chain-based scenarios have acyclic feeders
        drains = [c.exit.inverse(c.exit.total) for c in res.arc_flows.values()]
        assert res.end_time == pytest.approx(max(drains), rel=1e-12)
        assert_same_loading(res, window_network_load(net, prof, dt=1e-2))

    def test_cyclic_feeders(self):
        # a ring a->b->c->a whose groups each ride two arcs: every arc feeds
        # the next, so no sweep order loads the ring in one pass
        net = make_network(
            [("a", "b", 1.0, TRI), ("b", "c", 1.0, TRI), ("c", "a", 1.0, TRI)],
            [(1.6, "a", "c"), (1.6, "b", "a"), (1.6, "c", "b")],
        )
        rates = np.zeros((3, len(net.paths), 4))
        for k in range(3):
            rates[k, net.paths_for_group(k)[0]] = 0.8
        prof = DepartureProfile(0.0, 0.5, rates)
        res, ref = network_load(net, prof), window_network_load(net, prof)
        res.check_invariants()
        assert ref.windows == 8
        assert 1 < res.windows < ref.windows
        assert_same_loading(res, ref)

    def test_cyclic_feeders_with_a_final_spur(self):
        # the ring plus a group on a spur x->a that feeds no other arc: the
        # spur is exact for all time after the first sweep, and the later
        # sweeps load it again to the same curves
        net = make_network(
            [("a", "b", 1.0, TRI), ("b", "c", 1.0, TRI), ("c", "a", 1.0, TRI),
             ("x", "a", 1.0, TRI)],
            [(1.6, "a", "c"), (1.6, "b", "a"), (1.6, "c", "b"), (0.8, "x", "a")],
        )
        rates = np.zeros((4, len(net.paths), 4))
        for k in range(3):
            rates[k, net.paths_for_group(k)[0]] = 0.8
        rates[3, net.paths_for_group(3)[0], :2] = 0.8
        prof = DepartureProfile(0.0, 0.5, rates)
        res, ref = network_load(net, prof), window_network_load(net, prof)
        res.check_invariants()
        assert 1 < res.windows < ref.windows
        assert_same_loading(res, ref)


class TestLoneComponentSplit:
    """A lone component's share is the whole exit, cut where the window split cuts it."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.booleans())
    def test_matches_window_split(self, seed, finite):
        rng = np.random.default_rng(seed)
        arc = ArcDescriptor("a", "b", rng.uniform(0.3, 1.5), random_flux(rng, True))
        rates = rng.uniform(0.0, 2.0 * arc.flux.f_max, 4) * (rng.random(4) > 0.3)
        entry = CumulativeCurve.from_step_rates(np.linspace(0.0, 2.0, 5), rates)
        exit_c = lax_hopf_exit(entry, arc, dt=1e-2)
        drain = exit_c.inverse(exit_c.total)
        t_hi = rng.uniform(exit_c.t[0], drain) if finite else np.inf
        got = _split_exit(exit_c, entry, {"c": entry}, t_hi)["c"]
        # the window split reads t_hi as a time the exit reaches, so it gets the drain time
        want = _window_split_exit(exit_c, entry, {"c": entry}, min(t_hi, drain))["c"]
        ts = np.union1d(got.t, want.t)
        assert np.max(np.abs(got(ts) - want(ts))) <= 1e-12 * max(1.0, entry.total)
        assert got.t[-1] == min(t_hi, drain)
        assert got.t[-1] == pytest.approx(want.t[-1], abs=1e-12)


class TestArrivalTimePath:
    def test_free_flow_two_arcs(self):
        net = make_network(
            [("a", "b", 1.0, TRI), ("b", "c", 2.0, TRI)], [(0.0, "a", "c")]
        )
        prof = DepartureProfile(0.0, 1.0, np.zeros((1, len(net.paths), 1)))
        res = network_load(net, prof)
        assert arrival_time_path(res, net.paths[0], 0.5) == pytest.approx(3.5)

    def test_single_arc_matches_exit_time(self):
        net = single_arc(size=0.8)
        prof = DepartureProfile(0.0, 1.0, np.full((1, 1, 1), 0.8))
        res = network_load(net, prof)
        comp = res.arc_flows[("a", "b")]
        for t in np.linspace(0.0, 1.0, 7):
            assert arrival_time_path(res, net.paths[0], t) == pytest.approx(
                comp.exit_time(t), abs=1e-12
            )

    def test_monotone_in_departure(self):
        net = make_network(
            [("a", "b", 1.0, TRI), ("b", "c", 0.5, TRI)], [(1.0, "a", "c")]
        )
        prof = DepartureProfile(0.0, 0.5, np.full((1, 1, 4), 0.5))
        res = network_load(net, prof)
        ts = np.linspace(-0.5, 3.0, 141)
        arr = arrival_time_path(res, net.paths[0], ts)
        assert np.all(np.diff(arr) >= -1e-12)


class TestPerDriverTimes:
    def test_uniform_departures(self):
        net = single_arc(size=0.5)
        prof = DepartureProfile(0.0, 1.0, np.full((1, 1, 1), 0.5))
        res = network_load(net, prof)
        dep_inv, arr_inv = per_driver_times(res, 0, 0)
        assert dep_inv(0.25) == pytest.approx(0.5)

    def test_free_flow_shift(self):
        net = single_arc(size=0.1)
        prof = DepartureProfile(0.0, 1.0, np.full((1, 1, 1), 0.1))
        res = network_load(net, prof)
        dep_inv, arr_inv = per_driver_times(res, 0, 0)
        for beta in (0.0, 0.03, 0.09):
            assert arr_inv(beta) == pytest.approx(dep_inv(beta) + 1.0, abs=1e-9)

    def test_congested_consistency(self):
        net = single_arc(size=1.2)
        prof = DepartureProfile(0.0, 1.0, np.full((1, 1, 1), 1.2))
        res = network_load(net, prof)
        dep_inv, arr_inv = per_driver_times(res, 0, 0)
        betas = np.linspace(0.0, 1.2, 13)
        arr = arr_inv(betas)
        assert np.all(np.diff(arr) >= -1e-12)
        for beta in betas[1:-1]:
            assert arr_inv(beta) == pytest.approx(
                arrival_time_path(res, net.paths[0], dep_inv(beta)), abs=1e-9
            )

    def test_out_of_range(self):
        net = single_arc(size=0.5)
        prof = DepartureProfile(0.0, 1.0, np.full((1, 1, 1), 0.5))
        res = network_load(net, prof)
        dep_inv, _ = per_driver_times(res, 0, 0)
        with pytest.raises(DomainError):
            dep_inv(0.6)
