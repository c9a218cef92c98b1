"""Network loading: propagation, FIFO splitting, conservation, per-driver maps."""
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kinwave import (AdmissibilityError, ArcDescriptor, ConfigurationError, CostFunction,
                     CumulativeCurve, DepartureProfile, DomainError, FluxDescriptor,
                     GroupDescriptor, LoadingError, Network, arrival_time_path,
                     modulus_of_continuity, network_load, total_cost)
from kinwave import curves, lax_hopf_exit, loading
from kinwave.loading import _split_exit

from helpers import random_flux, random_scenario
from oracles import _window_split_exit, brute_lax_hopf, window_network_load

TRI = FluxDescriptor.triangular(1.0, 1.0, 1.0)
GS = FluxDescriptor.greenshields(1.0, 1.0)


def make_network(arcs_spec, groups_spec, dt=1e-3):
    nodes = sorted({n for a in arcs_spec for n in (a[0], a[1])})
    arcs = [ArcDescriptor(a, b, L, flux) for a, b, L, flux in arcs_spec]
    groups = [
        GroupDescriptor(size, o, d, CostFunction.affine(0.0, -1.0),
                        CostFunction.quadratic(0.0, 1.0, 0.2))
        for size, o, d in groups_spec
    ]
    return Network(nodes, arcs, groups, dt=dt)


def single_arc(flux=TRI, size=0.16, dt=1e-3):
    return make_network([("a", "b", 1.0, flux)], [(size, "a", "b")], dt=dt)


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

    @pytest.mark.parametrize("check_mass", [True, False])
    def test_tiny_flow_on_nonconnecting_path(self, check_mass):
        # 5e-10 on group 0's b->c path keeps its mass within tolerance, and
        # the loader would drop it: any positive rate there is an error
        net = make_network(
            [("a", "b", 1.0, TRI), ("b", "c", 1.0, TRI)],
            [(0.1, "a", "b"), (0.1, "b", "c")],
        )
        (p0,), (p1,) = net.paths_for_group(0), net.paths_for_group(1)
        rates = np.zeros((2, len(net.paths), 2))
        rates[0, p0, 0] = rates[1, p1, 0] = 0.1
        rates[0, p1, 1] = 5e-10
        with pytest.raises(AdmissibilityError,
                           match=f"group 0 assigns flow to non-connecting path {p1}"):
            DepartureProfile(0.0, 1.0, rates).validate(net, check_mass=check_mass)


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
        assert list(res.curves) == list(net.cells)
        for (curve,) in res.curves.values():    # the zero departures alone
            assert curve.total == 0.0 and curve.t[0] == -1.0
        assert res.end_time == -1.0 and res.windows == 0
        assert total_cost(net, prof, loading=res) == 0.0

    def test_steady_state_arrivals(self):
        # sub-capacity constant inflow: post-transient drivers ride the
        # kinematic-wave steady state with travel time L*g(u)/u = 1.25
        net = single_arc(flux=GS, size=0.16)
        prof = DepartureProfile(0.0, 1.0, np.full((1, 1, 1), 0.16))
        res = network_load(net, prof)
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

    def test_short_exit_is_an_error(self, monkeypatch):
        # an exit that never drains must stop the loading with an error
        # naming the arc, not return short arrival curves
        def zeros(entry, arc, dt):
            return entry.t + arc.mu, np.zeros(len(entry.t))

        monkeypatch.setattr(curves, "_exact_minplus", zeros)
        net = single_arc(flux=GS, size=0.16, dt=1e-2)
        prof = DepartureProfile(0.0, 1.0, np.full((1, 1, 1), 0.16))
        with pytest.raises(LoadingError, match=r"arc \('a', 'b'\): the exit carries 0 of "
                                               r"the entry's 0.16 vehicles"):
            network_load(net, prof)

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
                departures, part = res.curves[(k, 0)]
                assert part(t) == pytest.approx(departures(tau), abs=1e-9)

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


def cell_curves(loading):
    """Each cell's curves keyed by (k, p, index into the cell's record)."""
    return {(k, p, h): c for (k, p), record in loading.curves.items()
            for h, c in enumerate(record)}


def assert_same_loading(res, ref):
    """Every arc and cell curve of ``res`` equals ``ref``'s as a
    piecewise-linear function, to 1e-12 * max(1, G) on their breakpoints."""
    tol = 1e-12 * max(1.0, res.network.total_demand)
    pairs = [(cell_curves(res), cell_curves(ref))]
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
        net = Network(net.nodes, list(rng.permutation(net.arcs)), net.groups, dt=1e-2)
        res = network_load(net, prof)
        assert res.windows == 1     # the chain-based scenarios have acyclic feeders
        drains = [c.exit.inverse(c.exit.total) for c in res.arc_flows.values()]
        assert res.end_time == pytest.approx(max(drains), rel=1e-12)
        assert_same_loading(res, window_network_load(net, prof))

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


def assert_same_bits(res, ref):
    """Every curve of ``res`` has the same breakpoint bytes as ``ref``'s."""
    pairs = [(cell_curves(res), cell_curves(ref))]
    pairs += [({k: getattr(c, side) for k, c in res.arc_flows.items()},
               {k: getattr(c, side) for k, c in ref.arc_flows.items()})
              for side in ("entry", "exit")]
    for got, want in pairs:
        assert list(got) == list(want)
        for key, curve in got.items():
            assert curve.t.tobytes() == want[key].t.tobytes(), key
            assert curve.v.tobytes() == want[key].v.tobytes(), key
    assert (res.end_time, res.windows) == (ref.end_time, ref.windows)


class TestReuse:
    """``network_load(reuse=...)`` takes a departure curve from an earlier
    loading where its rate row and bin edges have the same bytes, and an arc
    whole where its components are the very curves the earlier loading
    split; it must load the same bits."""

    NET = make_network([("o", "a", 0.5, TRI), ("a", "m", 0.6, TRI), ("o", "b", 0.4, TRI),
                        ("b", "m", 0.7, TRI), ("m", "d", 0.5, TRI)], [(0.6, "o", "d")])

    @staticmethod
    def profiles():
        rates = np.zeros((1, 2, 3))
        rates[0, :, 1:] = 0.3
        base = DepartureProfile(-1.0, 0.5, rates)
        probe = rates.copy()
        probe[0, 0, 1] += 1e-5          # one cell of path o->a->m->d
        return base, DepartureProfile(-1.0, 0.5, probe)

    def test_matches_a_fresh_load(self):
        base, probe = self.profiles()
        assert [p.nodes for p in self.NET.paths] == [("o", "a", "m", "d"), ("o", "b", "m", "d")]
        old = network_load(self.NET, base)
        res = network_load(self.NET, probe, check_mass=False, reuse=old)
        assert_same_bits(res, network_load(self.NET, probe, check_mass=False))
        for key, comp in res.arc_flows.items():
            on_path = key in {a.key for a in self.NET.paths[0].arcs}
            assert (comp.exit is old.arc_flows[key].exit) is not on_path, key
        # reusing a loading of the same profile reuses every exit
        again = network_load(self.NET, base, reuse=old)
        assert_same_bits(again, old)
        assert all(c.exit is old.arc_flows[k].exit for k, c in again.arc_flows.items())

    def test_lends_what_did_not_change(self):
        base, probe = self.profiles()
        old = network_load(self.NET, base)
        again = network_load(self.NET, base, reuse=old)
        for cell, record in again.curves.items():
            assert all(c is o for c, o in zip(record, old.curves[cell], strict=True)), cell
        # the probe changes a bin of path 0, which shares only m->d with path 1
        res = network_load(self.NET, probe, check_mass=False, reuse=old)
        (dep0, *shares0), (dep1, ob, bm, md) = res.curves[(0, 0)], res.curves[(0, 1)]
        assert dep1 is old.curves[(0, 1)][0] and dep0 is not old.curves[(0, 0)][0]
        assert ob is old.curves[(0, 1)][1] and bm is old.curves[(0, 1)][2]
        assert md is not old.curves[(0, 1)][3]
        assert not any(c is o for c, o in zip(shares0, old.curves[(0, 0)][1:]))

    @pytest.mark.parametrize("start, width", [(-0.5, 0.5), (-1.0, 0.25)])
    def test_another_grid_gets_new_curves(self, start, width):
        base, _ = self.profiles()
        old = network_load(self.NET, base)
        moved = DepartureProfile(start, width, base.rates)
        res = network_load(self.NET, moved, check_mass=False, reuse=old)
        assert_same_bits(res, network_load(self.NET, moved, check_mass=False))
        for cell, record in res.curves.items():
            assert not any(c is o for c, o in zip(record, old.curves[cell])), cell

    def test_a_lent_arc_is_lent_whole(self, monkeypatch):
        base, probe = self.profiles()
        old = network_load(self.NET, base)
        calls = []

        def counted(name, f):
            return lambda *args, **kw: calls.append(name) or f(*args, **kw)

        monkeypatch.setattr(CumulativeCurve, "combine",
                            staticmethod(counted("combine", CumulativeCurve.combine)))
        monkeypatch.setattr(loading, "lax_hopf_exit", counted("exit", lax_hopf_exit))
        monkeypatch.setattr(loading, "_split_exit", counted("split", _split_exit))
        again = network_load(self.NET, base, reuse=old)
        assert calls == []
        assert all(c is old.arc_flows[key] for key, c in again.arc_flows.items())
        # the probe changes path 0 only: its 3 arcs are loaded anew, and
        # o->b and b->m are lent whole
        res = network_load(self.NET, probe, check_mass=False, reuse=old)
        assert calls == ["combine", "exit", "split"] * 3
        on_path = {a.key for a in self.NET.paths[0].arcs}
        for key, comp in res.arc_flows.items():
            assert (comp is old.arc_flows[key]) is (key not in on_path), key

    def test_an_equal_entry_of_other_components_is_split_again(self, monkeypatch):
        # two groups on one arc swap their rates: the entry has the same bytes,
        # but its components are other curves, so the exit is computed anew
        net = make_network([("a", "b", 1.0, TRI)], [(0.375, "a", "b"), (0.375, "a", "b")])
        base = DepartureProfile(0.0, 0.5, np.array([[[0.5, 0.25]], [[0.25, 0.5]]]))
        swap = DepartureProfile(0.0, 0.5, base.rates[::-1].copy())
        old = network_load(net, base)
        calls = []
        monkeypatch.setattr(loading, "lax_hopf_exit",
                            lambda e, arc, dt: calls.append(e) or lax_hopf_exit(e, arc, dt=dt))
        res = network_load(net, swap, reuse=old)
        key = net.arcs[0].key
        assert len(calls) == 1
        assert res.arc_flows[key].entry.v.tobytes() == old.arc_flows[key].entry.v.tobytes()
        assert res.arc_flows[key].exit is not old.arc_flows[key].exit
        assert_same_bits(res, network_load(net, swap))

    def test_components_of_equal_bytes_are_split_again(self, monkeypatch):
        net = single_arc()
        prof = DepartureProfile(0.0, 0.5, np.array([[[0.2, 0.12]]]))
        old = network_load(net, prof)
        key = net.arcs[0].key
        t_hi, comps = old.splits[key]
        old.splits[key] = (t_hi, {cell: CumulativeCurve(c.t.copy(), c.v.copy())
                                  for cell, c in comps.items()})
        calls = []
        monkeypatch.setattr(loading, "_split_exit",
                            lambda *args: calls.append(args) or _split_exit(*args))
        res = network_load(net, prof, reuse=old)
        assert len(calls) == 1
        assert res.arc_flows[key] is not old.arc_flows[key]
        assert_same_bits(res, network_load(net, prof))

    def test_shares_cut_at_another_time_are_split_again(self, monkeypatch):
        net = single_arc()
        prof = DepartureProfile(0.0, 0.5, np.array([[[0.2, 0.12]]]))
        old = network_load(net, prof)
        calls = []
        monkeypatch.setattr(loading, "_split_exit",
                            lambda *args: calls.append(args) or _split_exit(*args))
        network_load(net, prof, reuse=old)
        assert calls == []
        key = net.arcs[0].key
        t_hi, comps = old.splits[key]
        assert t_hi == np.inf
        old.splits[key] = (1e9, comps)
        network_load(net, prof, reuse=old)
        assert len(calls) == 1

    def test_cyclic_feeders(self):
        # on a ring every arc's entry is reloaded by the later sweeps, so a
        # lent share must be the one split from the very curves it is lent for
        net = make_network(
            [("a", "b", 1.0, TRI), ("b", "c", 1.0, TRI), ("c", "a", 1.0, TRI)],
            [(1.6, "a", "c"), (1.6, "b", "a"), (1.6, "c", "b")],
        )
        rates = np.zeros((3, len(net.paths), 4))
        for k in range(3):
            rates[k, net.paths_for_group(k)[0]] = 0.8
        old = network_load(net, DepartureProfile(0.0, 0.5, rates))
        assert old.windows > 1
        for k, p in net.cells:
            for b in range(4):
                probe = rates.copy()
                probe[k, p, b] += 1e-3
                prof = DepartureProfile(0.0, 0.5, probe)
                res = network_load(net, prof, check_mass=False, reuse=old)
                assert_same_bits(res, network_load(net, prof, check_mass=False))

    def test_rejects_another_network_or_dt(self):
        base, probe = self.profiles()
        old = network_load(self.NET, base)
        twin = Network(self.NET.nodes, self.NET.arcs, self.NET.groups)
        with pytest.raises(ConfigurationError):
            network_load(twin, probe, check_mass=False, reuse=old)
        # a network at another dt is another network
        finer = Network(self.NET.nodes, self.NET.arcs, self.NET.groups, dt=2e-3)
        with pytest.raises(ConfigurationError):
            network_load(finer, probe, check_mass=False, reuse=old)

    def test_a_negative_zero_rate_lends_no_departure_curve(self):
        # -0.0 == 0.0, but a rate row of other bytes lends no departure curve
        net = single_arc()
        rates = np.array([[[0.2, 0.12, 0.0]]])
        old = network_load(net, DepartureProfile(0.0, 0.5, rates))
        prof = DepartureProfile(0.0, 0.5, np.where(rates == 0.0, -0.0, rates))
        res = network_load(net, prof, reuse=old)
        assert res.curves[(0, 0)][0] is not old.curves[(0, 0)][0]
        assert_same_bits(res, network_load(net, prof))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_random_probes(self, seed):
        rng = np.random.default_rng(seed)
        net, prof = random_scenario(rng, allow_greenshields=True, dt=1e-2)
        old = network_load(net, prof)
        rates = prof.rates.copy()
        k, p = net.cells[int(rng.integers(len(net.cells)))]
        rates[k, p, int(rng.integers(prof.n_bins))] += rng.uniform(0.0, 0.1)
        probe = DepartureProfile(prof.start, prof.bin_width, rates)
        res = network_load(net, probe, check_mass=False, reuse=old)
        assert_same_bits(res, network_load(net, probe, check_mass=False))
        for cell in net.cells:
            if cell != (k, p) and (probe.rates[cell] > 0).any():
                assert res.curves[cell][0] is old.curves[cell][0], cell


class TestSweepOrder:
    """Each load sweeps the arcs its live cells ride, in the feeder order
    those cells give."""

    RING = [("a", "b", 1.0, TRI), ("b", "c", 1.0, TRI), ("c", "a", 1.0, TRI)]

    def test_one_live_path(self):
        # with path 1 empty, only path 0's arcs are swept, in feeder order
        base, _ = TestReuse.profiles()
        one_path = base.rates.copy()
        one_path[0, 1] = 0.0
        res = network_load(TestReuse.NET, DepartureProfile(-1.0, 0.5, one_path),
                           check_mass=False)
        assert list(res.arc_flows) == [("o", "a"), ("a", "m"), ("m", "d")]

    @pytest.mark.parametrize("listing", list(itertools.permutations(range(3))))
    @pytest.mark.parametrize("live, windows", [((0,), 1), ((0, 1), 1), ((0, 1, 2), 4)])
    def test_partly_live_ring(self, listing, live, windows):
        # the ring's three groups each ride two arcs: the three paths feed
        # one another in a cycle, but the paths of one or two live groups do
        # not, and one sweep in the order their cells give loads them
        groups = [(1.6 if k in live else 0.0, o, d)
                  for k, (o, d) in enumerate([("a", "c"), ("b", "a"), ("c", "b")])]
        net = make_network([self.RING[i] for i in listing], groups)
        rates = np.zeros((3, len(net.paths), 4))
        for k in live:
            rates[k, net.paths_for_group(k)[0]] = 0.8
        prof = DepartureProfile(0.0, 0.5, rates)
        res = network_load(net, prof)
        res.check_invariants()
        assert res.windows == windows
        assert_same_loading(res, window_network_load(net, prof))


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
        record = res.curves[(0, 0)]     # a driver's times: its curves' inverses
        dep_inv, arr_inv = record[0].inverse, record[-1].inverse
        assert dep_inv(0.25) == pytest.approx(0.5)

    def test_free_flow_shift(self):
        net = single_arc(size=0.1)
        prof = DepartureProfile(0.0, 1.0, np.full((1, 1, 1), 0.1))
        res = network_load(net, prof)
        record = res.curves[(0, 0)]     # a driver's times: its curves' inverses
        dep_inv, arr_inv = record[0].inverse, record[-1].inverse
        for beta in (0.0, 0.03, 0.09):
            assert arr_inv(beta) == pytest.approx(dep_inv(beta) + 1.0, abs=1e-9)

    def test_congested_consistency(self):
        net = single_arc(size=1.2)
        prof = DepartureProfile(0.0, 1.0, np.full((1, 1, 1), 1.2))
        res = network_load(net, prof)
        record = res.curves[(0, 0)]     # a driver's times: its curves' inverses
        dep_inv, arr_inv = record[0].inverse, record[-1].inverse
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
        dep_inv = res.curves[(0, 0)][0].inverse
        with pytest.raises(DomainError):
            dep_inv(0.6)
