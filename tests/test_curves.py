"""Cumulative curves and single-arc evolution against brute-force oracles."""
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kinwave import (ArcDescriptor, CumulativeCurve, DomainError, ExitComputation,
                     FluxDescriptor, exit_time, lax_hopf_exit, modulus_of_continuity)
from kinwave import curves
from kinwave.curves import _REL, _monge_row_minima

from oracles import brute_lax_hopf, greenshields_density, modulus_by_search, reference_inverse

GS_ARC = ArcDescriptor("a", "b", 1.0, FluxDescriptor.greenshields(1.0, 1.0))
TRI_ARC = ArcDescriptor("a", "b", 1.0, FluxDescriptor.triangular(1.0, 1.0, 1.0))
SAMPLED_ARC = ArcDescriptor(
    "a", "b", 1.0,
    FluxDescriptor.sampled([[0, 0], [0.2, 0.18], [0.5, 0.25], [0.8, 0.12], [1, 0]]),
)


def steady_travel_time(u):
    """L * g(u) / u for the unit Greenshields arc."""
    return greenshields_density(u) / u


def fixpoint_simplify(t, v):
    """Reference rule: repeated vectorised passes until no point is droppable.

    Each pass tests every interior point against its current neighbours and
    drops the first point of each run of droppable points.  A run of n
    collinear points therefore takes n passes.
    """
    scale = max(1.0, float(np.abs(v).max()))
    while len(t) > 2:
        cross = (t[1:-1] - t[:-2]) * (v[2:] - v[:-2]) - (t[2:] - t[:-2]) * (
            v[1:-1] - v[:-2]
        )
        span = np.maximum(t[2:] - t[:-2], 1e-300)
        drop = np.abs(cross) <= _REL * scale * span
        if not np.any(drop):
            break
        drop[1:] &= ~drop[:-1].copy()
        keep = np.ones(len(t), dtype=bool)
        keep[1:-1] = ~drop
        t, v = t[keep], v[keep]
    return t, v


def rowwise_monge_row_minima(ts, taus, U, kernel):
    """Reference row minima: the same divide and conquer, one row per kernel call.

    Depth first from a stack; each popped interval solves its middle row
    with ``np.argmin`` over its column range.
    """
    n = len(ts)
    vals = np.empty(n)
    args = np.empty(n, dtype=int)
    stack = [(0, n, 0, len(taus))]
    while stack:
        r0, r1, c0, c1 = stack.pop()
        if r0 >= r1:
            continue
        rm = (r0 + r1) // 2
        row = U[c0:c1] + kernel(ts[rm] - taus[c0:c1])
        j = int(np.argmin(row))
        vals[rm] = row[j]
        args[rm] = c0 + j
        stack.append((r0, rm, c0, c0 + j + 1))
        stack.append((rm + 1, r1, c0 + j, c1))
    return vals, args


def exact_left_inverse(curve, beta):
    """inf{ t : curve(t) >= beta }, in exact rational arithmetic on the breakpoints."""
    b = Fraction(beta)
    t = [Fraction(x) for x in curve.t]
    v = [Fraction(x) for x in curve.v]
    j = next(i for i, vi in enumerate(v) if vi >= b)
    if j == 0:
        return t[0]
    return t[j - 1] + (b - v[j - 1]) / (v[j] - v[j - 1]) * (t[j] - t[j - 1])


# runs of one rate, up to 600 bins in all.  RATE_RUNS rates are multiples
# of 1/8, zero included, so every rate change is far above the simplify
# tolerance; ANY_RATE_RUNS may change the rate by as little as that
# tolerance, where merging equal-rate bins first may keep a breakpoint
# that simplifying every bin edge would drop.
RATE_RUNS = st.lists(st.tuples(st.integers(0, 24).map(lambda k: k / 8.0),
                               st.integers(1, 120)), min_size=1, max_size=12)
ANY_RATE_RUNS = st.lists(st.tuples(st.floats(0.0, 3.0), st.integers(1, 120)),
                         min_size=1, max_size=12)


def step_rates(runs):
    return np.repeat([r for r, _ in runs], [n for _, n in runs])[:600]


class TestCumulativeCurve:
    def test_from_step_rates(self):
        c = CumulativeCurve.from_step_rates([0.0, 1.0, 2.0], [0.5, 0.0])
        assert c(0.5) == pytest.approx(0.25)
        assert c(1.7) == pytest.approx(0.5)
        assert c.total == pytest.approx(0.5)

    def test_rejects_decreasing(self):
        with pytest.raises(DomainError):
            CumulativeCurve([0.0, 1.0], [0.5, 0.0])

    def test_rejects_nonzero_start(self):
        with pytest.raises(DomainError):
            CumulativeCurve([0.0, 1.0], [0.3, 0.5])

    def test_combine_is_pointwise_sum(self):
        a = CumulativeCurve.from_step_rates([0.0, 2.0], [0.5])
        b = CumulativeCurve.from_step_rates([1.0, 3.0], [1.0])
        c = CumulativeCurve.combine([a, b])
        for t in np.linspace(-1.0, 4.0, 41):
            assert c(t) == pytest.approx(a(t) + b(t), abs=1e-12)

    def test_inverse_linear(self):
        c = CumulativeCurve.from_step_rates([0.0, 5.0], [1.0])
        assert c.inverse(2.0) == pytest.approx(2.0)

    def test_inverse_at_zero_is_first_breakpoint(self):
        c = CumulativeCurve.from_step_rates([3.0, 5.0], [1.0])
        assert c.inverse(0.0) == pytest.approx(3.0)

    def test_inverse_out_of_range(self):
        c = CumulativeCurve.from_step_rates([0.0, 1.0], [1.0])
        with pytest.raises(DomainError):
            c.inverse(2.0)

    @settings(max_examples=50, deadline=None)
    @given(st.data())
    def test_inverse_matches_linear_scan(self, data):
        n = data.draw(st.integers(2, 6))
        rates = data.draw(
            st.lists(st.floats(0.0, 2.0), min_size=n, max_size=n)
        )
        c = CumulativeCurve.from_step_rates(np.arange(n + 1, dtype=float), rates)
        if c.total <= 0:
            return
        beta = data.draw(st.floats(0.0, 1.0)) * c.total
        t = c.inverse(beta)
        assert abs(t - float(exact_left_inverse(c, beta))) <= 1e-3
        assert c(t) >= beta - 1e-9

    def test_inverse_subnormal_rate(self):
        # a grid oracle rounds 0.5001 * 5e-324 up to 5e-324 and would put
        # the crossing at 0.5001; the exact crossing is the end of bin 0
        c = CumulativeCurve.from_step_rates([0.0, 1.0, 2.0], [5e-324, 1.0])
        assert c.inverse(5e-324) == exact_left_inverse(c, 5e-324) == 1.0

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_inverse_matches_reference_bits(self, data):
        # breakpoints with flat runs (zero increments), down to a single one
        n = data.draw(st.integers(1, 9))
        t = data.draw(st.floats(-50.0, 50.0)) + np.cumsum(
            data.draw(st.lists(st.floats(1e-6, 10.0), min_size=n, max_size=n)))
        rises = data.draw(st.lists(st.sampled_from([0.0, 0.25, 1e-9]) | st.floats(0.0, 5.0),
                                   min_size=n - 1, max_size=n - 1))
        c = CumulativeCurve(t, np.concatenate(([0.0], np.cumsum(rises))))
        tol = 1e-9 * max(1.0, c.total)
        probe = (st.sampled_from([0.0, -0.0, c.total, -tol, c.total + tol, np.nan,
                                  *c.v.tolist()])
                 | st.floats(0.0, 1.0).map(lambda x: x * c.total)
                 | st.floats(-tol, c.total + tol))
        beta = data.draw(probe | st.lists(probe, max_size=6).map(np.array))
        got, want = c.inverse(beta), reference_inverse(c, beta)
        assert type(got) is type(want)
        assert np.array_equal(np.asarray(got).view(np.int64), np.asarray(want).view(np.int64))

    def test_inverse_rejects_like_reference(self):
        for c in (CumulativeCurve.from_step_rates([0.0, 1.0, 2.0], [1.0, 0.0]),
                  CumulativeCurve([4.0], [0.0])):
            tol = 1e-9 * max(1.0, c.total)
            for beta in (np.nextafter(-tol, -1.0), np.nextafter(c.total + tol, np.inf),
                         np.array([0.5 * c.total, c.total + 1.0]), -1.0):
                for inverse in (c.inverse, lambda b: reference_inverse(c, b)):
                    with pytest.raises(DomainError):
                        inverse(beta)

    @settings(max_examples=50, deadline=None)
    @given(st.data())
    def test_simplify_preserves_values(self, data):
        n = data.draw(st.integers(1, 8))
        rates = data.draw(st.lists(st.floats(0.0, 3.0), min_size=n, max_size=n))
        c = CumulativeCurve(
            np.arange(n + 1, dtype=float),
            np.concatenate(([0.0], np.cumsum(rates))),
        )
        s = c.simplify()
        grid = np.linspace(-1.0, n + 1.0, 307)
        assert np.max(np.abs(s(grid) - c(grid))) <= 1e-9 * max(1.0, c.total)

    @settings(max_examples=200, deadline=None)
    @given(RATE_RUNS, st.floats(1e-3, 10.0), st.floats(-10.0, 10.0), st.floats(1e-3, 2.0))
    def test_from_step_rates_matches_fixpoint(self, runs, scale, start, width):
        rates = scale * step_rates(runs)
        times = start + width * np.arange(len(rates) + 1)
        full = CumulativeCurve(
            times, np.concatenate(([0.0], np.cumsum(rates * np.diff(times))))
        )
        t, v = fixpoint_simplify(full.t, full.v)
        c = CumulativeCurve.from_step_rates(times, rates)
        assert np.array_equal(c.t, t) and np.array_equal(c.v, v)

    @settings(max_examples=200, deadline=None)
    @given(ANY_RATE_RUNS, st.floats(-10.0, 10.0), st.floats(1e-3, 2.0))
    def test_from_step_rates_contract(self, runs, start, width):
        rates = step_rates(runs)
        times = start + width * np.arange(len(rates) + 1)
        exact = np.concatenate(([0.0], np.cumsum(rates * np.diff(times))))
        c = CumulativeCurve.from_step_rates(times, rates)
        assert c.t[0] == times[0] and c.t[-1] == times[-1] and c.v[-1] == exact[-1]
        assert np.all(np.isin(c.t, times))
        assert np.max(np.abs(c(times) - exact)) <= 1e-9 * max(1.0, exact[-1])

    @pytest.mark.parametrize("arc", [GS_ARC, TRI_ARC, SAMPLED_ARC])
    def test_simplify_matches_fixpoint_on_exits(self, arc, monkeypatch):
        inputs, simplify = [], CumulativeCurve.simplify

        def recording(curve):
            inputs.append((curve.t, curve.v))
            return simplify(curve)

        monkeypatch.setattr(CumulativeCurve, "simplify", recording)
        rng = np.random.default_rng(11)
        for _ in range(4):
            rates = rng.uniform(0.0, 1.5 * arc.flux.f_max, size=3)
            entry = CumulativeCurve.from_step_rates(np.linspace(0.0, 1.5, 4), rates)
            lax_hopf_exit(entry, arc, dt=1e-3)
        monkeypatch.undo()
        dropped = 0
        for t, v in inputs:
            s = CumulativeCurve(t, v, validate=False).simplify()
            ref_t, ref_v = fixpoint_simplify(t, v)
            assert np.array_equal(s.t, ref_t) and np.array_equal(s.v, ref_v)
            dropped += len(t) - len(s.t)
        assert dropped > 0

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_simplify_contract(self, data):
        # arbitrary curves, near-collinear ones included: the one-pass rule
        # may keep other points than the fixpoint rule here, so only the
        # contract is checked
        n = data.draw(st.integers(1, 60))
        gaps = data.draw(st.lists(st.floats(1e-6, 5.0), min_size=n - 1, max_size=n - 1))
        t = np.concatenate(([0.0], np.cumsum(gaps)))
        slope = data.draw(st.floats(0.0, 3.0))
        noise = data.draw(st.lists(st.sampled_from([0.0, 1e-13, 1e-12, 1e-9, 0.5]),
                                   min_size=n, max_size=n))
        v = np.maximum.accumulate(np.maximum(slope * t + np.array(noise), 0.0))
        v -= v[0]
        c = CumulativeCurve(t, v)
        s = c.simplify()
        assert s.t[0] == c.t[0] and s.t[-1] == c.t[-1]
        assert s.v[0] == c.v[0] and s.v[-1] == c.v[-1]
        idx = np.searchsorted(c.t, s.t)
        assert np.array_equal(c.t[idx], s.t) and np.array_equal(c.v[idx], s.v)
        grid = np.concatenate((c.t, np.linspace(-1.0, c.t[-1] + 1.0, 101)))
        assert np.max(np.abs(s(grid) - c(grid))) <= 1e-9 * max(1.0, c.total)

    def test_truncate_and_shift(self):
        c = CumulativeCurve.from_step_rates([0.0, 2.0], [1.0])
        tr = c.truncate(1.0)
        assert tr.total == pytest.approx(1.0)
        assert tr(1.5) == pytest.approx(1.0)
        sh = c.shift(3.0)
        assert sh(3.5) == pytest.approx(c(0.5))


class TestLaxHopfExit:
    def test_empty_entry(self):
        exit_c = lax_hopf_exit(CumulativeCurve.zero(), GS_ARC)
        assert exit_c.total == 0.0

    def test_steady_state_shift(self):
        # constant sub-capacity inflow settles onto the kinematic-wave
        # steady state: exit(t) = u * (t - L*g(u)/u) past the startup fan
        u = 0.16
        entry = CumulativeCurve.from_step_rates([0.0, 10.0], [u])
        exit_c = lax_hopf_exit(entry, GS_ARC, dt=1e-3)
        shift = steady_travel_time(u)
        assert shift == pytest.approx(1.25, abs=1e-9)
        for t in np.linspace(2.0, 11.0, 19):
            assert exit_c(t) == pytest.approx(u * (t - shift), abs=2e-3)

    def test_startup_fan_against_brute_force(self):
        # before the steady state establishes, the first cars run faster
        # than the steady pace; the brute-force oracle confirms the curve
        u = 0.16
        entry = CumulativeCurve.from_step_rates([0.0, 10.0], [u])
        exit_c = lax_hopf_exit(entry, GS_ARC, dt=1e-3)
        flux = GS_ARC.flux
        for t in (1.1, 1.3, 1.5, 2.5):
            oracle = brute_lax_hopf(entry.t, entry.v, flux.conjugate, 1.0, t)
            assert exit_c(t) == pytest.approx(oracle, abs=2e-3)
        assert exit_c(1.25) > 0.0  # first car free-flows, arrives before 1.25

    def test_overload_capacity_and_conservation(self):
        entry = CumulativeCurve.from_step_rates([0.0, 1.0], [0.5])
        exit_c = lax_hopf_exit(entry, GS_ARC, dt=1e-3)
        assert exit_c.max_slope <= 0.25 + 1e-9
        assert exit_c.total == pytest.approx(0.5, abs=1e-9)
        flux = GS_ARC.flux
        for t in (1.5, 2.0, 2.5, 3.0):
            oracle = brute_lax_hopf(entry.t, entry.v, flux.conjugate, 1.0, t)
            assert exit_c(t) == pytest.approx(oracle, abs=2e-3)

    @pytest.mark.parametrize("arc", [TRI_ARC, SAMPLED_ARC])
    def test_exact_kinds_match_brute_force(self, arc):
        rng = np.random.default_rng(7)
        flux = arc.flux
        for _ in range(5):
            rates = rng.uniform(0.0, 2.0 * flux.f_max, size=4)
            entry = CumulativeCurve.from_step_rates(
                np.linspace(0.0, 2.0, 5), rates
            )
            if entry.total <= 0:
                continue
            exit_c = lax_hopf_exit(entry, arc)
            for t in np.linspace(arc.mu, 2.0 + entry.total / flux.f_max + arc.mu, 13):
                oracle = brute_lax_hopf(entry.t, entry.v, flux.conjugate, arc.length, t)
                assert exit_c(t) == pytest.approx(min(oracle, entry.total), abs=5e-4)

    @pytest.mark.parametrize("arc", [GS_ARC, TRI_ARC, SAMPLED_ARC])
    def test_invariants_random(self, arc):
        rng = np.random.default_rng(11)
        for _ in range(4):
            rates = rng.uniform(0.0, 1.5 * arc.flux.f_max, size=3)
            entry = CumulativeCurve.from_step_rates(np.linspace(0.0, 1.5, 4), rates)
            exit_c = lax_hopf_exit(entry, arc, dt=1e-3)
            comp = ExitComputation(entry, exit_c, arc)
            comp.validate(tol=1e-6)


class TestExitTime:
    def test_free_flow(self):
        assert exit_time(CumulativeCurve.zero(), GS_ARC, 4.0) == pytest.approx(5.0)

    def test_steady_state(self):
        entry = CumulativeCurve.from_step_rates([0.0, 10.0], [0.16])
        assert exit_time(entry, GS_ARC, 2.0, dt=1e-3) == pytest.approx(3.25, abs=2e-3)

    def test_consistency_with_exit_curve(self):
        # U+(exit_time(t)) = U-(t) wherever the entry is strictly increasing
        rng = np.random.default_rng(3)
        rates = rng.uniform(0.1, 0.8, size=4)
        entry = CumulativeCurve.from_step_rates(np.linspace(0.0, 2.0, 5), rates)
        exit_c = lax_hopf_exit(entry, TRI_ARC)
        comp = ExitComputation(entry, exit_c, TRI_ARC)
        for t in np.linspace(0.05, 1.95, 11):
            tau = comp.exit_time(t)
            assert exit_c(tau) == pytest.approx(entry(t), abs=1e-9)

    def test_fifo_monotone(self):
        entry = CumulativeCurve.from_step_rates([0.0, 1.0], [0.6])
        exit_c = lax_hopf_exit(entry, TRI_ARC)
        comp = ExitComputation(entry, exit_c, TRI_ARC)
        ts = np.linspace(-0.5, 3.0, 71)
        taus = comp.exit_time(ts)
        assert np.all(np.diff(taus) >= -1e-12)


class TestModulus:
    def test_zero_gap(self):
        phi = modulus_of_continuity(GS_ARC, M=0.25, G=1.0)
        assert phi(0.0) == 0.0

    def test_at_least_identity_and_monotone(self):
        phi = modulus_of_continuity(GS_ARC, M=0.25, G=1.0)
        gaps = np.linspace(0.01, 3.0, 8)
        vals = np.array([phi(x) for x in gaps])
        assert np.all(vals >= gaps - 1e-12)
        assert np.all(np.diff(vals) >= -1e-9)

    @pytest.mark.parametrize("arc", [GS_ARC, TRI_ARC, SAMPLED_ARC])
    def test_queue_depth_component(self, arc):
        # the kernel evaluated phi(xi) beyond -mu must have absorbed the
        # worst-case inflow min(M*xi, G)
        M, G = 0.25, 1.0
        phi = modulus_of_continuity(arc, M, G)

        def h(s):
            return -arc.minplus_kernel(-s)

        for xi in (0.3, 1.0, 2.5):
            depth = -h(-arc.mu - (phi(xi) - 0.0))
            assert depth >= min(M * xi, G) - 1e-6

    @pytest.mark.parametrize("arc", [GS_ARC, TRI_ARC, SAMPLED_ARC])
    def test_matches_nested_search(self, arc):
        # rate bounds below, at and above capacity, and 0.18: a breakpoint
        # flow of the sampled flux, where g' jumps
        Ms = np.append(np.array([0.1, 0.5, 0.999, 1.0, 2.0, 4.0]) * arc.flux.f_max, 0.18)
        Ms, Gs, xis = (a.ravel() for a in np.meshgrid(
            Ms, [0.05, 1.0, 7.0], [0.01, 0.3, 1.0, 10.0], indexing="ij"))
        ref = modulus_by_search(arc.minplus_kernel, arc.mu, Ms, Gs, xis)
        for M, G, xi, want in zip(Ms, Gs, xis, ref):
            got = modulus_of_continuity(arc, M, G)(xi)
            assert abs(got - want) <= 1e-9 * max(1.0, want), (M, G, xi)

    def test_invalid_inputs(self):
        with pytest.raises(DomainError):
            modulus_of_continuity(GS_ARC, M=0.0, G=1.0)
        phi = modulus_of_continuity(GS_ARC, M=0.1, G=1.0)
        with pytest.raises(DomainError):
            phi(-1.0)


class TestMonotoneComparison:
    @pytest.mark.parametrize("arc", [GS_ARC, TRI_ARC, SAMPLED_ARC])
    def test_ordering_and_contraction(self, arc):
        rng = np.random.default_rng(19)
        for _ in range(5):
            hi_rates = rng.uniform(0.0, 1.5 * arc.flux.f_max, size=4)
            lo_rates = hi_rates * rng.uniform(0.0, 1.0, size=4)
            edges = np.linspace(0.0, 2.0, 5)
            lo = CumulativeCurve.from_step_rates(edges, lo_rates)
            hi = CumulativeCurve.from_step_rates(edges, hi_rates)
            e_lo = lax_hopf_exit(lo, arc, dt=1e-3)
            e_hi = lax_hopf_exit(hi, arc, dt=1e-3)
            grid = np.linspace(-1.0, 12.0, 2001)
            assert np.all(e_lo(grid) <= e_hi(grid) + 1e-6)
            gap_in = np.max(np.abs(hi(grid) - lo(grid)))
            gap_out = np.max(np.abs(e_hi(grid) - e_lo(grid)))
            assert gap_out <= gap_in + 1e-6


class TestMongeRowMinima:
    @settings(max_examples=200, deadline=None)
    @given(st.floats(0.5, 2.0), st.floats(0.5, 2.0), st.floats(0.2, 2.0),
           st.integers(1, 400), st.integers(1, 400), st.booleans(),
           st.integers(0, 2**32 - 1))
    def test_matches_rowwise_and_dense(self, v_free, rho_jam, L, n, m, zero_u, seed):
        flux = FluxDescriptor.greenshields(v_free, rho_jam)
        rng = np.random.default_rng(seed)
        span = 4.0 * L / v_free
        ts = np.sort(rng.uniform(0.0, span, n))
        taus = np.unique(rng.uniform(0.0, span, m))
        # all-zero U leaves every column where the kernel is zero tied
        U = np.zeros(len(taus)) if zero_u else np.cumsum(
            rng.uniform(0.0, flux.f_max, len(taus)) * np.diff(taus, prepend=taus[0]))

        kernel = ArcDescriptor("a", "b", L, flux).minplus_kernel
        vals, args = _monge_row_minima(ts, taus, U, kernel)
        ref_vals, ref_args = rowwise_monge_row_minima(ts, taus, U, kernel)
        assert np.array_equal(vals, ref_vals) and np.array_equal(args, ref_args)
        assert np.array_equal(np.signbit(vals), np.signbit(ref_vals))
        dense = U[None, :] + kernel(ts[:, None] - taus[None, :])
        assert np.array_equal(args, np.argmin(dense, axis=1))
        assert np.array_equal(vals, dense[np.arange(len(ts)), args])

    @pytest.mark.parametrize("dt", [2e-3, 1e-3])
    def test_grid_exit_matches_rowwise(self, dt, monkeypatch):
        rng = np.random.default_rng(5)
        entries = [CumulativeCurve.from_step_rates([0.0, 1.0], [0.16])]
        entries += [CumulativeCurve.from_step_rates(np.linspace(0.0, 1.5, 4),
                                                    rng.uniform(0.0, 0.4, size=3))
                    for _ in range(3)]
        for entry in entries:
            new = lax_hopf_exit(entry, GS_ARC, dt)
            with monkeypatch.context() as m:
                m.setattr(curves, "_monge_row_minima", rowwise_monge_row_minima)
                ref = lax_hopf_exit(entry, GS_ARC, dt)
            assert np.array_equal(new.t, ref.t) and np.array_equal(new.v, ref.v)

    @settings(max_examples=40, deadline=None)
    @given(st.floats(0.5, 2.0), st.floats(0.5, 2.0), st.floats(0.2, 2.0),
           st.lists(st.floats(0.0, 1.5), min_size=1, max_size=6),
           st.sampled_from([1e-2, 1e-3]))
    def test_grid_exit_drains_in_one_pass(self, v_free, rho_jam, L, fractions, dt):
        # the grid's a-priori end lies past the drain time, so one row-minima
        # call gives the whole exit curve, ending exactly at the entry mass
        arc = ArcDescriptor("a", "b", L, FluxDescriptor.greenshields(v_free, rho_jam))
        rates = np.array(fractions) * arc.flux.f_max
        entry = CumulativeCurve.from_step_rates(
            np.linspace(0.0, 0.5 * len(rates), len(rates) + 1), rates)
        calls = []

        def counted(*args):
            calls.append(len(args[0]))
            return _monge_row_minima(*args)

        with pytest.MonkeyPatch.context() as m:
            m.setattr(curves, "_monge_row_minima", counted)
            out = lax_hopf_exit(entry, arc, dt)
        assert len(calls) == (1 if entry.total > 0 else 0)
        assert out.v[-1] == entry.total
        assert out.t[0] == entry.t[0] + arc.mu


@st.composite
def random_arcs(draw):
    """An arc of any flux kind; sampled diagrams are chords of a concave curve."""
    kind = draw(st.sampled_from(["greenshields", "triangular", "sampled"]))
    v_free, rho_jam = draw(st.floats(0.3, 3.0)), draw(st.floats(0.3, 3.0))
    if kind == "greenshields":
        flux = FluxDescriptor.greenshields(v_free, rho_jam)
    elif kind == "triangular":
        flux = FluxDescriptor.triangular(v_free, draw(st.floats(0.3, 3.0)), rho_jam)
    else:
        inner = draw(st.lists(st.integers(1, 49), min_size=1, max_size=6, unique=True))
        x = np.array([0] + sorted(inner) + [50]) / 50.0
        skew = draw(st.floats(0.5, 1.0))     # x*(1 - x)**skew is concave for skew <= 1
        rho, flow = rho_jam * x, v_free * rho_jam * x * (1.0 - x) ** skew
        flux = FluxDescriptor.sampled(np.column_stack((rho, flow)))
    return ArcDescriptor("a", "b", draw(st.floats(0.2, 3.0)), flux)


@settings(max_examples=150, deadline=None)
@given(random_arcs(), st.floats(0.0, 50.0))
def test_kernel_capacity_lower_bound(arc, span):
    # g*(p) >= p*F_max - rho_star, taking u = F_max in the max defining g*;
    # this bound is what lets the grid exit end at its a-priori drain time
    flux = arc.flux
    s = np.linspace(0.0, span * arc.length / flux.speed_at_capacity, 257)
    K = arc.minplus_kernel(s)
    bound = flux.f_max * (s - arc.length / flux.speed_at_capacity)
    assert np.all(K >= bound - 1e-12 * np.maximum(1.0, np.abs(K)))
