"""Cumulative curves and single-arc evolution against brute-force oracles."""
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kinwave import (ArcDescriptor, CostFunction, CumulativeCurve, DepartureProfile,
                     DomainError, ExitComputation, FluxDescriptor, GroupDescriptor,
                     LoadingError, Network, arrival_time_path, lax_hopf_exit,
                     modulus_of_continuity, network_load)
from kinwave import curves
from kinwave.curves import (_REL, _exact_minplus, _grid_minplus, _monge_row_minima,
                            _snap_tail, csv_rows)

from oracles import (brute_lax_hopf, exit_time_gap, full_cascade, full_point_queue,
                     greenshields_density, grid_exit, mask_snap, modulus_by_search,
                     rational_minplus,
                     reference_csv_rows, reference_envelope, reference_inverse,
                     reference_simplify)

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
        probe = (st.sampled_from([0.0, -0.0, c.total, -tol, c.total + tol, *c.v.tolist()])
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

    def test_inverse_rejects_nan(self):
        c = CumulativeCurve([0.0, 1.0, 2.0], [0.0, 1.0, 1.0])
        for beta in (np.nan, np.array([0.5, np.nan])):
            with pytest.raises(DomainError):
                c.inverse(beta)

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

    # a short sampled arc: on SAMPLED_ARC these entries' exits are their kinks alone
    @pytest.mark.parametrize("arc", [GS_ARC, TRI_ARC,
                                     ArcDescriptor("a", "b", 0.2, SAMPLED_ARC.flux)])
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


# run lengths from 31 to 4,065, where simplify's run test once moved from a
# Python loop to numpy chunks of doubling size: (2**k - 1) * 32 points, +-1
CHUNK_EDGES = sorted({(2**k - 1) * 32 + d for k in range(1, 8) for d in (-1, 0, 1)})


@st.composite
def grid_curves(draw):
    """Curves like a grid exit: pieces of constant slope on a uniform grid,
    flat ones included (heads and tails), so that each piece is a collinear
    run of its length, with noise near the simplify tolerance on some points."""
    lengths = draw(st.lists(st.sampled_from(CHUNK_EDGES) | st.integers(1, 600),
                            min_size=1, max_size=12))
    slopes = draw(st.lists(st.sampled_from([0.0, 0.25, 1.0]) | st.floats(0.0, 3.0),
                           min_size=len(lengths), max_size=len(lengths)))
    steps = np.repeat(slopes, lengths)[:5000]
    dt = draw(st.sampled_from([1e-3, 0.37, 1.0]))
    t = draw(st.floats(-50.0, 50.0)) + dt * np.arange(len(steps) + 1)
    v = np.concatenate(([0.0], np.cumsum(steps * dt)))
    scale = max(1.0, v[-1])
    noisy = draw(st.lists(st.integers(0, len(v) - 1), max_size=20))
    rel = draw(st.lists(st.sampled_from([1e-13, -1e-13, 1e-12, -1e-12, 1e-11, -1e-11])
                        | st.floats(-1e-11, 1e-11), min_size=len(noisy), max_size=len(noisy)))
    v[noisy] += np.array(rel) * scale
    return CumulativeCurve(t, np.maximum.accumulate(np.maximum(v, 0.0)) - max(v[0], 0.0))


class TestSimplifyRuns:
    """``simplify`` finds each collinear run from its anchor; it must keep
    and drop exactly the points that the point-by-point loop does."""

    @staticmethod
    def assert_same_bits(c):
        got, want = c.simplify(), reference_simplify(c)
        for a, b in ((got.t, want.t), (got.v, want.v)):
            assert a.shape == b.shape
            assert np.array_equal(a.view(np.int64), b.view(np.int64))

    @settings(max_examples=300, deadline=None)
    @given(grid_curves())
    def test_matches_reference_bits(self, c):
        self.assert_same_bits(c)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 3), st.floats(-10.0, 10.0), st.data())
    def test_short_curves(self, n, t0, data):
        gaps = data.draw(st.lists(st.floats(1e-9, 5.0), min_size=n - 1, max_size=n - 1))
        rises = data.draw(st.lists(st.sampled_from([0.0, 1e-13]) | st.floats(0.0, 3.0),
                                   min_size=n - 1, max_size=n - 1))
        self.assert_same_bits(CumulativeCurve(t0 + np.concatenate(([0.0], np.cumsum(gaps))),
                                              np.concatenate(([0.0], np.cumsum(rises)))))

    @pytest.mark.parametrize("length", CHUNK_EDGES)
    def test_run_ends_at_chunk_edges(self, length):
        # a zero head of ``length`` intervals, a ramp, and a flat tail as long
        t = np.arange(2 * length + 4, dtype=float)
        v = np.concatenate((np.zeros(length + 1), np.arange(1.0, 4.0),
                            np.full(length, 3.0)))
        c = CumulativeCurve(t, v)
        self.assert_same_bits(c)
        assert c.simplify().t.tolist() == [0.0, length, length + 3, 2 * length + 3]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.floats(), st.floats()), min_size=1, max_size=300),
       st.sampled_from(["", "arc_a_b_exit,", "%,", "%%s%d,", "{}{0},", "a%(x)s{}%%,"])
       | st.text(max_size=12))
def test_csv_rows_matches_fstring(pairs, prefix):
    t, v = np.array(pairs).T
    c = CumulativeCurve(t, v, validate=False)      # any floats: the formatter checks nothing
    assert csv_rows(c, prefix) == reference_csv_rows(c, prefix)
    assert csv_rows(c) == reference_csv_rows(c)


def test_write_curve_csv_writes_every_path(tmp_path):
    c = CumulativeCurve([0.0, 0.1, 1.0 / 3.0], [0.0, 5e-324, 2.0])
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    curves.write_curve_csv(c, *paths)
    for path in paths:
        assert path.read_text(encoding="utf-8") == "t,value\n" + reference_csv_rows(c)


class TestFromStepRatesChecks:
    """``from_step_rates`` builds its curve unchecked, after its own checks."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", [0, 1, 3])
    @pytest.mark.filterwarnings("error::RuntimeWarning")      # inf - inf, 0 * inf
    def test_nonfinite_times(self, bad, where):
        for rates in ([0.5, 0.0, 1.0], [0.0, 0.0, 0.0], [1.0, 1.0, 1.0]):
            times = [0.0, 1.0, 2.0, 3.0]
            times[where] = bad
            with pytest.raises(DomainError):
                CumulativeCurve.from_step_rates(times, rates)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", [0, 1, 2])
    @pytest.mark.filterwarnings("error::RuntimeWarning")      # 0 * inf
    def test_nonfinite_rates(self, bad, where):
        rates = [0.5, 0.0, 1.0]
        rates[where] = bad
        with pytest.raises(DomainError):
            CumulativeCurve.from_step_rates([0.0, 1.0, 2.0, 3.0], rates)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_lone_time(self, bad):
        with pytest.raises(DomainError):
            CumulativeCurve.from_step_rates([bad], [])

    @pytest.mark.filterwarnings("error::RuntimeWarning")      # the overflow itself
    def test_overflowing_mass(self):
        with pytest.raises(DomainError):
            CumulativeCurve.from_step_rates([-1e308, 1e308], [0.0])
        with pytest.raises(DomainError):
            CumulativeCurve.from_step_rates([0.0, 1e200], [1e200])

    @pytest.mark.parametrize("times, rates", [
        ([0.0, 1.0, 2.0], [0.5, -1e-300]), ([0.0, 1.0, 1.0], [0.5, 0.5]),
        ([0.0, 2.0, 1.0], [0.5, 0.5]), ([0.0, 1.0], [0.5, 0.5]), ([[0.0, 1.0]], [0.5]),
    ])
    def test_rejects_as_before(self, times, rates):
        with pytest.raises(DomainError):
            CumulativeCurve.from_step_rates(times, rates)

    @settings(max_examples=200, deadline=None)
    @given(ANY_RATE_RUNS | RATE_RUNS, st.floats(-10.0, 10.0), st.floats(1e-3, 2.0),
           st.booleans())
    def test_matches_checked_constructor(self, runs, start, width, negative_zero):
        rates = step_rates(runs)
        if negative_zero:
            rates = np.where(rates == 0.0, -0.0, rates)
        times = start + width * np.arange(len(rates) + 1)
        v = np.concatenate(([0.0], np.cumsum(rates * np.diff(times))))
        keep = np.ones(len(times), dtype=bool)
        keep[1:-1] = rates[1:] != rates[:-1]
        want = CumulativeCurve(times[keep], v[keep]).simplify()
        got = CumulativeCurve.from_step_rates(times, rates)
        for a, b in ((got.t, want.t), (got.v, want.v)):
            assert np.array_equal(a.view(np.int64), b.view(np.int64))


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
            # the entry as a one-arc loading, whose checker runs the arc's
            # causality, capacity and conservation checks
            net = Network(["a", "b"], [arc], [GroupDescriptor(
                entry.total, "a", "b", CostFunction.affine(0.0, -1.0),
                CostFunction.affine(0.0, 1.0))], dt=1e-3)
            loaded = network_load(net, DepartureProfile(0.0, 0.5, rates[None, None]))
            comp = loaded.arc_flows[arc.key]
            assert np.array_equal(comp.entry.t, entry.t) and np.array_equal(comp.entry.v, entry.v)
            loaded.check_invariants()


@st.composite
def one_kink_entries(draw):
    """A one-kink arc, triangular or its three-point sampled table, and an
    entry of up to 10 rate runs: zero runs, runs at capacity (flat W), runs
    above it, and no run at all (a single breakpoint), from a start time in
    [-20, 20]."""
    a, w, R = (draw(st.floats(0.3, 3.0)) for _ in range(3))
    flux = FluxDescriptor.triangular(a, w, R)
    if draw(st.booleans()):
        flux = FluxDescriptor.sampled([[0.0, 0.0], [flux.rho_star, flux.f_max], [R, 0.0]])
    arc = ArcDescriptor("a", "b", draw(st.floats(0.2, 3.0)), flux)
    F = flux.f_max
    rate = st.one_of(st.just(0.0), st.just(F), st.floats(0.0, 3.0 * F))
    runs = draw(st.lists(st.tuples(rate, st.floats(0.01, 2.0)), max_size=10))
    start = draw(st.floats(-20.0, 20.0))
    if not runs:
        return arc, CumulativeCurve.zero(start)
    times = start + np.concatenate(([0.0], np.cumsum([width for _, width in runs])))
    return arc, CumulativeCurve.from_step_rates(times, [r for r, _ in runs])


class TestPointQueue:
    @settings(max_examples=200, deadline=None)
    @given(one_kink_entries())
    def test_matches_rational_oracle_and_envelope(self, case):
        arc, entry = case
        assert len(arc.flux.conjugate_kinks()) == 1
        ts, vs = _exact_minplus(entry, arc)
        ref_t, ref_v = reference_envelope(entry, arc)
        assert np.all(np.diff(ts) > 0) and ts[0] == entry.t[0] + arc.mu
        grid = np.union1d(ts, ref_t)
        got = np.interp(grid, ts, vs)
        exact = [float(rational_minplus(entry.t, entry.v, [arc.mu], [arc.flux.f_max], t))
                 for t in grid]
        scale = max(1.0, entry.total)
        assert np.max(np.abs(got - exact)) <= 1e-14 * scale
        # the envelope accepts a crossing within 1e-11 * max(1, G) of the true one
        assert np.max(np.abs(got - np.interp(grid, ref_t, ref_v))) <= 1e-11 * scale
        assert vs[-1] == pytest.approx(entry.total, abs=1e-14 * scale)

    @pytest.mark.parametrize("arc, exit_name", [
        (TRI_ARC, "_exact_minplus"),
        (ArcDescriptor("a", "b", 1.0, FluxDescriptor.sampled([[0, 0], [0.5, 0.25], [1, 0]])),
         "_exact_minplus"),
        (SAMPLED_ARC, "_exact_minplus"),
        (GS_ARC, "_exact_minplus"),
    ], ids=["triangular", "one-kink-sampled", "two-kink-sampled", "greenshields"])
    def test_kink_count_picks_the_exit(self, arc, exit_name, monkeypatch):
        # every flux, whatever its kink count, takes the exact exit: Greenshields
        # through its table, and the grid reference is never called
        calls = []
        for name in ("_exact_minplus", "_grid_minplus"):
            def counted(*args, name=name, exit_fn=getattr(curves, name)):
                calls.append(name)
                return exit_fn(*args)

            monkeypatch.setattr(curves, name, counted)
        lax_hopf_exit(CumulativeCurve.from_step_rates([0.0, 1.0, 2.0], [0.9, 0.1]), arc)
        assert calls == [exit_name]

    def test_drains_past_a_tiny_capacity(self):
        # capacity 2.5e-300 drains 0.1 vehicles at 4e298, which a float holds
        arc = ArcDescriptor("a", "b", 1e-300, FluxDescriptor.triangular(1.0, 1e-300, 2.5))
        out = lax_hopf_exit(CumulativeCurve.from_step_rates([0.0, 1.0], [0.1]), arc)
        assert out.total == 0.1
        assert out.t[-1] == pytest.approx(0.1 / arc.flux.f_max, rel=1e-12)


@st.composite
def multi_kink_entries(draw):
    """A sampled arc whose conjugate has 2-6 kinks, and an entry of up to 10
    rate runs: zero runs, runs at one of the kernel's slopes (a flat
    v - u*t in that window, or in the point queue at capacity), runs above
    capacity and no run at all, from a start time in [-20, 20].  Half the
    cases take round numbers (powers of two and quarters), whose lines tie
    exactly at candidate times."""
    m = draw(st.integers(2, 6))
    if draw(st.booleans()):
        slopes = [2.0 ** (1 - k) for k in range(m)]
        quarters = st.sampled_from([0.25, 0.5, 1.0])
        width = run_width = jam = quarters
        length = st.sampled_from([0.5, 1.0, 2.0])
        rate = st.sampled_from([0.25, 0.5, 1.0, 1.5, 2.0, 3.0])
        start = st.integers(-20, 20).map(float)
    else:
        slopes = [draw(st.floats(0.3, 3.0))]
        for _ in range(m - 1):      # strictly falling, so the hull keeps every point
            slopes.append(slopes[-1] * draw(st.floats(0.1, 0.9)))
        width, run_width, length = st.floats(0.05, 0.5), st.floats(0.01, 2.0), st.floats(0.2, 3.0)
        jam, rate, start = st.floats(0.2, 2.0), None, st.floats(-20.0, 20.0)
    widths = [draw(width) for _ in range(m)]
    rho = np.concatenate(([0.0], np.cumsum(widths)))
    flows = np.concatenate(([0.0], np.cumsum(np.multiply(slopes, widths))))
    flux = FluxDescriptor.sampled(np.vstack((np.column_stack((rho, flows)),
                                             [[rho[-1] + draw(jam), 0.0]])))
    arc = ArcDescriptor("a", "b", draw(length), flux)
    rate = st.one_of(st.just(0.0), st.sampled_from(flux._g_u[1:].tolist()),
                     st.floats(0.0, 3.0 * flux.f_max) if rate is None else rate)
    runs = draw(st.lists(st.tuples(rate, run_width), max_size=10))
    start = draw(start)
    if not runs:
        return arc, CumulativeCurve.zero(start)
    times = start + np.concatenate(([0.0], np.cumsum([w for _, w in runs])))
    return arc, CumulativeCurve.from_step_rates(times, [r for r, _ in runs])


def exact_exit_error(entry, arc, ts, vs, extra=()):
    """Largest |exit - exact exit| at the exit's breakpoints, the midpoints
    between them (where a missing kink shows) and the ``extra`` times.  The
    exact exit is ``rational_minplus`` with the arc's kernel: kinks L * p_k
    and slopes the flows of the flux table."""
    grid = np.concatenate((ts, 0.5 * (ts[1:] + ts[:-1]), extra))
    kinks, slopes = arc.length * arc.flux.conjugate_kinks(), arc.flux._g_u[1:]
    exact = [float(rational_minplus(entry.t, entry.v, kinks, slopes, t)) for t in grid]
    return np.max(np.abs(np.interp(grid, ts, vs) - exact))


class TestExactMinplus:
    """The cascade of window minima and the point queue, for 2-6 kinks."""

    @settings(max_examples=100, deadline=None)
    @given(multi_kink_entries())
    def test_matches_rational_oracle(self, case):
        arc, entry = case
        assert 2 <= len(arc.flux.conjugate_kinks()) <= 6
        ts, vs = _exact_minplus(entry, arc)
        assert np.all(np.diff(ts) > 0) and ts[0] == entry.t[0] + arc.mu
        scale = max(1.0, entry.total)
        assert exact_exit_error(entry, arc, ts, vs) <= 1e-14 * scale
        assert vs[-1] == pytest.approx(entry.total, abs=1e-14 * scale)

    def test_tiny_rate_before_a_jump(self):
        # the envelope reported 1e-12 at mu + 5.6e-12, where the exit is 5.6e-24
        entry = CumulativeCurve.from_step_rates([0.0, 1.0, 2.0], [1e-12, 0.5])
        ts, vs = _exact_minplus(entry, SAMPLED_ARC)
        ref_t, ref_v = reference_envelope(entry, SAMPLED_ARC)
        assert exact_exit_error(entry, SAMPLED_ARC, ts, vs, ref_t) <= 1e-14 * entry.total
        assert exact_exit_error(entry, SAMPLED_ARC, ref_t, ref_v) > 1e-13

    def test_round_numbers_tie_exactly(self):
        # lines tie exactly at a candidate time, where the least line changes
        flux = FluxDescriptor.sampled([[0, 0], [0.25, 0.5], [0.5, 0.75], [1.5, 1.25], [2.5, 0]])
        arc = ArcDescriptor("a", "b", 2.0, flux)
        entry = CumulativeCurve.from_step_rates([0.0, 0.25, 0.5, 0.75, 1.25, 2.25],
                                                [1.0, 2.0, 0.5, 1.0, 2.0])
        ts, vs = _exact_minplus(entry, arc)
        assert exact_exit_error(entry, arc, ts, vs) <= 1e-14 * entry.total

    def test_passes_keep_only_kinks(self):
        # a pass that kept every candidate t and t + ell would double the
        # points at each of this table's 16 passes
        rho = 0.5 * (np.arange(18) / 17) ** 1.5
        flux = FluxDescriptor.sampled(np.column_stack((np.append(rho, 1.0),
                                                       np.append(rho * (1 - rho), 0.0))))
        arc = ArcDescriptor("a", "b", 1.0, flux)
        assert len(flux.conjugate_kinks()) == 17
        entry = CumulativeCurve.from_step_rates([0.0, 1.0, 2.0, 3.0, 4.0], [0.1, 0.3, 0.05, 0.2])
        ts, vs = _exact_minplus(entry, arc)
        assert len(ts) < 40
        assert exact_exit_error(entry, arc, ts, vs) <= 1e-14 * entry.total

    @pytest.mark.parametrize("rates", [[0.1, 0.1], [0.1, 0.0]])
    def test_rates_up_to_the_first_slope_pass_through(self, rates):
        # no window changes an entry whose rates stay at or below u_1 = 0.18
        entry = CumulativeCurve.from_step_rates([0.0, 1.0, 2.0], rates)
        ts, vs = _exact_minplus(entry, SAMPLED_ARC)
        assert np.array_equal(ts, entry.t + SAMPLED_ARC.mu) and np.array_equal(vs, entry.v)


@st.composite
def cascade_entries(draw):
    """An arc and an entry on which the cascade may stop early or find no
    queue: rates below u_1, rates at a kernel slope, rates at F_max or 0 (a
    capped cell), -0.0 values, breakpoints a rounding apart with any rise,
    or a ``multi_kink_entries`` case, from a start in [-1e3, 1e3].  The arc
    is that case's, or the triangular, two-kink sampled or Greenshields one."""
    kind = draw(st.sampled_from(["below", "slope", "capped", "negzero", "rounding", "multi"]))
    arc, entry = draw(multi_kink_entries())
    if kind == "multi":
        return arc, entry
    arc = draw(st.sampled_from([arc, TRI_ARC, SAMPLED_ARC, GS_ARC]))
    slopes = arc.flux.exit_table(1e-3)._g_u[1:].tolist()     # u_1 < ... < u_m = F_max
    n = draw(st.integers(0, 8))
    start = draw(st.floats(-1e3, 1e3))    # far from 0, u*t rounds more than the rises
    if kind == "rounding":
        # each step is one ulp or a width; each rise is 0, a slope's worth or any
        t, v = [start], [0.0]
        for _ in range(n):
            t.append(np.nextafter(t[-1], np.inf) if draw(st.booleans())
                     else t[-1] + draw(st.floats(0.01, 2.0)))
            rise = draw(st.one_of(st.just(0.0), st.floats(0.0, 1.0),
                                  st.sampled_from(slopes).map(lambda u: u * (t[-1] - t[-2]))))
            v.append(v[-1] + rise)
        return arc, CumulativeCurve(t, v, validate=False)
    rate = {"below": st.floats(0.0, slopes[0], exclude_max=True),
            "slope": st.sampled_from([0.0] + slopes),
            "capped": st.sampled_from([0.0, slopes[-1]]),
            "negzero": st.one_of(st.just(0.0), st.floats(0.0, 3.0 * slopes[-1]))}[kind]
    rates = [draw(rate) for _ in range(n)]
    times = start + np.concatenate(([0.0], np.cumsum([draw(st.floats(0.01, 2.0))
                                                      for _ in range(n)])))
    entry = CumulativeCurve.from_step_rates(times, rates) if n else CumulativeCurve.zero(start)
    if kind == "negzero":
        entry = CumulativeCurve(entry.t, np.where(entry.v == 0.0, -0.0, entry.v),
                                validate=False)
    return arc, entry


@st.composite
def capacity_runs(draw):
    """A capacity F and point-queue input (taus, U) of runs at rate F or 0,
    each run a width or one ulp, from a start in [-1e3, 1e3]."""
    F = draw(st.one_of(st.sampled_from([0.25, 0.5, 0.75, 1.0, 2.0]), st.floats(0.1, 3.0)))
    taus, U = [draw(st.floats(-1e3, 1e3))], [0.0]
    for _ in range(draw(st.integers(1, 8))):
        taus.append(np.nextafter(taus[-1], np.inf) if draw(st.booleans())
                    else taus[-1] + draw(st.floats(0.01, 2.0)))
        U.append(U[-1] + draw(st.sampled_from([F, F, 0.0])) * (taus[-1] - taus[-2]))
    return F, taus, U


class TestCascadeStops:
    """The cascade stops at the first kernel piece that leaves the curve as it
    is, and the point queue returns the entry when no queue forms: the same
    bits, sign bits included, as running every pass and the whole queue."""

    @settings(max_examples=300, deadline=None)
    @given(cascade_entries())
    def test_matches_the_full_cascade(self, case):
        arc, entry = case
        ts, vs = _exact_minplus(entry, arc)
        ref_t, ref_v = full_cascade(entry, arc)
        assert ts.tobytes() == ref_t.tobytes()
        assert vs.tobytes() == ref_v.tobytes()

    @settings(max_examples=500, deadline=None)
    @given(capacity_runs())
    @example((0.75, [0.52, 0.5200000000000001, 1.1900000000000002, 2.38],
              [0.0, 8.326672684688674e-17, 0.5025000000000002, 1.395]))
    def test_point_queue_reads_w_pointwise(self, case):
        # no rate exceeds F, yet W = U - F*tau may rise by a rounding, and the
        # full queue then drains one ulp late: only the pointwise W says so
        F, taus, U = case
        ts, vs = curves._point_queue(np.array(taus), np.array(U), F)
        ref_t, ref_v = full_point_queue(np.array(taus), np.array(U), F)
        assert ts.tobytes() == ref_t.tobytes()
        assert vs.tobytes() == ref_v.tobytes()

    def test_an_entry_below_u1_takes_no_window_pass(self, monkeypatch):
        calls = []
        monkeypatch.setattr(curves, "_window_min", lambda *a: calls.append(a))
        entry = CumulativeCurve.from_step_rates([0.0, 1.0, 2.0], [0.1, 0.05])
        ts, vs = _exact_minplus(entry, SAMPLED_ARC)
        assert calls == []
        assert np.array_equal(ts, entry.t + SAMPLED_ARC.mu) and np.array_equal(vs, entry.v)


@st.composite
def near_total_tails(draw):
    """A total and a curve of values up to it, nondecreasing from 0, whose last
    values lie 0 to 80 ulp below the total (the snap reaches 64 eps)."""
    total = draw(st.one_of(st.floats(1e-6, 1e6), st.sampled_from([0.5, 1.0, 2.0, 3.0])))
    below = sorted(draw(st.lists(st.integers(0, 80), min_size=1, max_size=6)), reverse=True)
    tail = []
    for k in below:
        x = total
        for _ in range(k):
            x = np.nextafter(x, 0.0)
        tail.append(float(x))
    head = sorted(draw(st.lists(st.floats(0.0, 0.999), max_size=4)))
    v = [0.0] + [h * total for h in head] + tail
    t = np.cumsum(np.concatenate(([0.0], [draw(st.floats(0.01, 1.0)) for _ in v[1:]])))
    return total, CumulativeCurve(t, v, validate=False)


class TestSnapTail:
    @settings(max_examples=300, deadline=None)
    @given(near_total_tails())
    def test_matches_the_mask_form(self, case):
        total, curve = case
        got, want = _snap_tail(curve, total), mask_snap(curve, total)
        assert (got is curve) == (want is curve)
        assert got.t.tobytes() == want.t.tobytes()
        assert got.v.tobytes() == want.v.tobytes()


class TestMassGuard:
    """An exit that misses its entry's mass is an error naming the arc, on each exit path."""

    def test_point_queue(self):
        # capacity 2.5e-300 would drain 1e10 vehicles at 4e309, past the float range
        arc = ArcDescriptor("a", "b", 1.0, FluxDescriptor.triangular(1.0, 1e-300, 2.5))
        entry = CumulativeCurve.from_step_rates([0.0, 1.0], [1e10])
        with pytest.raises(LoadingError, match=r"arc \('a', 'b'\): the exit carries 2.5e-300 "
                                               r"of the entry's 1e\+10 vehicles"):
            lax_hopf_exit(entry, arc)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_envelope(self):
        # SAMPLED_ARC's flows scaled by 1e-300: the point queue's drain time overflows
        scaled = [[0, 0], [0.2, 0.18e-300], [0.5, 0.25e-300], [0.8, 0.12e-300], [1, 0]]
        arc = ArcDescriptor("a", "b", 1.0, FluxDescriptor.sampled(scaled))
        entry = CumulativeCurve.from_step_rates([0.0, 1.0], [1e10])
        with pytest.raises(LoadingError, match=r"arc \('a', 'b'\): the exit carries 0.793651 "
                                               r"of the entry's 1e\+10 vehicles"):
            lax_hopf_exit(entry, arc)

    def test_greenshields(self):
        # capacity 2.5e-301: its table's point queue would drain 1e10 vehicles
        # at 4e310, past the float range
        arc = ArcDescriptor("a", "b", 1.0, FluxDescriptor.greenshields(1e-300, 1.0))
        entry = CumulativeCurve.from_step_rates([0.0, 1.0], [1e10])
        with pytest.raises(LoadingError, match=r"arc \('a', 'b'\): the exit carries \S+ "
                                               r"of the entry's 1e\+10 vehicles"):
            lax_hopf_exit(entry, arc)


class TestGreenshieldsTable:
    """A Greenshields exit is exact for its table of chords; these measure the
    table against the smooth kernel, through a grid exit at step 1e-4."""

    DT = 1e-3
    REF_DT = 1e-4

    @settings(max_examples=25, deadline=None)
    @given(st.floats(0.5, 2.0), st.floats(0.5, 2.0), st.floats(0.5, 2.0),
           st.lists(st.tuples(st.floats(0.0, 1.5), st.floats(0.1, 1.0)),
                    min_size=1, max_size=8))
    def test_against_a_fine_grid(self, v_free, rho_jam, L, bins):
        arc = ArcDescriptor("a", "b", L, FluxDescriptor.greenshields(v_free, rho_jam))
        fractions, widths = np.array(bins).T
        entry = CumulativeCurve.from_step_rates(
            np.concatenate(([0.0], np.cumsum(widths))), fractions * arc.flux.f_max)
        if entry.total <= 0:
            return
        out = lax_hopf_exit(entry, arc, self.DT)
        ref = grid_exit(entry, arc, self.REF_DT)
        slack = arc.flux.f_max * self.REF_DT      # the reference's own vehicle error
        # the table's kernel lies below K by at most L * rho_jam * pi**2 / (16 m**2),
        # which m >= pi / (2 sqrt(dt)) bounds by L * rho_jam * dt / 4
        ts = np.union1d(out.t, ref.t)
        assert np.max(np.abs(out(ts) - ref(ts))) <= L * rho_jam * self.DT / 4 + slack
        # 9e-4 free-flow times: the dt-1e-3 grid exit's worst on a unit arc
        assert exit_time_gap(out, ref, slack) <= 9e-4 * arc.mu

    def test_steady_travel_times(self):
        # flows from 1e-3 to 0.9 F_max: uniform knots put the lowest ones
        # 1.25e-2 late at 40 knots, and knots at 0.2 rho_jam read 0 at 0.64 F_max
        for u in np.geomspace(1e-3, 0.9, 24) * GS_ARC.flux.f_max:
            net = Network(["a", "b"], [GS_ARC], [GroupDescriptor(
                10.0 * u, "a", "b", CostFunction.affine(0.0, -1.0),
                CostFunction.affine(0.0, 1.0))], dt=self.DT)
            loaded = network_load(net, DepartureProfile(0.0, 10.0, np.full((1, 1, 1), u)))
            for t in (4.0, 6.0, 8.0):
                late = arrival_time_path(loaded, net.paths[0], t) - (t + steady_travel_time(u))
                assert 0.0 <= late <= 2 * self.DT


class TestExitTime:
    def test_free_flow(self):
        entry = CumulativeCurve.zero()
        comp = ExitComputation(entry, lax_hopf_exit(entry, GS_ARC), GS_ARC)
        assert comp.exit_time(4.0) == pytest.approx(5.0)

    def test_steady_state(self):
        entry = CumulativeCurve.from_step_rates([0.0, 10.0], [0.16])
        comp = ExitComputation(entry, lax_hopf_exit(entry, GS_ARC, dt=1e-3), GS_ARC)
        assert comp.exit_time(2.0) == pytest.approx(3.25, abs=2e-3)

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
            new = _grid_minplus(entry, GS_ARC, dt)
            with monkeypatch.context() as m:
                m.setattr(curves, "_monge_row_minima", rowwise_monge_row_minima)
                ref = _grid_minplus(entry, GS_ARC, dt)
            assert np.array_equal(new[0], ref[0]) and np.array_equal(new[1], ref[1])

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
            ts, vs = _grid_minplus(entry, arc, dt)
        assert len(calls) == 1
        assert vs[-1] == entry.total
        assert ts[0] == entry.t[0] + arc.mu


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


@pytest.mark.filterwarnings("error::RuntimeWarning")
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
