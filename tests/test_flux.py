"""Flux functions: closed forms, inverses, conjugates, and kernels."""
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kinwave import (ArcDescriptor, CapacityError, ConfigurationError, DomainError,
                     FluxDescriptor)

from oracles import (TriangularClosedForm, greenshields_conjugate_grid, greenshields_density,
                     vertex_conjugate)

GS = FluxDescriptor.greenshields(1.0, 1.0)
TRI = FluxDescriptor.triangular(1.0, 1.0, 1.0)
SAMPLED = FluxDescriptor.sampled(
    [[0.0, 0.0], [0.2, 0.18], [0.5, 0.25], [0.8, 0.12], [1.0, 0.0]]
)
ALL_KINDS = [GS, TRI, SAMPLED]
NAN, INF = float("nan"), float("inf")
EPS = np.finfo(float).eps


def bits(x):
    """The float64 bit patterns of ``x``, so that == compares bit for bit."""
    return np.asarray(x, dtype=float).view(np.int64)


class TestEvalFlux:
    def test_zero_density(self):
        assert GS.flow(0.0) == 0.0

    def test_greenshields_vertex(self):
        assert GS.flow(0.5) == pytest.approx(0.25, abs=1e-12)

    def test_triangular_free_branch(self):
        assert TRI.flow(0.25) == pytest.approx(0.25, abs=1e-12)

    def test_out_of_domain(self):
        with pytest.raises(DomainError):
            GS.flow(1.5)
        with pytest.raises(DomainError):
            GS.flow(-0.1)

    def test_capacity_values(self):
        assert GS.f_max == pytest.approx(0.25)
        assert TRI.f_max == pytest.approx(0.5)
        assert FluxDescriptor.triangular(1.0, 1.0, 2.0).f_max == pytest.approx(1.0)

    @pytest.mark.parametrize("flux", ALL_KINDS)
    def test_capacity_bound_everywhere(self, flux):
        grid = np.linspace(0.0, flux.rho_jam, 2001)
        assert np.all(flux.flow(grid) <= flux.f_max + 1e-12)


class TestInverseG:
    def test_at_zero(self):
        assert GS.density(0.0) == pytest.approx(0.0, abs=1e-12)

    def test_at_capacity(self):
        assert GS.density(0.25) == pytest.approx(0.5, abs=1e-9)

    def test_interior_against_bisection(self):
        assert GS.density(0.16) == pytest.approx(
            greenshields_density(0.16), abs=1e-9
        )
        assert GS.density(0.16) == pytest.approx(0.2, abs=1e-9)

    def test_over_capacity(self):
        with pytest.raises(CapacityError):
            GS.density(0.3)

    @pytest.mark.parametrize("flux", ALL_KINDS)
    def test_roundtrip_g_of_F(self, flux):
        rhos = np.linspace(0.0, flux.rho_star, 101)
        back = flux.density(flux.flow(rhos))
        tol = 1e-9 if flux.kind != "sampled" else 1e-6
        assert np.max(np.abs(back - rhos)) <= tol


class TestLegendre:
    def test_at_zero_pace(self):
        assert GS.conjugate(0.0) == 0.0

    def test_below_free_flow_pace(self):
        assert GS.conjugate(1.0) == pytest.approx(
            greenshields_conjugate_grid(1.0), abs=1e-8
        )
        assert GS.conjugate(1.0) == 0.0

    def test_above_free_flow_pace(self):
        assert GS.conjugate(2.0) == pytest.approx(
            greenshields_conjugate_grid(2.0), abs=1e-6
        )
        assert GS.conjugate(2.0) == pytest.approx(0.125, abs=1e-12)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("p", [1.0 + 2.0**-30, 1.5, 3.0, 1e150, 1e300])
    def test_greenshields_at_extreme_paces(self, p):
        # g*(p) = R*(a*p - 1)**2 / (4*a*p), a = 2 and R = 3 here: finite and to a
        # few ulps from just above the free-flow pace to paces whose square
        # overflows, and 0 up to that pace, subnormal ones included
        flux = FluxDescriptor.greenshields(2.0, 3.0)
        ap = 2 * Fraction(p)
        exact = 3 * (ap - 1) ** 2 / (4 * ap)
        assert flux.conjugate(p) == pytest.approx(float(exact), rel=4e-16)
        assert np.all(flux.conjugate(np.array([-1.0, 0.0, 5e-324, 0.5])) == 0.0)

    @pytest.mark.parametrize("flux", ALL_KINDS)
    def test_monotone_and_nonnegative(self, flux):
        ps = np.linspace(0.0, 5.0 * flux.free_flow_pace, 400)
        vals = flux.conjugate(ps)
        assert np.all(vals >= 0.0)
        assert np.all(np.diff(vals) >= -1e-12)

    @pytest.mark.parametrize("flux", ALL_KINDS)
    def test_conjugacy_roundtrip(self, flux):
        # g*(p) + g(u*) = p*u* at the maximizer u*
        for p in np.linspace(flux.free_flow_pace, 3.0 * flux.free_flow_pace, 25):
            us = np.linspace(0.0, flux.f_max, 4001)
            vals = p * us - flux.density(us)
            i = int(np.argmax(vals))
            u_star = us[i]
            assert flux.conjugate(p) + flux.density(u_star) == pytest.approx(
                p * u_star, abs=1e-6
            )

    @pytest.mark.parametrize("flux", ALL_KINDS)
    def test_conjugate_inverse(self, flux):
        for x in (0.0, 0.01, 0.2, 1.7):
            p = flux.conjugate_inverse(x)
            assert flux.conjugate(p) == pytest.approx(x, abs=1e-9)
        assert flux.conjugate_inverse(0.0) == flux.free_flow_pace
        xs = np.concatenate(([0.0], np.logspace(-12, 4, 97)))
        ps = flux.conjugate_inverse(xs)
        assert ps.shape == xs.shape
        assert ps[0] == flux.free_flow_pace and np.all(np.diff(ps) > 0)
        assert np.array_equal(ps, [flux.conjugate_inverse(x) for x in xs])
        back = flux.conjugate(ps)
        assert np.all(np.abs(back - xs) <= 1e-12 * np.maximum(xs, 1e-3))
        with pytest.raises(DomainError):
            flux.conjugate_inverse(np.array([0.1, -1e-3]))

    @pytest.mark.parametrize("flux", ALL_KINDS)
    def test_wave_pace_is_density_slope(self, flux):
        us = np.linspace(0.0, flux.f_max, 41)[:-1] + 1e-3 * flux.f_max
        d = 1e-7
        slope = (flux.density(us + d) - flux.density(us - d)) / (2.0 * d)
        assert flux.wave_pace(us) == pytest.approx(slope, rel=1e-5)
        assert flux.wave_pace(0.0) == flux.free_flow_pace
        # the sampled segment starting at a breakpoint flow holds it
        assert SAMPLED.wave_pace(0.18) == pytest.approx((0.5 - 0.2) / (0.25 - 0.18))


def unit_arc(flux, length=1.0):
    return ArcDescriptor("a", "b", length, flux)


class TestHKernel:
    """h(s) = -K(-s), the reflected min-plus kernel, from ArcDescriptor.minplus_kernel."""

    @staticmethod
    def h(arc, s):
        return -arc.minplus_kernel(-np.asarray(s, dtype=float))

    def test_zero_on_support(self):
        assert self.h(unit_arc(GS), -0.5) == 0.0

    def test_matches_conjugate_grid(self):
        assert self.h(unit_arc(GS), -2.0) == pytest.approx(
            -greenshields_conjugate_grid(2.0), abs=1e-6
        )
        assert self.h(unit_arc(GS), -2.0) == pytest.approx(-0.125, abs=1e-12)

    @pytest.mark.parametrize("flux", ALL_KINDS)
    def test_zero_at_minus_mu(self, flux):
        arc = unit_arc(flux, 1.3)
        assert self.h(arc, -arc.mu) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("flux", ALL_KINDS)
    def test_concavity(self, flux):
        s = np.linspace(-6.0, 1.0, 601)
        h = self.h(unit_arc(flux, 0.7), s)
        assert np.all(h <= 1e-12)
        chords = 0.5 * (h[:-2] + h[2:])
        assert np.all(h[1:-1] >= chords - 1e-9)

    @pytest.mark.parametrize("flux", ALL_KINDS)
    def test_kernel_inverse_round_trip(self, flux):
        arc = unit_arc(flux, 1.3)
        assert arc.minplus_kernel_inverse(0.0) == arc.mu
        ys = np.logspace(-6, 3, 28)
        assert arc.minplus_kernel(arc.minplus_kernel_inverse(ys)) == pytest.approx(
            ys, rel=1e-12)

    def test_h_form_is_gone(self):
        # the old sign convention must not be reachable under any name
        assert not hasattr(FluxDescriptor, "kernel")
        assert not hasattr(ArcDescriptor, "kernel")


class TestValidation:
    def test_bad_parameters(self):
        with pytest.raises(ConfigurationError):
            FluxDescriptor.greenshields(0.0, 1.0)
        with pytest.raises(ConfigurationError):
            FluxDescriptor.triangular(1.0, -1.0, 1.0)

    def test_sampled_rejects_nonconcave(self):
        with pytest.raises(ConfigurationError):
            FluxDescriptor.sampled([[0, 0], [0.3, 0.1], [0.5, 0.4], [1, 0]])

    def test_sampled_rejects_flat_increasing_branch(self):
        # a flat segment before the capacity point has no single-valued inverse
        with pytest.raises(ConfigurationError):
            FluxDescriptor.sampled(
                [[0, 0], [0.2, 0.2], [0.4, 0.2], [0.6, 0.25], [1, 0]]
            )

    def test_sampled_flat_top_starts_capacity_at_its_left_end(self):
        # 7.5*x*(1 - x) is 1.8 at x = 0.4 and x = 0.6, but rounding lifts the
        # right end by an ulp; the flat top must not read as a flat rise
        x = np.array([0.0, 0.4, 0.6, 1.0])
        flux = FluxDescriptor.sampled(np.column_stack((2.5 * x, 7.5 * x * (1.0 - x))))
        assert flux.rho_star == 1.0
        assert flux.f_max == pytest.approx(1.8, rel=1e-15)

    def test_sampled_rejects_boundary_capacity(self):
        with pytest.raises(ConfigurationError):
            FluxDescriptor.sampled([[0, 0], [0.5, 0.0], [1, 0]])

    def test_arc_requires_positive_length(self):
        with pytest.raises(ConfigurationError):
            ArcDescriptor("a", "b", 0.0, TRI)

    @pytest.mark.parametrize("make", [
        lambda: FluxDescriptor.greenshields(NAN, 1.0),
        lambda: FluxDescriptor.greenshields(1.0, INF),
        lambda: FluxDescriptor.triangular(1.0, NAN, 1.0),
        lambda: FluxDescriptor.triangular(INF, 1.0, 1.0),
        lambda: FluxDescriptor.sampled([[0, 0], [0.5, NAN], [1, 0]]),
        lambda: FluxDescriptor.sampled([[0, 0], [0.5, 0.25], [INF, 0]]),
    ], ids=["gs-nan", "gs-inf", "tri-nan", "tri-inf", "sampled-nan", "sampled-inf"])
    def test_flux_rejects_non_finite(self, make):
        with pytest.raises(ConfigurationError):
            make()

    @pytest.mark.parametrize("kind, params, match", [
        ("greenshields", {"v_free": 1.0}, "missing parameter 'rho_jam'"),
        ("triangular", {"v_free": 1.0, "w_back": 1.0}, "missing parameter 'rho_jam'"),
        ("sampled", {}, "missing parameter 'breakpoints'"),
        ("triangular", {"v_free": 1.0, "w_back": 1.0, "rho_jam": 1.0, "junk": 3},
         "unknown parameter 'junk'"),
        ("greenshields", {"v_free": 1.0, "rho_jam": 1.0, "w_back": 1.0},
         "unknown parameter 'w_back'"),
        ("parabolic", {"v_free": 1.0}, "unknown flux kind 'parabolic'"),
        (["triangular"], {}, "unknown flux kind"),
    ], ids=["gs-missing", "tri-missing", "sampled-missing", "tri-unknown", "gs-unknown",
            "unknown-kind", "unhashable-kind"])
    def test_parameters_checked_against_kinds(self, kind, params, match):
        with pytest.raises(ConfigurationError, match=match):
            FluxDescriptor(kind, params)

    @pytest.mark.parametrize("make, builds", [
        (lambda: FluxDescriptor.triangular(1.0, 1e100, 1.0), False),
        (lambda: FluxDescriptor.triangular(1e300, 1e300, 1e300), False),
        (lambda: FluxDescriptor.triangular(1e-320, 1.0, 1.0), False),
        (lambda: FluxDescriptor.greenshields(1e-320, 1.0), False),
        (lambda: FluxDescriptor.greenshields(1e200, 1e200), False),
        (lambda: FluxDescriptor.triangular(10**-6.5, 10**3.5, 10**11.5), True),
        (lambda: FluxDescriptor.triangular(1e-10, 1.0, 1.0), True),
    ], ids=["tri-rho-star-rounds-onto-rho-jam", "tri-rho-star-overflows",
            "tri-pace-inf", "gs-pace-inf", "gs-f-max-inf", "tri-wide-scales", "tri-slow"])
    def test_derived_quantities_range_checked(self, make, builds):
        if not builds:
            with pytest.raises(ConfigurationError, match="needs 0 < rho_star < rho_jam"):
                make()
            return
        flux = make()
        assert 0 < flux.rho_star < flux.rho_jam
        assert 0 < flux.f_max < INF and 0 < flux.free_flow_pace < INF
        assert flux.conjugate_inverse(0.0) == flux.free_flow_pace

    def test_kinds_declare_the_parameters(self):
        for f in ALL_KINDS:
            assert list(f.params) == list(FluxDescriptor.KINDS[f.kind])
        assert FluxDescriptor("triangular", {"rho_jam": 1.0, "w_back": 1.0,
                                             "v_free": 1.0}).f_max == TRI.f_max

    @pytest.mark.parametrize("length", [NAN, INF])
    def test_arc_rejects_non_finite_length(self, length):
        with pytest.raises(ConfigurationError):
            ArcDescriptor("a", "b", length, TRI)

    def test_arc_mu(self):
        arc = ArcDescriptor("a", "b", 2.0, GS)
        assert arc.mu == pytest.approx(2.0)
        assert arc.key == ("a", "b")


@settings(max_examples=40, deadline=None)
@given(
    v=st.floats(0.3, 3.0),
    w=st.floats(0.3, 3.0),
    R=st.floats(0.3, 3.0),
    p_mult=st.floats(0.0, 4.0),
)
def test_triangular_conjugate_matches_grid_oracle(v, w, R, p_mult):
    flux = FluxDescriptor.triangular(v, w, R)
    p = p_mult * flux.free_flow_pace

    def g(u):
        return u / v

    us = np.linspace(0.0, flux.f_max, 2001)
    oracle = max(0.0, float(np.max(p * us - us / v)))
    assert flux.conjugate(p) == pytest.approx(oracle, abs=1e-9)


@settings(max_examples=60, deadline=None)
@given(
    v=st.floats(1e-3, 1e3),
    w=st.floats(1e-3, 1e3),
    R=st.floats(1e-3, 1e3),
    mults=st.lists(st.floats(-2.0, 4.0), min_size=1, max_size=8),
    xs=st.lists(st.floats(0.0, 1e4), max_size=8),
)
def test_triangular_table_matches_closed_forms(v, w, R, mults, xs):
    flux, old = FluxDescriptor.triangular(v, w, R), TriangularClosedForm(v, w, R)
    pace = old.free_flow_pace
    assert bits(flux.free_flow_pace) == bits(pace)
    assert np.array_equal(bits(flux.conjugate_kinks()), bits(old.conjugate_kinks()))
    # paces below, at and above 1/v_free; the conjugate and its inverse are bit-identical
    ps = np.array([m * pace for m in mults] + [np.nextafter(pace, 0.0), pace,
                                               np.nextafter(pace, INF)])
    for new_fn, old_fn, args in ((flux.conjugate, old.conjugate, ps),
                                 (flux.conjugate_inverse, old.conjugate_inverse,
                                  np.array([0.0] + xs))):
        assert np.array_equal(bits(new_fn(args)), bits(old_fn(args)))
        for a in args:
            assert bits(new_fn(float(a))) == bits(old_fn(float(a)))
    us = np.linspace(0.0, old.f_max, 41)
    assert np.array_equal(bits(flux.wave_pace(us)), bits(old.wave_pace(us)))
    assert np.all(np.abs(flux.density(us) - old.density(us)) <= 1e-15 * old.density(us))
    # the table recovers w_back from rho_jam - rho_star, which cancels by the
    # ratio w_back / v_free: bound the congested branch by that many ulps of F_max
    rho = np.linspace(0.0, R, 101)
    assert np.all(np.abs(flux.flow(rho) - old.flow(rho)) <= 4 * EPS * (1 + w / v) * old.f_max)
    assert np.all(np.abs(flux.flow(rho[rho <= old.rho_star]) - old.flow(rho[rho <= old.rho_star]))
                  <= 1e-15 * old.flow(rho[rho <= old.rho_star]))


@settings(max_examples=60, deadline=None)
@given(
    inner=st.lists(st.integers(1, 49), min_size=1, max_size=6, unique=True),
    skew=st.floats(0.5, 1.0),
    v=st.floats(0.3, 3.0),
    R=st.floats(0.3, 3.0),
    mults=st.lists(st.floats(-1.0, 3.0), min_size=1, max_size=16),
)
def test_sampled_conjugate_matches_vertex_max(inner, skew, v, R, mults):
    # chords of the concave x*(1 - x)**skew, as in test_curves.random_arcs
    x = np.array([0] + sorted(inner) + [50]) / 50.0
    pts = np.column_stack((R * x, v * R * x * (1.0 - x) ** skew))
    flux = FluxDescriptor.sampled(pts)
    kinks = flux.conjugate_kinks()
    p = np.concatenate((kinks, np.array(mults) * kinks[-1]))
    g = vertex_conjugate(pts, p)
    assert np.all(np.abs(flux.conjugate(p) - g) <= 1e-15 * np.maximum(1.0, g))


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["triangular", "sampled-one-kink", "sampled"]),
    a=st.floats(1e-3, 1e3),
    b=st.floats(1e-3, 1e3),
    R=st.floats(1e-3, 1e3),
    mults=st.lists(st.floats(-2.0, 4.0), min_size=1, max_size=8),
    xs=st.lists(st.floats(0.0, 1e4), max_size=8),
)
def test_conjugates_match_the_interp_path(kind, a, b, R, mults, xs):
    """With one kink the table's interpolation term is skipped; the result is
    bit for bit the one that adds it."""
    if kind == "triangular":
        flux = FluxDescriptor.triangular(a, b, R)
    elif kind == "sampled-one-kink":
        flux = FluxDescriptor.sampled([[0.0, 0.0], [R / (1 + b), a], [R, 0.0]])
    else:
        x = np.array([0.0, 0.2, 0.5, 0.8, 1.0])
        flux = FluxDescriptor.sampled(np.column_stack((R * x, a * R * x * (1.0 - x))))
    kinks, gstar = flux.conjugate_kinks(), flux._gstar
    assert (len(kinks) == 1) == (kind != "sampled")
    ps = np.array([m * kinks[-1] for m in mults] + [np.nextafter(kinks[0], 0.0), kinks[0],
                                                    np.nextafter(kinks[0], INF)])
    xs = np.array([0.0, *gstar, *xs])
    want_conj = flux.f_max * np.maximum(0.0, ps - kinks[-1]) + np.interp(ps, kinks, gstar)
    want_inv = np.maximum(0.0, xs - gstar[-1]) / flux.f_max + np.interp(xs, gstar, kinks)
    assert np.array_equal(bits(flux.conjugate(ps)), bits(want_conj))
    assert np.array_equal(bits(flux.conjugate_inverse(xs)), bits(want_inv))
    for p, want in zip(ps, want_conj):
        assert bits(flux.conjugate(float(p))) == bits(want)
    for x, want in zip(xs, want_inv):
        assert bits(flux.conjugate_inverse(float(x))) == bits(want)


# F's slopes rise by 5e-10 at the third point, within the concavity tolerance
WOBBLY = [[0.0, 0.0], [0.1, 0.1], [0.2, 0.2 + 5e-11], [0.3, 0.3], [0.5, 0.4], [1.0, 0.0]]


@pytest.mark.parametrize("rho_scale", [1e-6, 1.0, 1e6])
@pytest.mark.parametrize("flow_scale", [1e-6, 1e-3, 1.0, 1e3, 1e6])
def test_sampled_wobble_repaired_at_any_scale(rho_scale, flow_scale):
    """A wobble the checks forgive at one scale is forgiven at every scale, and
    the table drops the point, so its kinks rise and the conjugate is exact."""
    pts = np.array(WOBBLY) * [rho_scale, flow_scale]
    flux = FluxDescriptor.sampled(pts)
    kinks = flux.conjugate_kinks()
    assert np.all(np.diff(kinks) > 0)
    p = np.linspace(-1.0, 3.0, 4001) * kinks[-1]
    g = vertex_conjugate(pts, p)
    assert np.max(np.abs(flux.conjugate(p) - g)) <= 1e-12 * np.max(g)
