"""Flux functions: closed forms, inverses, conjugates, and kernels."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kinwave import (ArcDescriptor, CapacityError, ConfigurationError, DomainError,
                     FluxDescriptor)

from oracles import greenshields_conjugate_grid, greenshields_density

GS = FluxDescriptor.greenshields(1.0, 1.0)
TRI = FluxDescriptor.triangular(1.0, 1.0, 1.0)
SAMPLED = FluxDescriptor.sampled(
    [[0.0, 0.0], [0.2, 0.18], [0.5, 0.25], [0.8, 0.12], [1.0, 0.0]]
)
ALL_KINDS = [GS, TRI, SAMPLED]
NAN, INF = float("nan"), float("inf")


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
