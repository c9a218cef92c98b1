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


class TestHKernel:
    def test_zero_on_support(self):
        assert GS.kernel(1.0, -0.5) == 0.0

    def test_matches_conjugate_grid(self):
        assert GS.kernel(1.0, -2.0) == pytest.approx(
            -greenshields_conjugate_grid(2.0), abs=1e-6
        )
        assert GS.kernel(1.0, -2.0) == pytest.approx(-0.125, abs=1e-12)

    @pytest.mark.parametrize("flux", ALL_KINDS)
    def test_zero_at_minus_mu(self, flux):
        L = 1.3
        mu = L * flux.free_flow_pace
        assert flux.kernel(L, -mu) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("flux", ALL_KINDS)
    def test_concavity(self, flux):
        L = 0.7
        s = np.linspace(-6.0, 1.0, 601)
        h = flux.kernel(L, s)
        assert np.all(h <= 1e-12)
        chords = 0.5 * (h[:-2] + h[2:])
        assert np.all(h[1:-1] >= chords - 1e-9)


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
