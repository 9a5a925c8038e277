import numpy as np
import pytest

from odds_nls.mesh import build_mesh
from odds_nls.observables import (averaged_energy_growth, discrete_charge,
                                  discrete_energy, fit_order,
                                  trapezoid_weights)


class TestQuadrature:
    def test_weights_on_nonuniform_nodes_by_hand(self):
        nodes = np.array([0.0, 1.0, 3.0, 4.0])
        np.testing.assert_allclose(trapezoid_weights(nodes),
                                   [0.5, 1.5, 1.5, 0.5])

    def test_weights_sum_to_domain_length(self):
        mesh = build_mesh(-2.0, 5.0, 4, 9)
        assert trapezoid_weights(mesh.nodes).sum() == pytest.approx(7.0)

    def test_needs_two_nodes(self):
        with pytest.raises(ValueError):
            trapezoid_weights(np.array([1.0]))


class TestCharge:
    def test_matches_analytic_integral(self):
        # int_{-1}^{1} sin^2(pi x) dx = 1
        mesh = build_mesh(-1.0, 1.0, 4, 16)
        u = np.sin(np.pi * mesh.nodes) + 0j
        assert discrete_charge(u, mesh.nodes) == pytest.approx(1.0, abs=2e-3)

    def test_2d_separable_product(self):
        mesh = build_mesh(-1.0, 1.0, 3, 12)
        mesh_y = build_mesh(0.0, 2.0, 3, 12)
        f = np.sin(np.pi * mesh.nodes)
        g = np.sin(np.pi * mesh_y.nodes)
        u = np.outer(f, g) + 0j
        want = (discrete_charge(f + 0j, mesh.nodes)
                * discrete_charge(g + 0j, mesh_y.nodes))
        got = discrete_charge(u, mesh.nodes, mesh_y.nodes)
        assert got == pytest.approx(want, rel=1e-12)


class TestEnergy:
    def test_matches_analytic_value_for_sine(self):
        # H[sin(pi x)] on [-1,1]: 1/2 int pi^2 cos^2 - 1/4 int sin^4
        #                       = pi^2/2 - 3/16
        mesh = build_mesh(-1.0, 1.0, 4, 20)
        u = np.sin(np.pi * mesh.nodes) + 0j
        want = np.pi**2 / 2.0 - 3.0 / 16.0
        assert discrete_energy(u, mesh) == pytest.approx(want, rel=1e-3)

    def test_2d_value_for_separable_gaussian(self):
        # for u = exp(-(x^2+y^2)/2) on a wide box the integrals are Gaussian:
        # 1/2 int |grad u|^2 = pi/2, 1/4 int u^4 = pi/8
        mesh = build_mesh(-7.0, 7.0, 10, 20)
        X, Y = np.meshgrid(mesh.nodes, mesh.nodes, indexing="ij")
        u = np.exp(-(X**2 + Y**2) / 2.0) + 0j
        want = np.pi / 2.0 - np.pi / 8.0
        # trapezoid weights limit the quadrature, not the derivative operator
        assert discrete_energy(u, (mesh, mesh)) == pytest.approx(want,
                                                                 rel=2e-3)


class TestGrowthFit:
    def test_recovers_exact_line(self):
        t = np.linspace(0.0, 10.0, 50)
        slope, intercept, r2 = averaged_energy_growth(t, 4.0 + 0.3 * t)
        assert slope == pytest.approx(0.3)
        assert intercept == pytest.approx(4.0)
        assert r2 == pytest.approx(1.0)

    def test_averages_trajectories_first(self):
        t = np.linspace(0.0, 1.0, 20)
        rows = np.vstack([2.0 + t, 4.0 + t])  # mean is 3 + t
        slope, intercept, _ = averaged_energy_growth(t, rows)
        assert slope == pytest.approx(1.0)
        assert intercept == pytest.approx(3.0)

    def test_r2_degrades_with_scatter(self):
        rng = np.random.default_rng(0)
        t = np.linspace(0.0, 1.0, 200)
        clean = 1.0 + 0.5 * t
        _, _, r2_noisy = averaged_energy_growth(t, clean + rng.normal(0, 0.5, 200))
        assert r2_noisy < 0.5

    def test_rejects_short_series(self):
        with pytest.raises(ValueError):
            averaged_energy_growth(np.array([1.0]), np.array([2.0]))


class TestErrorAndOrder:
    def test_fit_order_on_synthetic_power_law(self):
        taus = 2.0 ** -np.arange(4, 10)
        errors = 3.0 * taus ** 1.5
        fit = fit_order(taus, errors)
        np.testing.assert_allclose(fit.orders, 1.5, atol=1e-12)
        assert fit.global_order == pytest.approx(1.5, abs=1e-12)

    def test_fit_order_reproduces_published_style_ladder(self):
        # order entries are log2(err_i/err_{i+1}) for a halving ladder; check
        # the arithmetic against a hand-computed table
        taus = 2.0 ** -np.arange(4, 10)
        errors = np.array([0.0581, 0.0297, 0.0139, 0.0080, 0.0061, 0.0032])
        fit = fit_order(taus, errors)
        want = [0.97, 1.10, 0.79, 0.40, 0.93]  # orders quoted to 2 decimals
        np.testing.assert_allclose(fit.orders, want, atol=1e-2)
        assert 0.4 <= fit.global_order <= 1.2

    def test_fit_order_input_validation(self):
        with pytest.raises(ValueError):
            fit_order([0.1, 0.2], [1.0, 2.0])     # not decreasing
        with pytest.raises(ValueError):
            fit_order([0.2, 0.1], [1.0, 0.0])     # nonpositive error
        with pytest.raises(ValueError):
            fit_order([0.1], [1.0])               # too short
