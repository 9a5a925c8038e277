import time

import numpy as np
import pytest

from odds_nls.baselines import (FDSCN1D, FDSCN2D, SMM1D, SMM2D,
                                FixedPointError, UniformGrid1D,
                                run_uniform_trajectory, uniform_grid_1d)
from odds_nls.config import apply_overrides, builtin_configs
from odds_nls.experiments import soliton_datum
from odds_nls.noise import NoiseModel1D, NoiseModel2D
from odds_nls.stepper import StepFailure, state_sha256


def exact_soliton(x, t):
    # standing wave of i u_t = u_xx + |u|^2 u with kappa = 1
    return np.sqrt(2.0) / np.cosh(x) * np.exp(-1j * t)


def gaussian_plane():
    """A 25x21 grid on [-4, 4]^2 and a Gaussian on it with zero edges."""
    gx = uniform_grid_1d(-4.0, 4.0, 25)
    gy = uniform_grid_1d(-4.0, 4.0, 21)
    X, Y = np.meshgrid(gx.nodes, gy.nodes, indexing="ij")
    u0 = np.exp(-(X**2 + Y**2)).astype(complex)
    u0[0, :] = u0[-1, :] = 0.0
    u0[:, 0] = u0[:, -1] = 0.0
    return gx, gy, u0


def test_grid_construction_and_validation():
    g = uniform_grid_1d(-1.0, 3.0, 5)
    assert isinstance(g, UniformGrid1D)
    np.testing.assert_allclose(g.nodes, [-1.0, 0.0, 1.0, 2.0, 3.0])
    assert g.h == pytest.approx(1.0)
    with pytest.raises(ValueError):
        uniform_grid_1d(0.0, 1.0, 2)
    with pytest.raises(ValueError):
        uniform_grid_1d(1.0, 0.0, 5)


@pytest.mark.parametrize("n_points", [3, 4])
def test_grid_needs_five_points(n_points):
    # fewer than 3 interior unknowns, which LAPACK's zgttrf rejects
    with pytest.raises(ValueError, match="at least five points"):
        uniform_grid_1d(0.0, 1.0, n_points)


class TestSMM1D:
    def test_conserves_averaged_charge_to_solver_tolerance(self):
        # the box scheme's discrete invariant is <S u, u> on the interior,
        # with S the half-node averaging weight; drift must sit at the
        # fixed-point/solver tolerance, far below discretization error
        grid = uniform_grid_1d(-10.0, 10.0, 101)
        m = SMM1D(grid, tau=0.01, lam=1.0, eps=0.0)
        u = exact_soliton(grid.nodes, 0.0)
        u[0] = u[-1] = 0.0

        def s_charge(v):
            vi = v[1:-1]
            return float(np.real(np.conj(vi) @ (m.S @ vi)))

        q0 = s_charge(u)
        for _ in range(25):
            u = m.step(u)
        assert abs(s_charge(u) - q0) / q0 < 1e-10

    def test_step_satisfies_midpoint_relation(self):
        # reconstruct v = (u_new + u_old)/2 and plug it back into the
        # implicit system the step claims to solve
        grid = uniform_grid_1d(-5.0, 5.0, 41)
        tau = 0.02
        m = SMM1D(grid, tau, lam=1.0, eps=0.0)
        u = exact_soliton(grid.nodes, 0.0)
        u[0] = u[-1] = 0.0
        u_new = m.step(u)
        v = 0.5 * (u_new + u)[1:-1]
        vfull = np.zeros_like(u)
        vfull[1:-1] = v
        from odds_nls.baselines import _half_cubic
        lhs = m.S @ v + 1j * tau * (m.L @ v)
        rhs = m.S @ u[1:-1] - 0.5j * tau * _half_cubic(vfull)
        assert np.max(np.abs(lhs - rhs)) < 1e-9

    def test_tracks_exact_standing_soliton(self):
        grid = uniform_grid_1d(-15.0, 15.0, 401)
        tau = 0.005
        m = SMM1D(grid, tau, 1.0, 0.0)
        u0 = exact_soliton(grid.nodes, 0.0)
        u0[0] = u0[-1] = 0.0
        uf = run_uniform_trajectory(m, u0, round(0.5 / tau))
        assert np.max(np.abs(uf - exact_soliton(grid.nodes, 0.5))) < 5e-3


class TestFDSCN1D:
    def test_conserves_plain_charge_to_solver_tolerance(self):
        # both stages preserve sum |u|^2 exactly: the nonlinear CN stage by
        # construction, the noise stage because it is a pointwise phase
        grid = uniform_grid_1d(-10.0, 10.0, 101)
        m = FDSCN1D(grid, tau=0.01, lam=1.0, eps=0.3)
        model = NoiseModel1D.build(-10.0, 10.0, grid.nodes, modes=60, seed=1)
        u = exact_soliton(grid.nodes, 0.0)
        u[0] = u[-1] = 0.0
        q0 = float(np.sum(np.abs(u) ** 2))
        stream = model.trajectory(0)
        for k in range(25):
            u = m.step(u, stream.grid_increments(k, 0.01))
        assert abs(np.sum(np.abs(u) ** 2) - q0) / q0 < 1e-10

    def test_nonlinear_stage_matches_root_finder(self):
        from scipy.optimize import fsolve
        grid = uniform_grid_1d(-5.0, 5.0, 31)
        tau = 0.02
        m = FDSCN1D(grid, tau, lam=1.0, eps=0.0)
        un = exact_soliton(grid.nodes, 0.0)[1:-1]
        got = m._nonlinear_stage(un)
        L = m.L.toarray()
        n = un.size

        def residual(z):
            mm = z[:n] + 1j * z[n:]
            star = 2.0 * mm - un
            lhs = mm + 0.5j * tau * (L @ mm)
            rhs = un - 1j * tau * (1.0 / 4.0) * (np.abs(un) ** 2
                                                 + np.abs(star) ** 2) * mm
            r = lhs - rhs
            return np.concatenate([r.real, r.imag])

        z = fsolve(residual, np.concatenate([un.real, un.imag]), xtol=1e-13)
        want = 2.0 * (z[:n] + 1j * z[n:]) - un
        np.testing.assert_allclose(got, want, atol=1e-9)

    def test_tracks_exact_standing_soliton(self):
        grid = uniform_grid_1d(-15.0, 15.0, 401)
        tau = 0.005
        m = FDSCN1D(grid, tau, 1.0, 0.0)
        u0 = exact_soliton(grid.nodes, 0.0)
        u0[0] = u0[-1] = 0.0
        uf = run_uniform_trajectory(m, u0, round(0.5 / tau))
        assert np.max(np.abs(uf - exact_soliton(grid.nodes, 0.5))) < 5e-3

    def test_noise_enters_as_terminal_phase_factor(self):
        # stage two multiplies the deterministic stage's output by
        # exp(-i eps dW) pointwise; running with and without noise must
        # therefore differ by exactly that factor
        grid = uniform_grid_1d(-5.0, 5.0, 31)
        u = exact_soliton(grid.nodes, 0.0)
        u[0] = u[-1] = 0.0
        dw = np.linspace(0.0, 0.5, grid.nodes.size)
        noisy = FDSCN1D(grid, 0.01, lam=1.0, eps=1.0).step(u, dw)
        plain = FDSCN1D(grid, 0.01, lam=1.0, eps=0.0).step(u)
        np.testing.assert_allclose(noisy[1:-1],
                                   plain[1:-1] * np.exp(-1j * dw[1:-1]),
                                   atol=1e-14)


class TestImplicitEquations:
    # one noisy step with default solver options, in 1D on the efficiency
    # experiment's grid and in 2D on TestUniform2D's grid: the fixed point
    # must run until the update stalls at rounding level, so the step
    # satisfies the implicit equation it claims to solve far below the
    # linear solver's residual tolerance
    @pytest.fixture(params=[1, 2], ids=["1d", "2d"])
    def case(self, request):
        if request.param == 1:
            from odds_nls.config import builtin_configs
            from odds_nls.experiments import soliton_datum
            cfg = builtin_configs()["efficiency"]
            grid = uniform_grid_1d(cfg.x_left, cfg.x_right,
                                   cfg.uniform_points)
            u = soliton_datum(grid.nodes)
            u[0] = u[-1] = 0.0
            model = NoiseModel1D.build(cfg.x_left, cfg.x_right, grid.nodes,
                                       modes=cfg.modes, seed=cfg.seed)
            grids, schemes = (grid,), (SMM1D, FDSCN1D)
            tau, lam, eps = cfg.tau, cfg.lam, cfg.eps
        else:
            gx, gy, u = gaussian_plane()
            model = NoiseModel2D.build(-4.0, 4.0, -4.0, 4.0, gx.nodes,
                                       gy.nodes, modes_x=10, modes_y=10,
                                       seed=2)
            grids, schemes = (gx, gy), (SMM2D, FDSCN2D)
            tau, lam, eps = 0.01, 1.0, 0.5
        dw = model.trajectory(0).grid_increments(0, tau)
        return grids, schemes, u, dw, tau, lam, eps

    def test_smm_step_solves_its_midpoint_equation(self, case):
        from odds_nls.baselines import _half_cubic, _half_pair
        grids, (smm, _), u, dw, tau, lam, eps = case
        m = smm(*grids, tau, lam, eps)
        u_new = m.step(u, dw)
        vfull = 0.5 * (u_new + u)
        inner = (slice(1, -1),) * u.ndim
        v = vfull[inner].reshape(-1)
        g = lam * _half_cubic(vfull) + eps * _half_pair(vfull, dw / tau)
        lhs = m.S @ v + 1j * tau * (m.L @ v)
        rhs = m.S @ u[inner].reshape(-1) - 0.5j * tau * g.reshape(-1)
        assert np.max(np.abs(lhs - rhs)) < 1e-10

    def test_fdscn_stage_solves_its_crank_nicolson_equation(self, case):
        grids, (_, fdscn), u, _, tau, lam, eps = case
        m = fdscn(*grids, tau, lam, eps)
        un = u[(slice(1, -1),) * u.ndim].reshape(-1)
        star = m._nonlinear_stage(un)
        mid = 0.5 * (star + un)
        lhs = mid + 0.5j * tau * (m.L @ mid)
        rhs = un - 1j * tau * lam / 4.0 * (
            np.abs(un) ** 2 + np.abs(star) ** 2) * mid
        assert np.max(np.abs(lhs - rhs)) < 1e-10

    def test_implicit_matrix_solves_like_dense(self, case):
        # the constant complex matrix each scheme factors: S + i tau L for
        # SMM, I + i tau/2 L for FDSCN
        grids, schemes, _, _, tau, lam, eps = case
        rng = np.random.default_rng(14)
        for cls, averaged, theta in zip(schemes, (True, False), (1.0, 0.5)):
            m = cls(*grids, tau, lam, eps)
            S = m.S.toarray() if averaged else np.eye(m.S.shape[0])
            dense = S + 1j * theta * tau * m.L.toarray()
            r = (rng.standard_normal(dense.shape[0])
                 + 1j * rng.standard_normal(dense.shape[0]))
            want = np.linalg.solve(dense, r)
            got = m.lu.solve(r)
            assert got.dtype == complex
            assert np.max(np.abs(got - want)) < 1e-12, cls.__name__


class TestUniform2D:
    def setup_method(self):
        self.gx, self.gy, self.u0 = gaussian_plane()

    def test_smm2d_conserves_tensor_averaged_charge(self):
        m = SMM2D(self.gx, self.gy, tau=0.01, lam=1.0, eps=0.0)

        def s_charge(v):
            vi = v[1:-1, 1:-1].reshape(-1)
            return float(np.real(np.conj(vi) @ (m.S @ vi)))

        u = self.u0.copy()
        q0 = s_charge(u)
        for _ in range(10):
            u = m.step(u)
        assert abs(s_charge(u) - q0) / q0 < 1e-10

    def test_fdscn2d_conserves_plain_charge_with_noise(self):
        m = FDSCN2D(self.gx, self.gy, tau=0.01, lam=1.0, eps=0.5)
        model = NoiseModel2D.build(-4.0, 4.0, -4.0, 4.0,
                                   self.gx.nodes, self.gy.nodes,
                                   modes_x=10, modes_y=10, seed=2)
        u = self.u0.copy()
        q0 = float(np.sum(np.abs(u) ** 2))
        stream = model.trajectory(0)
        for k in range(10):
            u = m.step(u, stream.grid_increments(k, 0.01))
        assert abs(np.sum(np.abs(u) ** 2) - q0) / q0 < 1e-10

    def test_2d_steps_keep_boundary_zero(self):
        for m in (SMM2D(self.gx, self.gy, 0.01, 1.0, 0.0),
                  FDSCN2D(self.gx, self.gy, 0.01, 1.0, 0.0)):
            out = m.step(self.u0.copy())
            assert not np.any(out[0, :]) and not np.any(out[-1, :])
            assert not np.any(out[:, 0]) and not np.any(out[:, -1])


class TestDriver:
    def test_missing_noise_rejected(self):
        grid = uniform_grid_1d(-1.0, 1.0, 11)
        m = SMM1D(grid, 0.01, 1.0, 0.5)
        with pytest.raises(ValueError):
            run_uniform_trajectory(m, np.zeros(11, complex), 2)

    def test_noise_untouched_when_deterministic(self):
        class Boom:
            def __getattr__(self, name):
                raise AssertionError("noise consulted in a deterministic run")

        grid = uniform_grid_1d(-1.0, 1.0, 11)
        m = FDSCN1D(grid, 0.01, 1.0, 0.0)
        u0 = np.sin(np.pi * (grid.nodes + 1.0)) + 0j
        run_uniform_trajectory(m, u0, 2, noise=Boom())

    @pytest.mark.parametrize("dimension", [1, 2], ids=["1d", "2d"])
    def test_each_scheme_factors_its_matrix_once(self, monkeypatch,
                                                 dimension):
        # a 1D matrix is tridiagonal and factored by LAPACK's zgttrf, a 2D
        # Kronecker sum by SuperLU
        import scipy.linalg.lapack
        import scipy.sparse.linalg
        calls = []
        splu, zgttrf = scipy.sparse.linalg.splu, scipy.linalg.lapack.zgttrf
        monkeypatch.setattr(scipy.sparse.linalg, "splu", lambda A: (
            calls.append(("splu", A.shape)) or splu(A)))
        monkeypatch.setattr(scipy.linalg.lapack, "zgttrf", lambda *d: (
            calls.append(("zgttrf", d[1].shape * 2)) or zgttrf(*d)))
        grid = uniform_grid_1d(-2.0, 2.0, 21)
        line = np.sin(np.pi * (grid.nodes + 2.0) / 4.0) + 0j
        u0 = line if dimension == 1 else np.outer(line, line)
        classes = [(SMM1D, FDSCN1D), (SMM2D, FDSCN2D)][dimension - 1]
        grids = (grid,) * dimension
        schemes = [cls(*grids, 0.01, 1.0, 0.0) for cls in classes]
        assert calls == []                  # constructors do not factor
        for m in schemes:
            run_uniform_trajectory(m, u0, 3)
        size = 19 ** dimension
        factor = ("zgttrf", "splu")[dimension - 1]
        assert calls == [(factor, (size, size))] * 2

    def test_increments_are_drawn_over_exactly_tau(self):
        grid = uniform_grid_1d(-2.0, 2.0, 9)
        draws = []

        class Recorder:
            def grid_increments(self, step, dt):
                draws.append((step, dt))
                return np.zeros(grid.nodes.size)

        m = FDSCN1D(grid, 0.001, 1.0, 0.1)
        run_uniform_trajectory(m, np.zeros(grid.nodes.size, complex), 300,
                               noise=Recorder())
        assert draws == [(k, 0.001) for k in range(300)]

    @pytest.mark.parametrize("scheme", [SMM2D, FDSCN2D],
                             ids=["smm2d", "fdscn2d"])
    def test_increment_of_another_shape_rejected(self, scheme):
        # a 1D model's increments on a 2D grid: SMM2D spread them over the
        # grid without a word, FDSCN2D raised a bare IndexError
        grid = uniform_grid_1d(-2.0, 2.0, 9)
        model = NoiseModel1D.build(-2.0, 2.0, grid.nodes, modes=4, seed=0)
        m = scheme(grid, grid, 0.01, 1.0, 0.3)
        with pytest.raises(ValueError, match=r"^noise increment shape \(9,\) "
                           r"at step 0, state shape \(9, 9\)$"):
            run_uniform_trajectory(m, np.zeros((9, 9), complex), 3,
                                   noise=model.trajectory(0))

    def test_noisy_run_reproducible(self):
        grid = uniform_grid_1d(-2.0, 2.0, 21)
        model = NoiseModel1D.build(-2.0, 2.0, grid.nodes, modes=20, seed=3)
        m = SMM1D(grid, 0.01, 1.0, 0.4)
        u0 = np.sin(np.pi * (grid.nodes + 2.0) / 4.0) + 0j
        a = run_uniform_trajectory(m, u0, 4, noise=model.trajectory(1))
        b = run_uniform_trajectory(m, u0, 4, noise=model.trajectory(1))
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("cause", ["fixed_point", "linear_solve"])
    def test_step_failure_names_scheme_step_and_time(self, cause, request):
        # a strong cubic term at a long step stalls SMM's fixed point; an
        # unreachable tolerance stops its LU/GMRES solve
        grid = uniform_grid_1d(-20.0, 20.0, 41)
        u0 = np.sqrt(2.0) / np.cosh(grid.nodes) + 0j
        u0[0] = u0[-1] = 0.0
        if cause == "fixed_point":
            m = SMM1D(grid, 0.1, 16.0, 0.0)
        else:
            request.getfixturevalue("hopeless_solves")
            m = SMM1D(grid, 0.01, 1.0, 0.0)
        with pytest.raises(StepFailure) as info:
            run_uniform_trajectory(m, u0, 3)
        assert info.value.step == 0
        assert info.value.time == 0.0
        assert info.value.residual > 0
        assert "SMM1D failed at step 0 (t = 0): " in str(info.value)
        assert info.value.state_sha256 == state_sha256(u0)

    def test_runaway_fixed_point_fails_fast(self):
        # SMM's update grows 3.4 -> 284 in the first step of this efficiency
        # run; iterating on let the LU solve's residual check spin through
        # 400 Krylov restarts (about 3 s) before it failed
        cfg = apply_overrides(builtin_configs()["efficiency"], [
            "uniform_points=121", "tau=0.5", "lam=40", "t_final=0.5"])
        grid = uniform_grid_1d(cfg.x_left, cfg.x_right, cfg.uniform_points)
        u0 = soliton_datum(grid.nodes)
        u0[[0, -1]] = 0.0
        model = NoiseModel1D.build(cfg.x_left, cfg.x_right, grid.nodes,
                                   modes=cfg.modes, seed=cfg.seed)
        m = SMM1D(grid, cfg.tau, cfg.lam, cfg.eps)
        start = time.perf_counter()
        with pytest.raises(StepFailure) as info:
            run_uniform_trajectory(m, u0, 1, noise=model.trajectory(0))
        assert time.perf_counter() - start < 0.5
        assert isinstance(info.value.__cause__, FixedPointError)
        assert "runs away" in str(info.value)
        assert info.value.residual > 1.0
