import numpy as np
import pytest

from odds_nls.linalg import SolverOptions, build_cn_system, cn_step_linear
from odds_nls.mesh import assemble_global, build_mesh
from odds_nls.noise import NoiseModel1D, NoiseModel2D, ReplayNoise, draw_path
from odds_nls.observables import discrete_charge, discrete_energy
from odds_nls.stepper import (ProblemSpec, RunOptions, StepFailure,
                              TrajectoryResult, nonlinear_flow, odds_step_1d,
                              odds_step_2d, run_trajectory, state_sha256)

TIGHT = SolverOptions(residual_tol=1e-12)


class TestNonlinearFlow:
    def test_constant_state_rotates_by_exact_phase(self):
        u = np.full(4, 2.0 + 0.0j)
        out = nonlinear_flow(u, tau=0.1, lam=1.0, eps=0.0)
        np.testing.assert_allclose(out, 2.0 * np.exp(-0.4j), atol=1e-15)

    def test_modulus_preserved_pointwise(self):
        rng = np.random.default_rng(0)
        u = rng.standard_normal(10**6) + 1j * rng.standard_normal(10**6)
        dw = rng.standard_normal(10**6)
        out = nonlinear_flow(u, tau=0.037, lam=-1.3, eps=0.4, dw=dw)
        assert np.max(np.abs(np.abs(out) - np.abs(u))) < 1e-14

    def test_noise_term_enters_phase_linearly(self):
        u = np.array([1.0 + 1.0j])
        dw = np.array([0.25])
        with_noise = nonlinear_flow(u, 0.1, 0.0, 2.0, dw)
        np.testing.assert_allclose(with_noise, u * np.exp(-0.5j), atol=1e-15)

    def test_requires_increment_when_noisy(self):
        with pytest.raises(ValueError):
            nonlinear_flow(np.ones(3, complex), 0.1, 1.0, 0.5, None)

    def test_zero_eps_ignores_increment(self):
        u = np.ones(3, complex)
        a = nonlinear_flow(u, 0.1, 1.0, 0.0, None)
        b = nonlinear_flow(u, 0.1, 1.0, 0.0, np.full(3, 1e6))
        np.testing.assert_array_equal(a, b)


class TestStep1D:
    def test_free_step_with_lam_zero_matches_plain_cn(self):
        mesh = build_mesh(-1.0, 1.0, 2, 8)
        tau = 0.01
        system = build_cn_system(mesh, tau)
        rng = np.random.default_rng(1)
        u = rng.standard_normal(mesh.n_nodes) + 1j * rng.standard_normal(mesh.n_nodes)
        u[0] = u[-1] = 0.0
        problem = ProblemSpec(lam=0.0, eps=0.0)
        got = odds_step_1d(u.copy(), 0.0, tau, problem, mesh, system, TIGHT)
        want = cn_step_linear(system, u, TIGHT)
        np.testing.assert_array_equal(got, want)

    def test_single_element_matches_dense_complex_solve(self):
        # M=1 removes the splitting-in-space ingredient entirely, so the step
        # must agree with a dense complex CN solve after the exact flow
        mesh = build_mesh(-1.0, 1.0, 1, 16)
        tau = 0.003
        system = build_cn_system(mesh, tau)
        x = mesh.nodes
        u = np.exp(-4 * x**2) * np.exp(0.5j * x)
        u[0] = u[-1] = 0.0
        problem = ProblemSpec(lam=1.0, eps=0.0)
        got = odds_step_1d(u.copy(), 0.0, tau, problem, mesh, system, TIGHT)

        w = u * np.exp(-1j * tau * np.abs(u) ** 2)
        B = assemble_global(mesh, 2).toarray()[1:-1, 1:-1]
        n = B.shape[0]
        lhs = np.eye(n) + 0.5j * tau * B
        rhs = (np.eye(n) - 0.5j * tau * B) @ w[1:-1]
        want = np.linalg.solve(lhs, rhs)
        np.testing.assert_allclose(got[1:-1], want, atol=1e-10)
        assert got[0] == 0.0 and got[-1] == 0.0

    def test_inhomogeneous_boundary_tracks_prescribed_data(self):
        mesh = build_mesh(0.0, 1.0, 2, 6)

        def bdata(t, x):
            return 0.3 * np.exp(1j * (x - 2.0 * t))

        problem = ProblemSpec(lam=0.0, eps=0.0, boundary=bdata)
        tau = 0.005
        system = build_cn_system(mesh, tau)
        u = bdata(0.0, mesh.nodes)
        out = odds_step_1d(u, 0.0, tau, problem, mesh, system, TIGHT)
        ends = np.array([0.0, 1.0])
        np.testing.assert_allclose(out[[0, -1]], bdata(tau, ends), atol=1e-14)


class TestRunTrajectory:
    def test_splitting_error_is_first_order_in_tau(self):
        # halving tau should roughly halve the error against a tiny-step
        # reference of the same discretization
        mesh = build_mesh(-1.0, 1.0, 2, 12)
        x = mesh.nodes
        u0 = np.sin(np.pi * x) * (1.0 + 0.2j)
        u0[0] = u0[-1] = 0.0
        problem = ProblemSpec(lam=1.0, eps=0.0)
        T = 0.1

        def terminal(n_steps):
            opts = RunOptions(record_invariants=False)
            return run_trajectory(u0.copy(), mesh, problem, T / n_steps,
                                  n_steps, options=opts).values

        ref = terminal(512)
        errs = [np.max(np.abs(terminal(n) - ref)) for n in (16, 32, 64)]
        ratios = [errs[i] / errs[i + 1] for i in range(2)]
        for r in ratios:
            assert 1.6 < r < 2.6, ratios

    @pytest.mark.parametrize("stride, samples", [(2, [0, 2, 4, 6, 8, 10]),
                                                 (3, [0, 3, 6, 9, 10])],
                             ids=["stride2", "stride3"])
    def test_invariant_series_and_snapshot_bookkeeping(self, stride,
                                                       samples):
        mesh = build_mesh(-1.0, 1.0, 2, 6)
        u0 = np.sin(np.pi * mesh.nodes) + 0j
        u0[0] = u0[-1] = 0.0
        problem = ProblemSpec(lam=1.0, eps=0.0)
        opts = RunOptions(snapshot_steps=(0, 3, 10), invariant_stride=stride)
        res = run_trajectory(u0.copy(), mesh, problem, 0.01, 10,
                             options=opts)
        assert isinstance(res, TrajectoryResult)
        # time 0, every stride-th step, and the final step, each at k tau
        np.testing.assert_array_equal(res.times, [k * 0.01 for k in samples])
        assert res.charge.shape == res.times.shape
        assert res.energy.shape == res.times.shape
        assert set(res.snapshots) == {0, 3, 10}
        np.testing.assert_array_equal(res.snapshots[0], u0)
        np.testing.assert_array_equal(res.snapshots[10], res.values)
        # each sample is the invariants of the state it was taken from
        assert res.charge[0] == discrete_charge(u0, mesh.nodes)
        assert res.energy[0] == discrete_energy(u0, mesh)
        assert res.charge[-1] == discrete_charge(res.values, mesh.nodes)
        assert res.energy[-1] == discrete_energy(res.values, mesh)

    def test_noise_not_consulted_when_eps_zero(self):
        class Boom:
            def __getattr__(self, name):
                raise AssertionError("noise consulted in a deterministic run")

        mesh = build_mesh(-1.0, 1.0, 2, 6)
        u0 = np.sin(np.pi * mesh.nodes) + 0j
        problem = ProblemSpec(lam=1.0, eps=0.0)
        opts = RunOptions(noise=Boom(), record_invariants=False)
        run_trajectory(u0.copy(), mesh, problem, 0.01, 3, options=opts)

    def test_increments_are_drawn_over_exactly_tau(self):
        # (k + 1) tau - k tau is not tau for most k: each of these 1000
        # steps of 0.001 draws step k's increment over tau itself, and the
        # time after k steps is k tau, not a sum of k taus
        class Recorder:
            def __init__(self, n):
                self.draws, self.zero = [], np.zeros(n)

            def grid_increments(self, step, dt):
                self.draws.append((step, dt))
                return self.zero

        mesh = build_mesh(-1.0, 1.0, 1, 4)
        noise = Recorder(mesh.n_nodes)
        res = run_trajectory(np.zeros(mesh.n_nodes, complex), mesh,
                             ProblemSpec(eps=0.1), 0.001, 1000,
                             options=RunOptions(noise=noise))
        assert noise.draws == [(k, 0.001) for k in range(1000)]
        np.testing.assert_array_equal(res.times,
                                      [k * 0.001 for k in range(1001)])

    def test_noisy_run_is_reproducible_and_noise_dependent(self):
        mesh = build_mesh(-1.0, 1.0, 2, 8)
        u0 = np.sin(np.pi * mesh.nodes) + 0j
        problem = ProblemSpec(lam=1.0, eps=0.3)
        model = NoiseModel1D.build(-1.0, 1.0, mesh.nodes, modes=40, seed=12)

        def final(traj_index):
            opts = RunOptions(noise=model.trajectory(traj_index),
                              record_invariants=False)
            return run_trajectory(u0.copy(), mesh, problem, 0.01, 5,
                                  options=opts).values

        np.testing.assert_array_equal(final(0), final(0))
        assert np.max(np.abs(final(0) - final(1))) > 1e-8

    def test_missing_noise_rejected_when_eps_nonzero(self):
        mesh = build_mesh(-1.0, 1.0, 2, 6)
        u0 = np.zeros(mesh.n_nodes, complex)
        problem = ProblemSpec(lam=1.0, eps=0.5)
        with pytest.raises(ValueError):
            run_trajectory(u0, mesh, problem, 0.01, 2)

    def test_step_failure_carries_position_in_time(self, hopeless_solves):
        # an unsolvable tolerance forces the solver to give up; the failure
        # must say when, not just that it happened
        mesh = build_mesh(-1.0, 1.0, 4, 10)
        u0 = np.sin(np.pi * mesh.nodes) + 0j
        problem = ProblemSpec(lam=1.0, eps=0.0)
        opts = RunOptions(record_invariants=False)
        with pytest.raises(StepFailure) as info:
            run_trajectory(u0.copy(), mesh, problem, 0.01, 3, options=opts)
        assert info.value.step == 0
        assert info.value.time == 0.0
        assert info.value.residual > 0

    def test_step_failure_carries_the_entering_state_hash(self,
                                                          hopeless_solves):
        # the unsolvable tolerance of the test above fails step 0, so the
        # state that entered it is u0
        mesh = build_mesh(-1.0, 1.0, 4, 10)
        u0 = np.sin(np.pi * mesh.nodes) + 0j
        opts = RunOptions(record_invariants=False)
        with pytest.raises(StepFailure) as info:
            run_trajectory(u0.copy(), mesh, ProblemSpec(), 0.01, 3,
                           options=opts)
        assert info.value.state_sha256 == state_sha256(u0)
        assert info.value.state_sha256 != state_sha256(u0.real)

    def test_later_failure_hashes_the_state_of_its_step(self):
        # a NaN increment at step 3 fails that step's solve; the state that
        # entered it is the final state of a clean run of three steps
        mesh = build_mesh(-1.0, 1.0, 4, 10)
        u0 = np.sin(np.pi * mesh.nodes) + 0j
        problem = ProblemSpec(lam=1.0, eps=0.3)
        path = 0.1 * np.random.default_rng(3).standard_normal(
            (5, mesh.n_nodes))
        path[:, [0, -1]] = 0.0
        clean = run_trajectory(u0, mesh, problem, 0.01, 3, options=RunOptions(
            noise=ReplayNoise(path), record_invariants=False))
        path[3, 6] = np.nan
        opts = RunOptions(noise=ReplayNoise(path), record_invariants=False)
        with pytest.raises(StepFailure) as info:
            run_trajectory(u0, mesh, problem, 0.01, 5, options=opts)
        assert info.value.step == 3
        assert info.value.time == 3 * 0.01
        assert "step 3 (t = 0.03)" in str(info.value)
        assert info.value.state_sha256 == state_sha256(clean.values)

    def test_nan_state_fails_at_step_zero(self):
        # a NaN must fail the first solve's residual check at once, not
        # leave the solver iterating on it
        mesh = build_mesh(-1.0, 1.0, 4, 10)
        u0 = np.sin(np.pi * mesh.nodes) + 0j
        u0[7] = np.nan
        problem = ProblemSpec(lam=1.0, eps=0.0)
        opts = RunOptions(record_invariants=False)
        with pytest.raises(StepFailure) as info:
            run_trajectory(u0, mesh, problem, 0.01, 3, options=opts)
        assert info.value.step == 0
        assert np.isnan(info.value.residual)

    def test_rejects_mismatched_initial_shape(self):
        mesh = build_mesh(-1.0, 1.0, 2, 6)
        problem = ProblemSpec()
        with pytest.raises(ValueError):
            run_trajectory(np.zeros(3, complex), mesh, problem, 0.01, 1)

    @pytest.mark.parametrize("tau", [0.0, -0.01, np.inf, np.nan])
    def test_rejects_a_tau_that_is_not_positive_and_finite(self, tau):
        mesh = build_mesh(-1.0, 1.0, 2, 6)
        u0 = np.zeros(mesh.n_nodes, complex)
        with pytest.raises(ValueError, match="tau must be positive"):
            run_trajectory(u0, mesh, ProblemSpec(), tau, 0)

    @pytest.mark.parametrize("stride", [0, -3])
    def test_rejects_invariant_stride_below_one(self, stride):
        mesh = build_mesh(-1.0, 1.0, 2, 6)
        u0 = np.zeros(mesh.n_nodes, complex)
        opts = RunOptions(invariant_stride=stride)
        with pytest.raises(ValueError, match="invariant_stride"):
            run_trajectory(u0, mesh, ProblemSpec(), 0.01, 2, options=opts)

    @pytest.mark.parametrize("dimension", [1, 2], ids=["1d", "2d"])
    def test_assembles_only_the_cn_operators_without_invariants(
            self, monkeypatch, dimension):
        # the first-derivative matrix serves the energy only: a run that
        # records no invariants assembles one D2 per mesh object and nothing
        # else, and in 2D both axes are one mesh object
        import odds_nls.mesh
        orders = []

        def counted(mesh, order=2):
            orders.append(order)
            return assemble_global(mesh, order)

        monkeypatch.setattr(odds_nls.mesh, "assemble_global", counted)
        axes = (build_mesh(-1.0, 1.0, 2, 6),) * dimension
        u0 = np.zeros(tuple(axis.n_nodes for axis in axes), complex)
        mesh = axes if dimension == 2 else axes[0]
        run_trajectory(u0, mesh, ProblemSpec(), 0.01, 2,
                       options=RunOptions(record_invariants=False))
        assert orders == [2]


class TestBlock:
    """Trajectories stepped as the columns of one (n, P) state."""

    def setup_method(self):
        self.mesh = build_mesh(-1.0, 1.0, 3, 7)
        self.model = NoiseModel1D.build(-1.0, 1.0, self.mesh.nodes, modes=30,
                                        seed=5)
        self.u0 = np.sin(np.pi * self.mesh.nodes) * (1.0 + 0.3j)

    @pytest.mark.parametrize("boundary", [
        None, lambda t, x: 0.2 * np.exp(1j * (x - 3.0 * t))],
        ids=["homogeneous", "inhomogeneous"])
    def test_block_matches_single_runs(self, boundary):
        # the same path replayed as one block and column by column: the
        # phase, the CSR product and the LU solve treat each column of a
        # block as they treat a single line, so the bytes agree
        tau, n_steps = 0.01, 12
        path = draw_path(self.model, range(4, 7), n_steps, tau)
        problem = ProblemSpec(lam=1.5, eps=0.4, boundary=boundary)

        def final(u0, noise):
            opts = RunOptions(noise=ReplayNoise(noise),
                              record_invariants=False)
            return run_trajectory(u0, self.mesh, problem, tau, n_steps,
                                  options=opts).values

        block = final(np.repeat(self.u0[:, None], 3, axis=1), path)
        assert block.shape == (self.mesh.n_nodes, 3)
        for j in range(3):
            np.testing.assert_array_equal(block[:, j],
                                          final(self.u0, path[..., j]))
        assert np.max(np.abs(block[:, 0] - block[:, 1])) > 1e-6

    def test_block_rejects_invariants(self):
        u0 = np.repeat(self.u0[:, None], 2, axis=1)
        with pytest.raises(ValueError, match="invariants"):
            run_trajectory(u0, self.mesh, ProblemSpec(), 0.01, 2)

    def test_block_rejects_a_one_trajectory_increment(self):
        u0 = np.repeat(self.u0[:, None], 2, axis=1)
        opts = RunOptions(noise=self.model.trajectory(0),
                          record_invariants=False)
        with pytest.raises(ValueError, match="noise increment shape"):
            run_trajectory(u0, self.mesh, ProblemSpec(eps=0.1), 0.01, 2,
                           options=opts)

    def test_rejects_a_second_extra_axis_and_a_2d_block(self):
        opts = RunOptions(record_invariants=False)
        with pytest.raises(ValueError, match="one more axis"):
            run_trajectory(np.zeros((self.mesh.n_nodes, 2, 2), complex),
                           self.mesh, ProblemSpec(), 0.01, 1, options=opts)
        axes = (self.mesh, build_mesh(0.0, 1.0, 1, 4))
        with pytest.raises(ValueError, match="one more axis"):
            run_trajectory(np.zeros((self.mesh.n_nodes, 5, 2), complex),
                           axes, ProblemSpec(), 0.01, 1, options=opts)


class TestStep2D:
    def test_separable_free_evolution_is_tensor_of_line_solves(self):
        # with lam = eps = 0 and u0 = f(x) g(y), the x/y sweeps commute with
        # the tensor structure, so the 2D step equals the outer product of
        # two 1D CN steps
        mx = build_mesh(-1.0, 1.0, 2, 6)
        my = build_mesh(-2.0, 2.0, 3, 5)
        tau = 0.01
        sx = build_cn_system(mx, tau)
        sy = build_cn_system(my, tau)
        f = np.sin(np.pi * mx.nodes) * (1 + 0.5j)
        g = np.sin(np.pi * (my.nodes + 2.0) / 4.0) + 0j
        f[0] = f[-1] = 0.0
        g[0] = g[-1] = 0.0
        problem = ProblemSpec(lam=0.0, eps=0.0)
        u0 = np.outer(f, g)
        got = odds_step_2d(u0.copy(), 0.0, tau, problem, mx, my, sx, sy, TIGHT)
        f1 = cn_step_linear(sx, f, TIGHT)
        g1 = cn_step_linear(sy, g, TIGHT)
        np.testing.assert_allclose(got, np.outer(f1, g1), atol=1e-11)

    @pytest.mark.parametrize("homogeneous", [True, False],
                             ids=["homogeneous", "inhomogeneous"])
    def test_step_sets_every_edge_and_corner(self, homogeneous):
        # the sweeps solve the interior only: every edge, corners included,
        # must end at the Dirichlet data at t + tau, zero when homogeneous
        mx = build_mesh(-3.0, 4.0, 2, 7)
        my = build_mesh(-2.0, 3.0, 3, 6)
        t, tau = 0.3, 0.01

        def bdata(t, x, y):
            return 0.2 * np.exp(1j * (x + 0.5 * y - t))

        boundary = None if homogeneous else bdata
        X, Y = np.meshgrid(mx.nodes, my.nodes, indexing="ij")
        u0 = np.exp(-(X**2 + Y**2)) + 0.7 + 0.4j  # non-zero edges, corners
        problem = ProblemSpec(lam=1.0, eps=0.0, boundary=boundary)
        out = odds_step_2d(u0, t, tau, problem, mx, my,
                           build_cn_system(mx, tau), build_cn_system(my, tau),
                           TIGHT)
        want = (np.zeros_like(u0) if homogeneous
                else bdata(t + tau, X, Y))
        for edge in (np.s_[0, :], np.s_[-1, :], np.s_[:, 0], np.s_[:, -1]):
            np.testing.assert_array_equal(out[edge], want[edge])
        assert np.all(out[1:-1, 1:-1] != want[1:-1, 1:-1])

    def test_2d_trajectory_runs_and_conserves_charge_roughly(self):
        mx = build_mesh(-3.0, 3.0, 2, 8)
        my = build_mesh(-3.0, 3.0, 2, 8)
        X, Y = np.meshgrid(mx.nodes, my.nodes, indexing="ij")
        u0 = np.exp(-(X**2 + Y**2)) + 0j
        u0[0, :] = u0[-1, :] = 0.0
        u0[:, 0] = u0[:, -1] = 0.0
        problem = ProblemSpec(lam=1.0, eps=0.0)
        res = run_trajectory(u0, (mx, my), problem, 0.01, 10,
                             options=RunOptions(invariant_stride=5))
        assert res.values.shape == u0.shape
        q = res.charge
        assert abs(q[-1] - q[0]) / q[0] < 1e-2

    def test_2d_noisy_run_reproducible(self):
        mx = build_mesh(-1.0, 1.0, 2, 5)
        my = build_mesh(-1.0, 1.0, 2, 5)
        X, Y = np.meshgrid(mx.nodes, my.nodes, indexing="ij")
        u0 = np.exp(-(X**2 + Y**2)) + 0j
        u0[0, :] = u0[-1, :] = 0.0
        u0[:, 0] = u0[:, -1] = 0.0
        model = NoiseModel2D.build(-1.0, 1.0, -1.0, 1.0, mx.nodes, my.nodes,
                                   modes_x=8, modes_y=8, seed=5)
        problem = ProblemSpec(lam=1.0, eps=1.0)

        def final():
            opts = RunOptions(noise=model.trajectory(0),
                              record_invariants=False)
            return run_trajectory(u0.copy(), (mx, my), problem, 0.01, 4,
                                  options=opts).values

        np.testing.assert_array_equal(final(), final())

    def test_lockstep_sweep_matches_per_line_solves(self):
        # a block of lines is solved as one multi-right-hand-side LU solve;
        # each column must get exactly what a standalone cn_step_linear
        # gives it
        mesh = build_mesh(-1.0, 1.0, 2, 7)
        tau = 0.02
        system = build_cn_system(mesh, tau)
        rng = np.random.default_rng(3)
        block = (rng.standard_normal((mesh.nodes.size, 9))
                 + 1j * rng.standard_normal((mesh.nodes.size, 9)))

        zero = block.copy()
        zero[0] = zero[-1] = 0.0
        swept = cn_step_linear(system, zero, TIGHT)
        for j in range(block.shape[1]):
            np.testing.assert_array_equal(
                swept[:, j], cn_step_linear(system, zero[:, j], TIGHT))

        lo = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        ro = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        ln, rn = 1.1 * lo, 0.7 * ro
        data = block.copy()
        data[0], data[-1] = lo, ro
        bc_old, bc_new = np.array([lo, ro]), np.array([ln, rn])
        swept = cn_step_linear(system, data, TIGHT,
                               system.boundary_forcing(bc_old, bc_new), bc_new)
        for j in range(block.shape[1]):
            forcing = system.boundary_forcing((lo[j], ro[j]), (ln[j], rn[j]))
            want = cn_step_linear(system, data[:, j], TIGHT, forcing=forcing,
                                  bc_new=(ln[j], rn[j]))
            np.testing.assert_array_equal(swept[:, j], want)

    def test_zero_boundary_line_sweeps_superconverge(self):
        # the x and y line operators commute as tensor factors, so with
        # homogeneous data the per-step defect of the swept step against an
        # unsplit 2D CN solve drops from tau^2 to tau^3; this pins down the
        # sweep arrangement (full tau per direction, not tau/2 passes)
        mx = build_mesh(-1.0, 1.0, 2, 5)
        my = build_mesh(-1.0, 1.0, 2, 5)
        X, Y = np.meshgrid(mx.nodes, my.nodes, indexing="ij")
        u0 = np.sin(np.pi * X) * np.sin(np.pi * Y) + 0j
        problem = ProblemSpec(lam=0.0, eps=0.0)

        Bx = assemble_global(mx, 2).toarray()[1:-1, 1:-1]
        By = assemble_global(my, 2).toarray()[1:-1, 1:-1]
        nx, ny = Bx.shape[0], By.shape[0]
        L = np.kron(Bx, np.eye(ny)) + np.kron(np.eye(nx), By)
        eye = np.eye(nx * ny)

        def defect(tau):
            sx = build_cn_system(mx, tau)
            sy = build_cn_system(my, tau)
            w = odds_step_2d(u0.copy(), 0.0, tau, problem, mx, my, sx, sy,
                             TIGHT)
            v = u0[1:-1, 1:-1].reshape(-1)
            dense = np.linalg.solve(eye + 0.5j * tau * L,
                                    (eye - 0.5j * tau * L) @ v)
            return np.max(np.abs(w[1:-1, 1:-1].reshape(-1) - dense))

        d1, d2 = defect(0.005), defect(0.0025)
        assert d1 / d2 > 5.0, (d1, d2)
