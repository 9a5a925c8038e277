import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg

from odds_nls.linalg import (CNSystem, KrylovError, LUSolver, SolverOptions,
                             build_cn_system, cn_step_linear, krylov_solve,
                             krylov_solve_block, stack_real, unstack_real)
from odds_nls.mesh import assemble_global, build_mesh


class TestKrylovSolve:
    def test_identity_converges_immediately(self):
        b = np.arange(5.0)
        x = krylov_solve(sp.eye(5, format="csr"), b)
        np.testing.assert_allclose(x, b, atol=1e-12)

    def test_matches_dense_solve_on_many_systems(self):
        rng = np.random.default_rng(0)
        for trial in range(50):
            n = int(rng.integers(5, 40))
            A = rng.standard_normal((n, n))
            A += n * np.eye(n)  # diagonally dominant, well conditioned
            b = rng.standard_normal(n)
            x = krylov_solve(sp.csr_matrix(A), b)
            want = np.linalg.solve(A, b)
            assert np.max(np.abs(x - want)) < 1e-4, f"trial {trial}"

    def test_residual_contract_in_max_norm(self):
        rng = np.random.default_rng(1)
        n = 30
        A = rng.standard_normal((n, n)) + n * np.eye(n)
        b = rng.standard_normal(n)
        G = sp.csr_matrix(A)
        x = krylov_solve(G, b)
        assert np.max(np.abs(b - G @ x)) <= 1e-5

    def test_warm_start_exact_solution_returns_unchanged(self):
        rng = np.random.default_rng(2)
        n = 12
        A = rng.standard_normal((n, n)) + n * np.eye(n)
        b = rng.standard_normal(n)
        x_exact = np.linalg.solve(A, b)
        out = krylov_solve(sp.csr_matrix(A), b, x0=x_exact)
        np.testing.assert_array_equal(out, x_exact)

    def test_tight_tolerance_respected(self):
        rng = np.random.default_rng(3)
        n = 20
        A = rng.standard_normal((n, n)) + n * np.eye(n)
        b = rng.standard_normal(n)
        opts = SolverOptions(residual_tol=1e-10)
        x = krylov_solve(sp.csr_matrix(A), b, opts=opts)
        assert np.max(np.abs(b - A @ x)) <= 1e-10

    def test_singular_inconsistent_system_raises_with_residual(self):
        # rank-1 matrix, b outside its range: no restart can fix this
        A = sp.csr_matrix(np.outer([1.0, 1.0], [1.0, 1.0]))
        b = np.array([1.0, -1.0])
        opts = SolverOptions(max_restarts=5)
        with pytest.raises(KrylovError) as info:
            krylov_solve(A, b, opts=opts)
        assert info.value.residual > 0

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            krylov_solve(sp.eye(3, format="csr"), np.zeros(4))


@pytest.fixture
def splu_calls(monkeypatch):
    """Count the sparse LU factorizations made while the test runs."""
    calls = []
    real = scipy.sparse.linalg.splu

    def counting(A, *args, **kwargs):
        calls.append(A.shape)
        return real(A, *args, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "splu", counting)
    return calls


class TestLUSolver:
    def test_factors_on_first_solve_only(self, splu_calls):
        mesh = build_mesh(-1.0, 1.0, 3, 8)
        system = build_cn_system(mesh, 0.01)
        assert splu_calls == []             # building does not factor
        u = np.sin(np.pi * mesh.nodes) + 0j
        for _ in range(4):
            u = cn_step_linear(system, u)
        assert splu_calls == [system.G.shape]

    def test_many_columns_match_single_solves(self):
        rng = np.random.default_rng(9)
        A = sp.csr_matrix(rng.standard_normal((15, 15)) + 15 * np.eye(15))
        B = rng.standard_normal((15, 6))
        solver = LUSolver(A)
        X = solver.solve(B)
        for j in range(B.shape[1]):
            np.testing.assert_allclose(X[:, j], solver.solve(B[:, j]),
                                       rtol=0, atol=1e-13)
        assert np.max(np.abs(B - A @ X)) < 1e-12

    def test_missed_or_nan_residual_raises(self):
        rng = np.random.default_rng(10)
        solver = LUSolver(sp.csr_matrix(rng.standard_normal((15, 15))
                                        + 15 * np.eye(15)))
        b = rng.standard_normal(15)
        # the LU solution misses an unreachable tolerance, so GMRES
        # refinement runs until its restarts are spent
        hopeless = SolverOptions(residual_tol=1e-30, max_krylov=4,
                                 max_restarts=2)
        with pytest.raises(KrylovError) as info:
            solver.solve(b, hopeless)
        assert 0 < info.value.residual < 1e-12
        with pytest.raises(KrylovError):
            solver.solve(np.column_stack([b, b]), hopeless)
        b[3] = np.nan
        with pytest.raises(KrylovError) as info:
            solver.solve(b)
        assert np.isnan(info.value.residual)


class MatvecCount:
    """A matrix that counts its products with vectors, one per column.

    It has only a shape and @, as a tracing proxy of a solver matrix has.
    """

    def __init__(self, A):
        self.A = A
        self.shape = A.shape
        self.count = 0

    def __matmul__(self, x):
        self.count += 1 if np.ndim(x) == 1 else x.shape[1]
        return self.A @ x


class TestResidualCheck:
    def setup_method(self):
        rng = np.random.default_rng(11)
        self.A = sp.csr_matrix(rng.standard_normal((12, 12))
                               + 12 * np.eye(12))
        self.X = rng.standard_normal((12, 5))
        self.B = self.A @ self.X

    def test_converged_start_costs_one_matvec_per_column(self):
        G = MatvecCount(self.A)
        np.testing.assert_array_equal(
            krylov_solve(G, self.B[:, 0], x0=self.X[:, 0]), self.X[:, 0])
        np.testing.assert_array_equal(
            krylov_solve_block(G, self.B, self.X), self.X)
        assert G.count == 1 + self.B.shape[1]

    def test_block_refines_only_the_columns_that_miss(self):
        X0 = self.X.copy()
        X0[:, 2] += 1.0
        out = krylov_solve_block(self.A, self.B, X0)
        np.testing.assert_array_equal(np.delete(out, 2, axis=1),
                                      np.delete(self.X, 2, axis=1))
        np.testing.assert_array_equal(
            out[:, 2], krylov_solve(self.A, self.B[:, 2], x0=X0[:, 2]))

    def test_refines_a_missed_start_on_a_cn_system(self):
        system = build_cn_system(build_mesh(-1.0, 1.0, 4, 8), 0.01)
        rng = np.random.default_rng(12)
        b = rng.standard_normal(system.G.shape[0])
        x0 = system.lu.solve(b) + 1e-3
        G = MatvecCount(system.G)
        tol = SolverOptions().residual_tol
        assert np.max(np.abs(b - system.G @ x0)) > tol
        x = krylov_solve(G, b, x0=x0)
        assert np.max(np.abs(b - system.G @ x)) <= tol
        assert G.count > 2      # the check, GMRES's products, the check
        hopeless = SolverOptions(residual_tol=1e-30, max_krylov=4,
                                 max_restarts=2)
        with pytest.raises(KrylovError) as info:
            krylov_solve(G, b, x0=x0, opts=hopeless)
        last, _ = scipy.sparse.linalg.gmres(system.G, b, x0, rtol=0.0,
                                            atol=1e-30, restart=4, maxiter=2)
        assert info.value.residual == np.max(np.abs(b - system.G @ last))
        assert 0 < info.value.residual < np.max(np.abs(b - system.G @ x0))

    def test_non_finite_start_fails_after_one_matvec(self):
        G = MatvecCount(self.A)
        X0 = self.X.copy()
        X0[4, 1] = np.inf
        with pytest.raises(KrylovError) as info:
            krylov_solve_block(G, self.B, X0)
        assert not np.isfinite(info.value.residual)
        # the block check, then the failing column's own check; no cycle
        assert G.count == self.B.shape[1] + 1


class TestRealificationLayout:
    def test_stack_and_unstack_roundtrip(self):
        rng = np.random.default_rng(4)
        u = rng.standard_normal(7) + 1j * rng.standard_normal(7)
        np.testing.assert_array_equal(unstack_real(stack_real(u)), u)

    def test_stack_puts_imaginary_block_first(self):
        u = np.array([1.0 + 2.0j, 3.0 - 4.0j])
        np.testing.assert_array_equal(stack_real(u), [2.0, -4.0, 1.0, 3.0])

    @pytest.mark.parametrize("shape", [(1, 8), (4, 8), (10, 30), (2, 5),
                                       (2, 16)])
    def test_kron_pair_equals_complex_cn_action(self, shape):
        # the real system rows are ordered [real-equations; imag-equations],
        # so G acting on [imag; real] lands on [Re lhs; Im lhs] of the
        # complex operator (1 + i tau/2 B), and G' likewise for the rhs
        M, J = shape
        tau = 0.01
        system = build_cn_system(build_mesh(-1.0, 1.0, M, J), tau)
        B, G, G_rhs = system.B, system.G, system.G_explicit
        n = B.shape[0]
        # two scaled copies of B and two identity blocks, no stored zeros
        # (M <= 2 meshes make B more than half full)
        for matrix in (G, G_rhs, B, system.B_boundary):
            assert np.all(matrix.data != 0.0), shape
        assert G.nnz == G_rhs.nnz == 2 * B.nnz + 2 * n
        rng = np.random.default_rng(5)
        for _ in range(100):
            u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            lhs = u + 0.5j * tau * (B @ u)
            rhs = u - 0.5j * tau * (B @ u)
            np.testing.assert_allclose(G @ stack_real(u),
                                       np.concatenate([lhs.real, lhs.imag]),
                                       atol=1e-12)
            np.testing.assert_allclose(G_rhs @ stack_real(u),
                                       np.concatenate([rhs.real, rhs.imag]),
                                       atol=1e-12)


class TestInteriorBoundaryBlocks:
    def test_interior_and_boundary_shapes(self):
        mesh = build_mesh(0.0, 1.0, 3, 4)
        system = build_cn_system(mesh, 0.01)
        n = mesh.n_nodes
        assert system.B.shape == (n - 2, n - 2)
        assert system.B_boundary.shape == (n - 2, 2)

    def test_interior_and_boundary_reconstruct_full_action(self):
        mesh = build_mesh(-1.0, 1.0, 2, 6)
        D2 = assemble_global(mesh, 2)
        system = build_cn_system(mesh, 0.01)
        u = np.random.default_rng(3).standard_normal(mesh.n_nodes)
        full = (D2 @ u)[1:-1]
        split = system.B @ u[1:-1] + system.B_boundary @ u[[0, -1]]
        np.testing.assert_allclose(split, full, atol=1e-12)


class TestCNStep:
    def test_zero_tau_limit_is_identity(self):
        mesh = build_mesh(-1.0, 1.0, 2, 8)
        system = build_cn_system(mesh, 1e-300)
        rng = np.random.default_rng(6)
        u = rng.standard_normal(mesh.n_nodes) + 1j * rng.standard_normal(mesh.n_nodes)
        u[0] = u[-1] = 0.0
        out = cn_step_linear(system, u)
        np.testing.assert_allclose(out, u, atol=1e-10)

    def test_step_is_time_reversible(self):
        # Crank-Nicolson for i u_t = u_xx is a Cayley map; forward then
        # backward must return the start up to solver tolerance
        mesh = build_mesh(-1.0, 1.0, 2, 10)
        tau = 0.01
        fwd = build_cn_system(mesh, tau)
        bwd = CNSystem(G=fwd.G_explicit.copy(), G_explicit=fwd.G.copy(),
                       B=fwd.B, B_boundary=fwd.B_boundary, tau=-tau,
                       n_interior=fwd.n_interior)
        rng = np.random.default_rng(7)
        u = rng.standard_normal(mesh.n_nodes) + 1j * rng.standard_normal(mesh.n_nodes)
        u[0] = u[-1] = 0.0
        tol = SolverOptions(residual_tol=1e-12)
        back = cn_step_linear(bwd, cn_step_linear(fwd, u, opts=tol), opts=tol)
        assert np.max(np.abs(back - u)) < 1e-10

    def test_near_conservation_of_charge_for_linear_schrodinger(self):
        # collocation + trapezoid weights is not exactly self-adjoint, so
        # the discrete charge drifts at the spatial discretization level,
        # not at the solver tolerance; it must stay small and must shrink
        # when the elements resolve the field better
        from odds_nls.observables import discrete_charge

        def drift(J):
            mesh = build_mesh(-1.0, 1.0, 3, J)
            system = build_cn_system(mesh, 0.005)
            x = mesh.nodes
            u = np.sin(np.pi * x) * np.exp(0.3j * x)
            u[0] = u[-1] = 0.0
            q0 = discrete_charge(u, x)
            opts = SolverOptions(residual_tol=1e-11)
            for _ in range(20):
                u = cn_step_linear(system, u, opts=opts)
            return abs(discrete_charge(u, x) - q0) / q0

        # dominated by the trapezoid weights, so it falls like 1/J^2
        coarse, fine = drift(6), drift(24)
        assert coarse < 5e-3
        assert fine < coarse / 5

    def test_boundary_forcing_matches_dense_unsplit_step(self):
        # one CN step with inhomogeneous Dirichlet data, against a dense
        # solve of the full (boundary rows pinned) system
        mesh = build_mesh(0.0, 1.0, 2, 7)
        tau = 0.004
        n = mesh.n_nodes
        Bfull = assemble_global(mesh, 2).toarray()
        Bi = Bfull[1:-1, 1:-1]
        Bb = Bfull[1:-1, [0, -1]]

        def bc(t):
            return np.array([0.2 * np.exp(1.1j * t), -0.3 * np.exp(-0.7j * t)])

        rng = np.random.default_rng(8)
        u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        u[[0, -1]] = bc(0.0)
        lhs = np.eye(n - 2) + 0.5j * tau * Bi
        rhs = (np.eye(n - 2) - 0.5j * tau * Bi) @ u[1:-1] \
            - 0.5j * tau * Bb @ (bc(0.0) + bc(tau))
        want = np.linalg.solve(lhs, rhs)

        system = build_cn_system(mesh, tau)
        forcing = system.boundary_forcing(bc(0.0), bc(tau))
        got = cn_step_linear(system, u, opts=SolverOptions(residual_tol=1e-12),
                             forcing=forcing, bc_new=bc(tau))
        np.testing.assert_allclose(got[1:-1], want, atol=1e-9)
        np.testing.assert_allclose(got[[0, -1]], bc(tau), atol=0)

    def test_default_forcing_is_zero_vector(self):
        # omitting forcing equals passing zeros, for a line and for a block
        mesh = build_mesh(-1.0, 1.0, 2, 6)
        system = build_cn_system(mesh, 0.01)
        rng = np.random.default_rng(13)
        for shape in [(mesh.n_nodes,), (mesh.n_nodes, 3)]:
            u = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            zeros = np.zeros((2 * system.n_interior,) + shape[1:])
            np.testing.assert_array_equal(
                cn_step_linear(system, u),
                cn_step_linear(system, u, forcing=zeros))
