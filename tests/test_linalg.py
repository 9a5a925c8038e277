import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.linalg.lapack
import scipy.sparse.linalg

import odds_nls.stepper as stepper
from odds_nls.linalg import (CNSystem, KrylovError, LUSolver, SolverOptions,
                             Tridiagonal, build_cn_system, cn_step_linear,
                             krylov_solve, krylov_solve_block, stack_real,
                             unstack_real)
from odds_nls.mesh import assemble_global, build_mesh
from odds_nls.stepper import ProblemSpec, RunOptions, run_trajectory


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


def random_sparse(n: int, seed: int) -> sp.csr_matrix:
    """A complex, diagonally dominant sparse matrix of size n."""
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return sp.csr_matrix(np.where(rng.random((n, n)) < 0.3, A, 0.0)
                         + 6.0 * np.eye(n))


def random_tridiagonal(n: int, seed: int) -> Tridiagonal:
    """A complex, diagonally dominant tridiagonal matrix of size n."""
    rng = np.random.default_rng(seed)

    def draw(size):
        return rng.standard_normal(size) + 1j * rng.standard_normal(size)

    return Tridiagonal(draw(n - 1), draw(n) + 6.0, draw(n - 1))


# each kind of matrix LUSolver factors: its maker and its LU routine
MATRICES = {"sparse": (random_sparse, "splu"),
            "tridiagonal": (random_tridiagonal, "zgttrf")}


@pytest.fixture(params=MATRICES)
def kind(request):
    return request.param


@pytest.fixture
def factor_calls(monkeypatch):
    """The LU factorizations made while the test runs, as (routine, n)."""
    calls = []
    splu, zgttrf = scipy.sparse.linalg.splu, scipy.linalg.lapack.zgttrf
    monkeypatch.setattr(scipy.sparse.linalg, "splu", lambda A: (
        calls.append(("splu", A.shape[0])) or splu(A)))
    monkeypatch.setattr(scipy.linalg.lapack, "zgttrf", lambda *d: (
        calls.append(("zgttrf", d[1].size)) or zgttrf(*d)))
    return calls


class TestLUSolver:
    def test_factors_on_first_solve_only(self, kind, factor_calls):
        make, routine = MATRICES[kind]
        A = make(12, 22)
        dense = A.toarray()
        solver = LUSolver(A)
        assert factor_calls == []           # building does not factor
        rng = np.random.default_rng(23)
        for _ in range(3):
            b = rng.standard_normal(12) + 1j * rng.standard_normal(12)
            x = solver.solve(b, SolverOptions(residual_tol=1e-12))
            np.testing.assert_allclose(x, np.linalg.solve(dense, b),
                                       rtol=0, atol=1e-13)
        assert factor_calls == [(routine, 12)]
        np.testing.assert_array_equal(A.toarray(), dense)  # A is not written

    def test_cn_steps_share_one_factor(self, factor_calls):
        mesh = build_mesh(-1.0, 1.0, 3, 8)
        system = build_cn_system(mesh, 0.01)
        assert factor_calls == []           # building does not factor
        u = np.sin(np.pi * mesh.nodes) + 0j
        for _ in range(4):
            u = cn_step_linear(system, u)
        assert factor_calls == [("splu", system.n_interior)]

    def test_many_columns_match_single_solves(self, kind):
        A = MATRICES[kind][0](15, 24)
        B = np.random.default_rng(25).standard_normal((15, 6)) + 0j
        solver = LUSolver(A)
        X = solver.solve(B)
        for j in range(B.shape[1]):
            np.testing.assert_allclose(X[:, j], solver.solve(B[:, j]),
                                       rtol=0, atol=1e-13)
        assert np.max(np.abs(B - A @ X)) < 1e-12

    def test_nan_right_hand_side_fails_after_one_matvec(self, kind):
        solver = LUSolver(MATRICES[kind][0](15, 26))
        b = np.ones(15, dtype=complex)
        solver.solve(b)                     # factor first
        counted = solver.A = MatvecCount(solver.A)
        b[3] = np.nan
        with pytest.raises(KrylovError) as info:
            solver.solve(b)
        assert np.isnan(info.value.residual)
        assert counted.count == 1           # the check only, no GMRES

    def test_missed_residual_raises_after_gmres(self, kind):
        # the LU solution misses an unreachable tolerance, so GMRES
        # refinement runs until its restarts are spent
        solver = LUSolver(MATRICES[kind][0](15, 27))
        hopeless = SolverOptions(residual_tol=1e-30, max_krylov=4,
                                 max_restarts=2)
        b = np.ones(15, dtype=complex)
        with pytest.raises(KrylovError) as info:
            solver.solve(b, hopeless)
        assert 0 < info.value.residual < 1e-12
        with pytest.raises(KrylovError):
            solver.solve(np.column_stack([b, b]), hopeless)

    def test_singular_matrix_is_rejected_at_the_factor(self):
        zero = np.zeros(3, dtype=complex)
        solver = LUSolver(Tridiagonal(zero[:2], zero, zero[:2]))
        with pytest.raises(np.linalg.LinAlgError, match="singular"):
            solver.solve(np.ones(3, dtype=complex))

    def test_matrix_products_match_its_dense_form(self):
        A = random_tridiagonal(9, 20)
        dense = A.toarray()
        assert A.shape == dense.shape == (9, 9)
        np.testing.assert_array_equal(dense, np.diag(A.diagonals[1])
                                      + np.diag(A.diagonals[0], -1)
                                      + np.diag(A.diagonals[2], 1))
        rng = np.random.default_rng(21)
        x, X = rng.standard_normal(9), rng.standard_normal((9, 4))
        np.testing.assert_allclose(A @ x, dense @ x, rtol=0, atol=1e-14)
        np.testing.assert_allclose(A @ X, dense @ X, rtol=0, atol=1e-14)
        # + and a scalar * act entry by entry, as on the dense form
        B = random_tridiagonal(9, 28)
        c = 0.7j * 0.015
        np.testing.assert_array_equal((A + c * B).toarray(),
                                      dense + c * B.toarray())


class MatvecCount:
    """A matrix that counts its products with vectors, one per column.

    It has only a shape and @, as a tracing proxy of a solver matrix has;
    products counts the @ calls, a block's as one.
    """

    def __init__(self, A):
        self.A = A
        self.shape = A.shape
        self.count = 0
        self.products = 0

    def __matmul__(self, x):
        self.count += 1 if np.ndim(x) == 1 else x.shape[1]
        self.products += 1
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
        # the block check settles every column but the perturbed one, which
        # costs what its own krylov_solve costs on top
        G = MatvecCount(self.A)
        X0 = self.X.copy()
        X0[:, 2] += 1.0
        out = krylov_solve_block(G, self.B, X0)
        np.testing.assert_array_equal(np.delete(out, 2, axis=1),
                                      np.delete(self.X, 2, axis=1))
        alone = MatvecCount(self.A)
        np.testing.assert_array_equal(
            out[:, 2], krylov_solve(alone, self.B[:, 2], x0=X0[:, 2]))
        assert alone.count > 2
        assert G.count == self.B.shape[1] + alone.count

    def test_refines_a_missed_start_on_a_cn_system(self):
        # a complex start is refined in complex arithmetic, imaginary part
        # included
        system = build_cn_system(build_mesh(-1.0, 1.0, 4, 8), 0.01)
        A = system.A
        rng = np.random.default_rng(12)
        b = (rng.standard_normal(system.n_interior)
             + 1j * rng.standard_normal(system.n_interior))
        x0 = system.lu.solve(b) + (1.0 + 1.0j) * 1e-3
        G = MatvecCount(A)
        tol = SolverOptions().residual_tol
        assert np.max(np.abs(b - A @ x0)) > tol
        x = krylov_solve(G, b, x0=x0)
        assert x.dtype == complex
        assert np.max(np.abs(b - A @ x)) <= tol
        assert G.count > 2      # the check, GMRES's products, the check
        hopeless = SolverOptions(residual_tol=1e-30, max_krylov=4,
                                 max_restarts=2)
        with pytest.raises(KrylovError) as info:
            krylov_solve(G, b, x0=x0, opts=hopeless)
        last, _ = scipy.sparse.linalg.gmres(A, b, x0, rtol=0.0,
                                            atol=1e-30, restart=4, maxiter=2)
        assert info.value.residual == np.max(np.abs(b - A @ last))
        assert 0 < info.value.residual < np.max(np.abs(b - A @ x0))

    def test_non_finite_start_fails_after_one_matvec(self):
        G = MatvecCount(self.A)
        X0 = self.X.copy()
        X0[4, 1] = np.inf
        with pytest.raises(KrylovError) as info:
            krylov_solve_block(G, self.B, X0)
        assert not np.isfinite(info.value.residual)
        # the block check, then the failing column's own check; no cycle
        assert G.count == self.B.shape[1] + 1
        # a NaN right-hand side fails the same way
        G = MatvecCount(self.A)
        B = self.B.copy()
        B[3, 1] = np.nan
        with pytest.raises(KrylovError) as info:
            krylov_solve_block(G, B, self.X)
        assert np.isnan(info.value.residual)
        assert G.count == B.shape[1] + 1


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
        # A and E act as the complex CN operators 1 +- i tau/2 B; the real
        # system rows are ordered [real-equations; imag-equations], so G
        # acting on [imag; real] lands on [Re lhs; Im lhs] of A's action,
        # and G' likewise for E's
        M, J = shape
        tau = 0.01
        system = build_cn_system(build_mesh(-1.0, 1.0, M, J), tau)
        B, G, G_rhs = system.B, system.G, system.G_explicit
        A, E = system.A, system.E
        n = B.shape[0]
        # no stored zeros (M <= 2 meshes make B more than half full): G, G'
        # hold two scaled copies of B and two identity blocks, A and E one
        # of B with the identity added to its full diagonal
        for matrix in (A, E, G, G_rhs, B, system.B_boundary):
            assert np.all(matrix.data != 0.0), shape
        assert np.all(B.diagonal() != 0.0)
        assert A.nnz == E.nnz == B.nnz
        assert G.nnz == G_rhs.nnz == 2 * B.nnz + 2 * n
        rng = np.random.default_rng(5)
        for _ in range(100):
            u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            lhs = u + 0.5j * tau * (B @ u)
            rhs = u - 0.5j * tau * (B @ u)
            np.testing.assert_allclose(A @ u, lhs, rtol=1e-13, atol=1e-12)
            np.testing.assert_allclose(E @ u, rhs, rtol=1e-13, atol=1e-12)
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


def same_bits(got, want):
    """Equal CSR matrices: type, shape, dtypes, index arrays and the bytes
    of the data (array_equal would let -0.0 stand for 0.0)."""
    return (type(got) is type(want) and got.shape == want.shape
            and got.data.dtype == want.data.dtype
            and got.data.tobytes() == want.data.tobytes()
            and got.indices.dtype == want.indices.dtype
            and np.array_equal(got.indices, want.indices)
            and got.indptr.dtype == want.indptr.dtype
            and np.array_equal(got.indptr, want.indptr))


class TestBuildMatchesSlices:
    """build_cn_system cuts B and B_boundary from D2's arrays and forms A
    from B's entries; each is pinned bit for bit to the slice formulation
    and the sparse sum I + i tau/2 B."""

    @staticmethod
    def reference(mesh, tau):
        D2 = assemble_global(mesh, 2)
        B = D2[1:-1, 1:-1]
        A = sp.identity(B.shape[0], format="csr") + 0.5j * tau * B
        return B, D2[1:-1, [0, -1]], A

    # M = 1, then the convergence, soliton and gaussian2d meshes and taus
    @pytest.mark.parametrize("domain, M, J, tau", [
        ((-1.0, 1.0), 1, 8, 0.01), ((-1.0, 1.0), 1, 2, 0.3),
        ((-1.0, 1.0), 2, 16, 2.0 ** -10), ((-1.0, 1.0), 2, 16, 2.0 ** -4),
        ((-20.0, 100.0), 10, 30, 0.015), ((-10.0, 10.0), 4, 32, 0.01)])
    def test_matrices_equal_the_slices_bit_for_bit(self, domain, M, J, tau):
        mesh = build_mesh(*domain, M, J)
        system = build_cn_system(mesh, tau)
        B, B_boundary, A = self.reference(mesh, tau)
        assert same_bits(system.B, B)
        assert same_bits(system.B_boundary, B_boundary)
        assert same_bits(system.A, A)

    def test_a_of_a_negative_tau_matches_the_sparse_sum(self):
        # 0.5j * -tau has real part -0.0, which the product carries into
        # the real parts of c * B's entries; the sum turns them into 0.0
        B, B_boundary, A = self.reference(build_mesh(-1.0, 1.0, 2, 10), -0.01)
        assert same_bits(CNSystem(B=B, B_boundary=B_boundary, tau=-0.01).A, A)

    @pytest.mark.parametrize("case", ["no diagonal entry", "unsorted"])
    def test_other_patterns_are_rejected(self, case):
        B = sp.csr_matrix(np.array([[-2.0, 1.0, 0.0], [1.0, -2.0, 1.0],
                                    [0.0, 1.0, -2.0]]))
        if case == "no diagonal entry":
            B[1, 1] = 0.0
            B.eliminate_zeros()
        else:
            B.indices[:2] = B.indices[1::-1].copy()
            B.data[:2] = B.data[1::-1].copy()
            B.has_sorted_indices = False
        with pytest.raises(ValueError, match="diagonal"):
            CNSystem(B=B, B_boundary=sp.csr_matrix((3, 2)), tau=0.1)


class TestSharedCut:
    """B, B_boundary and B's diagonal mask are cut once per mesh object and
    shared, read-only, by the systems of every step size on it."""

    def test_two_step_sizes_assemble_d2_once(self, monkeypatch):
        import odds_nls.mesh
        orders = []

        def counted(mesh, order=2):
            orders.append(order)
            return assemble_global(mesh, order)

        monkeypatch.setattr(odds_nls.mesh, "assemble_global", counted)
        mesh = build_mesh(-1.0, 1.0, 2, 16)
        coarse, fine = (build_cn_system(mesh, tau) for tau in (0.1, 0.05))
        assert orders == [2]
        assert fine.B is coarse.B and fine.B_boundary is coarse.B_boundary
        assert fine.A is not coarse.A
        build_cn_system(dataclasses.replace(mesh), 0.05)   # a fresh copy
        assert orders == [2, 2]

    @pytest.mark.parametrize("M, J", [(1, 8), (2, 16), (10, 30)])
    def test_a_cached_system_equals_a_fresh_build_bit_for_bit(self, M, J):
        mesh = build_mesh(-20.0, 100.0, M, J)
        build_cn_system(mesh, 0.5)                  # fills the mesh's store
        cached = build_cn_system(mesh, 0.015)
        fresh = build_cn_system(build_mesh(-20.0, 100.0, M, J), 0.015)
        for name in ("A", "B", "B_boundary"):
            assert same_bits(getattr(cached, name), getattr(fresh, name))
        np.testing.assert_array_equal(cached.diagonal, fresh.diagonal)

    def test_direct_system_from_the_shared_b_matches_the_build(self):
        # without a mask, CNSystem finds and checks the diagonal itself
        mesh = build_mesh(-1.0, 1.0, 3, 8)
        built = build_cn_system(mesh, 0.01)
        direct = CNSystem(B=built.B, B_boundary=built.B_boundary, tau=0.01)
        assert same_bits(direct.A, built.A)
        np.testing.assert_array_equal(direct.diagonal, built.diagonal)

    def test_no_solve_or_derived_matrix_writes_the_shared_cut(self):
        mesh = build_mesh(-1.0, 1.0, 3, 8)
        systems = [build_cn_system(mesh, tau) for tau in (0.02, 0.01)]
        shared = (systems[0].B, systems[0].B_boundary)
        arrays = [a for m in shared for a in (m.data, m.indices, m.indptr)]
        arrays.append(systems[0].diagonal)
        before = [a.tobytes() for a in arrays]
        rng = np.random.default_rng(2)
        for system in systems:
            for shape in ((mesh.n_nodes,), (mesh.n_nodes, 3)):
                u = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
                bc = np.ones((2,) + shape[1:], complex)
                cn_step_linear(system, u, forcing=system.boundary_forcing(
                    bc, 2 * bc))
            for name in ("E", "G", "G_explicit"):
                getattr(system, name)
            system.A.data *= 2.0                    # A owns its arrays
            system.A.indices[:] = system.A.indices
        assert [a.tobytes() for a in arrays] == before
        assert not any(a.flags.writeable for a in arrays)
        with pytest.raises(ValueError, match="read-only"):
            systems[1].B.data *= 2.0


class TestStoredSystems:
    """Each mesh object keeps one CN system per step size in its store, so
    every run on that object and tau solves with one factor."""

    def test_one_system_per_mesh_object_and_tau(self):
        mesh = build_mesh(-1.0, 1.0, 3, 8)
        system = build_cn_system(mesh, 0.01)
        assert build_cn_system(mesh, 0.01) is system
        assert build_cn_system(mesh, 0.02) is not system
        assert build_cn_system(dataclasses.replace(mesh), 0.01) is not system

    def test_runs_on_one_mesh_factor_once_and_match_a_fresh_mesh(
            self, factor_calls):
        mesh = build_mesh(-1.0, 1.0, 3, 8)
        u0 = np.cos(0.5 * np.pi * mesh.nodes) + 0j

        def boundary(t, x):
            return np.exp(1j * t) * x

        def run(on):
            return run_trajectory(u0, on, ProblemSpec(1.0, 0.0, boundary),
                                  0.01, 3, options=RunOptions(
                                      snapshot_steps=(1,)))

        runs = [run(mesh), run(mesh)]
        assert factor_calls == [("splu", mesh.n_interior)]
        fresh = run(build_mesh(-1.0, 1.0, 3, 8))
        for res in runs:
            for name in ("values", "times", "charge", "energy"):
                assert (getattr(res, name).tobytes()
                        == getattr(fresh, name).tobytes()), name
            assert res.snapshots[1].tobytes() == fresh.snapshots[1].tobytes()

    def test_2d_runs_on_equal_axes_factor_once(self, factor_calls):
        mesh = build_mesh(-1.0, 1.0, 3, 8)
        u0 = np.outer(*(2 * [np.cos(0.5 * np.pi * mesh.nodes)])) + 0j
        for _ in range(2):
            run_trajectory(u0, (mesh, mesh), ProblemSpec(), 0.01, 2)
        assert factor_calls == [("splu", mesh.n_interior)]


@pytest.mark.parametrize("tau", [0.0, -0.01, np.nan, np.inf, -np.inf])
def test_build_and_run_reject_a_tau_not_positive_and_finite(tau):
    mesh = build_mesh(-1.0, 1.0, 2, 6)
    with pytest.raises(ValueError, match="tau"):
        build_cn_system(mesh, tau)
    u0 = np.sin(np.pi * mesh.nodes) + 0j
    with pytest.raises(ValueError, match="tau"):
        run_trajectory(u0, mesh, ProblemSpec(), tau, 2)


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
        bwd = CNSystem(B=fwd.B, B_boundary=fwd.B_boundary, tau=-tau)
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
            zeros = np.zeros((system.n_interior,) + shape[1:], complex)
            np.testing.assert_array_equal(
                cn_step_linear(system, u),
                cn_step_linear(system, u, forcing=zeros))


class TestOneSolvePerStep:
    """The step solves A y = 2u + f and returns y - u, which is the CN step.

    It makes one product with A, the solve's residual check, and none with
    E, which it never builds.
    """

    @staticmethod
    def data(mesh, columns, seed):
        rng = np.random.default_rng(seed)
        shape = (mesh.n_nodes,) if columns is None else (mesh.n_nodes,
                                                          columns)
        ends = (2,) if columns is None else (2, columns)

        def draw(shape):
            return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

        return draw(shape), draw(ends), draw(ends)

    @pytest.mark.parametrize("columns", [None, 3])
    def test_matches_dense_solve_with_dirichlet_forcing(self, columns):
        mesh = build_mesh(0.0, 1.0, 3, 7)
        system = build_cn_system(mesh, 0.004)
        u, bc_old, bc_new = self.data(mesh, columns, 14)
        u[[0, -1]] = bc_old
        forcing = system.boundary_forcing(bc_old, bc_new)
        want = np.linalg.solve(system.A.toarray(),
                               system.E.toarray() @ u[1:-1] + forcing)
        got = cn_step_linear(system, u, forcing=forcing, bc_new=bc_new)
        assert np.max(np.abs(got[1:-1] - want)) <= 1e-12 * np.max(np.abs(want))
        np.testing.assert_array_equal(got[[0, -1]], bc_new)

    @pytest.mark.parametrize("columns", [None, 3])
    def test_one_product_with_a_and_none_with_e(self, columns):
        mesh = build_mesh(-1.0, 1.0, 3, 8)
        system = build_cn_system(mesh, 0.01)
        u, bc_old, bc_new = self.data(mesh, columns, 15)
        forcing = system.boundary_forcing(bc_old, bc_new)
        cn_step_linear(system, u, forcing=forcing)      # factors A
        counted = system.lu.A = MatvecCount(system.lu.A)
        cn_step_linear(system, u, forcing=forcing, bc_new=bc_new)
        assert counted.products == 1
        assert counted.count == (1 if columns is None else columns)
        assert "E" not in vars(system)

    def test_trajectories_never_build_e(self, monkeypatch):
        built = []

        def keep(mesh, tau):
            built.append(build_cn_system(mesh, tau))
            return built[-1]

        monkeypatch.setattr(stepper, "build_cn_system", keep)
        mesh = build_mesh(-1.0, 1.0, 3, 8)
        u0 = np.cos(0.5 * np.pi * mesh.nodes) + 0j

        def boundary(t, x):
            return np.exp(1j * t) * x

        run_trajectory(u0, mesh, ProblemSpec(1.0, 0.0, boundary), 0.01, 3)
        run_trajectory(np.outer(u0, u0), (mesh, mesh), ProblemSpec(), 0.02, 2,
                       options=RunOptions(record_invariants=False))
        # the 2D run's two axes are one mesh object, with one system; its
        # own tau keeps it apart from the 1D run's system in the store
        assert len(built) == 3 and len({id(s) for s in built}) == 2
        assert not any("E" in vars(system) for system in built)
