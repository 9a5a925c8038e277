"""Crank-Nicolson systems of the complex field, and their linear solvers.

The linear half-step for i du = u_xx dt is A u^{n+1} = E u^n + f on the
interior values of one line, or of a block of lines (one per column) that
share the operator. With B = D2[1:-1, 1:-1], the interior block of the
assembled second-derivative operator, A = I + i tau/2 B, E = I - i tau/2 B,
and Dirichlet data enter as f = -i tau/2 D2[1:-1, [0, -1]] (bc^n + bc^{n+1}).

Since E = 2I - A, the step solves A y = 2u^n + f and returns u^{n+1} =
y - u^n: the two equations are the same, and so are their residuals,
2u^n + f - A y = E u^n + f - A u^{n+1}. A step thus makes no product with E.

B and B_boundary depend only on the mesh, and A only on the mesh and tau:
build_cn_system cuts the first two from the mesh's D2 once per mesh object,
forms each step size's system from them once, and keeps both in that
object's store (OverlapMesh1D.shared). Every run and axis on that object
with that tau solves with the one system and its complex sparse LU factor
(LUSolver), built on the first solve. One matvec checks the
factor's solution against the max-norm residual target (krylov_solve,
krylov_solve_block for many right-hand sides); only a solution that misses
it is refined by SciPy's restarted GMRES. LUSolver factors a Tridiagonal,
the 1D reference schemes' matrix, by LAPACK's tridiagonal LU instead, under
the same check.

CNSystem.E, and G and G_explicit, A and E over the reals acting on the
stacked vector [imag; real] (stack_real), are built on request; no solve
uses them.
"""

import functools
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg.lapack
import scipy.sparse as sp
import scipy.sparse.linalg

# re-exported, so code that imports assemble_global from here keeps working
from .mesh import OverlapMesh1D, assemble_global  # noqa: F401


class KrylovError(RuntimeError):
    """Raised when a linear solve does not reach the residual target.

    krylov_solve raises it, and so every LUSolver solve; residual is the
    max-norm residual reached, NaN when the data were not finite.
    """

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


@dataclass
class SolverOptions:
    """Tolerances of a linear solve.

    residual_tol applies to every solve. The GMRES fields govern the
    refinement in krylov_solve, which on the step path runs only when the
    LU solution misses residual_tol.
    """

    residual_tol: float = 1e-5     # max-norm target on b - G x
    max_krylov: int = 200          # GMRES restart length
    max_restarts: int = 400        # GMRES restart cycles


def krylov_solve(G, b: np.ndarray, x0: np.ndarray | None = None,
                 opts: SolverOptions | None = None) -> np.ndarray:
    """Solve G x = b to a max-norm residual of opts.residual_tol.

    One matvec checks x0 (zero when None), which is returned when it meets
    the target. Otherwise SciPy's restarted GMRES refines it to a 2-norm
    residual of residual_tol, which bounds the max-norm. G needs only shape
    and @. x keeps the dtype of x0, or of b when x0 is None.

    Raises KrylovError if the true residual misses the target after
    opts.max_restarts cycles, and at once if the residual of x0 is not
    finite.
    """
    opts = opts or SolverOptions()
    n = b.shape[0]
    x = np.zeros(n, dtype=b.dtype) if x0 is None else np.array(x0)
    r = b - G @ x
    res = float(np.max(np.abs(r)))
    if res <= opts.residual_tol:
        return x
    if not math.isfinite(res):
        raise KrylovError(f"residual {res} is not finite", residual=res)

    op = scipy.sparse.linalg.LinearOperator(G.shape, matvec=lambda v: G @ v,
                                            dtype=r.dtype)
    x, _ = scipy.sparse.linalg.gmres(op, b, x, rtol=0.0,
                                     atol=opts.residual_tol,
                                     restart=opts.max_krylov,
                                     maxiter=opts.max_restarts)
    res = float(np.max(np.abs(b - G @ x)))
    if res <= opts.residual_tol:
        return x
    raise KrylovError(
        f"no convergence after {opts.max_restarts} restarts "
        f"(residual {res:.3e} > {opts.residual_tol:.1e})", residual=res)


def krylov_solve_block(G, B: np.ndarray, X0: np.ndarray,
                       opts: SolverOptions | None = None) -> np.ndarray:
    """krylov_solve for every column of B, from the matching column of X0.

    One block product checks every column's residual, and one max over the
    block settles the common case. Only then, when some column misses
    opts.residual_tol (or is not finite), are the columns told apart, and
    those that miss go on to krylov_solve.
    """
    opts = opts or SolverOptions()
    X = np.array(X0)
    res = np.abs(B - G @ X)
    if res.max(initial=0.0) <= opts.residual_tol:
        return X
    for j in np.flatnonzero(~(res.max(axis=0) <= opts.residual_tol)):
        X[:, j] = krylov_solve(G, B[:, j], X[:, j], opts)
    return X


class Tridiagonal:
    """A square tridiagonal matrix held as its three diagonals.

    diagonals is (lower, diag, upper): the sub-, main and super-diagonal. It
    has the shape, @ and toarray of a matrix; @ takes one vector or every
    column of a block. + adds another Tridiagonal and a scalar * scales,
    one diagonal at a time.
    """

    def __init__(self, lower: np.ndarray, diag: np.ndarray,
                 upper: np.ndarray):
        self.diagonals = (lower, diag, upper)
        self.shape = (diag.size, diag.size)

    def __add__(self, other: "Tridiagonal") -> "Tridiagonal":
        return Tridiagonal(*(a + b for a, b in zip(self.diagonals,
                                                   other.diagonals)))

    def __rmul__(self, scalar: complex) -> "Tridiagonal":
        return Tridiagonal(*(scalar * d for d in self.diagonals))

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        col = (slice(None),) + (None,) * (np.ndim(x) - 1)
        lower, diag, upper = (d[col] for d in self.diagonals)
        y = diag * x
        y[1:] += lower * x[:-1]
        y[:-1] += upper * x[1:]
        return y

    def toarray(self) -> np.ndarray:
        lower, diag, upper = self.diagonals
        return np.diag(diag) + np.diag(lower, -1) + np.diag(upper, 1)


class LUSolver:
    """Solves with one constant matrix through its LU factor.

    A Tridiagonal is factored by LAPACK's tridiagonal LU (zgttrf, then one
    zgttrs per solve), any other matrix by SuperLU. The factor is computed
    on the first solve and reused by every later one, so building the owner
    costs no factorization. A sparse matrix is kept as a sparse array, whose
    @ dispatches faster than a sparse matrix's on the same kernel.
    """

    def __init__(self, A: Tridiagonal | sp.spmatrix | sp.sparray):
        self.A = A if isinstance(A, Tridiagonal) else sp.csr_array(A)
        self._solve = None

    def solve(self, b: np.ndarray, opts: SolverOptions | None = None
              ) -> np.ndarray:
        """Solve A x = b for one line's b or every column of a block's b.

        The factor's solution starts krylov_solve (krylov_solve_block for a
        block): one matvec checks its residual against opts.residual_tol, and
        only a solution that misses it is refined by GMRES. Raises
        KrylovError when GMRES misses it too, and at once when the residual
        is not finite (a NaN or inf in b). The first solve raises
        np.linalg.LinAlgError for a singular Tridiagonal.
        """
        if self._solve is None:
            self._solve = self._factor()
        x = self._solve(b)
        if b.ndim == 1:
            return krylov_solve(self.A, b, x, opts)
        return krylov_solve_block(self.A, b, x, opts)

    def _factor(self):
        """The solve of A's LU factor, as a function of the right-hand side."""
        if isinstance(self.A, Tridiagonal):
            *lu, info = scipy.linalg.lapack.zgttrf(*self.A.diagonals)
            if info:
                raise np.linalg.LinAlgError("tridiagonal matrix is singular")
            return lambda b: scipy.linalg.lapack.zgttrs(*lu, b)[0]
        return scipy.sparse.linalg.splu(sp.csc_matrix(self.A)).solve


@dataclass
class CNSystem:
    """One mesh/step-size Crank-Nicolson system, reusable across time steps.

    A = I + i tau/2 B is formed on B's pattern, so B must be canonical and
    store its whole diagonal (ValueError otherwise): each entry of A is 1 on
    the diagonal and +0.0 off it, plus i tau/2 times B's entry. For a B that
    stores no zeros and a finite tau B, that is bit for bit the sparse sum
    sp.identity(n) + 0.5j * tau * B. lu solves with A, and its factor is
    built on the first step that needs it. E, G and G_explicit are built on
    request. No method writes to B or B_boundary, which systems of one mesh
    share.

    diagonal, which of B's stored entries lie on the diagonal, is found and
    checked when None; build_cn_system passes the mask it cut with B.
    """

    B: sp.csr_matrix
    B_boundary: sp.csr_matrix   # (n_int, 2) couplings to the two end nodes
    tau: float
    diagonal: np.ndarray | None = field(default=None, repr=False,
                                        compare=False)
    n_interior: int = field(init=False)
    A: sp.csr_matrix = field(init=False, repr=False, compare=False)
    lu: LUSolver = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.n_interior = self.B.shape[0]
        B = self.B
        if self.diagonal is None:
            self.diagonal = _diagonal_mask(B)
        data = np.empty(B.nnz, dtype=complex)
        data.real = self.diagonal
        np.multiply(B.data, 0.5 * self.tau, out=data.imag)
        # A owns its index arrays, so no in-place operation on one matrix
        # reaches the other
        self.A = sp.csr_matrix((data, B.indices.copy(), B.indptr.copy()),
                               shape=B.shape)
        self.lu = LUSolver(self.A)

    def boundary_forcing(self, bc_old, bc_new) -> np.ndarray:
        """Affine term produced by Dirichlet data at t_n and t_{n+1}.

        bc_old and bc_new hold the (left, right) values of one line, or a
        (2, m) array of them for m lines; the term is then one column per
        line.
        """
        return -0.5j * self.tau * (self.B_boundary @ np.add(bc_old, bc_new))

    @functools.cached_property
    def E(self) -> sp.csr_matrix:
        """The explicit CN half, I - i tau/2 B; equal to 2I - A."""
        eye = sp.identity(self.n_interior, format="csr")
        return eye - 0.5j * self.tau * self.B

    @functools.cached_property
    def G(self) -> sp.csr_matrix:
        """A over the reals, [[-tau/2 B, I], [I, tau/2 B]] on [imag; real]."""
        return self._stacked(-self.tau / 2.0)

    @functools.cached_property
    def G_explicit(self) -> sp.csr_matrix:
        """E over the reals, [[tau/2 B, I], [I, -tau/2 B]] on [imag; real]."""
        return self._stacked(self.tau / 2.0)

    def _stacked(self, half: float) -> sp.csr_matrix:
        eye = sp.identity(self.n_interior, format="csr")
        return sp.bmat([[half * self.B, eye], [eye, -half * self.B]],
                       format="csr")


def _diagonal_mask(B: sp.csr_matrix) -> np.ndarray:
    """Which of B's stored entries lie on its diagonal, one bool each.

    Raises ValueError unless B is canonical and stores its whole diagonal.
    """
    n = B.shape[0]
    diagonal = B.indices == np.repeat(np.arange(n), np.diff(B.indptr))
    if not B.has_canonical_format or np.count_nonzero(diagonal) != n:
        raise ValueError("B must be canonical and store its whole diagonal")
    return diagonal


def build_cn_system(mesh: OverlapMesh1D, tau: float) -> CNSystem:
    """The CN system for one mesh and step size, kept in the mesh's store.

    It is formed on the first call for the mesh object and tau, from the
    cut (_interior_cut) shared by every step size; later calls return it,
    with the LU factor its first solve built. Raises ValueError unless tau
    is positive and finite.
    """
    if not 0 < tau < math.inf:
        raise ValueError(f"tau must be positive and finite, got {tau}")
    B, B_boundary, diagonal = mesh.shared("cn_cut", _interior_cut)
    return mesh.shared(("cn", tau),
                       lambda _: CNSystem(B, B_boundary, tau, diagonal))


def _interior_cut(mesh: OverlapMesh1D) -> tuple:
    """(B, B_boundary, _diagonal_mask(B)) of the mesh's second derivative.

    B = D2[1:-1, 1:-1] and B_boundary = D2[1:-1, [0, -1]] are cut from the
    arrays of the mesh's assembled D2: its rows are sorted, so an interior
    row's entry in column 0 is its first and one in column n - 1 its last.
    These form B_boundary, and the rest of the interior rows' entries B.
    Like D2, they and the matrices built from them store no zeros.
    """
    D2 = mesh.operator(2)
    n = D2.shape[0]
    indptr, cols = D2.indptr, D2.indices
    # each interior row's first and last entry, and which are end columns
    ends = np.column_stack([indptr[1:-2], indptr[2:-1] - 1])
    on_edge = cols[ends] == [0, n - 1]
    edge = ends[on_edge]
    edge_ptr = np.zeros(n - 1, dtype=indptr.dtype)
    np.cumsum(on_edge.sum(axis=1), out=edge_ptr[1:])
    B_boundary = sp.csr_matrix(
        (D2.data[edge], np.nonzero(on_edge)[1].astype(cols.dtype), edge_ptr),
        shape=(n - 2, 2))
    keep = np.ones(indptr[-1], dtype=bool)
    keep[:indptr[1]] = keep[indptr[-2]:] = keep[edge] = False
    B = sp.csr_matrix((D2.data[keep], cols[keep] - 1,
                       indptr[1:-1] - indptr[1] - edge_ptr),
                      shape=(n - 2, n - 2))
    return B, B_boundary, _diagonal_mask(B)


def stack_real(u: np.ndarray) -> np.ndarray:
    """Complex interior line or block -> stacked real unknown [imag; real]."""
    return np.concatenate([u.imag, u.real])


def unstack_real(U: np.ndarray) -> np.ndarray:
    n = U.shape[0] // 2
    return U[n:] + 1j * U[:n]


def cn_step_linear(system: CNSystem, u: np.ndarray,
                   opts: SolverOptions | None = None,
                   forcing: np.ndarray | float = 0.0,
                   bc_new: tuple[complex, complex] | None = None) -> np.ndarray:
    """Advance a line or a block of lines one linear CN step along axis 0.

    u is one full-grid complex line (n,) or a block (n, m) of m lines. The
    two end rows of the returned array are set to bc_new, the (left, right)
    values of one line or a (2, m) array of them, or kept when no new
    boundary data is supplied. forcing is the affine term of the boundary
    data (CNSystem.boundary_forcing), one column per line of a block; the
    scalar 0.0, the default, is the zero forcing of homogeneous data for a
    line or a block. Interior values are solved with the system's LU
    factor, all lines of a block at once: it solves A y = 2u + forcing,
    which is A x = E u + forcing for x = y - u, with the same residual.

    Raises KrylovError when neither the LU solution nor its GMRES
    refinement meets opts.residual_tol, and at once for a NaN or inf in u.
    """
    inner = u[1:-1]
    out = u.copy()
    np.subtract(system.lu.solve(2.0 * inner + forcing, opts), inner,
                out=out[1:-1])
    if bc_new is not None:
        out[0], out[-1] = bc_new
    return out
