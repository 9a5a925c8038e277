"""Crank-Nicolson systems in stacked real form, and their linear solvers.

The linear half-step for i du = u_xx dt is written as G U = G' U^n + F,
with U the stacked real vector [imag; real] of interior values of one line,
or one such column per line for a block of lines that share the operator.
B = D2[1:-1, 1:-1] is the interior block of the assembled second-derivative
operator, and G and G' are the 2x2 block matrices
[[-tau/2 B, I], [I, tau/2 B]] and [[tau/2 B, I], [I, -tau/2 B]]. Boundary
data enters through an affine forcing term built from the two boundary
columns D2[1:-1, [0, -1]].

The matrix depends only on the mesh and tau, so every time step solves it
with one sparse LU factor (LUSolver), built on the first solve. The
factor's solution is the initial iterate of the restarted Arnoldi solver
krylov_solve (krylov_solve_block for many right-hand sides), which checks
its residual with one matvec and returns it when it meets the tolerance;
Arnoldi cycles run only for a solution that misses it.
"""

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg

from .mesh import OverlapMesh1D, assemble_global


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

    residual_tol applies to every solve. The Arnoldi fields govern the
    cycles of krylov_solve, which on the step path run only when the LU
    solution misses residual_tol.
    """

    residual_tol: float = 1e-5     # max-norm target on b - G x
    breakdown_tol: float = 1e-4    # Arnoldi happy-breakdown threshold
    max_krylov: int = 200          # restart length cap
    max_restarts: int = 400


def krylov_solve(G, b: np.ndarray, x0: np.ndarray | None = None,
                 opts: SolverOptions | None = None) -> np.ndarray:
    """Restarted Arnoldi minimal-residual solve of G x = b.

    Classical Gram-Schmidt orthogonalisation; the small least-squares problem
    on the Hessenberg matrix is solved at breakdown or at the restart length.
    Convergence is declared on the max-norm of the true residual.

    Raises KrylovError if the residual target is not met within
    opts.max_restarts cycles, and at once if the residual of x0 is not
    finite.
    """
    opts = opts or SolverOptions()
    n = b.shape[0]
    x = np.zeros(n) if x0 is None else np.array(x0, dtype=float)
    r = b - G @ x
    res = float(np.max(np.abs(r)))
    if res <= opts.residual_tol:
        return x
    if not math.isfinite(res):
        raise KrylovError(f"residual {res} is not finite", residual=res)

    m = min(n, opts.max_krylov)
    V = np.empty((m + 1, n))
    H = np.zeros((m + 1, m))

    # The residual is evaluated only at cycle boundaries: each inner cycle
    # runs to happy breakdown or the restart length before the correction is
    # formed. Within-cycle residual monitoring would exit sooner but is a
    # different algorithm. On the step path the cycles run only when an LU
    # solution misses the tolerance, so their cost no longer sets the cost
    # of a step.
    breakdown_tol = opts.breakdown_tol
    for _ in range(opts.max_restarts):
        beta = math.sqrt(r @ r)
        if beta == 0.0:
            return x
        V[0] = r / beta
        H[:] = 0.0
        for j in range(m):
            w = G @ V[j]
            Vj = V[:j + 1]
            h = Vj @ w
            w -= Vj.T @ h
            H[:j + 1, j] = h
            hj1 = math.sqrt(w @ w)
            H[j + 1, j] = hj1
            if hj1 < breakdown_tol or j == m - 1:
                e1 = np.zeros(j + 2)
                e1[0] = beta
                # rank-revealing least squares: near breakdown the Hessenberg
                # factor is numerically rank deficient
                y = scipy.linalg.lstsq(H[:j + 2, :j + 1], e1,
                                       lapack_driver="gelsy",
                                       check_finite=False)[0]
                x = x + Vj.T @ y
                r = b - G @ x
                break
            np.divide(w, hj1, out=V[j + 1])
        if np.max(np.abs(r)) <= opts.residual_tol:
            return x
    raise KrylovError(
        f"no convergence after {opts.max_restarts} restarts "
        f"(residual {np.max(np.abs(r)):.3e} > {opts.residual_tol:.1e})",
        residual=float(np.max(np.abs(r))))


def krylov_solve_block(G, B: np.ndarray, X0: np.ndarray,
                       opts: SolverOptions | None = None) -> np.ndarray:
    """krylov_solve for every column of B, from the matching column of X0.

    One block product checks every column's residual; only the columns that
    miss opts.residual_tol go on to krylov_solve.
    """
    opts = opts or SolverOptions()
    X = np.array(X0, dtype=float)
    res = np.max(np.abs(B - G @ X), axis=0)
    for j in np.flatnonzero(~(res <= opts.residual_tol)):
        X[:, j] = krylov_solve(G, B[:, j], X[:, j], opts)
    return X


class LUSolver:
    """Solves with one constant sparse matrix through its LU factor.

    The factor is computed on the first solve and reused by every later one,
    so building the owner costs no factorization.
    """

    def __init__(self, G: sp.spmatrix):
        self.G = G
        self._lu = None

    def solve(self, b: np.ndarray, opts: SolverOptions | None = None
              ) -> np.ndarray:
        """Solve G x = b for one line's b or every column of a block's b.

        The factor's solution starts krylov_solve (krylov_solve_block for a
        block): one matvec checks its residual against opts.residual_tol, and
        only a solution that misses it is refined by Arnoldi cycles. Raises
        KrylovError when those give up, and at once when the residual is not
        finite (a NaN or inf in b).
        """
        if self._lu is None:
            self._lu = scipy.sparse.linalg.splu(sp.csc_matrix(self.G))
        x = self._lu.solve(b)
        if b.ndim == 1:
            return krylov_solve(self.G, b, x, opts)
        return krylov_solve_block(self.G, b, x, opts)


@dataclass
class CNSystem:
    """One mesh/step-size Crank-Nicolson system, reusable across time steps.

    lu solves with G; its factor is built on the first step that needs it.
    """

    G: sp.csr_matrix
    G_explicit: sp.csr_matrix
    B: sp.csr_matrix
    B_boundary: sp.csr_matrix   # (n_int, 2) couplings to the two end nodes
    tau: float
    n_interior: int
    F: np.ndarray = field(default=None)  # zero forcing of homogeneous data
    lu: LUSolver = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.lu = LUSolver(self.G)

    def boundary_forcing(self, bc_old, bc_new) -> np.ndarray:
        """Affine term produced by Dirichlet data at t_n and t_{n+1}.

        bc_old and bc_new hold the (left, right) values of one line, or a
        (2, m) array of them for m lines; the term is then one column per
        line.
        """
        total = np.asarray(bc_new, dtype=complex) + np.asarray(bc_old)
        half = self.tau / 2.0
        return np.concatenate([half * (self.B_boundary @ total.imag),
                               -half * (self.B_boundary @ total.real)])


def build_cn_system(mesh: OverlapMesh1D, tau: float) -> CNSystem:
    """Assemble the CN system for one mesh and step size.

    G and G' are built from slices of the assembled operator; like it, they
    store no zeros. Its forcing F is the zero vector of homogeneous
    Dirichlet data.
    """
    D2 = assemble_global(mesh, 2)
    B = D2[1:-1, 1:-1]
    half = tau / 2.0
    eye = sp.identity(B.shape[0], format="csr")
    G = sp.bmat([[-half * B, eye], [eye, half * B]], format="csr")
    Gp = sp.bmat([[half * B, eye], [eye, -half * B]], format="csr")
    return CNSystem(G=G, G_explicit=Gp, B=B, B_boundary=D2[1:-1, [0, -1]],
                    tau=tau, n_interior=B.shape[0], F=np.zeros(2 * B.shape[0]))


def stack_real(u: np.ndarray) -> np.ndarray:
    """Complex interior line or block -> stacked real unknown [imag; real]."""
    return np.concatenate([u.imag, u.real])


def unstack_real(U: np.ndarray) -> np.ndarray:
    n = U.shape[0] // 2
    return U[n:] + 1j * U[:n]


def cn_step_linear(system: CNSystem, u: np.ndarray,
                   opts: SolverOptions | None = None,
                   forcing: np.ndarray | None = None,
                   bc_new: tuple[complex, complex] | None = None) -> np.ndarray:
    """Advance a line or a block of lines one linear CN step along axis 0.

    u is one full-grid complex line (n,) or a block (n, m) of m lines. The
    two end rows of the returned array are set to bc_new, the (left, right)
    values of one line or a (2, m) array of them, or kept when no new
    boundary data is supplied. forcing is the stacked real affine term of
    the boundary data (CNSystem.boundary_forcing), one column per line of a
    block; None means the system's F, the zero forcing of homogeneous data.
    Interior values are solved from the stacked real system with the
    system's LU factor, all lines of a block at once.

    Raises KrylovError when neither the LU solution nor its Arnoldi
    refinement meets opts.residual_tol, and at once for a NaN or inf in u.
    """
    U = stack_real(u[1:-1])
    if forcing is None:
        forcing = system.F.reshape((-1,) + (1,) * (u.ndim - 1))
    sol = system.lu.solve(system.G_explicit @ U + forcing, opts)
    out = np.empty_like(u)
    out[1:-1] = unstack_real(sol)
    if bc_new is None:
        out[0], out[-1] = u[0], u[-1]
    else:
        out[0], out[-1] = bc_new
    return out
