"""Uniform-grid reference schemes for the efficiency comparison.

Two implicit finite-difference schemes on equispaced grids with zero
Dirichlet data:

* SMM, the stochastic multi-symplectic method (Jiang, Wang & Hong, Commun.
  Comput. Phys. 2013): a midpoint box scheme whose cubic and noise terms
  are averaged over the cells around each node; it conserves the discrete
  charge <S u, u>.
* FDSCN, the finite-difference splitting Crank-Nicolson scheme (Cui, Hong,
  Liu & Zhou, J. Differential Equations 2019): an implicit nonlinear
  Crank-Nicolson stage for the deterministic part followed by an exact
  pointwise noise phase.

Each scheme has one step for one or two axes; on two axes it is the
tensor form of the same step, so SMM2D and FDSCN2D only build the tensor
operators. Both resolve their implicit stage by fixed-point iteration, and
count its iterations. The linear part S + i theta tau L is constant, so each
scheme solves it in complex form with one LUSolver factor, built on the
first step and reused by every iteration of every later step. On one axis
the matrix is a Tridiagonal, formed diagonal by diagonal and factored by
LAPACK's tridiagonal LU; on two axes it is a sparse Kronecker sum, factored
by SuperLU as the collocation stepper's matrices are. Their driver,
run_uniform_trajectory, steps them through stepper.step_through.
"""

import functools
import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .linalg import LUSolver, SolveError, Tridiagonal
from .stepper import step_through

FP_TOL = 1e-12
FP_MAXITER = 50


@dataclass(frozen=True)
class UniformGrid1D:
    x_left: float
    x_right: float
    nodes: np.ndarray
    h: float


def uniform_grid_1d(x_left: float, x_right: float, n_points: int) -> UniformGrid1D:
    # 3 interior unknowns at least: LAPACK's zgttrf takes no fewer
    if n_points < 5:
        raise ValueError(f"need at least five points, got {n_points}")
    if x_right <= x_left:
        raise ValueError("empty domain")
    nodes = np.linspace(x_left, x_right, n_points)
    return UniformGrid1D(x_left, x_right, nodes, nodes[1] - nodes[0])


class FixedPointError(SolveError):
    """A fixed point missed its tolerance; residual is its last update."""


def _corner_sum(a: np.ndarray) -> np.ndarray:
    """Sum of a over the 2^d corners of each cell of its d-axis grid.

    On each axis the upper end is added before the lower one: in 2D the
    order is (upper, upper), (upper, lower), (lower, upper), (lower, lower).
    A fixed order fixes the rounding of the sum.
    """
    ends = (slice(1, None), slice(None, -1))
    return functools.reduce(operator.add, (
        a[corner] for corner in itertools.product(ends, repeat=a.ndim)))


def _centres(u: np.ndarray) -> np.ndarray:
    """Mean of node values u over the corners of each cell."""
    return 0.5 ** u.ndim * _corner_sum(u)


def _half_cubic(u: np.ndarray) -> np.ndarray:
    """Sum of |.|^2 (.) over the cell centres around each interior node.

    This and _half_pair state SMM's terms; SMM1D.step forms both from one
    shared _centres pass.
    """
    centre = _centres(u)
    return _corner_sum(np.abs(centre) ** 2 * centre)


def _half_pair(u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Sum of (u w) over the cell centres around each interior node."""
    return _corner_sum(_centres(u) * _centres(w))


def _axis_operators(grid: UniformGrid1D, averaged: bool):
    """Weight W and Laplacian L on the interior of one zero-Dirichlet axis.

    Both are Tridiagonal: L = tridiag(1, -2, 1)/h^2, and W is the half-node
    box average pushed back to nodes, tridiag(1, 2, 1)/2, when averaged,
    else the identity.
    """
    n = grid.nodes.size - 2
    off = np.full(n - 1, 0.5 if averaged else 0.0)
    inv_h2 = 1.0 / grid.h ** 2
    side = np.full(n - 1, inv_h2)
    return (Tridiagonal(off, np.ones(n), off),
            Tridiagonal(side, np.full(n, -2.0 * inv_h2), side))


def _tensor_operators(grids, averaged: bool):
    """Weight W and Laplacian L on the interior of a rectangle, as CSR.

    Each axis has the W and L of _axis_operators; an identity W is stored
    without its zero off-diagonals. The interior is flattened in C order,
    W = Wx (x) Wy and L = Lx (x) Wy + Wx (x) Ly.
    """
    Ws, Ls = [], []
    for grid in grids:
        W, L = (sp.diags(T.diagonals, (-1, 0, 1), format="csr")
                for T in _axis_operators(grid, averaged))
        Ws.append(W if averaged else sp.identity(W.shape[0]))
        Ls.append(L)
    (Wx, Wy), (Lx, Ly) = Ws, Ls
    return (sp.kron(Wx, Wy).tocsr(),
            (sp.kron(Lx, Wy) + sp.kron(Wx, Ly)).tocsr())


class _UniformScheme:
    """Parameters and constant implicit matrix of a reference scheme.

    lu, an LUSolver, solves with A = S + i theta tau L: S is the averaging
    weight when averaged, else the identity. On one axis S, L and A are
    Tridiagonal, from _axis_operators; on two, S and L are sparse, from
    _tensor_operators. The step works on the interior of a field of one or
    two axes, flattened in C order to solve with A, to SolverOptions'
    default residual target. fixed_point_iterations counts the solves of
    every step taken so far.
    """

    averaged: bool
    theta: float

    def _build(self, grids, tau: float, lam: float, eps: float) -> None:
        self.shape = tuple(grid.nodes.size - 2 for grid in grids)
        self.tau = tau
        self.lam = lam
        self.eps = eps
        self.fixed_point_iterations = 0
        if len(grids) == 1:
            self.S, self.L = _axis_operators(grids[0], self.averaged)
        else:
            self.S, self.L = _tensor_operators(grids, self.averaged)
        self.lu = LUSolver(self.S + 1j * self.theta * tau * self.L)

    def _fixed_point(self, apply_rhs, v0, label: str) -> np.ndarray:
        """Iterate v <- A^{-1} rhs(v) until the max-norm update stalls.

        Returns v, and adds the iterations (solves) it took to
        fixed_point_iterations. An update that is not finite, or that grows
        while still above tol, means the iteration runs away: it raises
        FixedPointError at once. The update stalls when it falls below
        FP_TOL, relative to max(1, max|v|).
        """
        v = v0
        last = math.inf
        for k in range(1, FP_MAXITER + 1):
            v_new = self.lu.solve(apply_rhs(v))
            delta = float(np.max(np.abs(v_new - v)))
            v = v_new
            if delta <= FP_TOL * max(1.0, float(np.max(np.abs(v_new)))):
                self.fixed_point_iterations += k
                return v
            if not math.isfinite(delta) or delta > last:
                raise FixedPointError(f"{label} fixed point runs away: update "
                                      f"{delta:.3e} after {last:.3e}",
                                      residual=delta)
            last = delta
        raise FixedPointError(f"{label} fixed point did not converge in "
                              f"{FP_MAXITER} iterations (last update "
                              f"{delta:.3e})", residual=delta)


class SMM1D(_UniformScheme):
    """Multi-symplectic box scheme, zero Dirichlet data.

    Midpoint form solved per step: (S + i tau L) v = S u^n - (i tau / 2) g(v)
    with v the time midpoint, L the second-difference operator, S the
    half-node averaging weight, and g the cubic and noise terms evaluated at
    half nodes. The new state is 2v - u^n.
    """

    averaged = True
    theta = 1.0

    def __init__(self, grid: UniformGrid1D, tau: float, lam: float,
                 eps: float):
        self._build((grid,), tau, lam, eps)

    def step(self, u: np.ndarray, dw: np.ndarray | None = None) -> np.ndarray:
        inner = (slice(1, -1),) * u.ndim
        un = u[inner].reshape(-1)
        su = self.S @ un
        noisy = self.eps != 0.0
        if noisy:
            wdot = _centres(dw / self.tau)
        vfull = np.zeros_like(u)        # each iterate, on zero edges

        def rhs(v):
            # _half_cubic and _half_pair of vfull, from one _centres pass
            vfull[inner] = v.reshape(self.shape)
            centre = _centres(vfull)
            g = self.lam * _corner_sum(np.abs(centre) ** 2 * centre)
            if noisy:
                g = g + self.eps * _corner_sum(centre * wdot)
            return su - 0.5j * self.tau * g.reshape(-1)

        v = self._fixed_point(rhs, un.copy(), "SMM")
        full = np.zeros_like(u)
        full[inner] = (2.0 * v - un).reshape(self.shape)
        return full


class FDSCN1D(_UniformScheme):
    """Splitting Crank-Nicolson on a uniform grid, zero Dirichlet data.

    Stage one solves the implicit midpoint system
    (I + i tau/2 L) m = u^n - i tau lam/4 (|u^n|^2 + |u*|^2) m, u* = 2m - u^n;
    stage two applies the exact noise phase exp(-i eps dW).
    """

    averaged = False
    theta = 0.5

    def __init__(self, grid: UniformGrid1D, tau: float, lam: float,
                 eps: float):
        self._build((grid,), tau, lam, eps)

    def _nonlinear_stage(self, un: np.ndarray) -> np.ndarray:
        """u* of stage one from the interior values un, in un's shape."""
        flat = un.reshape(-1)
        sq_n = np.abs(flat) ** 2

        def rhs(m):
            star = 2.0 * m - flat
            factor = self.lam / 4.0 * (sq_n + np.abs(star) ** 2)
            return flat - 1j * self.tau * factor * m

        m = self._fixed_point(rhs, flat.copy(), "FDSCN")
        return (2.0 * m - flat).reshape(un.shape)

    def step(self, u: np.ndarray, dw: np.ndarray | None = None) -> np.ndarray:
        inner = (slice(1, -1),) * u.ndim
        full = np.zeros_like(u)
        full[inner] = self._nonlinear_stage(u[inner])
        if self.eps != 0.0:
            full[inner] *= np.exp(-1j * self.eps * dw[inner])
        return full


class SMM2D(SMM1D):
    """SMM on a uniform rectangle: the 1D step with tensor operators.

    S = Sx (x) Sy, L = Lx (x) Sy + Sx (x) Ly, and the cubic and noise terms
    are summed over the four cells around each node.
    """

    def __init__(self, grid_x: UniformGrid1D, grid_y: UniformGrid1D,
                 tau: float, lam: float, eps: float):
        self._build((grid_x, grid_y), tau, lam, eps)


class FDSCN2D(FDSCN1D):
    """FDSCN on a uniform rectangle, with the five-point Laplacian."""

    def __init__(self, grid_x: UniformGrid1D, grid_y: UniformGrid1D,
                 tau: float, lam: float, eps: float):
        self._build((grid_x, grid_y), tau, lam, eps)


def run_uniform_trajectory(method, u0: np.ndarray, n_steps: int, noise=None):
    """Drive one of the uniform-grid schemes; returns the final values.

    Its steps go through stepper.step_through, so a step whose fixed point
    or linear solve fails raises StepFailure, named for the scheme.
    """
    return step_through(np.array(u0, dtype=complex),
                        lambda u, t, dw: method.step(u, dw), method.tau,
                        n_steps, method.eps, noise, type(method).__name__)
