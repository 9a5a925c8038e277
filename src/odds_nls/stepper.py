"""Time stepping for the stochastic cubic Schrodinger equation.

One step composes the exact pointwise nonlinear/stochastic flow with
Crank-Nicolson solves of the linear part on the overlapping collocation
mesh; in 2D the linear part is swept dimension by dimension. One step body
serves one or two axes, and it alone writes the Dirichlet edges: those
across an axis are set just before that axis's solve. In 1D a block of
trajectories can be stepped as the columns of one state.

run_trajectory records on one path: before the first step and after each
step it takes the snapshot and the charge/energy sample that step is due,
and its result holds the final state and time.
"""

import hashlib
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .linalg import (CNSystem, KrylovError, SolverOptions, build_cn_system,
                     cn_step_linear)
from .mesh import OverlapMesh1D
from .observables import discrete_charge, discrete_energy


@dataclass(frozen=True)
class ProblemSpec:
    """Equation parameters and Dirichlet data.

    boundary, when given, must be vectorized: called as boundary(t, x) in 1D
    and boundary(t, x, y) in 2D with broadcastable arrays, returning complex
    values. None means homogeneous data.
    """

    lam: float = 1.0
    eps: float = 0.0
    boundary: Callable | None = None


class StepFailure(RuntimeError):
    """A linear solve failed mid-run.

    Carries the step index, its start time, the solver's residual and the
    state_sha256 of the state that entered the step, so the step can be
    replayed and checked against it.
    """

    def __init__(self, message: str, step: int, time: float, residual: float,
                 state_sha256: str | None = None):
        super().__init__(message)
        self.step = step
        self.time = time
        self.residual = residual
        self.state_sha256 = state_sha256


def state_sha256(values: np.ndarray) -> str:
    """sha256 of an array's C-order bytes."""
    return hashlib.sha256(np.ascontiguousarray(values).tobytes()).hexdigest()


def nonlinear_flow(values: np.ndarray, tau: float, lam: float, eps: float,
                   dw: np.ndarray | None = None) -> np.ndarray:
    """Exact flow of i du = lam |u|^2 u dt + eps u o dW over one step.

    Multiplies by a unit phase, so |values| is preserved pointwise. dw is the
    Wiener increment on the same grid; it is only consulted when eps != 0.
    """
    phase = tau * lam * np.abs(values) ** 2
    if eps != 0.0:
        if dw is None:
            raise ValueError("eps != 0 requires a Wiener increment")
        phase = phase + eps * dw
    return values * np.exp(-1j * phase)


def _odds_step(values: np.ndarray, t: float, tau: float,
               problem: ProblemSpec, meshes: tuple, systems: tuple,
               opts: SolverOptions | None, dw: np.ndarray | None
               ) -> np.ndarray:
    """One step on one or two axes: the phase flow, then each axis's solve.

    values has one axis per mesh, and in 1D may have one more, the columns
    of a block of trajectories. Along each axis in turn, the two edges
    across it, corners included, are set to the Dirichlet data at t + tau.
    Every line over the interior of the other axis shares that axis's CN
    system, so the lines are then advanced by one cn_step_linear call on the
    block of them, which keeps the edges and takes the data at t and t + tau
    as its forcing.
    """
    w = nonlinear_flow(values, tau, problem.lam, problem.eps, dw)
    # in a view with the solved axis first: all of it, the other's interior
    inner = (slice(None),) + (slice(1, -1),) * (len(meshes) - 1)
    # the data are the same for every column of a block of trajectories
    columns = (None,) * (w.ndim - len(meshes))
    for axis, system in enumerate(systems):
        lines = w.swapaxes(0, axis)
        if problem.boundary is None:
            lines[0] = lines[-1] = 0.0
            forcing = 0.0   # a scalar fits a line or a block as it is
        else:
            coords = [mesh.nodes for mesh in meshes]
            ends = meshes[axis].nodes[[0, -1]]
            coords[axis] = ends[:, None] if len(meshes) == 2 else ends
            bc_old, bc_new = (
                np.asarray(problem.boundary(at, *coords),
                           dtype=complex)[(..., *columns)]
                for at in (t, t + tau))
            lines[[0, -1]] = bc_new
            forcing = system.boundary_forcing(bc_old[inner], bc_new[inner])
        block = lines[inner]
        block[...] = cn_step_linear(system, block, opts, forcing)
    return w


def odds_step_1d(values: np.ndarray, t: float, tau: float,
                 problem: ProblemSpec, mesh: OverlapMesh1D, system: CNSystem,
                 opts: SolverOptions | None = None,
                 dw: np.ndarray | None = None) -> np.ndarray:
    """One full 1D step from t to t + tau. Returns the new grid values."""
    return _odds_step(values, t, tau, problem, (mesh,), (system,), opts, dw)


def odds_step_2d(values: np.ndarray, t: float, tau: float,
                 problem: ProblemSpec, mesh_x: OverlapMesh1D,
                 mesh_y: OverlapMesh1D, system_x: CNSystem,
                 system_y: CNSystem, opts: SolverOptions | None = None,
                 dw: np.ndarray | None = None) -> np.ndarray:
    """One full 2D step: nonlinear flow, then x-line solves, then y-line.

    Every edge, corners included, ends at the Dirichlet data at t + tau.
    """
    return _odds_step(values, t, tau, problem, (mesh_x, mesh_y),
                      (system_x, system_y), opts, dw)


@dataclass
class RunOptions:
    noise: object | None = None  # grid_increments(step, dt) source, eps != 0
    solver: SolverOptions = field(default_factory=SolverOptions)
    snapshot_steps: tuple[int, ...] = ()
    record_invariants: bool = True
    invariant_stride: int = 1


@dataclass
class TrajectoryResult:
    times: np.ndarray      # invariant sample times (empty when not recorded)
    charge: np.ndarray
    energy: np.ndarray
    snapshots: dict        # step index -> grid values copy
    values: np.ndarray     # final state
    t: float               # its time


def run_trajectory(u0: np.ndarray, mesh, problem: ProblemSpec, tau: float,
                   n_steps: int, t0: float = 0.0,
                   options: RunOptions | None = None) -> TrajectoryResult:
    """Integrate one trajectory, or a block of them, over n_steps of tau.

    Args:
        u0: initial grid values, shape (n,) in 1D or (nx, ny) in 2D; in 1D
            an (n, P) block steps P trajectories as the columns of one
            state, with (n, P) noise increments and no invariants.
        mesh: OverlapMesh1D, or a tuple of one per axis: (mesh,) or
            (mesh_x, mesh_y). Each axis solves with build_cn_system(axis,
            tau), the system kept in that mesh object's store.
        problem: equation parameters and Dirichlet data.
        tau: time step, positive and finite.
        n_steps: number of steps, >= 0.
        t0: initial time.
        options: noise source, solver settings, snapshot/invariant recording.

    Returns:
        TrajectoryResult with invariant series, requested snapshots and the
        final state. When eps == 0 the noise source is never consulted.

    Raises:
        StepFailure: a linear solve did not reach tolerance mid-run; a NaN
            or inf in the state fails the solve of the step it enters. It
            carries the sha256 of the state that entered the failed step.
        ValueError: a tau that is not positive and finite (from
            build_cn_system, before the first step), inconsistent
            shapes, missing noise, bad snapshot indices, invariant_stride
            < 1, or invariants asked of a block.
    """
    if n_steps < 0:
        raise ValueError("n_steps must be >= 0")
    options = options or RunOptions()
    axes = mesh if isinstance(mesh, tuple) else (mesh,)
    expected = tuple(axis.n_nodes for axis in axes)
    values = np.array(u0, dtype=complex)
    if values.shape[:len(axes)] != expected:
        raise ValueError(f"u0 shape {values.shape}, mesh wants {expected}")
    if values.ndim > len(axes) + (len(axes) == 1):
        raise ValueError(f"u0 shape {values.shape}: only a 1D state takes "
                         "one more axis, of trajectories")
    if values.ndim > len(axes) and options.record_invariants:
        raise ValueError("a block of trajectories records no invariants; "
                         "set record_invariants=False")
    if problem.eps != 0.0 and options.noise is None:
        raise ValueError("eps != 0 requires a noise source in RunOptions")
    if options.invariant_stride < 1:
        raise ValueError(f"invariant_stride must be >= 1, got "
                         f"{options.invariant_stride}")
    for s in options.snapshot_steps:
        if not 0 <= s <= n_steps:
            raise ValueError(f"snapshot step {s} outside [0, {n_steps}]")

    systems = [build_cn_system(axis, tau) for axis in axes]
    step = odds_step_1d if len(axes) == 1 else odds_step_2d
    nodes = [axis.nodes for axis in axes]
    wanted = set(options.snapshot_steps)
    snapshots, samples = {}, []

    def record(k, t):
        """The snapshot and the invariant sample due after k steps, at t."""
        if k in wanted:
            snapshots[k] = values.copy()
        if options.record_invariants and (k % options.invariant_stride == 0
                                          or k == n_steps):
            samples.append((t, discrete_charge(values, *nodes),
                            discrete_energy(values, axes)))

    t = t0
    record(0, t)
    for k in range(n_steps):
        dw = None
        if problem.eps != 0.0:
            dw = options.noise.grid_increments(k, tau)
            if dw.shape != values.shape:
                raise ValueError(f"noise increment shape {dw.shape} at step "
                                 f"{k}, state shape {values.shape}")
        try:
            values = step(values, t, tau, problem, *axes, *systems,
                          options.solver, dw)
        except KrylovError as err:
            raise StepFailure(
                f"linear solve failed at step {k} (t = {t:.6g}): {err}",
                step=k, time=t, residual=err.residual,
                state_sha256=state_sha256(values)) from err
        t = t0 + (k + 1) * tau
        record(k + 1, t)

    # one row per sample; (0, 3) when none, so each series is empty
    times, charge, energy = np.array(samples).reshape(-1, 3).T.copy()
    return TrajectoryResult(times=times, charge=charge, energy=energy,
                            snapshots=snapshots, values=values, t=t)
