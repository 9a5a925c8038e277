"""Truncated Karhunen-Loeve sampling of Q-Wiener increments.

Per-mode Brownian increments are drawn from a counter-based generator keyed
by (master seed, trajectory index, step index), so any increment can be
regenerated out of order and results do not depend on scheduling. Grid values
are the mode increments pushed through a cached basis matrix whose columns
vanish identically at the domain boundary. The grid increments of a block of
trajectories can be drawn once as one path, summed into coarser steps and
replayed.
"""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class WienerIncrement:
    values: np.ndarray
    t_from: float
    t_to: float


def _step_rng(seed: int, trajectory: int, step: int) -> np.random.Generator:
    # Philox is counter based; one fresh instance per (trajectory, step) keeps
    # draws independent of evaluation order across workers
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence([int(seed), int(trajectory), int(step)])))


@dataclass(frozen=True)
class NoiseModel1D:
    """Spatial part of the noise: eigenvalues 1/k^3 with sine eigenfunctions.

    basis[k-1, j] = sqrt(1/k^3) * sqrt(2/L) * sin(k pi (x_j - x_left)/L).
    """

    x_left: float
    x_right: float
    modes: int
    seed: int
    grid: np.ndarray
    basis: np.ndarray

    @classmethod
    def build(cls, x_left: float, x_right: float, grid: np.ndarray,
              modes: int = 500, seed: int = 0) -> "NoiseModel1D":
        if modes < 1:
            raise ValueError(f"need at least one mode, got {modes}")
        if x_right <= x_left:
            raise ValueError("empty domain")
        grid = np.asarray(grid, dtype=float)
        L = x_right - x_left
        k = np.arange(1, modes + 1)
        eig_sqrt = k ** -1.5
        basis = (eig_sqrt[:, None] * np.sqrt(2.0 / L)
                 * np.sin(np.outer(k, (grid - x_left) * np.pi / L)))
        basis[:, grid <= x_left] = 0.0
        basis[:, grid >= x_right] = 0.0
        return cls(x_left, x_right, modes, seed, grid, basis)

    def trajectory(self, index: int) -> "TrajectoryNoise":
        return TrajectoryNoise(self, index)


@dataclass(frozen=True)
class NoiseModel2D:
    """Tensor sine basis with eigenvalues 1/(k1^2 + k2^2)^2 on a rectangle.

    Increments materialise as bx.T @ (amp * xi) @ by on the (nx, ny) grid,
    where xi is the (K1, K2) matrix of per-mode Brownian increments and
    amp[k1, k2] = 2 / ((k1^2 + k2^2) sqrt(Lx Ly)).
    """

    x_left: float
    x_right: float
    y_left: float
    y_right: float
    modes_x: int
    modes_y: int
    seed: int
    grid_x: np.ndarray
    grid_y: np.ndarray
    bx: np.ndarray
    by: np.ndarray
    amp: np.ndarray

    @classmethod
    def build(cls, x_left: float, x_right: float, y_left: float, y_right: float,
              grid_x: np.ndarray, grid_y: np.ndarray,
              modes_x: int = 64, modes_y: int = 64, seed: int = 0) -> "NoiseModel2D":
        if modes_x < 1 or modes_y < 1:
            raise ValueError("need at least one mode per axis")
        gx = np.asarray(grid_x, dtype=float)
        gy = np.asarray(grid_y, dtype=float)
        Lx, Ly = x_right - x_left, y_right - y_left
        if Lx <= 0 or Ly <= 0:
            raise ValueError("empty domain")
        k1 = np.arange(1, modes_x + 1)
        k2 = np.arange(1, modes_y + 1)
        bx = np.sin(np.outer(k1, (gx - x_left) * np.pi / Lx))
        by = np.sin(np.outer(k2, (gy - y_left) * np.pi / Ly))
        bx[:, (gx <= x_left) | (gx >= x_right)] = 0.0
        by[:, (gy <= y_left) | (gy >= y_right)] = 0.0
        amp = 2.0 / ((k1[:, None] ** 2 + k2[None, :] ** 2) * np.sqrt(Lx * Ly))
        return cls(x_left, x_right, y_left, y_right, modes_x, modes_y, seed,
                   gx, gy, bx, by, amp)

    def trajectory(self, index: int) -> "TrajectoryNoise":
        return TrajectoryNoise(self, index)


class TrajectoryNoise:
    """Increment stream for one trajectory of one noise model."""

    def __init__(self, model, trajectory: int):
        self.model = model
        self.trajectory = trajectory

    def mode_increments(self, step: int, dt: float) -> np.ndarray:
        """Per-mode Brownian increments over one step, N(0, dt) each."""
        if dt <= 0:
            raise ValueError(f"increment over non-positive interval dt={dt}")
        rng = _step_rng(self.model.seed, self.trajectory, step)
        m = self.model
        if isinstance(m, NoiseModel2D):
            return rng.normal(0.0, np.sqrt(dt), size=(m.modes_x, m.modes_y))
        return rng.normal(0.0, np.sqrt(dt), size=m.modes)

    def values_from_modes(self, xi: np.ndarray) -> np.ndarray:
        m = self.model
        if isinstance(m, NoiseModel2D):
            return m.bx.T @ (m.amp * xi) @ m.by
        return m.basis.T @ xi

    def increment_at(self, step: int, t_from: float, t_to: float) -> WienerIncrement:
        if t_to <= t_from:
            raise ValueError(f"non-positive interval [{t_from}, {t_to}]")
        xi = self.mode_increments(step, t_to - t_from)
        return WienerIncrement(self.values_from_modes(xi), t_from, t_to)


def draw_path(model: NoiseModel1D, trajectories, n_steps: int,
              dt: float) -> np.ndarray:
    """Grid increments of a block of trajectories over n_steps steps of dt.

    Returns an (n_steps, n, P) array for the P trajectories: row k holds
    step k of every one, column j that of trajectories[j]. Each increment is
    drawn and projected once, and only one draw's mode array is held.
    """
    path = np.empty((n_steps, model.grid.size, len(trajectories)))
    for j, p in enumerate(trajectories):
        stream = model.trajectory(p)
        for k in range(n_steps):
            path[k, :, j] = stream.values_from_modes(
                stream.mode_increments(k, dt))
    return path


def coarsen(path: np.ndarray, ratio: int) -> np.ndarray:
    """Increments over ratio steps each: sums of consecutive rows of path.

    Row n sums rows n*ratio .. (n+1)*ratio - 1 in step order, so a coarse
    run and a fine run see the same Brownian path. (np.add.reduce would sum
    pairwise when a row holds a single value.)
    """
    if ratio < 1 or len(path) % ratio:
        raise ValueError(f"ratio {ratio} does not divide {len(path)} steps "
                         "into whole coarse steps")
    blocks = path.reshape(-1, ratio, *path.shape[1:])
    total = blocks[:, 0].copy()
    for r in range(1, ratio):
        total += blocks[:, r]
    return total


class ReplayNoise:
    """Increment source that replays the rows of a drawn path in order."""

    def __init__(self, path: np.ndarray):
        self.path = path

    def increment_at(self, step: int, t_from: float, t_to: float) -> WienerIncrement:
        if t_to <= t_from:
            raise ValueError(f"non-positive interval [{t_from}, {t_to}]")
        return WienerIncrement(self.path[step], t_from, t_to)
