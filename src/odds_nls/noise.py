"""Truncated Karhunen-Loeve sampling of Q-Wiener increments.

Per-mode Brownian increments are drawn from a counter-based generator keyed
by (master seed, trajectory index, step index), so any increment can be
regenerated out of order and results do not depend on scheduling. Grid values
are the mode increments pushed through a cached basis matrix whose columns
vanish identically at the domain boundary.
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


class MemoizedNoise(TrajectoryNoise):
    """Increment stream that draws each (step, dt) once and then replays it.

    For runs that read the same increments many times, such as a reference
    run and the coarse runs aggregated from it. It keeps every increment it
    has drawn, so make one per such group of runs and drop it afterwards.
    """

    def __init__(self, model, trajectory: int):
        super().__init__(model, trajectory)
        self._drawn = {}

    def mode_increments(self, step: int, dt: float) -> np.ndarray:
        key = (step, dt)
        if key not in self._drawn:
            xi = super().mode_increments(step, dt)
            xi.flags.writeable = False      # every reader shares this array
            self._drawn[key] = xi
        return self._drawn[key]


class AggregatedNoise:
    """Coarse-step view of a finer stream: mode increments summed in blocks.

    Used to couple a coarse run to a reference run on the same Brownian paths;
    coarse step n aggregates fine steps n*ratio .. (n+1)*ratio - 1.
    """

    def __init__(self, fine: TrajectoryNoise, ratio: int, dt_fine: float):
        if ratio < 1:
            raise ValueError("ratio must be a positive integer")
        self.fine = fine
        self.ratio = int(ratio)
        self.dt_fine = float(dt_fine)

    def increment_at(self, step: int, t_from: float, t_to: float) -> WienerIncrement:
        if t_to <= t_from:
            raise ValueError(f"non-positive interval [{t_from}, {t_to}]")
        xi = self.fine.mode_increments(step * self.ratio, self.dt_fine)
        for r in range(1, self.ratio):
            xi = xi + self.fine.mode_increments(step * self.ratio + r, self.dt_fine)
        return WienerIncrement(self.fine.values_from_modes(xi), t_from, t_to)
