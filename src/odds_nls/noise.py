"""Truncated Karhunen-Loeve sampling of Q-Wiener increments.

A trajectory's steps come in chunks of consecutive steps. The per-mode
standard normals of a chunk are drawn in one call from a counter-based
generator keyed by (master seed, trajectory index, chunk index), so any
increment can be regenerated out of order, by drawing its chunk, and results
do not depend on scheduling. Grid values are a chunk's normals pushed through
a cached basis, whose columns vanish identically at the domain boundary, in
one product per chunk; a step's increment over dt is sqrt(dt) times its row.
The grid increments of a block of trajectories can be drawn once as one path,
summed into coarser steps and replayed. The sines of a basis come from a
two-level table of angles (sine_table), about 2 sqrt(modes) rows of sines
and cosines instead of modes rows of sines.
"""

from dataclasses import dataclass
from math import inf, isqrt, prod

import numpy as np

# Standard normals per chunk: a chunk holds as many consecutive steps as fit,
# and at least one. 8192 gives 16 steps at 500 modes and 2 at 64 x 64.
CHUNK_NORMALS = 8192


def sine_table(modes: int, theta: np.ndarray) -> np.ndarray:
    """sin(k theta_j) for k = 1..modes, as a C-contiguous (modes, n) array.

    Sines and cosines are evaluated only at the angles m theta of a
    two-level table: the fine rows m = r < R and the coarse rows m = qR,
    with R = isqrt(modes) + 1, so about 2 sqrt(modes) rows. The output is
    then filled one block of rows k = qR + r at a time, for each coarse row,
    as sin(qR theta) cos(r theta) + cos(qR theta) sin(r theta).

    Each table angle is corrected for the rounding of its product. theta is
    split as hi + lo (Veltkamp), with hi short enough that m hi is exact, so
    the rounding error of a = fl(m theta) is c = (m hi - a) + m lo, and
    sin(m theta) = sin a + c cos a, cos(m theta) = cos a - c sin a to within
    rounding. The table is thus accurate to a few units in the last place of
    sin(k theta) at the float theta, where np.sin of the rounded product
    k theta errs by up to half an ulp of k theta: 1.1e-13 at 500 modes.
    """
    theta = np.asarray(theta, dtype=float)
    R = isqrt(modes) + 1
    m = np.concatenate([np.arange(R), np.arange(R, modes + 1, R)])[:, None]
    p = theta * float((1 << int(modes).bit_length()) + 1)
    hi = p - (p - theta)
    a = m * theta
    c = m * hi - a
    c += m * (theta - hi)
    sin_a, cos_a = np.sin(a), np.cos(a)
    sines = sin_a + c * cos_a
    cosines = cos_a - c * sin_a
    fine_sin, fine_cos = sines[:R], cosines[:R]

    out = np.empty((modes, theta.size))
    out[:R - 1] = fine_sin[1:]
    term = np.empty((R, theta.size))
    # rows k = k0 + r, r < R, from the table row of the coarse angle k0 theta
    for coarse, k0 in enumerate(range(R, modes + 1, R), start=R):
        rows = min(R, modes + 1 - k0)
        block = out[k0 - 1:k0 - 1 + rows]
        np.multiply(sines[coarse], fine_cos[:rows], out=block)
        np.multiply(cosines[coarse], fine_sin[:rows], out=term[:rows])
        block += term[:rows]
    return out


def _checked_grid(name: str, grid, left: float, right: float) -> np.ndarray:
    """grid as a float array; a ValueError names its first node that is not
    finite or lies outside [left, right]."""
    grid = np.asarray(grid, dtype=float)
    bad = np.flatnonzero(~((grid >= left) & (grid <= right)))
    if bad.size:
        j = bad[0]
        where = ("is not finite" if not np.isfinite(grid[j])
                 else f"lies outside [{left}, {right}]")
        raise ValueError(f"{name} node {j} = {grid[j]} {where}")
    return grid


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
        grid = _checked_grid("grid", grid, x_left, x_right)
        L = x_right - x_left
        eig_sqrt = np.arange(1, modes + 1) ** -1.5
        basis = sine_table(modes, (grid - x_left) * np.pi / L)
        basis *= (eig_sqrt * np.sqrt(2.0 / L))[:, None]
        basis[:, grid <= x_left] = 0.0
        basis[:, grid >= x_right] = 0.0
        return cls(x_left, x_right, modes, seed, grid, basis)

    @property
    def mode_shape(self) -> tuple:
        return (self.modes,)

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
        Lx, Ly = x_right - x_left, y_right - y_left
        if Lx <= 0 or Ly <= 0:
            raise ValueError("empty domain")
        gx = _checked_grid("grid_x", grid_x, x_left, x_right)
        gy = _checked_grid("grid_y", grid_y, y_left, y_right)
        k1 = np.arange(1, modes_x + 1)
        k2 = np.arange(1, modes_y + 1)
        bx = sine_table(modes_x, (gx - x_left) * np.pi / Lx)
        by = sine_table(modes_y, (gy - y_left) * np.pi / Ly)
        bx[:, (gx <= x_left) | (gx >= x_right)] = 0.0
        by[:, (gy <= y_left) | (gy >= y_right)] = 0.0
        amp = 2.0 / ((k1[:, None] ** 2 + k2[None, :] ** 2) * np.sqrt(Lx * Ly))
        return cls(x_left, x_right, y_left, y_right, modes_x, modes_y, seed,
                   gx, gy, bx, by, amp)

    @property
    def mode_shape(self) -> tuple:
        return (self.modes_x, self.modes_y)

    def trajectory(self, index: int) -> "TrajectoryNoise":
        return TrajectoryNoise(self, index)


def _check_dt(dt: float) -> None:
    if not 0 < dt < inf:
        raise ValueError(f"dt must be positive and finite, got {dt}")


def _check_step(step: int) -> None:
    if step < 0:
        raise ValueError(f"negative step {step}")


class TrajectoryNoise:
    """Increment stream for one trajectory of one noise model.

    Step k is row k % steps_per_chunk of chunk k // steps_per_chunk. The
    stream keeps the grid projection of the last chunk it drew.
    """

    def __init__(self, model, trajectory: int):
        self.model = model
        self.trajectory = trajectory
        self.steps_per_chunk = max(1, CHUNK_NORMALS // prod(model.mode_shape))
        self._chunk = None
        self._values = None

    def draw_chunk(self, chunk: int) -> np.ndarray:
        """Standard normals of a chunk, (steps_per_chunk, *mode_shape).

        Philox is counter based; one fresh instance per (trajectory, chunk)
        keeps draws independent of evaluation order across workers.
        """
        key = np.random.SeedSequence(
            [int(self.model.seed), int(self.trajectory), int(chunk)])
        rng = np.random.Generator(np.random.Philox(key))
        return rng.standard_normal((self.steps_per_chunk,
                                    *self.model.mode_shape))

    def chunk_values(self, chunk: int) -> np.ndarray:
        """Grid projection of a chunk's normals, one row per step.

        The chunk is drawn and projected unless it is the chunk held.
        """
        if chunk != self._chunk:
            self._values = self.values_from_modes(self.draw_chunk(chunk))
            self._chunk = chunk
        return self._values

    def values_from_modes(self, xi: np.ndarray) -> np.ndarray:
        """Grid values of mode values xi, or of a stack of them."""
        m = self.model
        if isinstance(m, NoiseModel2D):
            return m.bx.T @ (m.amp * xi) @ m.by
        return xi @ m.basis

    def grid_increments(self, step: int, dt: float) -> np.ndarray:
        """Grid values of the Brownian increment of one step over dt."""
        _check_dt(dt)
        _check_step(step)
        chunk, row = divmod(step, self.steps_per_chunk)
        return np.sqrt(dt) * self.chunk_values(chunk)[row]


def draw_path(model: NoiseModel1D, trajectories, n_steps: int,
              dt: float) -> np.ndarray:
    """Grid increments of a block of trajectories over n_steps steps of dt.

    Returns an (n_steps, n, P) array for the P trajectories: row k holds
    step k of every one, column j that of trajectories[j]. Each chunk is
    drawn and projected once, as grid_increments does, so row k equals
    grid_increments(k, dt) bit for bit; only one chunk is held at a time.
    """
    _check_dt(dt)
    path = np.empty((n_steps, model.grid.size, len(trajectories)))
    scale = np.sqrt(dt)
    for j, p in enumerate(trajectories):
        stream = model.trajectory(p)
        size = stream.steps_per_chunk
        for start in range(0, n_steps, size):
            rows = stream.chunk_values(start // size)[:n_steps - start]
            path[start:start + size, :, j] = scale * rows
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

    def grid_increments(self, step: int, dt: float) -> np.ndarray:
        _check_dt(dt)
        _check_step(step)
        return self.path[step]
