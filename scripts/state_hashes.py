"""Print the sha256 of the final state, charge and energy of fixed noisy runs.

The builtin experiments all use homogeneous Dirichlet data and record
invariants in 1D only, so their CSVs leave some of the step untested. This
script runs three small trajectories that reach those paths:

* ``inhomogeneous1d``: time-dependent Dirichlet data on a 3x9 mesh over
  [-3, 4];
* ``inhomogeneous2d``: time-dependent data on the 2x7 by 3x6 meshes over
  [-3, 4] x [-2, 3];
* ``homogeneous2d``: zero data on the same 2D meshes.

Each run has noise (eps = 0.3) and records charge and energy at every step.
It then runs the reference schemes, which no builtin CSV holds, with the same
noise size and step: ``smm1d`` and ``fdscn1d`` on a 61-point grid over
[-3, 4], ``smm2d`` and ``fdscn2d`` on a 25 x 21 grid over [-3, 4] x [-2, 3],
each with its final state hashed. One line per array: ``run quantity
sha256``. Comparing the output of two checkouts shows whether a change kept
these numbers bit-identical.

    PYTHONPATH=src python scripts/state_hashes.py

The BLAS and OpenMP thread counts default to 1, set before numpy loads; an
``OPENBLAS_NUM_THREADS`` or ``OMP_NUM_THREADS`` already in the environment
is kept.
"""

import hashlib
import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import numpy as np  # noqa: E402

from odds_nls.baselines import (FDSCN1D, FDSCN2D, SMM1D,  # noqa: E402
                                SMM2D, run_uniform_trajectory,
                                uniform_grid_1d)
from odds_nls.mesh import build_mesh  # noqa: E402
from odds_nls.noise import NoiseModel1D, NoiseModel2D  # noqa: E402
from odds_nls.stepper import (ProblemSpec, RunOptions,  # noqa: E402
                              run_trajectory)

TAU = 0.01
N_STEPS = 40
EPS = 0.3


def boundary_1d(t, x):
    return 0.3 * np.exp(1j * (x - 2.0 * t))


def boundary_2d(t, x, y):
    return 0.2 * np.exp(1j * (x + 0.5 * y - t))


def runs():
    """(name, u0, mesh argument, boundary, noise) of each run."""
    mesh = build_mesh(-3.0, 4.0, 3, 9)
    u0 = np.exp(-mesh.nodes ** 2) + boundary_1d(0.0, mesh.nodes)
    noise = NoiseModel1D.build(-3.0, 4.0, mesh.nodes, modes=12, seed=7)
    yield "inhomogeneous1d", u0, mesh, boundary_1d, noise

    mesh_x, mesh_y = build_mesh(-3.0, 4.0, 2, 7), build_mesh(-2.0, 3.0, 3, 6)
    X, Y = np.meshgrid(mesh_x.nodes, mesh_y.nodes, indexing="ij")
    noise = NoiseModel2D.build(-3.0, 4.0, -2.0, 3.0, mesh_x.nodes,
                               mesh_y.nodes, modes_x=6, modes_y=5, seed=7)
    bump = np.exp(-(X ** 2 + Y ** 2)) + 0j
    yield ("inhomogeneous2d", bump + boundary_2d(0.0, X, Y), (mesh_x, mesh_y),
           boundary_2d, noise)
    # non-zero input edges, so the step must set them to zero
    yield "homogeneous2d", bump, (mesh_x, mesh_y), None, noise


def baseline_runs():
    """(name, scheme, u0, noise) of each reference-scheme run."""
    grid = uniform_grid_1d(-3.0, 4.0, 61)
    u0 = np.exp(-grid.nodes ** 2) * np.exp(1j * grid.nodes)
    u0[[0, -1]] = 0.0
    noise = NoiseModel1D.build(-3.0, 4.0, grid.nodes, modes=12, seed=7)
    for name, cls in (("smm1d", SMM1D), ("fdscn1d", FDSCN1D)):
        yield name, cls(grid, TAU, 1.0, EPS), u0, noise

    grid_x, grid_y = uniform_grid_1d(-3.0, 4.0, 25), uniform_grid_1d(-2.0,
                                                                      3.0, 21)
    X, Y = np.meshgrid(grid_x.nodes, grid_y.nodes, indexing="ij")
    u0 = np.exp(-(X ** 2 + Y ** 2)) * np.exp(1j * X)
    u0[[0, -1], :] = u0[:, [0, -1]] = 0.0
    noise = NoiseModel2D.build(-3.0, 4.0, -2.0, 3.0, grid_x.nodes,
                               grid_y.nodes, modes_x=6, modes_y=5, seed=7)
    for name, cls in (("smm2d", SMM2D), ("fdscn2d", FDSCN2D)):
        yield name, cls(grid_x, grid_y, TAU, 1.0, EPS), u0, noise


def _print(name: str, quantity: str, values: np.ndarray) -> None:
    digest = hashlib.sha256(np.ascontiguousarray(values).tobytes())
    print(name, quantity, digest.hexdigest(), flush=True)


def main() -> None:
    for name, u0, mesh, boundary, noise in runs():
        options = RunOptions(noise=noise.trajectory(1))
        res = run_trajectory(u0, mesh, ProblemSpec(1.0, EPS, boundary), TAU,
                             N_STEPS, options=options)
        for quantity, values in (("state", res.values),
                                 ("charge", res.charge),
                                 ("energy", res.energy)):
            _print(name, quantity, values)
    for name, scheme, u0, noise in baseline_runs():
        _print(name, "state", run_uniform_trajectory(
            scheme, u0, N_STEPS, noise=noise.trajectory(1)))


if __name__ == "__main__":
    main()
