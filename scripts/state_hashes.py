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
One line per array: ``run quantity sha256``. Comparing the output of two
checkouts shows whether a change kept these numbers bit-identical.

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


def main() -> None:
    for name, u0, mesh, boundary, noise in runs():
        options = RunOptions(noise=noise.trajectory(1))
        res = run_trajectory(u0, mesh, ProblemSpec(1.0, EPS, boundary), TAU,
                             N_STEPS, options=options)
        for quantity, values in (("state", res.state.values),
                                 ("charge", res.charge),
                                 ("energy", res.energy)):
            digest = hashlib.sha256(np.ascontiguousarray(values).tobytes())
            print(name, quantity, digest.hexdigest(), flush=True)


if __name__ == "__main__":
    main()
