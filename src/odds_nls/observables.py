"""Discrete invariants and error/order diagnostics.

Spatial integrals use trapezoid weights on the (generally non-uniform)
global grid of each of one or two axes; the energy's gradient term uses
each axis's global first-derivative collocation operator, taken from the
mesh's operator store.
"""

from dataclasses import dataclass

import numpy as np


def trapezoid_weights(nodes: np.ndarray) -> np.ndarray:
    nodes = np.asarray(nodes, dtype=float)
    if nodes.size < 2:
        raise ValueError("need at least two nodes")
    w = np.empty_like(nodes)
    w[0] = (nodes[1] - nodes[0]) / 2.0
    w[-1] = (nodes[-1] - nodes[-2]) / 2.0
    w[1:-1] = (nodes[2:] - nodes[:-2]) / 2.0
    return w


def _integral(weights, a: np.ndarray):
    """Trapezoid integral of a grid function: one axis's weights at a time."""
    out = weights[0] @ a
    for w in weights[1:]:
        out = out @ w
    return out


def discrete_charge(values: np.ndarray, *nodes: np.ndarray) -> float:
    """Trapezoid approximation of the squared L2 norm; nodes per axis."""
    return float(_integral([trapezoid_weights(n) for n in nodes],
                           np.abs(values) ** 2))


def discrete_energy(values: np.ndarray, mesh) -> float:
    """H = 1/2 int |grad u|^2 - 1/4 int |u|^4 on the mesh grid.

    mesh is an OverlapMesh1D or an (mesh_x, mesh_y) pair; each axis's
    first-derivative operator is its OverlapMesh1D.operator(1), assembled
    once per mesh object.
    """
    axes = mesh if isinstance(mesh, tuple) else (mesh,)
    diff1 = [axis.operator(1) for axis in axes]
    grad2 = np.abs(diff1[0] @ values) ** 2
    for axis in range(1, values.ndim):
        d = diff1[axis] @ values.swapaxes(0, axis)
        grad2 += np.abs(d.swapaxes(0, axis)) ** 2
    weights = [trapezoid_weights(axis.nodes) for axis in axes]
    return float(0.5 * _integral(weights, grad2)
                 - 0.25 * _integral(weights, np.abs(values) ** 4))


def averaged_energy_growth(times: np.ndarray, energies: np.ndarray
                           ) -> tuple[float, float, float]:
    """Least-squares line through the trajectory-averaged energy series.

    energies may be (n_times,) or (n_traj, n_times); rows are averaged first.

    Returns:
        (slope, intercept, r_squared)
    """
    times = np.asarray(times, dtype=float)
    energies = np.asarray(energies, dtype=float)
    mean = energies if energies.ndim == 1 else energies.mean(axis=0)
    if times.size != mean.size or times.size < 2:
        raise ValueError("times and energies must align with >= 2 samples")
    slope, intercept = np.polyfit(times, mean, 1)
    fit = slope * times + intercept
    ss_res = float(np.sum((mean - fit) ** 2))
    ss_tot = float(np.sum((mean - mean.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(slope), float(intercept), float(r2)


@dataclass
class OrderFit:
    taus: np.ndarray
    errors: np.ndarray
    orders: np.ndarray     # pairwise, length len(taus) - 1
    global_order: float    # log-log regression slope


def fit_order(taus, errors) -> OrderFit:
    """Pairwise and regression convergence orders from an error ladder."""
    taus = np.asarray(taus, dtype=float)
    errors = np.asarray(errors, dtype=float)
    if taus.size != errors.size or taus.size < 2:
        raise ValueError("need matching tau/error ladders with >= 2 levels")
    if np.any(np.diff(taus) >= 0):
        raise ValueError("taus must be strictly decreasing")
    if np.any(errors <= 0):
        raise ValueError("errors must be positive")
    orders = (np.log(errors[:-1] / errors[1:])
              / np.log(taus[:-1] / taus[1:]))
    global_order = float(np.polyfit(np.log(taus), np.log(errors), 1)[0])
    return OrderFit(taus, errors, orders, global_order)
