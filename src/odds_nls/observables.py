"""Discrete invariants and error/order diagnostics.

Spatial integrals use trapezoid weights on the (generally non-uniform)
global grid; the energy's gradient term uses the global first-derivative
collocation operator.
"""

from dataclasses import dataclass

import numpy as np

from .mesh import OverlapMesh1D, assemble_global


def trapezoid_weights(nodes: np.ndarray) -> np.ndarray:
    nodes = np.asarray(nodes, dtype=float)
    if nodes.size < 2:
        raise ValueError("need at least two nodes")
    w = np.empty_like(nodes)
    w[0] = (nodes[1] - nodes[0]) / 2.0
    w[-1] = (nodes[-1] - nodes[-2]) / 2.0
    w[1:-1] = (nodes[2:] - nodes[:-2]) / 2.0
    return w


def discrete_charge(values: np.ndarray, nodes: np.ndarray) -> float:
    """Trapezoid approximation of the squared L2 norm."""
    return float(trapezoid_weights(nodes) @ (np.abs(values) ** 2))


def discrete_charge_2d(values: np.ndarray, nodes_x: np.ndarray,
                       nodes_y: np.ndarray) -> float:
    wx = trapezoid_weights(nodes_x)
    wy = trapezoid_weights(nodes_y)
    return float(wx @ (np.abs(values) ** 2) @ wy)


def discrete_energy(values: np.ndarray, mesh: OverlapMesh1D,
                    diff1=None) -> float:
    """H = 1/2 int |u_x|^2 - 1/4 int |u|^4 on the mesh grid."""
    if diff1 is None:
        diff1 = assemble_global(mesh, 1)
    w = trapezoid_weights(mesh.nodes)
    ux = diff1 @ values
    return float(0.5 * (w @ np.abs(ux) ** 2) - 0.25 * (w @ np.abs(values) ** 4))


def discrete_energy_2d(values: np.ndarray, mesh_x: OverlapMesh1D,
                       mesh_y: OverlapMesh1D, diff1_x=None, diff1_y=None) -> float:
    if diff1_x is None:
        diff1_x = assemble_global(mesh_x, 1)
    if diff1_y is None:
        diff1_y = assemble_global(mesh_y, 1)
    wx = trapezoid_weights(mesh_x.nodes)
    wy = trapezoid_weights(mesh_y.nodes)
    ux = diff1_x @ values
    uy = (diff1_y @ values.T).T
    grad2 = np.abs(ux) ** 2 + np.abs(uy) ** 2
    return float(0.5 * (wx @ grad2 @ wy) - 0.25 * (wx @ np.abs(values) ** 4 @ wy))


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
