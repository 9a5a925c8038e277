"""The four benchmark workloads: configs, set-up builders and output checks.

Each workload is a builtin experiment with a shortened horizon, chosen to
stress a different layer (see README.md). Horizons stay long enough that a
run remains measurable after the linear solve gets tens of times faster.
"""

import csv
import dataclasses
import math
import os

from odds_nls import baselines, linalg, mesh, noise
from odds_nls.config import builtin_configs

CHARGE_DRIFT_TOL = 1e-2     # criterion 7's tolerance


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    builtin: str
    overrides: dict

    def config(self, seed: int, output_dir: str):
        base = builtin_configs()[self.builtin]
        return dataclasses.replace(base, seed=seed, output_dir=output_dir,
                                   **self.overrides).validate()


WORKLOADS = {w.name: w for w in (
    # 100 steps of one 292-node trajectory; invariants every 5 steps
    Workload("soliton1d", "soliton1d",
             {"t_final": 1.5, "snapshot_times": (0.0, 0.75, 1.5)}),
    # 4 steps on 126x126 nodes, three 15,876-row surface snapshots
    Workload("gaussian2d", "gaussian2d",
             {"t_final": 0.04, "snapshot_times": (0.0, 0.02, 0.04)}),
    # the full 7-level ladder, 2 trajectories instead of 100
    Workload("convergence", "convergence", {"trajectories": 2}),
    # 10 steps of each of odds, SMM and FDSCN, 3 repeats each
    Workload("efficiency1d", "efficiency", {"t_final": 0.15, "dimension": 1}),
)}


def steps_per_call(cfg) -> int:
    """Time steps one run_experiment call takes, over every loop it runs."""
    def steps(tau):
        return round(cfg.t_final / tau)
    if cfg.kind == "convergence":
        ladder = steps(cfg.tau_ref) + sum(steps(t) for t in cfg.tau_ladder)
        return cfg.trajectories * ladder
    if cfg.kind == "gaussian2d":
        return len(cfg.eps_values or (cfg.eps,)) * steps(cfg.tau)
    if cfg.kind == "efficiency":
        return 3 * cfg.repeats * steps(cfg.tau)
    return cfg.trajectories * steps(cfg.tau)


def build_setup(cfg) -> None:
    """Run the public builders a run of cfg needs before its first step."""
    m = mesh.build_mesh(cfg.x_left, cfg.x_right, cfg.elements, cfg.degree)
    if cfg.kind == "gaussian2d":
        my = mesh.build_mesh(cfg.y_left, cfg.y_right, cfg.elements_y,
                             cfg.degree_y)
        noise.NoiseModel2D.build(cfg.x_left, cfg.x_right, cfg.y_left,
                                 cfg.y_right, m.nodes, my.nodes,
                                 modes_x=cfg.modes, modes_y=cfg.modes_y,
                                 seed=cfg.seed)
        linalg.build_cn_system(m, cfg.tau)
        linalg.build_cn_system(my, cfg.tau)
        return
    noise.NoiseModel1D.build(cfg.x_left, cfg.x_right, m.nodes,
                             modes=cfg.modes, seed=cfg.seed)
    if cfg.kind == "convergence":
        for tau in (cfg.tau_ref, *cfg.tau_ladder):
            linalg.build_cn_system(m, tau)
        return
    linalg.build_cn_system(m, cfg.tau)
    if cfg.kind == "efficiency":
        grid = baselines.uniform_grid_1d(cfg.x_left, cfg.x_right,
                                         cfg.uniform_points)
        noise.NoiseModel1D.build(cfg.x_left, cfg.x_right, grid.nodes,
                                 modes=cfg.modes, seed=cfg.seed)
        baselines.SMM1D(grid, cfg.tau, cfg.lam, cfg.eps)
        baselines.FDSCN1D(grid, cfg.tau, cfg.lam, cfg.eps)


# ---------------------------------------------------------------- output checks

def _rows(path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        return list(reader)


def check_finite(path) -> list:
    for i, row in enumerate(_rows(path), start=2):
        for field in row:
            try:
                value = float(field)
            except ValueError:
                continue        # labels and empty cells
            if not math.isfinite(value):
                return [f"{os.path.basename(path)} line {i}: {field}"]
    return []


def check_charge_drift(path, tol=CHARGE_DRIFT_TOL) -> list:
    """Max relative charge drift per trajectory (1D) or per eps (2D)."""
    first, worst = {}, 0.0
    for key, _, charge in _rows(path):
        q = float(charge)
        q0 = first.setdefault(key, q)
        worst = max(worst, abs(q - q0) / abs(q0))
    if not first:
        return ["charge.csv has no rows"]
    return [] if worst <= tol else [f"charge drift {worst:.3e} > {tol:g}"]


def check_convergence(path) -> list:
    """Errors positive and decreasing down the ladder, at most 1 violation.

    The order window of the acceptance gate is a known failure and is not
    checked here.
    """
    errors = [float(row[1]) for row in _rows(path)]
    if len(errors) < 2 or min(errors) <= 0:
        return [f"convergence errors not all positive: {errors}"]
    violations = sum(b >= a for a, b in zip(errors, errors[1:]))
    return [] if violations <= 1 else [
        f"{violations} increases in convergence errors {errors}"]


def check_timings(path) -> list:
    medians = {row[0]: float(row[5]) for row in _rows(path)}
    ok = (sorted(medians) == ["fdscn", "odds", "smm"]
          and all(math.isfinite(v) and v > 0 for v in medians.values()))
    return [] if ok else [f"bad timings.csv medians {medians}"]


CHECKS = {
    "soliton1d": {"charge.csv": check_charge_drift},
    "gaussian2d": {"charge.csv": check_charge_drift},
    "convergence": {"table.csv": check_convergence},
    "efficiency": {"timings.csv": check_timings},
}


def check_result(cfg, result) -> list:
    """Problems found in one run's outputs; empty when the run is correct."""
    problems = [f"trajectory failed: {f}"
                for f in result.manifest.get("failures", [])]
    by_name = {os.path.basename(p): p for p in result.paths}
    for name, path in by_name.items():
        if name.endswith(".csv"):
            problems += check_finite(path)
    for name, check in CHECKS[cfg.kind].items():
        if name not in by_name:
            problems.append(f"{name} not written")
        else:
            problems += check(by_name[name])
    return problems


def csv_bytes(result) -> int:
    return sum(os.path.getsize(p) for p in result.paths if p.endswith(".csv"))
