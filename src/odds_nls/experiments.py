"""Config-driven experiment harness writing plot-ready CSV artifacts.

Each runner builds its setup from an ExperimentConfig, farms its runs over a
process pool (seeds are pre-assigned per trajectory index, results reduced
in run order, so outputs are byte-identical for any worker count), and
returns its tables. run_experiment times the runner, writes the tables as
long-format CSVs, and writes a JSON manifest holding the config, its hash,
per-trajectory seeds, stage timings, and any step failures, each with the
seed, trajectory, step, time and state hash that replay it.
"""

import json
import os
import statistics
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from functools import partial
from itertools import repeat

import numpy as np

from . import __version__
from .baselines import (FDSCN1D, FDSCN2D, SMM1D, SMM2D, run_uniform_trajectory,
                        uniform_grid_1d)
from .config import ConfigError, ExperimentConfig, config_hash, whole_steps
from .mesh import build_mesh
from .noise import (NoiseModel1D, NoiseModel2D, ReplayNoise, coarsen,
                    draw_path)
from .observables import fit_order, trapezoid_weights
from .stepper import ProblemSpec, RunOptions, StepFailure, run_trajectory


@dataclass(frozen=True)
class RunResult:
    manifest: dict
    paths: list
    data: object = None


@dataclass(frozen=True)
class Outputs:
    """What a runner hands run_experiment to write.

    tables are (file name, header, blocks), each written by write_csv in
    turn; trajectories are the noise trajectories drawn, failures the
    records of failed runs, extra the kind's own manifest fields, and data
    becomes RunResult.data.
    """
    tables: list
    trajectories: object
    failures: list
    extra: dict
    data: object = None


# ---------------------------------------------------------------- initial data

def soliton_datum(x: np.ndarray) -> np.ndarray:
    # carrier e^{-ix} travels right (+2) under the i du = [u_xx + ...]dt sign
    # convention; amplitude sqrt(6/5), width sqrt(2)
    return (np.sqrt(6.0 / 5.0) / np.cosh(np.sqrt(2.0) * x)
            * np.exp(-1j * x))


def collision_datum(x: np.ndarray) -> np.ndarray:
    fast = (np.sqrt(6.0 / 5.0) / np.cosh(np.sqrt(2.0) * x)
            * np.exp(-2j * x))
    slow = (np.sqrt(3.0 / 5.0) / np.cosh(np.sqrt(2.0) * (x - 30.0))
            * np.exp(-0.5j * (x - 30.0)))
    return fast + slow


def gaussian_datum(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    X, Y = np.meshgrid(x, y, indexing="ij")
    return np.exp(-0.5 * (X ** 2 + Y ** 2)).astype(complex)


def sine_datum(x: np.ndarray) -> np.ndarray:
    return np.sin(np.pi * x).astype(complex)


# ------------------------------------------------------------------- plumbing

def cells(values) -> list:
    """CSV cells of one column: ints by str, floats by repr, strings as given.

    Values pass through ndarray.tolist(), so a float cell is the repr of a
    Python float (numpy 2 scalars repr as 'np.float64(...)').
    """
    column = np.asarray(values)
    if column.dtype.kind in "iu":
        return list(map(str, column.tolist()))
    if column.dtype.kind == "f":
        return list(map(repr, column.tolist()))
    if column.dtype.kind == "U":
        return column.tolist()
    raise TypeError(f"no CSV cell format for dtype {column.dtype}")


def _cell(value) -> str:
    """The CSV cell of one value, as cells formats it."""
    return cells([value])[0]


def _modulus_cells(field: np.ndarray) -> list:
    """Cells of |u| over a complex field in C order.

    |u| is np.hypot of the real and imaginary parts: libm's hypot, which is
    what Python's scalar abs of a complex computes, so the cells equal
    repr(abs(z)) (tests/test_experiments.py checks this on edge values).
    np.abs rounds the last digit differently on some values, which would
    change the CSVs.
    """
    return list(map(repr, np.hypot(field.real, field.imag).ravel().tolist()))


def _check_column(column, one_column: bool) -> None:
    """Raise if a cell of column would need quoting in csv.writer's dialect.

    One join and four substring searches test every cell of the column at
    once. A one-column row's empty cell needs quoting too.
    """
    text = column if isinstance(column, str) else "".join(column)
    if (any(ch in text for ch in (",", '"', "\r", "\n"))
            or (one_column and (column == "" if isinstance(column, str)
                                else "" in column))):
        raise ValueError("a CSV cell needs quoting (it holds ',', '\"' or a "
                         "line break, or is a one-column row's empty cell)")


def _csv_text(columns, checked=()) -> str:
    """Rows of a block of columns, joined by ',' and ended by CRLF.

    A column is a list of cells, or one str that is the cell of every row.
    The lists must be of equal length; a block of str columns alone is one
    row. This is csv.writer's default dialect for cells it would not quote;
    a cell it would quote raises instead. Columns that are (by identity) in
    checked were checked before and are not searched again.
    """
    lists = [c for c in columns if not isinstance(c, str)]
    if any(len(c) != len(lists[0]) for c in lists):
        raise ValueError("CSV columns of unequal length "
                         f"{[len(c) for c in lists]}")
    for column in columns:
        if not any(column is c for c in checked):
            _check_column(column, len(columns) == 1)
    n = len(lists[0]) if lists else 1
    if n == 0:
        return ""
    # leading constant cells become one prefix, folded into the separator
    lead = next((i for i, c in enumerate(columns) if not isinstance(c, str)),
                len(columns))
    prefix = "".join(c + "," for c in columns[:lead])
    rest = [repeat(c, n) if isinstance(c, str) else c
            for c in columns[lead:]]
    if not rest:
        return prefix[:-1] + "\r\n"
    rows = map(",".join, zip(*rest))
    return prefix + ("\r\n" + prefix).join(rows) + "\r\n"


def write_csv(path: str, header, blocks) -> str:
    """Write a header row, then each block of cell columns, to a CSV file.

    A block has one column per header field: a list of cells, or one str
    for a cell repeated on every row. Each block is written as it comes, so
    a generator streams a large table through memory one block at a time.
    A column object given again in the next block is taken to hold the
    same cells, and is checked for quoting only the first time.
    """
    with open(path, "w", newline="") as fh:
        fh.write(_csv_text(list(header)))
        previous = ()
        for columns in blocks:
            if len(columns) != len(header):
                raise ValueError(f"{len(columns)} columns for "
                                 f"{len(header)} header fields")
            fh.write(_csv_text(columns, previous))
            previous = columns
    return path


def _manifest(config: ExperimentConfig, trajectories, stages: dict,
              artifacts, failures, extra=None) -> dict:
    """The run's manifest; trajectories are the noise trajectories drawn."""
    man = {
        "experiment": config.kind,
        "artifact_version": __version__,
        "config": config.to_dict(),
        "config_sha256": config_hash(config),
        "per_trajectory_seeds": [[config.seed, p] for p in trajectories],
        "stage_seconds": {k: round(v, 3) for k, v in stages.items()},
        "artifacts": [os.path.basename(p) for p in artifacts],
        "failures": failures,
    }
    if extra:
        man.update(extra)
    return man


def _failure(config: ExperimentConfig, exc: StepFailure, **where) -> dict:
    """Manifest record of a failed run: enough to replay its failed step.

    where names the run; the seed and the sha256 of the state that entered
    the step let that step be rerun and checked.
    """
    return {**where, "seed": config.seed, "step": exc.step,
            "time": exc.time, "state_sha256": exc.state_sha256,
            "error": str(exc)}


def _write_manifest(dirpath: str, man: dict) -> str:
    path = os.path.join(dirpath, "manifest.json")
    with open(path, "w") as fh:
        # one write: json.dump would write each of the encoder's chunks
        fh.write(json.dumps(man, indent=2, sort_keys=True) + "\n")
    return path


_CTX = None


def _init_worker(builder):
    global _CTX
    _CTX = builder()


def _run_job(args):
    fn, job = args
    return fn(_CTX, job)


def _farm(builder, job_fn, jobs, workers):
    """Run job_fn(ctx, job) for each job, in order, on `workers` processes.

    No more processes start than there are jobs, since each one builds the
    whole context, mesh and noise model included.
    """
    jobs = list(jobs)
    if workers <= 1 or len(jobs) <= 1:
        ctx = builder()
        return [job_fn(ctx, job) for job in jobs]
    with ProcessPoolExecutor(max_workers=min(workers, len(jobs)),
                             initializer=_init_worker,
                             initargs=(builder,)) as pool:
        return list(pool.map(_run_job, [(job_fn, job) for job in jobs]))


def _series(runs, name: str):
    """One block of (run key, time, value) cells per run for an invariant."""
    for key, res in runs:
        yield [_cell(key), cells(res.times), cells(getattr(res, name))]


def _charge_drift(series) -> float | None:
    """Worst |q - q0| / |q0| over charge series, each against its first.

    A series whose first charge is 0 has no relative drift and is skipped.
    None when no series is left (no run succeeded, or every datum is 0).
    """
    return max((float(np.max(np.abs(q - q[0])) / abs(q[0]))
                for q in map(np.asarray, series) if q.size and q[0]),
               default=None)


def _n_steps(config: ExperimentConfig) -> int:
    return whole_steps(config.t_final, config.tau)


def _snapshot_steps(config: ExperimentConfig) -> tuple:
    return tuple(sorted({whole_steps(t, config.tau, "snapshot time")
                         for t in config.snapshot_times}))


# ---------------------------------------------------------------------- set-up

def _mesh_axes(config: ExperimentConfig, dimension: int) -> list:
    """The overlapping mesh of each axis, x first.

    A y axis with the x axis's bounds, elements and degree is the x mesh
    object itself, so the two axes share its operators and CN system. The
    parameters are compared by repr, which keeps -0.0 apart from 0.0.
    """
    x = (config.x_left, config.x_right, config.elements, config.degree)
    axes = [build_mesh(*x)]
    if dimension == 2:
        y = (config.y_left, config.y_right, config.elements_y,
             config.degree_y)
        axes.append(axes[0] if repr(y) == repr(x) else build_mesh(*y))
    return axes


def _start(config: ExperimentConfig, datum, axes):
    """Initial field and noise model on the nodes of one or two axes.

    The field is datum on the grid with its Dirichlet edges set to zero.
    """
    nodes = [axis.nodes for axis in axes]
    u0 = datum(*nodes)
    u0[[0, -1]] = 0.0
    if len(axes) == 1:
        return u0, NoiseModel1D.build(config.x_left, config.x_right, *nodes,
                                      modes=config.modes, seed=config.seed)
    u0[:, [0, -1]] = 0.0
    return u0, NoiseModel2D.build(config.x_left, config.x_right,
                                  config.y_left, config.y_right, *nodes,
                                  modes_x=config.modes, modes_y=config.modes_y,
                                  seed=config.seed)


# ------------------------------------------- soliton1d, collision1d, gaussian2d

# kind -> (datum, dimension, snapshot file, run key header, charge unit,
# snapshot value columns, writes energy.csv and energy_mean.csv)
_ABS_U = ("abs_u (amplitude)", _modulus_cells)
_LAYOUT = {
    "soliton1d": (soliton_datum, 1, "profiles.csv", "trajectory (index)",
                  "amplitude^2 x space", (_ABS_U,), True),
    "collision1d": (collision_datum, 1, "snapshots.csv", "trajectory (index)",
                    "amplitude^2 x space",
                    (("re_u (amplitude)", lambda u: cells(u.real)),
                     ("im_u (amplitude)", lambda u: cells(u.imag)), _ABS_U),
                    False),
    "gaussian2d": (gaussian_datum, 2, "surfaces.csv", "eps (dimensionless)",
                   "amplitude^2 x area", (_ABS_U,), False),
}


def _runs(config: ExperimentConfig):
    """The runs as (key, eps, noise trajectory), and the manifest fields
    that name them.

    A 1D run is one trajectory, keyed by its index. gaussian2d runs each
    noise size of its sweep on trajectory 0, keyed by the noise size.
    """
    if config.kind == "gaussian2d":
        eps_values = list(config.eps_values or (config.eps,))
        return [(eps, eps, 0) for eps in eps_values], {"eps_sweep": eps_values}
    return [(p, config.eps, p) for p in range(config.trajectories)], {}


def _trajectory_ctx(config, axes):
    u0, model = _start(config, _LAYOUT[config.kind][0], axes)
    return config, axes, u0, model


def _trajectory_job(ctx, run):
    config, axes, u0, model = ctx
    _, eps, p = run
    options = RunOptions(noise=model.trajectory(p) if eps else None,
                         snapshot_steps=_snapshot_steps(config),
                         invariant_stride=config.invariant_stride)
    try:
        res = run_trajectory(u0, axes, ProblemSpec(config.lam, eps),
                             config.tau, _n_steps(config), options=options)
    except StepFailure as exc:
        return _failure(config, exc, eps=eps, trajectory=p)
    return res


def run_trajectories(config: ExperimentConfig, workers: int = 1) -> Outputs:
    """Snapshots and invariant series of each run of a pulse datum."""
    (_, dimension, snapshot_file, key_header, charge_unit, columns,
     energy) = _LAYOUT[config.kind]
    axes = tuple(_mesh_axes(config, dimension))
    runs, extra = _runs(config)
    results = _farm(partial(_trajectory_ctx, config, axes), _trajectory_job,
                    runs, workers)
    failures = [r for r in results if isinstance(r, dict)]
    done = [(key, r) for (key, _, _), r in zip(runs, results)
            if not isinstance(r, dict)]
    # the grid's coordinate columns in C order, spread from object arrays
    # of each axis's cells (a tuple per grid point would cost the cyclic
    # GC several ms on a 2D grid); the same lists in every block, so they
    # are checked for quoting once
    coordinates = [grid.ravel().tolist() for grid in np.meshgrid(
        *(np.array(cells(a.nodes), dtype=object) for a in axes),
        indexing="ij")]
    snapshots = ([_cell(key), _cell(step * config.tau), *coordinates,
                  *(values(u) for _, values in columns)]
                 for key, res in done
                 for step, u in sorted(res.snapshots.items()))
    tables = [
        (snapshot_file,
         [key_header, "time (time units)",
          *("x (space units)", "y (space units)")[:dimension],
          *(name for name, _ in columns)], snapshots),
        ("charge.csv",
         [key_header, "time (time units)", f"charge ({charge_unit})"],
         _series(done, "charge")),
    ]
    if energy:
        tables.append(("energy.csv", [key_header, "time (time units)",
                                      "energy (energy units)"],
                       _series(done, "energy")))
    if energy and done:
        energies = np.vstack([r.energy for _, r in done])
        tables.append(("energy_mean.csv",
                       ["time (time units)", "mean_energy (energy units)"],
                       [[cells(done[0][1].times),
                         cells(energies.mean(axis=0))]]))
    extra.update(charge_drift=_charge_drift(res.charge for _, res in done),
                 n_steps=_n_steps(config))
    return Outputs(tables, sorted({p for _, _, p in runs}), failures, extra)


# ---------------------------------------------------------------- convergence

def _convergence_ctx(config):
    mesh, = _mesh_axes(config, 1)
    u0, model = _start(config, sine_datum, [mesh])
    weights = trapezoid_weights(mesh.nodes)
    return config, mesh, u0, model, weights


# Trajectories per convergence job, stepped as the columns of one state.
# Blocks are cut by trajectory index alone, so the bytes do not depend on
# the worker count. 16 keeps a block's fine path near 1 MB on the builtin
# (256 steps x 32 nodes x 16 columns) and cuts its 100 trajectories into 7
# jobs, enough to keep 4 workers busy.
CONVERGENCE_BLOCK = 16


def _convergence_job(ctx, block):
    """Squared weighted terminal errors, (len(block), levels), of a block.

    The block's fine increments are drawn once; the reference run replays
    them and every ladder level replays their sums over its step.
    """
    config, mesh, u0, model, weights = ctx
    prob = ProblemSpec(config.lam, config.eps)
    n_ref = whole_steps(config.t_final, config.tau_ref)
    fine = draw_path(model, block, n_ref, config.tau_ref)
    start = np.repeat(u0[:, None], len(block), axis=1)

    def terminal(tau, path):
        options = RunOptions(noise=ReplayNoise(path), record_invariants=False)
        return run_trajectory(start, mesh, prob, tau, len(path),
                              options=options).values

    ref = terminal(config.tau_ref, fine)
    out = np.empty((len(block), len(config.tau_ladder)))
    for i, tau in enumerate(config.tau_ladder):
        factor = whole_steps(tau, config.tau_ref, "ladder tau")
        diff = terminal(tau, coarsen(fine, factor)) - ref
        out[:, i] = weights @ np.abs(diff) ** 2
    return out


def run_convergence(config: ExperimentConfig, workers: int = 1) -> Outputs:
    trajectories = range(config.trajectories)
    blocks = [trajectories[i:i + CONVERGENCE_BLOCK]
              for i in range(0, len(trajectories), CONVERGENCE_BLOCK)]
    sq_errors = _farm(partial(_convergence_ctx, config), _convergence_job,
                      blocks, workers)
    taus = np.array(config.tau_ladder)
    order = np.argsort(taus)[::-1]  # fit_order wants decreasing taus
    errs = np.sqrt(np.vstack(sq_errors).mean(axis=0))
    fit = fit_order(taus[order], errs[order])
    table = ("table.csv", ["tau (time units)", "err (weighted l2 amplitude)",
                           "order (dimensionless)"],
             [[cells(fit.taus), cells(fit.errors), [""] + cells(fit.orders)]])
    return Outputs([table], trajectories, [],
                   {"global_order": fit.global_order,
                    "tau_ref": config.tau_ref}, data=fit)


# ----------------------------------------------------------------- efficiency

def _schemes(config: ExperimentConfig, n_steps: int) -> dict:
    """name -> (points per axis, run(rep)) of odds, smm and fdscn.

    run(rep) steps one repeat on noise trajectory rep, and returns the
    fixed-point iterations its steps took, or None for odds, which has no
    fixed point. Every repeat builds and factors its scheme afresh. SMM and
    FDSCN share the uniform grid's initial field and noise model.
    """
    dimension = config.dimension
    datum = soliton_datum if dimension == 1 else gaussian_datum
    prob = ProblemSpec(config.lam, config.eps)
    mesh = _mesh_axes(config, dimension)
    u0, model = _start(config, datum, mesh)

    def odds(rep):
        # a fresh copy of each mesh holds no operators, so every repeat
        # assembles, cuts and factors its own, as SMM and FDSCN do
        fresh = {id(axis): replace(axis) for axis in mesh}
        opts = RunOptions(noise=model.trajectory(rep), record_invariants=False)
        run_trajectory(u0, tuple(fresh[id(axis)] for axis in mesh), prob,
                       config.tau, n_steps, options=opts)

    bounds = [(config.x_left, config.x_right),
              (config.y_left, config.y_right)][:dimension]
    grid = [uniform_grid_1d(lo, hi, config.uniform_points)
            for lo, hi in bounds]
    v0, grid_model = _start(config, datum, grid)

    def reference(scheme, rep):
        method = scheme(*grid, config.tau, config.lam, config.eps)
        run_uniform_trajectory(method, v0, n_steps,
                               noise=grid_model.trajectory(rep))
        return method.fixed_point_iterations

    smm, fdscn = ((SMM1D, FDSCN1D), (SMM2D, FDSCN2D))[dimension - 1]
    return {"odds": (mesh[0].nodes.size, odds),
            "smm": (grid[0].nodes.size, partial(reference, smm)),
            "fdscn": (grid[0].nodes.size, partial(reference, fdscn))}


def run_efficiency(config: ExperimentConfig, workers: int = 1) -> Outputs:
    # wall-clock comparison: always serial, one scheme at a time
    del workers
    n_steps = _n_steps(config)
    reps = range(config.repeats)
    rows, medians, iterations = [], {}, {}
    for name, (points, run) in _schemes(config, n_steps).items():
        times, counts = [], []
        for rep in reps:
            t0 = time.perf_counter()
            counts.append(run(rep))
            times.append(time.perf_counter() - t0)
        if counts[0] is not None:
            iterations[name] = sum(counts) / (config.repeats * n_steps)
        medians[name] = statistics.median(times)
        rows.append((name, config.dimension, points, n_steps, config.repeats,
                     medians[name], min(times), max(times)))
    table = ("timings.csv",
             ["scheme (name)", "dimension (count)", "points_per_axis (count)",
              "steps (count)", "repeats (count)", "median_seconds (s)",
              "min_seconds (s)", "max_seconds (s)"],
             [[cells(column) for column in zip(*rows)]])
    return Outputs([table], reps, [],
                   {"medians": medians, "fixed_point_iterations": iterations,
                    "n_steps": n_steps}, data=medians)


RUNNERS = {
    "soliton1d": run_trajectories,
    "collision1d": run_trajectories,
    "gaussian2d": run_trajectories,
    "convergence": run_convergence,
    "efficiency": run_efficiency,
}


def run_experiment(config: ExperimentConfig, workers: int = 1) -> RunResult:
    """Validate config, make its directory, run it, then write its CSVs and
    manifest into <output_dir>/<kind> (efficiency: efficiency1d or 2d).

    An invalid config, or a directory that cannot be made, raises
    ConfigError before the run; an invalid config writes nothing. The
    manifest's stage_seconds times the runner as run, and the CSVs'
    formatting and writing as write.
    """
    config = config.validate()
    subdir = (f"efficiency{config.dimension}d" if config.kind == "efficiency"
              else config.kind)
    # root resolution (CLI flag > ODDS_NLS_OUTPUT env > config) happens in the
    # CLI; library callers get config.output_dir as-is
    dirpath = os.path.join(config.output_dir, subdir)
    try:
        os.makedirs(dirpath, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {dirpath}: "
                          f"{exc.strerror}") from exc
    t0 = time.perf_counter()
    out = RUNNERS[config.kind](config, workers=workers)
    t_run = time.perf_counter() - t0
    t0 = time.perf_counter()
    paths = [write_csv(os.path.join(dirpath, name), header, blocks)
             for name, header, blocks in out.tables]
    stages = {"run": t_run, "write": time.perf_counter() - t0}
    man = _manifest(config, out.trajectories, stages, paths, out.failures,
                    out.extra)
    paths.append(_write_manifest(dirpath, man))
    return RunResult(man, paths, data=out.data)
