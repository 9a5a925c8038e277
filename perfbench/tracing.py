"""In-memory span tracing of odds_nls layers, installed from outside src/.

A Tracer records spans (name, start, end, parent) and counters. It is
installed by rebinding public functions and methods inside the odds_nls.*
module namespaces to timing wrappers, and uninstalled by restoring the
originals, so traced and untraced calls share one process and one import. The
program itself is not edited: a name that a later version drops is skipped,
and the metrics that depend on it read 0.
"""

import functools
import statistics
import sys
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np

# span names; a layer's self time is the summed self time of its spans
SOLVE = "linalg.solve"
BUILD = "linalg.build"
ASSEMBLE = "mesh.assemble"
DRAW = "noise.draw"
PROJECT = "noise.project"
NOISE_BUILD = "noise.build"
PHASE = "stepper.phase"
STEP = "stepper.step"
TRAJECTORY = "stepper.trajectory"
INVARIANTS = "observables.invariants"
BASELINE_STEP = "baselines.step."
BASELINE_BUILD = "baselines.build."
BASELINE_TRAJECTORY = "baselines.trajectory"
RUN = "experiments.run"
CHECK = "trace.check"           # the tracer's own residual checks

SCHEMES = {"SMM1D": "smm", "FDSCN1D": "fdscn"}


class Tracer:
    """Spans and counters of one benchmark process, kept in memory.

    Spans, counts and the worst solve residual of the current traced call
    are in ``spans``, ``counts`` and ``residual_max``; begin() files the
    spans under ``archive`` for write() at the end.
    """

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.archive = []
        self.spans = []
        self.begin()

    def begin(self) -> None:
        if self.spans:
            self.archive.append(self.spans)
        self.spans = []         # [name, start_ns, end_ns, parent index]
        self.stack = []
        self.counts = Counter()
        self.residual_max = 0.0

    def write(self, path: str) -> None:
        """One CSV row per span, numbered by traced call and position."""
        self.begin()
        with open(path, "w") as fh:
            fh.write("call,span,parent,name,start_ns,end_ns\n")
            for call, spans in enumerate(self.archive):
                for i, (name, start, end, parent) in enumerate(spans):
                    fh.write(f"{call},{i},{parent},{name},{start},{end}\n")

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, self.clock(), None, parent])
        self.stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = self.clock()
        self.stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    def current(self) -> str:
        return self.spans[self.stack[-1]][0] if self.stack else ""

    def wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(index)
        return traced

    def record_residual(self, G, X, B) -> None:
        """Worst max-norm residual B - G X, timed as the tracer's own span."""
        with self.span(CHECK):
            res = float(np.max(np.abs(B - G @ X))) if np.size(B) else 0.0
        self.residual_max = max(self.residual_max, res)


class MatvecCounter:
    """Proxy of a solver matrix counting matrix-vector products, one per column."""

    def __init__(self, G, counts: Counter):
        self.G = G
        self.counts = counts

    def __matmul__(self, x):
        self.counts["linalg.matvecs"] += 1 if np.ndim(x) == 1 else x.shape[1]
        return self.G @ x

    def __getattr__(self, name):
        return getattr(self.G, name)


def self_times(spans) -> list:
    """Duration of each span minus the durations of its direct children.

    Spans come from one thread, so children nest inside their parent and do
    not overlap each other.
    """
    out = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def layer_totals(spans) -> tuple[Counter, Counter]:
    """(self ns, span count) per span name."""
    ns, calls = Counter(), Counter()
    for span, own in zip(spans, self_times(spans)):
        ns[span[0]] += own
        calls[span[0]] += 1
    return ns, calls


class Patcher:
    """Rebinds attributes and restores the originals on exit."""

    def __init__(self):
        self.saved = []

    def set(self, owner, name, value) -> None:
        self.saved.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def function(self, modules, fn, replacement) -> None:
        """Rebind every module-level alias of fn, in every given module."""
        for module in modules:
            for name, value in list(vars(module).items()):
                if value is fn:
                    self.set(module, name, replacement)

    def restore(self) -> None:
        while self.saved:
            owner, name, value = self.saved.pop()
            setattr(owner, name, value)


def _odds_modules():
    return [m for name, m in sorted(sys.modules.items())
            if name == "odds_nls" or name.startswith("odds_nls.")]


@contextmanager
def installed(tracer: Tracer):
    """Trace every odds_nls layer the benchmark reports, while inside."""
    from odds_nls import baselines, linalg, mesh, noise, observables, stepper

    modules = _odds_modules()
    patch = Patcher()

    def function(module, name, span):
        fn = getattr(module, name, None)
        if fn is not None:
            patch.function(modules, fn, tracer.wrap(fn, span))

    def method(cls, name, span):
        raw = cls.__dict__.get(name) if cls is not None else None
        if isinstance(raw, classmethod):
            patch.set(cls, name, classmethod(tracer.wrap(raw.__func__, span)))
        elif raw is not None:
            patch.set(cls, name, tracer.wrap(raw, span))

    def cn_step_linear(fn):
        @functools.wraps(fn)
        def traced(system, u, opts=None, forcing=None, bc_new=None):
            with tracer.span(SOLVE):
                out = fn(system, u, opts, forcing, bc_new)
            with tracer.span(CHECK):
                U = linalg.stack_real(u[1:-1])
                rhs = system.G_explicit @ U + (system.F if forcing is None
                                               else forcing)
                tracer.record_residual(system.G,
                                       linalg.stack_real(out[1:-1]), rhs)
            return out
        return traced

    def krylov_solve_block(fn):
        @functools.wraps(fn)
        def traced(G, B, X0, opts=None):
            tracer.counts["linalg.solves"] += B.shape[1]
            with tracer.span(SOLVE):
                X = fn(MatvecCounter(G, tracer.counts), B, X0, opts)
            tracer.record_residual(G, X, B)
            return X
        return traced

    def krylov_solve(fn):
        @functools.wraps(fn)
        def traced(G, b, x0=None, opts=None):
            caller = tracer.current()
            if caller == SOLVE:    # inside cn_step_linear, checked there
                tracer.counts["linalg.solves"] += 1
                return fn(MatvecCounter(G, tracer.counts), b, x0, opts)
            if caller.startswith(BASELINE_STEP):
                tracer.counts["fp_iters." + caller] += 1
            x = fn(G, b, x0, opts)
            tracer.record_residual(G, x, b)
            return x
        return traced

    try:
        for name, wrapper in (("cn_step_linear", cn_step_linear),
                              ("krylov_solve_block", krylov_solve_block),
                              ("krylov_solve", krylov_solve)):
            fn = getattr(linalg, name, None)
            if fn is not None:
                patch.function(modules, fn, wrapper(fn))
        function(linalg, "build_cn_system", BUILD)
        function(mesh, "build_mesh", ASSEMBLE)
        function(mesh, "assemble_global", ASSEMBLE)
        function(stepper, "nonlinear_flow", PHASE)
        function(stepper, "odds_step_1d", STEP)
        function(stepper, "odds_step_2d", STEP)
        function(stepper, "run_trajectory", TRAJECTORY)
        for name in ("discrete_charge", "discrete_charge_2d",
                     "discrete_energy", "discrete_energy_2d"):
            function(observables, name, INVARIANTS)
        function(baselines, "run_uniform_trajectory", BASELINE_TRAJECTORY)
        trajectory_noise = getattr(noise, "TrajectoryNoise", None)
        method(trajectory_noise, "mode_increments", DRAW)
        method(trajectory_noise, "values_from_modes", PROJECT)
        for cls_name in ("NoiseModel1D", "NoiseModel2D"):
            method(getattr(noise, cls_name, None), "build", NOISE_BUILD)
        for cls_name, scheme in SCHEMES.items():
            cls = getattr(baselines, cls_name, None)
            method(cls, "__init__", BASELINE_BUILD + scheme)
            method(cls, "step", BASELINE_STEP + scheme)
        yield tracer
    finally:
        patch.restore()


def call_metrics(tracer: Tracer, csv_bytes: int) -> dict:
    """Per-layer metrics of the traced run_experiment call just made."""
    ns, calls = layer_totals(tracer.spans)
    counts = tracer.counts

    def ms(name):
        return ns[name] / 1e6

    def per(value, n):
        return value / n if n else 0.0

    steps = calls[STEP]
    all_steps = steps + sum(calls[BASELINE_STEP + s] for s in SCHEMES.values())
    out = {
        "linalg.solve_ms": per(ms(SOLVE), steps),
        "linalg.matvecs_per_solve": per(counts["linalg.matvecs"],
                                        counts["linalg.solves"]),
        "linalg.build_ms": ms(BUILD),
        "linalg.build_calls": calls[BUILD],
        "linalg.residual_max": tracer.residual_max,
        "noise.draw_ms": per(ms(DRAW), all_steps),
        "noise.draws_per_step": per(calls[DRAW], all_steps),
        "noise.project_ms": per(ms(PROJECT), all_steps),
        "stepper.phase_ms": per(ms(PHASE), steps),
        "stepper.step_self_ms": per(ms(STEP), steps),
        "stepper.steps": steps,
        "observables.invariants_ms": per(ms(INVARIANTS), steps),
        "observables.calls": calls[INVARIANTS],
        "mesh.assemble_ms": ms(ASSEMBLE),
        "mesh.assemble_calls": calls[ASSEMBLE],
        "experiments.self_ms": ms(RUN),
        "experiments.csv_bytes": csv_bytes,
    }
    for scheme in SCHEMES.values():
        name = BASELINE_STEP + scheme
        out["baselines.step_ms." + scheme] = per(ms(name), calls[name])
        out["baselines.fp_iters." + scheme] = per(counts["fp_iters." + name],
                                                  calls[name])
    return out


def median_metrics(per_call: list) -> dict:
    return {k: statistics.median(m[k] for m in per_call) for k in per_call[0]}
