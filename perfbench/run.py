"""Benchmark of the odds_nls builtin experiments, end to end or per layer.

Run from the repository root:

    python3 perfbench/run.py --workload soliton1d --seed 1 --seconds 20 --trace 0

One process, one worker, BLAS pinned to one thread. Each workload is a closed
loop of run_experiment calls on one config: the next call starts when the
last has returned, until --seconds have passed. --trace 0 reports the
end-to-end metrics; --trace 1 alternates untraced and traced calls and
reports the per-layer metrics plus the tracing overhead. Human-readable lines
come first; the last line of stdout is one JSON object.
"""

import os

# Before numpy loads: an unpinned BLAS on a small box measures the scheduler.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import ctypes
import hashlib
import json
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
PACKAGE = SRC / "odds_nls"

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "steps_per_s": "1/s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "linalg.solve_ms": "ms",
    "linalg.matvecs_per_solve": "count",
    "linalg.build_ms": "ms",
    "linalg.build_calls": "count",
    "linalg.residual_max": "inf-norm",
    "noise.draw_ms": "ms",
    "noise.draws_per_step": "count",
    "noise.project_ms": "ms",
    "stepper.phase_ms": "ms",
    "stepper.step_self_ms": "ms",
    "stepper.steps": "count",
    "observables.invariants_ms": "ms",
    "observables.calls": "count",
    "mesh.assemble_ms": "ms",
    "mesh.assemble_calls": "count",
    "baselines.step_ms.smm": "ms",
    "baselines.step_ms.fdscn": "ms",
    "baselines.fp_iters.smm": "count",
    "baselines.fp_iters.fdscn": "count",
    "experiments.self_ms": "ms",
    "experiments.csv_bytes": "B",
    "trace_overhead": "ratio",
}
SETUP_REPEATS = 5      # set-up samples before each call
MIN_CALLS = 3


def import_program():
    """Import odds_nls from this checkout's src/, never from elsewhere."""
    if not (PACKAGE / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no odds_nls sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import odds_nls
    if Path(odds_nls.__file__).resolve().parent != PACKAGE:
        raise SystemExit(f"perfbench: odds_nls imported from "
                         f"{odds_nls.__file__}, not {PACKAGE}")


# ------------------------------------------------------------------- stamps

def _blas_threads() -> dict:
    """Thread count of every OpenBLAS the process has loaded."""
    out = {}
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh
                       if "openblas" in line.lower() and ".so" in line})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "scipy_openblas_get_num_threads64_"):
            if hasattr(lib, symbol):
                out[os.path.basename(path)] = getattr(lib, symbol)()
    return out


def _git_commit():
    """HEAD of the checkout's own .git, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine_stamp() -> dict:
    import numpy
    import scipy
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    digest = hashlib.sha256()
    for path in sorted(PACKAGE.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "git_commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
    }


# ------------------------------------------------------------------ measuring

class Tally:
    """Calls attempted and failed; a call fails on a failed trajectory, an
    exception or a failed output check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def add(self, problems) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def call(cfg, check, tracer=None):
    """One run_experiment call: (wall seconds, result or None, problems)."""
    from odds_nls.experiments import run_experiment
    from tracing import RUN
    t0 = time.perf_counter()
    try:
        if tracer is None:
            result = run_experiment(cfg, workers=1)
        else:
            with tracer.span(RUN):
                result = run_experiment(cfg, workers=1)
    except Exception as exc:    # a failed run is counted, the loop goes on
        return time.perf_counter() - t0, None, [f"{type(exc).__name__}: {exc}"]
    wall = time.perf_counter() - t0
    return wall, result, check(cfg, result)


def closed_loop(once, seconds: float, min_calls: int = MIN_CALLS) -> None:
    """Call once() back to back until seconds pass, at least min_calls times.

    once() returns its duration; another call starts only if the median
    duration so far still fits.
    """
    durations = []
    t_end = time.perf_counter() + seconds
    while (len(durations) < min_calls
           or time.perf_counter() + statistics.median(durations) <= t_end):
        durations.append(once())


def end_to_end(cfg, seconds: float, tally: Tally):
    """End-to-end metrics, plus the printed-only per-scheme medians."""
    from workloads import build_setup, check_result, steps_per_call
    walls, setups, scheme_medians = [], [], []

    def once():
        # set-up samples are spread over the run, like the calls, so a slow
        # spell of a shared host weighs on both alike
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            build_setup(cfg)
            setups.append(time.perf_counter() - t0)
        wall, result, problems = call(cfg, check_result)
        tally.add(problems)
        walls.append(wall)
        if result is not None and isinstance(result.data, dict):
            scheme_medians.append(result.data)     # efficiency: timings.csv
        return sum(setups[-SETUP_REPEATS:]) + wall

    closed_loop(once, seconds)
    wall = statistics.median(walls)
    metrics = {
        "wall_s": wall,
        "setup_s": statistics.median(setups),
        "steps_per_s": steps_per_call(cfg) / wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    printed = {}
    if scheme_medians:
        for scheme in ("odds", "smm", "fdscn"):
            printed[f"{scheme}_s"] = statistics.median(
                m[scheme] for m in scheme_medians)
    notes = {"calls": len(walls), "setup_repeats": len(setups),
             "wall_s_quartiles": statistics.quantiles(walls, n=4),
             "setup_s_quartiles": statistics.quantiles(setups, n=4)}
    return metrics, printed, notes


def per_layer(cfg, seconds: float, tally: Tally, spans_path: Path):
    from odds_nls.linalg import SolverOptions
    from tracing import Tracer, call_metrics, installed, median_metrics
    from workloads import check_result, csv_bytes
    residual_tol = SolverOptions().residual_tol
    tracer = Tracer()
    plain, traced, per_call = [], [], []

    def once():
        wall, _, problems = call(cfg, check_result)
        tally.add(problems)
        plain.append(wall)
        tracer.begin()
        with installed(tracer):
            wall_t, result, problems = call(cfg, check_result, tracer)
        if tracer.residual_max > residual_tol:
            problems = problems + [f"solve residual {tracer.residual_max:.3e}"
                                   f" > {residual_tol:g}"]
        tally.add(problems)
        traced.append(wall_t)
        if result is not None:
            per_call.append(call_metrics(tracer, csv_bytes(result)))
        return wall + wall_t

    closed_loop(once, seconds, min_calls=2)
    tracer.write(str(spans_path))
    if not per_call:
        raise SystemExit("perfbench: every traced call failed")
    metrics = median_metrics(per_call)
    metrics["linalg.residual_max"] = max(m["linalg.residual_max"]
                                         for m in per_call)
    metrics["trace_overhead"] = (statistics.median(traced)
                                 / statistics.median(plain))
    notes = {"traced_calls": len(traced), "untraced_calls": len(plain),
             "spans": str(spans_path.relative_to(ROOT))}
    return metrics, {}, notes


def main(argv=None) -> int:
    import_program()
    from workloads import WORKLOADS
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    out = ROOT / ".perfbench_out" / args.workload
    shutil.rmtree(out, ignore_errors=True)
    cfg = WORKLOADS[args.workload].config(args.seed, str(out))
    print(f"# perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("# machine " + json.dumps(machine_stamp(), sort_keys=True))
    tally = Tally()
    if args.trace:
        metrics, printed, notes = per_layer(cfg, args.seconds, tally,
                                            out / "trace_spans.csv")
        units = PER_LAYER
    else:
        metrics, printed, notes = end_to_end(cfg, args.seconds, tally)
        units = END_TO_END
    for name, unit in units.items():
        print(f"{name:28s} {metrics[name]:14.6g} {unit}")
    for name, value in printed.items():
        print(f"{name:28s} {value:14.6g} s")
    notes.update(printed)
    print(f"{'failed_frac':28s} {tally.failed_frac:14.6g} "
          f"({tally.failed} of {tally.attempted} runs)")
    for problem in tally.problems[:20]:
        print(f"# failure: {problem}")
    print("# notes " + json.dumps(notes, sort_keys=True))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
