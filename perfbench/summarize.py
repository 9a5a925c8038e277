"""Run the benchmark over several seeds and summarise each metric.

Run from the repository root, for example:

    python3 perfbench/summarize.py --seeds 1-10 --trace 0 \
        --out perfbench/results/krylov_baseline.json

Runs perfbench/run.py once per (workload, seed), one at a time, and prints
for every metric its median, quartiles and spread (q3 - q1) / median, the
spread next to the metric's bound from BENCHMARK.json. With --out, writes
the values, the summary and the machine stamp of the first run as JSON
(merged into the file if it exists).
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PRINTED = ("odds_s", "smm_s", "fdscn_s")    # efficiency1d, from its notes


def parse_seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                           f"{proc.stderr}")
    def tagged(tag):
        return next((json.loads(line[len(tag):]) for line in lines
                     if line.startswith(tag)), {})
    return json.loads(lines[-1]), tagged("# machine "), tagged("# notes ")


def summary(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    section = "per_layer" if args.trace else "end_to_end"
    report = {"seconds": args.seconds, "workloads": {}}
    for workload in args.workloads.split(","):
        values, units, failed, attempted = {}, {}, 0, 0
        for seed in parse_seeds(args.seeds):
            result, machine, notes = run_once(workload, seed, args.seconds,
                                              args.trace)
            report.setdefault("machine", machine)
            failed += result["failed"]
            attempted += result["attempted"]
            got = {name: (m["value"], m["unit"])
                   for name, m in result["metrics"].items()}
            got.update({name: (notes[name], "s") for name in PRINTED
                        if name in notes})
            for name, (value, unit) in got.items():
                values.setdefault(name, []).append(value)
                units[name] = unit
        metrics = {name: {"unit": units[name], "values": vals,
                          **summary(vals)}
                   for name, vals in values.items()}
        report["workloads"][workload] = {section: {
            "seeds": args.seeds, "failed": failed, "attempted": attempted,
            "metrics": metrics}}
        print(f"{workload}: {failed} failed of {attempted} runs")
        for name, stats in metrics.items():
            bound = bounds.get(name)
            mark = ("" if bound is None else
                    f"  bound {bound:g}"
                    + ("  WIDE" if stats["spread"] > bound / 3 else ""))
            print(f"  {name:28s} median {stats['median']:12.6g} "
                  f"{units[name]:8s} q1 {stats['q1']:12.6g} "
                  f"q3 {stats['q3']:12.6g} spread {stats['spread']:.4f}{mark}")
        sys.stdout.flush()
    if args.out:
        old = json.loads(args.out.read_text()) if args.out.exists() else {}
        for workload, entry in report.pop("workloads").items():
            old.setdefault("workloads", {}).setdefault(workload, {}).update(
                entry)
        old.update(report)
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(old, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
