"""Run builtin experiments and print the sha256 of every CSV they write.

Each named builtin runs on one worker into a temporary directory, after the
``--set`` overrides (applied to every named config, as ``odds-nls run
--set`` does). One line per CSV: ``name file sha256 bytes``. Comparing the
output of two checkouts shows whether a change kept the artifacts
byte-identical.

    PYTHONPATH=src python scripts/artifact_hashes.py             # every builtin
    PYTHONPATH=src python scripts/artifact_hashes.py gaussian2d --set seed=1

Every builtin includes efficiency2d, the 2D timing setup, which alone
takes about 14 s at one BLAS thread on a 2-vCPU x86 box.

``timings.csv`` (efficiency) holds measured times in its last three
columns, so its hash differs from run to run. A second line,
``name timings.csv[:5] sha256 bytes``, hashes its first five columns
(scheme, dimension, points, steps, repeats), which two checkouts can
compare.

The BLAS and OpenMP thread counts default to 1, set before numpy loads,
because gaussian2d's bytes depend on them; an ``OPENBLAS_NUM_THREADS`` or
``OMP_NUM_THREADS`` already in the environment is kept.
"""

import argparse
import dataclasses
import hashlib
import os
import sys
import tempfile

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

from odds_nls.config import (ConfigError, apply_overrides,  # noqa: E402
                             builtin_configs)
from odds_nls.experiments import run_experiment  # noqa: E402


def main() -> int:
    builtins = builtin_configs()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", metavar="name",
                        help="builtin experiment, one of "
                        + ", ".join(builtins) + " (default: all)")
    parser.add_argument("--set", dest="overrides", action="append",
                        default=[], metavar="KEY=VALUE",
                        help="override a config key (repeatable)")
    args = parser.parse_args()
    names = args.names or list(builtins)
    unknown = sorted(set(names) - set(builtins))
    if unknown:
        parser.error(f"unknown builtin(s): {', '.join(unknown)}")
    status = 0
    for name in names:
        try:
            config = apply_overrides(builtins[name], args.overrides)
        except ConfigError as exc:
            parser.error(str(exc))
        with tempfile.TemporaryDirectory() as out:
            result = run_experiment(
                dataclasses.replace(config, output_dir=out), workers=1)
            for path in sorted(p for p in result.paths if p.endswith(".csv")):
                with open(path, "rb") as fh:
                    data = fh.read()
                print(name, os.path.basename(path),
                      hashlib.sha256(data).hexdigest(), len(data), flush=True)
                if path.endswith("timings.csv"):
                    fixed = b"".join(b",".join(row.split(b",")[:5]) + b"\r\n"
                                     for row in data.splitlines())
                    print(name, "timings.csv[:5]",
                          hashlib.sha256(fixed).hexdigest(), len(fixed),
                          flush=True)
        if result.manifest["failures"]:
            print(f"{name}: {len(result.manifest['failures'])} failed run(s)",
                  file=sys.stderr)
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
