"""Print how far each numeric CSV column moved between two output trees.

Every CSV under OLD_DIR is matched by its relative path under NEW_DIR. For
each numeric column, one line: ``file column max_abs_shift relative``, where
relative is the shift divided by the column's largest |value| in OLD_DIR.
Shifts relative to each value would mislead on columns that span many
decades: gaussian2d's surfaces.csv tails near 1e-22 move by a few percent of
themselves while the surface moves at rounding level.

    odds-nls run soliton1d --output-dir old     # in the old checkout
    odds-nls run soliton1d --output-dir new     # in the new one
    python scripts/csv_shift.py old new

Columns that hold text, and cells left empty in both trees, are skipped.
A CSV found only under NEW_DIR gets one line, ``file new in NEW_DIR``.
Exits 1 when a CSV is missing from NEW_DIR or changed its header or row
count, 0 otherwise; a new CSV does not change the status.
"""

import argparse
import csv
import math
import os
import sys

import numpy as np


def read_columns(path: str) -> tuple[list, list]:
    """(header, list of cell columns) of a CSV file."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    return header, [[row[i] for row in body] for i in range(len(header))]


def numeric(cells: list) -> np.ndarray | None:
    """A column's cells as floats, NaN for empty ones; None for text."""
    try:
        return np.array([float(c) if c else math.nan for c in cells])
    except ValueError:
        return None


def column_shifts(old_path: str, new_path: str):
    """Yield (column, max |shift|, shift / max |old value|) per numeric column.

    Raises ValueError when the header, the row count or the empty cells
    differ.
    """
    old_header, old = read_columns(old_path)
    new_header, new = read_columns(new_path)
    if old_header != new_header:
        raise ValueError(f"header {old_header} -> {new_header}")
    if len(old[0]) != len(new[0]):
        raise ValueError(f"{len(old[0])} -> {len(new[0])} rows")
    for name, a_cells, b_cells in zip(old_header, old, new):
        a, b = numeric(a_cells), numeric(b_cells)
        if a is None or b is None:
            continue
        if not np.array_equal(np.isnan(a), np.isnan(b)):
            raise ValueError(f"column {name!r}: empty cells moved")
        kept = ~np.isnan(a)
        if not kept.any():
            continue
        shift = float(np.max(np.abs(a[kept] - b[kept])))
        scale = float(np.max(np.abs(a[kept])))
        yield name, shift, (shift / scale if scale else
                            (0.0 if shift == 0 else math.inf))


def csv_paths(top: str) -> list:
    """Relative paths of the CSVs under top, in walk order."""
    return [os.path.relpath(os.path.join(root, name), top)
            for root, _, files in sorted(os.walk(top))
            for name in sorted(f for f in files if f.endswith(".csv"))]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old_dir")
    parser.add_argument("new_dir")
    args = parser.parse_args()
    status = 0
    old_paths = csv_paths(args.old_dir)
    for rel in old_paths:
        new_path = os.path.join(args.new_dir, rel)
        if not os.path.exists(new_path):
            print(f"{rel} missing from {args.new_dir}")
            status = 1
            continue
        try:
            for column, shift, relative in column_shifts(
                    os.path.join(args.old_dir, rel), new_path):
                print(f"{rel} {column!r} {shift:.3g} {relative:.3g}")
        except ValueError as err:
            print(f"{rel} {err}")
            status = 1
    for rel in sorted(set(csv_paths(args.new_dir)) - set(old_paths)):
        print(f"{rel} new in {args.new_dir}")
    return status


if __name__ == "__main__":
    sys.exit(main())
