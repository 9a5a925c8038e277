"""End-to-end runs of the experiment drivers at toy sizes, plus CLI contract.

Every run here is shrunk via overrides until it takes a second or two; the
full-size setups are exercised by the acceptance suite.
"""

import csv
import dataclasses
import hashlib
import io
import json
import math
import os
from functools import partial

import numpy as np
import pytest
import scipy.sparse.linalg

import odds_nls.cli as cli
import odds_nls.experiments as experiments
from odds_nls.config import (ConfigError, apply_overrides, builtin_configs,
                             builtin_efficiency_2d, config_hash, from_mapping)
from odds_nls.experiments import (RunResult, cells, collision_datum,
                                  gaussian_datum, run_experiment,
                                  soliton_datum, write_csv)
from odds_nls.mesh import build_mesh
from odds_nls.noise import (CHUNK_NORMALS, NoiseModel1D, NoiseModel2D,
                            TrajectoryNoise)
from odds_nls.observables import trapezoid_weights
from odds_nls.linalg import LUSolver, SolverOptions
from odds_nls.stepper import RunOptions, StepFailure, state_sha256


def tiny_soliton(tmp_path, **extra):
    data = {"kind": "soliton1d", "x_left": -10.0, "x_right": 10.0,
            "elements": 3, "degree": 8, "modes": 30, "trajectories": 2,
            "tau": 0.02, "t_final": 0.1, "snapshot_times": [0.0, 0.1],
            "invariant_stride": 2, "output_dir": str(tmp_path)}
    data.update(extra)
    return from_mapping(data)


def tiny_gaussian2d(tmp_path, **extra):
    data = {"kind": "gaussian2d", "elements": 2, "degree": 5,
            "elements_y": 2, "degree_y": 5, "modes": 6, "modes_y": 6,
            "tau": 0.02, "t_final": 0.04, "snapshot_times": [0.0, 0.04],
            "invariant_stride": 1, "output_dir": str(tmp_path)}
    data.update(extra)
    return from_mapping(data)


# one tiny config of each run kind (efficiency in 1D), output under tmp_path
TINY = {
    "soliton1d": tiny_soliton,
    "collision1d": partial(tiny_soliton, kind="collision1d", x_right=40.0),
    "gaussian2d": tiny_gaussian2d,
    "convergence": lambda tmp_path: from_mapping({
        "kind": "convergence", "elements": 2, "degree": 6, "modes": 20,
        "trajectories": 2, "tau_ladder": [0.025, 0.0125],
        "tau_ref": 0.00625, "tau": 0.00625, "t_final": 0.1,
        "output_dir": str(tmp_path)}),
    "efficiency": lambda tmp_path: from_mapping({
        "kind": "efficiency", "x_left": -5.0, "x_right": 5.0,
        "elements": 2, "degree": 6, "modes": 10, "uniform_points": 11,
        "tau": 0.02, "t_final": 0.04, "repeats": 3,
        "output_dir": str(tmp_path)}),
}


@pytest.fixture
def splu_sizes(monkeypatch):
    """The order of each SuperLU factor made while the test runs."""
    sizes = []
    real_splu = scipy.sparse.linalg.splu
    monkeypatch.setattr(scipy.sparse.linalg, "splu", lambda A: (
        sizes.append(A.shape[0]) or real_splu(A)))
    return sizes


def sha_of(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def per_cell(value) -> str:
    """The per-cell rule the CSVs were first written with."""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def csv_module_bytes(header, rows) -> bytes:
    """csv.writer's default dialect fed row by row through per_cell."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(header)
    for row in rows:
        writer.writerow([v if isinstance(v, str) else per_cell(v)
                         for v in row])
    return buf.getvalue().encode()


def read_bytes(path) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


class TestInitialData:
    def test_soliton_profile_and_direction(self):
        x = np.linspace(-20.0, 100.0, 2001)
        u = soliton_datum(x)
        np.testing.assert_allclose(np.abs(u), np.sqrt(1.2) / np.cosh(
            np.sqrt(2.0) * x), atol=1e-12)
        # carrier phase decreases with x (rightward group velocity under
        # the i du = [u_xx + ...] dt sign convention)
        phase = np.unwrap(np.angle(u[np.abs(x) < 3.0]))
        assert phase[-1] < phase[0]

    def test_collision_datum_has_two_separated_pulses(self):
        x = np.linspace(-20.0, 150.0, 4001)
        a = np.abs(collision_datum(x))
        left = a[x < 15.0]
        right = a[x >= 15.0]
        xl = x[x < 15.0][np.argmax(left)]
        xr = x[x >= 15.0][np.argmax(right)]
        assert abs(xl) < 1.0 and abs(xr - 30.0) < 1.0

    def test_gaussian_datum_peak_and_symmetry(self):
        gx = np.linspace(-10.0, 10.0, 41)
        u = gaussian_datum(gx, gx)
        assert u.shape == (41, 41)
        assert u[20, 20] == pytest.approx(1.0)
        np.testing.assert_allclose(u, u.T, atol=1e-15)


class TestCSVWriter:
    header = ["name (label)", "n (count)", "m (count)", "x (units)",
              "y (units)"]
    rows = [("odds", np.int64(3), 7, -0.0, float("nan")),
            ("", np.int32(-12), 10 ** 12, 5e-324, np.float64(1e16)),
            ("fdscn", np.uint8(0), -1, 0.1, 1.0 / 3.0)]

    def test_bytes_match_csv_module(self, tmp_path):
        columns = [cells(list(c)) for c in zip(*self.rows)]
        blocks = [[c[:1] for c in columns], [c[1:] for c in columns],
                  [[] for _ in columns]]
        path = write_csv(str(tmp_path / "t.csv"), self.header, blocks)
        text = read_bytes(path)
        assert text == csv_module_bytes(self.header, self.rows)
        assert text.count(b"\r\n") == 1 + len(self.rows)

    def test_unequal_columns_raise(self, tmp_path):
        with pytest.raises(ValueError, match="unequal"):
            write_csv(str(tmp_path / "t.csv"), ["a", "b"],
                      [[cells([1, 2]), cells([1.0])]])
        with pytest.raises(ValueError, match="header"):
            write_csv(str(tmp_path / "t.csv"), ["a", "b"], [[cells([1])]])

    @pytest.mark.parametrize("cell", ["a,b", 'say "x"', "two\nlines", "cr\r"])
    def test_cells_that_need_quoting_raise(self, tmp_path, cell):
        with pytest.raises(ValueError, match="quoting"):
            write_csv(str(tmp_path / "t.csv"), ["a", "b"],
                      [[["ok", cell], ["1", "2"]]])
        with pytest.raises(ValueError, match="quoting"):
            write_csv(str(tmp_path / "t.csv"), ["a", cell], [])

    def test_constant_columns_mixed_with_lists(self, tmp_path):
        # a str column is the same cell on every row, leading or not
        blocks = [["odds", "3", ["-0.0", "0.1"], "x", ["1", "2"]],
                  ["smm", ["4"], "nan", ["5e-324"], ["7"]]]
        rows = [("odds", "3", "-0.0", "x", "1"),
                ("odds", "3", "0.1", "x", "2"),
                ("smm", "4", "nan", "5e-324", "7")]
        path = write_csv(str(tmp_path / "t.csv"), self.header, blocks)
        assert read_bytes(path) == csv_module_bytes(self.header, rows)

    def test_block_of_constants_only_is_one_row(self, tmp_path):
        blocks = [["a", "1", "2", "0.5", "b"], ["c", "3", "4", "1.5", "d"]]
        path = write_csv(str(tmp_path / "t.csv"), self.header, blocks)
        assert read_bytes(path) == csv_module_bytes(self.header, blocks)
        path = write_csv(str(tmp_path / "one.csv"), ["a"], [["x"], ["y"]])
        assert read_bytes(path) == csv_module_bytes(["a"], [["x"], ["y"]])

    def test_zero_row_block_writes_nothing(self, tmp_path):
        blocks = [["odds", [], "1", [], []],
                  ["smm", ["1"], "2", ["3"], ["4"]],
                  ["fdscn", [], [], [], "5"]]
        path = write_csv(str(tmp_path / "t.csv"), self.header, blocks)
        assert read_bytes(path) == csv_module_bytes(
            self.header, [("smm", "1", "2", "3", "4")])

    def test_column_reused_across_blocks(self, tmp_path):
        xs, ys = ["0.0", "0.5"], ["-1", "1"]
        blocks = [["a", "0", xs, ys, ["1", "2"]],
                  ["b", "1", xs, ys, ["3", "4"]],
                  ["c", "2", ys, ys, ["5", "6"]],
                  ["d", "3", xs, ys, ["7", "8"]]]
        rows = [(label, t, x, y, u) for label, t, xc, yc, uc in blocks
                for x, y, u in zip(xc, yc, uc)]
        path = write_csv(str(tmp_path / "t.csv"), self.header, blocks)
        assert read_bytes(path) == csv_module_bytes(self.header, rows)

    @pytest.mark.parametrize("cell", ["a,b", 'say "x"', "two\nlines", "cr\r"])
    def test_forbidden_cell_in_constant_or_reused_column_raises(
            self, tmp_path, cell):
        with pytest.raises(ValueError, match="quoting"):
            write_csv(str(tmp_path / "t.csv"), ["a", "b"],
                      [[cell, ["1", "2"]]])
        with pytest.raises(ValueError, match="quoting"):
            write_csv(str(tmp_path / "t.csv"), ["a", "b"], [[cell, "1"]])
        # a constant is checked in a block of no rows too
        with pytest.raises(ValueError, match="quoting"):
            write_csv(str(tmp_path / "t.csv"), ["a", "b"], [[cell, []]])
        # a reused column is checked where it first appears
        reused = ["ok", cell]
        with pytest.raises(ValueError, match="quoting"):
            write_csv(str(tmp_path / "t.csv"), ["a", "b"],
                      [[["1", "2"], "x"], [reused, ["1", "2"]],
                       [reused, ["3", "4"]]])

        def gap_then_changed():
            # only a column of the block just written skips the check
            column = ["ok", "ok"]
            yield [column, ["1", "2"]]
            yield [["3"], "x"]
            column[1] = cell
            yield [column, ["5", "6"]]

        with pytest.raises(ValueError, match="quoting"):
            write_csv(str(tmp_path / "t.csv"), ["a", "b"], gap_then_changed())

    def test_one_column_empty_constant_raises(self, tmp_path):
        with pytest.raises(ValueError, match="quoting"):
            write_csv(str(tmp_path / "t.csv"), ["a"], [["x"], [""]])
        with pytest.raises(ValueError, match="quoting"):
            write_csv(str(tmp_path / "t.csv"), ["a"], [[["x", ""]]])


class TestModulusCells:
    # edge values of one part of a complex: signed zeros, subnormals, the
    # smallest normal, scales out to the largest double, inf and nan
    PARTS = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.5e-320,
             2.2250738585072014e-308, -1e-308, 1e-300, 1e-200, 1.0 / 3.0,
             -1.0, 1e200, -1e300, 1e308, 1.7976931348623157e308,
             math.inf, -math.inf, math.nan]

    @staticmethod
    def python_abs(z):
        """abs(z), or None where Python raises on an overflowing modulus."""
        try:
            return abs(z)
        except OverflowError:
            return None

    def test_hypot_equals_python_abs_bit_for_bit(self):
        # _modulus_cells takes |u| as np.hypot(re, im); the CSVs were first
        # written with Python's abs of each complex, so the two must agree
        # to the bit, or the CSV bytes would change
        rng = np.random.default_rng(7)
        mantissas = rng.uniform(1.0, 10.0, 4000) * rng.choice([-1, 1], 4000)
        scaled = mantissas * 10.0 ** rng.integers(-308, 308, 4000)
        re, im = np.meshgrid(self.PARTS, self.PARTS)
        re = np.concatenate([re.ravel(), scaled[:2000], scaled[:2000]])
        im = np.concatenate([im.ravel(), scaled[2000:], scaled[:2000] * 0.5])
        with np.errstate(over="ignore"):
            got = np.hypot(re, im)
        for a, b, h in zip(re.tolist(), im.tolist(), got.tolist()):
            want = self.python_abs(complex(a, b))
            if want is None:
                # overflow: Python raises where hypot rounds to inf
                assert h == math.inf, (a, b)
            elif math.isnan(want):
                assert math.isnan(h), (a, b, h)
            else:
                assert np.float64(h).view(np.uint64) == np.float64(
                    want).view(np.uint64), (a, b, h, want)

    def test_cells_are_repr_of_python_abs(self):
        finite = [p for p in self.PARTS if abs(p) < 1e300] + [math.nan]
        field = np.array([[complex(a, b) for b in finite] for a in finite])
        want = [repr(abs(z)) for z in field.ravel().tolist()]
        assert experiments._modulus_cells(field) == want


class TestSolitonRunner:
    def test_artifacts_and_manifest(self, tmp_path):
        cfg = tiny_soliton(tmp_path)
        result = run_experiment(cfg, workers=1)
        assert isinstance(result, RunResult)
        names = {os.path.basename(p) for p in result.paths}
        assert {"profiles.csv", "charge.csv", "energy.csv",
                "energy_mean.csv", "manifest.json"} <= names
        man = result.manifest
        assert man["experiment"] == "soliton1d"
        assert man["failures"] == []
        assert man["per_trajectory_seeds"] == [[0, 0], [0, 1]]
        assert len(man["config_sha256"]) == 64

    @pytest.mark.parametrize("kind", list(TINY))
    def test_every_kind_times_run_and_write_and_writes_its_manifest(
            self, tmp_path, kind):
        # run_experiment times, writes and manifests every kind alike: the
        # manifest lists each CSV written and is on disk as returned
        result = run_experiment(TINY[kind](tmp_path), workers=1)
        man = result.manifest
        assert set(man["stage_seconds"]) == {"run", "write"}
        assert all(v >= 0 for v in man["stage_seconds"].values())
        *csvs, path = result.paths
        assert os.path.basename(path) == "manifest.json"
        assert man["artifacts"] == [os.path.basename(p) for p in csvs]
        with open(path) as fh:
            assert json.load(fh) == man

    def test_manifest_bytes_match_json_dump(self, tmp_path):
        # one write of json.dumps gives the bytes json.dump wrote chunk by
        # chunk, non-ASCII text, non-finite floats and nesting included
        man = experiments._manifest(
            builtin_configs()["gaussian2d"], range(2), {"run": 0.125},
            ["a/surfaces.csv"], [{"error": "résidu", "time": 1e-300}],
            extra={"charge_drift": {"1.0": None, "0.5": math.nan},
                   "medians": {"odds": math.inf, "smm": [0.1, -0.0]}})
        path = experiments._write_manifest(str(tmp_path), man)
        old = io.StringIO()
        json.dump(man, old, indent=2, sort_keys=True)
        old.write("\n")
        assert read_bytes(path) == old.getvalue().encode()

    def test_failure_record_replays_its_step(self, tmp_path, monkeypatch):
        # an unsolvable tolerance fails each trajectory at step 0; its
        # record names the seed and the hash of the state that entered it
        hopeless = SolverOptions(residual_tol=1e-30, max_krylov=4,
                                 max_restarts=2)
        monkeypatch.setattr(experiments, "RunOptions",
                            partial(RunOptions, solver=hopeless))
        cfg = tiny_soliton(tmp_path, seed=5)
        result = run_experiment(cfg, workers=1)
        u0 = soliton_datum(build_mesh(-10.0, 10.0, 3, 8).nodes)
        u0[[0, -1]] = 0.0
        records = result.manifest["failures"]
        assert [r["trajectory"] for r in records] == [0, 1]
        for record in records:
            assert (record["seed"], record["eps"]) == (5, cfg.eps)
            assert (record["step"], record["time"]) == (0, 0.0)
            assert record["state_sha256"] == state_sha256(u0)
            assert "step 0" in record["error"]

    @pytest.mark.parametrize("changes, message", [
        ({"t_final": 0.11}, "t_final 0.11 is not a whole number of steps "
                            "of tau 0.02"),
        ({"snapshot_times": (0.0, 0.05)}, "snapshot time 0.05 is not a "
                                          "whole number of steps of tau 0.02"),
        ({"degree": 1}, "element degree must be at least 2"),
    ], ids=["t_final", "snapshot", "degree"])
    def test_run_experiment_rejects_an_invalid_config_before_any_output(
            self, tmp_path, changes, message):
        # dataclasses.replace skips validation; run_experiment does not
        cfg = dataclasses.replace(tiny_soliton(tmp_path), **changes)
        with pytest.raises(ConfigError, match=message):
            run_experiment(cfg, workers=1)
        assert list(tmp_path.iterdir()) == []

    def test_snapshots_are_written_at_their_own_steps(self, tmp_path):
        result = run_experiment(
            tiny_soliton(tmp_path, snapshot_times=[0.1, 0.0, 0.06]))
        assert result.manifest["n_steps"] == 5
        assert not any(key.startswith("realised") for key in result.manifest)
        profiles = [p for p in result.paths if p.endswith("profiles.csv")][0]
        with open(profiles) as fh:
            written = {float(row[1]) for row in list(csv.reader(fh))[1:]}
        assert written == {0.0, 3 * 0.02, 5 * 0.02}
        # builtin soliton1d's snapshots 4.995 and 10.005 are steps 333, 667
        assert experiments._snapshot_steps(
            builtin_configs()["soliton1d"]) == (0, 333, 667)

    def test_manifest_charge_drift_matches_charge_csv(self, tmp_path):
        # soliton1d and collision1d key charge.csv by trajectory, gaussian2d
        # by eps; the manifest holds the worst drift over the keys
        configs = [
            tiny_soliton(tmp_path, eps=1.0),
            from_mapping({"kind": "collision1d", "x_left": -10.0,
                          "x_right": 40.0, "elements": 3, "degree": 8,
                          "modes": 20, "trajectories": 2, "eps": 1.0,
                          "tau": 0.02, "t_final": 0.06,
                          "snapshot_times": [0.0], "invariant_stride": 1,
                          "output_dir": str(tmp_path)}),
            from_mapping({"kind": "gaussian2d", "elements": 2, "degree": 5,
                          "elements_y": 2, "degree_y": 5, "modes": 6,
                          "modes_y": 6, "eps_values": [0.0, 2.0],
                          "tau": 0.02, "t_final": 0.04,
                          "snapshot_times": [0.0, 0.02, 0.04],
                          "output_dir": str(tmp_path)}),
        ]
        for cfg in configs:
            result = run_experiment(cfg, workers=1)
            path = [p for p in result.paths if p.endswith("charge.csv")][0]
            with open(path) as fh:
                rows = list(csv.reader(fh))[1:]
            first, worst = {}, 0.0
            for key, _, charge in rows:
                q0 = first.setdefault(key, float(charge))
                worst = max(worst, abs(float(charge) - q0) / abs(q0))
            assert len(first) == 2, cfg.kind
            assert result.manifest["charge_drift"] == worst, cfg.kind
            assert 0.0 < worst < 1e-2, cfg.kind

    def test_charge_drift_is_null_when_no_run_succeeded(self, tmp_path,
                                                        monkeypatch):
        hopeless = SolverOptions(residual_tol=1e-30, max_krylov=4,
                                 max_restarts=2)
        monkeypatch.setattr(experiments, "RunOptions",
                            partial(RunOptions, solver=hopeless))
        result = run_experiment(tiny_soliton(tmp_path), workers=1)
        assert len(result.manifest["failures"]) == 2
        assert result.manifest["charge_drift"] is None

    @pytest.mark.parametrize("argv", [
        ["soliton1d", "--set", "x_left=1000", "--set", "x_right=1100",
         "--set", "t_final=0.015"],
        ["gaussian2d", "--set", "x_left=100", "--set", "x_right=120",
         "--set", "t_final=0.01"],
    ], ids=["soliton1d", "gaussian2d"])
    def test_manifest_is_strict_json_when_the_datum_underflows(
            self, tmp_path, capsys, argv):
        # the datum is 0 on this interval, so every first charge is 0 and
        # its relative drift 0/0 was written as the non-JSON token NaN
        def reject(token):
            raise ValueError(f"manifest holds {token}")

        assert cli.main(["run", *argv, "--set", "snapshot_times=[0]",
                         "--output-dir", str(tmp_path)]) == 0
        text = (tmp_path / argv[0] / "manifest.json").read_text()
        manifest = json.loads(text, parse_constant=reject)
        assert manifest["failures"] == []
        assert manifest["charge_drift"] is None

    def test_charge_drift_skips_series_that_start_at_zero(self):
        drift = experiments._charge_drift([[0.0, 0.0], [2.0, 2.5], []])
        assert drift == 0.25
        assert experiments._charge_drift([[0.0, 1e-300]]) is None

    def test_csv_headers_carry_units(self, tmp_path):
        cfg = tiny_soliton(tmp_path)
        result = run_experiment(cfg, workers=1)
        charge = [p for p in result.paths if p.endswith("charge.csv")][0]
        with open(charge) as fh:
            header = fh.readline().strip()
        assert "(" in header and ")" in header
        assert "trajectory" in header

    def test_worker_count_does_not_change_bytes(self, tmp_path):
        # seeds are keyed by trajectory index and reduction order is fixed,
        # so a process farm of any size must reproduce the serial bytes;
        # gaussian2d farms its eps sweep, one job per noise size
        for config in (tiny_soliton,
                       partial(tiny_gaussian2d, eps_values=[0.0, 1.0])):
            a = run_experiment(config(tmp_path / "serial"), workers=1)
            b = run_experiment(config(tmp_path / "farmed"), workers=4)
            for pa, pb in zip(sorted(a.paths), sorted(b.paths), strict=True):
                assert os.path.basename(pa) == os.path.basename(pb)
                if pa.endswith(".csv"):
                    assert sha_of(pa) == sha_of(pb), os.path.basename(pa)

    def test_farm_starts_no_more_workers_than_jobs(self, tmp_path,
                                                   monkeypatch):
        # a stand-in pool that records its size and runs the jobs here, so
        # no process starts; each real worker would build the whole context
        sizes = []

        class InlinePool:
            def __init__(self, max_workers, initializer, initargs):
                sizes.append(max_workers)
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(experiments, "ProcessPoolExecutor", InlinePool)
        monkeypatch.setattr(experiments, "_CTX", None)
        farmed = run_experiment(tiny_soliton(tmp_path / "farmed"), workers=4)
        assert sizes == [2]     # two trajectories, one job each
        serial = run_experiment(tiny_soliton(tmp_path / "serial"), workers=1)
        assert sizes == [2]
        for pa, pb in zip(sorted(farmed.paths), sorted(serial.paths)):
            if pa.endswith(".csv"):
                assert sha_of(pa) == sha_of(pb), os.path.basename(pa)

    def test_rerun_is_byte_identical(self, tmp_path):
        a = run_experiment(tiny_soliton(tmp_path / "one"), workers=1)
        b = run_experiment(tiny_soliton(tmp_path / "two"), workers=1)
        for pa, pb in zip(sorted(a.paths), sorted(b.paths)):
            if pa.endswith(".csv"):
                assert sha_of(pa) == sha_of(pb)


class TestOtherRunners:
    def test_collision_snapshots(self, tmp_path):
        cfg = from_mapping({"kind": "collision1d", "x_left": -10.0,
                            "x_right": 40.0, "elements": 3, "degree": 8,
                            "modes": 20, "tau": 0.02, "t_final": 0.06,
                            "snapshot_times": [0.0, 0.06],
                            "invariant_stride": 1,
                            "output_dir": str(tmp_path)})
        result = run_experiment(cfg, workers=1)
        names = {os.path.basename(p) for p in result.paths}
        assert {"snapshots.csv", "charge.csv", "manifest.json"} <= names
        snap = [p for p in result.paths if p.endswith("snapshots.csv")][0]
        with open(snap) as fh:
            header = fh.readline()
        assert "re_u" in header and "im_u" in header

    def test_gaussian2d_sweeps_eps_in_one_run(self, tmp_path):
        cfg = from_mapping({"kind": "gaussian2d", "elements": 2, "degree": 5,
                            "elements_y": 2, "degree_y": 5, "modes": 6,
                            "modes_y": 6, "eps_values": [0.0, 1.0],
                            "tau": 0.02, "t_final": 0.04,
                            "snapshot_times": [0.0, 0.04],
                            "invariant_stride": 1,
                            "output_dir": str(tmp_path)})
        result = run_experiment(cfg, workers=1)
        assert result.manifest["eps_sweep"] == [0.0, 1.0]
        assert result.manifest["n_steps"] == 2
        surf = [p for p in result.paths if p.endswith("surfaces.csv")][0]
        rows = np.genfromtxt(surf, delimiter=",", names=True,
                             deletechars="()")
        eps_col = rows[rows.dtype.names[0]]
        assert set(np.unique(eps_col)) == {0.0, 1.0}
        assert "write" in result.manifest["stage_seconds"]

    def test_gaussian2d_bytes_match_row_by_row_writer(self, tmp_path,
                                                      monkeypatch):
        # the row-by-row writer the surfaces were first written with: scalar
        # abs of each numpy complex, then per_cell (np.abs over the field
        # rounds some moduli differently)
        runs = []

        def recording(*args, **kwargs):
            runs.append(real_run(*args, **kwargs))
            return runs[-1]

        real_run = experiments.run_trajectory
        monkeypatch.setattr(experiments, "run_trajectory", recording)
        # charge.csv holds each run's invariant series, sampled every
        # invariant_stride steps and at the last; here every step, so each
        # snapshot time is a sample
        cfg = from_mapping({"kind": "gaussian2d", "elements": 2, "degree": 5,
                            "elements_y": 2, "degree_y": 6, "modes": 6,
                            "modes_y": 6, "eps_values": [0.0, 1.0],
                            "tau": 0.02, "t_final": 0.04,
                            "snapshot_times": [0.0, 0.02, 0.04],
                            "invariant_stride": 1,
                            "output_dir": str(tmp_path)})
        result = run_experiment(cfg, workers=1)
        mesh_x = build_mesh(cfg.x_left, cfg.x_right, cfg.elements, cfg.degree)
        mesh_y = build_mesh(cfg.y_left, cfg.y_right, cfg.elements_y,
                            cfg.degree_y)
        wx = trapezoid_weights(mesh_x.nodes)
        wy = trapezoid_weights(mesh_y.nodes)
        surface_rows, charge_rows = [], []
        for eps, res in zip(cfg.eps_values, runs, strict=True):
            charge_rows += [(eps, t, q) for t, q in zip(res.times, res.charge)]
            charge_at = dict(zip(res.times.tolist(), res.charge.tolist()))
            for step in sorted(res.snapshots):
                t = step * cfg.tau
                field = res.snapshots[step]
                assert charge_at[t] == float(wx @ np.abs(field) ** 2 @ wy)
                for i, x in enumerate(mesh_x.nodes):
                    for j, y in enumerate(mesh_y.nodes):
                        surface_rows.append((eps, t, x, y, abs(field[i, j])))
        paths = {os.path.basename(p): p for p in result.paths}
        with open(paths["surfaces.csv"]) as fh:
            header = next(csv.reader(fh))
        assert read_bytes(paths["surfaces.csv"]) == csv_module_bytes(
            header, surface_rows)
        with open(paths["charge.csv"]) as fh:
            header = next(csv.reader(fh))
        assert read_bytes(paths["charge.csv"]) == csv_module_bytes(
            header, charge_rows)

    def test_gaussian2d_surfaces_pinned_one_snapshot_per_block(
            self, tmp_path, monkeypatch):
        # equal 2 x 8 axes, 2 steps: surfaces.csv is csv.writer's rendering
        # of (eps, t, x, y, abs(u)) from the run's own snapshots, and the
        # writer holds one snapshot's rows at a time
        runs, texts = [], []

        def recording(*args, **kwargs):
            runs.append(real_run(*args, **kwargs))
            return runs[-1]

        def block_text(columns, checked=()):
            texts.append(real_text(columns, checked))
            return texts[-1]

        real_run, real_text = experiments.run_trajectory, experiments._csv_text
        monkeypatch.setattr(experiments, "run_trajectory", recording)
        monkeypatch.setattr(experiments, "_csv_text", block_text)
        cfg = from_mapping({"kind": "gaussian2d", "elements": 2, "degree": 8,
                            "elements_y": 2, "degree_y": 8, "modes": 6,
                            "modes_y": 6, "eps_values": [0.0, 0.5],
                            "tau": 0.02, "t_final": 0.04,
                            "snapshot_times": [0.0, 0.02, 0.04],
                            "output_dir": str(tmp_path)})
        result = run_experiment(cfg, workers=1)
        nodes = build_mesh(cfg.x_left, cfg.x_right, cfg.elements,
                           cfg.degree).nodes
        rows = [(eps, step * cfg.tau, x, y, abs(field[i, j]))
                for eps, res in zip(cfg.eps_values, runs)
                for step, field in sorted(res.snapshots.items())
                for i, x in enumerate(nodes) for j, y in enumerate(nodes)]
        path = [p for p in result.paths if p.endswith("surfaces.csv")][0]
        with open(path) as fh:
            header = next(csv.reader(fh))
        assert read_bytes(path) == csv_module_bytes(header, rows)
        # the header, then one block per snapshot (the charge.csv texts
        # follow)
        n_snaps = len(cfg.eps_values) * len(cfg.snapshot_times)
        blocks = [t.count("\r\n") for t in texts[1:1 + n_snaps]]
        assert blocks == [nodes.size ** 2] * n_snaps

    def test_convergence_table_and_order(self, tmp_path):
        cfg = from_mapping({"kind": "convergence", "elements": 2, "degree": 6,
                            "modes": 20, "trajectories": 2,
                            "tau_ladder": [0.025, 0.0125], "tau_ref": 0.00625,
                            "tau": 0.00625, "t_final": 0.1,
                            "output_dir": str(tmp_path)})
        result = run_experiment(cfg, workers=1)
        table = [p for p in result.paths if p.endswith("table.csv")][0]
        body = np.genfromtxt(table, delimiter=",", skip_header=1,
                             usecols=(0, 1))
        assert body.shape == (2, 2)
        assert body[0, 1] > body[1, 1] > 0  # errors decrease down the ladder
        assert "global_order" in result.manifest
        assert "write" in result.manifest["stage_seconds"]

    def test_convergence_draws_each_fine_increment_once(self, tmp_path,
                                                        monkeypatch):
        # the reference run and every ladder level share one set of draws:
        # each (trajectory, chunk) is drawn and projected exactly once
        draws, projections = [], []
        real_draw = TrajectoryNoise.draw_chunk
        real_project = TrajectoryNoise.values_from_modes

        def counting(self, chunk):
            draws.append((self.trajectory, chunk))
            return real_draw(self, chunk)

        def projecting(self, xi):
            projections.append(self.trajectory)
            return real_project(self, xi)

        monkeypatch.setattr(TrajectoryNoise, "draw_chunk", counting)
        monkeypatch.setattr(TrajectoryNoise, "values_from_modes", projecting)
        # 2048 modes make chunks of 4 steps: 4 chunks of the 16 fine steps
        cfg = from_mapping({"kind": "convergence", "elements": 2, "degree": 6,
                            "modes": 2048, "trajectories": 2,
                            "tau_ladder": [2.0 ** -4, 2.0 ** -5],
                            "tau_ref": 2.0 ** -6, "tau": 2.0 ** -6,
                            "t_final": 0.25, "output_dir": str(tmp_path)})
        assert CHUNK_NORMALS // cfg.modes == 4
        run_experiment(cfg, workers=1)
        assert sorted(draws) == [(p, c) for p in range(2) for c in range(4)]
        assert sorted(projections) == [p for p in range(2) for _ in range(4)]

    def test_convergence_blocks_do_not_depend_on_workers(self, tmp_path):
        # 17 trajectories make two blocks, of 16 and 1; a block is cut by
        # trajectory index, so one or two workers write the same table
        assert experiments.CONVERGENCE_BLOCK == 16
        tables = []
        for workers in (1, 2):
            cfg = from_mapping({"kind": "convergence", "elements": 2,
                                "degree": 4, "modes": 8, "trajectories": 17,
                                "tau_ladder": [0.05, 0.025],
                                "tau_ref": 0.0125, "tau": 0.0125,
                                "t_final": 0.1,
                                "output_dir": str(tmp_path / str(workers))})
            result = run_experiment(cfg, workers=workers)
            tables += [p for p in result.paths if p.endswith("table.csv")]
            assert result.manifest["per_trajectory_seeds"] == [
                [0, p] for p in range(17)]
        assert read_bytes(tables[0]) == read_bytes(tables[1])

    def test_convergence_job_matches_one_block_per_trajectory(self):
        # a block's rows are the errors its trajectories get one by one;
        # the states agree bitwise, but a block weighs its errors with one
        # matrix-vector product, which may round the last bit differently
        cfg = from_mapping({"kind": "convergence", "elements": 2,
                            "degree": 5, "modes": 10, "eps": 0.3,
                            "tau_ladder": [0.05, 0.025], "tau_ref": 0.0125,
                            "tau": 0.0125, "t_final": 0.1})
        ctx = experiments._convergence_ctx(cfg)
        block = experiments._convergence_job(ctx, range(3, 6))
        assert block.shape == (3, 2)
        for j, p in enumerate(range(3, 6)):
            np.testing.assert_allclose(
                block[j], experiments._convergence_job(ctx, range(p, p + 1))[0],
                rtol=1e-14, atol=0)

    @pytest.mark.parametrize("dimension", [1, 2])
    def test_efficiency_times_all_schemes(self, tmp_path, dimension):
        cfg = from_mapping({"kind": "efficiency", "dimension": dimension,
                            "x_left": -5.0, "x_right": 5.0, "y_left": -4.0,
                            "y_right": 4.0, "elements": 2, "degree": 6,
                            "elements_y": 2, "degree_y": 5, "modes": 10,
                            "modes_y": 10, "uniform_points": 11, "tau": 0.02,
                            "t_final": 0.06, "repeats": 3,
                            "output_dir": str(tmp_path)})
        result = run_experiment(cfg, workers=1)
        medians = result.data
        assert set(medians) == {"odds", "smm", "fdscn"}
        assert all(v > 0 for v in medians.values())
        timings = [p for p in result.paths if p.endswith("timings.csv")][0]
        with open(timings) as fh:
            rows = list(csv.reader(fh))[1:]
        # points per axis: the x mesh's nodes for odds, the uniform grid's
        # points for the reference schemes
        x_nodes = build_mesh(cfg.x_left, cfg.x_right, cfg.elements,
                             cfg.degree).n_nodes
        assert [row[:5] for row in rows] == [
            [name, str(dimension), str(points), "3", "3"]
            for name, points in (("odds", x_nodes), ("smm", 11),
                                 ("fdscn", 11))]
        # each scheme draws one noise trajectory per repeat
        assert result.manifest["per_trajectory_seeds"] == [[0, 0], [0, 1],
                                                           [0, 2]]
        assert "write" in result.manifest["stage_seconds"]
        # each of SMM and FDSCN takes at least one fixed-point iteration
        # (one solve) per step
        iterations = result.manifest["fixed_point_iterations"]
        assert set(iterations) == {"smm", "fdscn"}
        assert all(mean >= 1 for mean in iterations.values())

    def test_efficiency_iterations_are_solves_per_step(self, tmp_path,
                                                       monkeypatch):
        # the manifest's mean is the number of solves each reference scheme
        # made, over its repeats' steps (3 repeats of 3 steps)
        solves = []
        real_solve = LUSolver.solve
        monkeypatch.setattr(LUSolver, "solve", lambda self, *a: (
            solves.append(1) or real_solve(self, *a)))
        made = {}
        real_run = experiments.run_uniform_trajectory

        def counting_run(method, u0, n_steps, noise=None):
            before = len(solves)
            out = real_run(method, u0, n_steps, noise=noise)
            name = type(method).__name__[:-2].lower()
            made[name] = made.get(name, 0) + len(solves) - before
            return out

        monkeypatch.setattr(experiments, "run_uniform_trajectory",
                            counting_run)
        cfg = from_mapping({"kind": "efficiency", "x_left": -5.0,
                            "x_right": 5.0, "elements": 2, "degree": 6,
                            "modes": 10, "uniform_points": 11, "tau": 0.02,
                            "t_final": 0.06, "repeats": 3, "eps": 0.3,
                            "output_dir": str(tmp_path)})
        result = run_experiment(cfg, workers=1)
        assert result.manifest["fixed_point_iterations"] == {
            name: count / 9 for name, count in made.items()}
        assert set(made) == {"smm", "fdscn"}

    @pytest.mark.parametrize("dimension", [1, 2])
    def test_efficiency_schemes_on_one_grid_share_its_noise(
            self, tmp_path, monkeypatch, dimension):
        # SMM and FDSCN step the same uniform grid: one noise model serves
        # both, and each repeat hands them equal increments
        model_cls = NoiseModel1D if dimension == 1 else NoiseModel2D
        built = []
        real_build = model_cls.build

        def counting_build(*args, **kwargs):
            built.append(real_build(*args, **kwargs))
            return built[-1]

        drawn = {}
        real_run = experiments.run_uniform_trajectory

        def recording_run(method, u0, n_steps, noise=None):
            drawn.setdefault(type(method).__name__[:-2], []).append(
                np.array([noise.grid_increments(k, method.tau)
                          for k in range(n_steps)]))
            return real_run(method, u0, n_steps, noise=noise)

        monkeypatch.setattr(model_cls, "build", counting_build)
        monkeypatch.setattr(experiments, "run_uniform_trajectory",
                            recording_run)
        cfg = from_mapping({"kind": "efficiency", "dimension": dimension,
                            "x_left": -5.0, "x_right": 5.0, "y_left": -4.0,
                            "y_right": 4.0, "elements": 2, "degree": 6,
                            "elements_y": 2, "degree_y": 5, "modes": 10,
                            "modes_y": 10, "uniform_points": 11, "tau": 0.02,
                            "t_final": 0.06, "repeats": 3, "eps": 0.5,
                            "output_dir": str(tmp_path)})
        result = run_experiment(cfg, workers=1)
        assert len(built) == 2          # the odds mesh and the uniform grid
        assert set(drawn) == {"SMM", "FDSCN"}
        for smm, fdscn in zip(drawn["SMM"], drawn["FDSCN"], strict=True):
            assert smm.shape == (3,) + (11,) * dimension
            np.testing.assert_array_equal(smm, fdscn)
        assert len(drawn["SMM"]) == 3
        assert not np.array_equal(*drawn["SMM"][:2])    # repeats differ
        assert result.manifest["n_steps"] == 3

    @pytest.mark.parametrize("dimension", [1, 2])
    def test_every_efficiency_repeat_assembles_its_own_operators(
            self, tmp_path, monkeypatch, splu_sizes, dimension):
        # odds repeats step fresh copies of the mesh, so none reuses the
        # operators and factor of the one before, as SMM and FDSCN build
        # theirs in every repeat; the equal 2D axes are one mesh
        import odds_nls.mesh
        orders = []
        real_assemble = odds_nls.mesh.assemble_global

        def counted(mesh, order=2):
            orders.append(order)
            return real_assemble(mesh, order)

        monkeypatch.setattr(odds_nls.mesh, "assemble_global", counted)
        cfg = from_mapping({"kind": "efficiency", "dimension": dimension,
                            "x_left": -5.0, "x_right": 5.0, "y_left": -5.0,
                            "y_right": 5.0, "elements": 2, "degree": 6,
                            "elements_y": 2, "degree_y": 6, "modes": 10,
                            "modes_y": 10, "uniform_points": 11, "tau": 0.02,
                            "t_final": 0.04, "repeats": 3,
                            "output_dir": str(tmp_path)})
        run_experiment(cfg, workers=1)
        assert orders == [2] * 3
        # odds solves on the mesh's 10 interior nodes; the 2D reference
        # schemes factor the grid's 9 x 9 by SuperLU too
        assert splu_sizes.count(10) == 3

    @pytest.mark.parametrize("kind, changes, factors", [
        ("convergence", {"trajectories": 20}, 3),
        ("gaussian2d", {"eps_values": (0.0, 0.5, 1.0)}, 1),
        ("soliton1d", {"trajectories": 4}, 1),
    ], ids=["two_blocks_three_taus", "three_eps", "four_trajectories"])
    def test_a_run_factors_each_step_size_once(self, tmp_path, splu_sizes,
                                               kind, changes, factors):
        # every run on the run's mesh object and tau finds its system and
        # factor in the mesh's store
        run_experiment(dataclasses.replace(TINY[kind](tmp_path), **changes),
                       workers=1)
        assert len(splu_sizes) == factors

    def test_equal_2d_axes_are_one_mesh_object(self):
        base = {"kind": "gaussian2d", "x_left": 0.0, "x_right": 1.0,
                "y_left": 0.0, "y_right": 1.0, "elements": 2, "degree": 5,
                "elements_y": 2, "degree_y": 5}
        mesh_x, mesh_y = experiments._mesh_axes(from_mapping(base), 2)
        assert mesh_y is mesh_x
        for change in ({"y_left": -0.0}, {"y_right": 2.0},
                       {"elements_y": 3}, {"degree_y": 6}):
            mesh_x, mesh_y = experiments._mesh_axes(
                from_mapping({**base, **change}), 2)
            assert mesh_y is not mesh_x, change

    def test_gaussian2d_bytes_do_not_depend_on_sharing_the_axes(
            self, tmp_path, monkeypatch):
        cfg = from_mapping({"kind": "gaussian2d", "elements": 2, "degree": 6,
                            "elements_y": 2, "degree_y": 6, "modes": 6,
                            "modes_y": 6, "eps_values": [0.0, 1.0],
                            "tau": 0.02, "t_final": 0.04,
                            "snapshot_times": [0.0, 0.04],
                            "output_dir": str(tmp_path / "shared")})
        shared = run_experiment(cfg, workers=1)
        real_axes = experiments._mesh_axes

        def apart(config, dimension):
            axes = real_axes(config, dimension)
            assert axes[1] is axes[0]
            return [axes[0], dataclasses.replace(axes[0])]

        monkeypatch.setattr(experiments, "_mesh_axes", apart)
        cfg = dataclasses.replace(cfg, output_dir=str(tmp_path / "apart"))
        separate = run_experiment(cfg, workers=1)
        for a, b in zip(shared.paths, separate.paths, strict=True):
            if a.endswith(".csv"):
                assert read_bytes(a) == read_bytes(b), os.path.basename(a)

    def test_gaussian2d_manifest_lists_the_one_trajectory_drawn(self,
                                                                tmp_path):
        # every eps of the sweep draws trajectory 0, and a config asking
        # for more trajectories is rejected before any output
        cfg = tiny_gaussian2d(tmp_path, eps_values=[0.0, 1.0], seed=4)
        result = run_experiment(cfg, workers=1)
        assert result.manifest["per_trajectory_seeds"] == [[4, 0]]
        with pytest.raises(ConfigError, match="trajectories must be 1"):
            run_experiment(dataclasses.replace(
                cfg, trajectories=2, output_dir=str(tmp_path / "two")))
        assert not (tmp_path / "two").exists()

    def test_gaussian2d_without_a_sweep_runs_at_eps(self, tmp_path):
        # the builtin sweeps no eps_values, so --set eps=... sets the one
        # noise size the run takes
        result = run_experiment(tiny_gaussian2d(tmp_path, eps=0.5))
        assert result.manifest["eps_sweep"] == [0.5]
        path = [p for p in result.paths if p.endswith("charge.csv")][0]
        with open(path) as fh:
            keys = {row[0] for row in list(csv.reader(fh))[1:]}
        assert keys == {"0.5"}


class TestCLI:
    def test_run_builtin_name_with_overrides(self, tmp_path, capsys):
        code = cli.main(["run", "soliton1d", "--output-dir", str(tmp_path),
                         "--set", "x_left=-10", "--set", "x_right=10",
                         "--set", "elements=3", "--set", "degree=8",
                         "--set", "modes=30", "--set", "tau=0.02",
                         "--set", "t_final=0.06",
                         "--set", "snapshot_times=[0.0]",
                         "--set", "trajectories=1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "manifest.json" in out
        assert (tmp_path / "soliton1d" / "manifest.json").exists()

    def test_run_config_file(self, tmp_path, capsys):
        path = tmp_path / "cfg.yaml"
        path.write_text("kind: soliton1d\nx_left: -10\nx_right: 10\n"
                        "elements: 3\ndegree: 8\nmodes: 30\ntau: 0.02\n"
                        "t_final: 0.06\nsnapshot_times: [0.0]\n"
                        f"output_dir: {tmp_path / 'out'}\n")
        assert cli.main(["run", str(path)]) == 0
        assert (tmp_path / "out" / "soliton1d" / "profiles.csv").exists()

    def test_env_var_sets_output_root(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("ODDS_NLS_OUTPUT", str(tmp_path / "via_env"))
        code = cli.main(["run", "soliton1d",
                         "--set", "x_left=-10", "--set", "x_right=10",
                         "--set", "elements=3", "--set", "degree=8",
                         "--set", "modes=30", "--set", "tau=0.02",
                         "--set", "t_final=0.06",
                         "--set", "snapshot_times=[]",
                         "--set", "trajectories=1"])
        assert code == 0
        assert (tmp_path / "via_env" / "soliton1d").is_dir()

    def test_off_grid_override_exits_2_naming_the_time(self, tmp_path,
                                                      capsys):
        code = cli.main(["run", "soliton1d", "--set", "tau=0.01",
                         "--output-dir", str(tmp_path)])
        assert code == 2
        assert ("snapshot time 4.995 is not a whole number of steps of "
                "tau 0.01") in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_invalid_builtin_without_overrides_exits_2(self, tmp_path,
                                                       monkeypatch, capsys):
        # a builtin run with no --set is validated by run_experiment
        off_grid = dataclasses.replace(builtin_configs()["soliton1d"],
                                       tau=0.01)
        monkeypatch.setattr(cli, "builtin_configs",
                            lambda: {"soliton1d": off_grid})
        code = cli.main(["run", "soliton1d", "--output-dir", str(tmp_path)])
        assert code == 2
        assert ("config error: snapshot time 4.995 is not a whole number"
                in capsys.readouterr().err)
        assert list(tmp_path.iterdir()) == []

    def test_unknown_builtin_is_usage_error(self, capsys):
        assert cli.main(["run", "not-an-experiment"]) == 2
        assert "config error" in capsys.readouterr().err

    def test_bad_override_is_usage_error(self, capsys):
        assert cli.main(["run", "soliton1d", "--set", "banana=1"]) == 2

    def test_nonpositive_workers_rejected(self, capsys):
        assert cli.main(["run", "soliton1d", "--workers", "0"]) == 2

    def test_numerical_failure_maps_to_exit_3(self, monkeypatch, capsys):
        def explode(config, workers):
            raise StepFailure("solver stalled", step=4, time=0.06,
                              residual=1.0)

        monkeypatch.setattr(cli, "run_experiment", explode)
        assert cli.main(["run", "soliton1d"]) == 3
        assert "numerical failure" in capsys.readouterr().err

    def test_reference_scheme_failure_exits_3_with_one_line(self, tmp_path,
                                                           capsys):
        # SMM's fixed point stalls at this step size and cubic strength
        code = cli.main(["run", "efficiency", "--output-dir", str(tmp_path),
                         "--set", "uniform_points=121", "--set", "tau=0.1",
                         "--set", "lam=16", "--set", "t_final=0.1"])
        err = capsys.readouterr().err
        assert code == 3
        assert err.count("\n") == 1
        assert "numerical failure" in err
        assert "SMM" in err and "step 0" in err and "t = 0" in err

    def test_partial_failures_in_manifest_map_to_exit_3(self, monkeypatch,
                                                        capsys):
        def partial(config, workers):
            return RunResult(manifest={"failures": [{"trajectory": 1}]},
                             paths=["x/manifest.json"])

        monkeypatch.setattr(cli, "run_experiment", partial)
        assert cli.main(["run", "soliton1d"]) == 3
        captured = capsys.readouterr()
        # artifact paths are still reported so the partial output is findable
        assert "x/manifest.json" in captured.out

    def test_uncreatable_output_root_exits_2_before_the_run(
            self, tmp_path, monkeypatch, capsys):
        # a regular file as the parent: makedirs raised NotADirectoryError
        # only after the whole run, and the CLI died with a traceback
        def never(config, workers):
            raise AssertionError("the runner ran")

        monkeypatch.setitem(experiments.RUNNERS, "soliton1d", never)
        (tmp_path / "file").write_text("")
        root = tmp_path / "file" / "x"
        code = cli.main(["run", "soliton1d", "--set", "t_final=0.015",
                         "--set", "snapshot_times=[0]",
                         "--output-dir", str(root)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("config error: cannot create output directory "
                              f"{root / 'soliton1d'}: ")
        assert err.count("\n") == 1

    def test_run_efficiency2d_builtin(self, tmp_path, capsys):
        code = cli.main(["run", "efficiency2d", "--set", "t_final=0.05",
                         "--output-dir", str(tmp_path)])
        assert code == 0
        with open(tmp_path / "efficiency2d" / "timings.csv") as fh:
            rows = list(csv.reader(fh))[1:]
        assert [row[:5] for row in rows] == [
            [name, "2", points, "2", "3"]
            for name, points in (("odds", "126"), ("smm", "129"),
                                 ("fdscn", "129"))]
        manifest = json.loads(
            (tmp_path / "efficiency2d" / "manifest.json").read_text())
        expected = dataclasses.replace(
            apply_overrides(builtin_efficiency_2d(), ["t_final=0.05"]),
            output_dir=str(tmp_path))
        assert manifest["config_sha256"] == config_hash(expected)

    def test_only_run_runs_an_experiment(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--help"])
        assert exc.value.code == 0
        assert ("{run,list-experiments,print-config-schema}"
                in capsys.readouterr().out)
        for argv in (["convergence"], ["efficiency", "--dimension", "2"],
                     ["run", "efficiency", "--dimension", "2"]):
            with pytest.raises(SystemExit) as exc:
                cli.main(argv)
            assert exc.value.code == 2

    def test_list_experiments(self, capsys):
        assert cli.main(["list-experiments"]) == 0
        out = capsys.readouterr().out
        assert out.split() == list(builtin_configs())

    def test_print_config_schema(self, capsys):
        assert cli.main(["print-config-schema"]) == 0
        assert "tau" in capsys.readouterr().out
