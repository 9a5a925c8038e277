import dataclasses
import math
import re
import typing

import pytest

from odds_nls import cli
from odds_nls.config import (KINDS, ConfigError, ExperimentConfig,
                             apply_overrides, builtin_configs,
                             builtin_efficiency_2d, config_hash,
                             config_schema, from_mapping, load_config,
                             whole_steps)


def test_builtins_all_validate():
    # and each is the whole number of steps it always took: soliton1d and
    # efficiency take 667 steps of 0.015, which end at 10.005
    steps = {"soliton1d": 667, "collision1d": 10000, "gaussian2d": 100,
             "convergence": 256, "efficiency": 667, "efficiency2d": 40}
    for name, cfg in builtin_configs().items():
        assert cfg.kind in KINDS
        cfg.validate()
        assert whole_steps(cfg.t_final, cfg.tau) == steps[name]


def test_builtin_names():
    assert set(builtin_configs()) == {"soliton1d", "collision1d", "gaussian2d",
                                      "convergence", "efficiency",
                                      "efficiency2d"}


class TestValidation:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(kind="banana").validate()

    def test_rejects_empty_domain(self):
        cfg = dataclasses.replace(builtin_configs()["soliton1d"],
                                  x_left=2.0, x_right=1.0)
        with pytest.raises(ConfigError):
            cfg.validate()

    def test_rejects_low_degree(self):
        cfg = dataclasses.replace(builtin_configs()["soliton1d"], degree=1)
        with pytest.raises(ConfigError):
            cfg.validate()

    def test_rejects_snapshot_outside_horizon(self):
        cfg = dataclasses.replace(builtin_configs()["soliton1d"],
                                  snapshot_times=(0.0, 99.0))
        with pytest.raises(ConfigError):
            cfg.validate()

    def test_rejects_misaligned_tau_ladder(self):
        base = builtin_configs()["convergence"]
        cfg = dataclasses.replace(base, tau_ladder=(0.1, 0.03))
        with pytest.raises(ConfigError):
            cfg.validate()

    @pytest.mark.parametrize("changes", [
        {"tau_ladder": (0.1,), "tau_ref": 0.003125},
        {"tau_ref": 0.3 / 256, "tau_ladder": (0.3 / 16,)},
    ], ids=["ladder_tau", "tau_ref"])
    def test_rejects_convergence_horizon_off_the_step_grid(self, changes):
        # t_final = 0.25 is 2.5 steps of 0.1, so that level would end at
        # 0.2; 0.25 / (0.3 / 256) is not whole either
        cfg = dataclasses.replace(builtin_configs()["convergence"], **changes)
        with pytest.raises(ConfigError, match="whole number of steps"):
            cfg.validate()

    @pytest.mark.parametrize("kind", ["soliton1d", "collision1d",
                                      "gaussian2d", "efficiency"])
    def test_rejects_t_final_off_the_step_grid(self, kind):
        base = builtin_configs()[kind]
        cfg = dataclasses.replace(base, t_final=base.t_final + base.tau / 2,
                                  snapshot_times=())
        with pytest.raises(ConfigError, match=re.escape(
                f"t_final {cfg.t_final:g} is not a whole number of steps "
                f"of tau {base.tau:g}")):
            cfg.validate()

    @pytest.mark.parametrize("kind", ["soliton1d", "collision1d",
                                      "gaussian2d", "convergence",
                                      "efficiency"])
    def test_rejects_a_horizon_shorter_than_one_step(self, kind):
        # zero whole steps of the first tau the run takes, to within 1e-9
        base = builtin_configs()[kind]
        tau = base.tau_ref if kind == "convergence" else base.tau
        cfg = dataclasses.replace(base, t_final=1e-10 * tau,
                                  snapshot_times=(0.0,))
        assert whole_steps(cfg.t_final, tau) == 0
        with pytest.raises(ConfigError, match=re.escape(
                f"t_final {cfg.t_final:g} is shorter than one step of tau "
                f"{tau:g}")):
            cfg.validate()

    @pytest.mark.parametrize("kind", ["soliton1d", "collision1d",
                                      "gaussian2d", "efficiency"])
    def test_rejects_a_snapshot_time_off_the_step_grid(self, kind):
        base = builtin_configs()[kind]
        cfg = dataclasses.replace(base, snapshot_times=(0.0, 2.5 * base.tau))
        with pytest.raises(ConfigError, match=re.escape(
                f"snapshot time {2.5 * base.tau:g} is not a whole number of "
                f"steps of tau {base.tau:g}")):
            cfg.validate()

    def test_convergence_snapshot_must_lie_on_every_ladder_grid(self):
        # one reference step is on the tau_ref grid but not on the ladder's
        base = builtin_configs()["convergence"]
        cfg = dataclasses.replace(base, snapshot_times=(base.tau_ref,))
        with pytest.raises(ConfigError, match=re.escape(
                f"snapshot time {base.tau_ref:g} is not a whole number of "
                f"steps of tau {base.tau_ladder[0]:g}")):
            cfg.validate()

    @pytest.mark.parametrize("ladder", [
        (), (0.0625,), (0.0625, 0.0625), (0.0625, 0.0625, 0.03125)],
        ids=["empty", "one", "one_repeated", "repeated"])
    def test_rejects_a_ladder_of_fewer_than_two_distinct_taus(self, ladder):
        cfg = dataclasses.replace(builtin_configs()["convergence"],
                                  tau_ladder=ladder)
        with pytest.raises(ConfigError, match="^tau_ladder must hold at "
                                              "least two distinct taus"):
            cfg.validate()

    def test_rejects_repeated_eps_values(self):
        cfg = dataclasses.replace(builtin_configs()["gaussian2d"],
                                  eps_values=(0.5, 1.0, 0.5))
        with pytest.raises(ConfigError, match="^eps_values must not repeat"):
            cfg.validate()

    @pytest.mark.parametrize("kind, key, reader", [
        ("soliton1d", "eps_values", "gaussian2d"),
        ("convergence", "eps_values", "gaussian2d"),
        ("gaussian2d", "tau_ladder", "convergence"),
        ("efficiency", "tau_ladder", "convergence")])
    def test_rejects_a_list_key_its_kind_never_reads(self, kind, key, reader,
                                                     tmp_path, capsys):
        # soliton1d ran at its one eps and wrote no sweep, with exit 0
        message = f"{key} is read by {reader} only, not by {kind}"
        with pytest.raises(ConfigError, match=f"^{message}$"):
            from_mapping({"kind": kind, key: [0.5, 0.25]})
        code = cli.main(["run", kind, "--set", f"{key}=[0.5, 0.25]",
                         "--output-dir", str(tmp_path)])
        assert code == 2
        assert f"config error: {message}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv, message", [
        (["run", "convergence", "--set", "trajectories=2",
          "--set", "tau_ladder=[0.0625]"], "tau_ladder must hold"),
        (["run", "convergence", "--set", "trajectories=2",
          "--set", "tau_ladder=[0.0625, 0.0625, 0.03125]"],
         "tau_ladder must hold"),
        (["run", "gaussian2d", "--set", "eps_values=[0.5, 0.5]"],
         "eps_values must not repeat"),
        (["run", "gaussian2d", "--set", "trajectories=4"],
         "gaussian2d runs trajectory 0 for each noise size of its sweep"),
        (["run", "efficiency", "--set", "t_final=1e-12",
          "--set", "snapshot_times=[0]"],
         "t_final 1e-12 is shorter than one step of tau 0.015"),
        (["run", "soliton1d", "--set", "t_final=1e-12",
          "--set", "snapshot_times=[0]"],
         "t_final 1e-12 is shorter than one step of tau 0.015"),
        (["run", "efficiency", "--set", "uniform_points=3",
          "--set", "t_final=0.03"], "efficiency requires uniform_points >= 5"),
    ], ids=["one_level_ladder", "repeated_ladder_tau", "repeated_eps",
            "gaussian2d_trajectories", "zero_step_efficiency",
            "zero_step_soliton1d", "three_uniform_points"])
    def test_cli_exits_2_before_any_run(self, argv, message, tmp_path,
                                        capsys):
        code = cli.main(argv + ["--output-dir", str(tmp_path)])
        assert code == 2
        assert f"config error: {message}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf],
                             ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("name", [
        "x_left", "x_right", "y_left", "y_right", "lam", "eps", "tau",
        "t_final", "tau_ref", "snapshot_times", "tau_ladder", "eps_values"])
    def test_rejects_non_finite_floats(self, name, value):
        # every float field, and each entry of the float lists: a tau=nan
        # run used to pass validation and fail later, inside round()
        kind = "convergence" if name.startswith("tau_") else "gaussian2d"
        base = builtin_configs()[kind]
        old = getattr(base, name)
        new = (*old[:-1], value) if isinstance(old, tuple) else value
        with pytest.raises(ConfigError, match=f"^{name} must be finite"):
            dataclasses.replace(base, **{name: new}).validate()

    def test_rejects_bad_efficiency_fields(self):
        base = builtin_configs()["efficiency"]
        with pytest.raises(ConfigError):
            dataclasses.replace(base, dimension=3).validate()
        with pytest.raises(ConfigError):
            dataclasses.replace(base, repeats=1).validate()

    @pytest.mark.parametrize("dimension", [1, 2])
    def test_efficiency_needs_five_uniform_points(self, dimension):
        # the reference schemes solve on the grid's interior, and LAPACK's
        # tridiagonal LU takes no fewer than 3 unknowns
        base = dataclasses.replace(builtin_configs()["efficiency"],
                                   dimension=dimension)
        for points in (3, 4):
            with pytest.raises(ConfigError, match="^efficiency requires "
                                                  "uniform_points >= 5$"):
                dataclasses.replace(base, uniform_points=points).validate()
        dataclasses.replace(base, uniform_points=5).validate()

    def test_rejects_empty_y_interval_in_2d_runs(self):
        for cfg in (builtin_configs()["gaussian2d"], builtin_efficiency_2d()):
            with pytest.raises(ConfigError, match="y_right"):
                dataclasses.replace(cfg, y_right=cfg.y_left - 10.0).validate()
        # a 1D efficiency run never reads the y interval
        base = builtin_configs()["efficiency"]
        dataclasses.replace(base, y_right=base.y_left - 10.0).validate()

    def test_cli_exits_2_on_empty_y_interval_in_2d_efficiency(self, tmp_path,
                                                               capsys):
        code = cli.main(["run", "efficiency2d", "--set", "y_right=-20",
                         "--output-dir", str(tmp_path)])
        assert code == 2
        assert "y_right must exceed y_left" in capsys.readouterr().err


class TestMappingAndFiles:
    def test_from_mapping_merges_onto_builtin(self):
        cfg = from_mapping({"kind": "soliton1d", "tau": 0.005,
                            "trajectories": 4})
        assert cfg.tau == 0.005
        assert cfg.trajectories == 4
        assert cfg.elements == 10  # untouched builtin default

    def test_from_mapping_rejects_unknown_keys(self):
        with pytest.raises(ConfigError):
            from_mapping({"kind": "soliton1d", "taus": 0.02})

    def test_from_mapping_takes_a_kind_not_a_builtin_name(self):
        # efficiency2d names a builtin, not a kind: a YAML file must say
        # kind: efficiency and dimension: 2, not start from that builtin
        with pytest.raises(ConfigError,
                           match="^unknown experiment kind 'efficiency2d'"):
            from_mapping({"kind": "efficiency2d"})

    def test_from_mapping_requires_kind(self):
        with pytest.raises(ConfigError):
            from_mapping({"tau": 0.02})

    def test_scalar_snapshot_promoted_to_tuple(self):
        cfg = from_mapping({"kind": "soliton1d", "snapshot_times": 1.5})
        assert cfg.snapshot_times == (1.5,)

    def test_non_integer_rejected_for_int_fields(self):
        with pytest.raises(ConfigError):
            from_mapping({"kind": "soliton1d", "trajectories": 2.5})

    @pytest.mark.parametrize("raw, value", [(".inf", math.inf),
                                            ("-.inf", -math.inf),
                                            (".nan", math.nan)])
    def test_non_finite_value_rejected_for_int_fields(self, raw, value,
                                                       tmp_path, capsys):
        # int() of these raised OverflowError or ValueError, past the
        # ConfigError handling, so the CLI died with a traceback
        message = "^trajectories must be an integer$"
        with pytest.raises(ConfigError, match=message):
            from_mapping({"kind": "soliton1d", "trajectories": value})
        with pytest.raises(ConfigError, match=message):
            apply_overrides(builtin_configs()["soliton1d"],
                            [f"trajectories={raw}"])
        code = cli.main(["run", "soliton1d", "--set", f"trajectories={raw}",
                         "--output-dir", str(tmp_path)])
        assert code == 2
        assert ("config error: trajectories must be an integer"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("key, raw, value", [
        ("eps", "true", True), ("t_final", "yes", True),
        ("snapshot_times", "[0.02, true]", [0.02, True]),
        ("eps_values", "no", False)])
    def test_boolean_rejected_for_number_fields(self, key, raw, value):
        # float() takes a YAML true or yes as 1.0, so --set eps=true ran
        # with eps = 1
        message = f"^{key} must be a (number|list of numbers)$"
        with pytest.raises(ConfigError, match=message):
            from_mapping({"kind": "gaussian2d", key: value})
        with pytest.raises(ConfigError, match=message):
            apply_overrides(builtin_configs()["gaussian2d"], [f"{key}={raw}"])

    def test_negative_seed_rejected(self, tmp_path, capsys):
        # numpy's SeedSequence raised ValueError at the first draw, so the
        # CLI died mid-run with a traceback and exit 1
        message = "^seed must be a non-negative integer$"
        with pytest.raises(ConfigError, match=message):
            from_mapping({"kind": "soliton1d", "seed": -1})
        with pytest.raises(ConfigError, match=message):
            apply_overrides(builtin_configs()["soliton1d"], ["seed=-1"])
        code = cli.main(["run", "soliton1d", "--set", "seed=-1",
                         "--output-dir", str(tmp_path)])
        assert code == 2
        assert ("config error: seed must be a non-negative integer"
                in capsys.readouterr().err)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("raw", ["", "''", "[a, b]", "7"],
                             ids=["null", "empty", "list", "int"])
    def test_string_key_takes_only_a_non_empty_string(self, raw, tmp_path,
                                                      capsys):
        # str() made the output root a directory named None, ['a', 'b'] or
        # 7, or for '' the working directory
        message = "^output_dir must be a non-empty string"
        path = tmp_path / "run.yaml"
        path.write_text(f"kind: soliton1d\noutput_dir: {raw}\n")
        with pytest.raises(ConfigError, match=message):
            load_config(str(path))
        with pytest.raises(ConfigError, match=message):
            apply_overrides(builtin_configs()["soliton1d"],
                            [f"output_dir={raw}"])
        for argv in (["run", str(path)],
                     ["run", "soliton1d", "--set", f"output_dir={raw}"]):
            assert cli.main(argv + ["--output-dir", str(tmp_path)]) == 2
            assert ("config error: output_dir must be a non-empty string"
                    in capsys.readouterr().err)

    def test_load_config_roundtrip(self, tmp_path):
        path = tmp_path / "run.yaml"
        path.write_text("kind: collision1d\ntau: 0.012\n"
                        "snapshot_times: [0.0, 1.2]\n")
        cfg = load_config(str(path))
        assert cfg.kind == "collision1d"
        assert cfg.tau == 0.012
        assert cfg.snapshot_times == (0.0, 1.2)

    def test_directory_named_like_a_builtin_does_not_shadow_it(
            self, tmp_path, monkeypatch):
        # a run with output root . leaves ./soliton1d/, and the next run of
        # the builtin must not take that directory for a config file
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("ODDS_NLS_OUTPUT", raising=False)
        (tmp_path / "soliton1d").mkdir()
        assert cli.main(["run", "soliton1d", "--output-dir", ".",
                         "--set", "t_final=0.15",
                         "--set", "snapshot_times=[0.0]"]) == 0
        assert (tmp_path / "soliton1d" / "manifest.json").is_file()

    def test_load_config_missing_file(self):
        with pytest.raises(ConfigError):
            load_config("/nonexistent/nowhere.yaml")

    def test_load_config_bad_yaml(self, tmp_path):
        path = tmp_path / "broken.yaml"
        path.write_text("kind: [unclosed\n")
        with pytest.raises(ConfigError):
            load_config(str(path))


class TestOverrides:
    def test_key_value_pairs_parse_into_fields(self):
        base = builtin_configs()["soliton1d"]
        cfg = apply_overrides(base, ["tau=0.005", "seed=7",
                                     "snapshot_times=[0.0, 2.0]"])
        assert cfg.tau == 0.005
        assert cfg.seed == 7
        assert cfg.snapshot_times == (0.0, 2.0)

    def test_kind_is_not_overridable(self):
        base = builtin_configs()["soliton1d"]
        with pytest.raises(ConfigError):
            apply_overrides(base, ["kind=collision1d"])

    def test_malformed_pair_rejected(self):
        base = builtin_configs()["soliton1d"]
        with pytest.raises(ConfigError):
            apply_overrides(base, ["tau"])


class TestHash:
    def test_stable_and_sensitive(self):
        a = builtin_configs()["soliton1d"]
        b = builtin_configs()["soliton1d"]
        assert config_hash(a) == config_hash(b)
        c = dataclasses.replace(a, seed=1)
        assert config_hash(a) != config_hash(c)

    def test_hash_is_hex_sha256(self):
        h = config_hash(builtin_configs()["convergence"])
        assert len(h) == 64
        int(h, 16)


def test_schema_text_mentions_every_field():
    text = config_schema()
    for f in dataclasses.fields(ExperimentConfig):
        assert f.name in text


def test_cli_type_hints_resolve():
    hints = typing.get_type_hints(cli._resolve_config)
    assert hints["return"] is ExperimentConfig
