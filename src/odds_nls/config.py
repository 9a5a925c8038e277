"""Experiment configuration: YAML files, builtin defaults, CLI overrides.

Precedence (lowest to highest): builtin defaults for the kind, values from the
config file, then ``--set key=value`` overrides.
"""

import hashlib
import json
import math
from dataclasses import dataclass, field, fields, replace

import yaml

KINDS = ("soliton1d", "collision1d", "gaussian2d", "convergence", "efficiency")


class ConfigError(Exception):
    """Invalid or inconsistent experiment configuration."""


def whole_steps(time: float, tau: float, name: str = "t_final") -> int:
    """time as a whole number of steps of tau; ConfigError naming the time
    and tau when it is more than 1e-9 of a step off the grid."""
    ratio = time / tau
    if abs(ratio - round(ratio)) > 1e-9:
        raise ConfigError(f"{name} {time:g} is not a whole number of steps "
                          f"of tau {tau:g}")
    return round(ratio)


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    # problem
    x_left: float = -1.0
    x_right: float = 1.0
    y_left: float = -1.0
    y_right: float = 1.0
    lam: float = 1.0
    eps: float = 0.0
    eps_values: tuple = ()          # gaussian2d: noise sizes swept in one run
    # mesh
    elements: int = 1               # M (x axis in 2D)
    degree: int = 8                 # J (x axis in 2D)
    elements_y: int = 1
    degree_y: int = 8
    # noise
    modes: int = 500
    modes_y: int = 64               # 2D models sample a modes x modes_y tensor
    seed: int = 0
    # run
    trajectories: int = 1
    tau: float = 0.01
    t_final: float = 1.0
    snapshot_times: tuple = ()
    invariant_stride: int = 1
    output_dir: str = "results"
    # convergence only
    tau_ladder: tuple = ()
    tau_ref: float = 0.0
    # efficiency only
    dimension: int = 1
    repeats: int = 3
    uniform_points: int = 0         # baseline grid points per axis

    def validate(self) -> "ExperimentConfig":
        if self.kind not in KINDS:
            raise ConfigError(f"unknown experiment kind {self.kind!r}; "
                              f"expected one of {', '.join(KINDS)}")
        for f in fields(self):
            if f.name in _TUPLE_FIELDS:
                values = getattr(self, f.name)
            elif f.type is float:
                values = (getattr(self, f.name),)
            else:
                continue
            if not all(map(math.isfinite, values)):
                raise ConfigError(f"{f.name} must be finite, got "
                                  f"{getattr(self, f.name)!r}")
        if self.x_right <= self.x_left:
            raise ConfigError("x_right must exceed x_left")
        two_d = (self.kind == "gaussian2d"
                 or (self.kind == "efficiency" and self.dimension == 2))
        if two_d and self.y_right <= self.y_left:
            raise ConfigError("y_right must exceed y_left")
        for name in ("elements", "degree", "elements_y", "degree_y", "modes",
                     "modes_y", "trajectories", "invariant_stride", "repeats"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be a positive integer")
        if self.degree < 2 or self.degree_y < 2:
            raise ConfigError("element degree must be at least 2")
        if self.tau <= 0 or self.t_final <= 0:
            raise ConfigError("tau and t_final must be positive")
        if self.eps < 0:
            raise ConfigError("eps must be non-negative")
        if self.seed < 0:
            raise ConfigError("seed must be a non-negative integer")
        if any(t < 0 or t > self.t_final + 1e-12 for t in self.snapshot_times):
            raise ConfigError("snapshot_times must lie in [0, t_final]")
        if self.kind == "convergence":
            if self.tau_ref <= 0:
                raise ConfigError("convergence requires positive tau_ref")
            if any(t <= self.tau_ref for t in self.tau_ladder):
                raise ConfigError("every ladder tau must exceed tau_ref")
            for t in self.tau_ladder:
                # coupled paths: each ladder step sums whole reference steps
                whole_steps(t, self.tau_ref, "ladder tau")
        # on the grid of every tau the run takes, snapshot times named first
        for tau in ((self.tau_ref, *self.tau_ladder)
                    if self.kind == "convergence" else (self.tau,)):
            for t in self.snapshot_times:
                whole_steps(t, tau, "snapshot time")
            if whole_steps(self.t_final, tau) < 1:
                raise ConfigError(f"t_final {self.t_final:g} is shorter than "
                                  f"one step of tau {tau:g}")
        # the order fit needs two levels; a repeated one would run twice
        if self.kind == "convergence" and (
                len(set(self.tau_ladder)) < max(2, len(self.tau_ladder))):
            raise ConfigError("tau_ladder must hold at least two distinct "
                              f"taus, got {list(self.tau_ladder)}")
        if self.kind == "efficiency":
            if self.dimension not in (1, 2):
                raise ConfigError("dimension must be 1 or 2")
            # 3 interior unknowns at least: LAPACK's zgttrf takes no fewer
            if self.uniform_points < 5:
                raise ConfigError("efficiency requires uniform_points >= 5")
            if self.repeats < 3:
                raise ConfigError("efficiency requires at least 3 repeats")
        if self.kind == "gaussian2d" and self.trajectories != 1:
            raise ConfigError("gaussian2d runs trajectory 0 for each noise "
                              "size of its sweep; trajectories must be 1, "
                              f"got {self.trajectories}")
        if self.kind == "gaussian2d" and self.eps_values:
            if any(e < 0 for e in self.eps_values):
                raise ConfigError("eps_values must be non-negative")
            if len(set(self.eps_values)) < len(self.eps_values):
                raise ConfigError("eps_values must not repeat a noise size")
        return self

    def to_dict(self) -> dict:
        out = {}
        for f in fields(self):
            v = getattr(self, f.name)
            out[f.name] = list(v) if isinstance(v, tuple) else v
        return out


def config_hash(config: ExperimentConfig) -> str:
    payload = json.dumps(config.to_dict(), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


def builtin_configs() -> dict:
    """Desk-scale defaults for the six builtin experiments, by name.

    A name is its config's kind, but efficiency2d is efficiency in 2D.
    Scheme parameters (mesh, tau, eps) follow the published setups; horizons
    and trajectory counts are shrunk so each run finishes on a laptop. Restore
    the long horizons with e.g. ``--set t_final=150``.
    """
    return {
        "soliton1d": ExperimentConfig(
            kind="soliton1d", x_left=-20.0, x_right=100.0, lam=1.0, eps=0.01,
            elements=10, degree=30, modes=500, trajectories=1,
            tau=0.015, t_final=10.005, snapshot_times=(0.0, 4.995, 10.005),
            invariant_stride=5),
        "collision1d": ExperimentConfig(
            kind="collision1d", x_left=-20.0, x_right=150.0, lam=1.0, eps=0.01,
            elements=5, degree=20, modes=500, trajectories=1,
            tau=0.006, t_final=60.0, snapshot_times=(0.0, 12.0, 60.0),
            invariant_stride=100),
        "gaussian2d": ExperimentConfig(
            kind="gaussian2d", x_left=-10.0, x_right=10.0, y_left=-10.0,
            y_right=10.0, lam=1.0, eps=1.0,
            elements=4, degree=32, elements_y=4, degree_y=32,
            modes=64, modes_y=64, trajectories=1,
            tau=0.01, t_final=1.0, snapshot_times=(0.0, 0.5, 1.0),
            invariant_stride=10),
        "convergence": ExperimentConfig(
            kind="convergence", x_left=-1.0, x_right=1.0, lam=1.0, eps=0.01,
            elements=2, degree=16, modes=500, trajectories=100,
            tau_ladder=tuple(2.0 ** -p for p in range(4, 10)),
            tau_ref=2.0 ** -10, tau=2.0 ** -10, t_final=0.25),
        "efficiency": ExperimentConfig(
            kind="efficiency", x_left=-20.0, x_right=100.0, lam=1.0, eps=0.01,
            elements=20, degree=30, modes=500, uniform_points=601,
            tau=0.015, t_final=10.005, dimension=1, repeats=3),
        # matched-resolution 2D timing setup (Gaussian datum, eps=1)
        "efficiency2d": ExperimentConfig(
            kind="efficiency", x_left=-10.0, x_right=10.0, y_left=-10.0,
            y_right=10.0, lam=1.0, eps=1.0, elements=4, degree=32,
            elements_y=4, degree_y=32, modes=64, modes_y=64,
            uniform_points=129, tau=0.025, t_final=1.0, dimension=2,
            repeats=3),
    }


def builtin_efficiency_2d() -> ExperimentConfig:
    """The efficiency2d builtin."""
    return builtin_configs()["efficiency2d"]


_FIELD_TYPES = {f.name: f.type for f in fields(ExperimentConfig)}
_TUPLE_FIELDS = ("snapshot_times", "tau_ladder", "eps_values")


def _coerce(name: str, value):
    if name not in _FIELD_TYPES:
        raise ConfigError(f"unknown config key {name!r}")
    if name in _TUPLE_FIELDS:
        if not isinstance(value, (list, tuple)):
            value = [value]
        try:
            return tuple(float(v) for v in value)
        except (TypeError, ValueError):
            raise ConfigError(f"{name} must be a list of numbers")
    kind = _FIELD_TYPES[name]
    if kind is int:
        # is_integer is False for inf and NaN too, which int() cannot take
        if isinstance(value, bool) or (isinstance(value, float)
                                       and not value.is_integer()):
            raise ConfigError(f"{name} must be an integer")
        try:
            return int(value)
        except (TypeError, ValueError):
            raise ConfigError(f"{name} must be an integer")
    if kind is float:
        try:
            return float(value)
        except (TypeError, ValueError):
            raise ConfigError(f"{name} must be a number")
    if not isinstance(value, str) or not value:
        raise ConfigError(f"{name} must be a non-empty string, got {value!r}")
    return value


def from_mapping(data: dict) -> ExperimentConfig:
    if not isinstance(data, dict):
        raise ConfigError("config root must be a key-value mapping")
    if "kind" not in data:
        raise ConfigError("config requires a 'kind' key")
    kind = str(data["kind"])
    if kind not in KINDS:
        raise ConfigError(f"unknown experiment kind {kind!r}; "
                          f"expected one of {', '.join(KINDS)}")
    base = builtin_configs()[kind]
    updates = {}
    for key, value in data.items():
        if key == "kind":
            continue
        updates[key] = _coerce(key, value)
    return replace(base, **updates).validate()


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path) as fh:
            data = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}")
    except yaml.YAMLError as exc:
        raise ConfigError(f"malformed YAML in {path}: {exc}")
    return from_mapping(data if data is not None else {})


def apply_overrides(config: ExperimentConfig, pairs) -> ExperimentConfig:
    """Apply ``key=value`` strings on top of a config (values parsed as YAML)."""
    updates = {}
    for pair in pairs:
        key, sep, raw = pair.partition("=")
        if not sep or not key:
            raise ConfigError(f"override {pair!r} is not of the form key=value")
        if key == "kind":
            raise ConfigError("kind cannot be overridden; pick another config")
        try:
            value = yaml.safe_load(raw)
        except yaml.YAMLError:
            raise ConfigError(f"cannot parse override value {raw!r}")
        updates[key] = _coerce(key, value)
    return replace(config, **updates).validate()


def config_schema() -> str:
    lines = [
        "Experiment config keys (YAML mapping; CLI --set key=value overrides):",
        "  kind            one of: " + ", ".join(KINDS),
        "  x_left/x_right  spatial interval (space units)",
        "  y_left/y_right  second axis, 2D runs only",
        "  lam             cubic coefficient lambda (dimensionless)",
        "  eps             noise size (dimensionless)",
        "  eps_values      gaussian2d: list of noise sizes swept in one run",
        "                  (empty: eps alone), each on trajectory 0",
        "  elements/degree           overlapping elements M and degree J",
        "  elements_y/degree_y       second axis, 2D runs only",
        "  modes/modes_y   noise truncation per axis",
        "  seed            64-bit master seed",
        "  trajectories    independent sample paths P (1 for gaussian2d)",
        "  tau             time step (time units; convergence steps tau_ref",
        "                  and each ladder tau instead)",
        "  t_final         horizon T (time units), whole steps of each tau",
        "  snapshot_times  times whose profiles are written (time units),",
        "                  in [0, t_final], whole steps of each tau",
        "  invariant_stride  record charge/energy every this many steps",
        "  output_dir      artifact directory (env ODDS_NLS_OUTPUT overrides)",
        "  tau_ladder/tau_ref        convergence: coarse taus and reference tau",
        "  dimension/repeats/uniform_points  efficiency: 1 or 2, timing",
        "                  repeats, baseline grid points per axis (>= 5)",
    ]
    return "\n".join(lines)
