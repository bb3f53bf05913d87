"""Versioned experiment configuration: strict JSON schema (unknown fields
are errors), dotted-path overrides, and named presets.

A config pins everything a run needs — random-kernel family, deterministic
kernels, lattice resolution, evaluation grid, the n schedule, replicate
count, master seed, and the probe selection — so identical (config, seed)
always reproduce identical outputs.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Collection, Optional, Sequence, Tuple

from .approx import EvalGrid
from .errors import ConfigError, SheetForgeError
from .harness import StepFunction
from .jsonio import JsonObject, field_names
from .kernels import KernelSpec, kernel_from_json_obj
from .levy import LevyModel
from .theta import ThetaSpec

__all__ = [
    "ExperimentConfig",
    "WindowScalingSettings",
    "load_config",
    "loads_config",
    "apply_overrides",
    "preset",
    "PRESET_NAMES",
    "KNOWN_PROBES",
    "config_from_json_obj",
]

SCHEMA_VERSION = 1

_TOP_FIELDS = {
    "schema_version",
    "theta",
    "kernel1",
    "kernel2",
    "lattice_m",
    "eval_grid",
    "n_schedule",
    "replicates",
    "master_seed",
    "probes",
    "output_dir",
    "zero_mean",
    "bilinear_pairs",
    "window_scaling",
}

_THETA_FIELDS = {"kind", "model", "angle", "m_guard"}

KNOWN_PROBES = (
    "covariance",
    "gaussianity",
    "independence",
    "bilinear",
    "window-scaling",
    "profiles",
)


@dataclass(frozen=True)
class WindowScalingSettings(JsonObject):
    m_order: int
    base_rect: Tuple[float, float, float, float]
    windows: Tuple[Tuple[float, float, float, float], ...]
    gamma: Optional[float] = None


@dataclass(frozen=True)
class ExperimentConfig:
    theta_kind: str
    model: LevyModel
    angle: Optional[float]
    m_guard: Optional[int]
    k1: KernelSpec
    k2: KernelSpec
    lattice_m: int
    eval_grid: EvalGrid
    n_schedule: Tuple[float, ...]
    replicates: int
    master_seed: int
    probes: Tuple[str, ...]
    output_dir: Optional[str] = None
    zero_mean: Optional[bool] = None
    bilinear_pairs: Tuple[Tuple[StepFunction, StepFunction], ...] = ()
    window_scaling: Optional[WindowScalingSettings] = None

    def __post_init__(self):
        if self.lattice_m < 2:
            raise ConfigError(f"lattice_m={self.lattice_m} must be >= 2")
        if not self.n_schedule:
            raise ConfigError("n_schedule must be nonempty")
        if any(b <= a for a, b in zip(self.n_schedule, self.n_schedule[1:])):
            raise ConfigError("n_schedule must be strictly increasing")
        if any(n <= 0 for n in self.n_schedule):
            raise ConfigError("n_schedule entries must be positive")
        if self.replicates < 2:
            raise ConfigError(f"replicates={self.replicates} must be >= 2")
        if self.master_seed < 0:
            raise ConfigError("master_seed must be a nonnegative integer")
        for p in self.probes:
            if p not in KNOWN_PROBES:
                raise ConfigError(f"unknown probe {p!r}; choices: {KNOWN_PROBES}")
        # component validation: constructing the spec runs every angle and
        # model check at load time (DegenerateAngle surfaces here)
        self.spec_for_n(self.n_schedule[0])

    def spec_for_n(self, n: float) -> ThetaSpec:
        if self.theta_kind == "KacStroock":
            return ThetaSpec(kind="KacStroock", n=n, model=self.model)
        return ThetaSpec(
            kind=self.theta_kind,
            n=n,
            model=self.model,
            angle=self.angle,
            m_guard=self.m_guard,
        )

    # hand-written: the JSON form nests the theta fields under "theta" and renames k1, k2
    def to_json_obj(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "theta": {
                "kind": self.theta_kind,
                "model": self.model.to_json_obj(),
                "angle": self.angle,
                "m_guard": self.m_guard,
            },
            "kernel1": self.k1.to_json_obj(),
            "kernel2": self.k2.to_json_obj(),
            "lattice_m": self.lattice_m,
            "eval_grid": self.eval_grid.to_json_obj(),
            "n_schedule": list(self.n_schedule),
            "replicates": self.replicates,
            "master_seed": self.master_seed,
            "probes": list(self.probes),
            "output_dir": self.output_dir,
            "zero_mean": self.zero_mean,
            "bilinear_pairs": [
                [f.to_json_obj(), g.to_json_obj()] for f, g in self.bilinear_pairs
            ]
            or None,
            "window_scaling": (
                self.window_scaling.to_json_obj() if self.window_scaling else None
            ),
        }

    def dumps(self) -> str:
        return json.dumps(self.to_json_obj(), sort_keys=True, indent=1) + "\n"


def _require(obj: dict, key: str, where: str):
    if key not in obj:
        raise ConfigError(f"{where} is missing required field {key!r}")
    return _no_bools(obj[key], f"{where}.{key}")  # no field read here takes a bool


def _check_fields(obj: dict, allowed: Collection[str], where: str) -> None:
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be a JSON object")
    extra = set(obj).difference(allowed)
    if extra:
        raise ConfigError(f"unknown fields in {where}: {sorted(extra)}")


def _integer(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where} must be a JSON integer, got {value!r}")
    return value


def _no_bools(value, where: str):
    """value, checked to hold no JSON true/false (float() reads 1 and 0)."""
    if isinstance(value, bool):
        raise ConfigError(f"{where} may not be a bool, got {value!r}")
    if isinstance(value, (dict, list)):
        for key, item in (value.items() if isinstance(value, dict) else enumerate(value)):
            _no_bools(item, f"{where}.{key}")
    return value


def _real(value, where: str) -> float:
    try:
        return float(_no_bools(value, where))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where} must be a number, got {value!r}") from exc


def _optional(value, kinds, where: str, what: str):
    """value, checked to be null or of the given Python types."""
    if value is not None and not isinstance(value, kinds):
        raise ConfigError(f"{where} must be {what}, got {value!r}")
    return value


def _reals(values, where: str) -> Tuple[float, ...]:
    if not isinstance(values, (list, tuple)):
        raise ConfigError(f"{where} must be a list of numbers, got {values!r}")
    return tuple(_real(v, where) for v in values)


def _component(parse, where: str, *args):
    """parse(*args) for the config component at where; its errors name where."""
    try:
        return parse(*args)
    except (SheetForgeError, TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def config_from_json_obj(obj: dict) -> ExperimentConfig:
    _check_fields(obj, _TOP_FIELDS, "config")
    version = _require(obj, "schema_version", "config")
    if version != SCHEMA_VERSION:
        raise ConfigError(
            f"unsupported schema_version {version!r} (expected {SCHEMA_VERSION})"
        )
    tobj = _require(obj, "theta", "config")
    _check_fields(tobj, _THETA_FIELDS, "config.theta")
    kind = _require(tobj, "kind", "config.theta")
    model = _component(LevyModel.from_json_obj, "config.theta.model",
                       _require(tobj, "model", "config.theta"))
    k1 = _component(kernel_from_json_obj, "config.kernel1", _require(obj, "kernel1", "config"))
    k2 = _component(kernel_from_json_obj, "config.kernel2", _require(obj, "kernel2", "config"))
    gobj = _require(obj, "eval_grid", "config")
    _check_fields(gobj, field_names(EvalGrid), "config.eval_grid")
    grid = _component(EvalGrid, "config.eval_grid", *(
        _reals(_require(gobj, axis, "config.eval_grid"), f"config.eval_grid.{axis}")
        for axis in field_names(EvalGrid)
    ))
    angle = tobj.get("angle")
    m_guard = tobj.get("m_guard")
    zero_mean = _optional(obj.get("zero_mean"), bool, "zero_mean", "true, false or null")
    probes = _require(obj, "probes", "config")
    if not isinstance(probes, (list, tuple)) or not all(isinstance(p, str) for p in probes):
        raise ConfigError(f"probes must be a list of strings, got {probes!r}")
    raw_pairs = _optional(obj.get("bilinear_pairs"), (list, tuple), "bilinear_pairs",
                          "a list or null")
    pairs = []
    for i, pair in enumerate(raw_pairs or ()):
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise ConfigError(f"bilinear_pairs[{i}] must be a [f, g] pair")
        fg, where = [], f"bilinear_pairs[{i}]"
        for side in pair:
            _check_fields(side, field_names(StepFunction), where)
            fg.append(_component(StepFunction, where, *(
                _require(side, name, where) for name in field_names(StepFunction))))
        pairs.append((fg[0], fg[1]))
    wobj = obj.get("window_scaling")
    window = None
    if wobj is not None:
        _check_fields(wobj, field_names(WindowScalingSettings), "config.window_scaling")
        where = "config.window_scaling"
        windows = _require(wobj, "windows", where)
        if not isinstance(windows, (list, tuple)):
            raise ConfigError(f"{where}.windows must be a list, got {windows!r}")
        window = WindowScalingSettings(
            m_order=_integer(_require(wobj, "m_order", where), f"{where}.m_order"),
            base_rect=_reals(_require(wobj, "base_rect", where), f"{where}.base_rect"),
            windows=tuple(_reals(w, f"{where}.windows") for w in windows),
            gamma=(None if wobj.get("gamma") is None
                   else _real(wobj["gamma"], f"{where}.gamma")),
        )
    try:
        return ExperimentConfig(
            theta_kind=kind,
            model=model,
            angle=(None if angle is None else _real(angle, "config.theta.angle")),
            m_guard=(None if m_guard is None
                     else _integer(m_guard, "config.theta.m_guard")),
            k1=k1,
            k2=k2,
            lattice_m=_integer(_require(obj, "lattice_m", "config"), "lattice_m"),
            eval_grid=grid,
            n_schedule=_reals(_require(obj, "n_schedule", "config"), "n_schedule"),
            replicates=_integer(_require(obj, "replicates", "config"), "replicates"),
            master_seed=_integer(_require(obj, "master_seed", "config"), "master_seed"),
            probes=tuple(probes),
            output_dir=_optional(obj.get("output_dir"), str, "output_dir", "a string or null"),
            zero_mean=zero_mean,
            bilinear_pairs=tuple(pairs),
            window_scaling=window,
        )
    except ConfigError:
        raise
    except SheetForgeError as exc:
        raise ConfigError(f"config component validation failed: {exc}") from exc


def loads_config(text: str) -> ExperimentConfig:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return config_from_json_obj(obj)


def load_config(path) -> ExperimentConfig:
    with open(path) as fh:
        return loads_config(fh.read())


def _parse_override_value(raw: str):
    try:
        return json.loads(raw)
    except json.JSONDecodeError:
        return raw


def apply_overrides(obj: dict, overrides: Sequence[str]) -> dict:
    """Apply `dotted.path=json_value` overrides to a raw config object.
    The path must address existing structure (or a known top-level field) —
    silent creation of unknown keys would defeat strict validation."""
    out = json.loads(json.dumps(obj))
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} must look like key.path=value")
        path, raw = item.split("=", 1)
        keys = path.split(".")
        target = out
        for k in keys[:-1]:
            if not isinstance(target, dict) or k not in target:
                raise ConfigError(f"override path {path!r} does not exist in config")
            target = target[k]
        if not isinstance(target, dict):
            raise ConfigError(f"override path {path!r} does not address an object")
        leaf = keys[-1]
        if leaf not in target and not (target is out and leaf in _TOP_FIELDS):
            raise ConfigError(f"override path {path!r} does not exist in config")
        target[leaf] = _parse_override_value(raw)
    return out


# -- presets -----------------------------------------------------------------


def _brownian_baseline() -> dict:
    return {
        "schema_version": 1,
        "theta": {
            "kind": "KacStroock",
            "model": {
                "sigma": 0.0,
                "drift": 0.0,
                "jump_rate": 1.0,
                "jump_dist": {"kind": "deterministic", "h": 1.0},
            },
            "angle": None,
            "m_guard": None,
        },
        "kernel1": {"kind": "indicator"},
        "kernel2": {"kind": "indicator"},
        "lattice_m": 256,
        "eval_grid": {
            "s_points": [0.25, 0.5, 0.75, 1.0],
            "t_points": [0.25, 0.5, 0.75, 1.0],
        },
        "n_schedule": [100.0],
        "replicates": 2000,
        "master_seed": 12345,
        "probes": ["covariance"],
        "output_dir": None,
        "zero_mean": None,
        "bilinear_pairs": None,
        "window_scaling": None,
    }


def _fbm_wave() -> dict:
    return {
        "schema_version": 1,
        "theta": {
            "kind": "LevyCos",
            "model": {
                "sigma": 0.0,
                "drift": 0.0,
                "jump_rate": 1.0,
                "jump_dist": {"kind": "deterministic", "h": 1.0},
            },
            "angle": 1.0,
            "m_guard": 2,
        },
        "kernel1": {"kind": "fbm_volterra", "alpha": 0.6},
        "kernel2": {"kind": "fbm_volterra", "alpha": 0.6},
        "lattice_m": 256,
        "eval_grid": {
            "s_points": [0.25, 0.5, 0.75, 1.0],
            "t_points": [0.25, 0.5, 0.75, 1.0],
        },
        "n_schedule": [25.0, 100.0, 400.0],
        "replicates": 2000,
        "master_seed": 777,
        "probes": ["covariance", "gaussianity", "independence"],
        "output_dir": None,
        "zero_mean": None,
        "bilinear_pairs": None,
        "window_scaling": None,
    }


_PRESETS = {
    "brownian-baseline": _brownian_baseline,
    "fbm-wave": _fbm_wave,
}

PRESET_NAMES = tuple(sorted(_PRESETS))


def preset(name: str) -> dict:
    """Raw config object for a named preset (apply overrides, then
    validate via config_from_json_obj)."""
    if name not in _PRESETS:
        raise ConfigError(f"unknown preset {name!r}; choices: {PRESET_NAMES}")
    return _PRESETS[name]()
