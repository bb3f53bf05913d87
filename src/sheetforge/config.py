"""Versioned experiment configuration: strict JSON schema (unknown fields
are errors), dotted-path overrides, and named presets.

The dataclasses below are the schema: jsonio.decode reads a config JSON
object into them, checking every value against its field's annotation, and
their __post_init__ methods hold the checks that span fields.

A config pins everything a run needs — random-kernel family, deterministic
kernels, lattice resolution, evaluation grid, the n schedule, replicate
count, master seed, and the probe selection — so identical (config, seed)
always reproduce identical outputs.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from .approx import EvalGrid
from .errors import ConfigError, SheetForgeError
from .harness import StepFunction, WindowScalingSettings
from .jsonio import JsonObject, decode, field_names
from .kernels import KernelSpec
from .levy import LevyModel
from .theta import ThetaSpec

__all__ = [
    "ExperimentConfig",
    "ThetaSettings",
    "apply_overrides",
    "preset",
    "PRESET_NAMES",
    "KNOWN_PROBES",
    "config_from_json_obj",
]

SCHEMA_VERSION = 1

KNOWN_PROBES = (
    "covariance",
    "gaussianity",
    "independence",
    "bilinear",
    "window-scaling",
    "profiles",
)


@dataclass(frozen=True)
class ThetaSettings(JsonObject):
    """The random kernel: a ThetaSpec without n, which the n schedule sets."""

    kind: str
    model: LevyModel
    angle: Optional[float] = None
    m_guard: Optional[int] = None


@dataclass(frozen=True)
class ExperimentConfig(JsonObject):
    """A whole experiment. Its fields are the keys of the config JSON."""

    schema_version: int
    theta: ThetaSettings
    kernel1: KernelSpec
    kernel2: KernelSpec
    lattice_m: int
    eval_grid: EvalGrid
    n_schedule: Tuple[float, ...]
    replicates: int
    master_seed: int
    probes: Tuple[str, ...]
    output_dir: Optional[str] = None
    zero_mean: Optional[bool] = None
    bilinear_pairs: Optional[Tuple[Tuple[StepFunction, StepFunction], ...]] = None
    window_scaling: Optional[WindowScalingSettings] = None

    def __post_init__(self):
        if self.schema_version != SCHEMA_VERSION:
            raise ConfigError(
                f"unsupported schema_version {self.schema_version!r} (expected {SCHEMA_VERSION})"
            )
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
        # mix64 reads the seed modulo 2**64, so a larger one would alias a smaller
        if not 0 <= self.master_seed < 2**64:
            raise ConfigError(f"master_seed={self.master_seed} must lie in [0, 2**64)")
        for p in self.probes:
            if p not in KNOWN_PROBES:
                raise ConfigError(f"unknown probe {p!r}; choices: {KNOWN_PROBES}")
        # stored as None, so an empty pair list is written as null, as it always was
        object.__setattr__(self, "bilinear_pairs", self.bilinear_pairs or None)
        # constructing a spec runs every angle and model check at load time
        # (DegenerateAngle surfaces here); the largest n bounds the jump count
        try:
            self.spec_for_n(self.n_schedule[-1])
        except SheetForgeError as exc:
            raise ConfigError(f"config component validation failed: {exc}") from exc

    def spec_for_n(self, n: float) -> ThetaSpec:
        t = self.theta
        return ThetaSpec(t.kind, n, t.model, t.angle, t.m_guard)


def config_from_json_obj(obj: dict) -> ExperimentConfig:
    return decode(ExperimentConfig, obj, "config")


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
        if leaf not in target and not (target is out and leaf in field_names(ExperimentConfig)):
            raise ConfigError(f"override path {path!r} does not exist in config")
        try:
            target[leaf] = json.loads(raw)
        except json.JSONDecodeError:
            target[leaf] = raw
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
    obj = _brownian_baseline()
    obj["theta"].update(kind="LevyCos", angle=1.0, m_guard=2)
    return dict(
        obj,
        kernel1={"kind": "fbm_volterra", "alpha": 0.6},
        kernel2={"kind": "fbm_volterra", "alpha": 0.6},
        n_schedule=[25.0, 100.0, 400.0],
        master_seed=777,
        probes=["covariance", "gaussianity", "independence"],
    )


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
