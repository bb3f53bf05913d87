"""Random kernel fields on the lattice and their primitive (integrated)
field.

Three families, each driven by one Lévy-sheet draw evaluated exactly at the
scaled lattice midpoints (sqrt(n) x_i, sqrt(n) y_j):

* KacStroock:  n sqrt(xy) (-1)^N(..)     — parity of a Poisson count sheet;
* LevyCos:     n K sqrt(xy) cos(angle L) — wave kernel, K the normalizing
  constant of the driving model at the chosen angle;
* LevySin:     n K sqrt(xy) sin(angle L).

The primitive field zeta(s, t) = int_0^s int_0^t theta(x, y) dx dy is
realized as cumulative midpoint-rule sums at the cell corners i/M with
uniform weight 1/M per axis.
"""
from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Optional, Tuple

import numpy as np

from .errors import ConfigError, DegenerateAngle, OutOfRange
from .levy import (
    Deterministic,
    LevyModel,
    check_angle,
    normalizing_constant,
    unit_jump_poisson,
)
from .sheet import GridField, Lattice, SheetSample, _jump_values, simulate_sheet

__all__ = [
    "ThetaSpec",
    "ThetaField",
    "kac_stroock",
    "levy_cos",
    "levy_sin",
    "realize_theta",
    "realize_theta_pair",
    "integrate_field",
    "theta_values_from_sheet",
    "theta_spec_from_json_obj",
]

_KINDS = ("KacStroock", "LevyCos", "LevySin")
_TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class ThetaSpec:
    """Which random kernel to realize.

    kind: one of KacStroock, LevyCos, LevySin.
    n: positive scale of the approximation.
    model: driving Lévy model (KacStroock uses a unit-jump Poisson; its
        jump rate may be forced to 0 as a deterministic diagnostic mode).
    angle: wave-kernel angle in (0, 2*pi); None for KacStroock.
    m_guard: even horizon for the angle-validity check (all real exponents
        a(k*angle) > 0 for k = 1..m_guard); None for KacStroock.
    """

    kind: str
    n: float
    model: LevyModel
    angle: Optional[float] = None
    m_guard: Optional[int] = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise OutOfRange(f"kind must be one of {_KINDS}, got {self.kind!r}")
        if not (self.n > 0 and np.isfinite(self.n)):
            raise OutOfRange(f"n={self.n} must be a positive finite real")
        if self.kind == "KacStroock":
            if self.angle is not None or self.m_guard is not None:
                raise OutOfRange("KacStroock takes no angle / m_guard")
            if self.model.sigma != 0.0 or self.model.drift != 0.0:
                raise OutOfRange("KacStroock model must be pure-jump")
            if self.model.jump_rate > 0 and self.model.jump_dist != Deterministic(1.0):
                raise OutOfRange("KacStroock needs unit jumps (Deterministic(1))")
            return
        if self.angle is None or not (0.0 < self.angle < _TWO_PI):
            raise OutOfRange(f"angle={self.angle} must lie in (0, 2*pi)")
        if self.m_guard is None or not (
            isinstance(self.m_guard, int) and self.m_guard > 0 and self.m_guard % 2 == 0
        ):
            raise OutOfRange(f"m_guard={self.m_guard} must be a positive even integer")
        if not check_angle(self.model, self.angle, self.m_guard):
            raise DegenerateAngle(
                f"angle={self.angle} fails the validity check up to m_guard={self.m_guard}"
            )

    def normalizer(self) -> float:
        """K for the wave kernels; 1.0 for KacStroock (no K factor)."""
        if self.kind == "KacStroock":
            return 1.0
        return normalizing_constant(self.model, self.angle)

    def to_json_obj(self) -> dict:
        obj = {"kind": self.kind, "n": self.n, "model": self.model.to_json_obj()}
        if self.kind != "KacStroock":
            obj["angle"] = self.angle
            obj["m_guard"] = self.m_guard
        return obj


def theta_spec_from_json_obj(obj: dict) -> ThetaSpec:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ConfigError("theta spec must be an object with a 'kind' field")
    allowed = {"kind", "n", "model", "angle", "m_guard"}
    extra = set(obj) - allowed
    if extra:
        raise ConfigError(f"unknown theta spec fields: {sorted(extra)}")
    try:
        model = LevyModel.from_json_obj(obj["model"])
        kind = obj["kind"]
        if kind == "KacStroock":
            return ThetaSpec(kind=kind, n=float(obj["n"]), model=model)
        return ThetaSpec(
            kind=kind,
            n=float(obj["n"]),
            model=model,
            angle=float(obj["angle"]),
            m_guard=int(obj["m_guard"]),
        )
    except KeyError as exc:
        raise ConfigError(f"theta spec missing field {exc}") from exc


def kac_stroock(n: float, rate: float = 1.0) -> ThetaSpec:
    """Parity kernel spec. rate=0 is the deterministic diagnostic mode
    (count sheet identically zero, so theta = n sqrt(xy) exactly)."""
    if rate > 0:
        model = unit_jump_poisson(rate)
    else:
        model = LevyModel(sigma=0.0, drift=0.0, jump_rate=0.0, jump_dist=None)
    return ThetaSpec(kind="KacStroock", n=n, model=model)


def levy_cos(model: LevyModel, n: float, angle: float, m_guard: int = 2) -> ThetaSpec:
    return ThetaSpec(kind="LevyCos", n=n, model=model, angle=angle, m_guard=m_guard)


def levy_sin(model: LevyModel, n: float, angle: float, m_guard: int = 2) -> ThetaSpec:
    return ThetaSpec(kind="LevySin", n=n, model=model, angle=angle, m_guard=m_guard)


@dataclass
class ThetaField:
    """A realized random kernel: midpoint GridField plus provenance."""

    field: GridField
    spec: ThetaSpec
    seed: int
    coupled_tag: Optional[Tuple[int, str]] = dc_field(default=None)

    @property
    def values(self) -> np.ndarray:
        return self.field.values

    @property
    def lattice(self) -> Lattice:
        return self.field.lattice


_PARITY = np.array([1.0, -1.0])
_PARITY.setflags(write=False)


def theta_values_from_sheet(spec: ThetaSpec, sheet: SheetSample) -> np.ndarray:
    """f(L) = (-1)^L, cos(angle L) or sin(angle L) on the sheet's blocks,
    without the envelope: theta = n K sqrt(xy) f(L). Float blocks (values
    L) are transformed elementwise. int64 blocks (counts N, L = h N) take a
    per-count table of f gathered by N while the table is no longer than
    the blocks, and the elementwise transform of h N past that. The bytes
    are those of the elementwise transform."""
    blocks = sheet.blocks
    counts = blocks.dtype == np.int64
    if spec.kind == "KacStroock":
        if counts:
            return _PARITY[blocks & 1]
        # sheet values are exact integer counts (unit jumps); parity flips sign
        return 1.0 - 2.0 * np.mod(blocks, 2.0)
    wave_of = np.cos if spec.kind == "LevyCos" else np.sin
    if not counts:
        return wave_of(spec.angle * blocks)
    h, total = sheet.model.jump_dist.h, blocks[-1, -1]
    # the corner holds the largest count (prefix sums); a longer table costs more
    if total >= blocks.size:
        return wave_of(spec.angle * _jump_values(h, blocks))
    return wave_of(spec.angle * _jump_values(h, np.arange(total + 1)))[blocks]


def _theta_field(spec: ThetaSpec, sheet: SheetSample, lattice: Lattice, meta: dict) -> GridField:
    """theta = n K sqrt(xy) f(L) on the lattice midpoints."""
    wave = sheet.on_cells(theta_values_from_sheet(spec, sheet))
    x = lattice.midpoints()
    values = spec.n * spec.normalizer() * np.sqrt(np.outer(x, x)) * wave
    return GridField(lattice, values, node_kind="midpoint", meta=meta)


def _check_coupled_pair(cos_spec: ThetaSpec, sin_spec: ThetaSpec) -> None:
    """A coupled pair is (LevyCos, LevySin) specs that agree on everything
    but the kind, so one sheet draw serves both."""
    if cos_spec.kind != "LevyCos" or sin_spec.kind != "LevySin":
        raise OutOfRange("need (LevyCos, LevySin) specs")
    if (
        cos_spec.model != sin_spec.model
        or cos_spec.n != sin_spec.n
        or cos_spec.angle != sin_spec.angle
        or cos_spec.m_guard != sin_spec.m_guard
    ):
        raise OutOfRange("paired specs must share model, n, angle and m_guard")


def realize_theta(spec: ThetaSpec, lattice: Lattice, seed: int) -> ThetaField:
    """One random-kernel realization from one Lévy-sheet draw evaluated
    exactly at the scaled midpoints."""
    sheet = simulate_sheet(spec.model, spec.n, lattice, seed)
    gf = _theta_field(spec, sheet, lattice, {"theta_kind": spec.kind, "seed": seed})
    return ThetaField(field=gf, spec=spec, seed=seed)


def realize_theta_pair(
    cos_spec: ThetaSpec, sin_spec: ThetaSpec, lattice: Lattice, seed: int
) -> Tuple[ThetaField, ThetaField]:
    """Coupled LevyCos/LevySin realizations built from the SAME sheet draw
    (the cos and sin of one driving Lévy sheet). Both specs must agree on
    everything but the kind."""
    _check_coupled_pair(cos_spec, sin_spec)
    sheet = simulate_sheet(cos_spec.model, cos_spec.n, lattice, seed)
    tag_c = (seed, "pair")
    out = []
    for spec in (cos_spec, sin_spec):
        gf = _theta_field(spec, sheet, lattice,
                          {"theta_kind": spec.kind, "seed": seed, "coupled": True})
        out.append(ThetaField(field=gf, spec=spec, seed=seed, coupled_tag=tag_c))
    return out[0], out[1]


def integrate_field(theta: ThetaField | GridField) -> GridField:
    """Primitive field zeta(s, t) = int_0^s int_0^t theta, tabulated at the
    cell corners i/M by cumulative midpoint sums with uniform cell area
    1/M^2. zeta(0, .) = zeta(., 0) = 0 via the corner-field axis convention."""
    gf = theta.field if isinstance(theta, ThetaField) else theta
    if gf.node_kind != "midpoint":
        raise OutOfRange("integrate_field expects a midpoint-node field")
    m = gf.lattice.m
    cell = 1.0 / (m * m)
    zeta = (gf.values * cell).cumsum(axis=0).cumsum(axis=1)
    meta = {k: v for k, v in gf.meta.items()}
    meta["integrated"] = True
    return GridField(gf.lattice, zeta, node_kind="corner", meta=meta)
