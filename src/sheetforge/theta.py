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

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DegenerateAngle, OutOfRange
from .levy import (
    Deterministic,
    LevyModel,
    check_angle,
    normalizing_constant,
    unit_jump_poisson,
)
from .sheet import Lattice, SheetSample, simulate_sheet

__all__ = [
    "ThetaSpec",
    "kac_stroock",
    "levy_cos",
    "levy_sin",
    "realize_theta",
    "integrate_field",
    "theta_values_from_sheet",
]

_KINDS = ("KacStroock", "LevyCos", "LevySin")
# the angle check evaluates one exponent per step up to m_guard, about 4 us
# each, on every spec construction
_MAX_M_GUARD = 10_000
# a fixed-jump sheet holds about 32 bytes per jump at its peak (uniforms,
# cell indices), so this many expected jumps per draw ask for about 320 MB
_MAX_EXPECTED_JUMPS = 1e7
_TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class ThetaSpec:
    """Which random kernel to realize.

    kind: one of KacStroock, LevyCos, LevySin.
    n: positive scale of the approximation.
    model: driving Lévy model (KacStroock uses a unit-jump Poisson; its
        jump rate may be forced to 0 as a deterministic diagnostic mode).
    angle: wave-kernel angle in (0, 2*pi); None for KacStroock.
    m_guard: even horizon, at most 10 000, for the angle-validity check
        (all real exponents a(k*angle) > 0 for k = 1..m_guard); None for
        KacStroock. The wave kernels' normalizing constant must be finite.

    model.jump_rate * n, the expected jump count of one sheet draw, is at
    most 1e7.
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
        if self.model.jump_rate * self.n > _MAX_EXPECTED_JUMPS:
            raise OutOfRange(f"jump_rate * n = {self.model.jump_rate * self.n:g} expected "
                             f"jumps per draw exceeds {_MAX_EXPECTED_JUMPS:g}")
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
        if self.m_guard > _MAX_M_GUARD:
            raise OutOfRange(f"m_guard={self.m_guard} must be at most {_MAX_M_GUARD}")
        if not check_angle(self.model, self.angle, self.m_guard):
            raise DegenerateAngle(
                f"angle={self.angle} fails the validity check up to m_guard={self.m_guard}"
            )
        if not np.isfinite(normalizing_constant(self.model, self.angle)):
            raise OutOfRange(f"normalizing constant not finite for {self.model} "
                             f"at angle={self.angle}")

    def normalizer(self) -> float:
        """K for the wave kernels; 1.0 for KacStroock (no K factor)."""
        if self.kind == "KacStroock":
            return 1.0
        return normalizing_constant(self.model, self.angle)

    # hand-written: the KacStroock form leaves out angle and m_guard instead of writing nulls
    def to_json_obj(self) -> dict:
        obj = {"kind": self.kind, "n": self.n, "model": self.model.to_json_obj()}
        if self.kind != "KacStroock":
            obj["angle"] = self.angle
            obj["m_guard"] = self.m_guard
        return obj


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


_PARITY = np.array([1.0, -1.0])
_PARITY.setflags(write=False)


def _jump_values(h: float, counts: np.ndarray) -> np.ndarray:
    """h * counts, the sheet values of a fixed-jump count sheet, with +0.0
    where the count is 0 (h * 0 is -0.0 for h < 0, and sin keeps the sign
    of a zero)."""
    out = h * counts
    if h < 0.0:
        out += 0.0
    return out


def theta_values_from_sheet(spec: ThetaSpec, sheet: SheetSample) -> np.ndarray:
    """f(L) = (-1)^L, cos(angle L) or sin(angle L) on the sheet's blocks,
    without the envelope: theta = n K sqrt(xy) f(L). Float blocks (values
    L) are transformed elementwise. int64 blocks (counts N, L = h N) take a
    per-count table of f gathered by N, with the bytes of the elementwise
    transform. The table holds T + 1 floats for T points, where the draw
    has already made 2 T uniforms and 2 T bins."""
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
    # the corner holds the largest count (prefix sums)
    table = _jump_values(sheet.model.jump_dist.h, np.arange(blocks[-1, -1] + 1))
    return wave_of(spec.angle * table)[blocks]


def realize_theta(spec: ThetaSpec, lattice: Lattice, seed: int) -> np.ndarray:
    """One random-kernel realization, theta = n K sqrt(xy) f(L) on the
    lattice midpoints (an M x M array), from one Lévy-sheet draw evaluated
    exactly at the scaled midpoints."""
    sheet = simulate_sheet(spec.model, spec.n, lattice, seed)
    wave = sheet.on_cells(theta_values_from_sheet(spec, sheet))
    x = lattice.midpoints()
    return spec.n * spec.normalizer() * np.sqrt(np.outer(x, x)) * wave


def integrate_field(theta: np.ndarray) -> np.ndarray:
    """Primitive field zeta(s, t) = int_0^s int_0^t theta of an M x M
    midpoint field, tabulated at the cell corners (i/M, j/M), i, j = 1..M,
    by cumulative midpoint sums with uniform cell area 1/M^2."""
    m = theta.shape[0]
    return (theta * (1.0 / (m * m))).cumsum(axis=0).cumsum(axis=1)
