"""Levy driving-noise models and their exponent algebra.

A model is diffusion + drift + compound Poisson jumps. Rectangle increments
of the induced sheet over a region of area A have characteristic function

    E[exp(i xi dL)] = exp(-A * Psi(xi)),
    Psi(xi) = 0.5 sigma^2 xi^2 - i drift xi - rate * (phi_J(xi) - 1),

where phi_J is the jump-size characteristic function. Finite activity means
no compensator is needed: drift is the literal per-area mean shift. We write
Psi = a + i b; a >= 0 always, and a(xi) > 0 whenever the model has any
randomness and phi_J(xi) != 1.

Each jump law states its own facts: phi_J (char_function), and a draw of
the sum of a given number of its jumps (add_jumps).
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Union

import numpy as np

from .errors import DegenerateAngle, OutOfRange
from .jsonio import JsonObject

__all__ = [
    "Deterministic",
    "TwoPoint",
    "GaussianJump",
    "JumpDist",
    "LevyModel",
    "exponent",
    "normalizing_constant",
    "min_real_exponent",
    "unit_jump_poisson",
]


@dataclass(frozen=True)
class Deterministic(JsonObject):
    """Every jump has the same size h (h != 0)."""

    KIND = "deterministic"

    h: float

    def __post_init__(self):
        if not math.isfinite(self.h) or self.h == 0.0:
            raise OutOfRange("Deterministic jump size must be finite and nonzero")

    def char_function(self, xi: float) -> complex:
        return cmath.exp(1j * xi * self.h)

    def add_jumps(self, out: np.ndarray, counts: np.ndarray,
                  rng: np.random.Generator) -> np.ndarray:
        """out plus the sum of counts jumps per entry (no draw)."""
        return out + self.h * counts


@dataclass(frozen=True)
class TwoPoint(JsonObject):
    """Jump is h_plus with probability p, h_minus with probability 1-p."""

    KIND = "two_point"

    h_plus: float
    h_minus: float
    p: float

    def __post_init__(self):
        if not (math.isfinite(self.h_plus) and math.isfinite(self.h_minus)):
            raise OutOfRange("TwoPoint jump sizes must be finite")
        if not (0.0 <= self.p <= 1.0):
            raise OutOfRange(f"TwoPoint probability p={self.p} not in [0, 1]")

    def char_function(self, xi: float) -> complex:
        return self.p * cmath.exp(1j * xi * self.h_plus) + (1.0 - self.p) * cmath.exp(
            1j * xi * self.h_minus
        )

    def add_jumps(self, out: np.ndarray, counts: np.ndarray,
                  rng: np.random.Generator) -> np.ndarray:
        """out plus the sum of counts jumps per entry: one binomial draw
        gives how many of them are h_plus."""
        ups = rng.binomial(counts, self.p)
        return out + self.h_plus * ups + self.h_minus * (counts - ups)


@dataclass(frozen=True)
class GaussianJump(JsonObject):
    """Jump sizes are Normal(mu, tau^2), tau > 0."""

    KIND = "gaussian"

    mu: float
    tau: float

    def __post_init__(self):
        if not math.isfinite(self.mu):
            raise OutOfRange("GaussianJump mu must be finite")
        if not (math.isfinite(self.tau) and self.tau > 0.0):
            raise OutOfRange(f"GaussianJump tau={self.tau} must be > 0")

    def char_function(self, xi: float) -> complex:
        return cmath.exp(1j * xi * self.mu - 0.5 * self.tau**2 * xi**2)

    def add_jumps(self, out: np.ndarray, counts: np.ndarray,
                  rng: np.random.Generator) -> np.ndarray:
        """out plus the sum of counts jumps per entry: the sum of k iid
        N(mu, tau^2) is exactly N(k mu, k tau^2), one standard normal each."""
        return out + self.mu * counts + self.tau * np.sqrt(counts) * rng.standard_normal(
            counts.shape
        )


JumpDist = Union[Deterministic, TwoPoint, GaussianJump]


@dataclass(frozen=True)
class LevyModel(JsonObject):
    """Diffusion coefficient, per-area drift, jump rate, and jump law.

    Construction validates ranges only. A model with sigma == 0 and
    jump_rate == 0 is deterministic; it can still be simulated, but every
    exponent-derived constant will reject it (a(xi) == 0 for all xi).
    """

    sigma: float = 0.0
    drift: float = 0.0
    jump_rate: float = 0.0
    jump_dist: JumpDist | None = None

    def __post_init__(self):
        if not (math.isfinite(self.sigma) and self.sigma >= 0.0):
            raise OutOfRange(f"sigma={self.sigma} must be finite and >= 0")
        if not math.isfinite(self.drift):
            raise OutOfRange("drift must be finite")
        if not (math.isfinite(self.jump_rate) and self.jump_rate >= 0.0):
            raise OutOfRange(f"jump_rate={self.jump_rate} must be finite and >= 0")
        if self.jump_rate > 0.0 and self.jump_dist is None:
            raise OutOfRange("jump_rate > 0 requires a jump_dist")


def unit_jump_poisson(rate: float = 1.0) -> LevyModel:
    """Pure Poisson model with unit jumps; the classical parity/wave driver."""
    return LevyModel(sigma=0.0, drift=0.0, jump_rate=rate, jump_dist=Deterministic(1.0))


def exponent(model: LevyModel, xi: float) -> complex:
    """Evaluate Psi(xi) = a + i b for the model.

    a(xi) = 0.5 sigma^2 xi^2 + rate * (1 - Re phi_J(xi))   (>= 0 always)
    b(xi) = -drift * xi - rate * Im phi_J(xi)
    """
    if not math.isfinite(xi):
        raise OutOfRange("xi must be finite")
    try:
        a = 0.5 * model.sigma**2 * xi * xi
        b = -model.drift * xi
        if model.jump_rate > 0.0:
            phi = model.jump_dist.char_function(xi)
            a += model.jump_rate * (1.0 - phi.real)
            b -= model.jump_rate * phi.imag
    except OverflowError:  # a float power beyond the float range
        raise OutOfRange(f"the exponent at xi={xi} overflows for {model}") from None
    # 1 - Re phi can go infinitesimally negative through rounding; clamp.
    if a < 0.0:
        a = 0.0
    return complex(a, b)


def normalizing_constant(model: LevyModel, theta: float) -> float:
    """Scale constant for the cos/sin kernels:

        (1/sqrt(2)) * (a(theta)^2 + b(theta)^2) / a(theta)

    Equals sqrt(2) identically for the unit-jump Poisson model at every
    valid angle. Raises DegenerateAngle when a(theta) == 0.
    """
    psi = exponent(model, theta)
    a, b = psi.real, psi.imag
    if a <= 0.0:
        raise DegenerateAngle(f"a(theta)={a} at theta={theta}; normalizing constant undefined")
    return (a * a + b * b) / a / math.sqrt(2.0)


@lru_cache(maxsize=64, typed=True)
def min_real_exponent(model: LevyModel, theta: float, m: int) -> float:
    """min of a(k*theta) over k = 1..m.

    A result of 0 is allowed and flags an invalid angle for the moment
    bounds; m must be a positive integer (the moment order in use).
    Every ThetaSpec construction asks for it (m up to 10 000, about 7 ms),
    so each (model, theta, m) is evaluated once per process; typed keeps
    m = 2.0 a refusal after m = 2 has been cached.
    """
    if not isinstance(m, int) or m < 1:
        raise OutOfRange(f"m={m} must be a positive integer")
    return min(exponent(model, k * theta).real for k in range(1, m + 1))
