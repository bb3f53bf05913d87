"""Midpoint lattice and exact Levy-sheet sampling.

The lattice has M nodes per axis at x_i = (i - 1/2)/M. The sheet partition
per axis is [0, x_1], (x_1, x_2], ..., (x_{M-1}, x_M] (first cell half-width),
so cumulative sums of independent per-cell increments give the sheet value
exactly AT the midpoints (a pure fixed-jump sheet bins Poisson uniform
points onto it, and keeps its counts per block of occupied rows and
columns; every other sheet keeps its values on one block per cell).
Quadrature over theta fields elsewhere uses the uniform midpoint-rule
weight 1/M; the two weight systems are intentionally distinct.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np
# numpy loads np.random on first use: load it with this module, in a run's set-up
from numpy import random

from .errors import OutOfRange
from .levy import Deterministic, LevyModel

__all__ = [
    "mix64",
    "Lattice",
    "SheetSample",
    "sample_increments",
    "simulate_sheet",
]

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def mix64(master_seed: int, index: int) -> int:
    """Derive a per-replicate seed: SplitMix64 finalizer of the master seed
    advanced (index + 1) steps. Documented so other implementations can
    reproduce replicate streams exactly."""
    if index < 0:
        raise OutOfRange("replicate index must be >= 0")
    z = (int(master_seed) + (index + 1) * _GOLDEN) & _MASK64
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & _MASK64
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & _MASK64
    z ^= z >> 31
    return z


@dataclass(frozen=True)
class Lattice:
    """M midpoints per axis on [0, 1]."""

    m: int

    def __post_init__(self):
        if not isinstance(self.m, int) or self.m < 1:
            raise OutOfRange(f"lattice size m={self.m} must be a positive integer")

    def midpoints(self) -> np.ndarray:
        return (np.arange(1, self.m + 1) - 0.5) / self.m

    def partition_widths(self) -> np.ndarray:
        """Widths of the sheet-sampling partition [0,x_1], (x_1,x_2], ...:
        first cell 1/(2M), the rest 1/M."""
        w = np.full(self.m, 1.0 / self.m)
        w[0] = 0.5 / self.m
        return w


@dataclass
class SheetSample:
    """One exact draw of the Levy sheet L at the scaled lattice midpoints
    (sqrt(n) x_i, sqrt(n) y_j), constant on blocks of cells: blocks holds
    L per block, block_ends per axis the cell index one past each block
    (the last is M; the first block is empty if cell 0 is occupied).

    For a pure fixed-jump model (sigma = 0, drift = 0, Deterministic(h)
    jumps at a positive rate) the sheet is h * N with N a Poisson count
    sheet, constant on the blocks the occupied cells cut out of each axis:
    blocks holds N there (int64). Every other sheet has unit blocks, one per
    cell (block_ends 1..M on both axes), holding its float64 values.
    Consumers transform the blocks, then spread the result over the cells
    with on_cells or sum their quadrature rows per block."""

    model: LevyModel
    blocks: np.ndarray
    block_ends: Tuple[np.ndarray, np.ndarray]

    def on_cells(self, per_block: np.ndarray) -> np.ndarray:
        """Values given per block, spread over the M x M cells."""
        row, col = (np.repeat(np.arange(len(ends)), np.diff(ends, prepend=0))
                    for ends in self.block_ends)
        return per_block[row][:, col]


def sample_increments(model: LevyModel, areas: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Independent increments over regions of the given areas.

    Law per region: drift*A + sigma*N(0, A) + sum of Poisson(rate*A) jumps.
    The compound part draws the Poisson count, then samples the exact
    conditional law of the jump sum given the count (no moment-matched
    normal shortcut), which the jump law's add_jumps draws. Draw order is
    fixed, so a given generator state maps to one unique output."""
    areas = np.asarray(areas, dtype=float)
    if np.any(areas < 0):
        raise OutOfRange("areas must be >= 0")
    out = model.drift * areas
    if model.sigma > 0.0:
        out = out + model.sigma * np.sqrt(areas) * rng.standard_normal(areas.shape)
    if model.jump_rate > 0.0:
        counts = rng.poisson(model.jump_rate * areas)
        out = model.jump_dist.add_jumps(out, counts, rng)
    return out


def simulate_sheet(model: LevyModel, n: float, lattice: Lattice, seed: int) -> SheetSample:
    """Sample the sheet exactly at the scaled midpoints (sqrt(n) x_i, sqrt(n) y_j).

    Cell areas in the scaled domain are n * w_i * w_j with w the partition
    widths; node values are cumulative rectangular sums of the independent
    per-cell increments, held on unit blocks (one per cell). A pure
    fixed-jump model draws a point set in this order:
    T ~ Poisson(rate * n * (1 - 1/(2M))^2), then T row and T column uniforms
    U (rng.random((2, T)), rows first), each binned to cell
    min(floor(U * (M - 1/2) + 1/2), M - 1); given T, the multinomial law of
    independent Poisson(rate * n * w_i * w_j) cells (Devroye 1986). A
    point's block per axis is the count of occupied cells up to its own;
    bincount and the prefix sums run on the blocks, which hold the int64
    counts. Deterministic given (model, n, lattice.m, seed)."""
    if not (math.isfinite(n) and n > 0):
        raise OutOfRange(f"n={n} must be finite and > 0")
    m, rate, jd = lattice.m, model.jump_rate, model.jump_dist
    rng = random.default_rng(random.PCG64(seed))
    fixed = model.sigma == model.drift == 0.0 and rate > 0.0 and isinstance(jd, Deterministic)
    if fixed:
        total = rng.poisson(rate * n * (1.0 - 0.5 / m) ** 2)
        rows, cols = np.minimum((rng.random((2, total)) * (m - 0.5) + 0.5).astype(np.int64), m - 1)
        # occupied cells per axis, and the end M of the last block
        occupied = np.zeros((2, m + 1), dtype=bool)
        occupied[0][rows] = occupied[1][cols] = occupied[:, m] = True
        rank = occupied.cumsum(axis=1)
        ends = occupied[0].nonzero()[0], occupied[1].nonzero()[0]
        u, v = len(ends[0]), len(ends[1])
        acc = np.bincount(rank[0][rows] * v + rank[1][cols], minlength=u * v).reshape(u, v)
    else:
        w = lattice.partition_widths()
        acc = sample_increments(model, n * np.outer(w, w), rng)
        ends = (np.arange(1, m + 1),) * 2
    # Prefix sums in place, in the association of cumsum(axis=0).cumsum(axis=1).
    np.add.accumulate(acc, axis=0, out=acc)
    np.add.accumulate(acc, axis=1, out=acc)
    return SheetSample(model, acc, ends)
