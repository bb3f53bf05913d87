"""Assembly of the approximating random field

    X_n(s, t) = int_0^1 int_0^1 K1(s, u) K2(t, v) theta_n(u, v) du dv

from one random-kernel realization and two deterministic kernels, via the
midpoint rule on the theta lattice: X = A Theta B^T with A[k, i] =
K1(s_k, u_i)/M and B[l, j] = K2(t_l, v_j)/M. The quadrature rule is fixed
(uniform midpoint weights) so the statistical harness can compare against
the exact covariance of the same discrete model.

The quadrature rows serve the replicate engine too, including the
difference-kernel rows of the windowed auxiliary field

    Y_n(s0, t0) = int_{[0,s0]x[0,t0]} (K1(s',x)-K1(s,x)) (K2(t',y)-K2(t,y))
                  theta_n(x, y) dx dy

whose (1,1) value reproduces the rectangle increment of X_n over
[s,s']x[t,t'] (window_quadrature_rows; the window-scaling probe projects
every replicate through them).
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence, Tuple

import numpy as np

from .errors import OutOfRange, PointNotOnEvalGrid
from .jsonio import JsonObject
from .kernels import KernelSpec, kernel_matrix, kernel_row
from .sheet import Lattice
from .theta import ThetaField

__all__ = [
    "EvalGrid",
    "ApproxField",
    "quadrature_rows",
    "window_quadrature_rows",
    "build_approximation",
]

_COORD_TOL = 1e-12


@dataclass(frozen=True)
class EvalGrid(JsonObject):
    """Evaluation points for the approximating field; not necessarily
    lattice-aligned."""

    s_points: Tuple[float, ...]
    t_points: Tuple[float, ...]

    def __post_init__(self):
        s = tuple(float(v) for v in self.s_points)
        t = tuple(float(v) for v in self.t_points)
        for name, pts in (("s_points", s), ("t_points", t)):
            if not pts:
                raise OutOfRange(f"{name} must be nonempty")
            if any(not (0.0 <= p <= 1.0) for p in pts):
                raise OutOfRange(f"{name} must lie in [0, 1]")
            if any(b <= a for a, b in zip(pts, pts[1:])):
                raise OutOfRange(f"{name} must be strictly increasing")
        object.__setattr__(self, "s_points", s)
        object.__setattr__(self, "t_points", t)

    @classmethod
    def square(cls, points: Sequence[float]) -> "EvalGrid":
        pts = tuple(points)
        return cls(pts, pts)


def _find_point(points: Tuple[float, ...], value: float, axis: str) -> int:
    arr = np.asarray(points)
    idx = int(np.argmin(np.abs(arr - value)))
    if abs(arr[idx] - value) > _COORD_TOL:
        raise PointNotOnEvalGrid(f"{axis}={value} is not an evaluation point")
    return idx


@dataclass
class ApproxField:
    """Evaluated approximating field with full provenance."""

    grid: EvalGrid
    values: np.ndarray
    k1: KernelSpec
    k2: KernelSpec
    lattice_m: int
    seed: Optional[int] = None
    theta_spec_json: Optional[dict] = None

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        expect = (len(self.grid.s_points), len(self.grid.t_points))
        if self.values.shape != expect:
            raise OutOfRange(f"values shape {self.values.shape} != grid shape {expect}")

    def value_at(self, s: float, t: float) -> float:
        i = _find_point(self.grid.s_points, s, "s")
        j = _find_point(self.grid.t_points, t, "t")
        return float(self.values[i, j])

    def rect_increment(self, s: float, t: float, s2: float, t2: float) -> float:
        """Rectangle increment X(s2,t2) - X(s2,t) - X(s,t2) + X(s,t); all
        four coordinates must be evaluation points."""
        if s2 < s or t2 < t:
            raise OutOfRange("need s <= s2 and t <= t2")
        return (
            self.value_at(s2, t2)
            - self.value_at(s2, t)
            - self.value_at(s, t2)
            + self.value_at(s, t)
        )

    def provenance(self) -> dict:
        return {
            "k1": self.k1.to_json_obj(),
            "k2": self.k2.to_json_obj(),
            "lattice_m": self.lattice_m,
            "seed": self.seed,
            "theta_spec": self.theta_spec_json,
        }

    # hand-written: the JSON form nests the kernels, lattice and seed under "provenance"
    def to_json_obj(self) -> dict:
        return {
            "schema": "sheetforge/approxfield/1",
            "grid": self.grid.to_json_obj(),
            "values": [list(map(float, row)) for row in self.values],
            "provenance": self.provenance(),
        }

    def to_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json_obj(), fh, sort_keys=True, indent=1)

    def to_csv(self, path) -> None:
        prov = json.dumps(self.provenance(), sort_keys=True)
        with open(path, "w") as fh:
            fh.write(f"# sheetforge approxfield v1 provenance={prov}\n")
            fh.write("s\\t," + ",".join(repr(t) for t in self.grid.t_points) + "\n")
            for s, row in zip(self.grid.s_points, self.values):
                fh.write(repr(s) + "," + ",".join(repr(float(v)) for v in row) + "\n")


# -- quadrature matrices ---------------------------------------------------


@lru_cache(maxsize=128)
def _rows_cached(spec: KernelSpec, m: int, points: Tuple[float, ...]) -> np.ndarray:
    rows = kernel_matrix(spec, points, Lattice(m).midpoints()) * (1.0 / m)
    rows.setflags(write=False)
    return rows


def quadrature_rows(spec: KernelSpec, m: int, points: Sequence[float]) -> np.ndarray:
    """Matrix [K(p_k, u_i) / M] over the lattice midpoints — one row per
    evaluation point, with the midpoint weight folded in. Cached per
    (kernel, lattice size, points) and reused across replicates."""
    return _rows_cached(spec, m, tuple(float(p) for p in points))


def window_quadrature_rows(
    spec: KernelSpec, m: int, lo: float, hi: float, windows: Sequence[float]
) -> np.ndarray:
    """Difference-kernel rows for the windowed field: row w is
    (K(hi, u_i) - K(lo, u_i)) / M masked to midpoints u_i <= w."""
    lat = Lattice(m)
    mids = lat.midpoints()
    delta = 1.0 / m
    dk = (kernel_row(spec, hi, mids) - kernel_row(spec, lo, mids)) * delta
    return np.array([np.where(mids <= w, dk, 0.0) for w in windows])


# -- field assembly --------------------------------------------------------


def build_approximation(
    theta: ThetaField,
    k1: KernelSpec,
    k2: KernelSpec,
    grid: EvalGrid,
) -> ApproxField:
    """Evaluate X_n on the grid as the two dense matrix products A Theta B^T."""
    m = theta.field.lattice.m
    if m < 2:
        raise OutOfRange("theta lattice must have M >= 2")
    a = quadrature_rows(k1, m, grid.s_points)
    b = quadrature_rows(k2, m, grid.t_points)
    x = a @ theta.values @ b.T
    return ApproxField(grid, x, k1, k2, m, seed=theta.seed,
                       theta_spec_json=theta.spec.to_json_obj())
