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

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence, Tuple

import numpy as np

from .errors import OutOfRange
from .jsonio import JsonObject
from .kernels import KernelSpec, kernel_matrix, kernel_row
from .sheet import Lattice

__all__ = [
    "EvalGrid",
    "quadrature_rows",
    "window_quadrature_rows",
    "build_approximation",
]


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
    spec: KernelSpec, m: int, lo: float, hi: float, windows: Sequence[Tuple[float, float]]
) -> np.ndarray:
    """Difference-kernel rows for the windowed field: the row of window
    (w0, w1) is (K(hi, u_i) - K(lo, u_i)) / M masked to midpoints
    w0 < u_i <= w1."""
    mids = Lattice(m).midpoints()
    dk = (kernel_row(spec, hi, mids) - kernel_row(spec, lo, mids)) * (1.0 / m)
    return np.array([np.where((mids > w0) & (mids <= w1), dk, 0.0) for w0, w1 in windows])


# -- field assembly --------------------------------------------------------


def build_approximation(
    theta: np.ndarray,
    k1: KernelSpec,
    k2: KernelSpec,
    grid: EvalGrid,
) -> np.ndarray:
    """Evaluate X_n on the grid, from an M x M midpoint field theta, as the
    two dense matrix products A Theta B^T; entry [k, l] is X_n(s_k, t_l)."""
    m = theta.shape[0]
    if m < 2:
        raise OutOfRange("theta lattice must have M >= 2")
    a = quadrature_rows(k1, m, grid.s_points)
    b = quadrature_rows(k2, m, grid.t_points)
    return a @ theta @ b.T
