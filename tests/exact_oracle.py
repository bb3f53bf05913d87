"""Exact finite-(n, M) moments of the discrete wave-kernel field (test
oracle; not collected by pytest).

The program evaluates X_n(s, t) = sum_ij A[s, i] B[t, j] theta_ij with the
midpoint rows A, B of ``quadrature_rows`` and

    theta_ij = n K sqrt(x_i y_j) cos(angle L_ij)     (LevyCos; sin for LevySin)

where L_ij is the Lévy sheet at the scaled midpoint (sqrt(n) x_i,
sqrt(n) y_j). That discrete field has an exact law at every (n, M), which
is not the n -> oo limit. Two sheet values L = L_ij and L' = L_kl share a
rectangle of mass m_S = n min(x_i, x_k) min(y_j, y_l) and own the exclusive
masses m_U = n x_i y_j - m_S and m_V = n x_k y_l - m_S, so with
phi(xi; m) = exp(-m Psi(xi)) and independent increments

    E exp(i a (L + L')) = phi(2a; m_S) phi(a; m_U) phi(a; m_V)      (plus)
    E exp(i a (L - L')) = phi(a; m_U) conj(phi(a; m_V))            (minus)

    E[cos cos'] = Re(plus + minus) / 2,   E[sin sin'] = Re(minus - plus) / 2,
    E[cos sin'] = Im(plus - minus) / 2.

``exact_moments_quartic`` contracts these four-index tensors with the rows
directly: O(M^4) time and memory, for M <= 32. ``exact_moments`` computes
the same numbers in O(M^2 P^2) (P evaluation points): both exponents have
the form c1 x_i y_j + c2 x_k y_l + c3 min(x_i, x_k) min(y_j, y_l), and on
each of the four regions fixed by the orders of (i, k) and (j, l) the
minima resolve to coordinates, so the sum reduces to prefix and suffix
sums along the lattice axes.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from sheetforge import (
    EvalGrid,
    Indicator,
    Lattice,
    exponent,
    levy_cos,
    quadrature_rows,
    unit_jump_poisson,
)
from sheetforge.kernels import KernelSpec
from sheetforge.theta import ThetaSpec

# exp() of a float64 overflows past ~709; the split below multiplies
# factors of size up to exp(max |Re c|), so refuse scales that reach it
_MAX_EXPONENT = 600.0


@dataclass(frozen=True)
class WaveMoments:
    """Exact means and covariances of the coupled cos/sin fields over the
    grid points (row-major in s, as ``grid_points``). ``cross[p, q]`` is
    Cov(X_cos(p), X_sin(q))."""

    mean_cos: np.ndarray
    mean_sin: np.ndarray
    cov_cos: np.ndarray
    cov_sin: np.ndarray
    cross: np.ndarray


def _wave_setup(spec: ThetaSpec, k1: KernelSpec, k2: KernelSpec,
                grid: EvalGrid, lattice: Lattice):
    if spec.kind not in ("LevyCos", "LevySin"):
        raise ValueError(f"wave-kernel spec needed, got {spec.kind}")
    x = lattice.midpoints()
    root = np.sqrt(x)
    ta = quadrature_rows(k1, lattice.m, grid.s_points) * root
    tb = quadrature_rows(k2, lattice.m, grid.t_points) * root
    return x, ta, tb, spec.n * spec.normalizer()


def _assemble(scale, mean, plus, minus) -> WaveMoments:
    """Moments from the complex mean E[sum theta e^{i a L}] / (n K) and the
    two contracted second moments, each of shape (P, P)."""
    mean = scale * mean.ravel()
    half = 0.5 * scale * scale
    mean_c, mean_s = mean.real, mean.imag
    return WaveMoments(
        mean_cos=mean_c,
        mean_sin=mean_s,
        cov_cos=half * (plus + minus).real - np.outer(mean_c, mean_c),
        cov_sin=half * (minus - plus).real - np.outer(mean_s, mean_s),
        cross=half * (plus - minus).imag - np.outer(mean_c, mean_s),
    )


def exact_moments_quartic(spec, k1, k2, grid, lattice) -> WaveMoments:
    """Direct O(M^4) contraction of the independent-region decomposition."""
    x, ta, tb, scale = _wave_setup(spec, k1, k2, grid, lattice)
    n, angle = spec.n, spec.angle
    p1, p2 = exponent(spec.model, angle), exponent(spec.model, 2.0 * angle)
    xy = np.outer(x, x)
    mins = np.minimum.outer(x, x)
    m_s = n * mins[:, None, :, None] * mins[None, :, None, :]
    m_u = n * xy[:, :, None, None] - m_s
    m_v = n * xy[None, None, :, :] - m_s
    phi_u = np.exp(-m_u * p1)
    phi_v = np.exp(-m_v * p1)
    plus = np.exp(-m_s * p2) * phi_u * phi_v
    minus = phi_u * np.conj(phi_v)
    p = len(grid.s_points) * len(grid.t_points)

    def contract(tensor):
        out = np.einsum("pi,qj,ijkl,rk,sl->pqrs", ta, tb, tensor, ta, tb)
        return out.reshape(p, p)

    mean = ta @ np.exp(-n * xy * p1) @ tb.T
    return _assemble(scale, mean, contract(plus), contract(minus))


def _rev_cumsum(arr, axis):
    return np.flip(np.cumsum(np.flip(arr, axis), axis), axis)


def _strict(cum, axis, prefix):
    """Turn an inclusive prefix (suffix) sum along axis into a strict one."""
    out = np.zeros_like(cum)
    src = [slice(None)] * cum.ndim
    dst = [slice(None)] * cum.ndim
    if prefix:
        src[axis], dst[axis] = slice(None, -1), slice(1, None)
    else:
        src[axis], dst[axis] = slice(1, None), slice(None, -1)
    out[tuple(dst)] = cum[tuple(src)]
    return out


def _outer4(e, rows_i, rows_j):
    """T[i, j, p, q] = e[i, j] rows_i[p, i] rows_j[q, j]."""
    return e[:, :, None, None] * rows_i.T[:, None, :, None] * rows_j.T[None, :, None, :]


def _contract(rows_i, rows_j, w):
    """sum_ij rows_i[p, i] rows_j[s, j] w[i, j, q, r] -> [p, q, r, s]."""
    out = np.tensordot(rows_j, np.tensordot(rows_i, w, (1, 0)), (1, 1))
    return out.transpose(1, 2, 3, 0)


def _region_sum(c1, c2, c3, ta, tb, x):
    """G[p, q, r, s] = sum_ijkl ta[p,i] tb[q,j] ta[r,k] tb[s,l]
    exp(c1 x_i y_j + c2 x_k y_l + c3 min(x_i, x_k) min(y_j, y_l)), y = x."""
    if max(abs(c.real) for c in (c1, c2, c3, c1 + c3, c2 + c3)) > _MAX_EXPONENT:
        raise ValueError("n * Psi too large for the factorized sum")
    xy = np.outer(x, x)
    e1, e2, e3 = np.exp(c1 * xy), np.exp(c2 * xy), np.exp(c3 * xy)
    pair = ([0, 1], [0, 1])
    # i <= k, j <= l: minima x_i, y_j
    f = _outer4(np.exp((c1 + c3) * xy), ta, tb).cumsum(axis=0).cumsum(axis=1)
    total = np.tensordot(f, _outer4(e2, ta, tb), pair)
    # i > k, j > l: minima x_k, y_l
    g = _outer4(np.exp((c2 + c3) * xy), ta, tb).cumsum(axis=0).cumsum(axis=1)
    g = _strict(_strict(g, 0, True), 1, True)
    total += np.tensordot(_outer4(e1, ta, tb), g, pair)
    # i <= k, j > l: minima x_i, y_l; sum over (i, l)
    jsum = _strict(_rev_cumsum(e1[:, :, None] * tb.T[None], 1), 1, False)
    ksum = _rev_cumsum(e2[:, :, None] * ta.T[:, None], 0)
    total += _contract(ta, tb, e3[:, :, None, None] * jsum[:, :, :, None]
                       * ksum[:, :, None, :])
    # i > k, j <= l: minima x_k, y_j; sum over (k, j)
    isum = _strict(_rev_cumsum(e1[:, :, None] * ta.T[:, None], 0), 0, False)
    lsum = _rev_cumsum(e2[:, :, None] * tb.T[None], 1)
    w = e3[:, :, None, None] * isum[:, :, :, None] * lsum[:, :, None, :]
    total += _contract(ta, tb, w).transpose(1, 3, 0, 2)  # from [r, p, s, q]
    p = ta.shape[0] * tb.shape[0]
    return total.reshape(p, p)


@lru_cache(maxsize=32)
def exact_moments(spec: ThetaSpec, k1: KernelSpec, k2: KernelSpec,
                  grid: EvalGrid, lattice: Lattice) -> WaveMoments:
    """Exact moments of the discrete model in O(M^2 P^2); cached per
    argument tuple so callers at the same (n, kernels, M) share one pass."""
    x, ta, tb, scale = _wave_setup(spec, k1, k2, grid, lattice)
    n, angle = spec.n, spec.angle
    p1, p2 = exponent(spec.model, angle), exponent(spec.model, 2.0 * angle)
    plus = _region_sum(-n * p1, -n * p1, -n * (p2 - 2.0 * p1), ta, tb, x)
    minus = _region_sum(-n * p1, -n * p1.conjugate(), 2.0 * n * p1.real,
                        ta, tb, x)
    mean = ta @ np.exp(-n * np.outer(x, x) * p1) @ tb.T
    moments = _assemble(scale, mean, plus, minus)
    for arr in vars(moments).values():
        arr.setflags(write=False)
    return moments


def exact_cross_covariance(n, lattice, grid, angle=1.0):
    """Exact finite-n cross-covariance of the coupled cos/sin approximations
    with Indicator kernels and the unit-jump Poisson sheet (O(M^4))."""
    spec = levy_cos(unit_jump_poisson(), n, angle)
    return exact_moments_quartic(spec, Indicator(), Indicator(), grid,
                                 lattice).cross
