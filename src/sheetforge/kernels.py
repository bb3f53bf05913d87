"""Deterministic Volterra-type kernels K(t, r) on [0,1]^2 and their
L2-increment geometry.

Supported families (all vanish for r >= t and for t = 0). Each states its
own facts (see KernelFamily): its values on the support 0 < r < t, the
power of its squared increments, whether it is singular, and a closed-form
covariance where there is one.

* FbmVolterra(alpha): the square-integrable kernel representing fractional
  Brownian motion of index alpha as a Wiener integral,

      K(t, r) = c_a (t-r)^(alpha-1/2)
              + c_a (1/2-alpha) * int_r^t (u-r)^(alpha-3/2) (1-(r/u)^(1/2-alpha)) du

  for 0 < r < t, with c_a = volterra_constant(alpha). Its increments obey
  the exact identity int_0^1 (K(s',r)-K(s,r))^2 dr = (s'-s)^(2 alpha).
* Indicator: K(t, r) = 1 for 0 < r < t — the Brownian case.
* HolmgrenRL(h): K(t, r) = sqrt(2 pi) (t-r)^(h-1/2), 0 < h < 1.
* Goursat(terms): sum_i g_i(t) h_i(r) with polynomial factors.
* LipschitzDiff(xs, ys): K(t, r) = h(t-r) for a piecewise-linear table h.

The singular inner integral of FbmVolterra uses the substitution
u = r + v^2 (making the integrand bounded) followed by Gauss-Legendre on
dyadic panels accumulating at v = 0; absolute target 1e-8.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple, Union

import numpy as np

from .errors import OutOfRange, ProfileViolation
from .jsonio import JsonObject
from .quadrature import depth_for_power, dyadic_unit_nodes, graded_nodes

__all__ = [
    "FbmVolterra",
    "Indicator",
    "HolmgrenRL",
    "Goursat",
    "LipschitzDiff",
    "KernelFamily",
    "KernelSpec",
    "volterra_constant",
    "eval_kernel",
    "kernel_row",
    "kernel_matrix",
    "increment_l2",
    "windowed_increment_l2",
    "l2_quadrature_nodes",
    "increment_profile",
]

_INNER_TOL = 1e-8
_INNER_ORDER = 12
_OUTER_TOL = 1e-9
_OUTER_ORDER = 12
# relative slack of increment_profile's pair bounds, to absorb quadrature error
_PROFILE_REL_TOL = 5e-3


def volterra_constant(alpha: float) -> float:
    """Normalizing constant of the fBm Volterra kernel:

        ( 2 alpha Gamma(3/2-alpha) / (Gamma(alpha+1/2) Gamma(2-2 alpha)) )^(1/2)

    Equals 1 at alpha = 1/2. Defined for 0 < alpha < 1 only.
    """
    if not (0.0 < alpha < 1.0):
        raise OutOfRange(f"alpha={alpha} must lie in (0, 1)")
    from scipy import special  # here, so Indicator-kernel runs never load scipy

    num = 2.0 * alpha * special.gamma(1.5 - alpha)
    den = special.gamma(alpha + 0.5) * special.gamma(2.0 - 2.0 * alpha)
    return math.sqrt(num / den)


class KernelFamily(JsonObject):
    """What the package asks of a kernel family. A family defines
    on_support(t, r), K(t, r) on an array of 0 < r < t, and overrides the
    defaults below where they do not hold:
    - power p: int_0^1 (K(s2, r) - K(s, r))^2 dr ~ (s2 - s)^p near the diagonal;
    - singular: K(t, r)^2 ~ x^(power - 1) at its endpoints (x the distance
      to the endpoint), so L2 quadrature grades its panels;
    - covariance(s, s2): int_0^1 K(s, u) K(s2, u) du in closed form, or
      None where only quadrature gives it."""

    power = 1.0
    singular = False
    covariance = None


@dataclass(frozen=True)
class FbmVolterra(KernelFamily):
    KIND = "fbm_volterra"
    alpha: float

    def __post_init__(self):
        if not (0.0 < self.alpha < 1.0):
            raise OutOfRange(f"alpha={self.alpha} must lie in (0, 1)")

    @property
    def power(self) -> float:
        return 2.0 * self.alpha

    @property
    def singular(self) -> bool:
        return self.alpha != 0.5

    def covariance(self, s: float, s2: float) -> float:
        two_a = self.power
        return 0.5 * (s**two_a + s2**two_a - abs(s2 - s) ** two_a)

    def on_support(self, t: float, r: np.ndarray) -> np.ndarray:
        alpha = self.alpha
        c = volterra_constant(alpha)
        vals = c * (t - r) ** (alpha - 0.5)
        if alpha != 0.5:
            vals = vals + c * (0.5 - alpha) * _fbm_inner(alpha, t, r)
        return vals


@dataclass(frozen=True)
class Indicator(KernelFamily):
    KIND = "indicator"

    def covariance(self, s: float, s2: float) -> float:
        return min(s, s2)

    def on_support(self, t: float, r: np.ndarray) -> np.ndarray:
        return np.ones_like(r)


@dataclass(frozen=True)
class HolmgrenRL(KernelFamily):
    KIND = "holmgren_rl"
    singular = True
    h: float

    def __post_init__(self):
        if not (0.0 < self.h < 1.0):
            raise OutOfRange(f"h={self.h} must lie in (0, 1)")

    @property
    def power(self) -> float:
        return 2.0 * self.h

    def on_support(self, t: float, r: np.ndarray) -> np.ndarray:
        return math.sqrt(2.0 * math.pi) * (t - r) ** (self.h - 0.5)


@dataclass(frozen=True)
class Goursat(KernelFamily):
    """K(t, r) = sum_i g_i(t) h_i(r); each factor is a polynomial given by
    ascending coefficient tuples."""

    KIND = "goursat"
    terms: Tuple[Tuple[Tuple[float, ...], Tuple[float, ...]], ...]

    def __post_init__(self):
        if not self.terms:
            raise OutOfRange("Goursat kernel needs at least one (g, h) term")
        norm = []
        for g, h in self.terms:
            g = tuple(float(c) for c in g)
            h = tuple(float(c) for c in h)
            if not g or not h:
                raise OutOfRange("Goursat polynomial coefficient tuples must be nonempty")
            if not all(math.isfinite(c) for c in g + h):
                raise OutOfRange("Goursat coefficients must be finite")
            norm.append((g, h))
        object.__setattr__(self, "terms", tuple(norm))

    def on_support(self, t: float, r: np.ndarray) -> np.ndarray:
        polyval = np.polynomial.polynomial.polyval  # ascending coefficients
        acc = np.zeros_like(r)
        for g, h in self.terms:
            acc += polyval(np.array(t), g) * polyval(r, h)
        return acc


@dataclass(frozen=True)
class LipschitzDiff(KernelFamily):
    """K(t, r) = h(t - r) with h piecewise linear through (xs, ys); the table
    must cover [0, 1]."""

    KIND = "lipschitz_diff"
    xs: Tuple[float, ...]
    ys: Tuple[float, ...]

    def __post_init__(self):
        xs = tuple(float(x) for x in self.xs)
        ys = tuple(float(y) for y in self.ys)
        if len(xs) != len(ys) or len(xs) < 2:
            raise OutOfRange("LipschitzDiff table needs matching xs/ys, length >= 2")
        if any(x2 <= x1 for x1, x2 in zip(xs, xs[1:])):
            raise OutOfRange("LipschitzDiff xs must be strictly increasing")
        if not all(math.isfinite(v) for v in xs + ys):
            raise OutOfRange("LipschitzDiff table must be finite")
        if xs[0] > 0.0 or xs[-1] < 1.0:
            raise OutOfRange("LipschitzDiff table must cover [0, 1]")
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)

    def on_support(self, t: float, r: np.ndarray) -> np.ndarray:
        return np.interp(t - r, self.xs, self.ys)


KernelSpec = Union[FbmVolterra, Indicator, HolmgrenRL, Goursat, LipschitzDiff]


# -- evaluation -----------------------------------------------------------


def _fbm_inner_depth(alpha: float, r_min: float) -> int:
    """Dyadic depth (in the normalized variable w) so the stub truncation of
    the inner integral is below _INNER_TOL/2. The integrand is bounded by
    2 |alpha-1/2| w^(2 alpha) / r near 0 (V <= 1)."""
    scale = 2.0 * abs(alpha - 0.5) / max(r_min, 1e-300)
    return depth_for_power(2.0 * alpha, 0.5 * _INNER_TOL, scale)


def _fbm_inner(alpha: float, t: float, r: np.ndarray) -> np.ndarray:
    """int_r^t (u-r)^(alpha-3/2) (1 - (r/u)^(1/2-alpha)) du for 0 < r < t.

    After u = r + (V w)^2 with V = sqrt(t-r):

        2 V^(2 alpha - 1) * int_0^1 w^(2 alpha - 2) (1 - (r/(r + V^2 w^2))^(1/2-alpha)) dw

    whose integrand is bounded at w = 0 for every alpha in (0, 1).
    """
    V = np.sqrt(t - r)
    depth = _fbm_inner_depth(alpha, float(r.min()))
    w, om = dyadic_unit_nodes(depth, _INNER_ORDER)
    rr = r[:, None]
    vw2 = (V * V)[:, None] * (w * w)[None, :]
    g = 1.0 - (rr / (rr + vw2)) ** (0.5 - alpha)
    vals = w[None, :] ** (2.0 * alpha - 2.0) * g
    return 2.0 * V ** (2.0 * alpha - 1.0) * np.sum(vals * om[None, :], axis=-1)


def kernel_row(spec: KernelSpec, t: float, r: np.ndarray) -> np.ndarray:
    """K(t, r) for an array of r values. eval_kernel and kernel_matrix both
    route through this function, so matrix rows are bit-identical to row
    evaluation on the same r array (the fractional family adapts its inner
    quadrature depth to the smallest r in the batch, so evaluations on
    different batches agree only to quadrature accuracy)."""
    if not (0.0 <= t <= 1.0):
        raise OutOfRange(f"t={t} must lie in [0, 1]")
    r = np.asarray(r, dtype=float)
    if r.ndim != 1:
        raise OutOfRange("r must be one-dimensional")
    if r.size and (r.min() < 0.0 or r.max() > 1.0):
        raise OutOfRange("r values must lie in [0, 1]")
    out = np.zeros_like(r)
    mask = (r > 0.0) & (r < t)
    if mask.any():
        out[mask] = spec.on_support(t, r[mask])
    return out


def eval_kernel(spec: KernelSpec, t: float, r: float) -> float:
    """Pointwise K(t, r); 0 whenever r <= 0, r >= t, or t = 0."""
    if not (0.0 <= r <= 1.0):
        raise OutOfRange(f"r={r} must lie in [0, 1]")
    return float(kernel_row(spec, t, np.array([r]))[0])


def kernel_matrix(spec: KernelSpec, ts: Sequence[float], rs: np.ndarray) -> np.ndarray:
    """Matrix [K(t_k, r_i)]; row k is exactly kernel_row(spec, t_k, rs)."""
    rs = np.asarray(rs, dtype=float)
    return np.array([kernel_row(spec, float(t), rs) for t in ts])


# -- L2 increment geometry ------------------------------------------------


def l2_quadrature_nodes(spec: KernelSpec, breaks: Sequence[float]):
    """Quadrature nodes/weights on [0, max(breaks)] split at every break
    point, graded toward panel ends when the kernel family is singular: the
    node sets of every L2 integral of a kernel family (also the covariance
    quadrature route)."""
    pts = sorted({b for b in breaks if b > 0.0})
    if spec.singular:
        # integrand of int (dK)^2 behaves like x^(power - 1) at the worst endpoint
        depth = depth_for_power(spec.power - 1.0, _OUTER_TOL, scale=4.0)
        grade = True
    else:
        depth, grade = 2, False
    nodes, wts = [], []
    lo = 0.0
    for hi in pts:
        n_, w_ = graded_nodes(lo, hi, depth, _OUTER_ORDER, grade_left=grade, grade_right=grade)
        nodes.append(n_)
        wts.append(w_)
        lo = hi
    return np.concatenate(nodes), np.concatenate(wts)


def increment_l2(spec: KernelSpec, s: float, s2: float) -> float:
    """int_0^1 (K(s2, r) - K(s, r))^2 dr for 0 <= s <= s2 <= 1.

    For FbmVolterra(alpha) this equals |s2 - s|^(2 alpha) exactly; the
    quadrature is graded at the integrable singularities r -> 0, s, s2.
    Both kernels vanish for r > s2, so this is the window [0, s2].
    """
    return windowed_increment_l2(spec, s, s2, 0.0, s2)


def windowed_increment_l2(
    spec: KernelSpec, s: float, s2: float, r_lo: float, r_hi: float
) -> float:
    """int_{r_lo}^{r_hi} (K(s2, r) - K(s, r))^2 dr."""
    if not (0.0 <= s <= s2 <= 1.0):
        raise OutOfRange(f"need 0 <= s <= s2 <= 1, got s={s}, s2={s2}")
    if not (0.0 <= r_lo <= r_hi <= 1.0):
        raise OutOfRange(f"window [{r_lo}, {r_hi}] must lie inside [0, 1]")
    if s == s2 or r_lo == r_hi:
        return 0.0
    nodes, wts = l2_quadrature_nodes(spec, (s, s2, r_lo, r_hi))
    keep = (nodes >= r_lo) & (nodes <= r_hi)
    nodes, wts = nodes[keep], wts[keep]
    if nodes.size == 0:
        return 0.0
    diff = kernel_row(spec, s2, nodes) - kernel_row(spec, s, nodes)
    return float(np.sum(diff * diff * wts))


# -- growth profile -------------------------------------------------------


def increment_profile(
    spec: KernelSpec,
    pairs: Sequence[Tuple[float, float]],
    windows: Sequence[Tuple[float, float]],
) -> dict:
    """The growth profile of spec's squared increments, checked on pairs:
    the {"profile", "check"} entry of profile_report.json for one kernel.

    Each pair must obey int (dK)^2 <= (G(s2) - G(s))^power with the unit
    G(s) = s and the family's power. Above power 1 the regime is
    "superlinear", strong enough on its own. Otherwise it is "windowed",
    which adds int_{r_lo}^{r_hi} (dK)^2 dr <= m_bound * (r_hi - r_lo)^beta
    for every pair and window. (m_bound, beta) are fitted to those same
    integrals, so that bound cannot fail and its slacks are only reported.
    Raises ProfileViolation on the first pair exceeding its bound by more
    than _PROFILE_REL_TOL."""
    power = spec.power
    if power <= 0.0:
        raise OutOfRange("windowed profile requires exponent in (0, 1]")
    if power > 1.0:
        regime, integrals, m_bound, beta = "superlinear", [], None, None
    else:
        # each (pair, window) integral once: the fit and the slacks both read it
        regime, integrals = "windowed", [
            (s, s2, r_lo, r_hi, windowed_increment_l2(spec, s, s2, r_lo, r_hi))
            for s, s2 in pairs for r_lo, r_hi in windows
        ]
        nonzero = [(r_hi - r_lo, v) for _, _, r_lo, r_hi, v in integrals if v > 0.0]
        if len(nonzero) < 2:
            raise OutOfRange("need at least two nonzero windowed integrals to fit")
        # beta is the slope of the log envelope (the largest integral of each
        # window length), so interior windows do not drag it below the worst case
        envelope: dict = {}
        for ln, v in nonzero:
            envelope[ln] = max(envelope.get(ln, 0.0), v)
        if len(envelope) < 2:
            raise OutOfRange("windows must span at least two distinct lengths")
        xs = sorted(envelope)
        beta = float(np.polyfit(np.log(xs), np.log([envelope[x] for x in xs]), 1)[0])
        beta = max(beta, 1e-6)
        lens, vals = (np.array(column) for column in zip(*nonzero))
        m_bound = float(np.max(vals / lens**beta))
    if not pairs:
        raise OutOfRange("need at least one (s, s2) pair")
    worst, worst_pair, worst_window = math.inf, list(pairs[0]), None
    for s, s2 in pairs:
        if not (0.0 <= s < s2 <= 1.0):
            raise OutOfRange(f"bad pair ({s}, {s2})")
        value = increment_l2(spec, s, s2)
        bound = (s2 - s) ** power
        if value > bound * (1.0 + _PROFILE_REL_TOL) + 1e-12:
            raise ProfileViolation(
                f"squared-increment bound violated at (s={s}, s2={s2}): "
                f"value={value:.6g} > bound={bound:.6g}",
                pair=(s, s2), value=value, bound=bound,
            )
        if bound - value < worst:
            worst, worst_pair = bound - value, [s, s2]
    for s, s2, r_lo, r_hi, value in integrals:
        slack = m_bound * (r_hi - r_lo) ** beta - value
        if slack < worst:
            worst, worst_pair, worst_window = slack, [s, s2], [r_lo, r_hi]
    return {
        # the unit G(s) = s, which profile_report.json has always recorded
        "profile": {"regime": regime, "g": {"scale": 1.0, "power": 1.0},
                    "exponent": power, "m_bound": m_bound, "beta": beta},
        "check": {"regime": regime, "worst_slack": float(worst), "worst_pair": worst_pair,
                  "worst_window": worst_window, "checked_pairs": len(pairs),
                  "checked_windows": len(integrals)},
    }

