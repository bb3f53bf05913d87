"""Monte Carlo verification layer: covariance convergence against the
factorized limit, Gaussianity at a point, independence of the coupled
cos/sin pair, and the two numeric hypothesis probes (bilinear moment bound
and window scaling).

Determinism contract: every probe is a pure function of (master_seed,
parameters). Replicate r always uses the derived seed mix64(master_seed, r),
and every reduction is a fixed function of the replicate-ordered (R, P)
value array.
"""
from __future__ import annotations

import importlib
import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence, Tuple

import numpy as np

from .approx import EvalGrid, quadrature_rows, window_quadrature_rows
from .errors import InsufficientReplicates, OutOfRange, QuadratureFailure
from .jsonio import JsonObject
from .kernels import KernelSpec, kernel_row, l2_quadrature_nodes
from .levy import exponent, normalizing_constant
from .sheet import Lattice, mix64, simulate_sheet
from .theta import ThetaSpec, theta_values_from_sheet

__all__ = [
    "MomentEstimate",
    "CovarianceReport",
    "StepFunction",
    "grid_points",
    "axis_inner_product",
    "theoretical_covariance",
    "empirical_covariance",
    "generate_replicates",
    "generate_coupled_replicates",
    "bilinear_moment_probe",
    "BilinearProbeReport",
    "window_scaling_probe",
    "WindowScalingReport",
    "WindowScalingSettings",
    "gaussianity_test",
    "require_ks_samples",
    "GaussianityReport",
    "independence_probe",
    "IndependenceReport",
    "default_zero_mean",
]

_PSD_TOL = 1e-8


@dataclass(frozen=True)
class MomentEstimate(JsonObject):
    """A Monte Carlo estimate: value, standard error (sample sd / sqrt(R)),
    and the replicate count."""

    value: float
    std_error: float
    replicates: int

    def __post_init__(self):
        if self.replicates < 2:
            raise InsufficientReplicates(
                f"need at least 2 replicates, got {self.replicates}"
            )
        if not (self.std_error >= 0.0):
            raise OutOfRange(f"std_error={self.std_error} must be nonnegative")


def grid_points(grid: EvalGrid) -> Tuple[Tuple[float, float], ...]:
    """Flatten an evaluation grid to (s, t) points, row-major in s."""
    return tuple((s, t) for s in grid.s_points for t in grid.t_points)


# -- theoretical covariance -------------------------------------------------


def axis_inner_product(spec: KernelSpec, s: float, s2: float) -> float:
    """One-axis factor int_0^1 K(s, u) K(s2, u) du of the limit covariance.

    The kernel's closed-form covariance where it has one (Indicator,
    FbmVolterra); graded quadrature otherwise.
    """
    if not (0.0 <= s <= 1.0 and 0.0 <= s2 <= 1.0):
        raise OutOfRange("points must lie in [0, 1]")
    if spec.covariance is None:
        return _quadrature_inner_product(spec, s, s2)
    return spec.covariance(s, s2)


def _quadrature_inner_product(spec: KernelSpec, s: float, s2: float) -> float:
    """int_0^1 K(s, u) K(s2, u) du by graded quadrature on [0, min(s, s2)],
    for any kernel (the closed forms' self-consistency oracle)."""
    lo = min(s, s2)
    if lo == 0.0:
        return 0.0
    nodes, wts = l2_quadrature_nodes(spec, (lo,))
    vals = kernel_row(spec, s, nodes) * kernel_row(spec, s2, nodes)
    return float(np.sum(vals * wts))


def theoretical_covariance(
    k1: KernelSpec,
    k2: KernelSpec,
    points: Sequence[Tuple[float, float]],
) -> np.ndarray:
    """Limit covariance matrix over the points: the per-axis inner products
    multiply, Cov[p, q] = (int K1(s_p,.) K1(s_q,.)) * (int K2(t_p,.) K2(t_q,.)).
    The result must be positive semidefinite (min eigenvalue >= -1e-8)."""
    pts = [(float(s), float(t)) for s, t in points]
    f1, si = _axis_table(k1, [s for s, _ in pts])
    f2, ti = _axis_table(k2, [t for _, t in pts])
    cov = f1[np.ix_(si, si)] * f2[np.ix_(ti, ti)]
    if pts:
        min_eig = float(np.linalg.eigvalsh(cov)[0])
        if min_eig < -_PSD_TOL:
            raise QuadratureFailure(
                f"covariance matrix not PSD: min eigenvalue {min_eig:.3e}"
            )
    return cov


def _axis_table(spec: KernelSpec, coords: Sequence[float]) -> Tuple[np.ndarray, np.ndarray]:
    """Table of axis_inner_product over the distinct coordinates, each pair
    evaluated once in ascending order, and every coordinate's index into it."""
    vals = sorted(set(coords))
    table = np.empty((len(vals), len(vals)))
    for i, a in enumerate(vals):
        for j in range(i, len(vals)):
            table[i, j] = table[j, i] = axis_inner_product(spec, a, vals[j])
    return table, np.searchsorted(vals, coords)


# -- empirical covariance ---------------------------------------------------


def _deviation_ratio(dev: np.ndarray, allow: np.ndarray) -> np.ndarray:
    """|dev| / allow entrywise, 0 wherever dev is 0 (even where allow is)."""
    dev = np.abs(dev)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(dev == 0.0, 0.0, dev / allow)


@dataclass
class CovarianceReport(JsonObject):
    """Empirical vs theoretical covariance over a point set, with per-entry
    standard errors. Both matrices are symmetric by construction."""

    SCHEMA = "sheetforge/covariance-report/1"
    DERIVED = ("max_abs_deviation", "max_std_deviation")

    points: Tuple[Tuple[float, float], ...]
    empirical: np.ndarray
    std_errors: np.ndarray
    theoretical: np.ndarray
    replicates: int
    zero_mean: bool

    @property
    def deviations(self) -> np.ndarray:
        return self.empirical - self.theoretical

    @property
    def max_abs_deviation(self) -> float:
        return float(np.max(np.abs(self.deviations)))

    @property
    def max_std_deviation(self) -> float:
        return float(np.max(_deviation_ratio(self.deviations, self.std_errors)))

    def passes(self, se_mult: float = 5.0, floor: float = 0.05) -> bool:
        """Every entry within max(se_mult * SE, floor) of theory."""
        allow = np.maximum(se_mult * self.std_errors, floor)
        return bool(np.all(np.abs(self.deviations) <= allow))

    def to_text(self) -> str:
        lines = [
            f"covariance report: {len(self.points)} points, "
            f"{self.replicates} replicates, "
            f"estimator={'zero-mean' if self.zero_mean else 'mean-subtracted'}",
            f"max |dev| = {self.max_abs_deviation:.5f}   "
            f"max |dev|/SE = {self.max_std_deviation:.2f}",
            "  i   j   (s,t)            (s',t')          empirical    theory       dev        SE",
        ]
        cells = [f"({s:.3f},{t:.3f})" for s, t in self.points]
        rows = zip(cells, self.empirical.tolist(), self.theoretical.tolist(),
                   self.deviations.tolist(), self.std_errors.tolist())
        for i, (p, emp, theo, dev, se) in enumerate(rows):
            for j in range(i, len(cells)):
                lines.append(f"{i:3d} {j:3d}   {p}   {cells[j]}   {emp[j]:+.6f}   {theo[j]:+.6f}"
                             f"   {dev[j]:+.5f}   {se[j]:.5f}")
        return "\n".join(lines) + "\n"

    def to_csv(self, path) -> None:
        cells = [f"{s!r},{t!r}" for s, t in self.points]
        rows = zip(cells, self.empirical.tolist(), self.std_errors.tolist(),
                   self.theoretical.tolist())
        with open(path, "w") as fh:
            fh.write("i,j,s,t,s2,t2,empirical,std_error,theoretical\n")
            for i, (p, emp, se, theo) in enumerate(rows):
                fh.writelines(f"{i},{j},{p},{q},{e_j!r},{se_j!r},{t_j!r}\n"
                              for j, (q, e_j, se_j, t_j) in enumerate(zip(cells, emp, se, theo)))


def default_zero_mean(spec: ThetaSpec) -> bool:
    """Estimator default: the zero-mean estimator for the parity kernel,
    mean subtraction for the wave kernels.

    The parity kernel is centred only in the limit n -> oo. At finite n,
    E[(-1)^N] = exp(-2 rate area) for the count N over a rectangle of
    scaled area `area`, so X_n has a nonzero mean: its exact value runs
    from 0.08 to 0.17 over the 16 points of the brownian-baseline preset
    (n = 100, M = 256). The zero-mean estimator then estimates the second
    moment E[X X'], not the covariance."""
    return spec.kind == "KacStroock"


def empirical_covariance(
    values: np.ndarray,
    points: Sequence[Tuple[float, float]],
    theoretical: np.ndarray,
    zero_mean: bool,
) -> CovarianceReport:
    """Per-entry covariance estimate from an (R, P) replicate-by-point value
    array, with moment-based standard errors (sd of the centered products /
    sqrt(R))."""
    values = _replicate_values(values, points)
    r, p = values.shape
    theoretical = np.asarray(theoretical, dtype=float)
    if theoretical.shape != (p, p):
        raise OutOfRange("theoretical matrix has wrong shape")
    centered = values if zero_mean else values - values.mean(axis=0)
    sums, se = _product_moments(centered, centered)
    emp = sums / (r if zero_mean else r - 1)
    return CovarianceReport(
        points=tuple((float(s), float(t)) for s, t in points),
        empirical=emp,
        std_errors=se,
        theoretical=theoretical,
        replicates=r,
        zero_mean=zero_mean,
    )


def _replicate_values(values: np.ndarray, points: Sequence[Tuple[float, float]]) -> np.ndarray:
    """values as an (R, P) float array: R >= 2 replicates, one column per point."""
    values = np.asarray(values, dtype=float)
    if values.shape[1:] != (len(points),):
        raise OutOfRange(f"points count {len(points)} does not fit values of shape {values.shape}")
    if len(values) < 2:
        raise InsufficientReplicates(f"need at least 2 replicates, got {len(values)}")
    return values


def _power_moment(values: np.ndarray, order: int) -> Tuple[np.ndarray, np.ndarray]:
    """Mean over the replicates (axis 0) of values**order, and its standard
    error sd(ddof=1) / sqrt(R)."""
    powers = values**order
    return powers.mean(axis=0), powers.std(axis=0, ddof=1) / math.sqrt(len(values))


def _product_moments(a: np.ndarray, b: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Sums S1 = a.T @ b of the per-replicate products p_r = a[r, i] b[r, j],
    and their standard errors sd(p, ddof=1) / sqrt(R), from two GEMMs and no
    (R, P, Q) array: sum_r (p_r - S1/R)^2 = S2 - S1^2/R with
    S2 = (a*a).T @ (b*b). Rounding can take that difference below zero, so it
    is clipped at 0."""
    r = a.shape[0]
    s1 = a.T @ b
    sq = a * a
    s2 = sq.T @ (sq if b is a else b * b)
    var = np.maximum(s2 - s1 * s1 / r, 0.0) / (r - 1)
    return s1, np.sqrt(var) / math.sqrt(r)


# -- replicate generation ---------------------------------------------------


def _project_replicates(
    specs: Sequence[ThetaSpec],
    lattice: Lattice,
    left: np.ndarray,
    right: np.ndarray,
    replicates: int,
    master_seed: int,
) -> np.ndarray:
    """The replicate engine behind every probe. Replicate r draws one sheet
    with seed mix64(master_seed, r) from the model and n of specs[0] (the
    specs share model, n and K), transforms it to theta for each spec, and
    stores (left @ theta @ right.T).ravel() in out[k, r] for spec k. The
    result has shape (len(specs), replicates, len(left) * len(right)).

    theta = n K sqrt(xy) f(L): the envelope is folded into the rows once per
    call, theta_values_from_sheet gives f on the sheet's blocks, and the
    rows are summed per block as differences of their prefix sums.

    simulate_sheet and theta_values_from_sheet are looked up as module
    globals on every call: benchmarks and tracers replace those names."""
    if replicates < 2:
        raise InsufficientReplicates(f"need at least 2 replicates, got {replicates}")
    model, n = specs[0].model, specs[0].n
    root = np.sqrt(lattice.midpoints())
    # prefix sums of the rows over the cells, one C-ordered row per cell boundary
    prefixes = tuple(np.concatenate((np.zeros((1, len(a))), a.T.cumsum(axis=0)))
                     for a in (left * (n * specs[0].normalizer() * root), right * root))
    out = np.empty((len(specs), replicates, len(left) * len(right)))
    for r in range(replicates):
        sheet = simulate_sheet(model, n, lattice, mix64(master_seed, r))
        left_r, right_r = map(_block_sums, prefixes, sheet.block_ends)
        for k, spec in enumerate(specs):
            out[k, r] = (left_r.T @ theta_values_from_sheet(spec, sheet) @ right_r).ravel()
    return out


def _block_sums(prefix: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Sums over the blocks that end at ends, from prefix[i] = sum of the first i cells."""
    sums = prefix.take(ends, axis=0)
    sums[1:] -= sums[:-1].copy()
    return sums


def generate_replicates(
    spec: ThetaSpec,
    k1: KernelSpec,
    k2: KernelSpec,
    grid: EvalGrid,
    lattice: Lattice,
    replicates: int,
    master_seed: int,
) -> np.ndarray:
    """R independent realizations of X_n at grid_points(grid), as an (R, P)
    array; replicate r uses seed mix64(master_seed, r). The kernel
    quadrature matrices are built once."""
    a = quadrature_rows(k1, lattice.m, grid.s_points)
    b = quadrature_rows(k2, lattice.m, grid.t_points)
    return _project_replicates((spec,), lattice, a, b, replicates, master_seed)[0]


def generate_coupled_replicates(
    spec: ThetaSpec,
    k1: KernelSpec,
    k2: KernelSpec,
    grid: EvalGrid,
    lattice: Lattice,
    replicates: int,
    master_seed: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """The (R, P) arrays of the coupled cos/sin pair of a LevyCos spec: each
    replicate transforms ONE sheet draw through the spec and its LevySin
    partner, so the cos array is generate_replicates' for the same seed."""
    if spec.kind != "LevyCos":
        raise OutOfRange(f"the coupled pair needs a LevyCos spec, got {spec.kind}")
    a = quadrature_rows(k1, lattice.m, grid.s_points)
    b = quadrature_rows(k2, lattice.m, grid.t_points)
    specs = (spec, replace(spec, kind="LevySin"))
    return tuple(_project_replicates(specs, lattice, a, b, replicates, master_seed))


# -- bilinear moment probe --------------------------------------------------


@dataclass(frozen=True)
class StepFunction(JsonObject):
    """Piecewise-constant function on [0, 1]: value values[i] on
    [breaks[i], breaks[i+1]); right-continuous, f(1) = last piece."""

    breaks: Tuple[float, ...]
    values: Tuple[float, ...]

    def __post_init__(self):
        br = tuple(float(b) for b in self.breaks)
        vals = tuple(float(v) for v in self.values)
        if len(br) < 2 or br[0] != 0.0 or br[-1] != 1.0:
            raise OutOfRange("breaks must run from 0.0 to 1.0")
        if any(b2 <= b1 for b1, b2 in zip(br, br[1:])):
            raise OutOfRange("breaks must be strictly increasing")
        if len(vals) != len(br) - 1:
            raise OutOfRange("need exactly one value per piece")
        if not all(math.isfinite(v) for v in br + vals):
            raise OutOfRange("step breaks and values must be finite")
        object.__setattr__(self, "breaks", br)
        object.__setattr__(self, "values", vals)

    def l2_norm_sq(self) -> float:
        """Exact int_0^1 f(x)^2 dx."""
        return float(
            sum(
                v * v * (b2 - b1)
                for v, b1, b2 in zip(self.values, self.breaks, self.breaks[1:])
            )
        )

    def sample(self, x: np.ndarray) -> np.ndarray:
        idx = np.searchsorted(self.breaks, x, side="right") - 1
        idx = np.clip(idx, 0, len(self.values) - 1)
        return np.asarray(self.values, dtype=float)[idx]


@dataclass
class BilinearProbeReport(JsonObject):
    """Estimated E[(int int f g theta)^2] against the moment-bound budget
    C * int f^2 * int g^2. bound_mode is False for the parity kernel, whose
    constant is not pinned here — the ratio is then report-only."""

    SCHEMA = "sheetforge/bilinear-probe/1"

    ratio: MomentEstimate
    second_moment: MomentEstimate
    constant: float
    bound_mode: bool
    f: StepFunction
    g: StepFunction

    def passes(self, se_mult: float = 5.0) -> bool:
        """ratio <= 1 with at least se_mult standard errors of margin
        (always False outside bound mode)."""
        if not self.bound_mode:
            return False
        return self.ratio.value + se_mult * self.ratio.std_error <= 1.0


def bilinear_moment_probe(
    spec: ThetaSpec,
    f: StepFunction,
    g: StepFunction,
    lattice: Lattice,
    replicates: int,
    master_seed: int,
) -> BilinearProbeReport:
    """Monte Carlo check of the bilinear second-moment bound

        E[(int int f(x) g(y) theta_n(x, y) dx dy)^2] <= C int f^2 int g^2

    with C = 136 K^2 / a(angle)^2 for the wave kernels. For KacStroock C is
    1.0 and the report is informative only."""
    if spec.kind in ("LevyCos", "LevySin"):
        k = normalizing_constant(spec.model, spec.angle)
        a_val = exponent(spec.model, spec.angle).real
        c = 136.0 * k * k / (a_val * a_val)
        bound_mode = True
    else:
        c, bound_mode = 1.0, False
    mids = lattice.midpoints()
    u = f.sample(mids) / lattice.m
    v = g.sample(mids) / lattice.m
    zs = _project_replicates((spec,), lattice, u[None], v[None], replicates, master_seed)[0, :, 0]
    m2, m2_se = map(float, _power_moment(zs, 2))
    denom = c * f.l2_norm_sq() * g.l2_norm_sq()
    if denom > 0.0:
        ratio = MomentEstimate(m2 / denom, m2_se / denom, replicates)
    else:
        ratio = MomentEstimate(0.0 if m2 == 0.0 else math.inf, 0.0, replicates)
    return BilinearProbeReport(
        ratio=ratio,
        second_moment=MomentEstimate(m2, m2_se, replicates),
        constant=c,
        bound_mode=bound_mode,
        f=f,
        g=g,
    )


# -- window scaling probe ---------------------------------------------------


@dataclass(frozen=True)
class WindowScalingSettings(JsonObject):
    """The window-scaling probe's settings. m_order is an even moment order
    >= 2. base_rect = (s, s2, t, t2), with 0 <= s <= s2 <= 1 and the same in
    t, fixes the kernel-difference pair. Each of the two or more windows
    (s0, s0', t0, t0') restricts the integration domain and obeys
    0 < s0 < s0' < 2 s0, s0' <= 1, and the same in t. gamma, when given,
    predicts the minimum slope m_order * gamma."""

    m_order: int
    base_rect: Tuple[float, float, float, float]
    windows: Tuple[Tuple[float, float, float, float], ...]
    gamma: Optional[float] = None

    def __post_init__(self):
        if self.m_order < 2 or self.m_order % 2 != 0:
            raise OutOfRange(f"m_order={self.m_order} must be an even integer >= 2")
        if len(self.windows) < 2:
            raise OutOfRange("need at least two windows to fit a slope")
        s, s2, t, t2 = base = tuple(float(v) for v in self.base_rect)
        if not (0.0 <= s <= s2 <= 1.0 and 0.0 <= t <= t2 <= 1.0):
            raise OutOfRange("base_rect must satisfy 0 <= s <= s2 <= 1, same in t")
        windows = tuple(tuple(float(v) for v in w) for w in self.windows)
        for s0, s0p, t0, t0p in windows:
            if not (0.0 < s0 < s0p < 2.0 * s0) or s0p > 1.0:
                raise OutOfRange(f"window s-range ({s0}, {s0p}) must satisfy 0 < s0 < s0' < 2 s0")
            if not (0.0 < t0 < t0p < 2.0 * t0) or t0p > 1.0:
                raise OutOfRange(f"window t-range ({t0}, {t0p}) must satisfy 0 < t0 < t0' < 2 t0")
        object.__setattr__(self, "base_rect", base)
        object.__setattr__(self, "windows", windows)
        if self.gamma is not None:
            object.__setattr__(self, "gamma", float(self.gamma))


@dataclass
class WindowScalingReport(JsonObject):
    """Fitted power law of the m-th moment of windowed-field increments
    against window area: slope, its standard error, and a 2 SE confidence
    interval. predicted_min_slope (m * gamma) is carried when the caller
    supplies gamma; heavy_tail flags any window whose moment SE exceeds half
    its value."""

    SCHEMA = "sheetforge/window-scaling/1"
    DERIVED = ("slope_ci",)

    m_order: int
    windows: Tuple[Tuple[float, float, float, float], ...]
    areas: Tuple[float, ...]
    moments: Tuple[MomentEstimate, ...]
    slope: float
    slope_se: float
    predicted_min_slope: Optional[float]
    heavy_tail: bool

    @property
    def slope_ci(self) -> Tuple[float, float]:
        return (self.slope - 2.0 * self.slope_se, self.slope + 2.0 * self.slope_se)


def window_scaling_probe(
    spec: ThetaSpec,
    k1: KernelSpec,
    k2: KernelSpec,
    settings: WindowScalingSettings,
    lattice: Lattice,
    replicates: int,
    master_seed: int,
) -> WindowScalingReport:
    """Estimate E[(increment of the windowed field over [s0,s0']x[t0,t0'])^m]
    for each window of the settings and regress log moment on log window
    area (weighted by the relative moment errors)."""
    m_order, windows = settings.m_order, settings.windows
    s, s2, t, t2 = settings.base_rect
    u_rows = window_quadrature_rows(k1, lattice.m, s, s2, [w[:2] for w in windows])
    v_rows = window_quadrature_rows(k2, lattice.m, t, t2, [w[2:] for w in windows])
    proj = _project_replicates((spec,), lattice, u_rows, v_rows, replicates, master_seed)
    incs = proj[0, :, :: len(windows) + 1]  # diagonal of each W x W projection
    vals, ses = _power_moment(incs, m_order)
    moments = tuple(MomentEstimate(float(v), float(e), replicates) for v, e in zip(vals, ses))
    heavy = bool(np.any(ses > 0.5 * np.maximum(np.abs(vals), 1e-300)))
    areas = tuple((s0p - s0) * (t0p - t0) for s0, s0p, t0, t0p in windows)
    if np.any(vals <= 0.0):
        raise OutOfRange("a window moment is nonpositive; increase replicates or windows")
    x = np.log(np.asarray(areas))
    y = np.log(vals)
    wgt = (vals / np.maximum(ses, 1e-300)) ** 2  # delta method on log values
    xm = np.average(x, weights=wgt)
    ym = np.average(y, weights=wgt)
    sxx = float(np.sum(wgt * (x - xm) ** 2))
    slope = float(np.sum(wgt * (x - xm) * (y - ym)) / sxx)
    slope_se = float(math.sqrt(1.0 / sxx))
    return WindowScalingReport(
        m_order=m_order,
        windows=windows,
        areas=areas,
        moments=moments,
        slope=slope,
        slope_se=slope_se,
        predicted_min_slope=None if settings.gamma is None else m_order * settings.gamma,
        heavy_tail=heavy,
    )


# -- gaussianity ------------------------------------------------------------


@dataclass
class GaussianityReport(JsonObject):
    SCHEMA = "sheetforge/gaussianity/1"

    ks_statistic: float
    p_value: float
    samples: int
    sigma2_theory: float


# Pelz-Good and Durbin constants as Simard & L'Ecuyer's scipy implementation
# (scipy.stats._ksstats) states them: the p-value keeps its bytes only if
# every operand has the same type and value.
_E128 = 128
_EP128 = np.ldexp(np.longdouble(1), _E128)
_EM128 = np.ldexp(np.longdouble(1), -_E128)
_SQRT2PI = np.sqrt(2 * np.pi)
_LOG_2PI = np.log(2 * np.pi)
_SQRT3 = np.sqrt(3)
# Stirling coefficients B_2j / (2j (2j - 1)) for j = 8, ..., 1.
_STIRLING_COEFFS = [-2.955065359477124183e-2, 6.4102564102564102564e-3,
                    -1.9175269175269175269e-3, 8.4175084175084175084e-4,
                    -5.952380952380952381e-4, 7.9365079365079365079e-4,
                    -2.7777777777777777778e-3, 8.3333333333333333333e-2]


def _durbin_cdf(n: int, d) -> float:
    """P(D_n <= d) by the Durbin matrix, computed as Marsaglia, Tsang & Wang
    (J. Stat. Softw. 8(18), 2003): the k-th diagonal entry of
    (n!/n^n) H^n with d = (k - h)/n, scaled by 2^128 steps on the way."""
    nd = n * d
    k = int(np.ceil(nd))
    h = k - nd
    m = 2 * k - 1
    H = np.zeros([m, m])
    intm = np.arange(1, m + 1)
    v = 1.0 - h ** intm
    w = np.empty(m)
    fac = 1.0
    for j in intm:
        w[j - 1] = fac
        fac /= j
        v[j - 1] *= fac
    tt = max(2 * h - 1.0, 0) ** m - 2 * h ** m
    v[-1] = (1.0 + tt) * fac
    for i in range(1, m):
        H[i - 1:, i] = w[:m - i + 1]
    H[:, 0] = v
    H[-1, :] = np.flip(v, axis=0)

    Hpwr = np.eye(m)
    nn = n
    expnt = 0
    Hexpnt = 0
    while nn > 0:
        if nn % 2:
            Hpwr = np.matmul(Hpwr, H)
            expnt += Hexpnt
        H = np.matmul(H, H)
        Hexpnt *= 2
        if np.abs(H[k - 1, k - 1]) > _EP128:
            H /= _EP128
            Hexpnt += _E128
        nn = nn // 2
    p = Hpwr[k - 1, k - 1]
    for i in range(1, n + 1):
        p = i * p / n
        if np.abs(p) < _EM128:
            p *= _EP128
            expnt -= _E128
    if expnt != 0:
        p = np.ldexp(p, expnt)
    return p


def _pelz_good_cdf(n: int, x) -> float:
    """P(D_n <= x) by the Pelz-Good series (JRSS B 38, 1976): the
    Li-Chien/Korolyuk expansion K0 + K1/sqrt(n) + K2/n + K3/n^1.5 in z =
    sqrt(n) x, each term rewritten through Jacobi theta functions."""
    z = np.sqrt(n) * x
    zsquared, zthree, zfour, zsix = z**2, z**3, z**4, z**6
    qlog = -np.pi**2 / 8 / zsquared
    if qlog < -708:
        return 0.0
    q = np.exp(qlog)

    k1a = -zsquared
    k1b = np.pi**2 / 4
    k2a = 6 * zsix + 2 * zfour
    k2b = (2 * zfour - 5 * zsquared) * np.pi**2 / 4
    k2c = np.pi**4 * (1 - 2 * zsquared) / 16
    k3d = np.pi**6 * (5 - 30 * zsquared) / 64
    k3c = np.pi**4 * (-60 * zsquared + 212 * zfour) / 16
    k3b = np.pi**2 * (135 * zfour - 96 * zsix) / 4
    k3a = -30 * zsix - 90 * z**8

    # Horner scheme over the odd integers m = 2k - 1 of sum c_m q^(m^2).
    K0to3 = np.zeros(4)
    maxk = int(np.ceil(16 * z / np.pi))
    for k in range(maxk, 0, -1):
        m = 2 * k - 1
        msquared, mfour, msix = m**2, m**4, m**6
        qpower = np.power(q, 8 * k)
        coeffs = np.array([1.0,
                           k1a + k1b * msquared,
                           k2a + k2b * msquared + k2c * mfour,
                           k3a + k3b * msquared + k3c * mfour + k3d * msix])
        K0to3 *= qpower
        K0to3 += coeffs
    K0to3 *= q
    K0to3 *= _SQRT2PI
    K0to3 /= np.array([z, 6 * zfour, 72 * z**7, 6480 * z**10])

    # The terms of K2 and K3 over all integers k.
    q = np.exp(-np.pi**2 / 2 / zsquared)
    ks = np.arange(maxk, 0, -1)
    ksquared = ks ** 2
    sqrt3z = _SQRT3 * z
    kspi = np.pi * ks
    qpwers = q ** ksquared
    k2extra = np.sum(ksquared * qpwers)
    k2extra *= np.pi**2 * _SQRT2PI / (-36 * zthree)
    K0to3[2] += k2extra
    k3extra = np.sum((sqrt3z + kspi) * (sqrt3z - kspi) * ksquared * qpwers)
    k3extra *= np.pi**2 * _SQRT2PI / (216 * zsix)
    K0to3[3] += k3extra
    K0to3 /= np.power(n * 1.0, np.arange(len(K0to3)) / 2.0)
    return sum(K0to3)


def _kolmogorov_sf(n: int, d: float) -> float:
    """Exact two-sided Kolmogorov-Smirnov survival function P(D_n >= d) for
    n > 140, choosing the method by the regions of Simard & L'Ecuyer,
    "Computing the Two-Sided Kolmogorov-Smirnov Distribution" (J. Stat.
    Softw. 39(11), 2011). The operations are those of scipy.stats.kstwo.sf,
    which implements the same paper, so the result has its bytes."""
    if n <= 140:
        raise OutOfRange(f"the KS survival function here needs n > 140, got {n}")
    from scipy import special  # loaded by require_ks_samples; only the KS probe needs it

    # A 0-d array, the operand scipy's kolmogn iterates with: x**1.5 must
    # run through the same power loop.
    x = np.asarray(d, dtype=np.float64)
    if x >= 1.0:
        return 0.0
    t = n * x
    if t <= 0.5:
        return 1.0
    if t <= 1.0:  # Ruben-Gambino: P(D_n <= x) = n!/n^n (2t - 1)^n
        rn = 1.0 / n
        log_nfact_div_npown = (np.log(n) / 2 - n + _LOG_2PI / 2
                               + rn * np.polyval(_STIRLING_COEFFS, rn / n))
        sf = 1.0 - np.exp(log_nfact_div_npown + n * np.log(2 * t - 1))
    elif t >= n - 1:  # Ruben-Gambino: P(D_n >= x) = 2 (1 - x)^n
        sf = 2 * (1.0 - x) ** n
    elif x >= 0.5:  # exact: the two one-sided tails cannot both be crossed
        sf = 2 * special.smirnov(n, x)
    elif t * x >= 370.0:
        return 0.0
    elif t * x >= 2.2:  # Miller's approximation
        sf = 2 * special.smirnov(n, x)
    elif n <= 100000 and n * x**1.5 <= 1.4:
        sf = 1.0 - _durbin_cdf(n, x)
    else:
        sf = 1.0 - _pelz_good_cdf(n, x)
    return float(np.clip(sf, 0.0, 1.0))


def require_ks_samples(count: int) -> None:
    """The Gaussianity probe's sample floor: InsufficientReplicates below 500.
    Past the floor it loads scipy.special (about 0.15 s), whose ndtr and
    smirnov the probe calls: the CLI checks the floor before its first
    draw, so the import is set-up, not replicate time."""
    if count < 500:
        raise InsufficientReplicates(f"gaussianity test needs >= 500 samples, got {count}")
    importlib.import_module("scipy.special")


def gaussianity_test(samples: np.ndarray, sigma2_theory: float) -> GaussianityReport:
    """Kolmogorov-Smirnov distance of the samples against
    Normal(0, sigma2_theory), with the exact two-sided p-value
    P(D_N >= D) of Simard & L'Ecuyer (2011); see `_kolmogorov_sf`."""
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 1:
        raise OutOfRange("gaussianity test needs a one-dimensional sample array")
    require_ks_samples(samples.size)
    if not (0.0 < sigma2_theory < math.inf):
        raise OutOfRange(f"sigma2_theory={sigma2_theory} must be positive and finite")
    if not np.all(np.isfinite(samples)):
        raise OutOfRange("gaussianity test needs finite samples")
    from scipy import special

    n = samples.size
    cdf = special.ndtr(np.sort(samples / math.sqrt(sigma2_theory)))
    d_plus = np.max(np.arange(1.0, n + 1) / n - cdf)
    d_minus = np.max(cdf - np.arange(0.0, n) / n)
    d = d_plus if d_plus > d_minus else d_minus
    return GaussianityReport(
        ks_statistic=float(d),
        p_value=_kolmogorov_sf(n, d),
        samples=n,
        sigma2_theory=float(sigma2_theory),
    )


# -- independence of the coupled pair ---------------------------------------


@dataclass
class IndependenceReport(JsonObject):
    """Cross-covariance of the coupled cos/sin fields over all point pairs;
    the limit predicts 0 everywhere."""

    SCHEMA = "sheetforge/independence/1"
    DERIVED = ("max_std_deviation",)

    points_first: Tuple[Tuple[float, float], ...]
    points_second: Tuple[Tuple[float, float], ...]
    cross_covariance: np.ndarray
    std_errors: np.ndarray
    replicates: int

    @property
    def max_std_deviation(self) -> float:
        return float(np.max(_deviation_ratio(self.cross_covariance, self.std_errors)))

    def passes(self, se_mult: float = 5.0) -> bool:
        return self.max_std_deviation <= se_mult


def independence_probe(
    first: np.ndarray, second: np.ndarray, points: Sequence[Tuple[float, float]]
) -> IndependenceReport:
    """Cross-covariance between two (R, P) value arrays over the points.
    Meaningful on the coupled pair of generate_coupled_replicates, whose
    arrays share their sheet draws: arrays from independent seeds have zero
    cross-covariance by construction."""
    a, b = _replicate_values(first, points), _replicate_values(second, points)
    r = a.shape[0]
    if b.shape[0] != r:
        raise OutOfRange("replicate counts differ")
    sums, se = _product_moments(a - a.mean(axis=0), b - b.mean(axis=0))
    pts = tuple((float(s), float(t)) for s, t in points)
    return IndependenceReport(
        points_first=pts,
        points_second=pts,
        cross_covariance=sums / (r - 1),
        std_errors=se,
        replicates=r,
    )
