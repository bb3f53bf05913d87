"""Acceptance gate: ten pinned criteria, one test and one printed
PASS/FAIL line each.

Every tolerance, seed, and sample size below is pinned; loosening any of
them voids the gate.  Criteria 1-4 are deterministic identities, 5-9 are
statistical experiments at fixed master seeds, and 10 is the CLI's
byte-determinism contract.

Criteria 6 and 7 run the wave kernel at n = 400 on the M = 256 lattice,
where the law of the discrete field still differs from the n -> oo limit
(nonzero mean, lattice-resolution covariance bias, cos/sin
cross-covariance).  They therefore gate the Monte Carlo on the exact
finite-(n, M) moments of the same discrete model (tests/exact_oracle.py),
keep the limit in view by asserting that the exact mean and cross-covariance
shrink along the fbm-wave n schedule, and print the bias (exact - limit)
beside the residual ((Monte Carlo - exact) / SE).
"""

import cmath
import json
import math
import time
from functools import lru_cache

import numpy as np

from sheetforge import (
    Deterministic,
    EvalGrid,
    GaussianJump,
    Lattice,
    LevyModel,
    StepFunction,
    TwoPoint,
    bilinear_moment_probe,
    build_approximation,
    empirical_covariance,
    exponent,
    gaussianity_test,
    generate_coupled_replicates,
    generate_replicates,
    grid_points,
    increment_l2,
    independence_probe,
    integrate_field,
    kac_stroock,
    levy_cos,
    normalizing_constant,
    preset,
    realize_theta,
    theoretical_covariance,
    unit_jump_poisson,
    volterra_constant,
)
from sheetforge.cli import run as cli_run
from sheetforge.kernels import (
    FbmVolterra,
    Goursat,
    HolmgrenRL,
    Indicator,
    LipschitzDiff,
)

from exact_oracle import exact_moments
from triple_loop import kernel_at, triple_loop_field

GRID_4X4 = EvalGrid((0.25, 0.5, 0.75, 1.0), (0.25, 0.5, 0.75, 1.0))
FBM_WAVE_SCHEDULE = tuple(preset("fbm-wave")["n_schedule"])


def _criterion(num: int, ok: bool, detail: str) -> None:
    line = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} — {detail}"
    print(line)
    assert ok, line


def test_criterion_01_kernel_increment_identity():
    start = time.time()
    rng = np.random.default_rng(101)
    worst = 0.0
    for alpha in (0.3, 0.5, 0.7):
        spec = FbmVolterra(alpha)
        for _ in range(10):
            s, s2 = sorted(rng.uniform(0.0, 1.0, size=2))
            if s2 - s < 1e-3:
                s2 = min(1.0, s + 1e-3)
            got = increment_l2(spec, s, s2)
            want = (s2 - s) ** (2.0 * alpha)
            worst = max(worst, abs(got - want) / want)
    elapsed = time.time() - start
    _criterion(
        1,
        worst <= 2e-3 and elapsed < 30.0,
        f"increment L2 vs |s'-s|^(2a), worst rel err {worst:.2e} "
        f"(tol 2e-3), {elapsed:.1f}s (< 30s)",
    )


def test_criterion_02_normalization_identity():
    start = time.time()
    worst = 0.0
    for alpha in (0.3, 0.5, 0.7):
        spec = FbmVolterra(alpha)
        for t in (0.25, 0.5, 1.0):
            got = increment_l2(spec, 0.0, t)
            want = t ** (2.0 * alpha)
            worst = max(worst, abs(got - want) / want)
    elapsed = time.time() - start
    _criterion(
        2,
        worst <= 2e-3 and elapsed < 10.0,
        f"int_0^t K^2 = t^(2a), worst rel err {worst:.2e} (tol 2e-3), "
        f"{elapsed:.1f}s (< 10s)",
    )


def test_criterion_03_half_alpha_degeneracy_and_indicator_build():
    start = time.time()
    ok = volterra_constant(0.5) == 1.0
    half = FbmVolterra(0.5)
    flag = Indicator()
    for t in (0.125, 0.5, 0.75, 1.0):
        for r in (0.0, 0.1, 0.124, 0.125, 0.5, 0.9, 1.0):
            ok = ok and kernel_at(half, t, r) == kernel_at(flag, t, r)
            if 0.0 < r < t:
                ok = ok and kernel_at(half, t, r) == 1.0

    theta = realize_theta(kac_stroock(9.0), Lattice(16), 77)
    zeta = integrate_field(theta)
    field = build_approximation(theta, Indicator(), Indicator(), GRID_4X4)
    # GRID_4X4's points 0.25, 0.5, 0.75, 1 are the corners 4/16, 8/16, ... of
    # the M = 16 lattice, rows and columns 3, 7, 11, 15 of zeta
    diff = float(np.abs(field - zeta[3::4, 3::4]).max())
    elapsed = time.time() - start
    _criterion(
        3,
        ok and diff <= 1e-12 and elapsed < 5.0,
        f"alpha=1/2 kernel == indicator and d_a=1 exactly; indicator build "
        f"vs integrated field max diff {diff:.2e} (tol 1e-12), "
        f"{elapsed:.1f}s (< 5s)",
    )


def _random_kernel(rng):
    kind = rng.integers(0, 5)
    if kind == 0:
        return Indicator()
    if kind == 1:
        return FbmVolterra(float(rng.uniform(0.05, 0.95)))
    if kind == 2:
        return HolmgrenRL(float(rng.uniform(0.05, 0.95)))
    if kind == 3:
        return Goursat(
            terms=((tuple(rng.uniform(-1, 1, 2)), tuple(rng.uniform(-1, 1, 2))),)
        )
    return LipschitzDiff(
        xs=(0.0, 0.5, 1.0), ys=(0.0, float(rng.uniform(0.1, 2.0)), 1.0)
    )


def test_criterion_04_gemm_matches_triple_loop():
    start = time.time()
    rng = np.random.default_rng(4242)
    worst = 0.0
    for i in range(100):
        m = int(rng.integers(2, 33))
        theta = realize_theta(
            kac_stroock(float(rng.integers(1, 50))),
            Lattice(m),
            int(rng.integers(0, 2**32)),
        )
        k1, k2 = _random_kernel(rng), _random_kernel(rng)
        pts = lambda: tuple(sorted(set(np.round(rng.uniform(0.05, 1.0, rng.integers(1, 6)), 6))))
        grid = EvalGrid(pts(), pts())
        fast = build_approximation(theta, k1, k2, grid)
        slow = triple_loop_field(theta, k1, k2, grid)
        scale = max(1.0, float(np.abs(slow).max()))
        worst = max(worst, float(np.abs(fast - slow).max()) / scale)
    elapsed = time.time() - start
    _criterion(
        4,
        worst <= 1e-10 and elapsed < 30.0,
        f"separable GEMM vs literal triple loop over 100 random instances "
        f"(M <= 32), worst rel diff {worst:.2e} (tol 1e-10), "
        f"{elapsed:.1f}s (< 30s)",
    )


def test_criterion_05_brownian_baseline_covariance():
    start = time.time()
    spec = kac_stroock(100.0)
    k = Indicator()
    pts = grid_points(GRID_4X4)
    reps = generate_replicates(spec, k, k, GRID_4X4, Lattice(256), 2000, 12345)
    report = empirical_covariance(
        reps, pts, theoretical_covariance(k, k, pts), zero_mean=True
    )
    elapsed = time.time() - start
    _criterion(
        5,
        report.passes(5.0, 0.05) and elapsed < 180.0,
        f"KacStroock n=100, M=256, R=2000 vs min(s,s')min(t,t'): "
        f"max |dev| {report.max_abs_deviation:.4f}, "
        f"max {report.max_std_deviation:.2f} SE (allow max(5 SE, 0.05)), "
        f"{elapsed:.1f}s (< 180s single-threaded)",
    )


def _fbm_wave_exact(alpha: float, n: float):
    """Exact finite-(n, M) moments of the fbm-wave field on the pinned
    4x4 grid and M = 256 lattice (cached, shared by criteria 6 and 7)."""
    k = FbmVolterra(alpha)
    spec = levy_cos(unit_jump_poisson(), n, 1.0, 2)
    return exact_moments(spec, k, k, GRID_4X4, Lattice(256))


@lru_cache(maxsize=None)
def _fbm_wave_pair(alpha: float):
    """Coupled cos/sin replicates of the fbm-wave field at n = 400 on the
    pinned 4x4 grid, M = 256, R = 2000, seed 777 (cached: criterion 6 uses
    the cos half, criterion 7 the pair)."""
    k = FbmVolterra(alpha)
    model = unit_jump_poisson()
    return generate_coupled_replicates(
        levy_cos(model, 400.0, 1.0, 2), k, k, GRID_4X4, Lattice(256), 2000, 777,
    )


def _strictly_falling(values) -> bool:
    return all(b < a for a, b in zip(values, values[1:]))


def _schedule_text(values) -> str:
    ns = "/".join(f"{n:g}" for n in FBM_WAVE_SCHEDULE)
    return f"n={ns} " + " -> ".join(f"{v:.3f}" for v in values)


def test_criterion_06_fbm_sheet_convergence():
    start = time.time()
    model = unit_jump_poisson()
    const = normalizing_constant(model, 1.0)
    ok = abs(const - math.sqrt(2.0)) <= 1e-12
    pts = grid_points(GRID_4X4)
    idx = pts.index((1.0, 1.0))
    parts = [f"K={const:.12f} (sqrt 2)"]
    for alpha in (0.6, 0.4):
        k = FbmVolterra(alpha)
        exact = _fbm_wave_exact(alpha, 400.0)
        reps = _fbm_wave_pair(alpha)[0]
        # the cos half is what generate_replicates draws for the same seeds
        head = generate_replicates(
            levy_cos(model, 400.0, 1.0, 2), k, k, GRID_4X4, Lattice(256), 20, 777
        )
        same_draws = np.array_equal(head, reps[:20])
        report = empirical_covariance(reps, pts, exact.cov_cos, zero_mean=False)
        ks = gaussianity_test(
            reps[:, idx] - exact.mean_cos[idx], exact.cov_cos[idx, idx]
        )
        means = [
            float(np.abs(_fbm_wave_exact(alpha, n).mean_cos).max())
            for n in FBM_WAVE_SCHEDULE
        ]
        bias = exact.cov_cos - theoretical_covariance(k, k, pts)
        ok = (
            ok
            and same_draws
            and report.passes(5.0, 0.05)
            and ks.p_value > 0.01
            and _strictly_falling(means)
        )
        parts.append(
            f"alpha={alpha}: residual vs exact (n, M) law max |dev| "
            f"{report.max_abs_deviation:.4f} ({report.max_std_deviation:.2f} SE), "
            f"KS of x - exact mean p={ks.p_value:.2f}; "
            f"bias exact - limit max {float(np.abs(bias).max()):.3f}; "
            f"exact max |mean| {_schedule_text(means)}"
            + ("" if same_draws else "; generate_replicates differs from the cos half")
        )
    elapsed = time.time() - start
    parts.append(f"{elapsed:.1f}s (< 600s)")
    _criterion(6, ok and elapsed < 600.0, "; ".join(parts))


def test_criterion_07_cos_sin_independence():
    start = time.time()
    ok = True
    parts = []
    for alpha in (0.6, 0.4):
        cos_reps, sin_reps = _fbm_wave_pair(alpha)
        report = independence_probe(cos_reps, sin_reps, grid_points(GRID_4X4))
        exact = _fbm_wave_exact(alpha, 400.0).cross
        residual = float(
            (np.abs(report.cross_covariance - exact) / report.std_errors).max()
        )
        crosses = [
            float(np.abs(_fbm_wave_exact(alpha, n).cross).max())
            for n in FBM_WAVE_SCHEDULE
        ]
        ok = ok and residual <= 5.0 and _strictly_falling(crosses)
        parts.append(
            f"alpha={alpha}: residual vs exact cross-cov {residual:.2f} SE "
            f"(allow 5 SE); MC max |cross| "
            f"{float(np.abs(report.cross_covariance).max()):.4f} "
            f"({report.max_std_deviation:.2f} SE from 0); "
            f"exact max |cross| {_schedule_text(crosses)}"
        )
    elapsed = time.time() - start
    parts.append(f"{elapsed:.1f}s")
    _criterion(7, ok, "; ".join(parts))


def _random_step(rng) -> StepFunction:
    pieces = int(rng.integers(2, 5))
    cuts = np.sort(rng.uniform(0.05, 0.95, size=pieces - 1))
    breaks = (0.0, *(float(c) for c in cuts), 1.0)
    values = tuple(float(v) for v in rng.uniform(-2.0, 2.0, size=pieces))
    return StepFunction(breaks, values)


def test_criterion_08_wave_bilinear_moment_bound():
    start = time.time()
    model = unit_jump_poisson()
    spec = levy_cos(model, 100.0, 1.0, 2)
    a_val = exponent(model, 1.0).real
    expected_const = 136.0 * 2.0 / (a_val * a_val)
    rng = np.random.default_rng(88)
    ok = True
    worst_ratio = 0.0
    for i in range(5):
        f, g = _random_step(rng), _random_step(rng)
        report = bilinear_moment_probe(
            spec, f, g, Lattice(64), 5000, 880 + i
        )
        ok = ok and report.passes(5.0)
        ok = ok and abs(report.constant - expected_const) <= 1e-12
        worst_ratio = max(
            worst_ratio, report.ratio.value + 5.0 * report.ratio.std_error
        )
    elapsed = time.time() - start
    _criterion(
        8,
        ok,
        f"second moment vs 136 K^2/a(angle)^2 budget over 5 random step "
        f"pairs, R=5000: worst ratio+5SE {worst_ratio:.4f} (<= 1), "
        f"constant {expected_const:.2f}, {elapsed:.1f}s",
    )


def test_criterion_09_levy_exponent_characteristic_function():
    start = time.time()
    area = 0.75
    n = 1_000_000
    rng = np.random.default_rng(9)
    families = (
        ("deterministic", LevyModel(0.4, 0.3, 1.2, Deterministic(0.9))),
        ("two-point", LevyModel(0.0, -0.2, 2.0, TwoPoint(0.5, -1.1, 0.3))),
        ("gaussian", LevyModel(0.25, 0.0, 1.5, GaussianJump(0.3, 0.6))),
    )
    worst_z = 0.0
    for name, model in families:
        base = model.drift * area + model.sigma * math.sqrt(area) * rng.standard_normal(n)
        counts = rng.poisson(model.jump_rate * area, size=n)
        dist = model.jump_dist
        if isinstance(dist, Deterministic):
            jumps = dist.h * counts
        elif isinstance(dist, TwoPoint):
            ups = rng.binomial(counts, dist.p)
            jumps = dist.h_plus * ups + dist.h_minus * (counts - ups)
        else:
            jumps = rng.normal(counts * dist.mu, dist.tau * np.sqrt(counts))
        samples = base + jumps
        for xi in (0.5, 1.0, 1.7, 2.6):
            psi = exponent(model, xi)
            target = cmath.exp(complex(-area * psi.real, -area * psi.imag))
            for emp, want in (
                (np.cos(xi * samples), target.real),
                (np.sin(xi * samples), target.imag),
            ):
                se = float(emp.std(ddof=1)) / math.sqrt(n)
                worst_z = max(worst_z, abs(float(emp.mean()) - want) / se)
    elapsed = time.time() - start
    _criterion(
        9,
        worst_z <= 5.0,
        f"MC characteristic function vs exp(-area Psi) for 3 jump families "
        f"x 4 frequencies, N=1e6: worst |z| {worst_z:.2f} (<= 5), "
        f"{elapsed:.1f}s",
    )


def test_criterion_10_byte_determinism(tmp_path):
    start = time.time()
    raw = preset("brownian-baseline")
    dirs = [tmp_path / "a", tmp_path / "b"]
    for d in dirs:
        cli_run("covariance", raw, out_dir=str(d))
    names = sorted(p.name for p in dirs[0].iterdir())
    ok = names == sorted(p.name for p in dirs[1].iterdir())
    identical = 0
    for name in names:
        first = (dirs[0] / name).read_bytes()
        second = (dirs[1] / name).read_bytes()
        if name == "provenance.json":
            a, b = (json.loads(x) for x in (first, second))
            a.pop("generated_at")
            b.pop("generated_at")
            ok = ok and a == b
        else:
            ok = ok and first == second
            identical += 1
    elapsed = time.time() - start
    _criterion(
        10,
        ok,
        f"brownian-baseline covariance run repeated: {identical} report "
        f"files byte-identical, provenance equal outside the timestamp "
        f"field, {elapsed:.1f}s",
    )
