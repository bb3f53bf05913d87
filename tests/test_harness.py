"""Statistics harness: covariance reports, replicate generation, and the
moment/gaussianity/independence probes, validated against exact discrete
formulas and synthetic calibrations."""
import math
import tracemalloc

import numpy as np
import pytest

from sheetforge import harness
from sheetforge import sheet as sheet_module
from sheetforge import (
    CovarianceReport,
    Deterministic,
    EvalGrid,
    FbmVolterra,
    HolmgrenRL,
    Indicator,
    InsufficientReplicates,
    Lattice,
    LevyModel,
    MomentEstimate,
    OutOfRange,
    StepFunction,
    axis_inner_product,
    bilinear_moment_probe,
    default_zero_mean,
    empirical_covariance,
    gaussianity_test,
    generate_coupled_replicates,
    generate_replicates,
    grid_points,
    increment_profile,
    independence_probe,
    kac_stroock,
    kernel_row,
    levy_cos,
    levy_sin,
    mix64,
    quadrature_rows,
    require_ks_samples,
    simulate_sheet,
    theoretical_covariance,
    unit_jump_poisson,
    WindowScalingSettings,
    window_scaling_probe,
)

from einsum_moments import reference_covariance, reference_cross_covariance
from exact_oracle import exact_cross_covariance, exact_moments, exact_moments_quartic
from triple_loop import reference_theta, sheet_field


def exact_parity_covariance_tensor(n: float, lattice: Lattice) -> np.ndarray:
    """Exact discrete covariance of the parity kernel at unit jump rate:

        E[theta(x_i, y_j) theta(x_k, y_l)] = n^2 sqrt(x_i y_j x_k y_l)
            * exp(-2 n (x_i y_j + x_k y_l - 2 min(x_i, x_k) min(y_j, y_l)))

    from E[(-1)^{N(A)} (-1)^{N(B)}] = exp(-2 |A symm-diff B|) for a unit-rate
    Poisson measure. Axis order of the result: (i, j, k, l)."""
    x = lattice.midpoints()
    xy = np.outer(x, x)
    root = np.sqrt(xy)
    mins = np.minimum.outer(x, x)
    expo = (
        xy[:, :, None, None]
        + xy[None, None, :, :]
        - 2.0 * mins[:, None, :, None] * mins[None, :, None, :]
    )
    return n * n * root[:, :, None, None] * root[None, None, :, :] * np.exp(
        -2.0 * n * expo
    )


# -- theoretical covariance ----------------------------------------------------


def test_grid_points_row_major():
    g = EvalGrid((0.25, 0.5), (0.4, 1.0))
    assert grid_points(g) == ((0.25, 0.4), (0.25, 1.0), (0.5, 0.4), (0.5, 1.0))


def test_axis_inner_product_closed_forms():
    assert axis_inner_product(Indicator(), 0.3, 0.8) == 0.3
    spec = FbmVolterra(0.7)
    s, s2 = 0.4, 0.9
    expected = 0.5 * (s**1.4 + s2**1.4 - 0.5**1.4)
    assert axis_inner_product(spec, s, s2) == pytest.approx(expected, rel=1e-15)
    # no closed form: the quadrature route
    spec = HolmgrenRL(0.7)
    assert axis_inner_product(spec, 0.4, 0.9) == harness._quadrature_inner_product(
        spec, 0.4, 0.9
    )
    with pytest.raises(OutOfRange):
        axis_inner_product(Indicator(), 0.4, 1.2)


def test_axis_inner_product_quadrature_matches_closed():
    for alpha in (0.3, 0.5, 0.7):
        spec = FbmVolterra(alpha)
        for s, s2 in ((0.25, 0.25), (0.25, 0.7), (0.5, 1.0), (1.0, 1.0)):
            closed = axis_inner_product(spec, s, s2)
            quad = harness._quadrature_inner_product(spec, s, s2)
            assert quad == pytest.approx(closed, rel=1e-6)
    assert harness._quadrature_inner_product(Indicator(), 0.0, 0.5) == 0.0


def test_theoretical_covariance_product_structure():
    pts = grid_points(EvalGrid((0.25, 0.5, 0.75, 1.0), (0.25, 0.5, 0.75, 1.0)))
    cov = theoretical_covariance(Indicator(), Indicator(), pts)
    for i, (s, t) in enumerate(pts):
        for j, (s2, t2) in enumerate(pts):
            assert cov[i, j] == min(s, s2) * min(t, t2)
    # mixed fractional kernels: entries factor into the two axis products
    k1, k2 = FbmVolterra(0.6), FbmVolterra(0.4)
    cov = theoretical_covariance(k1, k2, pts)
    i = pts.index((0.5, 0.75))
    j = pts.index((1.0, 0.25))
    expected = axis_inner_product(k1, 0.5, 1.0) * axis_inner_product(k2, 0.75, 0.25)
    assert cov[i, j] == pytest.approx(expected, rel=1e-14)
    assert np.all(np.linalg.eigvalsh(cov) > -1e-8)


def test_theoretical_covariance_quadrature_route(monkeypatch):
    pts = grid_points(EvalGrid((0.35, 0.8), (0.35, 0.8)))
    kernels = ((0.3, 0.7), (0.5, 0.5), (0.7, 0.3))
    closed = [
        theoretical_covariance(FbmVolterra(alpha), FbmVolterra(beta), pts)
        for alpha, beta in kernels
    ]
    # every axis factor by quadrature, closed forms bypassed
    monkeypatch.setattr(harness, "axis_inner_product", harness._quadrature_inner_product)
    for (alpha, beta), want in zip(kernels, closed):
        quad = theoretical_covariance(FbmVolterra(alpha), FbmVolterra(beta), pts)
        assert not np.array_equal(quad, want)
        np.testing.assert_allclose(quad, want, rtol=1e-6)


@pytest.mark.parametrize("k1, k2", [
    (Indicator(), Indicator()),
    (FbmVolterra(0.6), FbmVolterra(0.4)),
    (FbmVolterra(0.3), Indicator()),
])
def test_theoretical_covariance_bytes_match_pairwise_products(k1, k2):
    """The matrix is gathered from per-axis tables; every entry must be the
    bytes of the one product of the two axis factors, each taken with its
    coordinates in ascending order. Points in any order, one repeated."""
    axis = tuple(i / 12 for i in range(1, 13))
    grid = grid_points(EvalGrid(axis, axis))
    pts = [grid[k] for k in np.random.default_rng(12).permutation(len(grid))] + [grid[5]]
    cov = theoretical_covariance(k1, k2, pts)
    want = np.array([
        [axis_inner_product(k1, min(s, s2), max(s, s2))
         * axis_inner_product(k2, min(t, t2), max(t, t2)) for s2, t2 in pts]
        for s, t in pts
    ])
    assert cov.tobytes() == want.tobytes()


# -- empirical covariance ------------------------------------------------------


def test_empirical_covariance_iid_normal_identity():
    rng = np.random.default_rng(505)
    r, p = 4000, 3
    values = rng.standard_normal((r, p))
    pts = ((0.25, 0.25), (0.5, 0.5), (1.0, 1.0))
    for zero_mean in (True, False):
        rep = empirical_covariance(values, pts, np.eye(p), zero_mean=zero_mean)
        assert rep.max_std_deviation <= 5.0
        assert rep.passes()
    # an injected mean breaks the zero-mean route but not the centered one
    shifted = values + 3.0
    rep = empirical_covariance(shifted, pts, np.eye(p), zero_mean=False)
    assert rep.passes()
    rep0 = empirical_covariance(shifted, pts, np.eye(p), zero_mean=True)
    assert not rep0.passes()


def test_empirical_covariance_se_calibration():
    """For iid N(0, 1) data the variance-entry SE must approach
    sqrt(Var[z^2]) / sqrt(R) = sqrt(2 / R)."""
    rng = np.random.default_rng(606)
    r = 20000
    values = rng.standard_normal((r, 1))
    rep = empirical_covariance(values, ((1.0, 1.0),), np.eye(1), zero_mean=True)
    assert rep.std_errors[0, 0] == pytest.approx(math.sqrt(2.0 / r), rel=0.1)


def test_empirical_covariance_zero_field():
    for zero_mean in (True, False):
        rep = empirical_covariance(
            np.zeros((10, 2)), ((0.5, 0.5), (1.0, 1.0)), np.zeros((2, 2)),
            zero_mean=zero_mean,
        )
        assert not rep.std_errors.any()
        assert rep.max_abs_deviation == 0.0
        assert rep.max_std_deviation == 0.0
        assert rep.passes()


def _normwise(got, want) -> float:
    return float(np.linalg.norm(got - want) / np.linalg.norm(want))


def _points(p):
    return tuple((float(i + 1) / p, 1.0) for i in range(p))


@pytest.mark.parametrize("data", ["iid", "correlated", "shifted"])
@pytest.mark.parametrize("zero_mean", [True, False])
def test_empirical_covariance_matches_einsum_oracle(data, zero_mean):
    """The GEMM reduction against the two-pass product-tensor estimator:
    <= 1e-12 normwise relative for the estimate and for its SE."""
    rng = np.random.default_rng(4242)
    values = {
        "iid": lambda: rng.standard_normal((4000, 3)),
        # P = 144, R = 2000, neighbouring points strongly correlated
        "correlated": lambda: np.cumsum(rng.standard_normal((2000, 144)), axis=1) / 12.0,
        "shifted": lambda: rng.standard_normal((3000, 4)) @ rng.standard_normal((4, 4)) + 3.0,
    }[data]()
    p = values.shape[1]
    rep = empirical_covariance(values, _points(p), np.zeros((p, p)), zero_mean)
    emp, se = reference_covariance(values, zero_mean)
    assert _normwise(rep.empirical, emp) <= 1e-12
    assert _normwise(rep.std_errors, se) <= 1e-12
    # the report prints the upper triangle only
    assert np.array_equal(rep.empirical, rep.empirical.T)
    assert np.array_equal(rep.std_errors, rep.std_errors.T)


# The SE comes from the one-pass difference S2 - S1^2/R, whose rounding is at
# most about R * eps * S2. Where the products do not vary that difference is
# rounding alone, and the SE is at most sqrt(eps) times the product's size,
# where the two-pass estimator gets eps times it.
_SQRT_EPS = math.sqrt(np.finfo(float).eps)


def test_empirical_covariance_constant_column():
    """Under zero_mean a constant column has constant products: their SE is
    zero up to rounding of the moment difference, never negative or NaN."""
    rng = np.random.default_rng(99)
    c = 3.7
    values = np.column_stack((np.full(1000, c), rng.standard_normal(1000)))
    rep = empirical_covariance(values, _points(2), np.zeros((2, 2)), zero_mean=True)
    assert np.all(np.isfinite(rep.std_errors)) and np.all(rep.std_errors >= 0.0)
    assert rep.std_errors[0, 0] <= _SQRT_EPS * c * c
    assert rep.empirical[0, 0] == pytest.approx(c * c, rel=1e-14)
    _, se = reference_covariance(values, zero_mean=True)
    assert _normwise(rep.std_errors[1:], se[1:]) <= 1e-12


def test_empirical_covariance_two_replicates_one_point():
    values = np.array([[0.3], [-1.1]])
    for zero_mean in (True, False):
        rep = empirical_covariance(values, _points(1), np.zeros((1, 1)), zero_mean)
        emp, se = reference_covariance(values, zero_mean)
        assert _normwise(rep.empirical, emp) <= 1e-12
        if zero_mean:
            assert _normwise(rep.std_errors, se) <= 1e-12
        else:
            # two centred values are +-d: both products are d^2
            assert rep.std_errors[0, 0] <= _SQRT_EPS * emp[0, 0]


def test_reductions_hold_no_replicate_by_pair_array():
    """At R = 2000, P = 144 the product tensor alone is 332 MiB; the
    reductions must stay within a few (R, P) arrays."""
    rng = np.random.default_rng(1)
    a, b = rng.standard_normal((2, 2000, 144))
    pts, theory = _points(144), np.zeros((144, 144))
    runs = (
        lambda: empirical_covariance(a, pts, theory, zero_mean=True),
        lambda: empirical_covariance(a, pts, theory, zero_mean=False),
        lambda: independence_probe(a, b, pts),
    )
    for run in runs:
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20, peak


def test_independence_probe_validation():
    pts = ((1.0, 1.0),)
    with pytest.raises(OutOfRange, match="replicate counts differ"):
        independence_probe(np.zeros((5, 1)), np.zeros((4, 1)), pts)
    with pytest.raises(OutOfRange, match="points count"):
        independence_probe(np.zeros((5, 1)), np.zeros((5, 2)), pts)
    with pytest.raises(OutOfRange, match="points count"):
        independence_probe(np.zeros(5), np.zeros(5), pts)
    with pytest.raises(InsufficientReplicates):
        independence_probe(np.zeros((1, 1)), np.zeros((1, 1)), pts)


def test_empirical_covariance_validation():
    pts = ((1.0, 1.0),)
    with pytest.raises(InsufficientReplicates):
        empirical_covariance(np.zeros((1, 1)), pts, np.eye(1), zero_mean=True)
    with pytest.raises(OutOfRange):
        empirical_covariance(np.zeros((5, 2)), pts, np.eye(2), zero_mean=True)
    with pytest.raises(OutOfRange):
        empirical_covariance(np.zeros((5, 1)), pts, np.eye(2), zero_mean=True)
    with pytest.raises(InsufficientReplicates):
        MomentEstimate(1.0, 0.1, 1)
    with pytest.raises(OutOfRange):
        MomentEstimate(1.0, -0.1, 5)


def test_covariance_report_serialization_and_floor(tmp_path):
    rng = np.random.default_rng(707)
    values = rng.standard_normal((500, 2))
    pts = ((0.5, 0.5), (1.0, 1.0))
    rep = empirical_covariance(values, pts, np.eye(2), zero_mean=True)
    obj = rep.to_json_obj()
    assert obj["schema"] == "sheetforge/covariance-report/1"
    assert obj["replicates"] == 500
    assert len(obj["points"]) == 2
    text = rep.to_text()
    assert "covariance report" in text and "500 replicates" in text
    path = tmp_path / "cov.csv"
    rep.to_csv(path)
    lines = path.read_text().strip().split("\n")
    assert len(lines) == 1 + 4  # header + entries
    assert lines[0] == "i,j,s,t,s2,t2,empirical,std_error,theoretical"
    for line in lines[1:]:
        fields = line.split(",")
        i, j = int(fields[0]), int(fields[1])
        s, t, s2, t2, emp, se, theo = (float(v) for v in fields[2:])
        assert [s, t] == obj["points"][i] and [s2, t2] == obj["points"][j]
        assert emp == obj["empirical"][i][j]
        assert se == obj["std_errors"][i][j]
        assert theo == obj["theoretical"][i][j]
    # the absolute floor forgives tiny-SE entries with tiny deviations
    small = CovarianceReport(
        points=pts,
        empirical=np.eye(2) + 0.04,
        std_errors=np.full((2, 2), 1e-6),
        theoretical=np.eye(2),
        replicates=500,
        zero_mean=True,
    )
    assert small.passes(se_mult=5.0, floor=0.05)
    assert not small.passes(se_mult=5.0, floor=0.01)


def _reference_report_text(rep):
    """Reference rendering: the per-entry loop that indexes the numpy arrays
    (and recomputes the deviations) entry by entry."""
    lines = [
        f"covariance report: {len(rep.points)} points, "
        f"{rep.replicates} replicates, "
        f"estimator={'zero-mean' if rep.zero_mean else 'mean-subtracted'}",
        f"max |dev| = {rep.max_abs_deviation:.5f}   "
        f"max |dev|/SE = {rep.max_std_deviation:.2f}",
        "  i   j   (s,t)            (s',t')          empirical    theory       dev        SE",
    ]
    n = len(rep.points)
    for i in range(n):
        for j in range(i, n):
            p, q = rep.points[i], rep.points[j]
            lines.append(
                f"{i:3d} {j:3d}   ({p[0]:.3f},{p[1]:.3f})   ({q[0]:.3f},{q[1]:.3f})"
                f"   {rep.empirical[i, j]:+.6f}   {rep.theoretical[i, j]:+.6f}"
                f"   {rep.deviations[i, j]:+.5f}   {rep.std_errors[i, j]:.5f}"
            )
    return "\n".join(lines) + "\n"


def _reference_report_csv(rep):
    out = ["i,j,s,t,s2,t2,empirical,std_error,theoretical\n"]
    n = len(rep.points)
    for i in range(n):
        for j in range(n):
            p, q = rep.points[i], rep.points[j]
            out.append(
                f"{i},{j},{p[0]!r},{p[1]!r},{q[0]!r},{q[1]!r},"
                f"{float(rep.empirical[i, j])!r},"
                f"{float(rep.std_errors[i, j])!r},"
                f"{float(rep.theoretical[i, j])!r}\n"
            )
    return "".join(out)


def test_covariance_report_writers_match_the_entrywise_rendering(tmp_path):
    """Text and CSV read whole rows as Python floats; their bytes equal the
    entry-by-entry rendering, signed zeros, tiny and huge values included."""
    rng = np.random.default_rng(11)
    pts = tuple((s, t) for s in (0.25, 0.5, 1.0 / 3.0) for t in (0.1, 1.0))
    emp = rng.standard_normal((6, 6)) * np.logspace(-12, 8, 36).reshape(6, 6)
    emp[0, 1], emp[2, 2] = -0.0, 0.0
    rep = CovarianceReport(pts, emp, np.abs(rng.standard_normal((6, 6))) / 7.0,
                           rng.standard_normal((6, 6)), 321, False)
    assert rep.to_text() == _reference_report_text(rep)
    rep.to_csv(tmp_path / "cov.csv")
    assert (tmp_path / "cov.csv").read_bytes() == _reference_report_csv(rep).encode()


def _small_reports():
    """One small real report of each kind the CLI writes, by name."""
    rng = np.random.default_rng(5)
    pts = ((0.5, 0.5), (1.0, 1.0))
    first, second = rng.standard_normal((2, 20, 2))
    step = StepFunction((0.0, 0.5, 1.0), (1.0, -1.0))
    windows = ((0.4, 0.5, 0.4, 0.5), (0.4, 0.7, 0.4, 0.7))
    return {
        "covariance": lambda: empirical_covariance(
            rng.standard_normal((20, 2)), pts, np.eye(2), zero_mean=True),
        "independence": lambda: independence_probe(first, second, pts),
        "gaussianity": lambda: gaussianity_test(rng.standard_normal(500), 1.0),
        "bilinear": lambda: bilinear_moment_probe(
            kac_stroock(4.0), step, step, Lattice(8), 10, 1),
        "window-scaling": lambda: window_scaling_probe(
            kac_stroock(50.0), Indicator(), Indicator(),
            WindowScalingSettings(2, (0.0, 1.0, 0.0, 1.0), windows, gamma=0.5),
            Lattice(16), 20, 3),
        "profile": lambda: increment_profile(FbmVolterra(0.75), [(0.25, 0.5)], ())["check"],
    }


@pytest.mark.parametrize("name, schema, keys", [
    ("covariance", "sheetforge/covariance-report/1",
     {"points", "empirical", "std_errors", "theoretical", "replicates", "zero_mean",
      "max_abs_deviation", "max_std_deviation"}),
    ("independence", "sheetforge/independence/1",
     {"points_first", "points_second", "cross_covariance", "std_errors", "replicates",
      "max_std_deviation"}),
    ("gaussianity", "sheetforge/gaussianity/1",
     {"ks_statistic", "p_value", "samples", "sigma2_theory"}),
    ("bilinear", "sheetforge/bilinear-probe/1",
     {"ratio", "second_moment", "constant", "bound_mode", "f", "g"}),
    ("window-scaling", "sheetforge/window-scaling/1",
     {"m_order", "windows", "areas", "moments", "slope", "slope_se", "slope_ci",
      "predicted_min_slope", "heavy_tail"}),
    ("profile", None,
     {"regime", "worst_slack", "worst_pair", "worst_window", "checked_pairs",
      "checked_windows"}),
])
def test_report_json_schema_and_keys(name, schema, keys):
    """The schema string and the exact top-level keys of each written report."""
    report = _small_reports()[name]()
    obj = report if isinstance(report, dict) else report.to_json_obj()
    assert obj.pop("schema", None) == schema
    assert set(obj) == keys


def test_default_zero_mean_policy():
    assert default_zero_mean(kac_stroock(10.0)) is True
    assert default_zero_mean(levy_cos(unit_jump_poisson(), 10.0, 1.0)) is False
    assert default_zero_mean(levy_sin(unit_jump_poisson(), 10.0, 1.0)) is False


# -- replicate generation ------------------------------------------------------


def test_generate_replicates_deterministic_and_prefix_stable():
    """Same (config, seed), same values; replicate r depends on r alone, so a
    shorter run is the first rows of a longer one."""
    spec = kac_stroock(50.0)
    grid = EvalGrid((0.5, 1.0), (0.5, 1.0))
    lat = Lattice(16)
    one = generate_replicates(spec, Indicator(), Indicator(), grid, lat, 40, 123)
    two = generate_replicates(spec, Indicator(), Indicator(), grid, lat, 40, 123)
    np.testing.assert_array_equal(one, two)
    short = generate_replicates(spec, Indicator(), Indicator(), grid, lat, 20, 123)
    np.testing.assert_array_equal(short, one[:20])
    other = generate_replicates(spec, Indicator(), Indicator(), grid, lat, 40, 124)
    assert not np.array_equal(one, other)
    assert one.shape == (40, len(grid_points(grid))) == (40, 4)
    with pytest.raises(InsufficientReplicates):
        generate_replicates(spec, Indicator(), Indicator(), grid, lat, 1, 123)


def test_generate_coupled_replicates_sharing_and_validation():
    """The cos half of a coupled draw is generate_replicates on the same spec
    and seed, bit for bit; the sin half is its LevySin partner's transform of
    the same sheets. Only a LevyCos spec makes a pair."""
    cos_spec = levy_cos(unit_jump_poisson(), 100.0, 1.0, m_guard=4)
    sin_spec = levy_sin(unit_jump_poisson(), 100.0, 1.0, m_guard=4)
    grid = EvalGrid((0.5, 1.0), (0.5, 1.0))
    lat = Lattice(16)
    cset, sset = generate_coupled_replicates(
        cos_spec, Indicator(), Indicator(), grid, lat, 50, 321
    )
    assert cset.shape == sset.shape == (50, 4)
    plain = generate_replicates(cos_spec, Indicator(), Indicator(), grid, lat, 50, 321)
    np.testing.assert_array_equal(cset, plain)
    sin_alone = generate_replicates(sin_spec, Indicator(), Indicator(), grid, lat, 50, 321)
    np.testing.assert_array_equal(sset, sin_alone)
    for not_cos in (sin_spec, kac_stroock(100.0)):
        with pytest.raises(OutOfRange):
            generate_coupled_replicates(
                not_cos, Indicator(), Indicator(), grid, lat, 50, 321
            )


def test_every_replicate_loop_draws_once_per_replicate(monkeypatch):
    """Each replicate loop calls simulate_sheet and theta_values_from_sheet
    through harness's module globals, once per replicate (theta twice for
    the coupled pair): benchmarks and tracers hook those two names."""
    calls = {}

    def counting(name, func):
        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return func(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(harness, "simulate_sheet",
                        counting("sheet", harness.simulate_sheet))
    monkeypatch.setattr(harness, "theta_values_from_sheet",
                        counting("theta", harness.theta_values_from_sheet))
    lat, r = Lattice(8), 6
    grid = EvalGrid((0.5, 1.0), (0.5, 1.0))
    k = Indicator()
    cos_spec = levy_cos(unit_jump_poisson(), 20.0, 1.0)
    one = StepFunction((0.0, 1.0), (1.0,))
    windows = ((0.5, 0.75, 0.5, 0.75), (0.5, 0.9, 0.5, 0.9))
    runs = (
        (lambda: generate_replicates(cos_spec, k, k, grid, lat, r, 1), 1),
        (lambda: generate_coupled_replicates(cos_spec, k, k, grid, lat, r, 1), 2),
        (lambda: bilinear_moment_probe(cos_spec, one, one, lat, r, 1), 1),
        (lambda: window_scaling_probe(
            kac_stroock(20.0), k, k, WindowScalingSettings(2, (0.0, 1.0, 0.0, 1.0), windows),
            lat, r, 1), 1),
    )
    for run, thetas_per_draw in runs:
        calls.clear()
        run()
        assert calls == {"sheet": r, "theta": thetas_per_draw * r}


def test_the_engine_never_builds_the_field_of_a_count_sheet(monkeypatch):
    """Sheets reach theta as blocks, int64 counts for a count sheet and
    float64 values on unit blocks for a sigma > 0 sheet; a sheet holds no
    M x M field for the replicate engine to build."""
    sheets = []

    def keeping(*args):
        sheets.append(simulate_sheet(*args))
        return sheets[-1]

    monkeypatch.setattr(harness, "simulate_sheet", keeping)
    lat, k, grid = Lattice(16), Indicator(), EvalGrid((0.5, 1.0), (0.5, 1.0))
    cos_spec = levy_cos(unit_jump_poisson(), 20.0, 1.0)
    generate_replicates(kac_stroock(20.0), k, k, grid, lat, 4, 1)
    generate_coupled_replicates(cos_spec, k, k, grid, lat, 4, 1)
    noisy = LevyModel(sigma=0.5, jump_rate=1.0, jump_dist=Deterministic(1.0))
    generate_replicates(levy_cos(noisy, 20.0, 1.0), k, k, grid, lat, 4, 1)
    assert len(sheets) == 12
    assert [s.blocks.dtype for s in sheets] == [np.int64] * 8 + [np.float64] * 4


def _assert_matches_dense(specs, lattice, left, right, out, master_seed):
    """Each projection out[k, r] against left @ theta @ right.T, theta the
    full field built elementwise from replicate r's sheet values, normwise
    within 1e-12 of |left| @ |theta| @ |right|.T (the engine sums blocks as
    differences of prefix sums, so near-zero entries carry the rounding of
    the whole row)."""
    for r in range(out.shape[1]):
        sheet = simulate_sheet(specs[0].model, specs[0].n, lattice, mix64(master_seed, r))
        for k, spec in enumerate(specs):
            theta = reference_theta(spec, sheet_field(sheet), lattice)
            want = left @ theta @ right.T
            scale = np.abs(left) @ np.abs(theta) @ np.abs(right).T
            err = np.abs(out[k, r] - want.ravel()).max()
            assert err <= 1e-12 * scale.max(), (spec.kind, r, err / scale.max())


def test_every_probe_matches_the_dense_projection(monkeypatch):
    """generate_replicates, the coupled pair, the bilinear and window probes:
    every engine call against the dense reference, on count sheets and on
    sheets with a Gaussian part (no blocks)."""
    calls = []
    engine = harness._project_replicates

    def capturing(specs, lattice, left, right, replicates, master_seed):
        out = engine(specs, lattice, left, right, replicates, master_seed)
        calls.append((specs, lattice, left, right, out, master_seed))
        return out

    monkeypatch.setattr(harness, "_project_replicates", capturing)
    lat, r = Lattice(32), 12
    k1, k2 = FbmVolterra(0.6), FbmVolterra(0.4)
    grid = EvalGrid((0.25, 0.5, 1.0), (0.3, 1.0))
    f = StepFunction((0.0, 0.4, 1.0), (1.0, -2.0))
    settings = WindowScalingSettings(
        2, (0.1, 0.9, 0.2, 0.8), ((0.4, 0.5, 0.3, 0.5), (0.4, 0.6, 0.3, 0.55)))
    models = (unit_jump_poisson(), LevyModel(sigma=0.5, jump_rate=1.0,
                                             jump_dist=Deterministic(1.0)))
    for model in models:
        cos_spec, sin_spec = levy_cos(model, 50.0, 1.0), levy_sin(model, 50.0, 1.0)
        generate_replicates(cos_spec, k1, k2, grid, lat, r, 3)
        generate_coupled_replicates(cos_spec, k1, k2, grid, lat, r, 4)
        bilinear_moment_probe(sin_spec, f, f, lat, r, 5)
        window_scaling_probe(cos_spec, k1, k2, settings, lat, r, 6)
    generate_replicates(kac_stroock(50.0), k1, k2, grid, lat, r, 7)
    assert len(calls) == 9
    for call in calls:
        _assert_matches_dense(*call)


class _PointsRng:
    """Stands in for the generator: the given (2, T) uniforms are the points."""

    def __init__(self, uniforms):
        self.uniforms = np.asarray(uniforms, dtype=float).reshape(2, -1)

    def poisson(self, lam):
        return self.uniforms.shape[1]

    def random(self, size):
        assert size == self.uniforms.shape
        return self.uniforms.copy()


_TOP = np.nextafter(1.0, 0.0)
# case: (M, n, the points' uniforms or None for a seeded draw, what the blocks show)
_EDGE_SHEETS = {
    "no-points": (16, 1.0, np.empty((2, 0)), lambda s: s.blocks.shape == (1, 1)),
    "last-cell": (16, 1.0, np.full((2, 3), _TOP),
                  lambda s: s.block_ends[0].tolist() == s.block_ends[1].tolist() == [15, 16]),
    "row-0-occupied": (16, 1.0, [[0.0, 0.6], [0.3, 0.0]],
                       lambda s: s.block_ends[0][0] == 0 == s.block_ends[1][0]),
    "m1": (1, 1.0, [[0.2, 0.9, _TOP], [0.1, 0.5, 0.3]],
           lambda s: s.blocks.tolist() == [[0, 0], [0, 3]]),
    "past-the-table": (4, 400.0, None, lambda s: s.blocks[-1, -1] >= s.blocks.size),
    "sparse": (64, 50.0, None, lambda s: 1 < len(s.blocks) < 64),
}


@pytest.mark.parametrize("h", [1.0, -1.0])
@pytest.mark.parametrize("case", sorted(_EDGE_SHEETS))
def test_engine_matches_the_dense_projection_on_edge_sheets(case, h, monkeypatch):
    """No points, every point in cell M - 1, an occupied cell 0 (an empty
    first block), M = 1, a largest count past the block count, and h < 0
    (the +0.0 step): the block projection against the dense reference."""
    m, n, uniforms, shows = _EDGE_SHEETS[case]
    if uniforms is not None:
        monkeypatch.setattr(sheet_module.np.random, "default_rng",
                            lambda _: _PointsRng(uniforms))
    lat = Lattice(m)
    model = LevyModel(jump_rate=1.0, jump_dist=Deterministic(h))
    assert shows(simulate_sheet(model, n, lat, mix64(9, 0)))
    specs = [(levy_cos(model, n, 1.0), levy_sin(model, n, 1.0))]
    if h == 1.0:
        specs.append((kac_stroock(n),))
    points = (0.25, 0.5, 1.0)
    left = quadrature_rows(FbmVolterra(0.6), m, points)
    right = quadrature_rows(FbmVolterra(0.4), m, points[1:])
    for group in specs:
        out = harness._project_replicates(group, lat, left, right, 3, 9)
        _assert_matches_dense(group, lat, left, right, out, 9)


# -- independence probe --------------------------------------------------------


def test_exact_moment_oracle_factorized_matches_quartic():
    """The O(M^2 P^2) prefix-sum oracle against the direct O(M^4)
    contraction at M = 16, for every moment, both row families, distinct
    kernels and grids per axis, and n from 3 to the pinned 400."""
    lat = Lattice(16)
    grid = EvalGrid((0.25, 0.5, 0.75, 1.0), (0.3, 1.0))
    kernels = ((FbmVolterra(0.6), FbmVolterra(0.4)), (Indicator(), Indicator()))
    for n in (3.0, 50.0, 400.0):
        for k1, k2 in kernels:
            spec = levy_cos(unit_jump_poisson(), n, 1.0)
            fast = exact_moments(spec, k1, k2, grid, lat)
            slow = exact_moments_quartic(spec, k1, k2, grid, lat)
            for name in ("mean_cos", "mean_sin", "cov_cos", "cov_sin", "cross"):
                want = getattr(slow, name)
                scale = float(np.abs(want).max())
                assert scale > 0.0
                diff = float(np.abs(getattr(fast, name) - want).max())
                assert diff <= 1e-12 * scale, (n, name, diff / scale)


def test_independence_probe_matches_exact_finite_n_cross_covariance():
    """At finite n the coupled pair is NOT independent; the probe's estimate
    must match the exact discrete cross-covariance (independent oracle)."""
    n, lat = 50.0, Lattice(16)
    grid = EvalGrid((0.5, 1.0), (0.5, 1.0))
    cos_spec = levy_cos(unit_jump_poisson(), n, 1.0)
    cset, sset = generate_coupled_replicates(
        cos_spec, Indicator(), Indicator(), grid, lat, 20000, 13579
    )
    report = independence_probe(cset, sset, grid_points(grid))
    exact = exact_cross_covariance(n, lat, grid)
    assert np.abs(exact).max() > 0.05  # the finite-n systematic is real
    z = np.abs(report.cross_covariance - exact) / report.std_errors
    assert z.max() <= 5.0


def test_independence_probe_on_coupled_pair():
    """At large n the finite-n cross-covariance is far below the Monte Carlo
    noise floor and the 5 SE criterion holds."""
    cos_spec = levy_cos(unit_jump_poisson(), 400.0, 1.0)
    grid = EvalGrid((0.5, 1.0), (0.5, 1.0))
    pts = grid_points(grid)
    cset, sset = generate_coupled_replicates(
        cos_spec, Indicator(), Indicator(), grid, Lattice(64), 1500, 777
    )
    report = independence_probe(cset, sset, pts)
    assert report.replicates == 1500
    assert report.cross_covariance.shape == (4, 4)
    assert report.points_first == report.points_second == pts
    assert report.passes(se_mult=5.0)
    # the probe must have power: a set against itself is maximally dependent
    self_report = independence_probe(cset, cset, pts)
    assert not self_report.passes(se_mult=5.0)
    # the GEMM reduction against the two-pass product-tensor estimator
    cross, se = reference_cross_covariance(cset, sset)
    assert _normwise(report.cross_covariance, cross) <= 1e-12
    assert _normwise(report.std_errors, se) <= 1e-12
    for zero_mean in (True, False):
        rep = empirical_covariance(cset, pts, np.zeros((4, 4)), zero_mean)
        emp, emp_se = reference_covariance(cset, zero_mean)
        assert _normwise(rep.empirical, emp) <= 1e-12
        assert _normwise(rep.std_errors, emp_se) <= 1e-12


# -- step functions and the bilinear probe ---------------------------------------


def test_step_function_norm_and_sampling():
    f = StepFunction(breaks=(0.0, 0.25, 1.0), values=(2.0, -1.0))
    assert f.l2_norm_sq() == pytest.approx(4.0 * 0.25 + 1.0 * 0.75, rel=1e-15)
    np.testing.assert_array_equal(
        f.sample(np.array([0.0, 0.1, 0.25, 0.9, 1.0])), [2.0, 2.0, -1.0, -1.0, -1.0]
    )
    with pytest.raises(OutOfRange):
        StepFunction(breaks=(0.1, 1.0), values=(1.0,))
    with pytest.raises(OutOfRange):
        StepFunction(breaks=(0.0, 0.5, 0.5, 1.0), values=(1.0, 2.0, 3.0))
    with pytest.raises(OutOfRange):
        StepFunction(breaks=(0.0, 1.0), values=(1.0, 2.0))
    with pytest.raises(OutOfRange):
        StepFunction(breaks=(0.0, math.nan, 1.0), values=(1.0, 2.0))


def test_bilinear_probe_second_moment_matches_exact_parity_formula():
    """MC second moment of z = sum u_i theta_ij v_j against the closed-form
    discrete parity covariance (independent oracle)."""
    n = 3.0
    lat = Lattice(4)
    spec = kac_stroock(n)
    f = StepFunction(breaks=(0.0, 0.5, 1.0), values=(1.0, 2.0))
    g = StepFunction(breaks=(0.0, 0.25, 1.0), values=(0.5, 1.5))
    u = f.sample(lat.midpoints()) / lat.m
    v = g.sample(lat.midpoints()) / lat.m
    cov = exact_parity_covariance_tensor(n, lat)
    exact = float(np.einsum("i,j,k,l,ijkl->", u, v, u, v, cov))
    report = bilinear_moment_probe(spec, f, g, lat, replicates=20000, master_seed=42)
    m2 = report.second_moment
    assert abs(m2.value - exact) <= 5.0 * m2.std_error
    assert report.bound_mode is False  # parity kind: constant is informational
    assert report.constant == 1.0


def test_bilinear_probe_wave_bound_holds_with_margin():
    spec = levy_cos(unit_jump_poisson(), 100.0, 1.0)
    f = StepFunction(breaks=(0.0, 1.0), values=(1.0,))
    report = bilinear_moment_probe(spec, f, f, Lattice(64), replicates=800,
                                   master_seed=7)
    assert report.bound_mode is True
    k = math.sqrt(2.0)
    a_val = 1.0 - math.cos(1.0)
    assert report.constant == pytest.approx(136.0 * k * k / a_val**2, rel=1e-12)
    assert report.passes(se_mult=5.0)
    assert report.ratio.value < 0.05  # the bound is far from tight here


def test_bilinear_probe_zero_function():
    spec = kac_stroock(10.0)
    zero = StepFunction(breaks=(0.0, 1.0), values=(0.0,))
    one = StepFunction(breaks=(0.0, 1.0), values=(1.0,))
    report = bilinear_moment_probe(spec, zero, one, Lattice(8), replicates=10,
                                   master_seed=1)
    assert report.second_moment.value == 0.0
    assert report.ratio.value == 0.0


# -- window scaling probe --------------------------------------------------------


def test_window_scaling_moments_match_exact_parity_formula():
    """Each windowed second moment against the exact discrete parity
    covariance summed over the window cells."""
    n = 3.0
    lat = Lattice(8)
    spec = kac_stroock(n)
    windows = ((0.5, 0.75, 0.5, 0.75), (0.5, 0.9, 0.5, 0.9))
    report = window_scaling_probe(
        spec, Indicator(), Indicator(),
        WindowScalingSettings(m_order=2, base_rect=(0.0, 1.0, 0.0, 1.0), windows=windows),
        lattice=lat, replicates=20000, master_seed=11,
    )
    cov = exact_parity_covariance_tensor(n, lat)
    mids = lat.midpoints()
    for (s0, s0p, t0, t0p), moment in zip(windows, report.moments):
        u = np.where((mids > s0) & (mids <= s0p), 1.0 / lat.m, 0.0)
        v = np.where((mids > t0) & (mids <= t0p), 1.0 / lat.m, 0.0)
        exact = float(np.einsum("i,j,k,l,ijkl->", u, v, u, v, cov))
        assert abs(moment.value - exact) <= 5.0 * moment.std_error


def test_window_scaling_slope_near_one_for_second_moment():
    """Anchored shrinking windows: Brownian-sheet limit gives second moments
    proportional to window area, slope 1."""
    spec = kac_stroock(400.0)
    windows = tuple(
        (0.4, 0.4 + w, 0.4, 0.4 + w) for w in (0.1, 0.16, 0.24, 0.32)
    )
    report = window_scaling_probe(
        spec, Indicator(), Indicator(),
        WindowScalingSettings(m_order=2, base_rect=(0.0, 1.0, 0.0, 1.0), windows=windows,
                              gamma=0.5),
        lattice=Lattice(64), replicates=1200, master_seed=99,
    )
    assert not report.heavy_tail
    assert 0.8 < report.slope < 1.2
    assert report.predicted_min_slope == pytest.approx(1.0)
    lo, hi = report.slope_ci
    assert lo < report.slope < hi
    assert hi >= report.predicted_min_slope


def test_window_scaling_heavy_tail_flag():
    spec = kac_stroock(50.0)
    windows = ((0.4, 0.5, 0.4, 0.5), (0.4, 0.7, 0.4, 0.7))
    report = window_scaling_probe(
        spec, Indicator(), Indicator(),
        WindowScalingSettings(m_order=4, base_rect=(0.0, 1.0, 0.0, 1.0), windows=windows),
        lattice=Lattice(16), replicates=8, master_seed=3,
    )
    assert report.heavy_tail is True


def test_window_scaling_validation():
    """The probe's settings are checked where they are built; valid ones
    hold floats."""
    ok = ((0.4, 0.5, 0.4, 0.5), (0.4, 0.7, 0.4, 0.7))
    whole = (0.0, 1.0, 0.0, 1.0)
    with pytest.raises(OutOfRange, match="m_order"):
        WindowScalingSettings(3, whole, ok)
    with pytest.raises(OutOfRange, match="two windows"):
        WindowScalingSettings(2, whole, ok[:1])
    with pytest.raises(OutOfRange, match="s-range"):  # s0' >= 2 s0
        WindowScalingSettings(2, whole, ((0.4, 0.85, 0.4, 0.5),) + ok[:1])
    with pytest.raises(OutOfRange, match="t-range"):  # t0' > 1
        WindowScalingSettings(2, whole, ok[:1] + ((0.6, 0.7, 0.6, 1.1),))
    with pytest.raises(OutOfRange, match="base_rect"):
        WindowScalingSettings(2, (0.5, 0.25, 0.0, 1.0), ok)
    settings = WindowScalingSettings(2, (0, 1, 0, 1), [[0.4, 0.5, 0.4, 0.5], [0.4, 0.7, 0.4, 0.7]],
                                     gamma=1)
    assert settings == WindowScalingSettings(2, whole, ok, gamma=1.0)
    assert all(type(v) is float for v in (*settings.base_rect, *settings.windows[0],
                                          settings.gamma))


def test_window_scaling_probe_matches_inline_mask_reference(monkeypatch):
    """Reference: each window row masks the kernel difference to the
    midpoints in (s0, s0'], and each increment is the einsum contraction of
    those rows with theta. The probe's rows must equal these byte for byte;
    its moments, slope and slope SE match to 1e-12 relative (its projection
    associates the products differently)."""
    spec = levy_cos(unit_jump_poisson(), 50.0, 1.0)
    k1, k2 = FbmVolterra(0.6), FbmVolterra(0.4)
    lat, r, seed = Lattice(32), 300, 17
    base = (0.1, 0.9, 0.2, 0.8)
    windows = ((0.4, 0.5, 0.3, 0.5), (0.4, 0.6, 0.3, 0.55), (0.35, 0.68, 0.4, 0.7))
    seen = []
    engine = harness._project_replicates

    def capturing(specs, lattice, left, right, *rest):
        seen.append((left, right))
        return engine(specs, lattice, left, right, *rest)

    monkeypatch.setattr(harness, "_project_replicates", capturing)
    report = window_scaling_probe(spec, k1, k2, WindowScalingSettings(2, base, windows),
                                  lat, r, seed)

    s, s2, t, t2 = base
    mids = lat.midpoints()
    dk1 = (kernel_row(k1, s2, mids) - kernel_row(k1, s, mids)) * (1.0 / lat.m)
    dk2 = (kernel_row(k2, t2, mids) - kernel_row(k2, t, mids)) * (1.0 / lat.m)
    u_rows = np.array([np.where((mids > s0) & (mids <= s0p), dk1, 0.0)
                       for s0, s0p, _, _ in windows])
    v_rows = np.array([np.where((mids > t0) & (mids <= t0p), dk2, 0.0)
                       for _, _, t0, t0p in windows])
    [(left, right)] = seen
    for got, want in ((left, u_rows), (right, v_rows)):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    incs = np.empty((r, len(windows)))
    for i in range(r):
        sheet = simulate_sheet(spec.model, spec.n, lat, mix64(seed, i))
        th = reference_theta(spec, sheet_field(sheet), lat)
        incs[i] = np.einsum("wi,iw->w", u_rows, th @ v_rows.T)
    powers = incs**2
    vals = powers.mean(axis=0)
    ses = powers.std(axis=0, ddof=1) / math.sqrt(r)
    x = np.log([(s0p - s0) * (t0p - t0) for s0, s0p, t0, t0p in windows])
    y = np.log(vals)
    wgt = (vals / ses) ** 2
    xm, ym = np.average(x, weights=wgt), np.average(y, weights=wgt)
    sxx = float(np.sum(wgt * (x - xm) ** 2))
    slope = float(np.sum(wgt * (x - xm) * (y - ym)) / sxx)
    for moment, v, e in zip(report.moments, vals, ses):
        assert moment.value == pytest.approx(v, rel=1e-12, abs=0.0)
        assert moment.std_error == pytest.approx(e, rel=1e-12, abs=0.0)
    assert report.slope == pytest.approx(slope, rel=1e-12, abs=0.0)
    assert report.slope_se == pytest.approx(math.sqrt(1.0 / sxx), rel=1e-12, abs=0.0)


# -- gaussianity ----------------------------------------------------------------


def test_gaussianity_accepts_matching_normal():
    rng = np.random.default_rng(808)
    samples = rng.normal(0.0, math.sqrt(2.5), size=5000)
    report = gaussianity_test(samples, sigma2_theory=2.5)
    assert report.p_value > 0.01
    assert report.samples == 5000
    # wrong variance is decisively rejected
    bad = gaussianity_test(samples, sigma2_theory=5.0)
    assert bad.p_value < 1e-6


def test_gaussianity_validation():
    with pytest.raises(InsufficientReplicates):
        gaussianity_test(np.zeros(100), 1.0)
    require_ks_samples(500)
    with pytest.raises(InsufficientReplicates, match="needs >= 500 samples, got 499"):
        require_ks_samples(499)
    with pytest.raises(OutOfRange, match="one-dimensional"):
        gaussianity_test(np.zeros((2, 600)), 1.0)
    with pytest.raises(OutOfRange):
        gaussianity_test(np.zeros(600), 0.0)
    with pytest.raises(OutOfRange):
        gaussianity_test(np.zeros(600), math.inf)
    for bad in (math.nan, math.inf, -math.inf):
        samples = np.zeros(600)
        samples[17] = bad
        with pytest.raises(OutOfRange):
            gaussianity_test(samples, 1.0)


# One D per region of Simard & L'Ecuyer (2011) reachable at n > 140, and the
# method each region must call: "smirnov", "durbin", "pelz-good" or none.
KS_REGIONS = {
    "below-support": (lambda n: 0.4 / n, None),
    "ruben-gambino-low": (lambda n: 0.8 / n, None),
    "ruben-gambino-high": (lambda n: 1.0 - 0.5 / n, None),
    "smirnov-exact": (lambda n: 0.6, "smirnov"),
    "zero-tail": (lambda n: math.sqrt(400.0 / n), None),
    "smirnov-tail": (lambda n: math.sqrt(10.0 / n), "smirnov"),
    "durbin": (lambda n: n ** (-2.0 / 3.0), "durbin"),
    "pelz-good": (lambda n: math.sqrt(1.0 / n), "pelz-good"),
    "at-one": (lambda n: 1.0, None),
}


def _ks_region(n, d):
    """The region of (n, d), by the paper's boundaries."""
    t = n * d
    if d >= 1.0:
        return "at-one"
    if t <= 0.5:
        return "below-support"
    if t <= 1.0:
        return "ruben-gambino-low"
    if t >= n - 1:
        return "ruben-gambino-high"
    if d >= 0.5:
        return "smirnov-exact"
    if t * d >= 370.0:
        return "zero-tail"
    if t * d >= 2.2:
        return "smirnov-tail"
    return "durbin" if n * d ** 1.5 <= 1.4 else "pelz-good"


def _spy(real, label, calls):
    def spy(*args):
        calls.append(label)
        return real(*args)
    return spy


@pytest.mark.parametrize("n, region", [
    (n, region) for n in (500, 1000, 2000, 10_000) for region in sorted(KS_REGIONS)
    # n d^2 >= 370 with d < 0.5 needs n > 1480; below that d >= 0.5 is exact.
    if not (region == "zero-tail" and n < 1480)
])
def test_kolmogorov_sf_matches_scipy_bit_for_bit(n, region, monkeypatch):
    """The in-house two-sided KS survival function gives the bytes of
    scipy.stats.kstwo.sf in every region, through the method of that region."""
    from scipy import special, stats

    d_of_n, method = KS_REGIONS[region]
    d = d_of_n(n)
    assert _ks_region(n, d) == region
    called = []
    # _kolmogorov_sf looks smirnov up on scipy.special at call time
    monkeypatch.setattr(special, "smirnov", _spy(special.smirnov, "smirnov", called))
    for name, label in (("_durbin_cdf", "durbin"), ("_pelz_good_cdf", "pelz-good")):
        monkeypatch.setattr(harness, name, _spy(getattr(harness, name), label, called))
    sf = harness._kolmogorov_sf(n, d)
    assert called == ([] if method is None else [method])
    assert sf == float(stats.kstwo.sf(d, n))
    assert type(sf) is float


def test_kolmogorov_sf_durbin_rescales_in_long_double():
    """At n = 500 the Durbin product n!/n^n passes 2^-128 and is rescaled by
    a long double, so the rest of the product runs in long double. With a
    float64 factor this case differs from scipy in the last bit."""
    from scipy import stats

    d = 0.019438661357770053
    assert _ks_region(500, d) == "durbin"
    assert harness._kolmogorov_sf(500, d) == float(stats.kstwo.sf(d, 500))


def test_kolmogorov_sf_refuses_small_n():
    with pytest.raises(OutOfRange):
        harness._kolmogorov_sf(140, 0.05)


def test_gaussianity_matches_scipy_kstest():
    """Statistic and p-value have the bytes of scipy's kstest on the scaled
    samples, over sizes and shifts that reach the Pelz-Good, Durbin and
    Smirnov regions."""
    from scipy import stats

    rng = np.random.default_rng(1414)
    regions = set()
    for i in range(20):
        n = int(rng.integers(500, 4000))
        sigma2 = float(rng.uniform(0.5, 2.0))
        shift = (0.0, 0.02, 0.1)[i % 3]
        samples = rng.normal(shift, math.sqrt(sigma2), size=n)
        report = gaussianity_test(samples, sigma2)
        ref = stats.kstest(samples / math.sqrt(sigma2), "norm")
        assert report.ks_statistic == float(ref.statistic)
        assert report.p_value == float(ref.pvalue)
        regions.add(_ks_region(n, report.ks_statistic))
    assert {"pelz-good", "smirnov-tail"} <= regions


def test_ks_rejection_rate_calibrated():
    """200 independent KS tests of true-null data at level 0.01: the
    rejection count behaves like Binomial(200, 0.01)."""
    rng = np.random.default_rng(909)
    rejections = sum(
        gaussianity_test(rng.standard_normal(1000), 1.0).p_value < 0.01
        for _ in range(200)
    )
    assert rejections <= 8
