"""Approximating field construction: GEMM against the triple-loop oracle,
identities, windowed-field rows, and the approximating field's files as
the simulate command writes them."""
import json

import numpy as np
import pytest

from sheetforge import (
    EvalGrid,
    FbmVolterra,
    Goursat,
    HolmgrenRL,
    Indicator,
    Lattice,
    LipschitzDiff,
    OutOfRange,
    build_approximation,
    integrate_field,
    kac_stroock,
    mix64,
    preset,
    quadrature_rows,
    realize_theta,
    window_quadrature_rows,
)

from sheetforge.cli import run

from triple_loop import triple_loop_field


def _random_kernel(rng):
    roll = rng.integers(0, 5)
    if roll == 0:
        return FbmVolterra(float(rng.uniform(0.15, 0.85)))
    if roll == 1:
        return Indicator()
    if roll == 2:
        return HolmgrenRL(float(rng.uniform(0.15, 0.85)))
    if roll == 3:
        return Goursat(terms=((tuple(rng.uniform(-1, 1, 2)),
                               tuple(rng.uniform(-1, 1, 2))),))
    return LipschitzDiff(xs=(0.0, 0.5, 1.0),
                         ys=(0.0, float(rng.uniform(0.1, 2.0)), 1.0))


# -- evaluation grid -----------------------------------------------------------


def test_eval_grid_validation_and_square():
    g = EvalGrid.square((0.25, 0.5, 1.0))
    assert g.s_points == g.t_points == (0.25, 0.5, 1.0)
    with pytest.raises(OutOfRange):
        EvalGrid((), (0.5,))
    with pytest.raises(OutOfRange):
        EvalGrid((0.5, 0.25), (0.5,))
    with pytest.raises(OutOfRange):
        EvalGrid((0.5, 1.25), (0.5,))


# -- build paths ---------------------------------------------------------------


def test_gemm_matches_naive_on_random_instances():
    rng = np.random.default_rng(64)
    for _ in range(30):
        m = int(rng.integers(2, 33))
        p = int(rng.integers(1, 6))
        theta = rng.standard_normal((m, m))
        k1, k2 = _random_kernel(rng), _random_kernel(rng)
        pts = tuple(sorted(rng.uniform(0.05, 1.0, p)))
        if len(set(pts)) != p:
            continue
        grid = EvalGrid.square(pts)
        fast = build_approximation(theta, k1, k2, grid)
        slow = triple_loop_field(theta, k1, k2, grid)
        scale = max(1.0, np.abs(fast).max())
        np.testing.assert_allclose(fast, slow, rtol=0, atol=1e-10 * scale)


def test_build_is_bilinear_in_theta():
    rng = np.random.default_rng(11)
    m = 16
    v1 = rng.standard_normal((m, m))
    v2 = rng.standard_normal((m, m))
    grid = EvalGrid.square((0.3, 0.7, 1.0))
    k1, k2 = FbmVolterra(0.6), FbmVolterra(0.4)
    combo = build_approximation(2.0 * v1 - 3.0 * v2, k1, k2, grid)
    x1 = build_approximation(v1, k1, k2, grid)
    x2 = build_approximation(v2, k1, k2, grid)
    np.testing.assert_allclose(combo, 2.0 * x1 - 3.0 * x2, rtol=0, atol=1e-12)


def test_kernel_swap_transposes_the_field():
    rng = np.random.default_rng(12)
    v = rng.standard_normal((12, 12))
    grid = EvalGrid.square((0.25, 0.6, 0.9))
    k1, k2 = FbmVolterra(0.7), Indicator()
    direct = build_approximation(v, k1, k2, grid)
    swapped = build_approximation(v.T.copy(), k2, k1, grid)
    np.testing.assert_allclose(direct, swapped.T, rtol=1e-12, atol=1e-14)


def test_zero_coordinate_gives_exact_zero_row():
    theta = np.random.default_rng(1).standard_normal((8, 8))
    grid = EvalGrid((0.0, 0.5, 1.0), (0.0, 1.0))
    x = build_approximation(theta, FbmVolterra(0.3), Indicator(), grid)
    np.testing.assert_array_equal(x[0, :], 0.0)
    np.testing.assert_array_equal(x[:, 0], 0.0)


def test_indicator_kernels_reproduce_integrated_field():
    """With both kernels Indicator, the approximation at the cell corners is
    exactly the primitive zeta (same midpoint quadrature)."""
    lat = Lattice(16)
    theta = realize_theta(kac_stroock(100.0), lat, seed=mix64(5, 0))
    zeta = integrate_field(theta)
    grid = EvalGrid.square(tuple(np.arange(1, 17) / 16))  # the corners i/M
    x = build_approximation(theta, Indicator(), Indicator(), grid)
    np.testing.assert_allclose(x, zeta, rtol=0, atol=1e-12)


# -- windowed auxiliary field --------------------------------------------------


def _window_field(vals, k1, k2, s, s2, t, t2, windows):
    """Y_n on windows x windows: the difference-kernel rows of both axes
    around the midpoint values."""
    m = vals.shape[0]
    a = window_quadrature_rows(k1, m, s, s2, windows)
    b = window_quadrature_rows(k2, m, t, t2, windows)
    return a @ vals @ b.T


def test_window_field_reproduces_rectangle_increment():
    rng = np.random.default_rng(13)
    vals = rng.standard_normal((24, 24))
    k1, k2 = FbmVolterra(0.65), FbmVolterra(0.45)
    s, s2, t, t2 = 0.25, 0.7, 0.4, 0.9
    grid = EvalGrid.square((0.25, 0.4, 0.7, 0.9))  # holds all four corners
    x = build_approximation(vals, k1, k2, grid)
    [[y]] = _window_field(vals, k1, k2, s, s2, t, t2, (1.0,))
    # X(s2,t2) - X(s2,t) - X(s,t2) + X(s,t), at grid indices s=0, t=1, s2=2, t2=3
    expect = x[2, 3] - x[2, 1] - x[0, 3] + x[0, 1]
    assert y == pytest.approx(expect, rel=1e-10, abs=1e-12)


def test_window_field_vanishes_for_empty_rectangle():
    vals = np.random.default_rng(2).standard_normal((8, 8))
    y = _window_field(vals, Indicator(), Indicator(), 0.5, 0.5, 0.2, 0.8, (0.5, 1.0))
    np.testing.assert_array_equal(y, np.zeros((2, 2)))


def test_window_field_partial_kernel_support():
    """For Indicator kernels the windowed row is the overlap indicator, so
    Y(w1, w2) integrates theta over ((s, s2] x (t, t2]) clipped at (w1, w2)."""
    m = 8
    vals = np.random.default_rng(3).standard_normal((m, m))
    s, s2, t, t2 = 0.25, 0.75, 0.0, 0.5
    y = _window_field(vals, Indicator(), Indicator(), s, s2, t, t2, (0.5, 1.0))
    mids = Lattice(m).midpoints()
    sel_s_half = (mids > s) & (mids < min(s2, 0.5))
    sel_t_half = (mids > t) & (mids < min(t2, 0.5))
    expect_half = vals[np.ix_(sel_s_half, sel_t_half)].sum() / (m * m)
    assert y[0, 0] == pytest.approx(expect_half, rel=1e-12)


# -- quadrature row cache ------------------------------------------------------


def test_quadrature_rows_cached_and_write_protected():
    a = quadrature_rows(FbmVolterra(0.6), 16, (0.5, 1.0))
    b = quadrature_rows(FbmVolterra(0.6), 16, (0.5, 1.0))
    assert a is b
    with pytest.raises(ValueError):
        a[0, 0] = 99.0
    # rows are kernel values scaled by the uniform midpoint weight 1/M
    from sheetforge import kernel_row

    row = kernel_row(FbmVolterra(0.6), 1.0, Lattice(16).midpoints())
    np.testing.assert_array_equal(a[1], row / 16.0)


# -- field files --------------------------------------------------------------


def _simulate(out, m, n, overrides):
    """Run simulate on the baseline preset at lattice m and final level n;
    return replicate 0's theta field, its seed and the spec it was drawn
    from."""
    raw = preset("brownian-baseline")
    run("simulate", raw, [f"lattice_m={m}", f"n_schedule=[{n}]", *overrides],
        out_dir=str(out))
    seed = mix64(raw["master_seed"], 0)
    spec = kac_stroock(n)
    return realize_theta(spec, Lattice(m), seed), seed, spec


def test_approx_field_json_round_trip(tmp_path):
    theta, seed, spec = _simulate(tmp_path, 8, 25.0, [
        'kernel1={"kind":"fbm_volterra","alpha":0.6}',
        'eval_grid={"s_points":[0.25,0.5,1.0],"t_points":[0.25,0.5,1.0]}',
    ])
    grid = EvalGrid.square((0.25, 0.5, 1.0))
    x = build_approximation(theta, FbmVolterra(0.6), Indicator(), grid)
    text = (tmp_path / "approx_field.json").read_text()
    assert text.endswith("}\n")
    obj = json.loads(text)
    assert obj["schema"] == "sheetforge/approxfield/1"
    assert obj["grid"] == {"s_points": [0.25, 0.5, 1.0], "t_points": [0.25, 0.5, 1.0]}
    assert set(obj) == {"schema", "grid", "provenance", "values"}
    prov = obj["provenance"]
    assert prov["k1"] == {"alpha": 0.6, "kind": "fbm_volterra"}
    assert prov["lattice_m"] == 8 and prov["seed"] == seed
    assert prov["theta_spec"] == spec.to_json_obj()
    assert np.array(obj["values"]).tobytes() == x.tobytes()


def test_approx_field_csv_contains_provenance(tmp_path):
    theta, seed, spec = _simulate(tmp_path, 4, 4.0, [
        'eval_grid={"s_points":[0.5,1.0],"t_points":[0.5,1.0]}',
    ])
    grid = EvalGrid.square((0.5, 1.0))
    x = build_approximation(theta, Indicator(), Indicator(), grid)
    lines = (tmp_path / "approx_field.csv").read_text().split("\n")
    assert lines[0].startswith("# sheetforge approxfield v1 provenance=")
    prov = json.loads(lines[0].split("provenance=", 1)[1])
    assert prov == {
        "k1": {"kind": "indicator"},
        "k2": {"kind": "indicator"},
        "lattice_m": 4,
        "seed": seed,
        "theta_spec": spec.to_json_obj(),
    }
    # header, column row, one row per s point, each ending in a newline
    assert lines[4:] == [""]
    head = lines[1].split(",")
    assert head[0] == "s\\t"
    assert [float(v) for v in head[1:]] == list(grid.t_points)
    for s, line, row in zip(grid.s_points, lines[2:4], x):
        fields = [float(v) for v in line.split(",")]
        assert fields[0] == s
        assert fields[1:] == row.tolist()
