"""Exact sheet sampling, lattice geometry and seeds."""
import math

import numpy as np
import pytest
import scipy.stats

from sheetforge import (
    Deterministic,
    GaussianJump,
    Lattice,
    LevyModel,
    OutOfRange,
    TwoPoint,
    integrate_field,
    kac_stroock,
    mix64,
    preset,
    realize_theta,
    simulate_sheet,
    unit_jump_poisson,
)
from sheetforge import sheet as sheet_module
from sheetforge.cli import run
from sheetforge.sheet import sample_increments

from triple_loop import sheet_field


# -- lattice geometry ---------------------------------------------------------


def test_lattice_nodes_and_partition():
    lat = Lattice(4)
    np.testing.assert_array_equal(lat.midpoints(), [0.125, 0.375, 0.625, 0.875])
    w = lat.partition_widths()
    np.testing.assert_array_equal(w, [0.125, 0.25, 0.25, 0.25])
    # cumulative partition boundaries are exactly the midpoints
    np.testing.assert_allclose(np.cumsum(w), lat.midpoints(), rtol=0, atol=1e-15)
    with pytest.raises(OutOfRange):
        Lattice(0)


# -- seed derivation ----------------------------------------------------------


def _splitmix64_reference(master: int, index: int) -> int:
    """Independent transcription of the SplitMix64 finalizer."""
    mask = (1 << 64) - 1
    z = (master + (index + 1) * 0x9E3779B97F4A7C15) & mask
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & mask
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & mask
    return z ^ (z >> 31)


def test_mix64_matches_reference_and_separates_streams():
    for master in (0, 1, 12345, 2**63 - 1):
        for index in (0, 1, 2, 999):
            assert mix64(master, index) == _splitmix64_reference(master, index)
    seeds = {mix64(777, i) for i in range(1000)}
    assert len(seeds) == 1000
    assert mix64(777, 0) == mix64(777, 0)
    with pytest.raises(OutOfRange):
        mix64(777, -1)


# -- exact structural properties of the sheet ---------------------------------


def test_drift_only_sheet_is_exact_product():
    """With no randomness, L(a, b) = drift * a * b, so the node values are
    drift * n * x_i * y_j exactly."""
    model = LevyModel(sigma=0.0, drift=0.75, jump_rate=0.0, jump_dist=None)
    lat = Lattice(8)
    sheet = simulate_sheet(model, n=9.0, lattice=lat, seed=5)
    x = lat.midpoints()
    expected = 0.75 * 9.0 * np.outer(x, x)
    np.testing.assert_allclose(sheet_field(sheet), expected, rtol=0, atol=1e-12)


def test_sheet_values_vanish_on_axes_and_increment_adds_up():
    """With the axes prepended as row and column 0, rectangle increments of
    the unit-jump sheet are Poisson counts: nonnegative integers, the node
    value for a rectangle anchored at the origin, and additive."""
    model = unit_jump_poisson()
    lat = Lattice(8)
    sheet = simulate_sheet(model, n=50.0, lattice=lat, seed=11)
    f = np.pad(sheet_field(sheet), ((1, 0), (1, 0)))

    def rect(i, j, i2, j2):
        return f[i2, j2] - f[i2, j] - f[i, j2] + f[i, j]

    cells = np.diff(np.diff(f, axis=0), axis=1)
    assert np.all(cells >= 0) and np.array_equal(cells, np.round(cells))
    # increments over [0,s]x[0,t] recover node values
    assert rect(0, 0, 6, 3) == f[6, 3]
    # additivity: stacking two adjacent rectangles matches the union
    assert rect(2, 3, 5, 7) + rect(5, 3, 8, 7) == rect(2, 3, 8, 7)


def test_sheet_determinism_and_seed_sensitivity():
    model = unit_jump_poisson()
    lat = Lattice(16)
    one = simulate_sheet(model, 100.0, lat, seed=42)
    two = simulate_sheet(model, 100.0, lat, seed=42)
    np.testing.assert_array_equal(sheet_field(one), sheet_field(two))
    other = simulate_sheet(model, 100.0, lat, seed=43)
    assert not np.array_equal(sheet_field(one), sheet_field(other))


def _reference_counts(rate, n, lattice, seed):
    """Reference oracle: a fixed-jump sheet's cell counts, replaying the
    documented draw order point by point: the total T ~ Poisson(rate n
    (1 - 1/(2M))^2), then T row and T column uniforms, each binned to
    min(floor(U (M - 1/2) + 1/2), M - 1)."""
    m = lattice.m
    rng = np.random.default_rng(np.random.PCG64(seed))
    total = rng.poisson(rate * n * (1.0 - 1.0 / (2 * m)) ** 2)
    rows, cols = rng.random(total), rng.random(total)
    counts = np.zeros((m, m), dtype=np.int64)
    for u, v in zip(rows.tolist(), cols.tolist()):
        counts[min(math.floor(u * (m - 0.5) + 0.5), m - 1),
               min(math.floor(v * (m - 0.5) + 0.5), m - 1)] += 1
    return counts


def _reference_sheet(model, n, lattice, seed):
    """Reference oracle: the node values as the two out-of-place cumsums of
    the same increment draw. A pure fixed-jump model's increments are h
    times its replayed cell counts, +0.0 in empty cells."""
    jd = model.jump_dist
    if model.sigma == 0.0 and model.drift == 0.0 and isinstance(jd, Deterministic):
        inc = jd.h * _reference_counts(model.jump_rate, n, lattice, seed) + 0.0
    else:
        w = lattice.partition_widths()
        rng = np.random.default_rng(np.random.PCG64(seed))
        inc = sample_increments(model, n * np.outer(w, w), rng)
    return inc.cumsum(axis=0).cumsum(axis=1)


_PREFIX_SUM_MODELS = {
    "brownian": LevyModel(sigma=0.7),
    "drift+jumps": LevyModel(drift=-0.3, jump_rate=1.0, jump_dist=Deterministic(1.0)),
    "deterministic": LevyModel(jump_rate=2.0, jump_dist=Deterministic(-0.5)),
    "two-point": LevyModel(jump_rate=1.5, jump_dist=TwoPoint(1.0, -2.0, 0.3)),
    "gaussian-jump": LevyModel(sigma=0.2, jump_rate=1.0, jump_dist=GaussianJump(0.1, 0.5)),
}


# "row-sweep" cases run the prefix sums over 512 or more rows, the sheets an
# earlier row-by-row prefix-sum route served; np.add.accumulate must give the
# same bytes there as on small sheets ("cumsum").
_ROW_SWEEP_ROWS = 512


def _prefix_rows(sheet):
    """Rows the prefix sums of a sheet ran over: its blocks (M unit blocks
    for a sheet that is not a count sheet)."""
    return sheet.blocks.shape[0]


@pytest.mark.parametrize("extra_rows, n", [(_ROW_SWEEP_ROWS, 4000.0), (0, 50.0)],
                         ids=["row-sweep", "cumsum"])
@pytest.mark.parametrize("m", [1, 2, 7, 64])
@pytest.mark.parametrize("name", sorted(_PREFIX_SUM_MODELS))
def test_in_place_prefix_sums_match_cumsum_bytes(name, m, extra_rows, n):
    """The in-place prefix sums give the bytes of cumsum(axis=0).cumsum(axis=1),
    on small sheets and on sheets of 512 or more prefix rows."""
    model = _PREFIX_SUM_MODELS[name]
    lat = Lattice(m + extra_rows)
    sheet = simulate_sheet(model, n, lat, seed=m)
    assert (_prefix_rows(sheet) >= _ROW_SWEEP_ROWS) == (extra_rows > 0)
    got = sheet_field(sheet)
    want = _reference_sheet(model, n, lat, m)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("m, n", [(2 * _ROW_SWEEP_ROWS, 900.0), (16, 30.0)],
                         ids=["row-sweep", "cumsum"])
@pytest.mark.parametrize("h", [1.0, -1.0, 0.5, 0.1, 2.0])
def test_fixed_jump_sheets_carry_their_counts(h, m, n):
    """A pure Deterministic(h) sheet keeps its integer count sheet N, and its
    values are h * N, one rounding per node, with +0.0 in empty cells."""
    lat = Lattice(m)
    model = LevyModel(jump_rate=1.5, jump_dist=Deterministic(h))
    sheet = simulate_sheet(model, n, lat, seed=8)
    assert (_prefix_rows(sheet) >= _ROW_SWEEP_ROWS) == (m > 16)
    want = _reference_counts(1.5, n, lat, 8).cumsum(axis=0).cumsum(axis=1)
    assert sheet.blocks.dtype == np.int64
    np.testing.assert_array_equal(sheet.on_cells(sheet.blocks), want)
    assert np.any(want == 0) and np.any(want > 0)
    values = np.where(want == 0, 0.0, h * want)
    assert not np.signbit(values[want == 0]).any()
    assert sheet_field(sheet).tobytes() == values.tobytes()


@pytest.mark.parametrize("model", [
    LevyModel(sigma=0.7),
    LevyModel(sigma=0.2, jump_rate=1.0, jump_dist=Deterministic(1.0)),
    LevyModel(drift=-0.3, jump_rate=1.0, jump_dist=Deterministic(1.0)),
    LevyModel(jump_rate=1.5, jump_dist=TwoPoint(1.0, -2.0, 0.3)),
    LevyModel(jump_rate=1.0, jump_dist=GaussianJump(0.1, 0.5)),
    LevyModel(jump_rate=0.0, jump_dist=Deterministic(1.0)),
], ids=["brownian", "sigma+jumps", "drift+jumps", "two-point", "gaussian-jump", "rate-0"])
def test_other_sheets_carry_no_counts(model):
    """Every sheet but a pure fixed-jump one holds float64 values on unit
    blocks, one per cell."""
    sheet = simulate_sheet(model, 30.0, Lattice(16), seed=8)
    assert sheet.blocks.dtype == np.float64 and sheet.blocks.shape == (16, 16)
    assert all(np.array_equal(ends, np.arange(1, 17)) for ends in sheet.block_ends)
    assert sheet_field(sheet).tobytes() == sheet.blocks.tobytes()


@pytest.mark.parametrize("m, n", [(1, 0.8), (1, 3.0), (4, 16.5), (64, 30.0)],
                         ids=["m1-sparse", "m1-dense", "m4-dense", "m64-sparse"])
def test_fixed_jump_counts_replay_the_documented_draw(m, n):
    """Sparse and dense sheets (rate * n below and above M^2 points) alike,
    byte for byte against the replayed draw order."""
    lat = Lattice(m)
    sheet = simulate_sheet(unit_jump_poisson(), n, lat, seed=21)
    want = _reference_counts(1.0, n, lat, 21).cumsum(axis=0).cumsum(axis=1)
    counts = sheet.on_cells(sheet.blocks)
    assert counts.dtype == np.int64 and counts.shape == (m, m)
    np.testing.assert_array_equal(counts, want)


def test_fixed_jump_sheet_without_points_is_all_plus_zero():
    sheet = simulate_sheet(LevyModel(jump_rate=1.0, jump_dist=Deterministic(-2.0)),
                           1e-9, Lattice(8), seed=4)
    assert sheet.blocks.dtype == np.int64 and not sheet.blocks.any()
    assert sheet_field(sheet).tobytes() == np.zeros((8, 8)).tobytes()


class _UpperEdgeRng:
    """Stands in for the generator: three points with every uniform at u."""

    def __init__(self, u):
        self.u = u

    def poisson(self, lam):
        return 3

    def random(self, size):
        return np.full(size, self.u)


@pytest.mark.parametrize("u", [np.nextafter(1.0, 0.0), 1.0], ids=["1-2^-53", "1"])
@pytest.mark.parametrize("m", [1, 5, 1024])
def test_points_at_the_upper_edge_fall_in_the_last_cell(m, u, monkeypatch):
    """The largest uniform the generator returns, 1 - 2^-53, bins into the
    last cell; so does 1.0, past its range, through the clip at M - 1."""
    monkeypatch.setattr(sheet_module.np.random, "default_rng", lambda _: _UpperEdgeRng(u))
    sheet = simulate_sheet(unit_jump_poisson(), 1.0, Lattice(m), seed=0)
    counts = sheet.on_cells(sheet.blocks)
    assert counts[-1, -1] == 3 and not counts[:-1].any() and not counts[:, :-1].any()


@pytest.mark.parametrize("n", [8.0, 40.0], ids=["sparse", "dense"])
def test_fixed_jump_counts_follow_the_exact_law(n):
    """Count sheet N of rate 1.5 at M = 4 over 4000 seeds: E N(x_i, y_j) =
    rate n x_i y_j and Cov(N(a), N(b)) = rate n min(x_a, x_b) min(y_a, y_b),
    every one of the 16 means and 136 covariances within 5 SE (z-scores
    against the exact moments)."""
    rate, lat, reps = 1.5, Lattice(4), 4000
    model = LevyModel(jump_rate=rate, jump_dist=Deterministic(1.0))
    sheets = (simulate_sheet(model, n, lat, seed=mix64(2718, r)) for r in range(reps))
    draws = np.array([s.on_cells(s.blocks).ravel() for s in sheets], dtype=float)
    x = np.repeat(lat.midpoints(), 4)
    y = np.tile(lat.midpoints(), 4)
    mean = rate * n * x * y
    z_mean = (draws.mean(axis=0) - mean) / np.sqrt(mean / reps)
    cov = rate * n * np.minimum.outer(x, x) * np.minimum.outer(y, y)
    centred = draws - mean
    products = centred[:, :, None] * centred[:, None, :]
    se = products.std(axis=0, ddof=1) / math.sqrt(reps)
    upper = np.triu_indices(16)
    z_cov = ((products.mean(axis=0) - cov) / se)[upper]
    assert np.max(np.abs(z_mean)) <= 5.0
    assert np.max(np.abs(z_cov)) <= 5.0


def test_simulate_sheet_validates_n():
    with pytest.raises(OutOfRange):
        simulate_sheet(unit_jump_poisson(), 0.0, Lattice(4), seed=1)
    with pytest.raises(OutOfRange):
        simulate_sheet(unit_jump_poisson(), -2.0, Lattice(4), seed=1)


# -- distributional checks ----------------------------------------------------


def test_poisson_cell_counts_goodness_of_fit():
    """At M=4, n=16 the interior sampling cells have scaled area exactly
    (1/4)^2 * 16 = 1, so unit-jump cell increments are Poisson(1) counts.
    Chi-square them against the exact pmf."""
    model = unit_jump_poisson()
    lat = Lattice(4)
    counts = []
    for r in range(2000):
        sheet = simulate_sheet(model, 16.0, lat, seed=mix64(31337, r))
        vals = np.pad(sheet_field(sheet), ((1, 0), (1, 0)))
        inc = np.diff(np.diff(vals, axis=0), axis=1)
        counts.append(inc[1:, 1:].ravel())  # 9 interior cells of area 1
    counts = np.concatenate(counts)
    assert counts.size == 18000
    np.testing.assert_array_equal(counts, np.round(counts))
    kmax = 8
    observed = np.bincount(np.minimum(counts.astype(int), kmax), minlength=kmax + 1)
    pmf = np.array([math.exp(-1.0) / math.factorial(k) for k in range(kmax)])
    pmf = np.append(pmf, 1.0 - pmf.sum())  # lump the tail >= kmax
    result = scipy.stats.chisquare(observed, f_exp=counts.size * pmf)
    assert result.pvalue > 1e-3


def test_disjoint_rectangle_increments_uncorrelated():
    model = unit_jump_poisson()
    lat = Lattice(8)
    a_vals, b_vals = [], []
    for r in range(4000):
        sheet = simulate_sheet(model, 4.0, lat, seed=mix64(909, r))
        f = sheet_field(sheet)
        a_vals.append(f[3, 3] - f[3, 0] - f[0, 3] + f[0, 0])
        b_vals.append(f[7, 7] - f[7, 4] - f[4, 7] + f[4, 4])
    a = np.asarray(a_vals)
    b = np.asarray(b_vals)
    corr = np.corrcoef(a, b)[0, 1]
    assert abs(corr) <= 5.0 / math.sqrt(len(a))


def test_gaussian_jump_increment_moments():
    """Compound Poisson with Gaussian jumps plus diffusion and drift:
    mean = A (drift + rate * mu), var = A (sigma^2 + rate * (mu^2 + tau^2))."""
    model = LevyModel(
        sigma=0.5, drift=1.0, jump_rate=2.0,
        jump_dist=GaussianJump(mu=0.3, tau=0.7),
    )
    area = 1.5
    rng = np.random.default_rng(404)
    draws = sample_increments(model, np.full(100_000, area), rng)
    mean_theory = area * (1.0 + 2.0 * 0.3)
    var_theory = area * (0.25 + 2.0 * (0.09 + 0.49))
    se_mean = draws.std(ddof=1) / math.sqrt(draws.size)
    assert abs(draws.mean() - mean_theory) <= 5.0 * se_mean
    centered_sq = (draws - draws.mean()) ** 2
    se_var = centered_sq.std(ddof=1) / math.sqrt(draws.size)
    assert abs(draws.var(ddof=1) - var_theory) <= 5.0 * se_var


# -- field CSV files ----------------------------------------------------------


def test_gridfield_csv_round_trip_exact(tmp_path):
    """simulate writes each lattice field as a header naming the lattice,
    node kind and meta, then one row of repr floats per node row, which
    read back to the same bytes."""
    raw = preset("brownian-baseline")
    run("simulate", raw, ["lattice_m=5", "n_schedule=[9.0]",
                          'eval_grid={"s_points":[1.0],"t_points":[1.0]}'],
        out_dir=str(tmp_path))
    seed = mix64(raw["master_seed"], 0)
    theta = realize_theta(kac_stroock(9.0), Lattice(5), seed)
    for name, kind, tags, values in (
        ("theta_field.csv", "midpoint", "", theta),
        ("zeta_field.csv", "corner", "integrated=True ", integrate_field(theta)),
    ):
        path = tmp_path / name
        header = path.read_text().split("\n", 1)[0]
        assert header == (f"# sheetforge gridfield v1 {tags}m=5 node_kind={kind} "
                          f"seed={seed} theta_kind=KacStroock")
        g = np.loadtxt(path, skiprows=1, delimiter=",")
        assert g.shape == (5, 5) and g.tobytes() == values.tobytes()
