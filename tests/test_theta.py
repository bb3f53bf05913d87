"""Random-kernel fields: parity and wave kinds, integration."""
import math

import numpy as np
import pytest

from sheetforge import (
    DegenerateAngle,
    Deterministic,
    Lattice,
    LevyModel,
    OutOfRange,
    SheetSample,
    ThetaSpec,
    integrate_field,
    kac_stroock,
    levy_cos,
    levy_sin,
    mix64,
    realize_theta,
    simulate_sheet,
    theta_values_from_sheet,
    unit_jump_poisson,
)

from triple_loop import reference_theta as _reference_theta
from triple_loop import reference_wave as _reference_wave
from triple_loop import sheet_field

ROOT2 = math.sqrt(2.0)


def _envelope(n, lattice):
    x = lattice.midpoints()
    return n * np.sqrt(np.outer(x, x))


# -- spec construction ---------------------------------------------------------


def test_factories_and_normalizers():
    ks = kac_stroock(100.0)
    assert ks.kind == "KacStroock" and ks.normalizer() == 1.0
    assert ks.angle is None and ks.m_guard is None
    lc = levy_cos(unit_jump_poisson(), 400.0, 1.0)
    assert lc.kind == "LevyCos"
    assert abs(lc.normalizer() - ROOT2) < 1e-12
    ls = levy_sin(unit_jump_poisson(), 400.0, 1.0)
    assert ls.kind == "LevySin"


def _non_unit_model():
    from sheetforge import Deterministic, LevyModel

    return LevyModel(sigma=0.0, drift=0.0, jump_rate=1.0, jump_dist=Deterministic(2.0))


def test_spec_validation():
    with pytest.raises(OutOfRange):
        kac_stroock(0.0)
    with pytest.raises(OutOfRange):
        ThetaSpec("KacStroock", 10.0, unit_jump_poisson(), angle=1.0, m_guard=None)
    with pytest.raises(OutOfRange):  # parity kind needs unit deterministic jumps
        ThetaSpec("KacStroock", 10.0, _non_unit_model(), angle=None, m_guard=None)
    with pytest.raises(OutOfRange):
        levy_cos(unit_jump_poisson(), 100.0, 0.0)  # angle must be in (0, 2 pi)
    with pytest.raises(OutOfRange):
        levy_cos(unit_jump_poisson(), 100.0, 1.0, m_guard=3)  # must be even
    with pytest.raises(OutOfRange):
        ThetaSpec("Wavelet", 10.0, unit_jump_poisson(), angle=1.0, m_guard=2)
    # jump_rate * n, the expected jump count of one draw, may reach 1e7
    kac_stroock(1e7)
    levy_cos(unit_jump_poisson(1e5), 100.0, 1.0)
    with pytest.raises(OutOfRange, match="jump_rate"):
        kac_stroock(1e7, rate=1.5)
    with pytest.raises(OutOfRange, match="jump_rate"):
        levy_sin(unit_jump_poisson(1e308), 400.0, 1.0)  # rate * n overflows to inf


def test_degenerate_angle_rejected_at_construction():
    theta = 2.0 * math.pi / 3.0  # a(3 theta) = 1 - cos(2 pi) = 0 exactly
    levy_cos(unit_jump_poisson(), 100.0, theta, m_guard=2)  # guard below 3: fine
    with pytest.raises(DegenerateAngle):
        levy_cos(unit_jump_poisson(), 100.0, theta, m_guard=6)


# -- realized values -----------------------------------------------------------


def test_parity_field_saturates_envelope_exactly():
    lat = Lattice(16)
    th = realize_theta(kac_stroock(50.0), lat, seed=3)
    np.testing.assert_array_equal(np.abs(th), _envelope(50.0, lat))
    signs = th / _envelope(50.0, lat)
    assert set(np.unique(signs)) <= {-1.0, 1.0}


def test_rate_zero_parity_diagnostic_is_deterministic():
    lat = Lattice(8)
    spec = kac_stroock(25.0, rate=0.0)
    th = realize_theta(spec, lat, seed=123)
    np.testing.assert_array_equal(th, _envelope(25.0, lat))


def _frozen_sheet(model, blocks):
    """A sheet of one block per cell: float values L, or int64 counts N."""
    cells = np.arange(1, blocks.shape[0] + 1)
    return SheetSample(model, blocks, (cells, cells))


def test_wave_fields_on_a_frozen_sheet():
    """theta_values_from_sheet gives the transform f of the sheet values,
    without the envelope."""
    unit = unit_jump_poisson()
    spec_c = levy_cos(unit, 9.0, 1.3)
    spec_s = levy_sin(unit, 9.0, 1.3)
    zero_sheet = _frozen_sheet(unit, np.zeros((4, 4)))
    np.testing.assert_array_equal(theta_values_from_sheet(spec_c, zero_sheet), np.ones((4, 4)))
    np.testing.assert_array_equal(
        theta_values_from_sheet(spec_s, zero_sheet), np.zeros((4, 4))
    )
    counts = np.arange(16).reshape(4, 4)
    for sheet in (_frozen_sheet(unit, counts * 1.0), _frozen_sheet(unit, counts)):
        np.testing.assert_array_equal(
            theta_values_from_sheet(spec_c, sheet), np.cos(1.3 * counts)
        )


def _same_bytes(a, b) -> bool:
    """Equal dtype, shape and bytes: signed zeros and NaN payloads count."""
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _fixed_jump(h: float) -> LevyModel:
    return LevyModel(sigma=0.0, drift=0.0, jump_rate=1.0, jump_dist=Deterministic(h))


def _specs_for(model, n):
    specs = [levy_cos(model, n, 1.0), levy_sin(model, n, 1.0)]
    if model == unit_jump_poisson():
        specs.append(kac_stroock(n))
    return specs


def _check_count_sheet_theta(sheet, n, lat, seed):
    """For a count sheet drawn at scale n with seed, its transform on its
    blocks, spread over the cells, and realize_theta's field both have the
    bytes of the elementwise reference.
    The counts alone give them: a copy whose blocks are the M x M counts
    gives the same bytes."""
    m = lat.m
    blind = _frozen_sheet(sheet.model, sheet.on_cells(sheet.blocks))
    assert blind.blocks.shape == (m, m) and blind.blocks.dtype == np.int64
    for spec in _specs_for(sheet.model, n):
        wave = theta_values_from_sheet(spec, sheet)
        assert wave.shape == sheet.blocks.shape
        want = _reference_wave(spec, sheet_field(sheet))
        assert _same_bytes(sheet.on_cells(wave), want), spec.kind
        assert _same_bytes(theta_values_from_sheet(spec, blind), want), spec.kind
        theta = realize_theta(spec, lat, seed)
        assert _same_bytes(theta, _reference_theta(spec, sheet_field(sheet), lat))


@pytest.mark.parametrize("m, n", [(7, 40.0), (64, 400.0)])
@pytest.mark.parametrize("h", [1.0, -1.0, 0.5, 0.1, 2.0])
def test_lattice_sheets_take_the_count_table_byte_identically(h, m, n):
    """n keeps the largest count below the block and cell counts, the
    longest table taken."""
    lat = Lattice(m)
    sheet = simulate_sheet(_fixed_jump(h), n, lat, seed=31 + m)
    blocks = sheet.blocks
    counts = sheet.on_cells(blocks)
    assert blocks[-1, -1] == counts.max() and 0 < counts.max() < counts.size <= blocks.size
    # empty cells hold +0.0; for h < 0 the table's zero step must too
    assert np.any(counts == 0)
    _check_count_sheet_theta(sheet, n, lat, 31 + m)


@pytest.mark.parametrize("h", [1.0, -1.0, 0.1])
def test_count_sheets_past_the_table_size_take_the_elementwise_path(h):
    """A largest count of the block count or more: the table is longer
    than the blocks, and its gathered f keeps the elementwise bytes."""
    lat = Lattice(7)
    sheet = simulate_sheet(_fixed_jump(h), 400.0, lat, seed=3)
    assert sheet.blocks.max() >= sheet.blocks.size
    _check_count_sheet_theta(sheet, 400.0, lat, 3)


def test_sheets_without_counts_take_the_elementwise_path():
    lat = Lattice(16)
    for model in (
        LevyModel(sigma=0.5, jump_rate=1.0, jump_dist=Deterministic(1.0)),
        LevyModel(drift=0.25, jump_rate=1.0, jump_dist=Deterministic(1.0)),
    ):
        sheet = simulate_sheet(model, 100.0, lat, seed=5)
        cells = np.arange(1, 17)
        assert sheet.blocks.dtype == np.float64 and sheet.blocks.shape == (16, 16)
        assert all(np.array_equal(ends, cells) for ends in sheet.block_ends)
        for spec in _specs_for(model, 100.0):
            want = _reference_wave(spec, sheet_field(sheet))
            assert _same_bytes(theta_values_from_sheet(spec, sheet), want), spec.kind
            theta = realize_theta(spec, lat, seed=5)
            assert _same_bytes(theta, _reference_theta(spec, sheet_field(sheet), lat))


def test_wave_envelope_bound_holds_pointwise():
    lat = Lattice(32)
    spec = levy_cos(unit_jump_poisson(), 200.0, 1.0)
    th = realize_theta(spec, lat, seed=77)
    bound = spec.normalizer() * _envelope(200.0, lat)
    assert np.all(np.abs(th) <= bound * (1.0 + 1e-12))


def test_realization_determinism():
    lat = Lattice(16)
    spec = levy_cos(unit_jump_poisson(), 100.0, 1.0)
    a = realize_theta(spec, lat, seed=5)
    b = realize_theta(spec, lat, seed=5)
    np.testing.assert_array_equal(a, b)
    c = realize_theta(spec, lat, seed=6)
    assert not np.array_equal(a, c)


# -- integration ---------------------------------------------------------------


def test_integrate_field_cumulative_midpoint_sums():
    lat = Lattice(4)
    spec = kac_stroock(10.0)
    th = realize_theta(spec, lat, seed=9)
    zeta = integrate_field(th)
    assert zeta.shape == (4, 4)
    # zeta(1, 1) is the full midpoint sum with uniform weight 1/M^2
    assert zeta[3, 3] == pytest.approx(th.sum() / 16.0, rel=1e-14)
    # zeta at interior corner (i/M, j/M) sums the first i x j cells
    assert zeta[1, 2] == pytest.approx(th[:2, :3].sum() / 16.0, rel=1e-14)


def test_parity_primitive_variance_near_product():
    """E[zeta(1,1)^2] -> min(s,s') min(t,t') = 1 at (1, 1); checked by direct
    Monte Carlo on the parity kind."""
    lat = Lattice(128)
    spec = kac_stroock(100.0)
    r = 1200
    vals = np.empty(r)
    for i in range(r):
        th = realize_theta(spec, lat, seed=mix64(2718, i))
        vals[i] = th.sum() / (128.0 * 128.0)
    second = vals**2
    se = second.std(ddof=1) / math.sqrt(r)
    assert abs(second.mean() - 1.0) <= max(5.0 * se, 0.05)
    # and the field is centered: mean within 5 SE of zero
    se_mean = vals.std(ddof=1) / math.sqrt(r)
    assert abs(vals.mean()) <= 5.0 * se_mean
