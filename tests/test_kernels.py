"""Volterra kernels: pointwise values, squared increments, and profiles."""
import dataclasses
import json
import math
import typing

import numpy as np
import pytest

from sheetforge import (
    ConfigError,
    FbmVolterra,
    Goursat,
    HolmgrenRL,
    Indicator,
    LipschitzDiff,
    OutOfRange,
    ProfileViolation,
    increment_l2,
    increment_profile,
    kernel_matrix,
    kernel_row,
    kernels,
    volterra_constant,
    windowed_increment_l2,
)
from sheetforge.jsonio import decode_kind
from sheetforge.kernels import KernelSpec, _fbm_inner_depth, _gamma
from sheetforge.quadrature import dyadic_unit_nodes
from sheetforge.sheet import Lattice

from triple_loop import kernel_at

KERNEL_KINDS = {cls.KIND: cls for cls in typing.get_args(KernelSpec)}

# oracle-frozen constants: 50-digit quadrature/special-function evaluation of
# the normalizing constant and of kernel point values, rounded to float64
D_ALPHA = {
    0.3: 0.73028293407992297,
    0.4: 0.88072568336372688,
    0.6: 1.0760051841318072,
    0.75: 1.0696446350319903,
}
KERNEL_SPOTS = (
    (0.3, 0.9, 0.2, 0.86747520530512519),
    (0.7, 0.8, 0.5, 0.87350694576675942),
    (0.6, 1.0, 0.125, 1.0955895443813924),
)
POW_03_14 = 0.18534025517022358  # 0.3 ** 1.4


# -- normalizing constant ------------------------------------------------------


def test_volterra_constant_frozen_values():
    for alpha, expected in D_ALPHA.items():
        assert volterra_constant(alpha) == pytest.approx(expected, rel=1e-13)
    assert volterra_constant(0.5) == 1.0


def test_volterra_constant_domain():
    for bad in (0.0, 1.0, -0.3, 1.7):
        with pytest.raises(OutOfRange):
            volterra_constant(bad)


# -- pointwise kernel values ---------------------------------------------------


def _bits(values) -> np.ndarray:
    return np.asarray(values, dtype=np.float64).view(np.int64)


def _volterra_alphas() -> np.ndarray:
    """A dense grid over (0, 1), and alpha within 1e-10 of each end: there
    2 - 2 alpha < 1e-9 reaches Cephes' small-argument branch."""
    ends = np.logspace(-16, -10, 25)
    return np.concatenate([np.linspace(0.0, 1.0, 20_001)[1:-1], ends, 1.0 - ends,
                           [np.nextafter(0.0, 1.0), np.nextafter(1.0, 0.0)]])


def test_gamma_port_has_scipy_bits_on_every_volterra_argument():
    special = pytest.importorskip("scipy.special")
    alphas = _volterra_alphas()
    args = np.concatenate([1.5 - alphas, alphas + 0.5, 2.0 - 2.0 * alphas])
    assert (args < 1e-9).any()
    ours = [_gamma(float(x)) for x in args]
    assert np.array_equal(_bits(ours), _bits(special.gamma(args)))


def test_gamma_port_has_scipy_bits_on_random_arguments():
    special = pytest.importorskip("scipy.special")
    args = np.random.default_rng(28).uniform(0.0, 3.5, 100_000)
    ours = [_gamma(float(x)) for x in args]
    assert np.array_equal(_bits(ours), _bits(special.gamma(args)))


def test_volterra_constant_has_the_bits_of_the_scipy_formula():
    special = pytest.importorskip("scipy.special")
    for alpha in _volterra_alphas()[::7]:
        alpha = float(alpha)
        num = 2.0 * alpha * special.gamma(1.5 - alpha)
        den = special.gamma(alpha + 0.5) * special.gamma(2.0 - 2.0 * alpha)
        assert _bits(volterra_constant(alpha)) == _bits(math.sqrt(num / den))


def _fbm_row_unchunked(alpha: float, t: float, r: np.ndarray) -> np.ndarray:
    """K(t, r) of FbmVolterra(alpha), its inner quadrature evaluated on all
    of the support at once as one (values, nodes) array."""
    out = np.zeros_like(r)
    mask = (r > 0.0) & (r < t)
    if not mask.any():
        return out
    rs = r[mask]
    V = np.sqrt(t - rs)
    w, om = dyadic_unit_nodes(_fbm_inner_depth(alpha, float(rs.min())),
                              kernels._INNER_ORDER)
    rr = rs[:, None]
    vw2 = (V * V)[:, None] * (w * w)[None, :]
    g = 1.0 - (rr / (rr + vw2)) ** (0.5 - alpha)
    vals = w[None, :] ** (2.0 * alpha - 2.0) * g
    inner = 2.0 * V ** (2.0 * alpha - 1.0) * np.sum(vals * om[None, :], axis=-1)
    c = volterra_constant(alpha)
    out[mask] = c * (t - rs) ** (alpha - 0.5) + c * (0.5 - alpha) * inner
    return out


@pytest.mark.parametrize("m", [1000, 4096])
@pytest.mark.parametrize("alpha", [0.3, 0.6, 0.8])
def test_chunked_fbm_rows_have_the_bytes_of_one_block(m, alpha):
    mids = Lattice(m).midpoints()
    ts = [0.1, 0.25, 0.5, 0.75, 1.0]
    want = np.array([_fbm_row_unchunked(alpha, t, mids) for t in ts])
    assert np.array_equal(_bits(kernel_matrix(FbmVolterra(alpha), ts, mids)), _bits(want))


def test_fbm_kernel_frozen_spot_values():
    for alpha, t, r, expected in KERNEL_SPOTS:
        assert kernel_at(FbmVolterra(alpha), t, r) == pytest.approx(
            expected, rel=1e-8
        )


def test_kernel_vanishes_outside_support():
    spec = FbmVolterra(0.7)
    assert kernel_at(spec, 0.5, 0.0) == 0.0
    assert kernel_at(spec, 0.5, 0.5) == 0.0
    assert kernel_at(spec, 0.5, 0.9) == 0.0
    assert kernel_at(spec, 0.0, 0.0) == 0.0
    assert kernel_at(Indicator(), 0.6, 0.599) == 1.0
    assert kernel_at(Indicator(), 0.6, 0.6) == 0.0


def test_alpha_half_is_exactly_indicator():
    r = np.linspace(0.0, 1.0, 41)
    for t in (0.3, 0.55, 1.0):
        np.testing.assert_array_equal(
            kernel_row(FbmVolterra(0.5), t, r), kernel_row(Indicator(), t, r)
        )


def test_matrix_row_and_pointwise_evaluation_consistent():
    spec = FbmVolterra(0.35)
    rs = np.linspace(0.0, 1.0, 17)
    ts = [0.2, 0.6, 1.0]
    mat = kernel_matrix(spec, ts, rs)
    assert mat.shape == (3, 17)
    for k, t in enumerate(ts):
        # matrix rows are bit-identical to row evaluation on the same array
        np.testing.assert_array_equal(mat[k], kernel_row(spec, t, rs))
        # against a batch row, a one-element row differs only in the
        # quadrature depth (it adapts to the smallest r in the batch), so
        # agreement there is near machine level
        for j, r in enumerate(rs):
            assert kernel_at(spec, t, float(r)) == pytest.approx(
                mat[k, j], rel=1e-12, abs=1e-15
            )


def test_other_kernel_families_pointwise():
    assert kernel_at(HolmgrenRL(0.7), 0.8, 0.3) == pytest.approx(
        math.sqrt(2.0 * math.pi) * 0.5**0.2, rel=1e-12
    )
    goursat = Goursat(terms=(((0.0, 1.0), (1.0, 1.0)),))  # K(t, r) = t (1 + r)
    assert kernel_at(goursat, 0.6, 0.25) == pytest.approx(0.75, rel=1e-14)
    table = LipschitzDiff(xs=(0.0, 1.0), ys=(0.0, 2.0))  # K(t, r) = 2 (t - r)
    assert kernel_at(table, 0.9, 0.4) == pytest.approx(1.0, rel=1e-14)


def test_kernel_row_validates_arguments():
    spec = Indicator()
    with pytest.raises(OutOfRange):
        kernel_row(spec, 1.5, np.array([0.2]))
    with pytest.raises(OutOfRange):
        kernel_row(spec, 0.5, np.array([[0.2]]))
    with pytest.raises(OutOfRange):
        kernel_row(spec, 0.5, np.array([-0.1]))
    with pytest.raises(OutOfRange):
        kernel_at(spec, 0.5, 1.2)


# -- squared increments --------------------------------------------------------


def test_indicator_increment_is_length():
    assert increment_l2(Indicator(), 0.0, 0.5) == pytest.approx(0.5, rel=1e-13)
    assert increment_l2(Indicator(), 0.25, 0.75) == pytest.approx(0.5, rel=1e-13)
    assert increment_l2(Indicator(), 0.3, 0.3) == 0.0


def test_fbm_increment_frozen_value():
    got = increment_l2(FbmVolterra(0.7), 0.0, 0.3)
    assert got == pytest.approx(POW_03_14, rel=1e-5)


def test_fbm_increment_normalization_spots():
    for alpha in (0.3, 0.6):
        got = increment_l2(FbmVolterra(alpha), 0.0, 0.5)
        assert got == pytest.approx(0.5 ** (2 * alpha), rel=2e-3)


def test_fbm_increment_stationarity_away_from_origin():
    # the squared increment depends only on s2 - s
    got = increment_l2(FbmVolterra(0.7), 0.2, 0.5)
    assert got == pytest.approx(POW_03_14, rel=2e-3)


def test_holmgren_increment_closed_form():
    # int_0^s 2 pi (s - r)^(2h - 1) dr = pi s^(2h) / h
    h, s = 0.7, 0.5
    got = increment_l2(HolmgrenRL(h), 0.0, s)
    assert got == pytest.approx(math.pi * s ** (2 * h) / h, rel=1e-5)


def test_goursat_increment_closed_form():
    # K(s, r) = s (1 + r): the difference is (s2 - s)(1 + r) for r < s and
    # s2 (1 + r) for s <= r < s2; integrate (1 + r)^2 exactly
    goursat = Goursat(terms=(((0.0, 1.0), (1.0, 1.0)),))
    s, s2 = 0.3, 0.8

    def cube(r):
        return (1.0 + r) ** 3 / 3.0

    expected = (s2 - s) ** 2 * (cube(s) - cube(0.0)) + s2**2 * (cube(s2) - cube(s))
    assert increment_l2(goursat, s, s2) == pytest.approx(expected, rel=1e-10)


def test_lipschitz_table_increment_closed_form():
    table = LipschitzDiff(xs=(0.0, 1.0), ys=(0.0, 2.0))  # K(t, r) = 2 (t - r)
    s, s2 = 0.25, 0.65
    expected = 4.0 * (s2 - s) ** 2 * s + 4.0 * (s2 - s) ** 3 / 3.0
    assert increment_l2(table, s, s2) == pytest.approx(expected, rel=1e-10)


def test_increment_l2_validates_order():
    with pytest.raises(OutOfRange):
        increment_l2(Indicator(), 0.6, 0.4)
    with pytest.raises(OutOfRange):
        increment_l2(Indicator(), -0.1, 0.4)


def test_windowed_increment_indicator_overlap():
    # the indicator difference is 1 exactly on (s, s2), so the windowed
    # integral is the overlap length of (s, s2) with the window
    cases = (
        ((0.2, 0.6), (0.0, 1.0), 0.4),
        ((0.2, 0.6), (0.3, 0.5), 0.2),
        ((0.2, 0.6), (0.5, 0.9), 0.1),
        ((0.2, 0.6), (0.7, 0.9), 0.0),
    )
    for (s, s2), (lo, hi), expected in cases:
        got = windowed_increment_l2(Indicator(), s, s2, lo, hi)
        assert got == pytest.approx(expected, rel=1e-12, abs=1e-14)
    with pytest.raises(OutOfRange):
        windowed_increment_l2(Indicator(), 0.2, 0.6, 0.5, 1.5)


def test_windowed_integrals_sum_to_full_increment():
    spec = FbmVolterra(0.4)
    s, s2 = 0.2, 0.7
    total = increment_l2(spec, s, s2)
    parts = sum(
        windowed_increment_l2(spec, s, s2, lo, hi)
        for lo, hi in ((0.0, 0.2), (0.2, 0.45), (0.45, 0.7), (0.7, 1.0))
    )
    assert parts == pytest.approx(total, rel=1e-6)


# -- increment profiles --------------------------------------------------------


PAIRS = ((0.0, 0.25), (0.0, 1.0), (0.1, 0.3), (0.25, 0.75), (0.5, 0.9))
WINDOWS = ((0.0, 0.25), (0.25, 0.5), (0.0, 0.5), (0.4, 1.0), (0.0, 1.0))


def test_default_profile_regimes():
    fbm_smooth = increment_profile(FbmVolterra(0.7), PAIRS, WINDOWS)["profile"]
    assert fbm_smooth["regime"] == "superlinear"
    assert fbm_smooth["exponent"] == pytest.approx(1.4)
    assert increment_profile(FbmVolterra(0.4), PAIRS, WINDOWS)["profile"]["regime"] == "windowed"
    indicator = increment_profile(Indicator(), PAIRS, WINDOWS)["profile"]
    assert indicator["regime"] == "windowed"
    assert indicator["exponent"] == 1.0
    assert indicator["g"] == {"scale": 1.0, "power": 1.0}
    goursat = Goursat(terms=(((1.0,), (1.0,)),))
    assert increment_profile(goursat, PAIRS, WINDOWS)["profile"]["regime"] == "windowed"
    # G(s) = C^(1/power) s carries the family's increment constant
    holmgren = increment_profile(HolmgrenRL(0.8), PAIRS, WINDOWS)["profile"]
    assert holmgren["regime"] == "superlinear"
    assert holmgren["exponent"] == pytest.approx(1.6)
    assert holmgren["g"]["scale"] ** 1.6 == pytest.approx(HolmgrenRL(0.8).increment_constant)


def test_superlinear_profile_holds_with_near_zero_slack():
    # for the fractional kernel the bound is the exact increment identity,
    # so the worst slack is pure quadrature error
    check = increment_profile(FbmVolterra(0.7), PAIRS, ())["check"]
    assert check["regime"] == "superlinear"
    assert check["checked_pairs"] == len(PAIRS)
    assert abs(check["worst_slack"]) < 1e-6


def test_windowed_profile_fit_and_check():
    report = increment_profile(FbmVolterra(0.4), PAIRS, WINDOWS)
    profile, check = report["profile"], report["check"]
    assert profile["m_bound"] > 0.0 and 0.0 < profile["beta"] <= 1.0
    assert check["checked_windows"] == len(PAIRS) * len(WINDOWS)
    assert check["worst_slack"] >= -1e-9


def test_profile_violation_raises_with_details():
    # K = 10 on 0 < r < t: the increment 100 (s2 - s) exceeds the bound s2 - s
    with pytest.raises(ProfileViolation) as exc:
        increment_profile(Goursat(terms=(((10.0,), (1.0,)),)), ((0.0, 0.5),), WINDOWS)
    err = exc.value
    assert err.pair == (0.0, 0.5)
    assert err.bound == 0.5
    assert err.value == pytest.approx(50.0, rel=1e-12)


@pytest.mark.parametrize("spec", [FbmVolterra(0.3), FbmVolterra(0.7)])
def test_profile_checks_its_pairs_before_it_integrates(spec):
    """Windowed and superlinear kernels alike refuse an empty pair list or
    a pair without 0 <= s < s2 <= 1 before any integral is fitted."""
    with pytest.raises(OutOfRange, match="need at least one"):
        increment_profile(spec, [], WINDOWS)
    for pair in ((0.3, 0.3), (0.5, 0.25)):
        with pytest.raises(OutOfRange, match="bad pair"):
            increment_profile(spec, [pair], WINDOWS)


@pytest.mark.parametrize("h", [0.3, 0.8])
def test_holmgren_increments_stay_below_the_family_constant(h):
    """int (dK)^2 <= C_h (s2 - s)^(2h) on every pair. Near the diagonal away
    from 0 the ratio falls short of C_h only by the part of the (-oo, s2]
    integral below 0: 2 pi (h-1/2)^2 / (2-2h) s^(2h-2) (s2-s)^(2-2h) to
    leading order, 1.8e-8 at h = 0.3 and 0.014 at h = 0.8 on (0.99, 0.99001)."""
    spec = HolmgrenRL(h)
    c = spec.increment_constant
    for s, s2 in (*PAIRS, (0.3, 0.31), (0.5, 0.5001)):
        assert increment_l2(spec, s, s2) <= c * (s2 - s) ** spec.power
    s, s2 = 0.99, 0.99001
    tail = 2 * math.pi * (h - 0.5) ** 2 / (2 - 2 * h) * s ** (2 * h - 2) * (s2 - s) ** (2 - 2 * h)
    ratio = increment_l2(spec, s, s2) / (s2 - s) ** spec.power
    assert ratio == pytest.approx(c - tail, abs=1e-3)
    assert HolmgrenRL(0.5).increment_constant == pytest.approx(2 * math.pi, rel=1e-15)


@pytest.mark.parametrize("spec, per_pair", [(FbmVolterra(0.4), 1 + len(WINDOWS)),
                                            (FbmVolterra(0.7), 1)])
def test_profile_integrates_each_pair_and_window_once(spec, per_pair, monkeypatch):
    """A windowed kernel integrates each (pair, window) once, for the fit
    and the slacks both, and each pair once more (increment_l2); a
    superlinear kernel integrates each pair only."""
    calls = []

    def counted(*args, _inner=kernels.windowed_increment_l2):
        calls.append(args)
        return _inner(*args)

    monkeypatch.setattr(kernels, "windowed_increment_l2", counted)
    increment_profile(spec, PAIRS, WINDOWS)
    assert len(calls) == per_pair * len(PAIRS)


# -- serialization -------------------------------------------------------------


# one example per kernel kind whose fields are not all floats; a kind with
# only float fields is built with each field 0.5
KERNEL_EXAMPLES = {
    "goursat": Goursat(terms=(((0.0, 1.0), (1.0, 1.0)), ((2.0,), (0.0, 0.0, 3.0)))),
    "lipschitz_diff": LipschitzDiff(xs=(0.0, 0.4, 1.0), ys=(0.0, 0.8, 1.1)),
}


def _kernel_example(kind):
    cls = KERNEL_KINDS[kind]
    return KERNEL_EXAMPLES.get(kind) or cls(**{f.name: 0.5 for f in dataclasses.fields(cls)})


def test_kernel_json_round_trip():
    specs = (FbmVolterra(0.35), HolmgrenRL(0.8), *map(_kernel_example, KERNEL_KINDS))
    for spec in specs:
        obj = json.loads(json.dumps(spec.to_json_obj()))
        assert KERNEL_KINDS[obj["kind"]] is type(spec)
        assert decode_kind(KernelSpec, obj, "kernel") == spec


def test_kernel_json_rejects_bad_objects():
    for kind in ("mystery", ["indicator"], None):
        with pytest.raises(ConfigError):
            decode_kind(KernelSpec, {"kind": kind}, "kernel")
    for kind in KERNEL_KINDS:
        obj = _kernel_example(kind).to_json_obj()
        with pytest.raises(ConfigError):
            decode_kind(KernelSpec, dict(obj, bogus=0.5), "kernel")
        with pytest.raises(ConfigError):
            decode_kind(KernelSpec, {k: v for k, v in obj.items() if k != "kind"}, "kernel")
        required = (f.name for f in dataclasses.fields(KERNEL_KINDS[kind])
                    if f.default is dataclasses.MISSING)
        for name in required:
            with pytest.raises(ConfigError):
                decode_kind(KernelSpec, {k: v for k, v in obj.items() if k != name}, "kernel")


def test_kernel_spec_validation():
    for bad in (0.0, 1.0):
        with pytest.raises(OutOfRange):
            FbmVolterra(bad)
        with pytest.raises(OutOfRange):
            HolmgrenRL(bad)
    with pytest.raises(OutOfRange):
        Goursat(terms=())
    with pytest.raises(OutOfRange):
        Goursat(terms=(((), (1.0,)),))
    with pytest.raises(OutOfRange):
        LipschitzDiff(xs=(0.0, 0.5), ys=(1.0, 2.0))  # does not cover [0, 1]
    with pytest.raises(OutOfRange):
        LipschitzDiff(xs=(0.0, 0.0, 1.0), ys=(1.0, 2.0, 3.0))
