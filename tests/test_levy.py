"""Lévy model, exponent, normalizing constant, and angle validity."""
import dataclasses
import json
import math
import typing

import numpy as np
import pytest

from sheetforge import (
    ConfigError,
    DegenerateAngle,
    Deterministic,
    GaussianJump,
    LevyModel,
    OutOfRange,
    TwoPoint,
    exponent,
    levy_cos,
    min_real_exponent,
    normalizing_constant,
    unit_jump_poisson,
)
from sheetforge.jsonio import decode, decode_kind
from sheetforge.levy import JumpDist
from sheetforge.sheet import sample_increments

# oracle-frozen constants (brute-force minimum over k of the real exponent
# of the unit-jump Poisson at angle 1.0, horizon 6; minimum sits at k = 6)
A_STAR_UNIT_POISSON_1_6 = 0.03982971334963403
ROOT2 = math.sqrt(2.0)


# -- exponent values ---------------------------------------------------------


def test_unit_jump_poisson_exponent_spot_values():
    model = unit_jump_poisson()
    psi = exponent(model, math.pi)
    # 1 - cos(pi) is exact in floating point; sin(pi) only nearly so
    assert psi.real == 2.0
    assert abs(psi.imag) < 1e-15
    psi1 = exponent(model, 1.0)
    assert psi1.real == pytest.approx(1.0 - math.cos(1.0), rel=1e-15)
    assert psi1.imag == pytest.approx(-math.sin(1.0), rel=1e-15)


def test_gaussian_drift_exponent_hand_values():
    model = LevyModel(sigma=2.0, drift=-1.5, jump_rate=0.0, jump_dist=None)
    for xi in (0.3, 1.0, -2.0):
        psi = exponent(model, xi)
        assert psi.real == pytest.approx(2.0 * xi * xi, rel=1e-15)
        assert psi.imag == pytest.approx(1.5 * xi, rel=1e-15)


def test_exponent_real_part_nonnegative_random_models():
    rng = np.random.default_rng(2024)
    for _ in range(200):
        model = LevyModel(
            sigma=float(rng.uniform(0, 2)),
            drift=float(rng.uniform(-3, 3)),
            jump_rate=float(rng.uniform(0.1, 4)),
            jump_dist=GaussianJump(float(rng.uniform(-1, 1)), float(rng.uniform(0.1, 2))),
        )
        xi = float(rng.uniform(-10, 10))
        assert exponent(model, xi).real >= 0.0


def test_psi_matches_parts():
    """a + i b is Psi(xi) = rate (1 - exp(i xi)) for unit Poisson jumps."""
    model = unit_jump_poisson(0.7)
    psi = exponent(model, 1.3)
    assert isinstance(psi, complex)
    assert psi == pytest.approx(0.7 * (1.0 - complex(math.cos(1.3), math.sin(1.3))), rel=1e-15)


# -- characteristic functions of the jump families ---------------------------


def test_jump_family_char_functions_hand_values():
    xi = 0.8
    det = Deterministic(h=1.5)
    assert det.char_function(xi) == pytest.approx(np.exp(1j * xi * 1.5), rel=1e-15)
    tp = TwoPoint(h_plus=1.0, h_minus=-2.0, p=0.25)
    expected = 0.25 * np.exp(1j * xi) + 0.75 * np.exp(-2j * xi)
    assert tp.char_function(xi) == pytest.approx(expected, rel=1e-14)
    gj = GaussianJump(mu=0.5, tau=1.2)
    expected = np.exp(0.5j * xi - 0.5 * 1.44 * xi * xi)
    assert gj.char_function(xi) == pytest.approx(expected, rel=1e-14)


def test_characteristic_function_identity_monte_carlo():
    """E[exp(i xi L_A)] = exp(-A Psi(xi)), checked per family by direct
    Monte Carlo on the increment sampler (the acceptance-scale version runs
    in the acceptance suite)."""
    area = 0.7
    xi_values = (0.5, 1.7)
    n_samples = 120_000
    families = (
        LevyModel(sigma=0.4, drift=0.3, jump_rate=2.0, jump_dist=Deterministic(0.8)),
        LevyModel(sigma=0.0, drift=-0.2, jump_rate=1.5,
                  jump_dist=TwoPoint(1.0, -0.5, 0.3)),
        LevyModel(sigma=0.2, drift=0.0, jump_rate=3.0,
                  jump_dist=GaussianJump(0.1, 0.6)),
    )
    rng = np.random.default_rng(99)
    for model in families:
        draws = sample_increments(model, np.full(n_samples, area), rng)
        for xi in xi_values:
            target = np.exp(-area * exponent(model, xi))
            cos_part = np.cos(xi * draws)
            sin_part = np.sin(xi * draws)
            for emp, theo in (
                (cos_part, target.real),
                (sin_part, target.imag),
            ):
                se = emp.std(ddof=1) / math.sqrt(n_samples)
                assert abs(emp.mean() - theo) <= 5.0 * se


# -- normalizing constant and angle validity ---------------------------------


def test_normalizing_constant_unit_poisson_is_root_two():
    model = unit_jump_poisson()
    for theta in (0.5, 1.0, math.pi / 2, 2.5):
        assert abs(normalizing_constant(model, theta) - ROOT2) < 1e-12


def test_normalizing_constant_degenerate_angle_raises():
    model = unit_jump_poisson()
    with pytest.raises(DegenerateAngle):
        normalizing_constant(model, 2.0 * math.pi)  # a(2 pi) = 1 - cos(2 pi) = 0


def test_min_real_exponent_frozen_value():
    model = unit_jump_poisson()
    assert min_real_exponent(model, 1.0, 6) == pytest.approx(
        A_STAR_UNIT_POISSON_1_6, rel=1e-13
    )


def test_min_real_exponent_brute_force_consistency():
    model = unit_jump_poisson(0.8)
    for theta, m in ((0.7, 4), (1.9, 8), (2.5, 2)):
        brute = min(exponent(model, k * theta).real for k in range(1, m + 1))
        assert min_real_exponent(model, theta, m) == brute


def test_check_angle_detects_exact_degeneracy():
    model = unit_jump_poisson()
    theta = 2.0 * math.pi / 3.0
    # 3 * theta = 2 pi with 1 - cos(2 pi) exactly 0.0 in floating point
    assert exponent(model, 3.0 * theta).real == 0.0
    assert min_real_exponent(model, theta, 2) > 0.0
    assert min_real_exponent(model, theta, 3) == 0.0
    assert min_real_exponent(model, theta, 6) == 0.0
    assert min_real_exponent(model, 1.0, 6) > 0.0
    # a wave spec refuses the angle once its (even) horizon reaches k = 3
    levy_cos(model, 10.0, theta, m_guard=2)
    levy_cos(model, 10.0, 1.0, m_guard=6)
    for m_guard in (4, 6):
        with pytest.raises(DegenerateAngle, match="fails the validity check"):
            levy_cos(model, 10.0, theta, m_guard=m_guard)


def test_min_real_exponent_validates_horizon():
    model = unit_jump_poisson()
    with pytest.raises(OutOfRange):
        min_real_exponent(model, 1.0, 0)
    with pytest.raises(OutOfRange):
        min_real_exponent(model, 1.0, -3)


# -- model validation ---------------------------------------------------------


def test_levy_model_validation():
    with pytest.raises(OutOfRange):
        LevyModel(sigma=-0.1, drift=0.0, jump_rate=0.0, jump_dist=None)
    with pytest.raises(OutOfRange):
        LevyModel(sigma=0.0, drift=math.inf, jump_rate=0.0, jump_dist=None)
    with pytest.raises(OutOfRange):
        LevyModel(sigma=0.0, drift=0.0, jump_rate=-1.0, jump_dist=None)
    with pytest.raises(OutOfRange):
        LevyModel(sigma=0.0, drift=0.0, jump_rate=1.0, jump_dist=None)  # rate>0 needs jumps
    # drift-only model is allowed (degenerate but in range)
    LevyModel(sigma=0.0, drift=1.0, jump_rate=0.0, jump_dist=None)


def test_jump_dist_validation():
    with pytest.raises(OutOfRange):
        Deterministic(h=0.0)
    with pytest.raises(OutOfRange):
        TwoPoint(h_plus=1.0, h_minus=-1.0, p=1.5)
    with pytest.raises(OutOfRange):
        GaussianJump(mu=0.0, tau=0.0)


# -- serialization ------------------------------------------------------------


def test_model_json_round_trip():
    jumps = (cls(**{f.name: 0.5 for f in dataclasses.fields(cls)})
             for cls in typing.get_args(JumpDist))
    models = (
        unit_jump_poisson(),
        LevyModel(sigma=1.0, drift=-0.5, jump_rate=2.0,
                  jump_dist=TwoPoint(0.5, -1.5, 0.4)),
        LevyModel(sigma=0.0, drift=0.0, jump_rate=0.5,
                  jump_dist=GaussianJump(0.2, 0.9)),
        LevyModel(sigma=0.3, drift=0.1, jump_rate=0.0, jump_dist=None),
        *(LevyModel(sigma=0.2, drift=0.1, jump_rate=1.5, jump_dist=j) for j in jumps),
    )
    for model in models:
        blob = json.dumps(model.to_json_obj())
        assert decode(LevyModel, json.loads(blob), "model") == model


def test_model_json_rejects_unknown_fields():
    obj = unit_jump_poisson().to_json_obj()
    obj["extra"] = 1
    with pytest.raises(ConfigError):
        decode(LevyModel, obj, "model")
    with pytest.raises(ConfigError):
        decode_kind(JumpDist, {"kind": "deterministic", "h": 1.0, "x": 2}, "jump_dist")
    with pytest.raises(ConfigError):
        decode_kind(JumpDist, {"kind": "unheard-of"}, "jump_dist")
