"""The kernel family and the jump law are the package's two axes of
generality. A family or a law defined here, outside the package, states its
own facts on its class, and the kernel geometry, the limit covariance, the
profiles and the sheet sampler take it with no other registration."""
import cmath
import math
from dataclasses import dataclass

import numpy as np
import pytest

from sheetforge import (
    KernelFamily,
    LevyModel,
    ProfileViolation,
    axis_inner_product,
    exponent,
    increment_l2,
    increment_profile,
    kernel_row,
    sample_increments,
    theoretical_covariance,
)
from sheetforge.jsonio import JsonObject


@dataclass(frozen=True)
class Doubled(KernelFamily):
    """K(t, r) = 2 for 0 < r < t: twice the Brownian kernel."""

    KIND = "doubled"

    def on_support(self, t, r):
        return np.full_like(r, 2.0)

    def covariance(self, s, s2):
        return 4.0 * min(s, s2)


@dataclass(frozen=True)
class DoubledByQuadrature(Doubled):
    """The same kernel without its closed form."""

    covariance = None


@dataclass(frozen=True)
class Steeper(KernelFamily):
    """K(t, r) = sqrt(3) (t - r): squared increments of power 2 near the
    diagonal."""

    KIND = "steeper"
    power = 2.0

    def on_support(self, t, r):
        return math.sqrt(3.0) * (t - r)


@dataclass(frozen=True)
class FixedSize(JsonObject):
    """Every jump has size h."""

    KIND = "fixed_size"
    h: float

    def char_function(self, xi):
        return cmath.exp(1j * xi * self.h)

    def add_jumps(self, out, counts, rng):
        return out + self.h * counts


def test_kernel_row_takes_the_family_values_on_the_support():
    r = np.array([0.0, 0.1, 0.4, 0.5, 0.9, 1.0])
    np.testing.assert_array_equal(kernel_row(Doubled(), 0.5, r), [0, 2, 2, 0, 0, 0])
    np.testing.assert_array_equal(kernel_row(Doubled(), 0.0, r), np.zeros(6))


@pytest.mark.parametrize("s, s2", [(0.0, 0.3), (0.25, 0.5), (0.3, 1.0)])
def test_increment_l2_of_a_new_family(s, s2):
    assert increment_l2(Doubled(), s, s2) == pytest.approx(4.0 * (s2 - s), rel=1e-12)


@pytest.mark.parametrize("s, s2", [(0.3, 0.7), (0.9, 0.2), (0.0, 0.5), (1.0, 1.0)])
def test_axis_inner_product_takes_the_closed_form_or_quadrature(s, s2):
    assert axis_inner_product(Doubled(), s, s2) == 4.0 * min(s, s2)
    assert axis_inner_product(DoubledByQuadrature(), s, s2) == pytest.approx(
        4.0 * min(s, s2), rel=1e-12, abs=1e-15
    )


def test_theoretical_covariance_of_a_new_family():
    pts = [(0.25, 0.5), (0.5, 1.0), (1.0, 0.25)]
    s = np.array([p[0] for p in pts])
    t = np.array([p[1] for p in pts])
    want = 4.0 * np.minimum.outer(s, s) * 4.0 * np.minimum.outer(t, t)
    np.testing.assert_allclose(theoretical_covariance(Doubled(), Doubled(), pts), want,
                               rtol=1e-15)
    np.testing.assert_allclose(
        theoretical_covariance(DoubledByQuadrature(), Doubled(), pts), want, rtol=1e-12
    )


def test_default_profile_follows_the_stated_power():
    steeper = increment_profile(Steeper(), ((0.0, 0.5),), ())["profile"]
    assert (steeper["regime"], steeper["exponent"]) == ("superlinear", 2.0)
    # power 1 reads windowed; the increment 4 (s2 - s) exceeds (s2 - s)^1
    with pytest.raises(ProfileViolation) as exc:
        increment_profile(Doubled(), ((0.0, 0.5),), ((0.0, 0.25), (0.0, 0.5)))
    assert exc.value.bound == 0.5 ** 1.0
    # int (sqrt(3) (s2 - s))^2 over (0, s) plus int 3 (s2 - r)^2 over (s, s2)
    s, s2 = 0.2, 0.6
    want = 3.0 * (s2 - s) ** 2 * s + (s2 - s) ** 3
    assert increment_l2(Steeper(), s, s2) == pytest.approx(want, rel=1e-12)


def test_a_new_jump_law_drives_the_exponent_and_the_sampler():
    model = LevyModel(sigma=0.0, drift=0.25, jump_rate=2.0, jump_dist=FixedSize(3.0))
    psi = exponent(model, 0.7)
    assert psi.real == pytest.approx(2.0 * (1.0 - math.cos(2.1)), rel=1e-15)
    assert psi.imag == pytest.approx(-0.25 * 0.7 - 2.0 * math.sin(2.1), rel=1e-15)
    areas = np.linspace(0.0, 3.0, 12).reshape(3, 4)
    got = sample_increments(model, areas, np.random.default_rng(5))
    counts = np.random.default_rng(5).poisson(2.0 * areas)
    np.testing.assert_array_equal(got, 0.25 * areas + 3.0 * counts)
