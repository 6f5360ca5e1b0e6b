"""Test-function layer: angular structure, transforms, error contracts."""

import math
from fractions import Fraction

import numpy as np
import pytest

import oracle_cutoff
from oracle_panels import PowerCutoffInner, SmoothBump
from ckn.profiles import (
    InvertedProfile,
    PowerBump,
    PowerTail,
    bump,
)
from ckn.testfunctions import (
    Angular,
    TestFunction,
    dilate,
    first_harmonic,
    kelvin_function,
    radial,
    translated,
)

F = Fraction

# the cutoff zeta, 1 on t <= 1/2 and 0 on t >= 1
ZETA = PowerCutoffInner(0)


def test_cutoff_shape():
    t = np.array([0.1, 0.5, 0.6, 0.9, 1.0, 2.0])
    z = ZETA.value(t)
    assert z[0] == 1.0 and z[1] == 1.0
    assert 0 < z[2] < 1 and 0 < z[3] < 1
    assert z[4] == 0.0 and z[5] == 0.0
    # monotone bridge
    bridge = ZETA.value(np.linspace(0.5, 1.0, 200))
    assert np.all(np.diff(bridge) <= 1e-12)


def test_cutoff_derivative_matches_finite_difference():
    t = np.linspace(0.55, 0.95, 41)
    h = 1e-6
    fd = (ZETA.value(t + h) - ZETA.value(t - h)) / (2 * h)
    assert np.allclose(ZETA.derivative(t), fd, atol=1e-5)


def test_bump_support_and_smoothness():
    v = np.array([-1.0, -0.999, 0.0, 0.999, 1.0])
    g = bump(v)
    assert g[0] == 0.0 and g[-1] == 0.0
    assert g[2] == pytest.approx(math.exp(-1.0))


def test_smooth_step_endpoints():
    # the step at w is zeta at t = (1 + w)/2
    w = np.array([-1.0, 0.0, 0.5, 1.0, 2.0])
    s = ZETA.value((1.0 + w) / 2.0)
    assert s[0] == 1.0 and s[1] == 1.0
    assert 0 < s[2] < 1
    assert s[3] == 0.0 and s[4] == 0.0


# a dense grid of w with points 1e-6 inside and outside each end of the step
STEP_GRID = np.unique(np.concatenate([
    np.linspace(-0.25, 1.25, 150_001),
    [-1e-6, 0.0, 1e-6, 1.0 - 1e-6, 1.0, 1.0 + 1e-6],
]))


def assert_matches_oracle(got, want):
    """got within 1e-13 of want, relatively, where |want| >= 1e-300.  Below,
    the oracle's h(x) = exp(-1/x) is subnormal and has lost digits, so
    there both need only be below 1e-300."""
    big = np.abs(want) >= 1e-300
    assert np.all(np.abs(got[big] - want[big]) <= 1e-13 * np.abs(want[big]))
    assert np.all(np.abs(got[~big]) < 1e-300)


@pytest.mark.filterwarnings("error")
def test_logistic_step_matches_the_h_ratio():
    # zeta at the t = (1 + w)/2 of the grid, and its inversion zeta(1/t) at
    # their reciprocals; the oracle reads the float w that the profile does
    t = (1.0 + STEP_GRID) / 2.0
    w = 2.0 * t - 1.0
    assert_matches_oracle(ZETA.value(t), oracle_cutoff.step(w))
    assert_matches_oracle(ZETA.derivative(t), 2.0 * oracle_cutoff.step_prime(w))
    outer, t = InvertedProfile(ZETA), 1.0 / t
    w = 2.0 * (1.0 / t) - 1.0
    assert_matches_oracle(outer.value(t), oracle_cutoff.step(w))
    assert_matches_oracle(outer.derivative(t), -2.0 * oracle_cutoff.step_prime(w) / t**2)


@pytest.mark.filterwarnings("error")
def test_logistic_step_is_exactly_one_and_zero_outside_the_bridge():
    t = (1.0 + STEP_GRID) / 2.0
    below, above = t[STEP_GRID <= 0.0], t[STEP_GRID >= 1.0]
    assert np.all(ZETA.value(below) == 1.0) and np.all(ZETA.value(above) == 0.0)
    assert np.all(ZETA.derivative(below) == 0.0) and np.all(ZETA.derivative(above) == 0.0)
    # as scalars too, and 1e-6 inside each end the step is already flat in floats
    assert ZETA.value(0.0) == ZETA.value((1.0 + 1e-6) / 2.0) == 1.0
    assert ZETA.value(1.5) == ZETA.value((2.0 - 1e-6) / 2.0) == 0.0
    t = np.array([0.1, 0.5, 1.0, 2.0, 3.0])
    assert np.all(PowerCutoffInner(F(3, 2)).value(t[2:]) == 0.0)
    # the cutoff at infinity t^-3/2 zeta(1/t): 0 up to t = 1, exact from t = 2
    outer = InvertedProfile(PowerCutoffInner(F(-3, 2)))
    assert np.all(outer.value(t[:3]) == 0.0)
    assert np.all(outer.value(t[3:]) == (1.0 / t[3:]) ** 1.5)


@pytest.mark.parametrize("x", [0.999, 0.99, 0.98])
def test_outer_cutoff_keeps_its_digits_where_zeta_is_near_zero(x):
    # t^-1 zeta(1/t) at t = 1/x, where zeta(x) = h(1-w) / (h(w) + h(1-w)) at
    # w = 2x - 1 is between about 1e-217 and 4e-11
    t = 1.0 / x
    x = 1.0 / t
    want = x * float(oracle_cutoff.step(2.0 * x - 1.0))
    assert want > 0.0
    assert abs(float(InvertedProfile(PowerCutoffInner(-1)).value(t)) - want) <= 1e-12 * want


def test_dilate_identity():
    u = radial(SmoothBump(2.0, 1.0))
    t = np.linspace(0.5, 4.0, 17)
    assert np.allclose(dilate(u, 1.0).profile.value(t), u.profile.value(t))


def test_dilate_rejects_nonpositive():
    u = radial(SmoothBump(2.0, 1.0))
    with pytest.raises(ValueError):
        dilate(u, 0.0)
    with pytest.raises(ValueError):
        dilate(u, -2.0)


def test_dilate_moves_cutoff_support():
    u = radial(PowerCutoffInner(F(1, 2)))
    lam = 4.0
    lo, hi = dilate(u, lam).profile.support
    assert hi == pytest.approx(1.0 / lam)


def test_translated_requires_separated_support():
    with pytest.raises(ValueError, match="away from the origin"):
        translated(PowerBump(0, 2, 2).scaled(0.5), 1.0)
    with pytest.raises(ValueError):
        TestFunction(SmoothBump(0.0, 1.0), Angular.RADIAL, offset=3.0)


def test_translated_dilation_shrinks_offset():
    u = translated(PowerBump(0, 2, 2), 64.0)
    v = dilate(u, 4.0)
    assert v.offset == pytest.approx(16.0)
    assert v.profile.support[1] == pytest.approx(0.25)


def test_kelvin_rejects_translated():
    u = translated(PowerBump(0, 2, 2), 10.0)
    with pytest.raises(ValueError):
        kelvin_function(u)


def test_kelvin_preserves_angular_mode():
    u = first_harmonic(PowerTail(F(0), F(2)))
    k = kelvin_function(u)
    assert k.angular is Angular.FIRST_HARMONIC
    t = np.array([0.25, 1.0, 4.0])
    assert np.allclose(k.profile.value(t), u.profile.value(1.0 / t))


def test_descriptor_includes_offset():
    u = translated(PowerBump(0, 2, 2), 12.0)
    desc = u.descriptor()
    assert desc["angular"] == "translated"
    assert desc["offset"] == 12.0
