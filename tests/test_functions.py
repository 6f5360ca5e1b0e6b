"""Test-function layer: angular structure, transforms, error contracts."""

import math
from fractions import Fraction

import numpy as np
import pytest

import oracle_cutoff
from ckn.profiles import (
    PowerCutoffInner,
    PowerCutoffOuter,
    PowerTail,
    SmoothBump,
    bump,
    smooth_step,
    smooth_step_prime,
    zeta,
    zeta_prime,
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


def test_cutoff_shape():
    t = np.array([0.1, 0.5, 0.6, 0.9, 1.0, 2.0])
    z = zeta(t)
    assert z[0] == 1.0 and z[1] == 1.0
    assert 0 < z[2] < 1 and 0 < z[3] < 1
    assert z[4] == 0.0 and z[5] == 0.0
    # monotone bridge
    bridge = zeta(np.linspace(0.5, 1.0, 200))
    assert np.all(np.diff(bridge) <= 1e-12)


def test_cutoff_derivative_matches_finite_difference():
    t = np.linspace(0.55, 0.95, 41)
    h = 1e-6
    fd = (zeta(t + h) - zeta(t - h)) / (2 * h)
    assert np.allclose(zeta_prime(t), fd, atol=1e-5)


def test_bump_support_and_smoothness():
    v = np.array([-1.0, -0.999, 0.0, 0.999, 1.0])
    g = bump(v)
    assert g[0] == 0.0 and g[-1] == 0.0
    assert g[2] == pytest.approx(math.exp(-1.0))


def test_smooth_step_endpoints():
    w = np.array([-1.0, 0.0, 0.5, 1.0, 2.0])
    s = smooth_step(w)
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
    assert_matches_oracle(smooth_step(STEP_GRID), oracle_cutoff.step(STEP_GRID))
    assert_matches_oracle(smooth_step_prime(STEP_GRID), oracle_cutoff.step_prime(STEP_GRID))
    # and the mirrored step of the outer cutoff, read at t = (1 + w)/2
    t = np.linspace(0.25, 1.25, 100_001)
    outer = PowerCutoffOuter(0)
    assert_matches_oracle(outer.value(t), oracle_cutoff.mirrored_step(2.0 * t - 1.0))
    assert_matches_oracle(outer.derivative(t), -2.0 * oracle_cutoff.step_prime(2.0 * t - 1.0))


@pytest.mark.filterwarnings("error")
def test_logistic_step_is_exactly_one_and_zero_outside_the_bridge():
    below, above = STEP_GRID[STEP_GRID <= 0.0], STEP_GRID[STEP_GRID >= 1.0]
    assert np.all(smooth_step(below) == 1.0) and np.all(smooth_step(above) == 0.0)
    assert np.all(smooth_step_prime(below) == 0.0) and np.all(smooth_step_prime(above) == 0.0)
    # as scalars too, and 1e-6 inside each end the step is already flat in floats
    assert smooth_step(-1.0) == smooth_step(1e-6) == 1.0
    assert smooth_step(2.0) == smooth_step(1.0 - 1e-6) == 0.0
    t = np.array([0.1, 0.5, 1.0, 3.0])
    assert np.all(PowerCutoffInner(F(3, 2)).value(t[2:]) == 0.0)
    assert np.all(PowerCutoffOuter(F(3, 2)).value(t[:2]) == 0.0)
    assert np.all(PowerCutoffOuter(F(3, 2)).value(t[2:]) == t[2:] ** -1.5)


@pytest.mark.parametrize("t", [0.501, 0.51, 0.52])
def test_outer_cutoff_keeps_its_digits_where_zeta_is_near_one(t):
    # t^-1 (1 - zeta(t)), with 1 - zeta(t) = h(w) / (h(w) + h(1-w)) at w = 2t - 1
    want = float(oracle_cutoff.mirrored_step(2.0 * t - 1.0)) / t
    assert want > 0.0
    assert abs(float(PowerCutoffOuter(1).value(t)) - want) <= 1e-12 * want


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
    with pytest.raises(ValueError):
        translated(SmoothBump(0.0, 2.0), 1.0)
    with pytest.raises(ValueError):
        TestFunction(SmoothBump(0.0, 1.0), Angular.RADIAL, offset=3.0)


def test_translated_dilation_shrinks_offset():
    u = translated(SmoothBump(0.0, 1.0), 64.0)
    v = dilate(u, 4.0)
    assert v.offset == pytest.approx(16.0)
    assert v.profile.support[1] == pytest.approx(0.25)


def test_kelvin_rejects_translated():
    u = translated(SmoothBump(0.0, 1.0), 10.0)
    with pytest.raises(ValueError):
        kelvin_function(u)


def test_kelvin_preserves_angular_mode():
    u = first_harmonic(PowerTail(F(0), F(2)))
    k = kelvin_function(u)
    assert k.angular is Angular.FIRST_HARMONIC
    t = np.array([0.25, 1.0, 4.0])
    assert np.allclose(k.profile.value(t), u.profile.value(1.0 / t))


def test_descriptor_includes_offset():
    u = translated(SmoothBump(0.0, 1.0), 12.0)
    desc = u.descriptor()
    assert desc["angular"] == "translated"
    assert desc["offset"] == 12.0
