"""Weighted-norm quadrature: golden values, scaling laws, Kelvin isometry."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

import ckn.quadrature as quadrature
from ckn.panels import QuadratureConfig
from ckn.params import Params, kelvin_params
from ckn.profiles import (
    Bound,
    Edge,
    InvertedProfile,
    LogModulated,
    PiecewisePower,
    PowerBump,
    PowerCutoffInner,
    PowerTail,
    RadialProfile,
    ScaledProfile,
    TruncatedPrimitive,
    bump,
)
from ckn.quadrature import (
    NormStatus,
    log_angular_moment,
    log_power_integral,
    surface_area,
    weighted_norm,
    weighted_norm_gradient,
)
from ckn.testfunctions import (
    dilate,
    first_harmonic,
    kelvin_function,
    radial,
    translated,
)
from oracle_panels import SmoothBump, panel_integral

F = Fraction


class ExpProfile(RadialProfile):
    """t^k e^{-t}; decays faster than any power at infinity."""

    kind = "exp_test"

    def __init__(self, k: int = 0):
        self.k = k

    def value(self, t):
        t = np.asarray(t, dtype=float)
        return t**self.k * np.exp(-t)

    def derivative(self, t):
        t = np.asarray(t, dtype=float)
        return (self.k * t ** (self.k - 1) - t**self.k) * np.exp(-t)

    def edges(self):
        # t^k e^-t at 0, where |e^-t - 1| <= t; no record at infinity
        return (Edge(1.0, F(self.k), bound=Bound(1.0, 1.0, 1.0)), None)


def close(a, b, rel=1e-8):
    return abs(a - b) <= rel * max(abs(a), abs(b))


# ---------------------------------------------------------------------------
# golden closed-form values
# ---------------------------------------------------------------------------

def test_exponential_l1_norm_dimension_one():
    nv = weighted_norm(radial(ExpProfile(0)), F(0), F(1), 1)
    assert nv.status is NormStatus.FINITE
    assert close(nv.value, 2.0)


def test_gamma_integral_dimension_three():
    nv = weighted_norm(radial(ExpProfile(1)), F(-1), F(2), 3)
    assert close(nv.value, math.sqrt(1.5 * math.pi))


def test_narrow_band_power_integral_keeps_its_digits():
    # the integral of t^e over (1, 1 + w) is w (1 + O(w)), whatever the sign of e + 1
    for exponent in (0.5, -3.0):
        for width in (1e-6, 1e-12, 1e-30, 1e-200):
            log_integral = log_power_integral(exponent, 0.0, math.log1p(width))
            assert abs(log_integral - math.log(width)) <= 4.0 * width + 1e-12


def test_divergent_target_certificate():
    # c < min(c0, c1): the inner power cutoff has |x|^c |u|^r = |x|^{-n}
    n, r, c = 3, F(2), F(-3)
    profile = PowerCutoffInner((c + n) / r)
    nv = weighted_norm(radial(profile), c, r, n)
    assert nv.status is NormStatus.DIVERGENT


def test_piecewise_exact_matches_generic_quadrature():
    piece = PiecewisePower([(1.0, F(-1, 2), math.log(2.0), math.log(5.0))])
    exact = weighted_norm(radial(piece), F(1), F(3), 3)

    class Generic(RadialProfile):
        def value(self, t):
            t = np.asarray(t, dtype=float)
            return np.where((t > 2.0) & (t < 5.0), t**-0.5, 0.0)

        @property
        def support(self):
            return (2.0, 5.0)

        @property
        def breakpoints(self):
            return (2.0, 5.0)

    generic = weighted_norm(radial(Generic()), F(1), F(3), 3)
    assert close(exact.value, generic.value, rel=1e-9)


def test_piecewise_far_band_stays_accurate():
    # band at t ~ 1e60: closed form in log space
    m = 1e60
    piece = PiecewisePower([(1.0, F(0), math.log(m), math.log(2 * m))])
    nv = weighted_norm(radial(piece), F(-6), F(2), 3)
    # integral of t^{-6+2} over (m, 2m) = (m^-3 - (2m)^-3)/3
    expected = math.sqrt(surface_area(3) * (m**-3) * (1 - 0.125) / 3)
    assert close(nv.value, expected, rel=1e-12)


def test_far_bands_do_not_reach_the_ends():
    """Finite log bounds far out round to 0 or inf in t but are not ends."""
    n, d, s = 3, F(0), F(2)
    # 2 t^-2 on (e^-800, e^-799) would diverge at 0 (d + n + s expo = -1),
    # 2 t^-1 on (e^799, e^800) at infinity (+1); bounded, each integral of
    # t^(d+n-1) |f|^s is 4 e^799 (e - 1)
    near = PiecewisePower([(2.0, F(-2), -800.0, -799.0)])
    far = PiecewisePower([(2.0, F(-1), 799.0, 800.0)])
    want = (math.log(surface_area(n)) + math.log(4.0) + 799.0 + math.log(math.e - 1.0)) / 2
    for profile in (near, far):
        assert profile.edges() == (None, None)
        nv = weighted_norm(radial(profile), d, s, n)
        assert nv.status is NormStatus.FINITE
        assert close(nv.log_value, want, rel=1e-14)
    # f' = -4 t^-3 on the near band: t^2 16 t^-6 integrates to 16 (e^2400 - e^2397) / 3
    grad = weighted_norm_gradient(radial(near), d, s, n)
    want = (math.log(surface_area(n) * 16 / 3) + 2400.0 + math.log1p(-math.exp(-3.0))) / 2
    assert grad.status is NormStatus.FINITE
    assert close(grad.log_value, want, rel=1e-14)


def test_indicator_first_harmonic_gradient_closed_form():
    """f = const on an annulus: |grad u|^p integrates in closed form."""
    n, p, b = 3, F(2), F(0)
    t1, t2 = 1.0, 2.0
    u = first_harmonic(PiecewisePower([(1.0, F(0), math.log(t1), math.log(t2))]))
    got = weighted_norm_gradient(u, b, p, n)
    # |grad u|^2 = (f/t)^2 sin^2(psi); angular: |S^1| int sin^2 psi sin psi
    radial_part = (t2 ** (0 + 3 - 2 + 1) - t1**2) / 2  # int t^{b+n-1-2} dt wrong? see below
    radial_part = (t2**2 - t1**2) / 2  # int_1^2 t^{0+3-1} t^{-2} dt = int t dt... no
    # b + n - 1 - p = 0: integrand t^0: radial integral = t2 - t1
    radial_part = t2 - t1
    angular = surface_area(2) * 4.0 / 3.0  # int_0^pi sin^3 = 4/3
    expected = math.sqrt(radial_part * angular)
    assert close(got.value, expected, rel=1e-9)


# ---------------------------------------------------------------------------
# scaling laws: ||u(lam .)||_{d,s} = lam^{-(d+n)/s} ||u||_{d,s}
# ---------------------------------------------------------------------------

CATALOG = [
    radial(SmoothBump(2.0, 1.0)),
    radial(PowerCutoffInner(F(1, 2))),
    radial(InvertedProfile(PowerCutoffInner(F(-5, 2)))),
    radial(PowerTail(F(-1, 2), F(5, 2))),
    first_harmonic(SmoothBump(3.0, 1.5)),
    radial(LogModulated(F(1, 2), 0.5)),
]


@pytest.mark.parametrize("u", CATALOG, ids=lambda u: u.profile.kind + "-" + u.angular.value)
@pytest.mark.parametrize("lam", [0.125, 0.5, 2.0, 8.0])
def test_dilation_scaling_law(u, lam):
    n, d, s = 3, F(-1), F(2)
    base = weighted_norm(u, d, s, n)
    scaled = weighted_norm(dilate(u, lam), d, s, n)
    predicted = math.exp(-float((d + n) / s) * math.log(lam)) * base.value
    assert base.status is NormStatus.FINITE
    assert close(scaled.value, predicted, rel=1e-7)


@pytest.mark.parametrize("lam", [0.125, 8.0])
def test_gradient_scaling_law(lam):
    n, b, p = 3, F(1, 2), F(2)
    u = radial(SmoothBump(2.0, 1.0))
    base = weighted_norm_gradient(u, b, p, n)
    scaled = weighted_norm_gradient(dilate(u, lam), b, p, n)
    predicted = math.exp(-float((b - p + n) / p) * math.log(lam)) * base.value
    assert close(scaled.value, predicted, rel=1e-7)


_BANDS = PiecewisePower([(1.5, F(1, 2), -2.0, 0.5), (-0.75, F(-3), 1.0, 4.0)])
SCALING_LAW_CASES = [
    # (profile, d, s, gradient): log windows at K = 0, a closed derivative,
    # and the closed forms of a two-band PiecewisePower
    pytest.param(LogModulated(F(1, 2), 2.0**-10), F(-2), F(2), False, id="window-2^-10-value"),
    pytest.param(LogModulated(F(1, 2), 2.0**-10), F(0), F(2), True, id="window-2^-10-gradient"),
    pytest.param(LogModulated(F(1, 2), 2.0**-40), F(-2), F(2), False, id="window-2^-40-value"),
    pytest.param(LogModulated(F(1, 2), 2.0**-40), F(0), F(2), True, id="window-2^-40-gradient"),
    pytest.param(TruncatedPrimitive(F(1, 3), 5.0), F(-1), F(2), True, id="primitive-gradient"),
    pytest.param(_BANDS, F(-1), F(2), False, id="bands-value"),
    pytest.param(_BANDS, F(-1), F(2), True, id="bands-gradient"),
]


@pytest.mark.parametrize("profile, d, s, gradient", SCALING_LAW_CASES)
@pytest.mark.parametrize("lam", [0.125, 8.0])
def test_scaled_profiles_of_closed_forms_and_windows_follow_the_scaling_law(profile, d, s, gradient, lam):
    # ScaledProfile(f, lam) is read as f at lam t, so its norm is that of f
    # times lam^((s [gradient] - (d + n)) / s), however far out f lives
    n = 3
    norm = weighted_norm_gradient if gradient else weighted_norm
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        base = norm(radial(profile), d, s, n)
        scaled = norm(radial(ScaledProfile(profile, lam)), d, s, n)
    assert base.finite and scaled.finite
    exponent = float((s * gradient - (d + n)) / s)
    assert abs(scaled.log_value - (base.log_value + exponent * math.log(lam))) <= 1e-12


def test_dilation_composes():
    u = radial(PowerTail(F(0), F(2)))
    t = np.array([0.3, 1.0, 4.7])
    once = dilate(dilate(u, 2.0), 3.0).profile.value(t)
    direct = dilate(u, 6.0).profile.value(t)
    assert np.allclose(once, direct, rtol=0, atol=0)


# ---------------------------------------------------------------------------
# Kelvin isometry
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "u",
    [
        radial(SmoothBump(2.0, 1.0)),
        radial(PowerTail(F(-1, 2), F(5, 2))),
        first_harmonic(SmoothBump(2.0, 1.0)),
    ],
    ids=["bump", "tail", "harmonic"],
)
def test_kelvin_isometry(u):
    params = Params(3, F(2), F(2), F(2), F(-1), F(1, 2), F(-1))
    reflected = kelvin_params(params)
    ku = kelvin_function(u)

    source = weighted_norm(u, params.a, params.q, params.n)
    source_k = weighted_norm(ku, reflected.a, reflected.q, reflected.n)
    assert close(source.value, source_k.value, rel=1e-7)

    grad = weighted_norm_gradient(u, params.b, params.p, params.n)
    grad_k = weighted_norm_gradient(ku, reflected.b, reflected.p, reflected.n)
    assert close(grad.value, grad_k.value, rel=1e-7)


def test_the_kelvin_function_of_a_dilation_is_the_dilated_inversion():
    # f(lam / t) is the inversion of f dilated by 1/lam: a ScaledProfile
    # states no edge records, so no inversion wraps one
    u = radial(PowerTail(F(-1, 2), F(5, 2)))
    ku = kelvin_function(dilate(u, 4.0))
    assert isinstance(ku.profile, ScaledProfile) and ku.profile.lam == 0.25
    assert kelvin_function(ku).profile.lam == 4.0
    with pytest.raises(ValueError, match="dilate the inversion"):
        InvertedProfile(u.profile.scaled(4.0))
    for norm in (weighted_norm, weighted_norm_gradient):
        got, want = norm(ku, F(-5), F(2), 3), norm(dilate(kelvin_function(u), 0.25), F(-5), F(2), 3)
        assert got.finite and got.log_value == want.log_value


def test_kelvin_function_is_involution():
    u = radial(PowerTail(F(1, 2), F(2)))
    t = np.array([0.2, 1.0, 3.3, 10.0])
    back = kelvin_function(kelvin_function(u))
    assert np.allclose(back.profile.value(t), u.profile.value(t))


def test_power_tail_roles_swap_under_inversion():
    u = PowerTail(F(1, 2), F(2))
    at_zero, at_inf = InvertedProfile(u).edges()
    # near zero, f(1/t) ~ (1/t)^{-beta} = t^{beta}
    assert at_zero.power == F(2)
    assert at_inf.power == F(1, 2)


# ---------------------------------------------------------------------------
# log-window profiles
# ---------------------------------------------------------------------------

def _window_lp(s: float) -> float:
    v = np.linspace(-1, 1, 400001)
    return float(np.trapezoid(bump(v) ** s, v)) ** (1.0 / s)


def test_log_modulated_canonical_norms():
    # equal-slope tuple: all three norms reduce to pure window integrals
    n, eta = 3, F(1, 2)
    q, lam = F(2), 1.0 / 64
    a = q * eta - n
    u = LogModulated(eta, lam)
    nv = weighted_norm(radial(u), a, q, n)
    predicted = (surface_area(n) / lam) ** 0.5 * _window_lp(2.0)
    assert close(nv.value, predicted, rel=1e-6)


def test_log_modulated_tiny_lambda_stays_finite():
    u = LogModulated(F(1, 2), 2.0**-40)
    nv = weighted_norm(radial(u), F(-2), F(2), 3)  # a with slope 1/2, q=2, n=3
    assert nv.status is NormStatus.FINITE
    assert 0 < nv.log_value < 60


def _log_window_log_norm(profile: LogModulated, d, s, n: int, panels: int = 8192) -> float:
    """log || f ||_{d,s} of a log window by a composite 16-point rule of
    panels panels in v = loglam ln t, summed in log space."""
    x, w = np.polynomial.legendre.leggauss(16)
    k, sf = float(d + n - profile.m * s), float(s)
    ends = np.linspace(-1.0, 1.0, panels + 1)
    half = 0.5 * (ends[1:] - ends[:-1])[:, None]
    v = 0.5 * (ends[:-1] + ends[1:])[:, None] + half * x
    with np.errstate(divide="ignore"):
        terms = (k * v / profile.loglam + sf * np.log(np.abs(profile.window_values(v))) + np.log(half * w)).ravel()
    top = terms.max()
    log_integral = -math.log(profile.loglam) + top + math.log(np.sum(np.exp(terms - top)))
    return (math.log(surface_area(n)) + log_integral) / sf


@pytest.mark.parametrize("d", [F(0), F(-4)])  # K = d + n - m s = 2 and -2
@pytest.mark.parametrize("log2_lam", [-2, -4, -6, -8, -10, -12])
def test_log_window_off_the_critical_rate_is_accurate_or_failed(d, log2_lam):
    # the weight e^(vK/loglam) peaks near v = +-1, the narrower the smaller
    # loglam; up to rate 8192 every norm is Finite and accurate
    n, s = 3, F(2)
    profile = LogModulated(F(1, 2), 2.0**log2_lam)
    nv = weighted_norm(radial(profile), d, s, n)
    assert nv.finite
    assert abs(nv.log_value - _log_window_log_norm(profile, d, s, n)) <= 1e-9


@pytest.mark.parametrize("m", [F(-1), F(1, 2), F(1)])
@pytest.mark.parametrize("log4_lam", range(1, 7))
def test_log_window_norms_at_the_critical_rate_are_accurate(m, log4_lam):
    # K = 0, where every witness norm sits: |-m W + loglam W'|^p has a kink
    # at the zero of the gradient window for p not an even integer, and
    # |W|^s rises in a thin layer at v = +-1 for small s
    n, profile = 3, LogModulated(m, 4.0**-log4_lam)
    cases = [(profile.derivative_profile, p * (m + 1) - n, p, True) for p in (F(1), F(3, 2), F(5, 2))]
    cases.append((profile, m / 16 - n, F(1, 16), False))
    for read, d, s, gradient in cases:
        nv = (weighted_norm_gradient if gradient else weighted_norm)(radial(profile), d, s, n)
        assert nv.finite
        assert abs(nv.log_value - _log_window_log_norm(read, d, s, n, panels=16384)) <= 1e-9
        assert nv.error > 0


def test_log_window_past_the_reach_of_the_panels_fails():
    # at rate |K|/loglam = 2^41 the weight's peak is far narrower than the
    # finest panel: the norm fails, and never reads as a zero norm
    profile = LogModulated(F(1, 2), 2.0**-40)
    u = radial(profile)
    for nv in (weighted_norm(u, F(0), F(2), 3), weighted_norm_gradient(u, F(2), F(2), 3)):
        assert nv.status is NormStatus.FAILED


# ---------------------------------------------------------------------------
# translated profiles
# ---------------------------------------------------------------------------

def test_translated_norm_matches_unweighted_translation_invariance():
    # with d = 0 the weight is trivial and translation cannot change the norm
    profile = PowerBump(0, 2, 2)
    u0 = radial(profile)
    ut = translated(profile, 37.5)
    for n in (1, 2, 3):
        a = weighted_norm(u0, F(0), F(2), n)
        b = weighted_norm(ut, F(0), F(2), n)
        assert close(a.value, b.value, rel=1e-8), n


def test_translated_norm_far_field_power():
    # far translate: ||u_R||_{d,s} ~ R^{d/s} ||u||_{0,s}
    profile = PowerBump(0, 2, 2)
    d, s, n = F(-3), F(2), 3
    base = weighted_norm(radial(profile), F(0), s, n).value
    for R in (2.0**10, 2.0**14):
        nv = weighted_norm(translated(profile, R), d, s, n)
        assert close(nv.value, R ** float(d / s) * base, rel=1e-2)


def test_translated_gradient_norm():
    profile = PowerBump(0, 2, 2)
    n = 3
    got = weighted_norm_gradient(translated(profile, 1000.0), F(0), F(2), n)
    want = weighted_norm_gradient(radial(profile), F(0), F(2), n)
    assert close(got.value, want.value, rel=1e-7)


# ---------------------------------------------------------------------------
# first harmonics, truncated primitives
# ---------------------------------------------------------------------------

def test_first_harmonic_function_norm_uses_angular_moment():
    f = SmoothBump(2.0, 1.0)
    n, d, s = 3, F(0), F(2)
    rad = weighted_norm(radial(f), d, s, n).value
    fh = weighted_norm(first_harmonic(f), d, s, n).value
    factor = math.exp((log_angular_moment(2.0, n) - math.log(surface_area(n))) / 2.0)
    assert close(fh, rad * factor, rel=1e-10)


def test_first_harmonic_gradient_with_a_steep_head_stays_finite():
    # f'^2 overflows on the walk toward 0 while the integrand, t^-0.86
    # there, stays integrable; the value is an independent mpmath
    # computation (Gauss-Legendre on the log axis, closed-form angular part)
    u = first_harmonic(PowerTail(F(47, 14), F(367, 70)))
    nv = weighted_norm_gradient(u, F(3, 2), F(1), 3)
    assert nv.status is NormStatus.FINITE
    assert math.isfinite(nv.log_value) and math.isfinite(nv.error)
    assert abs(nv.log_value - 5.0797958781828469) <= 4e-9


def test_first_harmonic_gradient_with_a_fast_tail_converges_quickly():
    # f'^2 and (f/t)^2 turn denormal near t ~ 3e12, where panels of the
    # unscaled squares never converge: they took 221,344 points of f'.  The
    # quadrature reads a ScaledProfile through its inner profile, so the
    # inner profile counts them
    class Counted(PowerTail):
        points = 0

        def derivative(self, t):
            Counted.points += np.size(t)
            return super().derivative(t)

    u = first_harmonic(ScaledProfile(Counted(F(47, 85), F(38, 3)), 1 / 8))
    nv = weighted_norm_gradient(u, F(23, 3), F(1), 5)
    assert nv.status is NormStatus.FINITE
    assert 0 < Counted.points < 22_134


def test_truncated_primitive_shape():
    prof = TruncatedPrimitive(F(1, 2), math.log(100.0))
    t = np.array([0.5, 1.0, 4.0, 100.0, 1000.0])
    vals = prof.value(t)
    assert vals[0] == 0.0 and vals[1] == 0.0
    expected_mid = (4.0**0.5 - 1) / 0.5
    assert close(vals[2], expected_mid, rel=1e-12)
    assert vals[3] == vals[4] == prof.plateau()


# ---------------------------------------------------------------------------
# closed pieces and the one range left to the panels
# ---------------------------------------------------------------------------

def ranges_of(monkeypatch, norm, u, d, s, n):
    """The norm and the (lo, hi) of each panel integral it asked for."""
    ranges, integrate = [], quadrature.integrate

    def counted(g, integrals, cfg):
        ranges.extend((it.lo, it.hi) for it in integrals)
        return integrate(g, integrals, cfg)

    with monkeypatch.context() as m:
        m.setattr(quadrature, "integrate", counted)
        return norm(u, d, s, n), ranges


@pytest.mark.parametrize("d,s,n", [(F(0), F(2), 3), (F(-1), F(3, 2), 2), (F(-4), F(2), 2)])
def test_an_inverted_truncated_primitive_gradient_stops_at_its_plateau(d, s, n):
    # f(t) = F(1/t) is the constant F(n) below 1/n, so f' = -t^(beta-2) on
    # (1/n, 1) and 0 below: the panels start at 1/n instead of walking down
    # across the jump of f' there
    beta, log_n = F(3, 2), 3.0
    e1 = float(d + n - 1 + s * (beta - 2)) + 1.0
    want = (math.log(surface_area(n)) + math.log(-math.expm1(-log_n * e1) / e1)) / float(s)
    got = weighted_norm_gradient(radial(InvertedProfile(TruncatedPrimitive(beta, log_n))), d, s, n)
    assert got.finite and abs(got.log_value - want) <= 1e-13


@pytest.mark.parametrize("profile, steps", [(PowerCutoffInner(0), (0.5, 1.0)),
                                            (InvertedProfile(PowerCutoffInner(0)), (1.0, 2.0))],
                         ids=["at_zero", "at_infinity"])
def test_the_gradient_of_a_plateau_cutoff_integrates_no_zeros(monkeypatch, profile, steps):
    # f' is exactly 0 on the plateau: the range ends there, with no piece
    norm, ranges = ranges_of(monkeypatch, weighted_norm_gradient, radial(profile), F(0), F(2), 3)
    assert norm.finite and ranges == [steps]


def test_a_first_harmonic_gradient_of_a_plateau_closes_it_in_closed_form(monkeypatch):
    # |grad u| reads f/t too, which is not 0 on the plateau: f/t = 1/t and
    # f' = 0 there, so the reading is 1/t times H at rho = 0, a closed
    # piece, and the panels cover the step alone.  At p = 2 the norm is
    # (ln 4 pi I) / 2, I = 1/3 (the plateau, exactly) + the integral over
    # (1/2, 1) of t^2 f'^2 / 3 + 2 f^2 / 3, taken here depth first at
    # rel_tol 1e-13; the walk toward 0 that the closed piece replaced read
    # 1.3077419782544233, 2.2e-12 below it
    zeta = PowerCutoffInner(0)
    norm, ranges = ranges_of(monkeypatch, weighted_norm_gradient, first_harmonic(zeta), F(0), F(2), 3)
    assert ranges == [(0.5, 1.0)]
    step, _ = panel_integral(lambda t: (t * t * zeta.derivative(t) ** 2 + 2.0 * zeta.value(t) ** 2) / 3.0,
                             0.5, 1.0, (), QuadratureConfig(rel_tol=1e-13))
    want = math.log(4.0 * math.pi * (1.0 / 3.0 + step)) / 2.0
    assert norm.finite and abs(norm.log_value - want) <= 1e-13


def test_a_first_harmonic_gradient_divergent_at_zero_below_p_one():
    # f = (1 + t)^-3 tends to 1 at 0, so f/t ~ 1/t and d + N - p = -1/2
    # <= 0: divergent, although the reading states no bounded record there
    # for p < 1
    norm = weighted_norm_gradient(first_harmonic(PowerTail(0, 3)), F(-3), F(1, 2), 3)
    assert norm.status is NormStatus.DIVERGENT and norm.detail == "non-integrable at zero"


def test_an_end_with_no_record_at_infinity_stops_where_f_is_zero(monkeypatch):
    # the inversion of a bump that touches 0 vanishes at infinity faster
    # than any power and states no record there: the range stops at the
    # power of 2 past the last one where F is not 0 in floats, f(2^10) =
    # 3e-223 and f(2^11) = 0.  The reference integrates t^2 |F|^2 t^-4 over
    # (1/2, 2^12) depth first at rel_tol 1e-13
    profile = InvertedProfile(SmoothBump(1.0, 1.0))
    for norm, read in ((weighted_norm, profile.value), (weighted_norm_gradient, profile.derivative)):
        got, ranges = ranges_of(monkeypatch, norm, radial(profile), F(-4), F(2), 3)
        assert ranges == [(0.5, 2.0 ** 11)]
        with np.errstate(under="ignore"):
            part, _ = panel_integral(lambda t: read(t) ** 2 / (t * t), 0.5, 2.0 ** 12, profile.breakpoints,
                                     QuadratureConfig(rel_tol=1e-13))
        want = (math.log(4.0 * math.pi) + math.log(part)) / 2.0
        assert got.finite and abs(got.log_value - want) <= 1e-12


@pytest.mark.parametrize("norm", [weighted_norm, weighted_norm_gradient], ids=["value", "gradient"])
def test_a_pure_power_is_divergent_before_any_piece(norm):
    # t^-1 is exact on all of (0, infinity): its exact regions end at 0 and
    # infinity, where no piece has a logarithm
    assert norm(radial(PowerTail(1, 1)), F(0), F(2), 3).status is NormStatus.DIVERGENT


def test_the_gradient_of_a_constant_is_zero():
    # the exact zeros of f' at both ends cross, and no range is left
    norm = weighted_norm_gradient(radial(PowerTail(0, 0)), F(0), F(2), 3)
    assert norm.status is NormStatus.FINITE and norm.log_value == -math.inf


@pytest.mark.parametrize("profile", [
    PowerCutoffInner(F(3, 2) - F(1, 10**18)),
    PiecewisePower([(1.0, F(-3, 2) + F(1, 10**18), -math.inf, 0.0)]),
], ids=["edge_piece", "band"])
def test_a_closed_piece_past_the_float_edge_of_its_verdict_fails(profile):
    # d + N + s pi = 2e-18 > 0 converges, but in floats the head's exponent
    # is exactly -1: the norm fails, it does not raise
    norm = weighted_norm(radial(profile), F(0), F(2), 3)
    assert norm.status is NormStatus.FAILED and norm.detail == "divergent power head"
