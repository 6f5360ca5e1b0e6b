"""First-harmonic gradient norms through the closed-form angular factor.

The gradient norm of u = f(|x|) x1/|x| on R^N is a radial integral of
m^p H, m = max(|f'|, |f/t|), with H a 2F1 of rho, the smaller of f'^2 and
(f/t)^2 over the larger (`quadrature._FirstHarmonicGradient`).  These
tests check the factor against its closed forms and against the 2-D
angle rule it replaced (`oracle_angular`), and the norm against a
reference computed in 30-digit arithmetic.
"""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

import ckn.hypergeometric as hypergeometric
import ckn.quadrature as quadrature
from ckn.profiles import PowerTail, RadialProfile, ScaledProfile
from ckn.quadrature import QuadratureConfig, weighted_norm_gradient
from ckn.testfunctions import first_harmonic
from oracle_angular import angular_integral, first_harmonic_gradient_norm

F = Fraction


def beta(x, y):
    return math.exp(math.lgamma(x) + math.lgamma(y) - math.lgamma(x + y))


class Point(RadialProfile):
    """f' = fp and f/t = ft at x = 1, elementwise."""

    def __init__(self, fp, ft):
        self.fp, self.ft = np.asarray(fp, dtype=float), np.asarray(ft, dtype=float)

    def value(self, x):
        return self.ft * x

    def derivative(self, x):
        return self.fp


def factor(fp, ft, p, n):
    """The integral over (0, pi) of (fp^2 cos^2 + ft^2 sin^2)^(p/2)
    sin^(n-2), as the reading gives it: B(1/2, (n-1)/2) (m H^(1/p))^p."""
    fp = np.atleast_1d(np.asarray(fp, dtype=float))
    reading = quadrature._first_harmonic_gradient(n, float(p))
    return beta(0.5, (n - 1) / 2) * reading(Point(fp, ft), np.ones_like(fp), 1.0) ** p


def agm_e(m1):
    """The complete elliptic integral E(m) = integral over (0, pi/2) of
    sqrt(1 - m sin^2), for m1 = 1 - m > 0, by the arithmetic-geometric
    mean (A&S 17.6)."""
    a, b, total, power = 1.0, math.sqrt(m1), 0.5 * (1.0 - m1), 0.5
    while a - b > 1e-15 * a:
        a, b, c = 0.5 * (a + b), math.sqrt(a * b), 0.5 * (a - b)
        power *= 2.0
        total += power * c * c
    return math.pi / (2.0 * a) * (1.0 - total)


PS = [1, 2, 3, 5, F(1, 2), F(3, 2), F(7, 3), F(9, 2), F(1001, 1000), F(999, 1000), F(2999, 1000), F(3001, 1000)]


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_equal_squares_give_the_area_factor(n):
    # rho = 1: the integrand is m^p sin^(n-2) alone
    for p in PS:
        for m in (1e-40, 0.5, 3.0, 1e40):
            got = factor([m, -m], [m, m], float(p), n) / m ** float(p)
            assert got == pytest.approx(beta(0.5, (n - 1) / 2), rel=1e-14, abs=0.0)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_one_vanishing_term_gives_a_beta_function(n):
    # rho = 0: |f'|^p |cos|^p, or |f/t|^p |sin|^p, against sin^(n-2)
    for p in PS:
        pf = float(p)
        assert factor(2.0, 0.0, pf, n)[0] == pytest.approx(2.0**pf * beta((pf + 1) / 2, (n - 1) / 2), rel=1e-13)
        assert factor(0.0, 2.0, pf, n)[0] == pytest.approx(2.0**pf * beta(0.5, (n + pf - 1) / 2), rel=1e-13)


def test_a_vanishing_gradient_gives_zero():
    # m = 0: no 0/0, no log of 0, and no RuntimeWarning, which is an error here
    for p in PS:
        assert factor([0.0, 0.0], [0.0, -0.0], float(p), 3).tolist() == [0.0, 0.0]


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_the_square_is_the_mean_of_the_squares(n):
    # p = 2: cos^2 and sin^2 weigh f'^2 and (f/t)^2 by 1/n and (n-1)/n
    rng = np.random.default_rng(n)
    fp, ft = rng.normal(size=200), rng.normal(size=200) * np.exp(rng.uniform(-20, 20, size=200))
    want = beta(0.5, (n - 1) / 2) * (fp**2 / n + ft**2 * (n - 1) / n)
    assert np.allclose(factor(fp, ft, 2.0, n), want, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_the_factor_matches_the_angle_rule_where_rho_is_not_small(n):
    # 512 nodes resolve the corner at psi = pi/2 to rounding for rho >= 1e-2,
    # within 1.1e-14; p within 1e-3 of an odd integer makes the two terms of
    # A&S 15.3.6 cancel, which costs about 2 digits more
    rng = np.random.default_rng(100 + n)
    rho = np.concatenate([10.0 ** rng.uniform(-2, 0, size=300), [1e-2, 0.5, 0.5 - 1e-12, 0.5 + 1e-12, 1.0]])
    size = rng.choice([-1.0, 1.0], size=rho.size) * 10.0 ** rng.uniform(-3, 3, size=rho.size)
    first = rng.random(rho.size) < 0.5
    fp = np.where(first, size, size * np.sqrt(rho))
    ft = np.where(first, size * np.sqrt(rho), size)
    for p in PS + [F(13, 4), F(21, 2)]:
        want = angular_integral(fp, ft, float(p), n, 512)
        close = 2e-12 if abs(p - round(p)) == F(1, 1000) else 2e-14
        assert np.allclose(factor(fp, ft, float(p), n), want, rtol=close, atol=0.0), p


def test_odd_powers_match_their_closed_forms_down_to_rho_zero():
    # p = 1 takes A&S 15.3.11 where rho < 1/2.  In three dimensions the
    # angle integral is that of sqrt(B + (A - B) u^2) over u in (-1, 1),
    # sqrt(A) + B/k asinh(k/sqrt(B)) for k^2 = A - B > 0, and sqrt(A) +
    # B/k atan(k/sqrt(A)) for k^2 = B - A > 0; in two it is
    # 2 sqrt(A) E(1 - B/A) for A >= B
    for rho in (0.0, 1e-300, 1e-12, 1e-4, 0.1, 0.3, 0.49, 0.5, 0.7, 0.99, 1.0):
        a, b = 1.0, rho  # f'^2 and (f/t)^2, f' dominant
        k = math.sqrt(a - b)
        want = math.sqrt(a) + (b / k * math.asinh(k / math.sqrt(b)) if b > 0 else 0.0) if k else 2.0
        assert factor(math.sqrt(a), math.sqrt(b), 1.0, 3)[0] == pytest.approx(want, rel=1e-14, abs=0.0), rho
        a, b = rho, 1.0  # f/t dominant
        k = math.sqrt(b - a)
        want = math.sqrt(a) + b / k * math.atan2(k, math.sqrt(a)) if k else 2.0
        assert factor(math.sqrt(a), math.sqrt(b), 1.0, 3)[0] == pytest.approx(want, rel=1e-14, abs=0.0), rho
        want = 2.0 * (agm_e(rho) if rho else 1.0)
        assert factor(1.0, math.sqrt(rho), 1.0, 2)[0] == pytest.approx(want, rel=1e-14, abs=0.0), rho


@pytest.mark.parametrize("n", [2, 3, 4, 6])
def test_near_an_odd_power_the_reported_error_covers_the_cancellation(n):
    # within 1e-6 of an odd p the two terms of A&S 15.3.6 cancel to about
    # 1e-9 relative, worst just below rho = RHO_CONNECT, where the factor
    # leaves them for Euler's series; the 2-D rule at 512 nodes is exact to
    # 1.1e-14 for rho >= 1e-2
    rng = np.random.default_rng(200 + n)
    seam = hypergeometric.RHO_CONNECT
    rho = np.concatenate([10.0 ** rng.uniform(-2, math.log10(0.5), size=200),
                          [0.49, 0.4999, 0.5 - 1e-12, seam - 1e-4, seam - 1e-12]])
    first = rng.random(rho.size) < 0.5
    fp, ft = np.where(first, 1.0, np.sqrt(rho)), np.where(first, np.sqrt(rho), 1.0)
    worst = 0.0
    for p in (1 + 1e-6, 1 - 1e-6, 3 + 1e-6, 3 - 1e-6):
        error = quadrature._first_harmonic_gradient(n, p).error
        off = np.max(np.abs(factor(fp, ft, p, n) / angular_integral(fp, ft, p, n, 512) - 1))
        assert off <= error + 2e-14 and error < 1e-6, (p, off, error)
        worst = max(worst, off)
    assert worst > 1e-11
    # the norm reports it
    p = F(1000001, 1000000)
    got = weighted_norm_gradient(first_harmonic(PowerTail(F(1, 2), F(3))), p * 3 - n, p, n)
    assert got.finite and got.error >= quadrature._first_harmonic_gradient(n, float(p)).error


def test_the_d8_profile_is_pinned_to_a_30_digit_reference():
    # The reference is a 1-D mpmath integral in t, at 30 digits, of the
    # mpmath 2F1 factor; at t = 1/8 that factor agrees to 20 digits with a
    # 2-D mpmath quadrature over the angle.  The 48-node angle rule read
    # -10.6952630865, 1.6e-6 off, with a reported error of 5.6e-16.  The
    # walk toward infinity drops 9e-11 of the t^(-3/2) tail at the default
    # rel_tol, an error no reported error includes
    u = first_harmonic(ScaledProfile(PowerTail(F(13, 2), 8), 8))
    got = weighted_norm_gradient(u, F(9, 2), F(1), 4)
    assert abs(got.log_value - -10.6952646946913) <= 1e-10


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_norms_match_the_angle_rule_at_192_nodes(n):
    # t^-alpha (1 + t)^(alpha - beta) has |f'| / |f/t| = (alpha + beta t) /
    # (1 + t), between alpha and beta, so rho >= 1/16 everywhere and 192
    # nodes are exact; where f' or f/t vanishes, as at the top of a bump,
    # the 2-D rule is not: 1.9e-5 off in log at p = 2/3
    rng = random.Random(1600 + n)
    tight = QuadratureConfig(rel_tol=1e-12)
    for alpha, beta in ((F(1, 2), F(3)), (F(1, 4), F(2)), (F(1), F(4))):
        for lam in (1.0, 1 / 3, 40.0):
            p = F(rng.randint(2, 12), rng.randint(2, 4))
            # between the critical weights p (alpha + 1) - n at 0 and p (beta + 1) - n at infinity
            b = p * (1 + (alpha + beta) / 2) - n
            profile = PowerTail(alpha, beta).scaled(lam)
            got = weighted_norm_gradient(first_harmonic(profile), b, p, n, tight)
            want = first_harmonic_gradient_norm(profile, b, p, n, tight)
            assert got.finite and want.finite
            assert abs(got.log_value - want.log_value) <= 1e-11, (alpha, beta, lam, p)
