"""PowerBump norms in closed form, against oracles from outside the package.

A `PowerBump` t^-alpha (1 - t^g)^m on [0, 1) read as values is (1/g)
B(x, y), and read as derivatives 1/g times the Euler integral of |a + (b -
a) u|^p (`hypergeometric._euler_pieces`), with no panel integral.  Seeded
draws with alpha < 0, where a + (b - a) u changes sign and the integral is
split at its zero, alpha = 0 and alpha > 0 are held to the Beta value and
the exact p = 2 sum of `oracle_sharp`, and to the depth-first panels on a
`PanelBump`, the same profile with no closed form.  Draws at x = 0
exactly diverge at 0, as the edge records that `PanelBump` reads decide.

The Kelvin inversion t -> 1/t of a power bump, the cutoff witness at
infinity, reads the same forms: its norm || . ||_{d,s} is that of the bump
at -d - 2N, and its gradient norm that of the bump's at -d - 2N + 2s, with
the ends swapped.  The same draws, mapped so, and dilated, are held to
the same oracles, the panels reading the inverted `PanelBump`.
"""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

import ckn.quadrature as quadrature
import oracle_panels
from ckn.params import Params
from ckn.probes import default_verification_family, default_w0_family, verify_instance
from ckn.profiles import InvertedProfile, PowerBump
from ckn.quadrature import NormStatus, weighted_norm, weighted_norm_gradient
from ckn.testfunctions import radial
from oracle_panels import PanelBump
from oracle_sharp import power_bump_log_norm, power_bump_p2_log_gradient

F = Fraction

# the rounding of lgamma and of the panel sums, in log
SLACK = 1e-13


def refused(*args):
    raise AssertionError("a closed form asked for a panel integral")


def draws(seed, gradient, count, s=None, ms=(F(2), F(3), F(5, 2), F(4)),
          gs=(F(1, 2), F(1), F(3, 2), F(2), F(3), F(4))):
    """(alpha, g, m, d, s, n) with alpha < 0, = 0 and > 0 in turn, g from gs,
    m from ms, s drawn unless given, and d set from a drawn x: x = 0
    exactly in one draw of five, else x in (1/4, 4)."""
    rng, out, fixed = random.Random(seed), [], s
    for i in range(count):
        alpha = [-F(rng.randint(1, 24), rng.randint(1, 6)), F(0), F(rng.randint(1, 12), rng.randint(1, 6))][i % 3]
        g, m = rng.choice(gs), rng.choice(ms)
        s, n = fixed or F(rng.randint(4, 12), 4), rng.randint(1, 5)
        x = F(0) if i % 5 == 4 else F(rng.randint(1, 16), 4)
        if gradient:  # x = (d + n - (alpha + 1) s) / g, plus s where alpha is 0
            d = g * (x - s * (alpha == 0)) - n + (alpha + 1) * s
        else:  # x = (d + n - alpha s) / g
            d = g * x - n + alpha * s
        out.append((alpha, g, m, d, s, n))
    return out


def closed_and_panels(monkeypatch, norm, alpha, g, m, d, s, n):
    """The norm of PowerBump(alpha, g, m), which asks for no panel integral,
    and that of the PanelBump integrated by the depth-first oracle."""
    with monkeypatch.context() as patch:
        patch.setattr(quadrature, "integrate", refused)
        closed = norm(radial(PowerBump(alpha, g, m)), d, s, n)
    with monkeypatch.context() as patch:
        patch.setattr(quadrature, "integrate", oracle_panels.integrate)
        panels = norm(radial(PanelBump(alpha, g, m)), d, s, n)
    return closed, panels


@pytest.mark.parametrize("gradient", [False, True], ids=["values", "derivatives"])
def test_norms_match_the_depth_first_panels_and_the_edge_verdicts(monkeypatch, gradient):
    norm, verdicts = weighted_norm_gradient if gradient else weighted_norm, set()
    for alpha, g, m, d, s, n in draws(31 + gradient, gradient, 45):
        closed, panels = closed_and_panels(monkeypatch, norm, alpha, g, m, d, s, n)
        what = (alpha, g, m, d, s, n)
        assert (closed.status, closed.detail) == (panels.status, panels.detail), what
        verdicts.add(closed.detail)
        if closed.finite:
            assert closed.error <= 1e-11, what
            assert abs(closed.log_value - panels.log_value) <= (closed.error + panels.error) / float(s) + SLACK, what
    assert verdicts == {"", "non-integrable at zero"}


def test_values_are_beta_values():
    for alpha, g, m, d, s, n in draws(33, False, 60):
        got = weighted_norm(radial(PowerBump(alpha, g, m)), d, s, n)
        if (d + n - alpha * s) / g == 0:
            assert (got.status, got.detail) == (NormStatus.DIVERGENT, "non-integrable at zero")
            continue
        want = power_bump_log_norm(alpha, g, m, d, s, n)
        assert got.finite and abs(got.log_value - want) <= got.error / float(s) + SLACK, (alpha, g, m, d, s, n)


def test_p_2_gradients_with_integer_m_are_finite_binomial_sums():
    for alpha, g, m, b, p, n in draws(34, True, 45, F(2), (F(2), F(3), F(4))):
        got = weighted_norm_gradient(radial(PowerBump(alpha, g, m)), b, p, n)
        if (b + n - (alpha + 1) * p) / g + p * (alpha == 0) == 0:
            assert (got.status, got.detail) == (NormStatus.DIVERGENT, "non-integrable at zero")
            continue
        want = power_bump_p2_log_gradient(alpha, g, int(m), b, n)
        assert got.finite and abs(got.log_value - want) <= got.error / 2 + SLACK, (alpha, g, m, b, n)


@pytest.mark.parametrize("family", [default_verification_family, default_w0_family])
def test_only_first_harmonic_gradients_take_panels(monkeypatch, family):
    # every radial norm of the default family is a closed form; the first
    # harmonic gradients of its bumps and tails stay on the panels
    params = Params(3, F(2), F(2), F(4), F(0), F(0), F(-1))
    asked, integrate = [], quadrature.integrate

    def counted(g, integrals, cfg):
        asked.append(len(integrals))
        return integrate(g, integrals, cfg)

    monkeypatch.setattr(quadrature, "integrate", counted)
    report = verify_instance(params, F(1), family=family(params))
    assert report.ok
    assert asked == ([] if family is default_verification_family else [6])


def test_the_ball_bump_is_the_power_bump_0_2_2():
    # (1 - t^2)^2 at every t, with f' = -4 t (1 - t^2), and 0 past t = 1
    t = np.array([0.0, 0.25, 0.5, 0.999, 1.0, 1.5, 1e6])
    bump = PowerBump(0, 2, 2)
    inside = t < 1.0
    assert np.array_equal(bump.value(t), np.where(inside, (1.0 - t * t) ** 2, 0.0))
    t, inside = t[1:], inside[1:]  # f' reads t^(g-1) as t^g / t
    assert np.allclose(bump.derivative(t), np.where(inside, -4.0 * t * (1.0 - t * t), 0.0), rtol=1e-15, atol=0.0)


# ---------------------------------------------------------------------------
# inverted power bumps, the cutoff witnesses at infinity
# ---------------------------------------------------------------------------

SCALES = (1.0, 0.375, 6.0)


def inverted_draws(seed, gradient, count, s=None, ms=(F(2), F(3), F(5, 2), F(4))):
    """(alpha, g, m, d, s, n, lam): the draws of `draws` with g in {1, 2,
    3} and d mapped back from the bump's d', d = -d' - 2N, plus 2s for
    gradients, each with a scale lam."""
    rng = random.Random(seed)
    return [(alpha, g, m, -inner - 2 * n + 2 * s * gradient, s, n, rng.choice(SCALES))
            for alpha, g, m, inner, s, n in draws(seed, gradient, count, s, ms, (F(1), F(2), F(3)))]


def degree(d, s, n, gradient):
    """The power of lam by which a dilation f(lam t) moves the norm."""
    return (1 if gradient else 0) - (d + n) / s


@pytest.mark.parametrize("gradient", [False, True], ids=["values", "derivatives"])
def test_inverted_norms_match_the_depth_first_panels_and_the_edge_verdicts(monkeypatch, gradient):
    norm, verdicts = weighted_norm_gradient if gradient else weighted_norm, set()
    for alpha, g, m, d, s, n, lam in inverted_draws(41 + gradient, gradient, 45):
        with monkeypatch.context() as patch:
            patch.setattr(quadrature, "integrate", refused)
            closed = norm(radial(InvertedProfile(PowerBump(alpha, g, m)).scaled(lam)), d, s, n)
        with monkeypatch.context() as patch:
            patch.setattr(quadrature, "integrate", oracle_panels.integrate)
            panels = norm(radial(InvertedProfile(PanelBump(alpha, g, m)).scaled(lam)), d, s, n)
        what = (alpha, g, m, d, s, n, lam)
        assert (closed.status, closed.detail) == (panels.status, panels.detail), what
        verdicts.add(closed.detail)
        if closed.finite:
            assert closed.error <= 1e-11, what
            assert abs(closed.log_value - panels.log_value) <= (closed.error + panels.error) / float(s) + SLACK, what
    assert verdicts == {"", "non-integrable at infinity"}


def test_inverted_values_are_beta_values_at_the_mapped_weight():
    for alpha, g, m, d, s, n, lam in inverted_draws(43, False, 60):
        got = weighted_norm(radial(InvertedProfile(PowerBump(alpha, g, m)).scaled(lam)), d, s, n)
        inner = -d - 2 * n
        if (inner + n - alpha * s) / g == 0:
            assert (got.status, got.detail) == (NormStatus.DIVERGENT, "non-integrable at infinity")
            continue
        want = power_bump_log_norm(alpha, g, m, inner, s, n) + float(degree(d, s, n, False)) * math.log(lam)
        assert got.finite and abs(got.log_value - want) <= got.error / float(s) + SLACK, (alpha, g, m, d, s, n, lam)


def test_inverted_p_2_gradients_are_finite_binomial_sums_at_the_mapped_weight():
    for alpha, g, m, b, p, n, lam in inverted_draws(44, True, 45, F(2), (F(2), F(3), F(4))):
        got = weighted_norm_gradient(radial(InvertedProfile(PowerBump(alpha, g, m)).scaled(lam)), b, p, n)
        inner = -b - 2 * n + 4
        if (inner + n - (alpha + 1) * p) / g + p * (alpha == 0) == 0:
            assert (got.status, got.detail) == (NormStatus.DIVERGENT, "non-integrable at infinity")
            continue
        want = power_bump_p2_log_gradient(alpha, g, int(m), inner, n) + float(degree(b, p, n, True)) * math.log(lam)
        assert got.finite and abs(got.log_value - want) <= got.error / 2 + SLACK, (alpha, g, m, b, n, lam)
