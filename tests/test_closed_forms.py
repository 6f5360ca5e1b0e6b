"""PowerTail norms in closed form, against the panels and exact identities.

A `PowerTail` norm read as values is a Beta value, and one read as
derivatives a Beta value or Euler's integral of 2F1
(`quadrature._power_tail_pieces`), with no panel integral.  Each branch of
the 2F1 evaluator (`hypergeometric.Hyp2F1`) is checked against the
depth-first panel oracle on a `PanelTail`, the same profile with no closed
form; p = 2 against an exact polynomial identity in Fractions; and the
polynomial branch of the first-harmonic reading against the exact sum of
its terminating series.
"""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

import ckn.hypergeometric as hypergeometric
import ckn.quadrature as quadrature
import oracle_panels
from ckn.profiles import PowerTail
from ckn.quadrature import NormStatus, weighted_norm, weighted_norm_gradient
from ckn.testfunctions import radial
from oracle_panels import PanelTail
from oracle_sharp import hardy_log_constant, log_sphere_area

F = Fraction

# the rounding of lgamma and of the panel sums, in log
SLACK = 1e-13


def branch(a, b, e, rho, z):
    """The branch Hyp2F1 takes at these arguments, read from its rules:
    on a and g = e - a, each rounded once."""
    if float(a) <= 0 and float(a).is_integer():
        return "polynomial"
    if rho >= hypergeometric.RHO_CONNECT:
        return "euler"
    return "15.3.11" if float(e - a).is_integer() else "15.3.6"


def closed_and_panels(monkeypatch, alpha, beta, b, p, n):
    """The gradient norm of PowerTail(alpha, beta) with the 2F1 branches it
    took, and that of the PanelTail integrated by the depth-first oracle."""
    taken, integrate = [], quadrature.integrate

    class Recorded(hypergeometric.Hyp2F1):
        def at(self, rho, z):
            taken.append(branch(self.a, self.b, self.e, rho, z))
            return super().at(rho, z)

    def refused(*args):
        raise AssertionError("a closed form asked for a panel integral")

    with monkeypatch.context() as m:
        m.setattr(quadrature, "Hyp2F1", Recorded)
        m.setattr(quadrature, "integrate", refused)
        closed = weighted_norm_gradient(radial(PowerTail(alpha, beta)), b, p, n)
    with monkeypatch.context() as m:
        m.setattr(quadrature, "integrate", oracle_panels.integrate)
        panels = weighted_norm_gradient(radial(PanelTail(alpha, beta)), b, p, n)
    assert integrate is quadrature.integrate
    return closed, panels, sorted(taken)


@pytest.mark.parametrize("alpha, beta, b, p, n, branches", [
    (F(0), F(3), F(0), F(2), 3, []),  # |beta|^p B(x + p, y)
    (F(-2), F(0), F(-3), F(2), 2, []),  # |alpha|^p B(x, y + p)
    (F(1, 2), F(3), F(1), F(2), 3, ["polynomial"]),  # 0 < alpha/beta <= 1, a = -2
    (F(1, 2), F(3), F(1), F(3, 2), 3, ["euler"]),
    (F(1, 4), F(4), F(1), F(3, 2), 3, ["15.3.6"]),  # alpha/beta = 1/16, g = 29/8
    (F(2, 3), F(8), F(1), F(3, 2), 3, ["15.3.11"]),  # alpha/beta = 1/12, g = 3
    (F(-3), F(-1, 2), F(-2), F(3, 2), 2, ["euler"]),  # 0 < beta/alpha < 1: the roles swap
    (F(-1), F(3), F(0), F(2), 3, ["polynomial", "polynomial"]),  # u0 = 1/4
    (F(-1), F(3), F(1, 3), F(3, 2), 3, ["euler", "euler"]),  # u0 = 1/4, g = 25/6 and 29/6
    (F(-3), F(1), F(1, 3), F(3, 2), 2, ["euler", "euler"]),  # u0 = 3/4
    (F(-1), F(3), F(1, 2), F(3, 2), 3, ["euler", "euler"]),  # u0 = 1/4, g = 4 and 5
    (F(-1), F(12), F(1, 3), F(3, 2), 3, ["15.3.6", "euler"]),  # u0 = 1/13, g = 29/6
    (F(-1), F(11), F(1, 2), F(3, 2), 3, ["15.3.11", "euler"]),  # u0 = 1/12, g = 5
], ids=["alpha_0", "beta_0", "same_sign_polynomial", "same_sign_euler", "same_sign_15_3_6",
        "same_sign_15_3_11", "same_sign_swapped", "split_polynomial", "split_u0_below_half",
        "split_u0_above_half", "split_integer_g", "split_15_3_6", "split_15_3_11"])
def test_each_branch_matches_the_depth_first_panels(monkeypatch, alpha, beta, b, p, n, branches):
    closed, panels, taken = closed_and_panels(monkeypatch, alpha, beta, b, p, n)
    assert taken == sorted(branches)
    assert closed.finite and panels.finite, (closed.detail, panels.detail)
    assert closed.error <= 1e-11
    assert abs(closed.log_value - panels.log_value) <= (closed.error + panels.error) / float(p) + SLACK


@pytest.mark.parametrize("shift", [-F(1, 10**6), F(1, 10**6)], ids=["below", "above"])
def test_near_an_integer_g_15_3_6_matches_the_depth_first_panels(monkeypatch, shift):
    # g = b + 21/8 = 3 + shift: the two terms of A&S 15.3.6 grow as 1/|g - 3|
    # and cancel, which they do only where the Gamma ratios and the series
    # read one float g; at b = 3/8 - 10^-6 they read two and were 1.44e-7
    # off in log, reporting 5.75e-10
    p = F(3, 2)
    closed, panels, taken = closed_and_panels(monkeypatch, F(1, 4), F(4), F(3, 8) + shift, p, 3)
    assert taken == ["15.3.6"]
    assert closed.finite and panels.finite, (closed.detail, panels.detail)
    assert abs(closed.log_value - panels.log_value) <= (closed.error + panels.error) / float(p) + SLACK


def test_within_half_an_ulp_of_an_integer_g_the_norm_reads_15_3_11(monkeypatch):
    # p = 3/2 + 10^-20 puts g at 3 - 2.5e-21, whose float is 3, where the
    # Gamma ratios of A&S 15.3.6 have poles: the norm raised ValueError
    p = F(3, 2) + F(1, 10**20)
    closed, panels, taken = closed_and_panels(monkeypatch, F(1, 4), F(4), F(3, 8), p, 3)
    assert taken == ["15.3.11"]
    assert closed.finite and panels.finite, (closed.detail, panels.detail)
    assert abs(closed.log_value - panels.log_value) <= (closed.error + panels.error) / float(p) + SLACK


@pytest.mark.parametrize("side", [-1, 1], ids=["below", "above"])
@pytest.mark.parametrize("k", [3, 6, 9])
def test_near_an_integer_g_the_two_sides_of_the_seam_agree(side, k):
    # |g - m| = 10^-k: just below RHO_CONNECT the value is read by A&S 15.3.6,
    # whose terms cancel, and at it by Euler's transformation, whose terms
    # are positive; one ulp of rho apart, each lies within its error of the
    # other.  With 1 -+ g rounded from the exact g and the Gamma ratios
    # reading float(e) - float(a), a = -Fraction(0.999999) / 2 was 5.2e-6
    # off while reporting 1.4e-8
    shift = side * F(1, 10**k)
    below = math.nextafter(hypergeometric.RHO_CONNECT, 0.0)
    for a, b, e in [(-F(1 + 2 * float(shift)) / 2, F(1, 2), F(1, 2)),
                    (F(-3, 2), F(17, 4), F(3, 2) + shift),
                    (F(-7, 3), F(5, 2), F(2, 3) + shift)]:
        assert branch(a, b, e, below, 1.0 - below) == "15.3.6"
        h = hypergeometric.Hyp2F1(a, b, e)
        near, near_error = h.at(below, 1.0 - below)
        far, far_error = h.at(hypergeometric.RHO_CONNECT, 1.0 - hypergeometric.RHO_CONNECT)
        assert abs(near / far - 1.0) <= near_error + far_error, (a, b, e)


def p2_log_norm(alpha, beta, b, n):
    """log || grad PowerTail(alpha, beta) ||_{b,2} on R^n from the p = 2
    identity: the integral of u^(x-1) (1-u)^(y-1) (alpha + gamma u)^2 over
    B(x, y) is alpha^2 + 2 alpha gamma x/(x+y) + gamma^2 x(x+1)/((x+y)(x+y+1)),
    gamma = beta - alpha, x = n + b - 2 (alpha + 1), y = 2 gamma - x,
    summed in Fractions."""
    gamma = beta - alpha
    x = n + b - 2 * (alpha + 1)
    y, xy = 2 * gamma - x, 2 * gamma
    moment = alpha**2 + 2 * alpha * gamma * x / xy + gamma**2 * x * (x + 1) / (xy * (xy + 1))
    log_beta = math.lgamma(x) + math.lgamma(y) - math.lgamma(xy)
    return (log_sphere_area(n) + log_beta + math.log(moment)) / 2


@pytest.mark.parametrize("alpha, beta, b, n", [
    (F(0), F(3), F(0), 3),
    (F(-2), F(0), F(-3), 2),
    (F(1, 2), F(3), F(1), 3),
    (F(-3), F(-1, 2), F(-5), 5),
    (F(-1), F(3), F(0), 3),
    (F(-7, 3), F(5, 6), F(-1), 4),
    (F(1, 10**300), F(2), F(-9, 10), 3),
])
def test_p_2_gradients_match_the_exact_moment_identity(alpha, beta, b, n):
    # the last was Failed: the bound on f' at 0 put its cut past 2^-830
    norm = weighted_norm_gradient(radial(PowerTail(alpha, beta)), b, F(2), n)
    assert norm.finite, norm.detail
    assert abs(norm.log_value - p2_log_norm(alpha, beta, b, n)) <= 1e-13


@pytest.mark.xfail(strict=True, reason="ROADMAP Direction 6: A&S 15.3.6 outside half an ulp of an integer g "
                                        "cancels two parts that grow as 1/|g - m|; 15.3.11 with a first-order "
                                        "term in g - m would read it")
def test_just_outside_half_an_ulp_of_an_integer_g_the_norm_keeps_its_digits():
    # p = 3/2 + 10^-15 puts g at 3 - 2.5e-16, whose float is 2.9999999999999996:
    # the norm reads log 0.41514 with a relative error of 2.04, where p = 3/2
    # + 10^-20, read by 15.3.11, gives 0.418764
    u, b = radial(PowerTail(F(1, 4), F(4))), F(3, 8)
    near = weighted_norm_gradient(u, b, F(3, 2) + F(1, 10**15), 3)
    at = weighted_norm_gradient(u, b, F(3, 2) + F(1, 10**20), 3)
    assert near.finite and at.finite
    assert near.error <= 1e-9
    assert abs(near.log_value - at.log_value) <= (near.error + at.error) / 1.5 + SLACK


def edge_verdict(profile, d, s, n, gradient):
    """(status, detail) of a PowerTail norm as its edge records decide it:
    the record of f at each end, or of f' for gradient, diverges at 0 where
    d + n + s power <= 0 and at infinity where d + n + s power >= 0."""
    ends = [e.derivative() if gradient else e for e in profile.edges()]
    if d + n + s * ends[0].power <= 0:
        return NormStatus.DIVERGENT, "non-integrable at zero"
    if d + n + s * ends[1].power >= 0:
        return NormStatus.DIVERGENT, "non-integrable at infinity"
    return NormStatus.FINITE, ""


@pytest.mark.parametrize("gradient", [False, True], ids=["values", "derivatives"])
def test_power_tail_verdicts_are_those_of_the_edge_records(monkeypatch, gradient):
    # the plan decides from the exact Beta arguments x, y > 0 and reads no
    # edge record; a third of the draws put d where the end at 0 turns, x =
    # 0 exactly, a third where the end at infinity does, y = 0, and the rest
    # around and between them; about one draw in four has alpha or beta 0
    rng, verdicts = random.Random(30 + gradient), set()
    exponents = [F(0)] * 16 + [F(k, q) for q in (1, 2, 3, 4) for k in range(-3 * q, 3 * q + 1) if k]
    draws = []
    for _ in range(400):
        pair = rng.choice(exponents), rng.choice(exponents[16:])
        pair = sorted({*pair, F(0)} if pair[0] == pair[1] else pair)  # alpha != beta, the closed path
        alpha, beta = pair if rng.random() < 0.8 else pair[::-1]  # mostly decaying, beta > alpha
        profile, s, n = PowerTail(alpha, beta), F(rng.randint(2, 16), 4), rng.randint(1, 5)
        ends = [e.derivative() if gradient else e for e in profile.edges()]
        zero, inf = (-n - s * end.power for end in ends)  # the d at which each end turns
        d = zero + (inf - zero) * rng.choice([F(0), F(1), F(rng.randint(-2, 10), 8)])
        draws.append((profile, d, s, n, edge_verdict(profile, d, s, n, gradient)))

    def refused(self):
        raise AssertionError("a PowerTail plan read an edge record")

    monkeypatch.setattr(PowerTail, "edges", refused)
    norm = weighted_norm_gradient if gradient else weighted_norm
    for profile, d, s, n, (status, detail) in draws:
        got = norm(radial(profile), d, s, n)
        assert (got.status, got.detail) == (status, detail), (profile.descriptor(), d, s, n)
        verdicts.add(detail)
    assert verdicts == {"", "non-integrable at zero", "non-integrable at infinity"}


def test_values_are_beta_values_at_every_dilation():
    # B(x, y), x = d + n - alpha s, y = (beta - alpha) s - x, moved to each
    # dilation by the scaling law: 1e-3 from critical at 0
    alpha, beta, d, s, n = F(2, 3) - F(1, 1000), F(3), F(0), F(3), 2
    x = d + n - alpha * s
    y = (beta - alpha) * s - x
    log_norm = (log_sphere_area(n) + math.lgamma(x) + math.lgamma(y) - math.lgamma(x + y)) / float(s)
    for lam in (1.0, 1e-3, 2.0, 1e3):
        norm = weighted_norm(radial(PowerTail(alpha, beta).scaled(lam)), d, s, n)
        assert abs(norm.log_value - (log_norm - float((d + n) / s) * math.log(lam))) <= 1e-13


def test_float_exponents_give_the_norms_of_their_fractions():
    u = radial(PowerTail(F(-1), F(3)))
    for norm in (weighted_norm, weighted_norm_gradient):
        assert norm(u, 0.5, 1.5, 3).log_value == norm(u, F(1, 2), F(3, 2), 3).log_value


@pytest.mark.parametrize("n, p, b, eps", [
    (2, F(4), F(1), F(1, 512)),
    (2, F(4), F(1), F(1, 1024)),
    (3, F(2), F(0), F(1, 128)),
    (3, F(2), F(0), F(1, 512)),
    (5, F(3, 2), F(-1), F(1, 32)),
])
def test_near_extremal_hardy_ratios_of_power_tails_stay_below_the_sharp_constant(n, p, b, eps):
    # PowerTail(k/p - eps, k/p + eps), k = n + b - p, approaches the sharp
    # constant as eps falls, by a gap of order eps^2
    k = n + b - p
    u = radial(PowerTail(k / p - eps, k / p + eps))
    value, grad = weighted_norm(u, b - p, p, n), weighted_norm_gradient(u, b, p, n)
    assert value.finite and grad.finite, (value.detail, grad.detail)
    errors = (value.error + grad.error) / float(p)
    assert value.log_value - grad.log_value <= hardy_log_constant(n, p, b) + errors


@pytest.mark.parametrize("b", [F(7, 2), F(1, 2)], ids=["far", "near"])
def test_the_polynomial_angular_factor_is_within_its_error_of_the_exact_sum(b):
    # H = 2F1(-4, b; 4; 1 - rho), the first-harmonic reading at (n, p) =
    # (8, 8), summed in floats in 1 - rho was 6.0e-14 off while reporting 0
    a, c, rho = F(-4), F(4), F(1, 1000)
    term, exact = F(1), F(1)
    for k in range(4):
        term *= (a + k) * (b + k) / ((c + k) * (k + 1)) * (1 - rho)
        exact += term
    h = hypergeometric.Hyp2F1(a, b, c - b)
    got = float(h(np.array([float(rho)]))[0])
    assert 0.0 < h.bound() <= 1e-13
    assert abs(got - float(exact)) <= h.bound() * float(exact)
