"""Translated norms of the ball bump as closed-form hypergeometric series.

The norm of f(|x - x0|) is R^d |S^(N-1)| times the integral of
t^(N-1) |f|^s M(t/R), where M is the mean of |e + x w|^d over the sphere.
For the ball bump f = (1 - t^2)^2 the moments are Beta integrals, so the
integral is one 2F1 (values) or 3F2 (gradients) series with no panels.
These tests check the series against exact forms where M is a polynomial,
against exact means integrated by the depth-first `oracle_panels`, and
against the 2-D integrand of `oracle_angular`.
"""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

import ckn.panels as panels
import ckn.quadrature as quadrature
from ckn.panels import QuadratureConfig
from ckn.params import Params
from ckn.probes import compute_norms, default_verification_family, verify_instance
from ckn.profiles import BallBump, InvertedProfile, PiecewisePower, SmoothBump
from ckn.quadrature import (
    MEAN_TERMS,
    NormStatus,
    surface_area,
    weighted_norm,
    weighted_norm_gradient,
    weighted_norms,
)
from ckn.testfunctions import TestFunction, radial, translated
from conftest import rational
from oracle_angular import _polar_rule, translated_norm
from oracle_panels import panel_integral

F = Fraction
EPS = 2.0 ** -52  # the float spacing at 1


def norm_of(gradient):
    return weighted_norm_gradient if gradient else weighted_norm


def series_lengths(monkeypatch):
    """The number of terms that each translated norm's series reads, in a
    list that grows as norms are computed."""
    lengths, mean_series = [], quadrature._mean_series

    def recorded(terms, x, least):
        out = mean_series(terms, x, least)
        lengths.append(len(terms.coefs))
        return out

    monkeypatch.setattr(quadrature, "_mean_series", recorded)
    return lengths


def series_terms(monkeypatch):
    """The nonzero coefficients that each translated norm's series read,
    the one past its cut included, in a list that grows as norms are
    computed."""
    seen, mean_series = [], quadrature._mean_series

    def recorded(terms, x, least):
        out = mean_series(terms, x, least)
        seen.append([coef for coef in terms.coefs if coef != 0.0])
        return out

    monkeypatch.setattr(quadrature, "_mean_series", recorded)
    return seen


# ---------------------------------------------------------------------------
# exact forms: weights whose spherical mean is a polynomial
# ---------------------------------------------------------------------------

def log_beta_form(n, s, lam, offset, d, gradient):
    """The log of R^d |S^(n-1)| lam^-n 1/2 B(n/2, 2s + 1), or of R^d
    |S^(n-1)| (4 lam)^s lam^-n 1/2 B(e, s + 1), e = (n + s)/2, for
    gradient: the integral when M = 1."""
    if gradient:
        e = (n + s) / 2
        beta = math.lgamma(e) + math.lgamma(s + 1) - math.lgamma(e + s + 1) + s * math.log(4 * lam)
    else:
        beta = math.lgamma(n / 2) + math.lgamma(2 * s + 1) - math.lgamma(n / 2 + 2 * s + 1)
    return d * math.log(offset) + math.log(surface_area(n)) - n * math.log(lam) - math.log(2) + beta


CASES = [(n, s, lam, offset) for n in range(1, 6) for s in (F(1), F(3, 2), F(5, 2))
         for lam, offset in ((1.0, 4.0), (8.0, 1.5), (0.5, 64.0))]


@pytest.mark.parametrize("gradient", [False, True])
def test_where_the_mean_is_one_each_norm_is_its_beta_form(gradient):
    # at d = 0 the weight is 1; at d = 2 - N, |x|^d is the Newton kernel
    # (|x| in one dimension), harmonic off the origin, so its mean on a
    # sphere that leaves the origin outside is its value at the center
    for n, s, lam, offset in CASES:
        u = translated(BallBump().scaled(lam), offset)
        for d in {F(0), F(2 - n)}:
            got = norm_of(gradient)(u, d, s, n)
            want = log_beta_form(n, float(s), lam, offset, float(d), gradient) / float(s)
            assert got.finite and 0 < got.error <= 64 * EPS
            assert abs(got.log_value - want) <= 8 * EPS * max(abs(want), 1.0), (n, s, lam, offset, d)


def test_at_the_quadratic_weight_the_value_series_is_one_term_long():
    # |e + x w|^2 = 1 + x^2 + 2 x (e.w), and e.w has mean 0: M = 1 + x^2,
    # whose Beta moments make the series 1 + N y / (N + 4s + 2)
    for n, s, lam, offset in CASES:
        y = (1 / (lam * offset)) ** 2
        got = weighted_norm(translated(BallBump().scaled(lam), offset), F(2), s, n)
        want = (log_beta_form(n, float(s), lam, offset, 2.0, False) + math.log1p(n * y / (n + 4 * s + 2))) / float(s)
        assert abs(got.log_value - want) <= 8 * EPS * max(abs(want), 1.0), (n, s, lam, offset)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_newton_theorem_the_mean_of_the_newton_kernel_is_one(monkeypatch, n):
    # at d = 2 - N, b = 1 - N/2 - d/2 = 0: both series stop after their
    # first term, and each norm is its Beta form at every scale
    seen = series_terms(monkeypatch)
    for s in (F(1), F(3, 2), F(5, 2)):
        for lam, offset in ((1.0, 4.0), (8.0, 1.5), (0.5, 64.0)):
            u = translated(BallBump().scaled(lam), offset)
            for gradient in (False, True):
                got = norm_of(gradient)(u, F(2 - n), s, n)
                want = log_beta_form(n, float(s), lam, offset, 2.0 - n, gradient) / float(s)
                assert got.finite and got.error == 64 * EPS
                assert abs(got.log_value - want) <= 8 * EPS * max(abs(want), 1.0), (s, lam, offset, gradient)
    assert seen and all(coefs == [1.0] for coefs in seen)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_mean_of_the_trivial_and_the_quadratic_weight(monkeypatch, n):
    # at d = 0, a = 0: one term; at d = 2, a = -1: two terms, 1 + N y /
    # (N + 4s + 2) for values and, from the Beta moments of t^(N-1+s) (1 -
    # t^2)^s, 1 + e y / (e + s + 1), e = (N + s)/2, for gradients
    seen = series_terms(monkeypatch)
    for m, s, lam, offset in CASES:
        if m != n:
            continue
        y, sf = (1 / (lam * offset)) ** 2, float(s)
        u = translated(BallBump().scaled(lam), offset)
        for gradient in (False, True):
            seen.clear()
            one = norm_of(gradient)(u, F(0), s, n)
            want = log_beta_form(n, sf, lam, offset, 0.0, gradient) / sf
            assert seen == [[1.0]] and one.error == 64 * EPS
            assert abs(one.log_value - want) <= 8 * EPS * max(abs(want), 1.0)
            seen.clear()
            quadratic = norm_of(gradient)(u, F(2), s, n)
            e = (n + sf) / 2
            second = e / (e + sf + 1) if gradient else n / (n + 4 * sf + 2)
            want = (log_beta_form(n, sf, lam, offset, 2.0, gradient) + math.log1p(second * y)) / sf
            assert len(seen) == 1 and len(seen[0]) == 2 and quadratic.error == 64 * EPS
            assert abs(quadratic.log_value - want) <= 8 * EPS * max(abs(want), 1.0), (s, lam, offset, gradient)


# ---------------------------------------------------------------------------
# the reported error against exact means
# ---------------------------------------------------------------------------

def m1(x: np.ndarray, d: float) -> np.ndarray:
    """The N = 1 mean, the two-point average ((1+x)^d + (1-x)^d) / 2."""
    return ((1.0 + x) ** d + (1.0 - x) ** d) / 2.0


def m3(x: np.ndarray, d: float) -> np.ndarray:
    """The N = 3 mean ((1+x)^e - (1-x)^e) / (2 x e), e = d + 2, written
    with expm1 and atanh so that it keeps its digits at small x."""
    e = d + 2.0
    return (1.0 - x) ** e * np.expm1(2.0 * e * np.arctanh(x)) / (2.0 * x * e)


def polar_mean(n):
    """The mean of (1 + x^2 + 2 x cos psi)^(d/2) over S^(n-1), n >= 2, by
    the 192-node polar rule of `oracle_angular`: the integrand's nearest
    singularity in psi is about 0.69 off pi at x = 1/2 and 0.13 off at x =
    7/8, so the rule is good to rounding for x <= 7/8."""
    psi, weight = _polar_rule(n, 192)
    cos, weight = np.cos(psi), weight / weight.sum()

    def mean(x: np.ndarray, d: float) -> np.ndarray:
        x = np.asarray(x, dtype=float)[..., None]
        return ((1.0 + x * x + 2.0 * x * cos) ** (d / 2.0)) @ weight

    return mean


MEANS = {1: m1, 3: m3}


def exact_log_norm(n, d, s, offset, gradient):
    """The log norm of the unit ball bump at distance offset, its mean M
    exact (MEANS[n], else the polar rule's), integrated on (0, 1) by the
    depth-first oracle at 1e-14."""
    profile, mean = BallBump(), MEANS.get(n) or polar_mean(n)
    values = profile.derivative if gradient else profile.value

    def g(t):
        return t ** (n - 1) * np.abs(values(t)) ** float(s) * mean(t / offset, float(d))

    total, _ = panel_integral(g, 0.0, 1.0, (), QuadratureConfig(rel_tol=1e-14))
    return (float(d) * math.log(offset) + math.log(surface_area(n)) + math.log(total)) / float(s)


# x = 1/16 at large |d|, the witness members' worst case, and series
# with negative terms: 2 - N < d < 0, and d = 25 at x = 1/2
ERROR_CASES = [(1 / 16, d) for d in (F(-25), F(-49, 2), F(49, 2), F(25))] + [(1 / 16, F(-1, 2)), (1 / 2, F(25))]


@pytest.mark.parametrize("n, gradient", [(n, gradient) for n in range(1, 6) for gradient in (False, True)])
def test_the_reported_error_covers_the_distance_to_an_exact_mean(monkeypatch, n, gradient):
    # at N = 2, b = a, so every term is a square times a positive factor;
    # in every other dimension some case has a negative term
    seen, s = series_terms(monkeypatch), F(2) if gradient else F(3, 2)
    for x, d in ERROR_CASES:
        got = norm_of(gradient)(translated(BallBump(), 1 / x), d, s, n)
        want = exact_log_norm(n, d, s, 1 / x, gradient)
        assert 0 < got.error < 1e-6
        assert abs(got.log_value - want) <= got.error, (x, d)
    assert any(coef < 0 for coefs in seen for coef in coefs) == (n != 2)


# the weights of each dimension with an elementary mean, at x from 1/16
# to 0.99, where a series takes thousands of terms
WEIGHT_XS = (1 / 16, 1 / 2, 0.99)


def assert_covered_by_exact_mean(n, d):
    for x in WEIGHT_XS:
        for gradient, s in ((False, F(3, 2)), (True, F(2))):
            got = norm_of(gradient)(translated(BallBump(), 1 / x), d, s, n)
            assert got.finite and 0 < got.error < 1e-6
            assert abs(got.log_value - exact_log_norm(n, d, s, 1 / x, gradient)) <= got.error, (x, gradient)


@pytest.mark.parametrize("d", [-9, -5, -3, -2, -1, 1, 2, 3, 4, 7])
def test_mean_in_one_dimension_is_the_two_point_average(d):
    assert_covered_by_exact_mean(1, F(d))


@pytest.mark.parametrize("d", [-9, -5, -4, -3, -1, 1, 3, 6])
def test_mean_in_three_dimensions_matches_the_closed_form(d):
    assert_covered_by_exact_mean(3, F(d))


@pytest.mark.parametrize("n, d", [(1, F(-3)), (1, F(-9)), (3, F(-5)), (3, F(-9)), (3, F(-4)), (1, F(-7, 2))])
@pytest.mark.parametrize("x_max", [0.5, 0.9, 0.99])
def test_truncation_bound_covers_the_true_error(monkeypatch, n, d, x_max):
    # a loose tolerance, so that truncation, not rounding, sets the error;
    # no term of these series is negative, so the bound is tight
    monkeypatch.setattr(quadrature, "MEAN_TOL", 1e-8)
    s = F(3, 2)
    got = weighted_norm(translated(BallBump(), 1 / x_max), d, s, n)
    assert got.finite and 64 * EPS < got.error <= 1e-8 + 64 * EPS
    true = float(s) * abs(got.log_value - exact_log_norm(n, d, s, 1 / x_max, False))
    assert got.error / 100 <= true <= got.error


@pytest.mark.parametrize("n, d, x, mean_tol", [
    # a polynomial series that cancels, 1 - y/13: no tail, and the
    # rounding bound 64 eps (1 + y/13) / (1 - y/13)
    (5, F(-1), 7 / 8, 1e-17),
    # at a loose series tolerance, the tail bound dominates
    (3, F(-5), 1 / 4, 1e-10),
])
def test_a_series_reports_its_rounding_and_its_tail_bound(monkeypatch, n, d, x, mean_tol):
    monkeypatch.setattr(quadrature, "MEAN_TOL", mean_tol)
    s = F(3, 2)
    got = weighted_norm(translated(BallBump(), 1 / x), d, s, n)
    rounding = 64 * EPS
    if d == -1:
        y = x * x
        assert got.error == pytest.approx(rounding * (1 + y / 13) / (1 - y / 13), rel=1e-12, abs=0.0)
    else:
        assert 10 * rounding < got.error - rounding <= mean_tol
    assert abs(got.log_value - exact_log_norm(n, d, s, 1 / x, False)) <= got.error


def test_series_past_the_term_budget_is_refused():
    def norm(x, d):
        return weighted_norm(translated(BallBump(), 1 / x), d, F(2), 3)

    assert norm(0.99, F(-5)).finite
    assert norm(0.9995, F(-5)).status is NormStatus.FAILED
    # a polynomial mean needs no budget
    polynomial = norm(0.9999, F(4))
    assert polynomial.finite and polynomial.error == 64 * EPS


@pytest.mark.parametrize("s, gradient", [(1, False), (2, True), (2, False)])
def test_near_the_sphere_the_true_error_stays_within_the_reported_one(s, gradient):
    # x = 0.99: the 48-node angular rule of the 2-D integrand was off here
    # by up to 2.6e-10 in log, with a reported error of 6e-13
    n, d, offset = 3, F(-5), 1.0 / 0.99
    got = norm_of(gradient)(translated(BallBump(), offset), d, F(s), n)
    assert got.finite
    assert abs(got.log_value - exact_log_norm(n, d, F(s), offset, gradient)) <= got.error


# ---------------------------------------------------------------------------
# translated norms against the 2-D integrand
# ---------------------------------------------------------------------------

# the oracle to 1e-12: in one dimension |f|^s is about f(0)^s = 1 near 0,
# and at the default 1e-9 its walk toward 0 drops up to 1.7e-12 in log
# past its last panel
TIGHT = QuadratureConfig(rel_tol=1e-12)


def assert_pinned(u, d, s, n, gradient):
    norm = norm_of(gradient)(u, d, s, n)
    oracle = translated_norm(u.profile, d, s, n, u.offset, TIGHT, use_derivative=gradient)
    assert norm.finite and oracle.finite
    assert abs(norm.log_value - oracle.log_value) <= 1e-12


def test_translated_norms_match_the_angular_oracle():
    rng = random.Random(611)
    for n in range(1, 6):
        for _ in range(12):
            s, d = 1 + rational(rng, 0, 3), rational(rng, -3 * n, n + 3)
            width = float(rational(rng, 0, 2) + F(1, 4))
            profile = BallBump().scaled(1.0 / width)
            # x_max = width / offset in [1/1000, 1/2]
            offset = width * 10.0 ** rng.uniform(math.log10(2.0), 3.0)
            assert_pinned(translated(profile, offset), d, s, n, rng.random() < 0.5)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_witness_members_match_the_angular_oracle(n):
    # the translated witness families: unit bumps or bumps of width R^-nu
    # at distance R >= 16, so x <= 1/16, the unit bump dilated by 1/width
    rng = random.Random(612 + n)
    for offset in (16.0, 64.0, 16.0 * 64.0**3, 64.0 * 1e4**5):
        for width in (1.0, offset ** -1, offset ** -2):
            s, d = 1 + rational(rng, 0, 3), rational(rng, -3 * n, n + 3)
            profiles = [BallBump().scaled(1.0 / width)] + ([BallBump()] if width == 1.0 else [])
            for gradient in (False, True):
                for profile in profiles:
                    assert_pinned(translated(profile, offset), d, s, n, gradient)


@pytest.mark.parametrize("gradient", [False, True])
def test_long_series_of_witness_members_match_the_angular_oracle(monkeypatch, gradient):
    # at x = 1/16 and N = 5 these d cut series of more than 16 terms, as
    # falsify walks at weights past 61/2 do
    lengths = series_lengths(monkeypatch)
    u = translated(BallBump(), 16.0)
    for d in (F(61, 2), F(80), F(-80)):
        assert_pinned(u, d, F(2), 5, gradient)
    assert min(lengths) > 16


# both sides to 1e-12, the oracle's angle with 192 nodes
NODES = 192


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_both_paths_match_the_angular_oracle(monkeypatch, n):
    # series of at most 16 terms, as most witness members need, and
    # longer, up to hundreds of terms at x = 3/4
    lengths = series_lengths(monkeypatch)
    for x in (1 / 16, 1 / 2, 3 / 4):
        for d in (F(-25), F(-49, 2), F(-3, 2), F(7, 3), F(49, 2), F(25)):
            u = translated(BallBump(), 1.0 / x)
            for gradient, s in ((False, F(3, 2)), (True, F(5, 2))):
                got = norm_of(gradient)(u, d, s, n, TIGHT)
                want = translated_norm(u.profile, d, s, n, u.offset, TIGHT, use_derivative=gradient, nodes=NODES)
                assert got.finite and want.finite
                assert abs(got.log_value - want.log_value) <= 1e-12, (x, d, gradient)
    assert {length <= 16 for length in lengths} == {True, False}


# ---------------------------------------------------------------------------
# what a translated norm refuses, and what it never asks for
# ---------------------------------------------------------------------------

def test_past_the_term_budget_the_norm_fails():
    u = translated(BallBump(), 1.0005)
    for norm in (weighted_norm, weighted_norm_gradient):
        got = norm(u, F(-5), F(2), 3)
        assert got.status is NormStatus.FAILED
        assert got.detail == f"angular series needs more than {MEAN_TERMS} terms at x = 0.9995"


def test_support_reaching_the_origin_is_refused():
    u = translated(BallBump(), 2.0)
    object.__setattr__(u, "offset", 1.0)  # past the check of TestFunction
    assert isinstance(u, TestFunction)
    for norm in (weighted_norm, weighted_norm_gradient):
        with pytest.raises(ValueError, match="away from the origin"):
            norm(u, F(0), F(2), 3)


@pytest.mark.parametrize("profile", [
    SmoothBump(0.0, 1.0),
    SmoothBump(0.0, 1.0).scaled(2.0),
    # t^-2 on (0, 1], whose translated norms once diverged at its center
    PiecewisePower([(1.0, F(-2), -math.inf, 0.0)]),
    InvertedProfile(BallBump()),
], ids=["smooth_bump", "scaled_smooth_bump", "power", "inverted_ball_bump"])
def test_only_the_ball_bump_and_its_dilations_translate(profile):
    with pytest.raises(ValueError, match="BallBump"):
        translated(profile, 4.0)


def test_a_translated_norm_needs_no_panel_budget():
    # in one dimension with s = 1 the walks toward 0 of the moment sums
    # needed more than 8 panels; the series asks for none at any budget
    u, cfg = translated(BallBump(), 64.0), QuadratureConfig(max_panels=1)
    for norm in (weighted_norm, weighted_norm_gradient):
        got = norm(u, F(-1), F(1), 1, cfg)
        assert got.finite and repr(got) == repr(norm(u, F(-1), F(1), 1))
    triple = compute_norms(Params(1, F(1), F(1), F(1), F(-1), F(-1), F(-1)), u, cfg)
    assert {v.status for v in (triple.target, triple.source, triple.grad)} == {NormStatus.FINITE}


@pytest.mark.parametrize("lam, offset", [(1e-300, 4e300), (1e300, 1.0)], ids=["overflow", "underflow"])
def test_a_norm_past_the_float_range_stays_finite_in_log(lam, offset):
    # lam^-3 is 1e900 or 1e-900: the integral leaves the floats, its log
    # does not
    u = translated(BallBump().scaled(lam), offset)
    for gradient in (False, True):
        got = norm_of(gradient)(u, F(0), F(2), 3)
        want = log_beta_form(3, 2.0, lam, offset, 0.0, gradient) / 2.0
        assert got.status is NormStatus.FINITE and abs(want) > 300
        assert abs(got.log_value - want) <= 8 * EPS * abs(want)


def test_members_of_mixed_sessions_match_their_own_sessions(monkeypatch):
    # the translated norms ask for no panel integral, so the session holds
    # the radial members' integrals alone
    radial_u = default_verification_family(Params(3, F(2), F(2), F(2), F(0), F(0), F(0)), 2)
    radial_jobs = [(u, F(-1), F(2), 3, gradient) for u in radial_u for gradient in (False, True)]
    jobs = radial_jobs + [(translated(BallBump(), offset), d, F(3, 2), 3, gradient)
                          for offset in (16.0, 3.0) for d in (F(-4), F(5, 2)) for gradient in (False, True)]
    asked, integrate = [], quadrature.integrate

    def counted(g, integrals, cfg):
        asked.append(len(integrals))
        return integrate(g, integrals, cfg)

    monkeypatch.setattr(quadrature, "integrate", counted)
    session = weighted_norms(jobs)
    assert asked == [len(radial_jobs)]
    for norm, job in zip(session, jobs):
        alone = weighted_norms([job])[0]
        assert norm.finite and alone.finite
        assert abs(norm.log_value - alone.log_value) <= 1e-12


class Tall(SmoothBump):
    """A bump of height 1e300, whose s = 2 norm overflows the panel sum."""

    def value(self, t):
        return 1e300 * super().value(t)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_an_overflowing_panel_is_not_bisected(monkeypatch):
    # an inf or nan panel sum used to fail the acceptance test at every
    # depth: 32,758 panel rows for the radial norm
    rows, gauss_sums = [], panels._gauss_sums

    def counted(g, nodes, owner, x0, x1):
        rows.append(x0.size)
        return gauss_sums(g, nodes, owner, x0, x1)

    monkeypatch.setattr(panels, "_gauss_sums", counted)
    got = weighted_norm(radial(Tall(2.0, 1.0)), F(0), F(2), 3)
    assert (got.status, got.detail) == (NormStatus.FAILED, "panel sum overflowed")
    assert sum(rows) <= 200


# ---------------------------------------------------------------------------
# radial-only sessions are untouched
# ---------------------------------------------------------------------------

def radial_integrand_before(views, group, wexp, s):
    """The session integrand of values and derivatives alone, views[i]
    being (base, derivative, lam), as it was before translated rows and
    first-harmonic gradients joined it."""
    group, table = np.array(group), np.array([[view[2] for view in views], wexp, s])

    def g(t, owner):
        i = owner[0]
        if i == owner[-1]:
            base, derivative, scale = views[i]
            wexp, s = table[1, i], table[2, i]
            x = t * scale
            fv = scale * base.derivative(x) if derivative else base.value(x)
        else:
            per_row = t.size // owner.size
            runs, (scale, wexp, s) = group[owner], table[:, owner].repeat(per_row, axis=1)
            x, fv = t * scale, np.empty_like(t)
            cuts = [0, *((runs[1:] != runs[:-1]).nonzero()[0] + 1).tolist(), owner.size]
            for a, b in zip(cuts, cuts[1:]):
                base, derivative, _ = views[owner[a]]
                points = slice(a * per_row, b * per_row)
                fv[points] = scale[points] * base.derivative(x[points]) if derivative else base.value(x[points])
        fv = np.abs(fv)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            return np.where(fv > 0, np.exp(wexp * np.log(t) + s * np.log(fv)), 0.0)

    return g


def test_radial_verify_norms_are_bit_identical_and_never_read_the_angular_code(monkeypatch):
    params = Params(3, F(2), F(3), F(3), F(-1), F(1), F(-1))
    report = verify_instance(params, F(1, 2))

    def refuse(*args):
        raise AssertionError("a radial session evaluated a first-harmonic factor")

    def before(views, group, wexp, s, log_factor):
        assert all(factor == 0.0 for factor in log_factor)
        readings = {quadrature._read_value: False, quadrature._read_derivative: True}
        return radial_integrand_before([(base, readings[reading], lam) for base, reading, lam in views],
                                       group, wexp, s)

    monkeypatch.setattr(quadrature._FirstHarmonicGradient, "__call__", refuse)
    monkeypatch.setattr(quadrature._Hypergeometric, "__call__", refuse)
    monkeypatch.setattr(quadrature, "_radial_integrand", before)
    again = verify_instance(params, F(1, 2))
    assert report.members and len(report.members) == len(again.members)
    for member, other in zip(report.members, again.members):
        for key in ("target", "source", "grad"):
            got, want = getattr(member.norms, key), getattr(other.norms, key)
            assert (got.log_value, got.error, got.status) == (want.log_value, want.error, want.status)
