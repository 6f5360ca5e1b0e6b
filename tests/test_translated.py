"""Translated norms as radial integrals with a closed-form angular factor.

The norm of f(|x - x0|) is R^d |S^(N-1)| times the integral of
t^(N-1) |f|^s M(t/R), where M is the mean of |e + x w|^d over the sphere.
These tests check M against exact forms, the norms on both their paths
(sums over moment tables, and log M at each point) against the 2-D
integrand they replaced (`oracle_angular`) and against closed-form
angular factors integrated by the depth-first `oracle_panels`, and the
statuses the radial path shares with them.
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
from ckn.profiles import PiecewisePower, SmoothBump
from ckn.quadrature import (
    MEAN_TERMS,
    MOMENT_TERMS,
    NormStatus,
    SphericalMean,
    surface_area,
    weighted_norm,
    weighted_norm_gradient,
    weighted_norms,
)
from ckn.testfunctions import TestFunction, radial, translated
from conftest import rational
from oracle_angular import translated_norm
from oracle_panels import panel_integral

F = Fraction
EPS = 2.0 ** -53

# x in [0, 0.99], each an exact binary fraction or 0.99 itself
GRID = [k / 64 for k in range(64) if k / 64 <= 0.99] + [0.99]


# ---------------------------------------------------------------------------
# the spherical mean against exact forms
# ---------------------------------------------------------------------------

def exact_n1(x: Fraction, d: int) -> Fraction:
    return ((1 + x) ** d + (1 - x) ** d) / 2


def exact_n3(x: Fraction, d: int) -> Fraction:
    """((1+x)^(d+2) - (1-x)^(d+2)) / (2x(d+2)), for d != -2, and 1 at x = 0."""
    if x == 0:
        return Fraction(1)
    return ((1 + x) ** (d + 2) - (1 - x) ** (d + 2)) / (2 * x * (d + 2))


def assert_matches(mean: SphericalMean, exact, xs):
    """|M - exact| within the stated truncation bound plus rounding, and
    the relative errors at xs.  The coefficients and Horner's rule round
    about 4 K times for K terms; with no negative term, as in every series
    here that is not a polynomial, that is at most about 8 K eps of M."""
    got = mean(np.array(xs, dtype=float))
    rounding = 8 * len(mean.coefs) * EPS
    errors = []
    for x, value in zip(xs, got.tolist()):
        want = exact(Fraction(x))
        errors.append(float(abs(Fraction(value) - want) / want))
        assert errors[-1] <= mean.error + rounding, x
    return errors


@pytest.mark.parametrize("d", [-9, -5, -3, -2, -1, 1, 2, 3, 4, 7])
def test_mean_in_one_dimension_is_the_two_point_average(d):
    assert_matches(SphericalMean.series(1, d, 0.99), lambda x: exact_n1(x, d), GRID)


@pytest.mark.parametrize("d", [-9, -5, -4, -3, -1, 1, 3, 6])
def test_mean_in_three_dimensions_matches_the_closed_form(d):
    assert_matches(SphericalMean.series(3, d, 0.99), lambda x: exact_n3(x, d), GRID)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_newton_theorem_the_mean_of_the_newton_kernel_is_one(n):
    # |x|^(2 - N) is harmonic off the origin: its mean on a sphere that
    # leaves the origin outside is its value at the center
    mean = SphericalMean.series(n, 2 - n, 0.99)
    assert mean.coefs.tolist() == [1.0] and mean.error == 0.0
    assert np.all(mean(np.array(GRID)) == 1.0)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_mean_of_the_trivial_and_the_quadratic_weight(n):
    one, quadratic = SphericalMean.series(n, 0, 0.99), SphericalMean.series(n, 2, 0.99)
    assert one.coefs.tolist() == [1.0] and one.error == 0.0
    assert np.all(one(np.array(GRID)) == 1.0)
    # |e + x w|^2 = 1 + x^2 + 2 x (e.w), and e.w has mean 0
    assert quadratic.coefs.tolist() == [1.0, 1.0] and quadratic.error == 0.0
    assert_matches(quadratic, lambda x: 1 + x * x, GRID)


@pytest.mark.parametrize("n, d", [(1, F(-3)), (1, F(-9)), (3, F(-5)), (3, F(-9)), (3, F(-4)), (1, F(-7, 2))])
@pytest.mark.parametrize("x_max", [0.5, 0.9, 0.99])
def test_truncation_bound_covers_the_true_error(monkeypatch, n, d, x_max):
    # a loose tolerance, so that truncation, not rounding, sets the error
    monkeypatch.setattr(quadrature, "MEAN_TOL", 1e-8)
    mean = SphericalMean.series(n, d, x_max)
    assert 0 < mean.error <= 1e-8
    if d.denominator == 1:
        exact = (lambda x: exact_n1(x, int(d))) if n == 1 else (lambda x: exact_n3(x, int(d)))
        xs = [x for x in GRID if x < x_max] + [x_max]
        # with no negative term the bound is tight at x_max
        assert assert_matches(mean, exact, xs)[-1] >= mean.error / 100
    else:
        # half-integer d in one dimension: compare in floats at x_max
        got = float(mean(np.array([x_max]))[0])
        want = ((1 + x_max) ** float(d) + (1 - x_max) ** float(d)) / 2
        assert abs(got - want) <= (mean.error + 64 * EPS) * want


def test_series_past_the_term_budget_is_refused():
    assert SphericalMean.series(3, -5, 0.99) is not None
    assert SphericalMean.series(3, -5, 0.9995) is None
    # a polynomial mean needs no budget
    assert SphericalMean.series(3, 4, 0.9999).error == 0.0


# ---------------------------------------------------------------------------
# translated norms against the closed-form N = 3 factor near the sphere
# ---------------------------------------------------------------------------

def m3(x: np.ndarray, d: float) -> np.ndarray:
    """The N = 3 mean ((1+x)^e - (1-x)^e) / (2 x e), e = d + 2, written
    with expm1 and atanh so that it keeps its digits at small x."""
    e = d + 2.0
    return (1.0 - x) ** e * np.expm1(2.0 * e * np.arctanh(x)) / (2.0 * x * e)


@pytest.mark.parametrize("s, gradient", [(1, False), (2, True), (2, False)])
def test_near_the_sphere_the_true_error_stays_within_the_reported_one(s, gradient):
    # x_max = 0.99: the 48-node angular rule of the 2-D integrand was off
    # here by up to 2.6e-10 in log, with a reported error of 6e-13
    n, d, profile = 3, -5, SmoothBump(0.0, 1.0)
    offset = 1.0 / 0.99
    u = translated(profile, offset)
    got = (weighted_norm_gradient if gradient else weighted_norm)(u, F(d), F(s), n)
    assert got.finite
    values = profile.derivative if gradient else profile.value

    def g(t):
        return t ** (n - 1) * np.abs(values(t)) ** s * m3(t / offset, d)

    total, _ = panel_integral(g, 1.0 / 512, 1.0, profile.breakpoints, QuadratureConfig(rel_tol=1e-13), down=True)
    want = (d * math.log(offset) + math.log(surface_area(n)) + math.log(total)) / s
    assert abs(got.log_value - want) <= got.error


# ---------------------------------------------------------------------------
# translated norms against the 2-D integrand they replaced
# ---------------------------------------------------------------------------

def assert_pinned(u, d, s, n, gradient):
    norm = (weighted_norm_gradient if gradient else weighted_norm)(u, d, s, n)
    oracle = translated_norm(u.profile, d, s, n, u.offset, use_derivative=gradient)
    assert norm.finite and oracle.finite
    assert abs(norm.log_value - oracle.log_value) <= 1e-12


def test_translated_norms_match_the_angular_oracle():
    rng = random.Random(611)
    for n in range(1, 6):
        for _ in range(12):
            s, d = 1 + rational(rng, 0, 3), rational(rng, -3 * n, n + 3)
            width = float(rational(rng, 0, 2) + F(1, 4))
            center = float(rational(rng, 0, 3)) if rng.random() < 0.5 else 0.0
            profile = SmoothBump(center, width)
            # x_max = hi / offset in [1/1000, 1/2]
            offset = profile.support[1] * 10.0 ** rng.uniform(math.log10(2.0), 3.0)
            assert_pinned(translated(profile, offset), d, s, n, rng.random() < 0.5)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_witness_members_match_the_angular_oracle(n):
    # the translated witness families: unit bumps or bumps of width R^-nu
    # at distance R >= 16, so x <= 1/16, each read as a bump of that width
    # and, as the families make them, as the unit bump dilated by 1/width,
    # whose moment sums carry lam^-(n+2k), times lam^s for the gradient
    rng = random.Random(612 + n)
    for offset in (16.0, 64.0, 16.0 * 64.0**3, 64.0 * 1e4**5):
        for width in (1.0, offset ** -1, offset ** -2):
            s, d = 1 + rational(rng, 0, 3), rational(rng, -3 * n, n + 3)
            for gradient in (False, True):
                for profile in (SmoothBump(0.0, width), SmoothBump(0.0, 1.0).scaled(1.0 / width)):
                    assert_pinned(translated(profile, offset), d, s, n, gradient)


# ---------------------------------------------------------------------------
# the two paths: sums over moment tables, and log M at every point
# ---------------------------------------------------------------------------

# both sides integrate to 1e-12, the oracle's angle with 192 nodes: at the
# default 1e-9 the panel error of a bump norm alone reaches 4.6e-12 in log
# (the N = 1, d = 25 value norm at x = 1/2, on the per-point integrand)
TIGHT = QuadratureConfig(rel_tol=1e-12)
ORACLE = QuadratureConfig(rel_tol=1e-12, angular_nodes=192)


def summed_over_moments(n, d, x):
    return SphericalMean.series(n, d, x).coefs.size <= MOMENT_TERMS


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_both_paths_match_the_angular_oracle(n):
    paths = set()
    for x in (1 / 16, 1 / 2, 3 / 4):
        for d in (F(-25), F(-49, 2), F(-3, 2), F(7, 3), F(49, 2), F(25)):
            paths.add(summed_over_moments(n, d, x))
            u = translated(SmoothBump(0.0, 1.0), 1.0 / x)
            for gradient, s in ((False, F(3, 2)), (True, F(5, 2))):
                got = (weighted_norm_gradient if gradient else weighted_norm)(u, d, s, n, TIGHT)
                want = translated_norm(u.profile, d, s, n, u.offset, ORACLE, use_derivative=gradient)
                assert got.finite and want.finite
                assert abs(got.log_value - want.log_value) <= 1e-12, (x, d, gradient)
    assert paths == {True, False}


# x = 1/16 at large |d|, the witness members' worst case, and the two
# kinds of series with negative terms that N <= 5 has: 2 - N < d < 0, and
# d = 25 at x = 1/2
ERROR_CASES = [(1 / 16, d) for d in (F(-25), F(-49, 2), F(49, 2), F(25))] + [(1 / 16, F(-1, 2)), (1 / 2, F(25))]


def assert_error_covers(n, gradient, s):
    """The reported error of each moment sum of ERROR_CASES covers its
    distance from the oracle at 1e-12 with 192 angular nodes; returns
    whether a series had a negative term."""
    negative = False
    for x, d in ERROR_CASES:
        assert summed_over_moments(n, d, x)
        negative = negative or bool((SphericalMean.series(n, d, x).coefs < 0).any())
        u = translated(SmoothBump(0.0, 1.0), 1.0 / x)
        got = (weighted_norm_gradient if gradient else weighted_norm)(u, d, s, n)
        want = translated_norm(u.profile, d, s, n, u.offset, ORACLE, use_derivative=gradient)
        assert 0 < got.error < 1e-6
        assert abs(got.log_value - want.log_value) <= got.error, (x, d)
    return negative


@pytest.mark.parametrize("n, gradient", [(n, gradient) for n in range(1, 6) for gradient in (False, True)
                                         if n > 1 or gradient])
def test_the_error_of_a_moment_sum_covers_its_true_error(n, gradient):
    assert assert_error_covers(n, gradient, F(2) if gradient else F(3, 2)) == (n >= 3)


@pytest.mark.xfail(strict=True, reason="the remainder past the walk toward 0 is in no reported error")
def test_the_error_of_a_one_dimensional_moment_sum_covers_its_true_error():
    # |f|^s is about f(0)^s near 0 in one dimension, so mu_0 drops about
    # f(0)^s 2^-38, 6.8e-12 of itself, past the walk's last panel: the
    # norm at d = -25 is off by 3.8e-12 in log, with a reported error of
    # 1.7e-14.  A per-point integral of t^(N-1) |f|^s M drops the same
    assert_error_covers(1, False, F(3, 2))


@pytest.mark.parametrize("n, d, x, mean_tol", [
    # M = 1 - x^2/5 at x = 7/8: for N <= 5, |d| <= 25 and x <= 7/8, the
    # only moment sums whose terms cancel by more than 10 %
    (5, F(-1), 7 / 8, 1e-17),
    # at a loose series tolerance, the series bound dominates
    (3, F(-5), 1 / 4, 1e-10),
])
def test_a_moment_sum_reports_its_absolute_panel_errors_and_the_series_bound(monkeypatch, n, d, x, mean_tol):
    monkeypatch.setattr(quadrature, "MEAN_TOL", mean_tol)
    mean = SphericalMean.series(n, d, x)
    assert summed_over_moments(n, d, x)
    plans, s = {}, F(3, 2)
    got = weighted_norms([(translated(SmoothBump(0.0, 1.0), 1 / x), d, s, n, False)], plans=plans)[0]
    # the plans dict also keeps the walk's series coefficients of (n, d)
    (plan,) = [plan for plan in plans.values() if isinstance(plan, quadrature._NormPlan)]
    terms = [(coef * x ** (2 * k), moment, err)
             for k, (coef, (moment, err)) in enumerate(zip(mean.coefs.tolist(), plan.moments))]
    total = sum(coef * moment for coef, moment, _ in terms)
    absolute = sum(abs(coef) * err for coef, _, err in terms) / total
    assert got.error == pytest.approx(absolute + mean.error, rel=1e-12, abs=0.0)
    if mean.error == 0.0:
        assert sum(coef * err for coef, _, err in terms) / total < 0.9 * absolute
    else:
        assert mean.error > 10 * absolute


def test_a_short_moment_table_is_extended_and_a_failed_one_fails():
    plan = quadrature._NormPlan(SmoothBump(0.0, 1.0), False, 0, F(2), 3)
    short = plan.moment_table(3, quadrature.DEFAULT_CONFIG)
    assert len(short) == 3 and plan.moment_table(5, quadrature.DEFAULT_CONFIG)[:3] == short
    assert len(plan.moments) == 5
    # the moments of t^2 |f|^2 for f = 1 on (0, 1] in closed form: 1/(2k + 3)
    flat = PiecewisePower([(1.0, F(0), -math.inf, 0.0)])
    plan = quadrature._NormPlan(flat, False, 0, F(2), 3)
    for k, (moment, _) in enumerate(plan.moment_table(4, quadrature.DEFAULT_CONFIG)):
        assert moment == pytest.approx(1 / (2 * k + 3), rel=1e-14, abs=0.0)
    budget = QuadratureConfig(max_panels=8)
    plan = quadrature._NormPlan(SmoothBump(0.0, 1.0), False, 0, F(1), 1)
    failed = plan.moment_table(2, budget)
    assert isinstance(failed, panels.QuadratureError) and not plan.moments
    assert str(plan.moment_table(1, budget)) == str(failed) == "panel budget exhausted extending toward zero"


# ---------------------------------------------------------------------------
# statuses shared with the radial path
# ---------------------------------------------------------------------------

def test_a_walk_out_of_budget_fails_without_raising():
    # in one dimension with s = 1, |f| ~ 1 and |f'| ~ t near 0: the walks
    # toward 0 from 1/512 need more than 8 panels to turn quiet
    u = translated(SmoothBump(0.0, 1.0), 64.0)
    cfg = QuadratureConfig(max_panels=8)
    for norm in (weighted_norm, weighted_norm_gradient):
        got = norm(u, F(-1), F(1), 1, cfg)
        assert got.status is NormStatus.FAILED
        assert got.detail == "panel budget exhausted extending toward zero"
        assert norm(u, F(-1), F(1), 1).finite
    triple = compute_norms(Params(1, F(1), F(1), F(1), F(-1), F(-1), F(-1)), u, cfg)
    assert {v.status for v in (triple.target, triple.source, triple.grad)} == {NormStatus.FAILED}


class Tall(SmoothBump):
    """A bump of height 1e300, whose s = 2 norm overflows the panel sum."""

    def value(self, t):
        return 1e300 * super().value(t)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_an_overflowing_sum_fails_without_raising():
    got = weighted_norm(translated(Tall(0.0, 1.0), 64.0), F(0), F(2), 3)
    assert got.status is NormStatus.FAILED
    assert got.detail == "panel sum overflowed"


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_an_overflowing_panel_is_not_bisected(monkeypatch):
    # an inf or nan panel sum used to fail the acceptance test at every
    # depth: 409,563 panel rows for the translated norm, 32,758 radial
    rows, gauss_sums = [], panels._gauss_sums

    def counted(g, nodes, owner, x0, x1):
        rows.append(x0.size)
        return gauss_sums(g, nodes, owner, x0, x1)

    monkeypatch.setattr(panels, "_gauss_sums", counted)
    for u in (translated(Tall(0.0, 1.0), 64.0), radial(Tall(2.0, 1.0))):
        rows.clear()
        got = weighted_norm(u, F(0), F(2), 3)
        assert (got.status, got.detail) == (NormStatus.FAILED, "panel sum overflowed")
        assert sum(rows) <= 200


def test_translated_divergence_is_certified_from_the_edge_at_zero():
    # near t = 0 the weight is R^d, so t^-2 is not in L^(3/2) of R^3 around
    # the translation point, and its derivative t^-3 is not either, while
    # t^-1 is; these used to fail as "panel sum overflowed"
    head = float("-inf")
    for expo, gradient, status in ((F(-2), False, NormStatus.DIVERGENT), (F(-1), True, NormStatus.DIVERGENT),
                                   (F(-1), False, NormStatus.FINITE)):
        profile = PiecewisePower([(1.0, expo, head, 0.0)])
        for d in (F(0), F(-5, 2)):
            got = weighted_norms([(translated(profile, 4.0), d, F(3, 2), 3, gradient)])[0]
            assert got.status is status
            if status is NormStatus.DIVERGENT:
                assert got.detail == "non-integrable at zero"
                assert weighted_norms([(radial(profile), F(0), F(3, 2), 3, gradient)])[0].detail == got.detail


def test_past_the_term_budget_the_norm_fails():
    u = translated(SmoothBump(0.0, 1.0), 1.0005)
    for norm in (weighted_norm, weighted_norm_gradient):
        got = norm(u, F(-5), F(2), 3)
        assert got.status is NormStatus.FAILED
        assert got.detail == f"angular series needs more than {MEAN_TERMS} terms at x = 0.9995"


def test_support_reaching_the_origin_is_refused():
    u = translated(SmoothBump(0.0, 1.0), 2.0)
    object.__setattr__(u, "offset", 1.0)  # past the check of TestFunction
    assert isinstance(u, TestFunction)
    for norm in (weighted_norm, weighted_norm_gradient):
        with pytest.raises(ValueError, match="away from the origin"):
            norm(u, F(0), F(2), 3)


def test_members_of_mixed_sessions_match_their_own_sessions():
    radial_u = default_verification_family(Params(3, F(2), F(2), F(2), F(0), F(0), F(0)), 2)
    jobs = [(u, F(-1), F(2), 3, gradient) for u in radial_u for gradient in (False, True)]
    jobs += [(translated(SmoothBump(0.0, 1.0), offset), d, F(3, 2), 3, gradient)
             for offset in (16.0, 3.0) for d in (F(-4), F(5, 2)) for gradient in (False, True)]
    session = weighted_norms(jobs)
    for norm, job in zip(session, jobs):
        alone = weighted_norms([job])[0]
        assert norm.finite and alone.finite
        assert abs(norm.log_value - alone.log_value) <= 1e-12


# ---------------------------------------------------------------------------
# radial-only sessions are untouched
# ---------------------------------------------------------------------------

def radial_integrand_before(views, group, wexp, s):
    """The session integrand as it was before translated rows joined it."""
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
        raise AssertionError("a radial session evaluated a spherical mean")

    def before(views, group, wexp, s, angular):
        assert not any(angular)
        return radial_integrand_before(views, group, wexp, s)

    monkeypatch.setattr(quadrature, "_add_log_means", refuse)
    monkeypatch.setattr(SphericalMean, "__call__", refuse)
    monkeypatch.setattr(quadrature, "_radial_integrand", before)
    again = verify_instance(params, F(1, 2))
    assert report.members and len(report.members) == len(again.members)
    for member, other in zip(report.members, again.members):
        for key in ("target", "source", "grad"):
            got, want = getattr(member.norms, key), getattr(other.norms, key)
            assert (got.log_value, got.error, got.status) == (want.log_value, want.error, want.status)
