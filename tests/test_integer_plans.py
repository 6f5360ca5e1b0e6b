"""Closed-form norm plans read in integers, against their Fraction reference.

A `PowerTail`, `PowerBump` or inverted `PowerBump` plan reads d, s and
the profile's exponents as integer (numerator, denominator) pairs
(`quadrature._Exponents`, `quadrature._beta_arguments`) and hands lgamma
and `Hyp2F1` floats that are each one int/int division
(`hypergeometric._euler_pieces`).  Seeded draws hold its Beta arguments,
verdicts and closed pieces to the Fraction path of `tests/oracle_euler.py`,
bit for bit.  A plan of closed pieces alone reads each dilation's norm in
one step, which must equal the sum of its parts as the panels' path takes
it, and the sphere's area is computed once per dimension.
"""

import math
import random
from fractions import Fraction

import pytest

import ckn.quadrature as quadrature
from ckn.classify import classify
from ckn.params import Params
from ckn.probes import default_w0_family, falsify_instance, verify_instance
from ckn.profiles import InvertedProfile, PiecewisePower, PowerBump, PowerTail
from ckn.quadrature import NormStatus, NormValue, weighted_norms
from ckn.testfunctions import dilate, radial
from oracle_euler import closed_reference
from oracle_panels import PowerCutoffInner

F = Fraction

# exponents with denominators 1, 2, 3 and 4, a quarter of them 0
EXPONENTS = [F(0)] * 12 + [F(k, q) for q in (1, 2, 3, 4) for k in range(-3 * q, 3 * q + 1) if k]


def as_given(value: Fraction, rng: random.Random):
    """value as an int where it is an integer, as a float where it is one
    exactly, and as a Fraction otherwise or at random."""
    if rng.random() < 0.25:
        return value
    if value.denominator == 1:
        return int(value)
    return float(value) if F(float(value)) == value else value


def draw_closed(rng: random.Random, i: int) -> tuple:
    """(profile, gradient, d, s, n): a PowerTail, a PowerBump and an
    inverted PowerBump in turn, with d placed where x = 0 exactly, where y
    = 0 exactly (a PowerTail's), at random in between, or at a random
    float."""
    gradient, n = i % 2 == 1, rng.randint(1, 5)
    s = rng.choice([F(k, 4) for k in range(2, 17)] + [F(5, 3), F(7, 6)])
    kind = i // 2 % 3
    if kind == 0:
        alpha, beta = rng.choice(EXPONENTS), rng.choice(EXPONENTS)
        if alpha == beta:  # alpha != beta, the closed path
            beta = rng.choice(EXPONENTS[12:]) if alpha == 0 else F(0)
        if rng.random() < 0.2:  # beta = 0 converges only where alpha < 0
            alpha, beta = -abs(rng.choice(EXPONENTS[12:])), F(0)
        profile = PowerTail(alpha, beta)
        # x = d + n - (alpha + G) s, plus s where a gradient's alpha is 0
        lift = s * (gradient and alpha == 0)
        turns = [(alpha + gradient) * s - n - lift, (beta - alpha) * s + (alpha + gradient) * s - n - lift
                 + s * (gradient and beta == 0)]
    else:
        alpha, g, m = rng.choice(EXPONENTS), rng.choice([F(1, 2), F(2, 3), F(1), F(3, 2), F(2), F(5, 4)]), \
            rng.choice([F(2), F(5, 2), F(3)])
        profile = PowerBump(alpha, g, m)
        lift = s * (gradient and alpha == 0)
        turns = [(alpha + gradient) * s - n - lift]
        if kind == 2:  # the bump's d is -d - 2n + 2sG
            turns = [-t - 2 * n + 2 * s * gradient for t in turns]
            profile = InvertedProfile(profile)
    pick = rng.random()
    if pick < 0.5:
        d = rng.choice(turns) + (0 if pick < 0.3 else F(rng.randint(-8, 8), rng.choice([1, 2, 3, 4])))
    else:
        d = rng.uniform(-6.0, 6.0) if pick < 0.7 else F(rng.randint(-24, 24), rng.choice([1, 2, 3, 4, 6]))
    return profile, gradient, as_given(F(d), rng) if not isinstance(d, float) else d, as_given(s, rng), n


def test_integer_plans_match_the_fraction_reference_bit_for_bit():
    # (x, y, a, b) exactly, both verdicts, and every closed piece's log and
    # relative error as the same floats
    rng, seen = random.Random(34), {"x = 0": 0, "y = 0": 0, "converges": 0, "g": 0, "alpha = 0": 0, "beta = 0": 0}
    kinds = {"d": set(), "s": set()}
    for i in range(900):
        profile, gradient, d, s, n = draw_closed(rng, i)
        inverted = isinstance(profile, InvertedProfile)
        inner = profile.inner if inverted else profile
        x, y, a, b, at_zero, at_inf, pieces = closed_reference(profile, d, s, n, gradient)
        exps = quadrature._Exponents(d, s, n)
        X, Y, S, D, a_pair, b_pair = quadrature._beta_arguments(inner, exps, gradient, inverted)
        what = (profile.descriptor(), gradient, d, s, n)
        assert (F(X, D), F(Y, D), F(S, D), F(*a_pair), F(*b_pair)) == (x, y, F(s), a, b), what
        reading = quadrature._read_derivative if gradient else quadrature._read_value
        plan = quadrature._NormPlan(profile, reading, exps, quadrature.DEFAULT_CONFIG.rel_tol)
        assert (plan.diverges_at_zero, plan.diverges_at_inf) == (at_zero, at_inf), what
        assert plan.pieces == pieces and plan.range is None and plan.failure is None, what
        seen["x = 0"] += x == 0
        seen["y = 0"] += y == 0
        seen["converges"] += bool(pieces)
        seen["g"] += isinstance(inner, PowerBump) and inner.g.denominator > 1 and bool(pieces)
        seen["alpha = 0"] += inner.alpha == 0 and bool(pieces)
        seen["beta = 0"] += isinstance(inner, PowerTail) and inner.beta == 0 and bool(pieces)
        kinds["d"].add(type(d))
        kinds["s"].add(type(s))
    assert min(seen.values()) >= 10, seen
    assert kinds == {"d": {int, float, F}, "s": {int, float, F}}


# dyadic and non-dyadic scales, out to 2^+-40
SCALES = (1.0, 0.5, 8.0, 2.0**40, 2.0**-40, 1.3, math.pi, 3.7e-5, 1e7)


def part_sum(plan, lam: float) -> NormValue:
    """The norm of the closed plan at lam as the panels' path sums its
    parts: the plan's closed sum moved by -degree ln lam, through
    _logsumexp, with each part's error weighted by its share."""
    shift = plan.degree * math.log(lam)
    parts = [(log - shift, error) for log, error in plan.closed]
    log_integral = quadrature._logsumexp(part for part, _ in parts)
    error = sum(e * math.exp(part - log_integral) for part, e in parts)
    return NormValue.from_log((plan.log_area + log_integral) / plan.sf, error + plan.reading_error)


@pytest.mark.parametrize("profile, d, s, n", [
    (PowerTail(F(-1), F(3)), F(1, 3), F(3, 2), 3),  # split at the zero of alpha + (beta - alpha) u
    (PowerTail(F(1, 4), F(4)), F(3, 8) + F(1, 10**6), F(3, 2), 3),  # 15.3.6
    (PowerBump(F(-3, 2), F(2), F(2)), F(0), F(2), 3),
    (PowerBump(F(1, 2), F(3, 2), F(5, 2)), F(2), F(7, 4), 2),
    (InvertedProfile(PowerBump(F(-2), F(1), F(2))), F(-9), F(2), 4),
    (PiecewisePower([(1.0, F(1, 2), -math.inf, 0.0), (3.0, F(-3), 0.0, math.inf)]), F(0), F(2), 2),
], ids=["tail_split", "tail_15_3_6", "bump", "bump_g", "inverted_bump", "piecewise"])
def test_the_one_step_read_is_the_part_sum_bit_for_bit(profile, d, s, n):
    exps = quadrature._Exponents(d, s, n)
    jobs = [(dilate(radial(profile), lam), d, s, n, gradient) for gradient in (False, True) for lam in SCALES]
    for (u, _, _, _, gradient), got in zip(jobs, weighted_norms(jobs)):
        base, reading = profile, quadrature._read_derivative if gradient else quadrature._read_value
        if gradient and isinstance(profile, PiecewisePower):
            base, reading = profile.derivative_profile, quadrature._read_value
        plan = quadrature._NormPlan(base, reading, exps, quadrature.DEFAULT_CONFIG.rel_tol)
        assert plan.range is None and len(plan.closed) == 1
        lam = u.profile.lam if u.profile is not profile else 1.0
        want = part_sum(plan, lam)
        if gradient and base is not profile:  # || grad (f o lam) || = lam || f' o lam ||
            want = NormValue.from_log(want.log_value + math.log(lam), want.error)
        assert (got.status, got.value, got.log_value, got.error) == (want.status, want.value, want.log_value,
                                                                     want.error), (gradient, lam)


@pytest.mark.parametrize("profile, d, s, n, detail", [
    (PowerTail(F(2), F(3)), F(0), F(2), 3, "non-integrable at zero"),
    (PowerTail(F(-1), F(1, 2)), F(0), F(2), 3, "non-integrable at infinity"),
    (PowerBump(F(2), F(2), F(2)), F(0), F(2), 3, "non-integrable at zero"),
    (InvertedProfile(PowerBump(F(1), F(2), F(2))), F(-4), F(2), 3, "non-integrable at infinity"),
    (PowerCutoffInner(F(3, 2) - F(1, 10**18)), F(0), F(2), 3, "divergent power head"),
], ids=["tail_zero", "tail_infinity", "bump_zero", "inverted_infinity", "failed"])
def test_divergent_and_failed_details_hold_at_every_scale(profile, d, s, n, detail):
    norms = weighted_norms([(dilate(radial(profile), lam), d, s, n, False) for lam in SCALES])
    status = NormStatus.FAILED if detail == "divergent power head" else NormStatus.DIVERGENT
    assert {(norm.status, norm.detail) for norm in norms} == {(status, detail)}


def test_the_sphere_area_is_computed_once_per_dimension(monkeypatch):
    # it was computed per plan, per translated norm and per first-harmonic
    # correction; each report is the one computed with a fresh cache
    params = Params(3, F(2), F(2), F(4), F(0), F(0), F(-1))
    theta = classify(params).derived.theta_c
    witness = Params(4, F(13, 6), F(4), F(5), F(-29, 6), F(-9, 2), F(-8))
    runs = [lambda: verify_instance(params, theta), lambda: verify_instance(params, theta, default_w0_family(params)),
            lambda: falsify_instance(witness)]
    before = [run().as_dict() for run in runs]
    calls, area = [], quadrature.surface_area
    monkeypatch.setattr(quadrature, "surface_area", lambda n: calls.append(n) or area(n))
    quadrature._log_area.cache_clear()
    assert [run().as_dict() for run in runs] == before
    assert calls and sorted(calls) == sorted(set(calls))
