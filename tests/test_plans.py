"""Norm plans: the exact facts of a member are decided once for all its dilations.

A `weighted_norms` call shares one plan among the norms of each (base
profile, value or derivative, d, s, N); each dilated norm is still
integrated, with the plan's support, seams and exact edge terms scaled.
Translated norms are closed-form series and build no plan.
"""

import math
from fractions import Fraction

import pytest

import ckn.quadrature as quadrature
import ckn.witnesses as witnesses
from ckn.classify import classify
from ckn.params import Params
from ckn.probes import DEFAULT_SCALES, default_verification_family, default_w0_family, falsify_instance, verify_instance
from ckn.profiles import (
    InvertedProfile,
    LogModulated,
    PowerBump,
    PowerTail,
    RadialProfile,
    TruncatedPrimitive,
)
from ckn.quadrature import NormStatus, weighted_norm, weighted_norm_gradient, weighted_norms
from ckn.testfunctions import dilate, radial, translated
from oracle_panels import PowerCutoffInner, SmoothBump

F = Fraction

# a radial embedding instance at theta_c: 3 PowerTail and 5 PowerBump members
PARAMS, THETA = Params(4, F(1), F(3), F(7, 3), F(-16, 5), F(5, 2), F(-8, 3)), F(64, 1099)


def same(a, b):
    """Identical NormValues, nan fields included."""
    return repr(a) == repr(b)


def test_a_verify_instance_decides_each_member_once(monkeypatch):
    # 8 members x 5 scales x 3 norms: one edges() call per norm and two
    # divergence tests per PowerTail norm before plans, 120 and 90
    calls = {"edges": 0, "zero": 0, "inf": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for cls in (PowerTail, PowerBump):
        monkeypatch.setattr(cls, "edges", counted("edges", cls.edges))
    monkeypatch.setattr(quadrature, "_diverges_at_zero", counted("zero", quadrature._diverges_at_zero))
    monkeypatch.setattr(quadrature, "_diverges_at_inf", counted("inf", quadrature._diverges_at_inf))
    report = verify_instance(PARAMS, THETA)
    assert report.ok and len(report.members) == 8 * (1 + len(DEFAULT_SCALES))
    assert calls["edges"] <= 24
    assert calls["zero"] + calls["inf"] <= 18


def test_a_first_harmonic_verify_instance_runs_one_session(monkeypatch):
    # 6 members x 5 scales: the gradient norms took a session and two
    # edges() calls each, 31 sessions and 64 calls in all; now each base
    # reads its edge records once per plan, and only the 2 PowerTails
    # reach 0 or infinity
    params = Params(3, F(2), F(2), F(4), F(0), F(0), F(-1))
    family = default_w0_family(params)
    calls = {"edges": 0, "sessions": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for cls in (PowerTail, PowerBump):
        monkeypatch.setattr(cls, "edges", counted("edges", cls.edges))
    monkeypatch.setattr(quadrature, "integrate", counted("sessions", quadrature.integrate))
    report = verify_instance(params, classify(params).derived.theta_c, family=family)
    assert report.ok and len(report.members) == len(family) * (1 + len(DEFAULT_SCALES))
    assert calls["sessions"] == 1
    assert calls["edges"] <= 2 * len(family)


@pytest.mark.parametrize("family", [default_verification_family, default_w0_family])
def test_shared_plans_give_the_norms_of_fresh_plans(monkeypatch, family):
    report = verify_instance(PARAMS, THETA, family=family(PARAMS))
    plan = quadrature._plan
    monkeypatch.setattr(quadrature, "_plan", lambda plans, view, *rest: plan({}, view, *rest))
    fresh = verify_instance(PARAMS, THETA, family=family(PARAMS))
    assert report.ok and len(report.members) == len(fresh.members)
    for member, other in zip(report.members, fresh.members):
        for key in ("target", "source", "grad"):
            assert same(getattr(member.norms, key), getattr(other.norms, key))


SCALES = (1.0, *DEFAULT_SCALES, 1e-3, 1e3)


def dilated_norms(u, d, s, n):
    """The value and gradient norms of u at each of SCALES, in one call,
    and each in a one-norm session."""
    jobs = [(dilate(u, lam), d, s, n, gradient) for lam in SCALES for gradient in (False, True)]
    alone = [(weighted_norm_gradient if gradient else weighted_norm)(v, d, s, n) for v, d, s, n, gradient in jobs]
    return weighted_norms(jobs), alone


@pytest.mark.parametrize("profile,d,s,n", [
    # exact regions at zero (t < 1/2) and at infinity (t > 2), each read as
    # values and as derivatives, with their closed forms dilated
    (PowerCutoffInner(F(1, 3)), F(1, 2), F(2), 3),
    (InvertedProfile(PowerCutoffInner(F(-5, 2))), F(-1), F(3, 2), 2),
    # an exact plateau at infinity whose derivative vanishes there
    (TruncatedPrimitive(F(1, 2), 2.0), F(-4), F(2), 2),
])
def test_dilated_exact_regions_match_one_norm_sessions(profile, d, s, n):
    shared, alone = dilated_norms(radial(profile), d, s, n)
    for got, want in zip(shared, alone):
        assert got.finite and want.finite
        assert abs(got.log_value - want.log_value) <= 1e-12
    # and the scaling law: || f(lam .) || = lam^(-(d+n)/s) || f ||, one
    # power of lam more for the gradient
    slope = float((d + n) / s)
    for k, lam in enumerate(SCALES):
        for gradient in (0, 1):
            law = shared[gradient].log_value + (gradient - slope) * math.log(lam)
            assert abs(shared[2 * k + gradient].log_value - law) <= 1e-8


class Derivative(RadialProfile):
    """f' as a profile of its own, with f's derived edge records: a value
    read whose exact terms are derived, then dilated."""

    def __init__(self, f):
        self.f = f

    def value(self, t):
        return self.f.derivative(t)

    @property
    def support(self):
        return self.f.support

    @property
    def breakpoints(self):
        return self.f.breakpoints

    def edges(self):
        return tuple(None if e is None else e.derivative() for e in self.f.edges())


@pytest.mark.parametrize("profile,d,s,n", [
    (PowerCutoffInner(F(1, 3)), F(1, 2), F(2), 3),
    (InvertedProfile(PowerCutoffInner(F(-5, 2))), F(-1), F(3, 2), 2),
])
def test_dilated_derivative_terms_match_derived_then_dilated_ones(profile, d, s, n):
    # the gradient of u(lam x) is lam f'(lam t)
    for lam in SCALES:
        gradient = weighted_norm_gradient(dilate(radial(profile), lam), d, s, n)
        value = weighted_norm(dilate(radial(Derivative(profile)), lam), d, s, n)
        assert gradient.finite and value.finite
        assert abs(gradient.log_value - (math.log(lam) + value.log_value)) <= 1e-10


@pytest.mark.parametrize("profile,plans,integrals,closed", [
    # f' in closed form: a PiecewisePower band, evaluated once for all 5
    (TruncatedPrimitive(F(1, 3), 5.0), 1, 0, 1),
    # f' a log window, integrated once, at lam = 1, for all 5
    (LogModulated(F(1, 2), 2.0**-10), 1, 1, 0),
    # f' read from the base: the dyadic scales integrate the lam = 1 range once
    (SmoothBump(2.0, 1.0), 1, 1, 0),
], ids=["truncated_primitive", "log_window", "smooth_bump"])
def test_the_dilations_of_a_closed_derivative_share_its_plan(monkeypatch, profile, plans, integrals, closed):
    # the closed derivative is built once per profile: its dilations took a
    # plan each, and the window integrated the same lam = 1 integral 5 times
    calls = {"plans": 0, "integrals": 0, "closed": 0}
    init, integrate, log_integral = (
        quadrature._NormPlan.__init__, quadrature.integrate, quadrature._log_power_piece)

    def counted_plan(plan, *args):
        calls["plans"] += 1
        init(plan, *args)

    def counted_integrals(g, requests, cfg):
        calls["integrals"] += len(requests)
        return integrate(g, requests, cfg)

    def counted_closed(*args):
        calls["closed"] += 1
        return log_integral(*args)

    u, d, s, n = radial(profile), F(0), F(2), 3
    alone = [weighted_norm_gradient(dilate(u, lam), d, s, n) for lam in (1.0, *DEFAULT_SCALES)]
    monkeypatch.setattr(quadrature._NormPlan, "__init__", counted_plan)
    monkeypatch.setattr(quadrature, "integrate", counted_integrals)
    monkeypatch.setattr(quadrature, "_log_power_piece", counted_closed)
    shared = weighted_norms([(dilate(u, lam), d, s, n, True) for lam in (1.0, *DEFAULT_SCALES)])
    assert calls == {"plans": plans, "integrals": integrals, "closed": closed}
    # and each norm is the one of its own session, bit for bit
    assert all(got.finite for got in shared)
    assert [got.log_value for got in shared] == [want.log_value for want in alone]


# one class of dilations per mantissa m = lam 2^-k in [1, 2): the dyadic
# scales share m = 1, 3/2, 3 and 6 share m = 3/2, and 1.3 is its own
DYADIC, THREE_HALVES, OWN = (1.0, 0.125, 0.5, 2.0, 8.0), (1.5, 3.0, 6.0), 1.3


@pytest.mark.parametrize("gradient", [False, True], ids=["values", "gradients"])
def test_the_dilations_of_one_dyadic_class_share_one_panel_integral(monkeypatch, gradient):
    # each range is integrated at the mantissa of its scale and moved by the
    # scaling law, so the requests of one class are equal and the session
    # integrates them once; the other classes keep panels of their own
    u, d, s, n = radial(SmoothBump(2.0, 1.0)), F(1, 2), F(3, 2), 3
    norm = weighted_norm_gradient if gradient else weighted_norm
    scales = (*DYADIC, *THREE_HALVES, OWN)
    alone = [norm(dilate(u, lam), d, s, n) for lam in scales]
    counted, integrate = [], quadrature.integrate

    def counted_integrals(g, requests, cfg):
        counted.append(len(requests))
        return integrate(g, requests, cfg)

    monkeypatch.setattr(quadrature, "integrate", counted_integrals)
    for count, classes in enumerate([DYADIC, (*DYADIC, *THREE_HALVES), scales], 1):
        counted.clear()
        shared = weighted_norms([(dilate(u, lam), d, s, n, gradient) for lam in classes])
        assert counted == [count]
    # each norm is the one of its own session, bit for bit
    assert all(got.finite for got in shared)
    assert [got.log_value for got in shared] == [want.log_value for want in alone]
    # and the scaling law: || f(lam .) || = lam^(-(d+n)/s) || f ||, one power
    # of lam more for the gradient, exact up to rounding within a class and
    # within the reported errors across classes
    slope = float((d + n) / s) - gradient
    one, three_halves = shared[0], shared[len(DYADIC)]
    for lam, got in zip(scales, shared):
        for ref, at in [(one, 1.0), (three_halves, 1.5)]:
            law = ref.log_value - slope * math.log(lam / at)
            if math.log2(lam / at).is_integer():
                assert abs(got.log_value - law) <= 1e-13, lam
            else:
                assert abs(got.log_value - law) <= (got.error + ref.error) / float(s), lam


def test_equal_exponents_of_distinct_objects_share_one_plan(monkeypatch):
    # each job builds its own F(0): plans are keyed by the values of d and
    # s, where their identities made a plan per job
    calls = {"plans": 0}
    init = quadrature._NormPlan.__init__

    def counted(plan, *args):
        calls["plans"] += 1
        init(plan, *args)

    monkeypatch.setattr(quadrature._NormPlan, "__init__", counted)
    u = radial(SmoothBump(2, 1))
    norms = weighted_norms([(dilate(u, lam), F(0), F(2), 3, True) for lam in (1, 1 / 8, 1 / 2, 2, 8)])
    assert all(norm.finite for norm in norms)
    assert calls["plans"] == 1


def test_a_base_divergent_at_every_scale_is_divergent_at_each():
    # t^-2 near 0 is not in L^2(R^3), nor its derivative; each scale says so
    shared, alone = dilated_norms(radial(PowerTail(F(2), F(3))), F(0), F(2), 3)
    assert len(shared) == 14
    for got, want in zip(shared, alone):
        assert got.status is NormStatus.DIVERGENT
        assert got.detail == want.detail == "non-integrable at zero"


# the two translated D5 instances, which walk all 41 members of their family
D5 = [
    Params(4, F(13, 6), F(4), F(5), F(-29, 6), F(-9, 2), F(-8)),  # ROutOfRange, bumps of width R^-nu
    Params(4, F(11, 3), F(1), F(2), F(5), F(-7), F(3)),  # ThetaConditionFails, unit bumps
]


@pytest.mark.parametrize("params", D5)
def test_a_translated_walk_builds_no_plan_and_integrates_nothing(monkeypatch, params):
    # every member is the ball bump, dilated, and each of its norms one
    # hypergeometric series: no norm plan and no panel session
    calls = {"plans": 0, "sessions": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(quadrature._NormPlan, "__init__", counted("plans", quadrature._NormPlan.__init__))
    monkeypatch.setattr(quadrature, "integrate", counted("sessions", quadrature.integrate))
    report = falsify_instance(params)
    assert not report.ok and len(report.trace) == 41
    assert calls == {"plans": 0, "sessions": 0}
    with pytest.raises(ValueError, match="ball bump"):
        translated(SmoothBump(0.0, 1.0), 4.0)


def test_a_translated_offset_past_the_double_range_raises_overflow():
    family = witnesses._TranslatedBumpFamily(None, None, "", "sup_dilation", offset_start=64.0, offset_base=1e4)
    assert family.member(76).offset == 64.0 * 1e4 ** 76
    for index in (77, 78, 200):
        with pytest.raises(OverflowError, match=f"64 \\* 10000\\^{index} leaves the double range"):
            family.member(index)
