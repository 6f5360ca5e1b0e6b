"""Norm plans: the exact facts of a member are decided once for all its dilations.

A `weighted_norms` call shares one plan among the norms of each (base
profile, value or derivative, d, s, N); each dilated norm is still
integrated, with the plan's support, seams and exact edge terms scaled.
A falsify walk keeps its plans for all its members.
"""

import math
from fractions import Fraction

import pytest

import ckn.quadrature as quadrature
import ckn.witnesses as witnesses
from ckn.params import Params
from ckn.probes import DEFAULT_SCALES, default_verification_family, default_w0_family, falsify_instance, verify_instance
from ckn.profiles import (
    PowerCutoffInner,
    PowerCutoffOuter,
    PowerTail,
    RadialProfile,
    SmoothBump,
    TruncatedPrimitive,
)
from ckn.quadrature import NormStatus, weighted_norm, weighted_norm_gradient, weighted_norms
from ckn.testfunctions import dilate, radial

F = Fraction

# a radial embedding instance at theta_c: 3 PowerTail and 5 SmoothBump members
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

    for cls in (PowerTail, SmoothBump):
        monkeypatch.setattr(cls, "edges", counted("edges", cls.edges))
    monkeypatch.setattr(quadrature, "_diverges_at_zero", counted("zero", quadrature._diverges_at_zero))
    monkeypatch.setattr(quadrature, "_diverges_at_inf", counted("inf", quadrature._diverges_at_inf))
    report = verify_instance(PARAMS, THETA)
    assert report.ok and len(report.members) == 8 * (1 + len(DEFAULT_SCALES))
    assert calls["edges"] <= 24
    assert calls["zero"] + calls["inf"] <= 18


@pytest.mark.parametrize("family", [default_verification_family, default_w0_family])
def test_shared_plans_give_the_norms_of_fresh_plans(monkeypatch, family):
    report = verify_instance(PARAMS, THETA, family=family(PARAMS))
    plan = quadrature._plan
    monkeypatch.setattr(quadrature, "_plan", lambda plans, profile, d, s, n: plan({}, profile, d, s, n))
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
    # exact regions at zero (t < 1/2) and at infinity (t > 1), each read as
    # values and as derivatives, with their closed forms dilated
    (PowerCutoffInner(F(1, 3)), F(1, 2), F(2), 3),
    (PowerCutoffOuter(F(5, 2)), F(-1), F(3, 2), 2),
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
        return self.f.deriv_edges()


@pytest.mark.parametrize("profile,d,s,n", [
    (PowerCutoffInner(F(1, 3)), F(1, 2), F(2), 3),
    (PowerCutoffOuter(F(5, 2)), F(-1), F(3, 2), 2),
])
def test_dilated_derivative_terms_match_derived_then_dilated_ones(profile, d, s, n):
    # the gradient of u(lam x) is lam f'(lam t)
    for lam in SCALES:
        gradient = weighted_norm_gradient(dilate(radial(profile), lam), d, s, n)
        value = weighted_norm(dilate(radial(Derivative(profile)), lam), d, s, n)
        assert gradient.finite and value.finite
        assert abs(gradient.log_value - (math.log(lam) + value.log_value)) <= 1e-10


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
def test_a_translated_walk_decides_and_integrates_each_norm_kind_once(monkeypatch, params):
    # every member reads the one unit bump: 3 plans, 3 edges() calls and 3
    # moment sessions for the walk, where each member used to build its
    # own 3 plans and run its own session
    calls = {"plans": 0, "edges": 0, "sessions": 0}
    plans = []

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    init = quadrature._NormPlan.__init__

    def recorded(plan, *args):
        plans.append(plan)
        init(plan, *args)

    monkeypatch.setattr(quadrature._NormPlan, "__init__", counted("plans", recorded))
    monkeypatch.setattr(SmoothBump, "edges", counted("edges", SmoothBump.edges))
    monkeypatch.setattr(quadrature, "integrate", counted("sessions", quadrature.integrate))
    report = falsify_instance(params)
    assert not report.ok and len(report.trace) == 41
    assert calls == {"plans": 3, "edges": 3, "sessions": 3}
    assert all(plan.base is witnesses._UNIT_BUMP and plan.moments for plan in plans)


@pytest.mark.parametrize("params", D5)
def test_a_translated_walk_runs_each_series_recurrence_once(monkeypatch, params):
    # only x_max changes along the walk: one coefficient list per (n, d),
    # each coefficient computed once, and the reports of a walk that starts
    # each norm's series afresh
    made, extended = [], []
    init, extend = quadrature._MeanCoefficients.__init__, quadrature._MeanCoefficients._extend

    def recorded(coefficients, n, d):
        made.append(coefficients)
        init(coefficients, n, d)

    def counted(coefficients):
        extended.append(coefficients)
        extend(coefficients)

    with monkeypatch.context() as m:
        m.setattr(quadrature._MeanCoefficients, "__init__", recorded)
        m.setattr(quadrature._MeanCoefficients, "_extend", counted)
        report = falsify_instance(params)
    assert not report.ok and len(report.trace) == 41
    assert sorted((c.n, c.d) for c in made) == sorted((params.n, d) for d in (params.c, params.a, params.b))
    for coefficients in made:
        assert extended.count(coefficients) == len(coefficients.coefs) - 1 > 0
    monkeypatch.setattr(quadrature, "_mean_coefficients", lambda plans, n, d: quadrature._MeanCoefficients(n, d))
    assert falsify_instance(params).as_dict() == report.as_dict()


def test_a_translated_offset_past_the_double_range_raises_overflow():
    family = witnesses._TranslatedBumpFamily(None, None, "", "sup_dilation", offset_start=64.0, offset_base=1e4)
    assert family.member(76).offset == 64.0 * 1e4 ** 76
    for index in (77, 78, 200):
        with pytest.raises(OverflowError, match=f"64 \\* 10000\\^{index} leaves the double range"):
            family.member(index)
