"""Ends at 0 and infinity closed in closed form, against closed forms.

Every infinite end of a norm is a closed piece: the leading power of the
edge record from a cut to the end, whose next-order bound is added to the
reported error (`quadrature._NormPlan._close`).  Each norm below was
once walked by panels toward 0 or infinity, and each was off by far more
than the error it reported.  Now each must be Finite and lie within its
reported log error, NormValue.error / s, plus SLACK for rounding, of a
closed form built with math.lgamma (`oracle_sharp`).  The profiles are
`PanelTail`s, PowerTails with no closed form, so that the norms are
integrated on panels and closed ends.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from ckn.profiles import Edge, RadialProfile
from ckn.quadrature import NormStatus, weighted_norm, weighted_norm_gradient
from ckn.testfunctions import radial
from oracle_panels import PanelTail
from oracle_sharp import hardy_log_constant, power_tail_log_norm

F = Fraction

# the rounding of the panel sums and of lgamma, in log
SLACK = 1e-13


def assert_within_error(alpha, beta, d, s, n):
    norm = weighted_norm(radial(PanelTail(alpha, beta)), d, s, n)
    assert norm.finite, norm.detail
    off = abs(norm.log_value - power_tail_log_norm(alpha, beta, d, s, n))
    assert off <= norm.error / float(s) + SLACK, (off, norm.error)
    return norm


@pytest.mark.parametrize("y", [F(1, 2), F(1, 8), F(1, 12), F(1, 20), F(1, 50)])
def test_the_d4_table_lies_within_its_reported_error(y):
    # the tail integrand is t^(-1-y); the walks were 8.7e-11 to 6.4e-4 off
    # in log, reporting 9e-17 to 5.8e-10
    assert_within_error(F(-1), 1 + y, F(0), F(1), 1)


@pytest.mark.parametrize("alpha, beta", [(F(0), F(2, 3) + F(1, 1000)), (F(2, 3) - F(1, 1000), F(3))],
                         ids=["at_infinity", "at_zero"])
def test_norms_1e_3_from_critical_lie_within_their_reported_error(alpha, beta):
    # the walks ran to the float edges 1e+-280 and were 5.2e-2 off in log,
    # reporting 8.6e-15 and 8.3e-15
    assert_within_error(alpha, beta, F(0), F(3), 2)


def test_a_tail_that_underflows_lies_within_its_reported_error():
    # f = t^(27/5) (1+t)^(-203/20) underflows to 0 far out, and the walk
    # stopped on 8 zero panels: 2.8e-3 off in log, reporting 8.5e-9
    assert_within_error(F(-27, 5), F(19, 4), F(-1, 3), F(1), 5)


@pytest.mark.parametrize("n, s, d, alpha, beta", [(2, F(5, 4), F(-4, 3), F(-29), F(5, 4)),
                                                  (2, F(1), F(-17, 3), F(-6), F(-18, 5))])
def test_powers_that_overflowed_far_out_lie_within_their_reported_error(n, s, d, alpha, beta):
    # t^-alpha and (1+t)^(alpha-beta), each alone, overflowed toward the
    # float edges, raising a RuntimeWarning: the cuts keep both in range
    assert_within_error(alpha, beta, d, s, n)


def test_a_slowly_falling_tail_lies_within_its_reported_error():
    # the walk bisected float noise to depth 12 for 0.7 s and was 5.3e-2 off
    assert_within_error(F(-1, 2), F(2, 3) + F(1, 1000), F(0), F(3), 2)


@pytest.mark.parametrize("n, p, b, eps", [
    (2, F(4), F(1), F(1, 512)),
    (2, F(4), F(1), F(1, 1024)),
    (3, F(2), F(0), F(1, 128)),
    (5, F(3, 2), F(-1), F(1, 32)),
])
def test_near_extremal_hardy_ratios_stay_below_the_sharp_constant(n, p, b, eps):
    # the gradient tail falls as t^(-1 - p eps): its walk lost 2.1 % at (2,
    # 4, 1) and eps = 1/512, and the ratio exceeded the bound by 3.5e-3 and
    # 1.5e-2; at (3, 2, 0) and (5, 3/2, -1) f' overflowed near 0 and the
    # norms were Failed
    k = n + b - p
    u = radial(PanelTail(k / p - eps, k / p + eps))
    value, grad = weighted_norm(u, b - p, p, n), weighted_norm_gradient(u, b, p, n)
    assert value.finite and grad.finite, (value.detail, grad.detail)
    errors = (value.error + grad.error) / float(p)
    assert value.log_value - grad.log_value <= hardy_log_constant(n, p, b) + errors


class Unbounded(RadialProfile):
    """1 / (1 + t^2), with a record at infinity that states no bound."""

    def value(self, t):
        return 1.0 / (1.0 + np.asarray(t, dtype=float) ** 2)

    def edges(self):
        return (Edge(1.0, F(0), exact=1e-300), Edge(1.0, F(-2)))


class Unrecorded(Unbounded):
    """1 / (1 + ln(1 + t)), with no record at infinity: it claims to vanish
    faster than any power there, yet is not 0 in floats at 2^830."""

    def value(self, t):
        return 1.0 / (1.0 + np.log1p(np.asarray(t, dtype=float)))

    def edges(self):
        return (Edge(1.0, F(0), exact=1e-300), None)


@pytest.mark.parametrize("profile, detail", [(Unbounded(), "no bound on the edge record at infinity"),
                                             (Unrecorded(), "no edge record at infinity, and F is not 0 at 2^830")],
                         ids=["no_bound", "no_record"])
def test_an_end_without_a_bound_fails_with_its_reason(profile, detail):
    norm = weighted_norm(radial(profile), F(0), F(1), 1)
    assert (norm.status, norm.detail) == (NormStatus.FAILED, detail)
    assert math.isnan(norm.log_value)
