"""Closed-form derived quantities of the parameter calculus.

For a tuple (N, p, q, r, a, b, c) define

    slope_a = (a + N) / q            slope_b = (b - p + N) / p
    c0 = r * slope_a - N             c1 = r * slope_b - N
    p* = N p / (N - p)  (p < N)      p* = +inf  (p >= N)

When the two slopes differ, c0 != c1 and every c has a well-defined
interpolation parameter

    theta_c = (c - c0) / (c1 - c0),

satisfying exactly  (c+N)/r = theta_c * slope_b + (1-theta_c) * slope_a.
When the slopes coincide their common value is eta and theta_c is
undefined (None, never silently zero).  The remaining fields are the
auxiliary exponents used by the radial and interior characterizations:

    theta_breve = (1 - q/r) * (q/p' + 1)^-1
    theta_bar   = (1/r - 1/q) / (1/p - 1/N - 1/q)   (None when q = p*)
    c_star      = (1 - q/r) c1 + (q/r) c0
    c_bar       = theta_bar * c1 + (1 - theta_bar) * c0

Everything here is exact rational arithmetic; no floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .params import Params
from .rational import INF, ExtRational, format_optional, format_rational, holder_conjugate


@dataclass(frozen=True)
class DerivedQuantities:
    c0: Fraction
    c1: Fraction
    p_star: ExtRational
    slope_a: Fraction
    slope_b: Fraction
    theta_c: Optional[Fraction]
    eta: Optional[Fraction]
    theta_breve: Fraction
    theta_bar: Optional[Fraction]
    c_star: Fraction
    c_bar: Optional[Fraction]
    p_conj: ExtRational

    @property
    def slopes_equal(self) -> bool:
        return self.slope_a == self.slope_b

    def theta_of(self, c: Fraction) -> Fraction:
        """Interpolation parameter of an arbitrary c (slopes must differ)."""
        if self.slopes_equal:
            raise ValueError("theta is undefined when the two slopes coincide")
        return (c - self.c0) / (self.c1 - self.c0)

    def c_of_theta(self, theta: Fraction) -> Fraction:
        if self.slopes_equal:
            raise ValueError("c(theta) is undefined when the two slopes coincide")
        return theta * self.c1 + (1 - theta) * self.c0

    def as_dict(self) -> dict:
        return {
            "c0": format_rational(self.c0),
            "c1": format_rational(self.c1),
            "p_star": format_rational(self.p_star),
            "slope_a": format_rational(self.slope_a),
            "slope_b": format_rational(self.slope_b),
            "theta_c": format_optional(self.theta_c),
            "eta": format_optional(self.eta),
            "theta_breve": format_rational(self.theta_breve),
            "theta_bar": format_optional(self.theta_bar),
            "c_star": format_rational(self.c_star),
            "c_bar": format_optional(self.c_bar),
            "p_conj": format_rational(self.p_conj),
        }


def critical_exponent(n: int, p: Fraction) -> ExtRational:
    """Sobolev critical exponent: N p/(N-p) below dimension, +inf at or above."""
    if p >= n:
        return INF
    return Fraction(n, 1) * p / (n - p)


def derive(params: Params) -> DerivedQuantities:
    n, p, q, r = params.n, params.p, params.q, params.r
    a, b, c = params.a, params.b, params.c

    slope_a = (a + n) / q
    slope_b = (b - p + n) / p
    c0 = r * slope_a - n
    c1 = r * slope_b - n

    theta_c = None
    eta = None
    if slope_a == slope_b:
        eta = slope_a
    else:
        theta_c = (c - c0) / (c1 - c0)

    p_conj = holder_conjugate(p)
    # q/p' written without infinite arithmetic: q (p-1)/p, which is 0 at p=1.
    q_over_pconj = q * (p - 1) / p
    theta_breve = (1 - q / r) / (q_over_pconj + 1)

    # 1/p - 1/N - 1/q, the slope of the interior theta-condition.
    s_factor = 1 / p - Fraction(1, n) - 1 / q
    if s_factor == 0:
        theta_bar = None
        c_bar = None
    else:
        theta_bar = (1 / r - 1 / q) / s_factor
        c_bar = theta_bar * c1 + (1 - theta_bar) * c0

    c_star = (1 - q / r) * c1 + (q / r) * c0

    return DerivedQuantities(
        c0=c0,
        c1=c1,
        p_star=critical_exponent(n, p),
        slope_a=slope_a,
        slope_b=slope_b,
        theta_c=theta_c,
        eta=eta,
        theta_breve=theta_breve,
        theta_bar=theta_bar,
        c_star=c_star,
        c_bar=c_bar,
        p_conj=p_conj,
    )


def theta_slack(theta: Fraction, params: Params) -> Fraction:
    """(1/r - 1/q) - theta (1/p - 1/N - 1/q): non-negative exactly when the
    theta-condition holds."""
    s_factor = 1 / params.p - Fraction(1, params.n) - 1 / params.q
    return (1 / params.r - 1 / params.q) - theta * s_factor


def theta_condition_holds(theta: Fraction, params: Params) -> bool:
    """Exact test of  theta (1/p - 1/N - 1/q) <= 1/r - 1/q."""
    return theta_slack(theta, params) >= 0
