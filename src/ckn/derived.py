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

Everything here is exact rational arithmetic; no floats.  The arithmetic
runs on Python ints: `line_core` takes p, q, r, a, b as integer (num,
den) pairs and writes the line over the least common multiple L of their
denominators (p = P/L and so on).  `LineCore.quantities(c)` writes each
field as one integer numerator over one integer denominator, one
`Fraction(num, den)` per field; `derive` and `classify.CLine` share it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import NamedTuple, Optional

from .params import Params
from .rational import INF, ExtRational, Pair, format_optional, format_rational, holder_conjugate, reduced


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


class LineCore(NamedTuple):
    """One line (N, p, q, r, a, b) in integers over a common denominator L
    of p, q, r, a, b: p = P/L, q = Q/L, r = R/L, and

        L (a + N) = sa          slope_a = sa / Q
        L (b - p + N) = sb      slope_b = sb / P
        c0 = x0 / (L Q)         c1 = x1 / (L P)
        slope_b - slope_a = gap / (P Q),   so c1 - c0 = R gap / (L P Q)
        1/p - 1/N - 1/q = s / (N P Q)

    Every denominator written here except those of gap and s is positive.
    """

    n: int
    L: int
    P: int
    Q: int
    R: int
    sa: int
    sb: int
    x0: int
    x1: int
    gap: int
    s: int

    def c_bar(self) -> Pair:
        """c_bar = c0 + theta_bar (c1 - c0) as (num, den), den > 0; s != 0."""
        n, L, P, Q, R, sa, sb, x0, x1, gap, s = self
        num, den = s * x0 + n * L * (Q - R) * gap, L * Q * s
        return (num, den) if s > 0 else (-num, -den)

    def theta_terms(self, num: int, den: int) -> Pair:
        """theta_c of c = num/den (den > 0) as a ratio of two integers, not
        reduced; the slopes must differ."""
        n, L, P, Q, R, sa, sb, x0, x1, gap, s = self
        return P * (Q * L * (num + n * den) - R * sa * den), den * R * gap

    def theta_pair(self, num: int, den: int) -> Pair:
        """theta_c of c = num/den (den > 0) in lowest terms, den > 0, as
        `ckn sweep` writes it."""
        return reduced(*self.theta_terms(num, den))

    def theta(self, num: int, den: int) -> Fraction:
        """theta_c of c = num/den (den > 0); the slopes must differ."""
        return Fraction(*self.theta_terms(num, den))

    def quantities(self, c: Fraction) -> DerivedQuantities:
        """The derived quantities at c; `classify` reads them off the core
        of the `CLine` it labels, so one core serves both."""
        n, L, P, Q, R, sa, sb, x0, x1, gap, s = self
        nL = n * L

        slope_a = Fraction(sa, Q)
        if gap == 0:
            theta_c, eta = None, slope_a
        else:
            theta_c, eta = self.theta(*c.as_integer_ratio()), None

        # p' = p/(p-1); holder_conjugate raises below 1 and gives inf at 1
        p_conj = holder_conjugate(Fraction(P, L)) if P <= L else Fraction(P, P - L)
        # (1 - q/r) / (q (p-1)/p + 1)
        theta_breve = Fraction((R - Q) * L * P, R * (Q * (P - L) + L * P))
        if s == 0:
            theta_bar = c_bar = None
        else:
            # (1/r - 1/q) / (1/p - 1/N - 1/q)
            theta_bar = Fraction(nL * P * (Q - R), R * s)
            c_bar = Fraction(*self.c_bar())

        return DerivedQuantities(
            c0=Fraction(x0, L * Q),
            c1=Fraction(x1, L * P),
            p_star=INF if P >= nL else Fraction(n * P, nL - P),
            slope_a=slope_a,
            slope_b=Fraction(sb, P),
            theta_c=theta_c,
            eta=eta,
            theta_breve=theta_breve,
            theta_bar=theta_bar,
            # c0 + (1 - q/r)(c1 - c0)
            c_star=Fraction(P * x0 + (R - Q) * gap, L * P * Q),
            c_bar=c_bar,
            p_conj=p_conj,
        )


def line_core(n: int, p: Pair, q: Pair, r: Pair, a: Pair, b: Pair) -> LineCore:
    """The line through (n, p, q, r, a, b), each of p, q, r, a, b an integer
    (num, den) pair, den > 0."""
    (pn, pd), (qn, qd), (rn, rd), (an, ad), (bn, bd) = p, q, r, a, b
    L = lcm(pd, qd, rd, ad, bd)
    P = pn * (L // pd)
    Q = qn * (L // qd)
    R = rn * (L // rd)
    nL = n * L
    sa = an * (L // ad) + nL
    sb = bn * (L // bd) - P + nL
    return LineCore._make((
        n, L, P, Q, R, sa, sb,
        R * sa - nL * Q,
        R * sb - nL * P,
        sb * Q - sa * P,
        nL * Q - P * Q - nL * P,
    ))


def line_pairs(params: Params) -> tuple:
    """The (num, den) pairs of p, q, r, a, b: the line of line_core."""
    return (params.p.as_integer_ratio(), params.q.as_integer_ratio(), params.r.as_integer_ratio(),
            params.a.as_integer_ratio(), params.b.as_integer_ratio())


def derive(params: Params) -> DerivedQuantities:
    return line_core(params.n, *line_pairs(params)).quantities(params.c)


def theta_slack(theta: Fraction, params: Params) -> Fraction:
    """(1/r - 1/q) - theta (1/p - 1/N - 1/q): non-negative exactly when the
    theta-condition holds."""
    s_factor = 1 / params.p - Fraction(1, params.n) - 1 / params.q
    return (1 / params.r - 1 / params.q) - theta * s_factor


def theta_condition_holds(theta: Fraction, params: Params) -> bool:
    """Exact test of  theta (1/p - 1/N - 1/q) <= 1/r - 1/q."""
    return theta_slack(theta, params) >= 0
