"""Closed forms that judge the weighted norms from outside, with math.lgamma.

  * `power_tail_log_norm`: log || t^-alpha (1+t)^(alpha-beta) ||_{d,s} on
    R^n, whose radial integral is the Beta integral of t^(x-1) (1+t)^-(x+y),
    B(x, y), x = d + n - alpha s and y = beta s - d - n (DLMF 5.12.3).
  * `power_bump_log_norm`: log || t^-alpha (1 - t^g)^m ||_{d,s} on R^n,
    f = 0 past t = 1, whose radial integral is (1/g) B(x, m s + 1), x =
    (d + n - alpha s) / g, in v = t^g (DLMF 5.12.1).
  * `power_bump_p2_log_gradient`: log || grad u ||_{b,2} of that u for an
    integer m.  With v = t^g, |f'|^2 t^(b+n-1) dt is (1/g) v^(x-1) P(v) dv,
    x = (b + n - 2 alpha - 2) / g and P(v) = (1-v)^(2m-2) (alpha + (mg -
    alpha) v)^2 a polynomial, so the integral is the finite binomial sum
    of its coefficients e_i times B(x + i, 1) = 1 / (x + i), in Fractions.
  * `hardy_log_constant`: the sharp constant of the weighted Hardy
    inequality || u ||_{b-p,p} <= p / |n + b - p| || grad u ||_{b,p}, for
    n + b - p != 0 (Hardy, Littlewood & Polya, Inequalities, ch. IX; Opic
    & Kufner, Hardy-type Inequalities, 1990).  It is not attained, and
    PowerTail(k/p - eps, k/p + eps), k = n + b - p, approaches it as eps
    falls to 0, by a gap that shrinks as eps^2.
"""

from __future__ import annotations

import math
from fractions import Fraction


def log_sphere_area(n: int) -> float:
    """log |S^(n-1)|."""
    return math.log(2.0) + 0.5 * n * math.log(math.pi) - math.lgamma(0.5 * n)


def power_tail_log_norm(alpha: Fraction, beta: Fraction, d: Fraction, s: Fraction, n: int) -> float:
    """log || PowerTail(alpha, beta) ||_{d,s} on R^n; x and y must be positive."""
    x, y = float(d + n - alpha * s), float(beta * s - d - n)
    assert x > 0 and y > 0, "the norm diverges"
    return (log_sphere_area(n) + math.lgamma(x) + math.lgamma(y) - math.lgamma(x + y)) / float(s)


def hardy_log_constant(n: int, p: Fraction, b: Fraction) -> float:
    """log(p / |n + b - p|)."""
    return math.log(p / abs(n + b - p))


def power_bump_log_norm(alpha: Fraction, g: Fraction, m: Fraction, d: Fraction, s: Fraction, n: int) -> float:
    """log || PowerBump(alpha, g, m) ||_{d,s} on R^n; x must be positive."""
    x, y = (d + n - alpha * s) / g, m * s + 1
    assert x > 0, "the norm diverges"
    x, y = float(x), float(y)
    return (log_sphere_area(n) - math.log(g) + math.lgamma(x) + math.lgamma(y) - math.lgamma(x + y)) / float(s)


def power_bump_p2_log_gradient(alpha: Fraction, g: Fraction, m: int, b: Fraction, n: int) -> float:
    """log || grad PowerBump(alpha, g, m) ||_{b,2} on R^n for an integer m;
    every power of v that P carries must integrate against v^(x-1)."""
    x, slope = (b + n - 2 * alpha - 2) / g, m * g - alpha
    square = [alpha * alpha, 2 * alpha * slope, slope * slope]  # (alpha + slope v)^2
    coefs = [Fraction(0)] * (2 * m + 1)
    for k in range(2 * m - 1):  # (1 - v)^(2m-2)
        for j, c in enumerate(square):
            coefs[k + j] += (-1) ** k * math.comb(2 * m - 2, k) * c
    assert all(x + i > 0 for i, c in enumerate(coefs) if c), "the norm diverges"
    total = sum(c / (x + i) for i, c in enumerate(coefs) if c)
    return (log_sphere_area(n) - math.log(g) + math.log(total)) / 2
