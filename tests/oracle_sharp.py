"""Closed forms that judge the weighted norms from outside, with math.lgamma.

  * `power_tail_log_norm`: log || t^-alpha (1+t)^(alpha-beta) ||_{d,s} on
    R^n, whose radial integral is the Beta integral of t^(x-1) (1+t)^-(x+y),
    B(x, y), x = d + n - alpha s and y = beta s - d - n (DLMF 5.12.3).
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
