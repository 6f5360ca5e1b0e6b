"""Hypergeometric series with stated errors, for the closed forms of the norms.

  * `Terms`: the term recurrence of pFq, p = q + 1, and a bound on the tail
    of the series at any z.
  * `Hyp2F1`: 2F1(a, b; b + e; 1 - rho) from exact a, b and e, one value
    with its relative error for the gradients of `PowerTail`s, or arrays of
    rho under one error over [0, 1] for the angular factor of
    first-harmonic gradients.

Each error is a series tail plus the rounding of its sums, 64 eps times
the sum of the absolute terms (`ROUND`), more for long recurrences.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from typing import Tuple

import numpy as np

from .panels import QuadratureError

# the most terms a series may take
_MAX_TERMS = 10_000

# the rounding allowed a sum, relative to the sum of its absolute terms
ROUND = 64 * float(np.finfo(float).eps)


class Terms:
    """The coefficients scale prod_i (ups_i)_k / (prod_j (downs_j)_k k!) of
    scale pFq(ups; downs; z), p = q + 1, each computed once by the term
    recurrence, and a bound on the tail of the series at any z."""

    def __init__(self, ups, downs, scale: float = 1.0):
        # each up is paired with a down, the last with the 1 of k!
        self.ups, self.downs, self.coefs = tuple(ups), (*downs, 1.0), [scale]

    def __getitem__(self, k: int) -> float:
        while len(self.coefs) <= k:
            self._extend()
        return self.coefs[k]

    def _extend(self) -> None:
        """Append the next coefficient by the recurrence."""
        k, coef = len(self.coefs), self.coefs[-1]
        for u in self.ups:
            coef *= u + k - 1
        self.coefs.append(coef / math.prod(v + k - 1 for v in self.downs))

    def tail(self, k: int, z: float) -> float:
        """A bound on the absolute terms from term k on at z, or inf: past k
        >= -up and k > -down each factor (up+j)/(down+j) of the term ratio
        is monotone in j, so r = z prod max(1, (up+k)/(down+k)) bounds it,
        and the tail is at most |term k| / (1 - r)."""
        if any(k < -u for u in self.ups) or any(k <= -v for v in self.downs):
            return math.inf
        r = z
        for u, v in zip(self.ups, self.downs):
            r *= max(1.0, (k + u) / (k + v))
        return abs(self[k]) * z**k / (1.0 - r) if r < 1.0 else math.inf


def _digamma(x: float) -> float:
    """psi(x) for x > 0: the recurrence up to x >= 16, then the asymptotic
    series, whose first dropped term is below 1e-16 there."""
    shift = 0.0
    while x < 16.0:
        shift -= 1.0 / x
        x += 1.0
    y = 1.0 / (x * x)
    return shift + math.log(x) - 0.5 / x - y * (1 / 12 - y * (1 / 120 - y * (1 / 252 - y * (1 / 240 - y / 132))))


def _gamma_ratio(up, down) -> Tuple[float, float]:
    """The product of Gamma over up divided by that over down, none of them
    a pole, through lgamma and the signs of Gamma at negative points, and
    the sum of the sizes of its log Gammas."""
    logs = [math.lgamma(x) for x in up] + [-math.lgamma(x) for x in down]
    sign = math.prod(-1.0 if x < 0 and math.floor(x) % 2 else 1.0 for x in (*up, *down))
    return sign * math.exp(sum(logs)), sum(map(abs, logs))


def _rho_polynomial(m: int, b: float, e: float) -> list:
    """The coefficients in rho of the polynomial 2F1(-m, b; b + e; 1 -
    rho), b, e > 0: C(m, j) (b)_j (e)_(m-j) / (b + e)_m for j = 0..m, its
    Taylor coefficients at 1 - rho = 1 by Chu-Vandermonde (DLMF 15.4.24).
    Each is positive, so no sum of them cancels."""
    coef = math.prod((e + i) / (b + e + i) for i in range(m))
    coefs = [coef]
    for j in range(m):
        coef *= (m - j) / (j + 1.0) * (b + j) / (e + m - j - 1.0)
        coefs.append(coef)
    return coefs


def _horner(coefs: list, x):
    """The sum of coefs[k] x^k by Horner's rule, at a float or an array x."""
    value = 0.0
    for coef in reversed(coefs):
        value = value * x + coef
    return value


class _Series:
    """2F1(u, w; v; x) as the sum of coefs[k] x^k, its coefficients built
    by the term recurrence as far as the largest argument summed so far
    needs, or the first `length` of them (a finite head)."""

    def __init__(self, u: float, w: float, v: float, length: int = _MAX_TERMS):
        self.u, self.w, self.v, self.length, self.coefs = u, w, v, length, [1.0]
        # past it each factor (u + k) / (v + k) and (w + k) / (k + 1) of the term ratio is monotone
        self.first = max(1.0, -u, -w, math.floor(-v) + 1.0)

    def sum(self, x: float) -> Tuple[float, float, float, float]:
        """(sum, absolute sum, rounding, tail) at 0 <= x < 1, cut after a
        term k >= first, one of every 16, whose tail bound |term k| r / (1 -
        r) is at most 1e-17 of the absolute sum, r = x max(1, (u + k) / (v +
        k)) max(1, (w + k) / (k + 1)) (Terms.tail).  The rounding of term k
        is its size times 64 eps plus 8 eps a step of the recurrence, each
        of at most 8 roundings and one rounded argument."""
        u, w, v, length = self.u, self.w, self.v, self.length
        u1, w1, v1 = u - 1.0, w - 1.0, v - 1.0
        coefs = [1.0]
        coef = total = absolute = power = 1.0
        rounding = size = 0.0
        for start in range(1, length, 16):
            for k in range(start, min(start + 16, length)):
                coef *= (u1 + k) * (w1 + k) / ((v1 + k) * k)
                coefs.append(coef)
                power *= x
                term = coef * power
                size = abs(term)
                total += term
                absolute += size
                rounding += size * k
            if k >= self.first:
                r = x * max(1.0, (u + k) / (v + k)) * max(1.0, (w + k) / (k + 1.0))
                if r < 1.0 and size * r <= 1e-17 * absolute * (1.0 - r):
                    break
        else:
            if length == _MAX_TERMS:
                raise QuadratureError(f"2F1({u:.6g}, {w:.6g}; {v:.6g}; {x:.6g}) needs more than {_MAX_TERMS} terms")
            r = 0.0
        if len(coefs) > len(self.coefs):
            self.coefs = coefs
        return total, absolute, ROUND / 8.0 * (8.0 * absolute + rounding), size * r / (1.0 - r)

    def values(self, x: np.ndarray) -> np.ndarray:
        return _horner(self.coefs, x)


class _LogSeries(_Series):
    """The log series of A&S 15.3.11, the sum of t_n x^n (ln x + A_n +
    B_n), t_n the coefficients of 2F1(u, w; v; x), u, w > 0, v = m + 1, A_n
    = psi(u + n) - psi(n + 1) and B_n = psi(w + n) - psi(v + n): ln x times
    that 2F1 plus the series of t_n (A_n + B_n).  Each digamma difference
    shrinks in size as n grows, so |ln x| + |A_0| + |B_0| bounds every
    weight, and the tail and rounding of the 2F1 times it theirs."""

    def rest(self) -> Tuple[list, float]:
        """The coefficients t_n (A_n + B_n), and |A_0| + |B_0|."""
        da, db, rest = _digamma(self.u) - _digamma(1.0), _digamma(self.w) - _digamma(self.v), []
        weight = abs(da) + abs(db)
        for n, coef in enumerate(self.coefs):
            rest.append(coef * (da + db))
            da += 1.0 / (self.u + n) - 1.0 / (n + 1.0)
            db += 1.0 / (self.w + n) - 1.0 / (self.v + n)
        return rest, weight

    def sum(self, x: float) -> Tuple[float, float, float, float]:
        total, absolute, rounding, tail = super().sum(x)
        (rest, weight), log_x = self.rest(), math.log(x)
        weight += abs(log_x)
        return log_x * total + _horner(rest, x), weight * absolute, weight * rounding, weight * tail

    def values(self, x: np.ndarray) -> np.ndarray:
        return np.log(np.where(x > 0.0, x, 1.0)) * _horner(self.coefs, x) + _horner(self.rest()[0], x)


# below it 2F1(a, b; c; 1 - rho) is read from connection formulas in rho,
# which cancel more as rho grows, and at or above it from positive terms in
# 1 - rho, which take longer as rho falls
RHO_CONNECT = 0.1


def _sum(parts: list, x: float, rho: float) -> Tuple[float, float]:
    """(value, absolute error) of the sum of the parts (scale, logs, g,
    series), each scale rho^g series(x), rho^g 0 at rho = 0: the tail and
    rounding of each series, and 64 eps times the sizes of the logs, of its
    Gamma ratio (logs) and its power of rho, plus one for its exp."""
    value = error = 0.0
    for scale, logs, g, series in parts:
        if g and rho == 0.0:
            continue
        log_power = g * math.log(rho) if g else 0.0
        scale *= math.exp(log_power)
        total, absolute, rounding, tail = series.sum(x)
        value += scale * total
        error += abs(scale) * (tail + rounding + ROUND * absolute * (1.0 + abs(log_power) + logs))
    return value, error


class Hyp2F1:
    """2F1(a, b; c; z) for c = b + e, b, e > 0, g = e - a > 0 and z = 1 -
    rho, 0 <= rho <= 1: Euler's integral of (1 - z v)^-a over the Beta(b,
    e) weight (DLMF 15.6.1), so a positive value.  It is

      * a polynomial in rho where a is a non-positive integer
        (_rho_polynomial);
      * else rho^g 2F1(c - a, e; c; z), a series of positive terms (Euler's
        transformation, DLMF 15.8.1), where rho >= RHO_CONNECT (far);
      * else, in rho so that a tiny rho keeps its digits, A&S 15.3.6, G1
        2F1(a, b; 1 - g; rho) + rho^g G2 2F1(c - a, e; 1 + g; rho) with
        Gamma ratios G1 and G2, or 15.3.11 where g is an integer (near).

    Every part reads a and g = e - a each rounded once from its exact
    value, the Gamma ratios and the series of 15.3.6 alike: near an integer
    m the two terms of 15.3.6 grow as 1/|g - m| and cancel, to rounding
    only where their poles sit at the same g.  So whether a and g are
    integers is decided on these floats, exactly for every integer, and a
    value within half an ulp of one, at which the other branch has a pole,
    is read as that integer.  The near branch is built on first use."""

    def __init__(self, a: Fraction, b: Fraction, e: Fraction):
        self.a, self.b, self.e, self.error, self.polynomial = a, b, e, None, None
        self.af, self.bf, self.ef, self.gf = float(a), float(b), float(e), float(e - a)
        self.far = [(1.0, 0.0, self.gf, _Series(self.bf + self.gf, self.ef, self.bf + self.ef))]
        if self.af <= 0.0 and self.af.is_integer():  # positive terms: 64 eps, plus 8 eps a step
            self.polynomial = _rho_polynomial(int(-self.af), self.bf, self.ef)
            self.error = ROUND * (1.0 + len(self.polynomial) / 8.0)

    @cached_property
    def near(self) -> list:
        af, bf, ef, gf, cf = self.af, self.bf, self.ef, self.gf, self.bf + self.ef
        if not gf.is_integer():
            return [(*_gamma_ratio([cf, gf], [bf + gf, ef]), 0.0, _Series(af, bf, 1.0 - gf)),
                    (*_gamma_ratio([cf, -gf], [af, bf]), gf, _Series(bf + gf, ef, 1.0 + gf))]
        m = int(gf)
        scale, logs = _gamma_ratio([cf], [af, bf, m + 1.0])
        return [(*_gamma_ratio([float(m), cf], [ef, bf + gf]), 0.0, _Series(af, bf, 1.0 - m, m)),
                (-(-1.0) ** m * scale, logs, float(m), _LogSeries(ef, bf + gf, m + 1.0))]

    def at(self, rho: float, z: float) -> Tuple[float, float]:
        """(the value, its relative error) at one rho and z = 1 - rho, each
        rounded once."""
        if self.polynomial is not None:
            return _horner(self.polynomial, rho), self.error
        value, error = _sum(self.far, z, rho) if rho >= RHO_CONNECT else _sum(self.near, rho, rho)
        return value, error / value

    def bound(self) -> float:
        """One relative error over 0 <= rho <= 1 for a < 0, building each
        series for its whole branch.  Every part of the error grows with rho
        on each branch (on the far one relative to the value, whose series
        has positive terms in z), so its value at RHO_CONNECT bounds it; and
        the value grows with rho, so the near branch's error is taken over
        its value at 0, its least."""
        if self.error is None:
            near = _sum(self.near, RHO_CONNECT, RHO_CONNECT)[1] / _sum(self.near, 0.0, 0.0)[0]
            self.error = max(self.at(RHO_CONNECT, 1.0 - RHO_CONNECT)[1], near)
        return self.error

    def __call__(self, rho: np.ndarray) -> np.ndarray:
        """The values at an array of rho, by Horner's rule on the
        coefficients that bound() builds."""
        self.bound()
        if self.polynomial is not None:
            return _horner(self.polynomial, rho)
        out, far = np.empty_like(rho), rho >= RHO_CONNECT
        for parts, pick, x in ((self.far, far, 1.0 - rho[far]), (self.near, ~far, rho[~far])):
            out[pick] = sum(scale * rho[pick]**g * series.values(x) for scale, _, g, series in parts)
        return out
