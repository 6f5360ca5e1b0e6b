"""Hypergeometric series with stated errors, for the closed forms of the norms.

  * `Terms`: the term recurrence of pFq, p = q + 1, and the factors of a
    bound on the tail of the series at any z; `translated_series` keeps one
    per translated norm's parameter set, with its Beta factor, and
    `_mean_series` sums one as the translated norms' mean of the weight.
  * `Hyp2F1`: 2F1(a, b; b + e; 1 - rho) from a, b, e and g = e - a, each
    rounded once from its exact value by the caller, one value with its
    relative error for the closed-form gradients of `PowerTail`s and
    `PowerBump`s, or arrays of rho under one error over [0, 1] for the
    angular factor of first-harmonic gradients.
  * `_euler_pieces`: the integral of u^(x-1) (1-u)^(y-1) |a + (b-a) u|^s
    over (0, 1), the one closed form of `PowerTail` and `PowerBump` norms,
    as Beta values and 2F1s from integer Beta arguments.

Each error is a series tail plus the rounding of its sums, 64 eps times
the sum of the absolute terms (`ROUND`), more for long recurrences.
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache
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
    recurrence, and per k the factors of a bound on the tail of the series
    at any z (_mean_series), each also computed once."""

    __slots__ = ("ups", "downs", "coefs", "ratios")

    def __init__(self, ups, downs, scale: float = 1.0):
        # each up is paired with a down, the last with the 1 of k!
        self.ups, self.downs, self.coefs = tuple(ups), (*downs, 1.0), [scale]
        self.ratios = [None]  # per k, the factors of the tail bound other than 1, or None where it is inf

    def extend(self) -> None:
        """Append the next coefficient by the recurrence, and its ratio."""
        k, coef = len(self.coefs), self.coefs[-1]
        for u in self.ups:
            coef *= u + k - 1
        self.coefs.append(coef / math.prod(v + k - 1 for v in self.downs))
        if any(k < -u for u in self.ups) or any(k <= -v for v in self.downs):
            self.ratios.append(None)
        else:
            factors = (max(1.0, (k + u) / (k + v)) for u, v in zip(self.ups, self.downs))
            self.ratios.append(tuple(f for f in factors if f != 1.0))


@lru_cache(maxsize=512)
def translated_series(n: int, d: float, s: float, gradient: bool) -> Tuple[Terms, float]:
    """The Terms of the series of a translated norm on R^n at weight d and
    exponent s (quadrature._translated_norm), 2F1(a, b; n/2 + 2s + 1; y)
    for values, 3F2(a, e, b; n/2, e + s + 1; y) for gradients, a = -d/2, b
    = 1 - n/2 - d/2 and e = (n + s)/2, and the lgammas of its Beta factor,
    ln B(n/2, 2s + 1), resp. ln B(e, s + 1).  The members of a translated
    family differ only in y, so each extends the coefficients its y needs,
    and reads those of the members before it.  The cache holds at most 512
    of them."""
    a, b = -d / 2.0, 1.0 - n / 2.0 - d / 2.0
    if gradient:
        e = (n + s) / 2.0
        return (Terms((a, e, b), (n / 2.0, e + s + 1.0)),
                math.lgamma(e) + math.lgamma(s + 1.0) - math.lgamma(e + s + 1.0))
    return (Terms((a, b), (n / 2.0 + 2.0 * s + 1.0,)),
            math.lgamma(n / 2.0) + math.lgamma(2.0 * s + 1.0) - math.lgamma(n / 2.0 + 2.0 * s + 1.0))


# the series tail allowed, relative to the least value of its sum, and the
# most terms it may take: enough for x up to about 0.998 at moderate d
MEAN_TOL = 1e-17
MEAN_TERMS = 10_000


def _mean_series(terms: Terms, x: float, least: float):
    """(sum, relative error) of the series of terms at z = x^2, a weighted
    mean of M over [0, x], or None past MEAN_TERMS terms, reading the
    coefficients and tail factors of terms in place, extending them as
    far as it goes.

    It is cut where a bound on the tail from term k on is at most MEAN_TOL
    of a floor of the sum: the partial sum while no term is negative, else
    least, the least value of M on [0, x].  Past k >= -up and k > -down
    each factor (up+j)/(down+j) of the term ratio is monotone in j, so r =
    z prod max(1, (up+k)/(down+k)) bounds it, and the tail is at most
    |term k| / (1 - r), else inf (Terms.ratios).  The error is the tail
    over the floor plus 64 eps times the sum of the absolute terms over
    the sum."""
    z, total, absolute, power, positive = x * x, 1.0, 1.0, 1.0, True
    coefs, ratios = terms.coefs, terms.ratios
    for k in range(1, MEAN_TERMS + 1):
        if k == len(coefs):
            terms.extend()
        coef, factors = coefs[k], ratios[k]
        positive = positive and coef > 0.0
        if coef == 0.0:  # an up is a non-positive integer: a polynomial
            tail = 0.0
        elif factors is None:
            tail = math.inf
        else:
            r = z
            for factor in factors:
                r *= factor
            tail = abs(coef) * z**k / (1.0 - r) if r < 1.0 else math.inf
        floor = total if positive else least
        if tail <= MEAN_TOL * floor:
            return total, tail / floor + ROUND * absolute / total
        power *= z
        total += coef * power
        absolute += abs(coef) * power
    return None


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
        k)) max(1, (w + k) / (k + 1)) (_mean_series).  The rounding of term k
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

    It takes the floats a, b, e and g = e - a, each rounded once from its
    exact value (not g from the rounded e and a), and every part reads
    them, the Gamma ratios and the series of 15.3.6 alike: near an integer
    m the two terms of 15.3.6 grow as 1/|g - m| and cancel, to rounding
    only where their poles sit at the same g.  So whether a and g are
    integers is decided on these floats, exactly for every integer, and a
    value within half an ulp of one, at which the other branch has a pole,
    is read as that integer.  The near branch is built on first use."""

    def __init__(self, a: float, b: float, e: float, g: float):
        self.a, self.b, self.e, self.g, self.error, self.polynomial = a, b, e, g, None, None
        self.far = [(1.0, 0.0, g, _Series(b + g, e, b + e))]
        if a <= 0.0 and a.is_integer():  # positive terms: 64 eps, plus 8 eps a step
            self.polynomial = _rho_polynomial(int(-a), b, e)
            self.error = ROUND * (1.0 + len(self.polynomial) / 8.0)

    @cached_property
    def near(self) -> list:
        af, bf, ef, gf, cf = self.a, self.b, self.e, self.g, self.b + self.e
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


# ---------------------------------------------------------------------------
# the Euler integral of the closed-form norms
# ---------------------------------------------------------------------------

def _closed_piece(logs, hyp=(1.0, 0.0)) -> Tuple[float, float]:
    """(log, relative error) of the product of e^logs and a 2F1 value given
    with its relative error (Hyp2F1.at): the logs round by 64 eps times the
    sum of their sizes."""
    value, error = hyp
    return sum(logs) + math.log(value), error + ROUND * sum(map(abs, logs))


def _log_beta(x: float, y: float, xy: float) -> list:
    """The logs whose sum is ln B(x, y), x, y > 0 and xy = x + y."""
    return [math.lgamma(x), math.lgamma(y), -math.lgamma(xy)]


def _euler_pieces(X: int, Y: int, S: int, D: int, a: tuple, b: tuple, logs=()) -> list:
    """The closed pieces, each (log, relative error), of e^logs times the
    integral of u^(x-1) (1-u)^(y-1) |a + (b - a) u|^s over (0, 1), from its
    Beta arguments x = X/D, y = Y/D > 0, s = S/D and end coefficients
    a and b, integer (numerator, denominator) pairs
    (quadrature._beta_arguments): |b - a|^s B(x, y) where a or b is 0,
    |a|^s B(x, y) where a = b, else Euler's integral of 2F1 (Hyp2F1), |b|^s
    B(x, y) 2F1(-s, y; x + y; 1 - a/b) where 0 < a/b <= 1 (the roles swap
    where b/a is), and where a b < 0 the sum of its parts on either side of
    the zero u0 = a / (a - b), |b - a|^s u0^(x+s) B(x, s+1) 2F1(1 - y, x; x
    + s + 1; u0) and its mirror with x, y and u0, 1 - u0 swapped (DLMF
    5.12.1 and 15.6.1).  Each of x, y, x + y, s, x + s, y + s, 1 - x, 1 -
    y, s + 1 and b - a is one int/int division, so it is rounded once."""
    (an, ad), (bn, bd), sf = a, b, S / D
    xf, yf, log_beta = X / D, Y / D, _log_beta(X / D, Y / D, (X + Y) / D)
    gap = bn * ad - an * bd
    if gap == 0 or an == 0 or bn == 0:
        return [_closed_piece([*logs, sf * math.log(abs(an / ad if gap == 0 else gap / (ad * bd))), *log_beta])]
    af, bf, gf = an / ad, bn / bd, gap / (ad * bd)
    if (af > 0.0) == (bf > 0.0):
        if abs(af) <= abs(bf):
            lead, hyp = bf, Hyp2F1(-sf, yf, xf, (X + S) / D).at(af / bf, gf / bf)
        else:
            lead, hyp = af, Hyp2F1(-sf, xf, yf, (Y + S) / D).at(bf / af, -gf / af)
        return [_closed_piece([*logs, sf * math.log(abs(lead)), *log_beta], hyp)]
    u0, v0, s1 = -af / gf, bf / gf, (S + D) / D  # v0 = 1 - u0
    log_gap = sf * math.log(abs(gf))
    return [_closed_piece([*logs, log_gap, (xf + sf) * math.log(u0), *_log_beta(xf, sf + 1.0, xf + sf + 1.0)],
                          Hyp2F1((D - Y) / D, xf, s1, (S + Y) / D).at(v0, u0)),
            _closed_piece([*logs, log_gap, (yf + sf) * math.log(v0), *_log_beta(yf, sf + 1.0, yf + sf + 1.0)],
                          Hyp2F1((D - X) / D, yf, s1, (S + X) / D).at(u0, v0))]
