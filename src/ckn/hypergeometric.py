"""Hypergeometric series with stated errors, for the closed forms of the norms.

  * `Terms`: the term recurrence of pFq, p = q + 1, and a bound on the tail
    of the series at any z.
  * `Hypergeometric`: 2F1(a, b; c; 1 - rho) on arrays of rho, the angular
    factor of first-harmonic gradients.
  * `hyp2f1`: one 2F1 value of Euler's integral, read from rho, with its
    relative error, for the gradients of `PowerTail`s.

Each error is a series tail plus the rounding of its sums, 64 eps times
the sum of the absolute terms (`ROUND`), more for long recurrences.
"""

from __future__ import annotations

import math
from fractions import Fraction
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


def _gamma_ratio(up, down) -> float:
    """The product of Gamma over up divided by that over down, none of them
    a pole, through lgamma and the signs of Gamma at negative points."""
    sign = math.prod(-1.0 if x < 0 and math.floor(x) % 2 else 1.0 for x in (*up, *down))
    return sign * math.exp(sum(map(math.lgamma, up)) - sum(map(math.lgamma, down)))


def _series(a, b, c, scale: float = 1.0) -> list:
    """The coefficients of scale 2F1(a, b; c; x): all of a polynomial, else
    up to a term from which the tail at x = 1/2 is at most 1e-17 of the
    sum of the absolute terms before it."""
    terms, total, k = Terms((a, b), (c,), scale), abs(scale), 1
    while terms[k] != 0.0 and terms.tail(k, 0.5) > 1e-17 * total:
        total += abs(terms[k]) * 0.5**k
        k += 1
    return terms.coefs[:k]


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


def _rounding(count: int) -> float:
    """A bound on the relative rounding of a term of a series made by count
    steps of a recurrence, each of at most 8 roundings and one rounded
    argument, and summed: 64 eps, plus 8 eps a step."""
    return ROUND * (1.0 + count / 8.0)


class Hypergeometric:
    """2F1(a, b; c; 1 - rho) for 0 <= rho <= 1, g = c - a - b > 0 and c > b
    > 0 > a: a polynomial in rho where a is a non-positive integer
    (_rho_polynomial), else its series in 1 - rho where rho >= 1/2, else
    head(rho) + rho^g (rest(rho) + log(rho) log_part(rho)), the connection
    formula of A&S 15.3.6, or of 15.3.11 for an integer g (the finite head
    and the digamma weights of rest).  rho = 0 reads rho^g log(rho) as 0.

    Near an integer g the two terms of 15.3.6 grow as 1/|g - m| and cancel:
    error, 64 eps times their absolute sums at rho = 1/2 over head(0), the
    least value, bounds the relative error (33 eps times it at most against
    30-digit values, for n up to 24 and p near 1, 3, 5 and 7).  The
    polynomial's terms are positive: its error is their rounding."""

    def __init__(self, a: float, b: float, c: float):
        self.head = None
        if a <= 0 and a == int(a):
            self.polynomial = _rho_polynomial(int(-a), b, c - b)
            self.error = _rounding(len(self.polynomial))
            return
        self.near = _series(a, b, c)
        self.g = g = c - a - b
        if g != int(g):
            self.head = _series(a, b, 1 - g, _gamma_ratio([c, g], [c - a, c - b]))
            self.rest = _series(c - a, c - b, 1 + g, _gamma_ratio([c, -g], [a, b]))
            self.log_part = [0.0]
            terms = sum(abs(x) * 0.5**k for k, x in enumerate(self.head)) + 0.5**g * sum(
                abs(x) * 0.5**k for k, x in enumerate(self.rest))
            self.error = ROUND * terms / self.head[0]
            return
        m, self.error = int(g), 0.0
        head = Terms((a, b), (1 - m,), _gamma_ratio([m, c], [c - a, c - b]))
        self.head = [head[n] for n in range(m)]
        self.log_part = _series(a + m, b + m, m + 1, -(-1) ** m * _gamma_ratio([c], [a, b, m + 1]))
        self.rest = [coef * (_digamma(a + n + m) + _digamma(b + n + m) - _digamma(n + 1) - _digamma(n + m + 1))
                     for n, coef in enumerate(self.log_part)]

    def __call__(self, rho: np.ndarray) -> np.ndarray:
        polyval = np.polynomial.polynomial.polyval  # loaded on first use
        if self.head is None:
            return polyval(rho, self.polynomial)
        out, near = np.empty_like(rho), rho >= 0.5
        out[near] = polyval(1.0 - rho[near], self.near)
        rho = rho[~near]
        tail = polyval(rho, self.rest) + np.log(np.where(rho > 0.0, rho, 1.0)) * polyval(rho, self.log_part)
        out[~near] = polyval(rho, self.head) + rho**self.g * tail
        return out


# below it 2F1(a, b; c; 1 - rho) is read from the connection formulas in
# rho, whose two terms cancel ever more as rho grows, and at or above it
# from a series of positive terms in 1 - rho, which grows ever longer as
# rho falls
RHO_CONNECT = 0.1


def _sum_2f1(a: float, b: float, c: float, z: float) -> Tuple[float, float, float]:
    """(sum, rounding, tail) of 2F1(a, b; c; z) for 0 <= z < 1 and c not a
    non-positive integer, its terms by the recurrence in numpy runs of about
    as many as the sum needs, cut at the first term k from which the tail
    bound of Terms.tail, |term k| r / (1 - r), is at most 1e-17 of the
    absolute sum: r is z times the factors (a + k) / (c + k) and (b + k) /
    (k + 1) of the next term ratio, each at least 1, once each is monotone.
    The rounding is that of each term (_rounding) times its size, summed."""
    if z == 0.0:
        return 1.0, ROUND, 0.0
    first = max(1.0, -a, -b, math.floor(-c) + 1.0)  # each factor of the term ratio is monotone past it
    run = 16 + int((40.0 + 2.0 * abs(a + b - c)) / -math.log(z))
    total, absolute, rounding, last = 1.0, 1.0, 8.0, 1.0
    for start in range(1, _MAX_TERMS, run):
        k = np.arange(start - 1.0, start + run)
        up, down = (a + k) / (c + k), (b + k) / (k + 1.0)
        terms = last * np.cumprod(up[:-1] * down[:-1] * z)
        sizes = np.abs(terms)
        running = absolute + np.cumsum(sizes)
        r = z * np.maximum(up[1:], 1.0) * np.maximum(down[1:], 1.0)
        done = np.flatnonzero((sizes * r <= 1e-17 * running * (1.0 - r)) & (r < 1.0) & (k[1:] >= first))
        stop = int(done[0]) + 1 if done.size else run
        total += float(terms[:stop].sum())
        rounding += float(sizes[:stop] @ (8.0 + k[1:stop + 1]))
        if done.size:
            return total, ROUND / 8.0 * rounding, float(sizes[stop - 1] * r[stop - 1] / (1.0 - r[stop - 1]))
        absolute, last = float(running[-1]), float(terms[-1])
    raise QuadratureError(f"2F1({a:.6g}, {b:.6g}; {c:.6g}; {z:.6g}) needs more than {_MAX_TERMS} terms")


def _sum_log_2f1(up: Tuple[float, float], m: int, rho: float) -> Tuple[float, float, float]:
    """(sum, rounding, tail) of the log series of A&S 15.3.11, the sum over
    n of t_n (ln rho + A_n + B_n), t_n the terms of 2F1(a + m, b + m; m +
    1; rho) and A_n = psi(a + m + n) - psi(n + 1) and B_n = psi(b + m + n)
    - psi(m + n + 1), for 0 < rho < 1/2 and up = (a + m, b + m) > 0.  Each
    digamma difference shrinks in size as n grows, so |ln rho| + |A_n| +
    |B_n| bounds the weights past n, and the sum is cut as in _sum_2f1."""
    down, log_rho = m + 1.0, math.log(rho)
    da, db = _digamma(up[0]) - _digamma(1.0), _digamma(up[1]) - _digamma(down)
    term, total = 1.0, log_rho + da + db
    absolute = abs(log_rho) + abs(da) + abs(db)
    rounding = 8.0 * absolute
    for k in range(1, _MAX_TERMS):
        term *= (up[0] + k - 1.0) * (up[1] + k - 1.0) / ((down + k - 1.0) * k) * rho
        da += 1.0 / (up[0] + k - 1.0) - 1.0 / k
        db += 1.0 / (up[1] + k - 1.0) - 1.0 / (down + k - 1.0)
        weight = abs(log_rho) + abs(da) + abs(db)
        total += term * (log_rho + da + db)
        absolute += term * weight
        rounding += term * weight * (8.0 + k)
        r = rho * max(1.0, (up[0] + k) / (down + k)) * max(1.0, (up[1] + k) / (k + 1.0))
        if r < 1.0 and term * weight * r <= 1e-17 * absolute * (1.0 - r):
            return total, ROUND / 8.0 * rounding, term * weight * r / (1.0 - r)
    raise QuadratureError(f"the log series of 2F1 at {rho:.6g} needs more than {_MAX_TERMS} terms")


def hyp2f1(a: Fraction, b: Fraction, e: Fraction, rho: float, z: float) -> Tuple[float, float]:
    """(2F1(a, b; c; z), its relative error) for c = b + e, b, e > 0, g = e
    - a > 0, 0 <= rho <= 1 and z = 1 - rho, each rounded once: Euler's
    integral of (1 - z v)^-a over the Beta(b, e) weight (DLMF 15.6.1), so
    a positive value.  It is

      * a polynomial in rho where a is a non-positive integer
        (_rho_polynomial);
      * else rho^g 2F1(c - a, e; c; z), a series of positive terms (Euler's
        transformation, DLMF 15.8.1), where rho >= RHO_CONNECT;
      * else, in rho so that a tiny rho keeps its digits, A&S 15.3.6, G1
        2F1(a, b; 1 - g; rho) + rho^g G2 2F1(c - a, e; 1 + g; rho) with
        Gamma ratios G1 and G2, or 15.3.11 where g is an integer.

    a, b and e are exact, so g and the arguments of the Gamma functions
    lose no digits to cancellation, and whether a and g are integers is
    decided exactly.  The error is the tails of the series plus their
    rounding (_sum_2f1), and 64 eps times the size of each log (a power of
    rho, a Gamma ratio's log Gammas), over the value."""
    af, bf, ef = float(a), float(b), float(e)
    cf, gf = bf + ef, ef - af
    if a.denominator == 1 and af <= 0.0:
        coefs, value = _rho_polynomial(int(-a), bf, ef), 0.0
        for coef in reversed(coefs):
            value = value * rho + coef
        return value, _rounding(len(coefs))
    if rho >= RHO_CONNECT:
        total, rounding, tail = _sum_2f1(bf + gf, ef, cf, z)
        log_power = gf * math.log(rho)
        return math.exp(log_power) * total, (tail + rounding) / total + ROUND * (1.0 + abs(log_power))
    g = e - a
    if g.denominator != 1:
        parts = [(1.0, [cf, gf], [bf + gf, ef], 0.0, _sum_2f1(af, bf, float(1 - g), rho))]
        if rho > 0.0:  # rho^g is 0 at rho = 0
            parts.append((1.0, [cf, -gf], [af, bf], gf * math.log(rho), _sum_2f1(bf + gf, ef, float(1 + g), rho)))
    else:
        m = int(g)
        head, rounding, term = 1.0, 8.0, 1.0
        for k in range(1, m):  # the finite head, (1 - m)_k != 0
            term *= (af + k - 1.0) * (bf + k - 1.0) / ((k - m) * k) * rho
            head += term
            rounding += abs(term) * (8.0 + k)
        parts = [(1.0, [float(m), cf], [ef, bf + gf], 0.0, (head, ROUND / 8.0 * rounding, 0.0))]
        if rho > 0.0:  # rho^m ln(rho) is 0 at rho = 0
            parts.append((-(-1.0) ** m, [cf], [af, bf, m + 1.0], m * math.log(rho),
                          _sum_log_2f1((ef, bf + gf), m, rho)))
    value, error = 0.0, 0.0
    for sign, up, down, log_power, (total, rounding, tail) in parts:
        scale = sign * math.exp(log_power) * _gamma_ratio(up, down)
        logs = abs(log_power) + sum(abs(math.lgamma(v)) for v in (*up, *down))
        value += scale * total
        error += abs(scale) * (tail + rounding + ROUND * abs(total) * logs)
    return value, error / value
