"""The closed-form norm plans of `PowerTail`s and `PowerBump`s in Fractions,
kept as the reference for the integer (numerator, denominator) path of
`quadrature._beta_arguments` and `hypergeometric._euler_pieces`.

  * `beta_arguments`: the exact Beta arguments x, y and end coefficients
    a, b of a norm, from Fraction d and s.
  * `euler_pieces`: its closed pieces, each (log, relative error), with
    every float handed to lgamma or `Hyp2F1` rounded once from its exact
    Fraction.
  * `closed_reference`: (x, y, a, b, diverges at 0, diverges at infinity,
    pieces) of a `PowerTail`, `PowerBump` or inverted `PowerBump` read as
    values or as derivatives.

The pieces are products of logs and 2F1 values
(`hypergeometric._closed_piece`), so two paths that round every argument
alike give the same floats, bit for bit.
"""

from __future__ import annotations

import math
from fractions import Fraction

from ckn.hypergeometric import Hyp2F1, _closed_piece, _log_beta
from ckn.profiles import InvertedProfile, PowerBump


def exact_hyp2f1(a: Fraction, b: Fraction, e: Fraction) -> Hyp2F1:
    """Hyp2F1 of exact a, b and e: each, and g = e - a, rounded once."""
    return Hyp2F1(float(a), float(b), float(e), float(e - a))


def beta_arguments(base, d: Fraction, s: Fraction, n: int, gradient: bool) -> tuple:
    """(x, y, a, b): the integral of t^(d+n-1) |F|^s over (0, inf), F = f
    or, for gradient, f', is that of euler_pieces, times 1/g for a
    PowerBump.  For t^-alpha (1+t)^(alpha-beta), alpha != beta, x = d + n -
    alpha s, less s for f', and y = (beta - alpha) s - x; for t^-alpha (1 -
    t^g)^m, x = (d + n - alpha s) / g, less s/g for f', and y = m s + 1,
    less s for f'.  Values read a = b = 1, and f' a = alpha and b = beta,
    resp. mg, counting the u^s or (1-u)^s of an end coefficient 0 in x or
    y.  It converges iff x, y > 0."""
    if isinstance(base, PowerBump):
        ends = base.alpha, base.m * base.g
        x, y = (d + n - (base.alpha + gradient) * s) / base.g, (base.m - gradient) * s + 1
    else:
        ends, x = (base.alpha, base.beta), d + n - (base.alpha + gradient) * s
        y = (base.beta - base.alpha) * s - x
    if not gradient:
        return x, y, Fraction(1), Fraction(1)
    return x + s * (ends[0] == 0), y + s * (ends[1] == 0), *ends


def euler_pieces(x: Fraction, y: Fraction, a: Fraction, b: Fraction, s: Fraction, logs=()) -> list:
    """The closed pieces, each (log, relative error), of e^logs times the
    integral of u^(x-1) (1-u)^(y-1) |a + (b - a) u|^s over (0, 1), x, y >
    0: |b - a|^s B(x, y) where a or b is 0, |a|^s B(x, y) where a = b, else
    |b|^s B(x, y) 2F1(-s, y; x + y; 1 - a/b) where 0 < a/b <= 1 (the roles
    swap where b/a is), and where a b < 0 the sum of its parts on either
    side of the zero u0 = a / (a - b), |b - a|^s u0^(x+s) B(x, s+1) 2F1(1 -
    y, x; x + s + 1; u0) and its mirror."""
    p = float(s)
    xf, yf, log_beta = float(x), float(y), _log_beta(float(x), float(y), float(x + y))
    if a == b or a == 0 or b == 0:
        return [_closed_piece([*logs, p * math.log(abs(float(a if a == b else a - b))), *log_beta])]
    af, bf, gf = float(a), float(b), float(b - a)
    if (af > 0.0) == (bf > 0.0):
        if abs(af) <= abs(bf):
            lead, hyp = bf, exact_hyp2f1(-s, y, x).at(af / bf, gf / bf)
        else:
            lead, hyp = af, exact_hyp2f1(-s, x, y).at(bf / af, -gf / af)
        return [_closed_piece([*logs, p * math.log(abs(lead)), *log_beta], hyp)]
    u0, v0 = -af / gf, bf / gf
    log_gap = p * math.log(abs(gf))
    return [_closed_piece([*logs, log_gap, (xf + p) * math.log(u0), *_log_beta(xf, p + 1.0, xf + p + 1.0)],
                          exact_hyp2f1(1 - y, x, s + 1).at(v0, u0)),
            _closed_piece([*logs, log_gap, (yf + p) * math.log(v0), *_log_beta(yf, p + 1.0, yf + p + 1.0)],
                          exact_hyp2f1(1 - x, y, s + 1).at(u0, v0))]


def closed_reference(base, d, s, n: int, gradient: bool) -> tuple:
    """(x, y, a, b, diverges at 0, diverges at infinity, pieces) of the
    norm || F ||_{d,s} on R^n, F = f or, for gradient, f', of a PowerTail,
    PowerBump or inverted PowerBump f.  t -> 1/t takes t^(d+n-1) dt to
    t^(-d-n-1) dt, and f' gains a factor t^-2, so the inversion reads the
    bump at -d - 2n, plus 2s for f', with the ends swapped."""
    s, d = Fraction(s), Fraction(d)
    inverted = isinstance(base, InvertedProfile)
    inner = base.inner if inverted else base
    if inverted:
        d = -d - 2 * n + 2 * s * gradient
    x, y, a, b = beta_arguments(inner, d, s, n, gradient)
    at_zero, at_inf = (y <= 0, x <= 0) if inverted else (x <= 0, y <= 0)
    pieces = []
    if x > 0 < y:
        pieces = euler_pieces(x, y, a, b, s, [-math.log(inner.g)] if isinstance(inner, PowerBump) else [])
    return x, y, a, b, at_zero, at_inf, pieces
