"""The integer exact core against its Fraction formulation (`oracle_exact`).

A seeded corpus of 4,000 lines (N, p, q, r, a, b), each with five values
of c (one random, then c0, c1, -N and c_bar, or random where c_bar does
not exist), gives 20,000 tuples.  The lines are random, equal-slope,
eta = 0, a = -N, b - p within 1/2 of -N, coincident exponents (r = p,
r = q, q = p*), sub-unit q and r, and denominators up to 10^12 with
negative a, b and c.  On every tuple `derive` must equal the oracle's
`DerivedQuantities`, and `classify` and `classify_radial` must give the
oracle's verdict bytes (which hold the derived quantities' `as_dict()`)
and carry equal derived quantities.  On every line `admissible_set` must
give identical bytes, and `CLine.label` the oracle's label at every
mark, every midpoint and a point on each outer ray.
"""

import json
import random
from fractions import Fraction

from ckn.admissible import admissible_set
from ckn.classify import CLine, classify, classify_radial
from ckn.derived import derive
from ckn.params import Params

from oracle_exact import (
    oracle_admissible_set_by_marks,
    oracle_classify,
    oracle_classify_radial,
    oracle_derive,
    oracle_marks,
)

KINDS = ("random", "equal_slopes", "eta_zero", "a_at_mn", "bp_near_mn", "coincident", "sub_unit", "large")
LINES = 4000
BIG = 10**12


def _rational(rng, lo, hi, den_max):
    den = rng.randint(1, den_max)
    return Fraction(rng.randint(lo * den, hi * den), den)


def _line(rng, kind):
    """(n, p, q, r, a, b) of one corpus line."""
    den = BIG if kind == "large" else 6
    n = rng.randint(1, 5)
    p = 1 + _rational(rng, 0, 3, den)
    q = 1 + _rational(rng, 0, 3, den)
    r = 1 + _rational(rng, 0, 4, den)
    a = _rational(rng, -2 * n - 3, n + 2, den)
    b = _rational(rng, -2 * n - 3, n + 3, den)
    if kind == "equal_slopes":
        b = p * (a + n) / q + p - n
    elif kind == "eta_zero":
        a, b = Fraction(-n), p - n
    elif kind == "a_at_mn":
        a = Fraction(-n)
    elif kind == "bp_near_mn":
        b = p - n + _rational(rng, -1, 1, den) / 2
    elif kind == "coincident":
        p_star = n * p / (n - p) if p < n else None
        r = rng.choice([x for x in (p, q, p_star) if x is not None])
        if p_star is not None and rng.random() < 0.5:
            q = p_star
    elif kind == "sub_unit":
        q = _rational(rng, 0, 1, den) or Fraction(1, 7)
        r = _rational(rng, 0, 1, den) or Fraction(1, 5)
    elif kind == "large":
        a, b = -abs(a) - Fraction(1, BIG), -abs(b) - Fraction(1, BIG)
    return n, p, q, r, a, b


def _corpus(seed=2026):
    """(line, its five tuples) for every line of the corpus; the line's c is 0."""
    rng = random.Random(seed)
    for k in range(LINES):
        kind = KINDS[k % len(KINDS)]
        n, p, q, r, a, b = _line(rng, kind)
        d = oracle_derive(Params(n, p, q, r, a, b, Fraction(0)))
        cs = [_rational(rng, -2 * n - 5, n + 3, BIG if kind == "large" else 6)]
        if kind == "large":
            cs[0] = -abs(cs[0]) - Fraction(1, BIG)
        cs += [d.c0, d.c1, Fraction(-n), d.c_bar if d.c_bar is not None else cs[0] / 3]
        yield Params(n, p, q, r, a, b, Fraction(0)), [Params(n, p, q, r, a, b, c) for c in cs]


def _outcome(fn, *args):
    """The JSON bytes of fn(*args).as_dict(), or the error it raises, and
    the result itself (None on an error)."""
    try:
        result = fn(*args)
    except ValueError as exc:
        return f"ValueError: {exc}", None
    return json.dumps(result.as_dict()), result


def _check_labels(line_params, d):
    marks, oracle_line = oracle_marks(line_params, d)
    cs = [c for c, _ in marks]
    points = [cs[0] - 1, *cs, *((x + y) / 2 for x, y in zip(cs, cs[1:])), cs[-1] + 1]
    line = CLine.of(line_params)
    for c in points:
        want = oracle_line.label(c, d.theta_of(c) if oracle_line.distinct else None)
        assert line.label(c.as_integer_ratio()) is want, (line_params, c, want)


def test_integer_core_matches_fraction_oracle():
    tuples = 0
    for line_params, points in _corpus():
        for params in points:
            tuples += 1
            d = oracle_derive(params)
            assert derive(params) == d, params
            got, verdict = _outcome(classify, params)
            want, _ = _outcome(oracle_classify, params, d)
            assert got == want and (verdict is None or verdict.derived == d), params
            # every corpus tuple is valid for the radial classifier
            got, verdict = _outcome(classify_radial, params)
            want, _ = _outcome(oracle_classify_radial, params, d)
            assert got == want and verdict.derived == d, params
        d = oracle_derive(line_params)
        got, _ = _outcome(admissible_set, line_params)
        want, _ = _outcome(oracle_admissible_set_by_marks, line_params, d)
        assert got == want, line_params
        if not want.startswith("ValueError"):
            _check_labels(line_params, d)
    assert tuples >= 20000
