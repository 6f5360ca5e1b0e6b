"""Seeded input sets for the four workloads.

Everything here is made from `random.Random(seed)` and exact Fractions, so
the same seed gives the same inputs on every machine.  The generators are
the benchmark's own: editing the test suite's helpers does not move them.

Formulas written out here rather than taken from the program:

    c0 = r (a + N)/q - N          c1 = r (b - p + N)/p - N
    theta_c = (c - c0)/(c1 - c0)  (slopes differ, i.e. c0 != c1)
    Kelvin reflection (a, b, c) -> (-2N - a, 2p - 2N - b, -2N - c)

The classifier is used only to sort random tuples into embedding and
non-embedding instances (and by failure reason); every output it then
produces is checked in `checks.py`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction as F
from typing import List, Tuple

# ---------------------------------------------------------------------------
# exact helpers
# ---------------------------------------------------------------------------


def rational(rng: random.Random, lo: int, hi: int, den_max: int = 6) -> F:
    den = rng.randint(1, den_max)
    return F(rng.randint(lo * den, hi * den), den)


def c0_of(t) -> F:
    return t.r * (t.a + t.n) / t.q - t.n


def c1_of(t) -> F:
    return t.r * (t.b - t.p + t.n) / t.p - t.n


def theta_c_of(t) -> F:
    c0, c1 = c0_of(t), c1_of(t)
    return (t.c - c0) / (c1 - c0)


def p_star_of(t):
    """Sobolev exponent N p/(N - p), or None (infinite) for p >= N."""
    return None if t.p >= t.n else t.n * t.p / (t.n - t.p)


def kelvin(Params, t):
    n2 = 2 * t.n
    return Params(t.n, t.p, t.q, t.r, -n2 - t.a, 2 * t.p - n2 - t.b, -n2 - t.c)


def theta_defect(t) -> F:
    """-N ((1/r - 1/q) - theta_c (1/p - 1/N - 1/q)): how far the interior
    theta-condition fails (positive when it fails)."""
    s = 1 / t.p - F(1, t.n) - 1 / t.q
    return -t.n * ((1 / t.r - 1 / t.q) - theta_c_of(t) * s)


def range_excess(t) -> F:
    """N (1/max{p*, q} - 1/r): how far r lies beyond the admissible range."""
    p_star = p_star_of(t)
    top = t.q if p_star is None else max(p_star, t.q)
    return t.n * (1 / top - 1 / t.r)


def exponents(rng: random.Random) -> Tuple[F, F, F]:
    return 1 + rational(rng, 0, 3), 1 + rational(rng, 0, 3), 1 + rational(rng, 0, 4)


def weighted_tuple(Params, rng: random.Random, n: int):
    """Random full-space tuple in dimension n (p, q, r >= 1)."""
    p, q, r = exponents(rng)
    a = rational(rng, -2 * n - 3, n + 2)
    b = rational(rng, -2 * n - 3, n + 3)
    c = rational(rng, -2 * n - 5, n + 3)
    return Params(n, p, q, r, a, b, c)


# ---------------------------------------------------------------------------
# sweep-c: dense c-axes over (n, p, q, r) with a = b = 0
# ---------------------------------------------------------------------------

SWEEP_ROWS = 400           # rows per sweep call
SWEEP_DEN = 32             # c-axis step 1/32
SWEEP_DRAWS = 4            # calls per (n, p-class) group


@dataclass(frozen=True)
class SweepCall:
    n: int
    p: F
    q: F
    r: F
    start: F
    step: F
    rows: int

    def spec(self) -> dict:
        fixed = {"n": str(self.n), "p": str(self.p), "q": str(self.q),
                 "r": str(self.r), "a": "0", "b": "0"}
        stop = self.start + (self.rows - 1) * self.step
        axis = {"param": "c", "start": str(self.start), "stop": str(stop),
                "step": str(self.step)}
        return {"fixed": fixed, "axes": [axis], "format": "csv"}

    def c_values(self) -> List[F]:
        return [self.start + k * self.step for k in range(self.rows)]


def _sweep_p(rng: random.Random, n: int, p_class: str) -> F:
    if p_class == "at":
        return F(n)
    den = rng.randint(1, 4)
    if p_class == "below":  # 1 <= p < n
        return 1 + F(rng.randint(0, (n - 1) * den - 1), den)
    return n + F(rng.randint(1, 2 * den), den)  # n < p <= n + 2


def sweep_groups() -> List[Tuple[int, str]]:
    """(n, p-class) pairs: n = 1..5 with p below, at and above n (no p < 1)."""
    return [(n, cls) for n in range(1, 6) for cls in ("below", "at", "above")
            if not (n == 1 and cls == "below")]


def sweep_calls(seed: int) -> List[SweepCall]:
    rng = random.Random(seed)
    step = F(1, SWEEP_DEN)
    calls = []
    for n, p_class in sweep_groups():
        for _ in range(SWEEP_DRAWS):
            p = _sweep_p(rng, n, p_class)
            q = 1 + rational(rng, 0, 3, den_max=4)
            r = 1 + rational(rng, 0, 4, den_max=4)
            c0 = r * n / q - n
            c1 = r * (n - p) / p - n
            marks = (c0, c1, F(-n))
            mid = (min(marks) + max(marks)) / 2
            start = F(round(mid * SWEEP_DEN) - (SWEEP_ROWS - 1) // 2, SWEEP_DEN)
            calls.append(SweepCall(n, p, q, r, start, step, SWEEP_ROWS))
    return calls


def warmup_sweep_call() -> SweepCall:
    return SweepCall(3, F(2), F(2), F(2), F(-6), F(1, SWEEP_DEN), SWEEP_ROWS)


# ---------------------------------------------------------------------------
# exact-random: batches of weighted tuples
# ---------------------------------------------------------------------------

BATCH = 40
BATCHES = 100
# per batch: interior random, c on c0, c on c1, equal slopes, a = b = 0
BATCH_MIX = (("random", 24), ("at_c0", 4), ("at_c1", 4), ("equal_slopes", 4),
             ("unweighted", 4))


def _exact_tuple(Params, rng: random.Random, kind: str):
    n = rng.randint(1, 5)
    while True:
        t = weighted_tuple(Params, rng, n)
        if kind == "unweighted":
            return Params(n, t.p, t.q, t.r, F(0), F(0), t.c)
        if kind == "equal_slopes":
            b = t.p * (t.a + n) / t.q + t.p - n  # (a+N)/q == (b-p+N)/p
            c = t.c
            if rng.random() < 0.5:
                c = t.r * (t.a + n) / t.q - n
            return Params(n, t.p, t.q, t.r, t.a, b, c)
        if c0_of(t) == c1_of(t):
            continue
        if kind == "at_c0":
            return Params(n, t.p, t.q, t.r, t.a, t.b, c0_of(t))
        if kind == "at_c1":
            return Params(n, t.p, t.q, t.r, t.a, t.b, c1_of(t))
        return t


def exact_batches(Params, seed: int, batches: int = BATCHES) -> List[list]:
    rng = random.Random(seed)
    out = []
    for _ in range(batches):
        batch = [_exact_tuple(Params, rng, kind)
                 for kind, count in BATCH_MIX for _ in range(count)]
        rng.shuffle(batch)
        out.append(batch)
    return out


# ---------------------------------------------------------------------------
# verify: random embedding instances at theta = theta_c
# ---------------------------------------------------------------------------

# random instances per dimension n = 1..5, by band of p (a verify call's
# cost falls as p grows, so fixed counts per band keep the seeds alike)
VERIFY_P_BANDS = ((F(1), F(2), 4), (F(2), F(3), 3), (F(3), F(5), 3))

# One fixed instance runs with the first-harmonic family (default_w0_family)
# so that the first-harmonic quadrature path is measured.  It is fixed
# because that path's cost swings by 40x between random instances.
VERIFY_W0 = (3, F(2), F(2), F(4), F(0), F(0), F(-1))

# D1: PowerTail.deriv_power_at_inf is wrong for beta = 0; member 6 of the
# default family is PowerTail(-98/23, 0) here and verify reports a false
# divergence.  Fails every time; kept and counted as failed.
D1 = (3, F(23, 6), F(2), F(5, 2), F(-6), F(-47, 6), F(-22, 3))

# The default family's PowerTail members have beta = s_hi + 1, s_hi + 2 and
# s_hi + 3/2, with s_hi the largest of the three weight slopes.  Random
# instances that give one of them beta = 0 would hit D1 on some seeds only,
# so they are left out of the random part.
_D1_SLOPES = (F(-1), F(-2), F(-3, 2))

VERIFY_WARMUP = (3, F(2), F(2), F(2), F(0), F(0), F(-1))


def s_hi_of(t) -> F:
    return max((t.a + t.n) / t.q, (t.b - t.p + t.n) / t.p, (t.c + t.n) / t.r)


@dataclass(frozen=True)
class VerifyCase:
    params: object
    theta: F
    first_harmonic: bool


def verify_cases(Params, classify, seed: int) -> List[VerifyCase]:
    rng = random.Random(seed)
    cases = []
    for n in range(1, 6):
        for lo, hi, count in VERIFY_P_BANDS:
            found = 0
            while found < count:
                t = weighted_tuple(Params, rng, n)
                if not lo <= t.p < hi or c0_of(t) == c1_of(t) or s_hi_of(t) in _D1_SLOPES:
                    continue
                if not classify(t).embeds:
                    continue
                cases.append(VerifyCase(t, theta_c_of(t), False))
                found += 1
    w0 = Params(*VERIFY_W0)
    cases.append(VerifyCase(w0, theta_c_of(w0), True))
    rng.shuffle(cases)
    d1 = Params(*D1)
    cases.append(VerifyCase(d1, theta_c_of(d1), False))
    return cases


# ---------------------------------------------------------------------------
# falsify: random non-embedding instances, stratified by reason
# ---------------------------------------------------------------------------

# Counts per input set.  ThetaConditionFails is split by its defect: the
# witness walk shortens as the defect grows (about 20 members below 1/4,
# 4 above 1); the longest walks get the most members so that the tail
# percentile falls among them.  The two longest bands are split again by
# dimension, because a member costs most at n = 1 and the slowest walks are
# the n = 1 ones.  ROutOfRange is split by whether c lies strictly inside
# the hull of c0, c1 (the witness walks its family) or not (the first
# member already crosses).
FALSIFY_MIX = (("COutsideHull", 120), ("COutsideOppositeSideWindow", 30),
               ("ThetaConditionFails/0.1/n=1", 6), ("ThetaConditionFails/0.1/n>1", 34),
               ("ThetaConditionFails/0.25/n=1", 3), ("ThetaConditionFails/0.25/n>1", 17),
               ("ThetaConditionFails/0.5", 10), ("ThetaConditionFails/1", 6),
               ("ROutOfRange/walk", 20), ("ROutOfRange/first", 10))
_THETA_BANDS = (F(1), F(1, 2), F(1, 4), F(1, 10))

# Near-critical instances make falsify miss (D5) or raise on some seeds
# only, so random instances keep a margin from the critical boundary: a
# theta defect of at least 1/10 (the lowest band above) and a range excess
# of at least 1/4.
RANGE_EXCESS_MIN = F(1, 4)

# One fixture per failure reason, so every witness family is exercised.
REASON_FIXTURES = (
    (3, F(2), F(2), F(7), F(0), F(0), F(0)),
    (3, F(2), F(2), F(2), F(0), F(0), F(-3)),
    (3, F(2), F(2), F(2), F(0), F(-2), F(-3)),
    (3, F(2), F(2), F(4), F(0), F(0), F(3)),
    (3, F(2), F(2), F(1), F(-4), F(-51, 50), F(-301, 100)),
    (3, F(2), F(3), F(1), F(-3, 2), F(0), F(-5, 2)),
    (2, F(1), F(3), F(1), F(-2), F(-1), F(-2)),
    (3, F(1), F(8), F(8), F(0), F(0), F(39, 4)),
)

# D5: falsify walks all 41 members without reaching the threshold.
D5 = (
    (4, F(13, 6), F(4), F(5), F(-29, 6), F(-9, 2), F(-8)),
    (4, F(11, 3), F(1), F(2), F(5), F(-7), F(3)),
)

FALSIFY_WARMUP = (3, F(2), F(2), F(7), F(0), F(0), F(0))


@dataclass(frozen=True)
class FalsifyCase:
    params: object
    stratum: str


def _stratum(t, reason: str):
    if reason == "ThetaConditionFails":
        defect = theta_defect(t)
        band = next((b for b in _THETA_BANDS if defect >= b), None)
        if band is None:
            return None
        if band < F(1, 2):
            return f"{reason}/{float(band):g}/{'n=1' if t.n == 1 else 'n>1'}"
        return f"{reason}/{float(band):g}"
    if reason == "ROutOfRange":
        if range_excess(t) < RANGE_EXCESS_MIN:
            return None
        lo, hi = sorted((c0_of(t), c1_of(t)))
        return "ROutOfRange/walk" if lo < t.c < hi else "ROutOfRange/first"
    return reason


def falsify_cases(Params, classify, seed: int) -> List[FalsifyCase]:
    rng = random.Random(seed)
    wanted = dict(FALSIFY_MIX)
    cases = []
    while any(wanted.values()):
        t = weighted_tuple(Params, rng, rng.randint(1, 5))
        verdict = classify(t)
        if verdict.embeds:
            continue
        stratum = _stratum(t, verdict.reason.value)
        if wanted.get(stratum, 0) > 0:
            wanted[stratum] -= 1
            cases.append(FalsifyCase(t, stratum))
    cases += [FalsifyCase(Params(*fx), "fixture") for fx in REASON_FIXTURES]
    rng.shuffle(cases)
    cases += [FalsifyCase(Params(*d5), "D5") for d5 in D5]
    return cases
