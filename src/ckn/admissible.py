"""Exact admissible intervals in c and sets of valid multiplicative exponents.

`admissible_set` computes, for fixed (N, p, q, r, a, b), the exact set of
weights c for which the embedding holds.  It asks the classifier's c-line
labeller (`classify.CLine`) only: the label changes only at the marks c0,
c1, -N and c_bar, so the marks inside the hull and one midpoint between
neighbouring marks, all integer (num, den) pairs, decide the whole set;
Fractions are built only for the returned endpoints and points.  The
embedding pieces form at most one interval (an open case-I or case-II
piece cut by the theta half-line, with adjacent admissible marks
attached); an admissible mark not on it is an isolated point.

`theta_set` computes the set of exponents theta for which the
multiplicative inequality

    ||u||_{c,r} <= C ||grad u||_{b,p}^theta ||u||_{a,q}^(1-theta)

is known to hold on an embedding instance.  With distinct slopes the
exponent is forced: theta = theta_c.  With equal nonzero slopes the known
set is {theta_low} (r < p), {1} (max{p,q} < r <= p*), or the full range
[theta_low, 1] when p <= r <= min{p*, max{p,q}}, where
theta_low = p(r-q)/(r(p-q)) for p != q and 0 for p = q = r.  With eta = 0
the embedding is the trivial identity at r = q (theta = 0), while for
q < r <= p* no exponent works at all in dimension >= 2; in dimension one
theta_breve does.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cmp_to_key
from typing import Optional, Tuple

from .classify import Case, CLine, Decision, classify
from .params import Params, validate_full_space
from .rational import compare, ext_le, format_rational


@dataclass(frozen=True)
class Interval:
    lo: Fraction
    lo_included: bool
    hi: Fraction
    hi_included: bool

    def contains(self, c: Fraction) -> bool:
        if c == self.lo:
            return self.lo_included or (self.lo == self.hi and self.hi_included)
        if c == self.hi:
            return self.hi_included
        return self.lo < c < self.hi

    def as_dict(self) -> dict:
        return {
            "lo": format_rational(self.lo),
            "lo_included": self.lo_included,
            "hi": format_rational(self.hi),
            "hi_included": self.hi_included,
        }


@dataclass(frozen=True)
class AdmissibleSet:
    interval: Optional[Interval]
    isolated_points: Tuple[Fraction, ...]

    @property
    def is_empty(self) -> bool:
        return self.interval is None and not self.isolated_points

    def contains(self, c: Fraction) -> bool:
        if self.interval is not None and self.interval.contains(c):
            return True
        return c in self.isolated_points

    def lower_endpoint(self) -> Optional[Tuple[Fraction, bool]]:
        """Least admissible value with its inclusion flag (None if empty)."""
        candidates = []
        if self.interval is not None:
            candidates.append((self.interval.lo, self.interval.lo_included))
        for point in self.isolated_points:
            candidates.append((point, True))
        if not candidates:
            return None
        return min(candidates, key=lambda t: t[0])

    def upper_endpoint(self) -> Optional[Tuple[Fraction, bool]]:
        candidates = []
        if self.interval is not None:
            candidates.append((self.interval.hi, self.interval.hi_included))
        for point in self.isolated_points:
            candidates.append((point, True))
        if not candidates:
            return None
        return max(candidates, key=lambda t: t[0])

    def as_dict(self) -> dict:
        return {
            "interval": self.interval.as_dict() if self.interval else None,
            "isolated_points": [format_rational(x) for x in self.isolated_points],
        }


_EMPTY = AdmissibleSet(None, ())


def admissible_set(params_without_c: Params) -> AdmissibleSet:
    """Exact set {c : the embedding holds} at the tuple's (N, p, q, r, a, b).

    The c field of the input is ignored.
    """
    validate_full_space(params_without_c)
    line = CLine.of(params_without_c)
    if not line.r_ok:  # every c is labelled ROutOfRange
        return _EMPTY
    # the marks inside the hull, as (num, den) pairs
    marks = [line.c0]
    if line.distinct:  # else the hull is the single point c0 = c1
        marks.append(line.c1)
        s0, s1, _ = line.place(line.mn)
        if s0 * s1 < 0:
            marks.append(line.mn)
        if line.c_bar is not None:
            s0, s1, sm = line.place(line.c_bar)
            if s0 * s1 < 0 and sm != 0:
                marks.append(line.c_bar)
        marks.sort(key=cmp_to_key(compare))
    on_mark = [isinstance(line.label(c), Case) for c in marks]
    # the label is constant between neighbouring marks: test a midpoint
    inside = [
        isinstance(line.label((x0 * y1 + y0 * x1, 2 * x1 * y1)), Case)
        for (x0, x1), (y0, y1) in zip(marks, marks[1:])
    ]

    interval = None
    first = last = 0
    if any(inside):  # the open pieces form one interval
        first = inside.index(True)
        last = len(inside) - inside[::-1].index(True)
        interval = Interval(
            Fraction(*marks[first]), on_mark[first], Fraction(*marks[last]), on_mark[last]
        )
    isolated = tuple(
        Fraction(*c)
        for k, (c, embeds) in enumerate(zip(marks, on_mark))
        if embeds and (interval is None or not first <= k <= last)
    )
    return AdmissibleSet(interval, isolated)


# ---------------------------------------------------------------------------
# multiplicative exponent sets
# ---------------------------------------------------------------------------

class ThetaSetKind(str, Enum):
    EMPTY = "Empty"
    SINGLE = "Single"
    CLOSED_RANGE = "ClosedRange"
    TRIVIAL_ZERO = "TrivialZero"


@dataclass(frozen=True)
class ThetaSet:
    kind: ThetaSetKind
    theta: Optional[Fraction] = None
    lo: Optional[Fraction] = None
    hi: Optional[Fraction] = None
    note: Optional[str] = None

    def contains(self, theta: Fraction) -> bool:
        if self.kind is ThetaSetKind.EMPTY:
            return False
        if self.kind is ThetaSetKind.SINGLE:
            return theta == self.theta
        if self.kind is ThetaSetKind.TRIVIAL_ZERO:
            return theta == 0
        return self.lo <= theta <= self.hi

    def as_dict(self) -> dict:
        out = {"kind": self.kind.value}
        if self.theta is not None:
            out["theta"] = format_rational(self.theta)
        if self.lo is not None:
            out["lo"] = format_rational(self.lo)
            out["hi"] = format_rational(self.hi)
        if self.note:
            out["note"] = self.note
        return out


def theta_set(params: Params) -> ThetaSet:
    """Known-valid multiplicative exponents for an Embeds instance."""
    return _theta_set(params, classify(params))


def _theta_set(params: Params, verdict) -> ThetaSet:
    """theta_set of params, given verdict = classify(params)."""
    if verdict.decision is not Decision.EMBEDS:
        raise ValueError("theta_set requires an embedding instance")
    d = verdict.derived
    p, q, r = params.p, params.q, params.r

    if not d.slopes_equal:
        return ThetaSet(ThetaSetKind.SINGLE, theta=d.theta_c)

    if d.eta == 0:
        if r == q:
            return ThetaSet(ThetaSetKind.TRIVIAL_ZERO)
        if params.n >= 2:
            return ThetaSet(
                ThetaSetKind.EMPTY,
                note="embedding holds, multiplicative form impossible",
            )
        return ThetaSet(ThetaSetKind.SINGLE, theta=d.theta_breve)

    # Equal nonzero slopes: c = c0 = c1 forced.
    theta_low = Fraction(0) if p == q else p * (r - q) / (r * (p - q))
    if r < p:
        return ThetaSet(ThetaSetKind.SINGLE, theta=theta_low)
    in_hardy_range = ext_le(r, d.p_star)  # r >= p here
    in_interp_range = (p == q and r == p) or (p != q and min(p, q) <= r <= max(p, q))
    if in_hardy_range and in_interp_range:
        if theta_low == 1:
            return ThetaSet(ThetaSetKind.SINGLE, theta=Fraction(1))
        return ThetaSet(ThetaSetKind.CLOSED_RANGE, lo=theta_low, hi=Fraction(1))
    if in_hardy_range:
        return ThetaSet(ThetaSetKind.SINGLE, theta=Fraction(1))
    # r > p*: the embedding forces r <= q, so interpolation applies.
    return ThetaSet(ThetaSetKind.SINGLE, theta=theta_low)
