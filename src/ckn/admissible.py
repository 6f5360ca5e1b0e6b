"""Exact admissible intervals in c and sets of valid multiplicative exponents.

`admissible_set` computes, for fixed (N, p, q, r, a, b), the exact set of
weights c for which the embedding holds.  The set is an interval whose
interior comes from the open-interval cases cut by the theta-condition
half-space, with the endpoints c0 (admissible iff r = q) and c1
(admissible iff p <= r <= p* with the case-IV side condition) attached
when adjacent; when the interior is empty an admissible endpoint shows up
as an isolated point.

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
from typing import Optional, Tuple

from .classify import Decision, _opposite_strict, _side_for_c1_endpoint, classify
from .derived import derive
from .params import Params, validate_full_space
from .rational import ext_le, ext_max, format_rational


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


def _theta_window(params: Params) -> Optional[Tuple[Fraction, Fraction]]:
    """Closed subinterval of [0,1] where theta (1/p - 1/N - 1/q) <= 1/r - 1/q,
    or None when no theta in [0,1] satisfies it."""
    s_factor = 1 / params.p - Fraction(1, params.n) - 1 / params.q
    v0 = 1 / params.r - 1 / params.q
    zero, one = Fraction(0), Fraction(1)
    if s_factor == 0:
        return (zero, one) if v0 >= 0 else None
    tau = v0 / s_factor
    if s_factor > 0:
        if tau < 0:
            return None
        return (zero, min(tau, one))
    if tau <= 0:
        return (zero, one)
    if tau > 1:
        return None
    return (tau, one)


def admissible_set(params_without_c: Params) -> AdmissibleSet:
    """Exact set {c : the embedding holds} at the tuple's (N, p, q, r, a, b).

    The c field of the input is ignored.
    """
    params = params_without_c.with_c(Fraction(0))
    validate_full_space(params)
    d = derive(params)
    p, q, r = params.p, params.q, params.r

    if not ext_le(r, ext_max(d.p_star, q)):
        return _EMPTY

    if d.slopes_equal:
        point_ok = (
            r == q
            or (d.eta != 0 and r >= min(p, q))
            or (
                d.eta == 0
                and params.a == -params.n
                and q < r
                and ext_le(r, d.p_star)
            )
        )
        return AdmissibleSet(None, (d.c0,)) if point_ok else _EMPTY

    # Distinct slopes: interior window in theta coordinates.
    window = _theta_window(params)
    if _opposite_strict(params):
        theta_top = d.theta_of(Fraction(-params.n))  # in (0, 1)
    else:
        theta_top = Fraction(1)

    interior = None  # (lo_theta, lo_inc, hi_theta, hi_inc)
    if window is not None:
        wlo, whi = window
        lo_t = max(Fraction(0), wlo)
        hi_t = min(theta_top, whi)
        lo_inc = wlo > 0
        hi_inc = whi < theta_top
        if lo_t < hi_t or (lo_t == hi_t and lo_inc and hi_inc):
            interior = (lo_t, lo_inc, hi_t, hi_inc)

    c0_admissible = r == q
    c1_admissible = (
        theta_top == 1
        and p <= r
        and ext_le(r, d.p_star)
        and _side_for_c1_endpoint(params)
    )

    isolated = []
    if interior is None:
        if c0_admissible:
            isolated.append(d.c0)
        if c1_admissible:
            isolated.append(d.c1)
        return AdmissibleSet(None, tuple(sorted(isolated)))

    lo_t, lo_inc, hi_t, hi_inc = interior
    if c0_admissible:
        if lo_t == 0:
            lo_inc = True
        else:
            isolated.append(d.c0)
    if c1_admissible:
        if hi_t == 1:
            hi_inc = True
        else:
            isolated.append(d.c1)

    c_lo = d.c_of_theta(lo_t)
    c_hi = d.c_of_theta(hi_t)
    if c_lo <= c_hi:
        interval = Interval(c_lo, lo_inc, c_hi, hi_inc)
    else:
        interval = Interval(c_hi, hi_inc, c_lo, lo_inc)
    return AdmissibleSet(interval, tuple(sorted(isolated)))


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
    verdict = classify(params)
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
