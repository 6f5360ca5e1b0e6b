"""Independent construction of the admissible c-set in theta coordinates.

A deliberately separate implementation, used only as a test oracle for
`ckn.admissible_set`, which labels marks on the classifier's c-line.  Here
the set is assembled directly: for distinct slopes the interior is the
open piece of case I (theta in (0, 1)) or of case II (theta between 0 and
theta(-N)), cut by the closed theta-window where

    theta (1/p - 1/N - 1/q) <= 1/r - 1/q,

and the endpoints c0 (admissible iff r = q) and c1 (admissible iff
p <= r <= p* with the case-IV side condition) are attached when adjacent,
or kept as isolated points.  Equal slopes admit at most the point c0.

All comparisons exact on Fractions.
"""

from fractions import Fraction
from typing import Optional, Tuple

from ckn.admissible import AdmissibleSet, Interval
from ckn.derived import derive
from ckn.params import Params
from ckn.rational import ext_le, ext_max


def theta_window(params: Params) -> Optional[Tuple[Fraction, Fraction]]:
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


def oracle_admissible_set(params_without_c: Params) -> AdmissibleSet:
    """Exact set {c : the embedding holds}; the c field is ignored."""
    params = params_without_c.with_c(Fraction(0))
    d = derive(params)
    p, q, r = params.p, params.q, params.r
    mn = -params.n
    a, bp = params.a, params.b - params.p
    empty = AdmissibleSet(None, ())

    if not ext_le(r, ext_max(d.p_star, q)):
        return empty

    if d.slopes_equal:
        point_ok = (
            r == q
            or (d.eta != 0 and r >= min(p, q))
            or (d.eta == 0 and a == mn and q < r and ext_le(r, d.p_star))
        )
        return AdmissibleSet(None, (d.c0,)) if point_ok else empty

    window = theta_window(params)
    if (a < mn < bp) or (bp < mn < a):  # strictly opposite sides of -N
        theta_top = d.theta_of(Fraction(mn))  # in (0, 1)
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
        and ((a <= mn and bp < mn) or (a >= mn and bp > mn))
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
