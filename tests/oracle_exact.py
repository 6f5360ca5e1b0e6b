"""The exact core written on `fractions.Fraction`, kept as a test oracle.

`ckn.derived.derive`, `ckn.classify.CLine` and `ckn.admissible.admissible_set`
compute on Python ints over a common denominator and build Fractions only
for their results.  This module is the earlier formulation they replaced:
every quantity is a Fraction expression written as in the paper, and the
c-line labeller places c and its theta_c by Fraction comparisons.  The
sameness tests require both to give equal `DerivedQuantities`, identical
`as_dict()` bytes and the same labels.
"""

from fractions import Fraction
from operator import itemgetter
from typing import Optional, Union

from ckn.admissible import AdmissibleSet, Interval
from ckn.classify import Case, Decision, Reason, Verdict, radial_reduction
from ckn.derived import DerivedQuantities
from ckn.params import Params, validate_full_space, validate_radial
from ckn.rational import INF, ext_le, holder_conjugate


def oracle_derive(params: Params) -> DerivedQuantities:
    n, p, q, r = params.n, params.p, params.q, params.r
    a, b, c = params.a, params.b, params.c

    slope_a = (a + n) / q
    slope_b = (b - p + n) / p
    c0 = r * slope_a - n
    c1 = r * slope_b - n

    theta_c = None
    eta = None
    if slope_a == slope_b:
        eta = slope_a
    else:
        theta_c = (c - c0) / (c1 - c0)

    p_conj = holder_conjugate(p)
    # q/p' written without infinite arithmetic: q (p-1)/p, which is 0 at p=1.
    q_over_pconj = q * (p - 1) / p
    theta_breve = (1 - q / r) / (q_over_pconj + 1)

    # 1/p - 1/N - 1/q, the slope of the interior theta-condition.
    s_factor = 1 / p - Fraction(1, n) - 1 / q
    if s_factor == 0:
        theta_bar = None
        c_bar = None
    else:
        theta_bar = (1 / r - 1 / q) / s_factor
        c_bar = theta_bar * c1 + (1 - theta_bar) * c0

    c_star = (1 - q / r) * c1 + (q / r) * c0

    return DerivedQuantities(
        c0=c0,
        c1=c1,
        p_star=INF if p >= n else Fraction(n, 1) * p / (n - p),
        slope_a=slope_a,
        slope_b=slope_b,
        theta_c=theta_c,
        eta=eta,
        theta_breve=theta_breve,
        theta_bar=theta_bar,
        c_star=c_star,
        c_bar=c_bar,
        p_conj=p_conj,
    )


def _sign(x: Fraction) -> int:
    return (x.numerator > 0) - (x.numerator < 0)


class OracleCLine:
    """Every c-free fact of the full-space theorem at one (N, p, q, r, a, b),
    with `label(c, theta)` deciding by Fraction comparisons."""

    def __init__(self, params: Params, d: DerivedQuantities):
        p, q, r = params.p, params.q, params.r
        sa = _sign(d.slope_a)
        sb = _sign(d.slope_b)
        self.c0, self.c1, self.mn = d.c0, d.c1, Fraction(-params.n)
        self.lo, self.hi = (d.c0, d.c1) if d.c0 <= d.c1 else (d.c1, d.c0)
        self.distinct = not d.slopes_equal
        hardy = ext_le(r, d.p_star)
        self.r_ok = hardy or r <= q
        self.r_is_q = r == q

        self.gradient_side = sb != 0 and sa * sb >= 0
        if p <= r and hardy and self.gradient_side:
            self.c1_case = Case.IV
        elif d.slopes_equal and sa != 0 and r >= min(p, q):
            self.c1_case = Case.V
        elif d.slopes_equal and sa == 0 and q < r and hardy:
            self.c1_case = Case.VI
        else:
            self.c1_case = None

        if sa != 0 and sa * sb <= 0:
            self.window = (self.mn, d.c0) if sa > 0 else (d.c0, self.mn)
        else:
            self.window = None
        if sa * sb < 0:
            self.piece = Case.II
            self.piece_lo, self.piece_hi = self.window
        elif self.distinct:
            self.piece, self.piece_lo, self.piece_hi = Case.I, self.lo, self.hi
        else:
            self.piece = None

        if self.distinct:
            self.c0_reason = None if self.r_is_q else Reason.ENDPOINT_C0_WRONG_R
            self.c1_reason = Reason.ENDPOINT_C1_SMALL_R if r < p else None
        else:
            if r < min(p, q):
                self.c0_reason = Reason.EQUAL_SLOPES_SMALL_R
            elif sa == 0 and r < q:
                self.c0_reason = Reason.ETA_ZERO_SMALL_R
            else:
                self.c0_reason = None
            self.c1_reason = None

        self.theta_bar = d.theta_bar
        self.theta_dir = (q > d.p_star) - (q < d.p_star)
        self.theta_all = r <= q

    def theta_holds(self, theta: Fraction) -> bool:
        if self.theta_dir > 0:
            return theta <= self.theta_bar
        if self.theta_dir < 0:
            return theta >= self.theta_bar
        return self.theta_all

    def label(self, c: Fraction, theta: Optional[Fraction]) -> Union[Case, Reason]:
        if not self.r_ok:
            return Reason.R_OUT_OF_RANGE
        if self.r_is_q and c == self.c0:
            return Case.III
        if self.c1_case is not None and c == self.c1:
            return self.c1_case
        if (
            self.piece is not None
            and self.piece_lo < c < self.piece_hi
            and self.theta_holds(theta)
        ):
            return self.piece
        if not self.lo <= c <= self.hi:
            return Reason.C_OUTSIDE_HULL
        if self.window is not None and c != self.c0 and not self.window[0] < c < self.window[1]:
            return Reason.C_OUTSIDE_OPPOSITE_SIDE_WINDOW
        if self.c0_reason is not None and c == self.c0:
            return self.c0_reason
        if self.c1_reason is not None and c == self.c1:
            return self.c1_reason
        if self.distinct and not self.theta_holds(theta):
            return Reason.THETA_CONDITION_FAILS
        raise AssertionError(f"no necessity reason applies at c={c} on {self.c0}..{self.c1}")


def _verdict(tag: Union[Case, Reason], d: DerivedQuantities) -> Verdict:
    if isinstance(tag, Case):
        return Verdict(Decision.EMBEDS, tag, None, d)
    return Verdict(Decision.DOES_NOT_EMBED, None, tag, d)


def oracle_classify(params: Params, d: DerivedQuantities) -> Verdict:
    """`classify`, given d = oracle_derive(params)."""
    validate_full_space(params)
    return _verdict(OracleCLine(params, d).label(params.c, d.theta_c), d)


def oracle_classify_radial(params: Params, d: DerivedQuantities) -> Verdict:
    """`classify_radial`, given d = oracle_derive(params)."""
    validate_radial(params)
    line = OracleCLine(params, d)
    p, q, r, c = params.p, params.q, params.r, params.c

    if c == d.c0 and (
        r == q
        or (p != q and min(p, q) <= r <= max(p, q) and d.slopes_equal and d.eta != 0)
    ):
        return _verdict(Case.IV, d)
    if r >= p and line.gradient_side and c == d.c1:
        return _verdict(Case.III, d)
    if d.eta == 0 and r > q and c == line.mn:
        return _verdict(Case.V, d)
    if (
        line.piece is not None
        and line.piece_lo < c < line.piece_hi
        and d.theta_c >= d.theta_breve
    ):
        return _verdict(line.piece, d)

    reduced = radial_reduction(params)
    dr = oracle_derive(reduced)
    reason = OracleCLine(reduced, dr).label(reduced.c, dr.theta_c)
    if not isinstance(reason, Reason):
        raise AssertionError(f"the one-dimensional reduction of {params} embeds")
    return _verdict(reason, d)


def oracle_marks(params: Params, d: DerivedQuantities):
    """The line's marks inside the hull, sorted, each with its exact theta
    (None for equal slopes), and the line itself; d = oracle_derive(params)."""
    line = OracleCLine(params, d)
    if d.slopes_equal:
        return [(d.c0, None)], line
    marks = [(d.c0, Fraction(0)), (d.c1, Fraction(1))]
    if line.lo < line.mn < line.hi:
        marks.append((line.mn, d.theta_of(line.mn)))
    if d.theta_bar is not None and 0 < d.theta_bar < 1 and d.c_bar != line.mn:
        marks.append((d.c_bar, d.theta_bar))
    marks.sort(key=itemgetter(0))
    return marks, line


def oracle_admissible_set_by_marks(params: Params, d: DerivedQuantities) -> AdmissibleSet:
    """`admissible_set`, given d = oracle_derive(params)."""
    validate_full_space(params)
    marks, line = oracle_marks(params, d)
    if not line.r_ok:
        return AdmissibleSet(None, ())
    on_mark = [isinstance(line.label(c, theta), Case) for c, theta in marks]
    inside = [
        isinstance(line.label((c + c_next) / 2, (theta + theta_next) / 2), Case)
        for (c, theta), (c_next, theta_next) in zip(marks, marks[1:])
    ]
    interval = None
    if any(inside):
        first = inside.index(True)
        last = len(inside) - inside[::-1].index(True)
        interval = Interval(marks[first][0], on_mark[first], marks[last][0], on_mark[last])
    isolated = tuple(
        c
        for (c, _), embeds in zip(marks, on_mark)
        if embeds and (interval is None or not interval.lo <= c <= interval.hi)
    )
    return AdmissibleSet(interval, isolated)
