"""Decision procedures for the weighted embeddings.

`classify` settles whether the weighted Sobolev space on the punctured
space embeds continuously into L^r(|x|^c dx).  The embedding holds iff
r <= max{p*, q} and one of six exact conditions is met:

    I    a, b-p on the same side of -N (weakly), slopes differ, c strictly
         between c0 and c1, and theta_c (1/p - 1/N - 1/q) <= 1/r - 1/q;
    II   a, b-p strictly on opposite sides of -N, c strictly between c0
         and -N, and the same theta-condition;
    III  r = q and c = a (= c0);
    IV   p <= r <= p*, the pair lies weakly/strictly on one side
         (a <= -N and b-p < -N, or a >= -N and b-p > -N), and c = c1;
    V    slopes equal with common value eta != 0, r >= min{p,q}, c = c1;
    VI   a = -N, b = p - N (so eta = 0), q < r <= p*, c = -N.

The conditions overlap; the reported case tag uses the fixed priority
III < IV < V < VI < I < II so output is deterministic.

A negative verdict carries the first applicable necessity reason, each
mapping to one concrete counterexample family:

    ROutOfRange                  r > max{p*, q}           (translated bumps)
    COutsideHull                 c outside [c0, c1] hull  (power cutoff)
    COutsideOppositeSideWindow   opposite sides, c outside
                                 the (-N, c0] window      (plateau cutoff)
    EndpointC0WrongR             c = c0, r != q           (1-d indicator lift)
    EndpointC1SmallR             c = c1, r < p            (truncated primitive)
    EqualSlopesSmallR            slopes equal, r < min{p,q} (log-window)
    EtaZeroSmallR                eta = 0, r < q           (log-window)
    ThetaConditionFails          theta-condition violated (translated bumps)

For fixed (N, p, q, r, a, b) the verdict depends on c only through its
place relative to c0, c1, -N and c_bar, where the theta-condition is an
equality.  `CLine` holds every c-free fact of one such line: the r-range
gate, the side conditions, the case at c = c1, the open piece of case I
or II, the reasons at c0 and c1, and the theta-condition as a half-line
in c (theta <= theta_bar is c <= c_bar when c1 > c0 and c >= c_bar when
c1 < c0).  It is built in integers from `derived.line_core`, with each
mark an integer (num, den) pair, den > 0.  Its `label(c)` writes the six
cases and eight reasons above once, and decides every comparison by the
sign of a cross product.  `classify` labels one c, `ckn sweep` labels
a grid line once per open piece between its marks, and `admissible_set`
labels the marks and the midpoints between them.

`classify_radial` is the analogous characterization for the subspace of
radially symmetric functions (valid for all q, r > 0), with its own case
priority; it labels only the line of the one-dimensional reduction, and
that label is its necessity reason.  `classify_w0` gives the sufficient
conditions for the subspace with vanishing spherical mean.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional, Tuple, Union

from .derived import DerivedQuantities, derive, line_core, line_pairs, theta_condition_holds
from .params import Params, validate_full_space, validate_radial
from .rational import Pair, compare, ext_le, ext_max, ext_min, sign


class Decision(str, Enum):
    EMBEDS = "Embeds"
    DOES_NOT_EMBED = "DoesNotEmbed"


class Case(str, Enum):
    I = "I"
    II = "II"
    III = "III"
    IV = "IV"
    V = "V"
    VI = "VI"


class Reason(str, Enum):
    R_OUT_OF_RANGE = "ROutOfRange"
    C_OUTSIDE_HULL = "COutsideHull"
    C_OUTSIDE_OPPOSITE_SIDE_WINDOW = "COutsideOppositeSideWindow"
    ENDPOINT_C0_WRONG_R = "EndpointC0WrongR"
    ENDPOINT_C1_SMALL_R = "EndpointC1SmallR"
    EQUAL_SLOPES_SMALL_R = "EqualSlopesSmallR"
    ETA_ZERO_SMALL_R = "EtaZeroSmallR"
    THETA_CONDITION_FAILS = "ThetaConditionFails"


class W0Result(str, Enum):
    EMBEDS = "Embeds"
    UNKNOWN = "Unknown"


@dataclass(frozen=True)
class Verdict:
    decision: Decision
    case: Optional[Case]
    reason: Optional[Reason]
    derived: DerivedQuantities
    note: Optional[str] = None

    @property
    def embeds(self) -> bool:
        return self.decision is Decision.EMBEDS

    def as_dict(self) -> dict:
        return {
            "decision": self.decision.value,
            "case": self.case.value if self.case else None,
            "reason": self.reason.value if self.reason else None,
            "note": self.note,
            "derived": self.derived.as_dict(),
        }


# ---------------------------------------------------------------------------
# the c-line at one (N, p, q, r, a, b)
# ---------------------------------------------------------------------------

class CLine:
    """Every c-free fact of the full-space theorem at one (N, p, q, r, a, b).

    Built in integers from n and the (num, den) pairs, den > 0, of p, q, r,
    a, b (`derived.line_core`).  The marks
    c0, c1, -N and c_bar are (num, den) pairs with den > 0, and `label`
    places a c = num/den against them by the signs of cross products.
    Shared by `classify`, `classify_radial`, `admissible_set` and
    `ckn sweep`; not part of `ckn.__all__`.
    """

    __slots__ = (
        "core", "c0", "c1", "mn", "c_bar", "distinct", "r_ok", "r_is_q",
        "gradient_side", "c1_case", "piece", "window", "c0_reason", "c1_reason",
        "theta_cut", "theta_all",
    )

    def __init__(self, n: int, p: Pair, q: Pair, r: Pair, a: Pair, b: Pair):
        core = self.core = line_core(n, p, q, r, a, b)
        _, L, P, Q, R, sa, sb, x0, x1, gap, s = core
        nL = n * L
        # a and b-p lie on the sides of -N given by the signs of
        # L (a + N) and L (b - p + N)
        sa = sign(sa)
        sb = sign(sb)
        self.c0, self.c1, self.mn = (x0, L * Q), (x1, L * P), (-n, 1)
        self.distinct = gap != 0
        hardy = P >= nL or R * (nL - P) <= nL * P  # r <= p*
        self.r_ok = hardy or R <= Q  # r <= max{p*, q}
        # at c = c0 = a the identity embedding holds (case III)
        self.r_is_q = R == Q

        # b-p strictly off -N, a weakly on the same side
        self.gradient_side = sb != 0 and sa * sb >= 0
        if P <= R and hardy and self.gradient_side:
            self.c1_case = Case.IV
        elif not self.distinct and sa != 0 and R >= min(P, Q):
            self.c1_case = Case.V
        elif not self.distinct and sa == 0 and Q < R and hardy:  # a = -N, b = p - N
            self.c1_case = Case.VI
        else:
            self.c1_case = None

        # a strictly off -N and b-p weakly on the other side: c must lie
        # strictly between c0 and -N, or on c0
        self.window = sa != 0 and sa * sb <= 0
        # the open piece where the theta-condition decides: between c0 and
        # -N (case II) or between c0 and c1 (case I)
        if sa * sb < 0:
            self.piece = Case.II
        elif self.distinct:
            self.piece = Case.I
        else:
            self.piece = None

        if self.distinct:
            self.c0_reason = None if self.r_is_q else Reason.ENDPOINT_C0_WRONG_R
            self.c1_reason = Reason.ENDPOINT_C1_SMALL_R if R < P else None
        else:  # the hull is the point c0 = c1, which is -N when eta = 0
            if R < min(P, Q):
                self.c0_reason = Reason.EQUAL_SLOPES_SMALL_R
            elif sa == 0 and R < Q:
                self.c0_reason = Reason.ETA_ZERO_SMALL_R
            else:
                self.c0_reason = None
            self.c1_reason = None

        # theta (1/p - 1/N - 1/q) <= 1/r - 1/q is theta <= theta_bar when
        # the factor s is positive and theta >= theta_bar when it is
        # negative; theta grows with c when c1 > c0 (gap > 0).  So it holds
        # on the half-line theta_cut * (c - c_bar) <= 0 of c, or, when
        # s = 0, for all c (r <= q) or none
        if s == 0:
            self.c_bar, self.theta_cut = None, 0
        else:
            self.c_bar, self.theta_cut = core.c_bar(), sign(s) * sign(gap)
        self.theta_all = R <= Q

    @classmethod
    def of(cls, params: Params) -> "CLine":
        """The line through a tuple; its c is ignored."""
        return cls(params.n, *line_pairs(params))

    def place(self, c: Pair) -> Tuple[int, int, int]:
        """Signs of c - c0, c - c1 and c + N."""
        return compare(c, self.c0), compare(c, self.c1), sign(c[0] + self.core.n * c[1])

    def in_piece(self, s0: int, s1: int, sm: int) -> bool:
        """Whether the c with signs (s0, s1, sm) of `place` lies in the open
        case-I or case-II piece."""
        if self.piece is Case.I:
            return s0 * s1 < 0
        return self.piece is Case.II and s0 * sm < 0

    def theta_holds(self, c: Pair) -> bool:
        if self.c_bar is None:
            return self.theta_all
        return self.theta_cut * compare(c, self.c_bar) <= 0

    def label(self, c: Pair) -> Union[Case, Reason]:
        """The case tag of c = (num, den), den > 0, or its first necessity
        reason; cases in the priority III < IV < V < VI < I < II."""
        if not self.r_ok:
            return Reason.R_OUT_OF_RANGE
        s0, s1, sm = self.place(c)
        if self.r_is_q and s0 == 0:
            return Case.III
        if self.c1_case is not None and s1 == 0:
            return self.c1_case
        if self.in_piece(s0, s1, sm) and self.theta_holds(c):
            return self.piece
        if s0 * s1 > 0:
            return Reason.C_OUTSIDE_HULL
        if self.window and s0 != 0 and s0 * sm >= 0:
            return Reason.C_OUTSIDE_OPPOSITE_SIDE_WINDOW
        if self.c0_reason is not None and s0 == 0:
            return self.c0_reason
        if self.c1_reason is not None and s1 == 0:
            return self.c1_reason
        if self.distinct and not self.theta_holds(c):
            return Reason.THETA_CONDITION_FAILS
        raise AssertionError(f"no necessity reason applies at c={c} on {self.c0}..{self.c1}")


# ---------------------------------------------------------------------------
# full-space characterization
# ---------------------------------------------------------------------------

def _verdict(tag: Union[Case, Reason], d: DerivedQuantities) -> Verdict:
    if isinstance(tag, Case):
        return Verdict(Decision.EMBEDS, tag, None, d)
    return Verdict(Decision.DOES_NOT_EMBED, None, tag, d)


def classify(params: Params) -> Verdict:
    """Full-space verdict: Embeds with a case tag, or DoesNotEmbed with
    the first applicable necessity reason."""
    validate_full_space(params)
    line = CLine.of(params)
    d = line.core.quantities(params.c)
    return _verdict(line.label(params.c.as_integer_ratio()), d)


# ---------------------------------------------------------------------------
# radial subspace characterization
# ---------------------------------------------------------------------------

def classify_radial(params: Params) -> Verdict:
    """Verdict for the subspace of radially symmetric functions.

    Valid for every q, r > 0 with p >= 1.  The conditions are those of the
    full-space theorem transplanted to dimension one: with
    theta_breve = (1 - q/r)(q/p' + 1)^-1,

      (i)   same weak side, slopes differ, c strictly between c0 and c1,
            theta_c >= theta_breve (vacuous when q >= r);
      (ii)  strictly opposite sides, c strictly between c0 and -N,
            theta_c >= theta_breve;
      (iii) r >= p, side condition of case IV, c = c1 (a pure
            radial-derivative bound holds);
      (iv)  r = q and c = c0, or p != q, min{p,q} <= r <= max{p,q},
            slopes equal and nonzero, c = c0;
      (v)   a = -N, b = p - N, r > q, c = -N (multiplicative bound with
            exponent theta_breve).

    There is no r <= max{p*, q} gate: the radial problem behaves like
    dimension one, where the critical exponent is infinite.

    Only the reduced line (`radial_reduction`) is labelled: the shift by
    N - 1 moves c0, c1, -N and c together and keeps the sides of a and
    b - p, so the cases read as on the full line, and its label is the reason.
    """
    validate_radial(params)
    d = derive(params)
    p, q, r = params.p, params.q, params.r
    shift = params.n - 1
    pairs = line_pairs(params)
    (an, ad), (bn, bd), (cn, cd) = pairs[3], pairs[4], params.c.as_integer_ratio()
    line = CLine(1, *pairs[:3], (an + shift * ad, ad), (bn + shift * bd, bd))
    c = (cn + shift * cd, cd)
    s0, s1, sm = line.place(c)

    if s0 == 0 and (
        r == q
        or (p != q and min(p, q) <= r <= max(p, q) and d.slopes_equal and d.eta != 0)
    ):
        return _verdict(Case.IV, d)
    if r >= p and line.gradient_side and s1 == 0:
        return _verdict(Case.III, d)
    if d.eta == 0 and r > q and sm == 0:  # a = -N, b = p - N
        return _verdict(Case.V, d)
    if line.in_piece(s0, s1, sm) and d.theta_c >= d.theta_breve:
        return _verdict(line.piece, d)

    reason = line.label(c)
    if not isinstance(reason, Reason):
        raise AssertionError(f"the one-dimensional reduction of {params} embeds")
    return _verdict(reason, d)


def radial_reduction(params: Params) -> Params:
    """The radial problem in dimension N is the full problem at N = 1 with
    weights shifted by N - 1."""
    shift = params.n - 1
    return Params(
        n=1,
        p=params.p,
        q=params.q,
        r=params.r,
        a=params.a + shift,
        b=params.b + shift,
        c=params.c + shift,
    )


# ---------------------------------------------------------------------------
# zero-spherical-mean subspace (sufficient conditions only)
# ---------------------------------------------------------------------------

def classify_w0(params: Params) -> W0Result:
    """Sufficient conditions for the subspace of functions with vanishing
    spherical mean to embed into L^r(|x|^c dx).

    Distinct slopes: c must lie in the closed hull of c0, c1; either
    r = q with c = c0, or c != c0 with the theta-condition; and
    theta_c r/p + (1 - theta_c) r/q >= 1.  Equal slopes: c = c0 and
    min{p,q} <= r <= max{p*, q}.  Anything else is Unknown, not a refusal:
    the criterion is one-sided.
    """
    validate_full_space(params)
    if params.q < 1 or params.r < 1:
        raise ValueError("the zero-mean criterion requires p, q, r >= 1")
    d = derive(params)
    p, q, r = params.p, params.q, params.r

    if d.slopes_equal:
        if params.c == d.c0 and min(p, q) <= r and ext_le(r, ext_max(d.p_star, q)):
            return W0Result.EMBEDS
        return W0Result.UNKNOWN

    theta = d.theta_c
    if not 0 <= theta <= 1:  # c outside the hull of c0, c1
        return W0Result.UNKNOWN
    first = (r == q and params.c == d.c0) or (
        params.c != d.c0 and theta_condition_holds(theta, params)
    )
    second = theta * r / p + (1 - theta) * r / q >= 1
    return W0Result.EMBEDS if (first and second) else W0Result.UNKNOWN


def auto_theta_condition_check(params: Params) -> bool:
    """True iff r <= min{p*, q}; in that regime the theta-condition holds
    automatically for every c in the hull (self-test invariant)."""
    d = derive(params)
    if d.slopes_equal:
        raise ValueError("auto theta check requires distinct slopes")
    return ext_le(params.r, ext_min(d.p_star, params.q))
