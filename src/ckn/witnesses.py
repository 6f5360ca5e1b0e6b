"""Counterexample families, one per non-embedding reason.

Each negative verdict is falsifiable by a concrete indexed family whose
additive norm ratio ||u||_{c,r} / (||u||_{a,q} + ||grad u||_{b,p}) grows
without bound, or by a single function whose target norm is certified
divergent while the source norms are finite:

  COutsideHull               the power cutoff |x|^{-(c+N)/r} at 0, or its
                             Kelvin inversion at infinity, with the
                             target integrand exactly |x|^{-N}: a
                             divergence certificate, no limit needed.
  COutsideOppositeSideWindow the plateau cutoff (1 near 0, resp. near
                             infinity after inversion): again a
                             certificate, from the same builder.
  EndpointC0WrongR           1-d reduction u = |x|^{1/r - (a+N)/q} g(|x|)
                             with g an indicator band marching to
                             infinity (r > q) or a vanishing-exponent
                             power on (0,1) (r < q).  The ratio
                             ||g||_r / ||g||_{q/r-1, q} diverges; a
                             dilation sweep suppresses the gradient term.
  EndpointC1SmallR           truncated primitives of s^{-(b+N)/p} on
                             bands (1, n): the classic failure of the
                             power-weight Hardy inequality for r < p.
                             The a = -N variant multiplies the tail by
                             t^{-eps_n}, eps_n = 1/log(n+2), to stay in
                             the source space.  Mirrored instances
                             (a > -N, or a = -N with slope_b > 0) take
                             the inverted profile and the negated slope.
  EqualSlopesSmallR          log-window profiles t^{-eta} W(lam ln t)
                             with lam -> 0: every term scales by a
                             different power of lam and r < min{p,q}
                             makes the target win.
  EtaZeroSmallR              same window family at eta = 0 (r < q).
  ROutOfRange                bumps of width R^{-nu} translated to
                             distance R: for r beyond max{p*, q} some
                             shrink rate nu makes the target exponent
                             dominate both source exponents.
  ThetaConditionFails        unit bumps translated to distance R: the
                             multiplicative ratio grows like R to the
                             (positive) theta-condition defect.

The translated bump is the ball bump (1 - t^2)^2 on [0, 1): as Caffarelli,
Kohn and Nirenberg note, any C^1 bump with compact support away from the
origin does, and this one's translated norms are closed-form series.

Family indices are geometric reparameterizations of the constructions'
limits, with the base chosen from the exact growth exponent so that the
divergence threshold is reached within a practical index budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .classify import Reason, Verdict
from .derived import DerivedQuantities, theta_slack
from .params import Params
from .profiles import (
    BallBump,
    InvertedProfile,
    LogModulated,
    PiecewisePower,
    PowerCutoffInner,
    PowerModulated,
    RadialProfile,
    TruncatedPrimitive,
)
from .testfunctions import TestFunction, radial, translated


@dataclass(frozen=True)
class WitnessFamily:
    reason: Reason
    params: Params
    kind: str
    mode: str  # "certificate" | "direct" | "sup_dilation"
    max_index: int = 40

    def member(self, index: int) -> TestFunction:
        raise NotImplementedError

    def descriptor(self) -> dict:
        return {
            "reason": self.reason.value,
            "kind": self.kind,
            "mode": self.mode,
            "params": self.params.as_dict(),
        }


@dataclass(frozen=True)
class _FixedFamily(WitnessFamily):
    profile: RadialProfile = None

    def member(self, index: int) -> TestFunction:
        return radial(self.profile)


@dataclass(frozen=True)
class _IndicatorBandFamily(WitnessFamily):
    """u = |x|^kappa g(|x|), g an indicator band (m_k, m_k + 1).

    Members are the bands dilated by 1/m_k, (1, 1 + 1/m_k): the family is
    probed by its supremum over dilations, which is the same, and the log
    width log(1 + 1/m_k) stays representable where log(m_k + 1) and
    log(m_k) round to one float."""

    kappa: Fraction = Fraction(0)
    log_base: float = math.log(2.0)

    def member(self, index: int) -> TestFunction:
        log_m = min((index + 1) * self.log_base, 500.0)
        return radial(PiecewisePower([(1.0, self.kappa, 0.0, math.log1p(math.exp(-log_m)))]))


@dataclass(frozen=True)
class _VanishingPowerFamily(WitnessFamily):
    """u = |x|^{kappa + 1/m_k - 1/r} on (delta_k, 1), m_k integer.

    The inner edge delta_k = exp(-5 m_k / r) is far enough inside that the
    band carries the full 1/m_k mass while keeping the member (and its
    gradient) in the source space; the band limit delta -> 0 is the
    monotone limit used by the reduction argument."""

    kappa: Fraction = Fraction(0)
    base: float = 2.0

    def member(self, index: int) -> TestFunction:
        m = max(2, int(round(self.base ** (index + 1))))
        expo = self.kappa + Fraction(1, m) - 1 / self.params.r
        log_delta = -5.0 * m / float(self.params.r)
        return radial(PiecewisePower([(1.0, expo, log_delta, 0.0)]))


@dataclass(frozen=True)
class _TruncatedPrimitiveFamily(WitnessFamily):
    beta: Fraction = Fraction(0)
    log_n_start: float = 2.0
    log_n_growth: float = 1.3
    eps_modulated: bool = False
    inverted: bool = False

    def member(self, index: int) -> TestFunction:
        log_n = min(self.log_n_start * self.log_n_growth**index, 255.0)
        prof: RadialProfile = TruncatedPrimitive(self.beta, log_n)
        if self.eps_modulated:
            prof = PowerModulated(prof, 1.0 / (log_n + math.log1p(2.0 * math.exp(-log_n))))
        if self.inverted:
            prof = InvertedProfile(prof)
        return radial(prof)


@dataclass(frozen=True)
class _LogModulatedFamily(WitnessFamily):
    eta: Fraction = Fraction(0)
    base: float = 2.0

    def member(self, index: int) -> TestFunction:
        lam = self.base ** -(index + 1)
        return radial(LogModulated(self.eta, lam))


# the bump every translated member reads, (1 - t^2)^2 on [0, 1): a member
# of width w is its dilation by 1/w, and each of its norms is one
# hypergeometric series (quadrature._translated_norm)
_UNIT_BUMP = BallBump()


@dataclass(frozen=True)
class _TranslatedBumpFamily(WitnessFamily):
    """Bumps of width R^-nu translated to distance R = offset_start *
    offset_base^index; an offset past the double range raises
    OverflowError."""

    nu: int = 0
    offset_start: float = 64.0
    offset_base: float = 2.0

    def member(self, index: int) -> TestFunction:
        try:
            offset = self.offset_start * self.offset_base**index
        except OverflowError:
            offset = math.inf
        if offset == math.inf:
            raise OverflowError(
                f"translation offset {self.offset_start:g} * {self.offset_base:g}^{index} leaves the double range")
        if self.nu == 0:
            return translated(_UNIT_BUMP, offset)
        width = max(offset**-self.nu, 1e-250)
        return translated(_UNIT_BUMP.scaled(1.0 / width), offset)


# ---------------------------------------------------------------------------
# growth-exponent helpers (exact rational arithmetic)
# ---------------------------------------------------------------------------

def _translation_exponent(params: Params, nu: int) -> Fraction:
    """Exponent of the additive ratio along bumps of width R^-nu at
    distance R: num - min(source exponents), all per log R."""
    n = Fraction(params.n)
    num = params.c / params.r - nu * n / params.r
    src_q = params.a / params.q - nu * n / params.q
    src_p = params.b / params.p + nu * (1 - n / params.p)
    return num - min(src_q, src_p)


def _theta_defect(params: Params, d: DerivedQuantities) -> Fraction:
    """-N ((1/r - 1/q) - theta_c (1/p - 1/N - 1/q)); positive exactly when
    the theta-condition fails."""
    return -params.n * theta_slack(d.theta_c, params)


def _geometric_base(exponent: float, target_index: int = 20, cap: float = 1e4) -> float:
    """Base B with B^(target_index * exponent) ~ 2e3; clamped to [2, cap]."""
    if exponent <= 0:
        return 2.0
    # clamp in log space: a tiny exponent would overflow the power
    log10_base = 3.4 / (target_index * exponent)
    if log10_base >= math.log10(cap):
        return cap
    return min(max(10.0 ** log10_base, 2.0), cap)


# ---------------------------------------------------------------------------
# builders per reason
# ---------------------------------------------------------------------------

def _cutoff_family(params: Params, d: DerivedQuantities, reason: Reason) -> WitnessFamily:
    """A divergence certificate: the power cutoff t^-alpha zeta(t) at 0, or
    its Kelvin inversion t^-alpha zeta(1/t) at infinity.  Outside the hull
    alpha = (c + N)/r makes |x|^c |u|^r exactly |x|^-N at the end that c
    lies beyond; outside the opposite-side window alpha = 0, a plateau at
    the origin when b - p <= -N < a (c <= -N makes |x|^c non-integrable
    over it), else the mirrored plateau at infinity (a < -N < b - p, c >=
    -N)."""
    if reason is Reason.C_OUTSIDE_HULL:
        alpha, at_zero = (params.c + params.n) / params.r, params.c < min(d.c0, d.c1)
        kind = "inner_power_cutoff" if at_zero else "outer_power_cutoff"
    else:
        alpha, at_zero = Fraction(0), params.a > -params.n
        kind = "plateau_cutoff" if at_zero else "plateau_cutoff_inverted"
    profile = PowerCutoffInner(alpha) if at_zero else InvertedProfile(PowerCutoffInner(-alpha))
    return _FixedFamily(reason, params, kind, "certificate", 1, profile=profile)


def _c0_endpoint_family(params: Params, d: DerivedQuantities, reason: Reason) -> WitnessFamily:
    kappa = 1 / params.r - d.slope_a
    growth = abs(float(1 / params.q - 1 / params.r))
    if params.r > params.q:
        return _IndicatorBandFamily(
            reason,
            params,
            "indicator_band",
            "sup_dilation",
            kappa=kappa,
            log_base=math.log(_geometric_base(growth, cap=1e5)),
        )
    return _VanishingPowerFamily(
        reason,
        params,
        "vanishing_power",
        "sup_dilation",
        kappa=kappa,
        base=_geometric_base(growth, cap=1e4),
    )


def _c1_endpoint_family(params: Params, d: DerivedQuantities, reason: Reason) -> WitnessFamily:
    # mirrored instances take the inverted profile: the Kelvin reflection
    # keeps a = -N and negates slope_b
    eps_modulated = params.a == -params.n
    inverted = params.a > -params.n or (eps_modulated and d.slope_b > 0)
    gamma = -d.slope_b if inverted else d.slope_b
    beta = gamma + 1  # (b + N) / p on the reflected side

    if gamma >= 0:
        # eventually-constant profiles have divergent target norm outright
        return _TruncatedPrimitiveFamily(
            reason,
            params,
            "truncated_primitive",
            "certificate",
            1,
            beta=beta,
            log_n_start=4.0,
            log_n_growth=1.0,
            inverted=inverted,
        )

    # slow logarithmic divergence: aim the band top near the transitional
    # crossing scale (ln n)^{1 + 1/r - 1/p} ~ 2 * threshold
    r, p = float(params.r), float(params.p)
    expo = 1.0 + 1.0 / r - 1.0 / p
    target = (2.5e3 * (r + 1.0) ** (1.0 / r)) ** (1.0 / expo)
    target = min(max(target, 30.0), 250.0)
    growth = (target / 2.0) ** (1.0 / 24.0)
    return _TruncatedPrimitiveFamily(
        reason,
        params,
        "truncated_primitive_eps" if eps_modulated else "truncated_primitive",
        "sup_dilation",
        beta=beta,
        log_n_start=2.0,
        log_n_growth=min(max(growth, 1.1), 1.45),
        eps_modulated=eps_modulated,
        inverted=inverted,
    )


def _log_window_family(params: Params, d: DerivedQuantities, reason: Reason) -> WitnessFamily:
    eta = d.eta
    growth = abs(float(1 / params.r - 1 / min(params.p, params.q)))
    if reason is Reason.ETA_ZERO_SMALL_R:
        growth = abs(float(1 / params.r - 1 / params.q))
    return _LogModulatedFamily(
        reason,
        params,
        "log_window",
        "direct",
        eta=eta,
        base=_geometric_base(growth, cap=1e3),
    )


def _r_range_family(params: Params, d: DerivedQuantities, reason: Reason) -> WitnessFamily:
    best_nu, best_val = 1, None
    for nu in range(1, 13):
        val = _translation_exponent(params, nu)
        if best_val is None or val > best_val:
            best_nu, best_val = nu, val
        if val >= Fraction(1, 4):
            best_nu, best_val = nu, val
            break
    if best_val is None or best_val <= 0:
        raise AssertionError(f"no shrinking translation exponent found for {params}")
    return _TranslatedBumpFamily(
        reason,
        params,
        "translated_shrinking_bump",
        "sup_dilation",
        nu=best_nu,
        offset_start=16.0,
        offset_base=_geometric_base(float(best_val), cap=64.0),
    )


def _theta_family(params: Params, d: DerivedQuantities, reason: Reason) -> WitnessFamily:
    defect = _theta_defect(params, d)
    if defect <= 0:
        raise AssertionError(f"theta-condition defect not positive for {params}")
    return _TranslatedBumpFamily(
        reason,
        params,
        "translated_bump",
        "sup_dilation",
        nu=0,
        offset_base=_geometric_base(float(defect), cap=1e4),
    )


_BUILDERS = {
    Reason.C_OUTSIDE_HULL: _cutoff_family,
    Reason.C_OUTSIDE_OPPOSITE_SIDE_WINDOW: _cutoff_family,
    Reason.ENDPOINT_C0_WRONG_R: _c0_endpoint_family,
    Reason.ENDPOINT_C1_SMALL_R: _c1_endpoint_family,
    Reason.EQUAL_SLOPES_SMALL_R: _log_window_family,
    Reason.ETA_ZERO_SMALL_R: _log_window_family,
    Reason.R_OUT_OF_RANGE: _r_range_family,
    Reason.THETA_CONDITION_FAILS: _theta_family,
}


def witness_for_verdict(params: Params, verdict: Verdict) -> WitnessFamily:
    """The counterexample family of the reason in `verdict`, which must be
    `classify(params)`: the family reads the verdict's derived quantities
    and does not classify again."""
    if verdict.embeds:
        raise ValueError("witness families exist only for non-embedding instances")
    return _BUILDERS[verdict.reason](params, verdict.derived, verdict.reason)
