"""Numerical probes corroborating classifier verdicts.

verify_instance: on an embedding instance, evaluates the multiplicative
ratio ||u||_{c,r} / (||grad u||_{b,p}^theta ||u||_{a,q}^{1-theta}) over a
family of test functions and a dilation grid.  When theta is the
interpolation exponent theta_c the ratio is exactly dilation invariant,
so the measured scale defect is a sharp self-test of both the exponent
and the quadrature.  A divergent norm inside a yes-instance is a hard
verification failure.

falsify_instance: on a non-embedding instance, walks the matching witness
family and reports the additive-ratio trace, which must cross the
divergence threshold within the index budget, unless the family carries a
divergent-target certificate (then a single member suffices).  Families
marked sup_dilation report, for each member, the supremum of the additive
ratio over exact dilations of that member; the supremum is computed from
the three norms and the exact scaling laws, in log space.

All ratios are computed from log-norms so that members whose norms leave
the double range still produce meaningful traces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .classify import Decision, classify
from .derived import derive
from .params import Params
from .profiles import LogModulated, PowerTail, SmoothBump
from .quadrature import (
    DEFAULT_CONFIG,
    NormStatus,
    NormValue,
    QuadratureConfig,
    weighted_norms,
)
from .testfunctions import TestFunction, dilate, first_harmonic, radial
from .witnesses import witness_for_verdict

DEFAULT_SCALES = (0.125, 0.5, 2.0, 8.0)


@dataclass(frozen=True)
class NormTriple:
    target: NormValue
    source: NormValue
    grad: NormValue

    @property
    def all_finite(self) -> bool:
        return self.target.finite and self.source.finite and self.grad.finite

    def as_dict(self) -> dict:
        return {
            "target": self.target.as_dict(),
            "source": self.source.as_dict(),
            "grad": self.grad.as_dict(),
        }


def compute_norms(params: Params, u: TestFunction, cfg: QuadratureConfig = DEFAULT_CONFIG) -> NormTriple:
    """The target, source and gradient norms of u."""
    return _norm_triples(params, [u], cfg)[0]


def _norm_triples(params: Params, functions: Sequence[TestFunction], cfg: QuadratureConfig) -> List[NormTriple]:
    """The NormTriple of each function; all their radial panel integrals
    share one integrator session."""
    kinds = ((params.c, params.r, False), (params.a, params.q, False), (params.b, params.p, True))
    norms = weighted_norms([(u, d, s, params.n, gradient) for u in functions for d, s, gradient in kinds], cfg)
    return [NormTriple(*norms[i:i + 3]) for i in range(0, len(norms), 3)]


def _log_mult_ratio(triple: NormTriple, theta: float) -> float:
    return (
        triple.target.log_value
        - theta * triple.grad.log_value
        - (1.0 - theta) * triple.source.log_value
    )


def _log_additive_ratio(triple: NormTriple) -> float:
    denom = np.logaddexp(triple.source.log_value, triple.grad.log_value)
    return triple.target.log_value - float(denom)


def _sup_dilation_log_ratio(slopes: Tuple[float, float, float], triple: NormTriple) -> float:
    """Supremum over dilations u(lam x) of the additive ratio, computed
    analytically from the exact scaling laws (norms scale by lam^{-slope}).

    `slopes` are the scaling slopes (s_c, s_a, s_b) = ((c+N)/r, slope_a,
    slope_b) of the target, source and gradient norms.  With
    f(w) = logT - s_c w - LSE(logA - s_a w, logB - s_b w), w = ln lam,
    the supremum sits at the balance point of the two denominator terms
    when s_c lies strictly between the slopes, and at the one-sided limit
    T/A or T/B when s_c equals a slope.  Members whose gradient (or
    source) norm vanishes identically fall back to the two-norm ratio.
    """
    s_c, s_a, s_b = slopes
    log_t = triple.target.log_value
    log_a = triple.source.log_value
    log_b = triple.grad.log_value

    if log_a == -math.inf:
        return log_t - log_b
    if log_b == -math.inf:
        return log_t - log_a
    if s_a == s_b:
        # dilation moves every term identically; nothing to optimize
        return log_t - float(np.logaddexp(log_a, log_b))

    (lo, log_lo), (hi, log_hi) = sorted(
        [(s_a, log_a), (s_b, log_b)], key=lambda t: t[0]
    )
    if s_c <= lo:
        value = log_t - log_lo
        if s_c < lo:
            # unbounded along pure dilations; clip to a loud finite value
            value = max(value, 800.0)
        return value
    if s_c >= hi:
        value = log_t - log_hi
        if s_c > hi:
            value = max(value, 800.0)
        return value
    # interior: (hi - s_c) C_hi e^{-hi w} = (s_c - lo) C_lo e^{-lo w}
    w_star = (
        math.log((s_c - lo) / (hi - s_c)) + log_lo - log_hi
    ) / (lo - hi)
    return log_t - s_c * w_star - float(
        np.logaddexp(log_lo - lo * w_star, log_hi - hi * w_star)
    )


# ---------------------------------------------------------------------------
# verification of embedding instances
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VerifyMember:
    member: int
    scale: float
    norms: NormTriple
    ratio: float

    def as_dict(self) -> dict:
        return {
            "member": self.member,
            "lambda": self.scale,
            "norms": self.norms.as_dict(),
            "ratio": self.ratio,
        }


@dataclass(frozen=True)
class VerifyReport:
    params: Params
    theta: float
    ok: bool
    max_ratio: float
    defect: float
    members: List[VerifyMember] = field(default_factory=list)
    failure: Optional[str] = None
    family: List[dict] = field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "params": self.params.as_dict(),
            "theta": self.theta,
            "ok": self.ok,
            "max_ratio": self.max_ratio,
            "defect": self.defect,
            "failure": self.failure,
            "family": self.family,
            "per_member": [m.as_dict() for m in self.members],
        }


def default_verification_family(params: Params, members: int = 8) -> List[TestFunction]:
    """Bumps at spread centers plus slow power tails fitted to the slopes.

    Power-tail exponents keep a unit margin from every norm's
    integrability bound, so all members lie in the source space and the
    target space whenever the instance embeds.
    """
    d = derive(params)
    s_lo = min(d.slope_a, d.slope_b, (params.c + params.n) / params.r)
    s_hi = max(d.slope_a, d.slope_b, (params.c + params.n) / params.r)
    family: List[TestFunction] = [
        radial(SmoothBump(1.0, 0.5)),
        radial(SmoothBump(2.0, 1.0)),
        radial(SmoothBump(4.0, 2.0)),
        radial(SmoothBump(8.0, 3.0)),
        radial(PowerTail(s_lo - 1, s_hi + 1)),
        radial(PowerTail(s_lo - Fraction(1, 2), s_hi + 2)),
        radial(PowerTail(s_lo - 2, s_hi + Fraction(3, 2))),
        radial(SmoothBump(16.0, 6.0)),
    ]
    return family[:members]


def default_w0_family(params: Params, members: int = 6) -> List[TestFunction]:
    """First-harmonic members (zero spherical mean by construction)."""
    base = default_verification_family(params, members)
    return [first_harmonic(u.profile) for u in base]


def verify_instance(
    params: Params,
    theta: Fraction,
    family: Optional[Sequence[TestFunction]] = None,
    scales: Sequence[float] = DEFAULT_SCALES,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
) -> VerifyReport:
    """Multiplicative-ratio scan over the family and its dilations."""
    return _verify_instance(params, classify(params), theta, family, scales, cfg)


def _verify_instance(params: Params, verdict, theta: Fraction, family: Optional[Sequence[TestFunction]] = None,
                     scales: Sequence[float] = DEFAULT_SCALES, cfg: QuadratureConfig = DEFAULT_CONFIG) -> VerifyReport:
    """verify_instance of params, given verdict = classify(params)."""
    if verdict.decision is not Decision.EMBEDS:
        raise ValueError("verify_instance requires an embedding instance")
    if family is None:
        family = default_verification_family(params)
    theta_f = float(theta)

    members: List[VerifyMember] = []
    max_ratio = 0.0
    defect = 0.0
    failure = None

    # every norm of every member and scale in one session, read in order;
    # the norms past a failure are dropped
    triples = iter(_norm_triples(
        params, [v for u in family for v in (u, *(dilate(u, lam) for lam in scales))], cfg))
    for idx in range(len(family)):
        base = next(triples)
        if not base.all_finite:
            failure = f"member {idx}: divergent norm inside a yes-instance"
            break
        if base.target.log_value == -math.inf:
            failure = f"member {idx}: identically zero member"
            break
        base_ratio = math.exp(_log_mult_ratio(base, theta_f))
        members.append(VerifyMember(idx, 1.0, base, base_ratio))
        max_ratio = max(max_ratio, base_ratio)
        for lam in scales:
            triple = next(triples)
            if not triple.all_finite:
                failure = f"member {idx}: divergent norm at scale {lam}"
                break
            ratio = math.exp(_log_mult_ratio(triple, theta_f))
            members.append(VerifyMember(idx, lam, triple, ratio))
            max_ratio = max(max_ratio, ratio)
            defect = max(defect, abs(ratio - base_ratio) / base_ratio)
        if failure:
            break

    ok = failure is None and math.isfinite(max_ratio)
    descriptors = [u.descriptor() for u in family]
    return VerifyReport(
        params, theta_f, ok, max_ratio, defect, members, failure, descriptors
    )


# ---------------------------------------------------------------------------
# falsification of non-embedding instances
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TraceEntry:
    index: int
    ratio: float
    log_ratio: float
    certificate: bool = False
    detail: str = ""

    def as_dict(self) -> dict:
        return {
            "index": self.index,
            "ratio": self.ratio,
            "log_ratio": self.log_ratio,
            "certificate": self.certificate,
            "detail": self.detail,
        }


@dataclass(frozen=True)
class FalsifyReport:
    params: Params
    reason: str
    family: dict
    ok: bool
    certificate: bool
    crossed_at: Optional[int]
    trace: List[TraceEntry] = field(default_factory=list)
    failure: Optional[str] = None

    def as_dict(self) -> dict:
        return {
            "params": self.params.as_dict(),
            "reason": self.reason,
            "family": self.family,
            "ok": self.ok,
            "certificate": self.certificate,
            "crossed_at": self.crossed_at,
            "trace": [t.as_dict() for t in self.trace],
            "failure": self.failure,
        }


def falsify_instance(
    params: Params,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
    max_index: Optional[int] = None,
) -> FalsifyReport:
    """Walk the witness family until the additive ratio crosses the
    divergence threshold or a divergent-target certificate appears.

    Each member's three norms share one integrator session; a translated
    member, a dilated ball bump, asks for none, its norms being closed-form
    series.  A member whose parameters leave the double range ends the
    walk without a verdict."""
    verdict = classify(params)
    if verdict.decision is not Decision.DOES_NOT_EMBED:
        raise ValueError("falsify_instance requires a non-embedding instance")
    witness = witness_for_verdict(params, verdict)
    cap = max_index if max_index is not None else witness.max_index
    threshold = cfg.divergence_threshold

    trace: List[TraceEntry] = []
    d = verdict.derived
    slopes = (float((params.c + params.n) / params.r), float(d.slope_a), float(d.slope_b))

    def report(ok: bool, certificate: bool, crossed_at: Optional[int],
               failure: Optional[str] = None) -> FalsifyReport:
        return FalsifyReport(params, verdict.reason.value, witness.descriptor(), ok,
                             certificate, crossed_at, trace, failure)

    for index in range(cap + 1):
        try:
            u = witness.member(index)
        except OverflowError as exc:
            return report(False, False, None, f"member {index}: {exc}")
        triple = compute_norms(params, u, cfg)
        if NormStatus.FAILED in (triple.target.status, triple.source.status, triple.grad.status):
            return report(False, False, None, f"member {index}: quadrature failure")
        if not triple.source.finite or not triple.grad.finite:
            return report(False, False, None, f"member {index}: witness left the source space")
        if triple.target.status is NormStatus.DIVERGENT:
            trace.append(TraceEntry(index, math.inf, math.inf, True, "divergent target norm"))
            return report(True, True, index)
        if witness.mode == "sup_dilation":
            log_ratio = _sup_dilation_log_ratio(slopes, triple)
        else:
            log_ratio = _log_additive_ratio(triple)
        ratio = math.exp(log_ratio) if log_ratio < 700 else math.inf
        trace.append(TraceEntry(index, ratio, log_ratio))
        if ratio > threshold:
            return report(True, False, index)

    return report(False, False, None, f"threshold {threshold} not reached within index {cap}")


# ---------------------------------------------------------------------------
# log-dilation probe for the exceptional equal-slope case
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ThetaProbeResult:
    theta: float
    max_ratio: float
    crossed: bool
    trace: List[TraceEntry] = field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "theta": self.theta,
            "max_ratio": self.max_ratio,
            "crossed": self.crossed,
            "trace": [t.as_dict() for t in self.trace],
        }


def log_window_theta_probe(
    params: Params,
    theta: float,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
    max_index: int = 170,
    base: float = 4.0,
) -> ThetaProbeResult:
    """Multiplicative ratio along log-window profiles with two-sided
    window-width dilations; used against fixed exponents in the
    equal-slope regime at c = c0 (no exponent can tame both directions
    unless the inequality actually holds).  Off c0 the target norm's log
    rate K = c + n - eta r is not 0, and the narrowing windows soon make
    the weight's peak narrower than the finest panel of the quadrature,
    where log-window norms fail."""
    d = derive(params)
    if not d.slopes_equal or params.c != d.c0:
        raise ValueError("the log-window probe applies to equal-slope instances with c = c0")
    threshold = cfg.divergence_threshold
    trace: List[TraceEntry] = []
    max_ratio = 0.0
    for index in range(max_index + 1):
        crossed_here = False
        for lam in (base ** -(index + 1), base ** (index + 1)):
            u = radial(LogModulated(d.eta, lam))
            triple = compute_norms(params, u, cfg)
            if not triple.all_finite:
                continue
            log_ratio = _log_mult_ratio(triple, theta)
            ratio = math.exp(log_ratio) if log_ratio < 700 else math.inf
            trace.append(TraceEntry(index, ratio, log_ratio, detail=f"lam={lam:.3g}"))
            max_ratio = max(max_ratio, ratio)
            if ratio > threshold:
                crossed_here = True
        if crossed_here:
            return ThetaProbeResult(theta, max_ratio, True, trace)
    return ThetaProbeResult(theta, max_ratio, False, trace)
