"""Checks of the program's outputs against computations made apart from it.

Each check returns a list of problems (empty when the output is right).
They use only the formulas in `inputs.py`, `math.lgamma` and the
independent unweighted-case oracle `tests/oracle_unweighted.py`.
"""

from __future__ import annotations

import math
from fractions import Fraction as F
from typing import List

from inputs import c0_of, c1_of, theta_c_of

SWEEP_HEADER = "n,p,q,r,a,b,c,decision,case,reason,c0,c1,theta_c"

# log-norm tolerances (absolute, natural log)
SCALING_TOL = 1e-7
BETA_TOL = 1e-7
DEFECT_TOL = 1e-6


def _embeds(decision: str) -> bool:
    return decision == "Embeds"


# ---------------------------------------------------------------------------
# sweep-c
# ---------------------------------------------------------------------------


def check_sweep(call, csv_text: str, oracle) -> List[str]:
    """Row count, order, decisions and c0 / c1 / theta_c of one sweep call."""
    lines = csv_text.splitlines()
    if not lines or lines[0] != SWEEP_HEADER:
        return ["sweep: missing or wrong CSV header"]
    rows = lines[1:]
    cs = call.c_values()
    if len(rows) != len(cs):
        return [f"sweep: {len(rows)} rows, spec has {len(cs)}"]
    n, p, q, r = call.n, call.p, call.q, call.r
    c0 = r * n / q - n
    c1 = r * (n - p) / p - n
    head = [str(n), str(p), str(q), str(r), "0", "0"]
    problems = []
    for k, (line, c) in enumerate(zip(rows, cs)):
        f = line.split(",")
        if len(f) != 13 or f[:6] != head or F(f[6]) != c:
            problems.append(f"sweep row {k}: parameters out of order: {line}")
            continue
        want = oracle(n, p, q, r, c)
        if _embeds(f[7]) != want:
            problems.append(f"sweep row {k}: decision {f[7]}, oracle says embeds={want}")
        if (f[8] != "") != want or (f[9] != "") == want:
            problems.append(f"sweep row {k}: case/reason tags inconsistent: {line}")
        if F(f[10]) != c0 or F(f[11]) != c1:
            problems.append(f"sweep row {k}: c0/c1 {f[10]}/{f[11]}, want {c0}/{c1}")
        theta = "" if c0 == c1 else str((c - c0) / (c1 - c0))
        if f[12] != theta:
            problems.append(f"sweep row {k}: theta_c {f[12]!r}, want {theta!r}")
        if len(problems) >= 5:
            break
    return problems


# ---------------------------------------------------------------------------
# exact-random
# ---------------------------------------------------------------------------


def check_exact(t, verdict, radial, admissible, thetas, kelvin_verdict, oracle) -> List[str]:
    """One tuple: Kelvin invariance, full => radial, interval membership,
    the forced exponent, and the unweighted oracle."""
    problems = []
    if (kelvin_verdict.decision, kelvin_verdict.case, kelvin_verdict.reason) != (
        verdict.decision, verdict.case, verdict.reason
    ):
        problems.append(f"{t}: verdict changes under the Kelvin reflection")
    if verdict.embeds and not radial.embeds:
        problems.append(f"{t}: embeds but its radial subspace does not")
    if admissible.contains(t.c) != verdict.embeds:
        problems.append(f"{t}: admissible_set disagrees with classify")
    if verdict.embeds and c0_of(t) != c1_of(t):
        theta = theta_c_of(t)
        if thetas is None or thetas.kind.value != "Single" or thetas.theta != theta:
            problems.append(f"{t}: theta_set {thetas}, want Single({theta})")
    if t.a == 0 and t.b == 0 and oracle(t.n, t.p, t.q, t.r, t.c) != verdict.embeds:
        problems.append(f"{t}: disagrees with the unweighted oracle")
    return problems


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def log_sphere_area(n: int) -> float:
    """log |S^{n-1}| = log(2 pi^{n/2} / Gamma(n/2))."""
    return math.log(2.0) + 0.5 * n * math.log(math.pi) - math.lgamma(0.5 * n)


def log_first_harmonic_moment(s: float, n: int) -> float:
    """log of the integral of |x_1|^s over the unit sphere S^{n-1}, n >= 2:
    |S^{n-2}| B((s+1)/2, (n-1)/2)."""
    return (
        log_sphere_area(n - 1)
        + math.lgamma(0.5 * (s + 1.0))
        + math.lgamma(0.5 * (n - 1.0))
        - math.lgamma(0.5 * (s + n))
    )


def power_tail_log_norm(alpha: F, beta: F, d: F, s: F, n: int, harmonic: bool):
    """log || t^-alpha (1+t)^(alpha-beta) ||_{d,s} in closed form.

    The radial integral is the Beta integral
    int t^(x-1) (1+t)^-(x+y) dt = B(x, y), x = d + N - alpha s,
    y = beta s - d - N.  Returns None when it diverges.
    """
    x = d + n - alpha * s
    y = beta * s - d - n
    if x <= 0 or y <= 0:
        return None
    xf, yf, sf = float(x), float(y), float(s)
    log_beta = math.lgamma(xf) + math.lgamma(yf) - math.lgamma(xf + yf)
    angular = log_first_harmonic_moment(sf, n) if harmonic else log_sphere_area(n)
    return (angular + log_beta) / sf


def check_verify(case, report) -> List[str]:
    """Dilation invariance at theta_c, the scaling law of every norm, and
    the Beta closed form of PowerTail function norms."""
    t = case.params
    n = t.n
    problems = []
    if not report.defect <= DEFECT_TOL:
        problems.append(f"{t}: scale defect {report.defect:.3g} > {DEFECT_TOL}")
    slopes = {
        "target": (t.c + n) / t.r,
        "source": (t.a + n) / t.q,
        "grad": (t.b - t.p + n) / t.p,
    }
    exps = {"target": (t.c, t.r), "source": (t.a, t.q)}
    base = {}
    for m in report.members:
        if m.scale == 1.0:
            base[m.member] = m.norms
    for m in report.members:
        b = base.get(m.member)
        if b is None:
            problems.append(f"{t}: member {m.member} has no unscaled entry")
            continue
        log_lam = math.log(m.scale)
        for key, slope in slopes.items():
            got = getattr(m.norms, key).log_value
            want = getattr(b, key).log_value - float(slope) * log_lam
            if not abs(got - want) <= SCALING_TOL:
                problems.append(
                    f"{t}: member {m.member} {key} norm at scale {m.scale} breaks "
                    f"the scaling law by {got - want:.3g}"
                )
        desc = report.family[m.member]
        profile = desc["profile"]
        if profile["kind"] != "power_tail":
            continue
        harmonic = desc["angular"] == "first_harmonic"
        alpha, beta = F(profile["alpha"]), F(profile["beta"])
        for key, (d, s) in exps.items():
            closed = power_tail_log_norm(alpha, beta, d, s, n, harmonic)
            got = getattr(m.norms, key).log_value
            if closed is None:
                problems.append(f"{t}: member {m.member} {key} norm should diverge")
                continue
            want = closed - float(slopes[key]) * log_lam
            if not abs(got - want) <= BETA_TOL:
                problems.append(
                    f"{t}: member {m.member} {key} norm at scale {m.scale} is "
                    f"{got - want:.3g} off the Beta closed form"
                )
    return problems[:5]


# ---------------------------------------------------------------------------
# falsify
# ---------------------------------------------------------------------------


def check_falsify(case, report, triples, threshold: float, oracle) -> List[str]:
    """The crossing is the first entry over ln(threshold), every member's
    source and gradient norms are finite, and a = b = 0 instances are
    rejected by the unweighted oracle."""
    t = case.params
    problems = []
    trace = report.trace
    log_thr = math.log(threshold)
    if not trace or [e.index for e in trace] != list(range(len(trace))):
        problems.append(f"{t}: trace indices are not 0..k")
    else:
        first = next((e.index for e in trace if e.log_ratio > log_thr), None)
        if first != report.crossed_at or first != trace[-1].index:
            problems.append(
                f"{t}: crossed_at {report.crossed_at}, first entry over the "
                f"threshold is {first}, trace ends at {trace[-1].index}"
            )
        if report.certificate != (trace[-1].log_ratio == math.inf):
            problems.append(f"{t}: certificate flag disagrees with the trace")
    if len(triples) != len(trace):
        problems.append(f"{t}: {len(triples)} norm triples for {len(trace)} trace entries")
    for k, triple in enumerate(triples):
        for key in ("source", "grad"):
            norm = getattr(triple, key)
            if norm.status.value != "Finite" or not norm.log_value < math.inf:
                problems.append(f"{t}: member {k} {key} norm is not finite")
    if t.a == 0 and t.b == 0 and oracle(t.n, t.p, t.q, t.r, t.c):
        problems.append(f"{t}: the unweighted oracle says this instance embeds")
    return problems[:5]
