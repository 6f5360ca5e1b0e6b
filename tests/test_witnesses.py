"""Witness families and falsification probes."""

import math
import random
from fractions import Fraction

import pytest

from ckn.classify import Reason, classify
from ckn.derived import derive
from ckn.params import Params, kelvin_params
from ckn.probes import falsify_instance
from ckn.witnesses import _c1_endpoint_family, witness_for_verdict

F = Fraction


def make(n, p, q, r, a, b, c):
    return Params(n=n, p=F(p), q=F(q), r=F(r), a=F(a), b=F(b), c=F(c))


FIXTURES = {
    Reason.R_OUT_OF_RANGE: make(3, 2, 2, 7, 0, 0, 0),
    Reason.C_OUTSIDE_HULL: make(3, 2, 2, 2, 0, 0, -3),
    Reason.C_OUTSIDE_OPPOSITE_SIDE_WINDOW: make(3, 2, 2, 2, 0, -2, -3),
    Reason.ENDPOINT_C0_WRONG_R: make(3, 2, 2, 4, 0, 0, 3),
    Reason.ENDPOINT_C1_SMALL_R: make(3, 2, 2, 1, -4, "-51/50", "-301/100"),
    Reason.EQUAL_SLOPES_SMALL_R: make(3, 2, 3, 1, "-3/2", 0, "-5/2"),
    Reason.ETA_ZERO_SMALL_R: make(2, 1, 3, 1, -2, -1, -2),
    Reason.THETA_CONDITION_FAILS: make(3, 1, 8, 8, 0, 0, "39/4"),
}


@pytest.mark.parametrize("reason", list(FIXTURES), ids=lambda r: r.value)
def test_fixture_classifies_with_its_reason(reason):
    verdict = classify(FIXTURES[reason])
    assert not verdict.embeds
    assert verdict.reason is reason


@pytest.mark.parametrize("reason", list(FIXTURES), ids=lambda r: r.value)
def test_witness_trace_crosses_or_certifies(reason):
    report = falsify_instance(FIXTURES[reason])
    assert report.ok, report.failure
    assert report.certificate or report.crossed_at <= 40


@pytest.mark.parametrize("reason", list(FIXTURES), ids=lambda r: r.value)
def test_trace_monotone_after_prefix(reason):
    report = falsify_instance(FIXTURES[reason])
    ratios = [e.ratio for e in report.trace if not e.certificate]
    tail = ratios[3:]
    assert all(x <= y * (1 + 1e-9) for x, y in zip(tail, tail[1:])), ratios


@pytest.mark.parametrize("reason", list(FIXTURES), ids=lambda r: r.value)
def test_witness_for_verdict_follows_the_verdict(reason):
    params = FIXTURES[reason]
    assert witness_for_verdict(params, classify(params)).reason is reason


def test_witness_for_embedding_verdict_rejected():
    params = make(3, 2, 2, 2, 0, 0, 0)
    with pytest.raises(ValueError):
        witness_for_verdict(params, classify(params))


def test_certificate_for_inner_cutoff():
    report = falsify_instance(FIXTURES[Reason.C_OUTSIDE_HULL])
    assert report.certificate and report.crossed_at == 0


def test_outer_cutoff_certificate():
    # c above both endpoints: mirrored divergence at infinity
    params = make(3, 2, 2, 2, 0, 0, 1)
    assert classify(params).reason is Reason.C_OUTSIDE_HULL
    report = falsify_instance(params)
    assert report.ok and report.certificate


def test_mirrored_window_certificate():
    # a < -N < b - p and c >= -N outside the window: inverted plateau
    params = kelvin_params(FIXTURES[Reason.C_OUTSIDE_OPPOSITE_SIDE_WINDOW])
    assert classify(params).reason is Reason.C_OUTSIDE_OPPOSITE_SIDE_WINDOW
    report = falsify_instance(params)
    assert report.ok and report.certificate


def test_endpoint_c1_mirrored_instance():
    params = kelvin_params(FIXTURES[Reason.ENDPOINT_C1_SMALL_R])
    assert classify(params).reason is Reason.ENDPOINT_C1_SMALL_R
    report = falsify_instance(params)
    assert report.ok, report.failure


def test_endpoint_c1_vanishing_source_slope():
    # a = -N: the tail-modulated family; the dilation supremum reaches the
    # pure gradient-ratio, which crosses the threshold
    params = make(3, 2, 2, 1, -3, "-51/50", "-301/100")
    assert classify(params).reason is Reason.ENDPOINT_C1_SMALL_R
    report = falsify_instance(params)
    assert report.ok, report.failure
    ratios = [e.ratio for e in report.trace]
    assert all(x <= y * (1 + 1e-9) for x, y in zip(ratios[3:], ratios[4:]))


def test_endpoint_c0_small_r_variant():
    params = make(3, 2, 4, 2, 0, 0, "-3/2")
    assert classify(params).reason is Reason.ENDPOINT_C0_WRONG_R
    report = falsify_instance(params)
    assert report.ok and report.crossed_at <= 40


def test_indicator_band_growth_rate():
    """The indicator-band trace grows like a power of the band position."""
    report = falsify_instance(FIXTURES[Reason.ENDPOINT_C0_WRONG_R])
    ratios = [e.ratio for e in report.trace]
    assert len(ratios) >= 6
    # log-ratio increments are asymptotically constant for geometric bands
    increments = [
        math.log(b / a) for a, b in zip(ratios[2:], ratios[3:]) if a > 0
    ]
    assert max(increments) / min(increments) < 3.0


def test_falsify_rejects_embedding_instances():
    with pytest.raises(ValueError):
        falsify_instance(make(3, 2, 2, 2, 0, 0, 0))


def _kelvin_c1_family(params):
    """The EndpointC1SmallR family's fields computed by explicit Kelvin
    reflections of the tuple and `derive` on the reflected tuples: the
    reference for the slope-sign reading in `_c1_endpoint_family`."""
    inverted = False
    work = params
    if params.a > -params.n:
        work = kelvin_params(params)
        inverted = True
    gamma = derive(work).slope_b
    beta = (work.b + work.n) / work.p
    eps_modulated = work.a == -work.n
    if eps_modulated and gamma > 0:
        work = kelvin_params(work)
        gamma = derive(work).slope_b
        beta = (work.b + work.n) / work.p
        inverted = not inverted
    if gamma >= 0:
        return dict(kind="truncated_primitive", mode="certificate", beta=beta,
                    inverted=inverted, eps_modulated=False, log_n_start=4.0, log_n_growth=1.0)
    r, p = float(params.r), float(params.p)
    expo = 1.0 + 1.0 / r - 1.0 / p
    target = min(max((2.5e3 * (r + 1.0) ** (1.0 / r)) ** (1.0 / expo), 30.0), 250.0)
    growth = (target / 2.0) ** (1.0 / 24.0)
    return dict(kind="truncated_primitive_eps" if eps_modulated else "truncated_primitive",
                mode="sup_dilation", beta=beta, inverted=inverted, eps_modulated=eps_modulated,
                log_n_start=2.0, log_n_growth=min(max(growth, 1.1), 1.45))


def _c1_side(params):
    if params.a != -params.n:
        return "a>-N" if params.a > -params.n else "a<-N"
    return "a=-N, slope_b>0" if params.b - params.p + params.n > 0 else "a=-N, slope_b<=0"


def _c1_instances(seed, per_side):
    """Seeded EndpointC1SmallR tuples (c = c1, r < p), per_side from each
    side of the reflection."""
    rng = random.Random(seed)
    found = {}
    while len(found) < 4 or min(map(len, found.values())) < per_side:
        n = rng.randint(1, 5)
        p = F(rng.randint(3, 16), rng.randint(1, 3))
        r = F(rng.randint(1, 11), rng.randint(1, 3))
        q = F(rng.randint(2, 16), rng.randint(1, 2))
        if r >= p or (n >= 2 and r < 1):
            continue
        a = F(-n) if rng.random() < 0.5 else F(rng.randint(-24, 12), rng.randint(1, 4))
        b = F(rng.randint(-24, 24), rng.randint(1, 4))
        c1 = r * (b - p + n) / p - n
        params = make(n, p, q, r, a, b, c1)
        if classify(params).reason is Reason.ENDPOINT_C1_SMALL_R:
            found.setdefault(_c1_side(params), []).append(params)
    return [t for side in sorted(found) for t in found[side][:per_side]]


def test_c1_reflection_by_slope_sign_matches_kelvin_reflection():
    instances = _c1_instances(seed=2026, per_side=60)
    # the classifier never gives a = -N with slope_b = 0 this reason (both
    # slopes are 0 there); the builder still must not reflect it
    instances.append(make(3, 2, 2, 1, -3, -1, -3))
    for params in instances:
        family = _c1_endpoint_family(params, derive(params), Reason.ENDPOINT_C1_SMALL_R)
        got = {key: getattr(family, key) for key in (
            "kind", "mode", "beta", "inverted", "eps_modulated", "log_n_start", "log_n_growth")}
        assert got == _kelvin_c1_family(params), (params, _c1_side(params))
