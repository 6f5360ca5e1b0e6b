"""The batched panel integrator against the depth-first oracle."""

import random
from fractions import Fraction

import numpy as np

import ckn.quadrature as quadrature
import oracle_panels
from oracle_panels import panel_integral
from ckn.profiles import Edge, PowerCutoffOuter, PowerTail, RadialProfile, SmoothBump
from ckn.quadrature import (
    DEFAULT_CONFIG,
    NormStatus,
    QuadratureConfig,
    weighted_norm,
    weighted_norm_gradient,
)
from ckn.testfunctions import first_harmonic, radial, translated
from conftest import rational

F = Fraction


class Plateau(RadialProfile):
    """1 on (0, 1], then 1 / (1 + (t - 1)^2): a closed-form head, a walked tail."""

    breakpoints = (1.0,)

    def value(self, t):
        return 1.0 / (1.0 + np.maximum(np.asarray(t, dtype=float) - 1.0, 0.0) ** 2)

    def edges(self):
        return (Edge(1.0, F(0), exact=1.0), Edge(1.0, F(-2)))


def both(monkeypatch, norm, u, d, s, n, cfg=DEFAULT_CONFIG):
    """The norm from the batched integrator, then from the oracle, which
    must have integrated at least one panel integral."""
    batched = norm(u, d, s, n, cfg)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return panel_integral(*args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(quadrature, "integrate", oracle_panels.integrate)
        m.setattr(oracle_panels, "panel_integral", counted)
        oracle = norm(u, d, s, n, cfg)
    assert calls, "the oracle never ran"
    return batched, oracle


def assert_same(batched, oracle):
    assert batched.status is oracle.status
    if batched.status is NormStatus.FINITE:
        assert abs(batched.log_value - oracle.log_value) <= 1e-12
    else:
        assert batched.detail == oracle.detail


def power_tail(rng, n, d, s):
    """A PowerTail whose weighted s-norm converges at both ends, its
    integrand's exponents at least 1/2 from critical."""
    crit = (d + n) / s
    return PowerTail(crit - F(1, 2) - rational(rng, 0, 2), crit + F(1, 2) + rational(rng, 0, 2))


def bump(rng):
    return SmoothBump(float(rational(rng, 0, 5)), float(rational(rng, 0, 2) + F(1, 4)))


def test_radial_norms_match_oracle(monkeypatch):
    rng = random.Random(515)
    for _ in range(200):
        n, s = rng.randint(1, 5), 1 + rational(rng, 0, 3)
        d = rational(rng, -n + 1, 4)
        profile = power_tail(rng, n, d, s) if rng.random() < 0.6 else bump(rng)
        batched, oracle = both(monkeypatch, weighted_norm, radial(profile), d, s, n)
        assert batched.finite
        assert_same(batched, oracle)


def test_first_harmonic_gradient_norms_match_oracle(monkeypatch):
    rng = random.Random(516)
    for _ in range(40):
        n, p = rng.randint(2, 5), 1 + rational(rng, 0, 3)
        # f' and f/t carry one power less than f: b - p plays the role of d
        b = p + rational(rng, -n + 1, 4)
        profile = power_tail(rng, n, b - p, p) if rng.random() < 0.5 else bump(rng)
        batched, oracle = both(monkeypatch, weighted_norm_gradient, first_harmonic(profile), b, p, n)
        assert batched.finite
        assert_same(batched, oracle)


def test_translated_norms_match_oracle(monkeypatch):
    rng = random.Random(517)
    for _ in range(60):
        n, s = rng.randint(1, 5), 1 + rational(rng, 0, 3)
        d = rational(rng, -2 * n, n + 2)
        profile = bump(rng)
        u = translated(profile, profile.support[1] * (1.0 + 10.0 ** rng.uniform(-2, 3)))
        norm = weighted_norm_gradient if rng.random() < 0.5 else weighted_norm
        batched, oracle = both(monkeypatch, norm, u, d, s, n)
        assert batched.finite
        assert_same(batched, oracle)


def test_walks_to_the_float_edges_match_oracle(monkeypatch):
    # exponent 1/1000 from critical at each end: the walks never turn quiet
    # and stop at t = 1e-280 and 1e280
    for alpha, beta in ((F(2, 3) - F(1, 1000), F(3)), (F(0), F(2, 3) + F(1, 1000))):
        batched, oracle = both(monkeypatch, weighted_norm, radial(PowerTail(alpha, beta)), F(0), F(3), 2)
        assert batched.finite
        assert_same(batched, oracle)


def test_walk_judged_against_a_closed_form_head_matches_oracle(monkeypatch):
    for n, s in ((1, F(1)), (3, F(2)), (3, F(5, 2))):
        batched, oracle = both(monkeypatch, weighted_norm, radial(Plateau()), F(0), s, n)
        assert batched.finite
        assert_same(batched, oracle)


def test_walk_budgets_match_oracle(monkeypatch):
    # budgets across the block boundaries at 16, 32 and 48 panels, and up
    # to where each walk first succeeds (at 51 and 26 panels)
    statuses = set()
    for max_panels in range(1, 61):
        cfg = QuadratureConfig(max_panels=max_panels)
        # toward zero: a PowerTail head
        down = both(monkeypatch, weighted_norm, radial(PowerTail(F(1, 3), F(2))), F(0), F(1), 1, cfg)
        # toward infinity: the first-harmonic gradient of an outer cutoff has
        # no closed-form tail, and its support starts at 1/2
        up = both(
            monkeypatch, weighted_norm_gradient, first_harmonic(PowerCutoffOuter(F(3, 4))),
            F(0), F(2), 2, cfg,
        )
        for (batched, oracle), end in ((down, "zero"), (up, "infinity")):
            assert_same(batched, oracle)
            if not batched.finite:
                assert batched.detail == f"panel budget exhausted extending toward {end}"
            statuses.add((end, batched.status))
    assert len(statuses) == 4
