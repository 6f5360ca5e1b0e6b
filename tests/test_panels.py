"""The batched panel integrator against the depth-first oracle."""

import random
from fractions import Fraction

import numpy as np

import ckn.panels as panels
import ckn.quadrature as quadrature
import oracle_panels
from oracle_panels import panel_integral
from ckn.classify import Reason, classify
from ckn.probes import compute_norms
from ckn.profiles import (Edge, InvertedProfile, PowerCutoffInner, PowerTail, RadialProfile, SmoothBump,
                          TruncatedPrimitive)
from ckn.quadrature import (
    DEFAULT_CONFIG,
    NormStatus,
    QuadratureConfig,
    surface_area,
    weighted_norm,
    weighted_norm_gradient,
    weighted_norms,
)
from ckn.testfunctions import first_harmonic, radial
from ckn.witnesses import witness_for_verdict
from conftest import random_params, rational

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


def test_walks_to_the_float_edges_match_oracle(monkeypatch):
    # exponent 1/1000 from critical at each end: the walks never turn quiet
    # and stop at t = 1e-280 and 1e280
    for alpha, beta in ((F(2, 3) - F(1, 1000), F(3)), (F(0), F(2, 3) + F(1, 1000))):
        batched, oracle = both(monkeypatch, weighted_norm, radial(PowerTail(alpha, beta)), F(0), F(3), 2)
        assert batched.finite
        assert_same(batched, oracle)


def test_a_closed_form_head_and_a_walked_tail_match_oracle(monkeypatch):
    for n, s in ((1, F(1)), (3, F(2)), (3, F(5, 2))):
        batched, oracle = both(monkeypatch, weighted_norm, radial(Plateau()), F(0), s, n)
        assert batched.finite
        assert_same(batched, oracle)


def test_a_walk_from_one_end_starts_past_every_seam():
    # f/t of TruncatedPrimitive(1/2, 2) turns from the primitive to the
    # plateau at e^2; a walk toward infinity that started at 4 crossed that
    # seam inside a panel.  The reference integrates the same reading over
    # [1, e^2] and walks from e^2, tighter
    base, b, p, n = TruncatedPrimitive(F(1, 2), 2.0), F(-1), F(3, 2), 2
    reading = quadrature._first_harmonic_gradient(n, float(p))

    def g(t):
        return t ** float(b + n - 1) * np.abs(reading(base, t, 1.0)) ** float(p)

    total, _ = panel_integral(g, 1.0, base.n, base.breakpoints, QuadratureConfig(rel_tol=1e-13), up=True)
    want = (np.log(surface_area(n)) + np.log(total)) / float(p)
    got = weighted_norm_gradient(first_harmonic(base), b, p, n)
    assert got.finite and got.error <= 1e-9
    assert abs(got.log_value - want) <= 1e-9


def test_walk_budgets_match_oracle(monkeypatch):
    # budgets across the block boundaries at 16, 32 and 48 panels, and up
    # to where each walk first succeeds (at 51 and 26 panels)
    statuses = set()
    for max_panels in range(1, 61):
        cfg = QuadratureConfig(max_panels=max_panels)
        # toward zero: a PowerTail head
        down = both(monkeypatch, weighted_norm, radial(PowerTail(F(1, 3), F(2))), F(0), F(1), 1, cfg)
        # toward infinity: the first-harmonic gradient of an outer cutoff has
        # no closed-form tail, and its support starts at 1
        up = both(
            monkeypatch, weighted_norm_gradient, first_harmonic(InvertedProfile(PowerCutoffInner(F(-3, 4)))),
            F(0), F(2), 2, cfg,
        )
        for (batched, oracle), end in ((down, "zero"), (up, "infinity")):
            assert_same(batched, oracle)
            if not batched.finite:
                assert batched.detail == f"panel budget exhausted extending toward {end}"
            statuses.add((end, batched.status))
    assert len(statuses) == 4


# ---------------------------------------------------------------------------
# halves of several depths per integrand call on small frontiers
# ---------------------------------------------------------------------------

def prefetch_corpus():
    """Norm sessions of a seeded corpus: cutoffs at random alpha, d and s,
    bumps and PowerTails, each norm in a session of its own (small
    frontiers) and all of them in one session, plus two first-harmonic
    gradient norms."""
    rng = random.Random(1414)
    jobs = []
    for _ in range(60):
        n, s = rng.randint(1, 5), 1 + rational(rng, 0, 3)
        d = rational(rng, -n + 1, 4)
        kind = rng.random()
        if kind < 0.6:
            # mostly convergent: alpha below (d + n)/s for the inner cutoff,
            # above it for the outer
            crit, shift = (d + n) / s, rational(rng, -1, 3)
            profile = PowerCutoffInner(crit - shift) if rng.random() < 0.5 else InvertedProfile(PowerCutoffInner(-crit - shift))
        elif kind < 0.8:
            profile = bump(rng)
        else:
            profile = power_tail(rng, n, d, s)
        jobs.append((radial(profile), d, s, n, rng.random() < 0.5))
    sessions = [weighted_norms([job]) for job in jobs] + [weighted_norms(jobs)]
    # the 2-D gradient of first harmonics, whose integrand takes a dot product per point
    sessions += [[weighted_norm_gradient(first_harmonic(profile), F(1), F(3, 2), 3)]
                 for profile in (PowerCutoffInner(F(1, 2)), InvertedProfile(PowerCutoffInner(F(-5, 2))))]
    return [(norm.status, norm.detail, norm.value.hex(), norm.log_value.hex(), norm.error.hex())
            for session in sessions for norm in session]


def test_prefetched_halves_give_the_sums_of_one_depth_per_call(monkeypatch):
    calls = []
    gauss_sums = panels._gauss_sums

    def counted(*args):
        calls.append(args[3].size)
        return gauss_sums(*args)

    monkeypatch.setattr(panels, "_gauss_sums", counted)
    with monkeypatch.context() as m:
        m.setattr(panels, "_PREFETCH", 0)  # one depth per call, as without the prefetch
        one_depth = prefetch_corpus()
    one_depth_calls, calls[:] = len(calls), []
    prefetched = prefetch_corpus()
    assert prefetched == one_depth
    assert sum(status is NormStatus.FINITE for status, *_ in prefetched) > 90
    # and the prefetch did take the place of calls
    assert len(calls) < 0.6 * one_depth_calls


def test_depths_ahead_stay_within_the_budget_and_the_subdivisions():
    nodes = panels.GAUSS_NODES
    for panels_, depth, coarse in ((1, 12, True), (2, 12, True), (2, 12, False), (3, 12, False),
                                   (10, 12, False), (11, 12, False), (64, 12, True), (1, 2, False),
                                   (1, 0, False)):
        count = panels._depths_ahead(panels_, depth, nodes, coarse)
        assert 1 <= count <= min(panels._AHEAD, depth + 1)
        points = panels_ * nodes * (2 ** (count + 1) - 2 + coarse)
        assert count == 1 or points <= panels._PREFETCH
    assert panels._depths_ahead(2, 12, nodes, False) == 4
    assert panels._depths_ahead(1, 2, nodes, False) == 3
    assert panels._depths_ahead(64, 12, nodes, True) == 1


def hull_witnesses(count):
    """The first member of the witness family of count COutsideHull instances."""
    rng, found = random.Random(1415), []
    while len(found) < count:
        params = random_params(rng)
        verdict = classify(params)
        if verdict.reason is Reason.C_OUTSIDE_HULL:
            found.append((params, witness_for_verdict(params, verdict).member(0)))
    return found


def test_a_c_outside_hull_member_takes_at_most_4_integrand_calls(monkeypatch):
    # the two finite norms of the cutoff bisect its [1/2, 1], or [1, 2] for
    # the inversion at infinity, to depth 8-9; one integrand call per depth
    # took 8 or 9 calls
    calls = []
    integrand = quadrature._radial_integrand

    def counted(*args):
        g = integrand(*args)

        def call(t, owner):
            calls.append(t.size)
            return g(t, owner)

        return call

    monkeypatch.setattr(quadrature, "_radial_integrand", counted)
    members = hull_witnesses(20)
    kinds = set()
    for params, u in members:
        calls.clear()
        triple = compute_norms(params, u)
        kinds.add(type(u.profile))
        assert triple.target.status is NormStatus.DIVERGENT
        assert triple.source.finite and triple.grad.finite
        assert 1 <= len(calls) <= 4, (params, len(calls))
    assert kinds == {PowerCutoffInner, InvertedProfile}
