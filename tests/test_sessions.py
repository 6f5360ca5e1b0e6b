"""One integrator session per probe instance, against one norm triple at a time.

`verify_instance` computes the norms of all its members and scales in one
session.  The reference below is its loop as it was before: one
`compute_norms` per (member, scale), read in the same order.
"""

import random
from fractions import Fraction

import numpy as np

import ckn.panels as panels
from ckn.admissible import theta_set
from ckn.classify import classify
from ckn.params import Params
from ckn.probes import (
    DEFAULT_SCALES,
    compute_norms,
    default_verification_family,
    default_w0_family,
    verify_instance,
)
from ckn.profiles import PowerTail
from ckn.quadrature import NormStatus, weighted_norm_gradient, weighted_norms
from ckn.testfunctions import dilate, radial
from conftest import random_params
from oracle_panels import PanelTail, SmoothBump

F = Fraction


def per_member(params, family, scales=DEFAULT_SCALES):
    """(members as (member, scale, triple), failure) of the loop verify_instance ran before."""
    members = []
    for idx, u in enumerate(family):
        base = compute_norms(params, u)
        if not base.all_finite:
            return members, f"member {idx}: divergent norm inside a yes-instance"
        if base.target.log_value == -np.inf:
            return members, f"member {idx}: identically zero member"
        members.append((idx, 1.0, base))
        for lam in scales:
            triple = compute_norms(params, dilate(u, lam))
            if not triple.all_finite:
                return members, f"member {idx}: divergent norm at scale {lam}"
            members.append((idx, lam, triple))
    return members, None


def assert_same_report(params, theta, family):
    report = verify_instance(params, theta, family=family)
    members, failure = per_member(params, family)
    assert report.failure == failure
    assert report.ok == (failure is None)
    assert [(m.member, m.scale) for m in report.members] == [(idx, lam) for idx, lam, _ in members]
    for member, (_, _, triple) in zip(report.members, members):
        for key in ("target", "source", "grad"):
            session, alone = getattr(member.norms, key), getattr(triple, key)
            assert session.status is alone.status
            assert abs(session.log_value - alone.log_value) <= 1e-12
    return report


def embedding_instances(seed, per_dimension):
    rng, found = random.Random(seed), []
    for n in range(1, 6):
        count = 0
        while count < per_dimension:
            params = random_params(rng)
            if params.n != n or not classify(params).embeds:
                continue
            known = theta_set(params)
            if known.theta is not None:
                found.append((params, known.theta))
                count += 1
    return found


def test_random_instances_match_one_triple_at_a_time():
    for params, theta in embedding_instances(2026, 2):
        assert_same_report(params, theta, default_verification_family(params))


def test_first_harmonic_fixture_matches_one_triple_at_a_time():
    params = Params(3, F(2), F(2), F(4), F(0), F(0), F(-1))
    assert assert_same_report(params, F(1), default_w0_family(params)).ok


def test_near_critical_members_match_one_triple_at_a_time():
    # exponents 1/1000 from critical, at 0 (first instance) and at infinity
    # (second), where the target and source walks once ran to the float
    # edges: each end is closed at its cut.  PanelTails keep them on panels
    for b, member in ((2, PanelTail(F(2, 3) - F(1, 1000), 3)), (0, PanelTail(F(0), F(2, 3) + F(1, 1000)))):
        params = Params(2, F(2), F(3), F(3), F(0), F(b), F(0))
        family = [radial(SmoothBump(2.0, 1.0)), radial(member)]
        assert assert_same_report(params, F(0), family).ok


def test_a_failing_member_is_reported_as_before():
    # the gradient of the second member diverges at infinity; the norms of
    # the members after it are computed in the session and dropped
    params = Params(2, F(2), F(3), F(3), F(0), F(2), F(0))
    family = [radial(SmoothBump(2.0, 1.0)), radial(PowerTail(F(0), F(2, 3) + F(1, 1000))),
              radial(SmoothBump(4.0, 2.0))]
    report = assert_same_report(params, F(0), family)
    assert report.failure == "member 1: divergent norm inside a yes-instance"


def test_one_norm_whose_cut_leaves_the_floats_fails_alone():
    # f' of PanelTail(10^-300, 2) is -alpha t^(-alpha-1) (1 + (2/alpha) t +
    # ...) at 0: its bound puts the cut of the gradient's head near 1e-307,
    # past 2^-830; the other norms close their ends within the floats
    jobs = [
        (radial(SmoothBump(2.0, 1.0)), F(0), F(2), 3, False),
        (radial(PanelTail(F(1, 10**300), F(2))), F(-9, 10), F(2), 3, True),
        (radial(PanelTail(F(-1), F(3))), F(0), F(2), 3, False),
        (radial(PanelTail(F(-1), F(3))), F(1), F(2), 3, True),
    ]
    session = weighted_norms(jobs)
    assert [norm.status for norm in session] == [
        NormStatus.FINITE, NormStatus.FAILED, NormStatus.FINITE, NormStatus.FINITE]
    assert session[1].detail == "the bound at 0 puts its cut below 2^-830"
    for norm, (u, d, s, n, gradient) in zip(session, jobs):
        alone = weighted_norms([(u, d, s, n, gradient)])[0]
        assert norm.status is alone.status and norm.detail == alone.detail
        if norm.finite:
            assert abs(norm.log_value - alone.log_value) <= 1e-12
    assert weighted_norm_gradient(*jobs[1][:4]).detail == session[1].detail


def annuli_family(params):
    """The default family with its power bumps, which are closed forms,
    replaced by the SmoothBump annuli it once had, whose norms take panels."""
    annuli = iter([(1.0, 0.5), (2.0, 1.0), (4.0, 2.0), (8.0, 3.0), (16.0, 6.0)])
    return [u if isinstance(u.profile, PowerTail) else radial(SmoothBump(*next(annuli)))
            for u in default_verification_family(params)]


def test_batches_stay_within_the_chunk_and_the_call_budget(monkeypatch):
    # the chunk bounds every array of points, and with it peak memory; the
    # integrals of an instance must share its integrand calls, else nothing
    # is shared: some call of each instance holds rows of 2 integrals or more.
    # The default family asks for no panel integral, so the annuli stand in
    sizes, calls, shared = [], [], []
    value, gauss_sums = SmoothBump.value, panels._gauss_sums

    def recorded(self, t):
        sizes.append(np.size(t))
        return value(self, t)

    def counted(g, nodes, owner, x0, x1):
        calls.append(x0.size)

        def owners(t, rows):
            shared.append(np.unique(rows).size)
            return g(t, rows)

        return gauss_sums(owners, nodes, owner, x0, x1)

    monkeypatch.setattr(SmoothBump, "value", recorded)
    monkeypatch.setattr(panels, "_gauss_sums", counted)
    for params, theta in embedding_instances(7, 1):
        calls.clear()
        shared.clear()
        verify_instance(params, theta, family=annuli_family(params))
        assert 0 < len(calls) <= 40
        assert max(shared) >= 2
    assert max(sizes) <= panels._CHUNK
