#!/usr/bin/env python3
"""Self-test of the benchmark's checks.

    python3 benchmark/selftest.py

Runs the program once per workload on small fixed inputs, confirms that
each check accepts the genuine output, then feeds it corrupted copies (a
flipped decision, a perturbed norm, a theta off by 1/100, ...) and
confirms that each one is rejected.  Exits 1 if any check accepts a
corruption or rejects a genuine output.
"""

import contextlib
import io
import json
import math
import os
import shutil
import sys
from dataclasses import replace
from fractions import Fraction as F

import checks
import inputs
import run


def sweep_cases(lib, oracle, workdir):
    call = inputs.SweepCall(3, F(2), F(2), F(2), F(-6), F(1, 8), 48)
    path = os.path.join(workdir, "selftest.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(call.spec(), fh)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        lib.cli.main(["sweep", path, "--jobs", "1"])
    text = buf.getvalue()
    lines = text.splitlines()
    k = next(i for i, line in enumerate(lines) if ",Embeds," in line)

    def edit(index, old, new):
        out = list(lines)
        out[index] = out[index].replace(old, new, 1)
        return "\n".join(out) + "\n"

    fields = lines[k].split(",")
    swapped = list(lines)
    swapped[k], swapped[k + 1] = swapped[k + 1], swapped[k]
    check = lambda t: checks.check_sweep(call, t, oracle)  # noqa: E731
    yield "sweep: genuine output", check(text), False
    yield "sweep: flipped decision", check(edit(k, ",Embeds,", ",DoesNotEmbed,")), True
    yield "sweep: dropped row", check("\n".join(lines[:-1]) + "\n"), True
    yield "sweep: rows out of order", check("\n".join(swapped) + "\n"), True
    yield "sweep: wrong c0", check(edit(k, "," + fields[10] + ",", ",99,")), True
    yield "sweep: theta off", check(edit(k, "," + fields[12], "," + str(F(fields[12]) + F(1, 100)))), True


def exact_cases(lib, oracle):
    ckn = lib.ckn
    P = ckn.Params
    interior = P(3, F(2), F(2), F(2), F(0), F(0), F(-1))
    weighted = P(3, F(2), F(2), F(2), F(-1), F(0), F(-3, 2))

    def outputs(t):
        verdict = ckn.classify(t)
        return (t, verdict, ckn.classify_radial(t), ckn.admissible_set(t),
                ckn.theta_set(t) if verdict.embeds else None,
                ckn.classify(inputs.kelvin(P, t)))

    def check(t, verdict, radial, adm, thetas, mirror):
        return checks.check_exact(t, verdict, radial, adm, thetas, mirror, oracle)

    no = ckn.Decision.DOES_NOT_EMBED
    for t in (interior, weighted):
        args = outputs(t)
        _, verdict, radial, adm, thetas, mirror = args
        yield f"exact {t}: genuine output", check(*args), False
        flipped = replace(verdict, decision=no, case=None)
        yield "exact: flipped decision", check(t, flipped, radial, adm, None, mirror), True
        off = replace(thetas, theta=thetas.theta + F(1, 100))
        yield "exact: theta off by 1/100", check(t, verdict, radial, adm, off, mirror), True
        yield "exact: radial refuses", check(t, verdict, replace(radial, decision=no),
                                             adm, thetas, mirror), True
        empty = ckn.AdmissibleSet(None, ())
        yield "exact: interval misses c", check(t, verdict, radial, empty, thetas, mirror), True
    # both the verdict and its mirror flipped: only the oracle can tell
    t, verdict, radial, adm, thetas, mirror = outputs(interior)
    flipped = replace(verdict, decision=no, case=None)
    yield "exact: flipped against the oracle", check(
        t, flipped, radial, ckn.AdmissibleSet(None, ()), None, replace(mirror, decision=no, case=None)), True


def _bump_norm(triple, key, delta):
    norm = getattr(triple, key)
    return replace(triple, **{key: replace(norm, log_value=norm.log_value + delta)})


def verify_cases(lib):
    P = lib.ckn.Params
    t = P(3, F(2), F(2), F(2), F(0), F(0), F(-1))
    case = inputs.VerifyCase(t, inputs.theta_c_of(t), False)
    report = lib.probes.verify_instance(t, case.theta)
    tail = next(i for i, d in enumerate(report.family) if d["profile"]["kind"] == "power_tail")
    yield "verify: genuine output", checks.check_verify(case, report), False

    members = list(report.members)
    k = next(i for i, m in enumerate(members) if m.scale == 2.0)
    members[k] = replace(members[k], norms=_bump_norm(members[k].norms, "target", 1e-5))
    yield "verify: perturbed norm", checks.check_verify(case, replace(report, members=members)), True

    # the same shift at every scale keeps the scaling law; the Beta form catches it
    members = [replace(m, norms=_bump_norm(m.norms, "source", 1e-6)) if m.member == tail else m
               for m in report.members]
    yield "verify: shifted PowerTail norm", checks.check_verify(case, replace(report, members=members)), True
    yield "verify: scale defect", checks.check_verify(case, replace(report, defect=1e-3)), True
    case_off = replace(case, params=t.with_c(F(-1) + F(1, 100)))
    yield "verify: norms of another instance", checks.check_verify(case_off, report), True


def falsify_cases(lib, oracle):
    P = lib.ckn.Params
    threshold = lib.quadrature.DEFAULT_CONFIG.divergence_threshold
    t = P(3, F(1), F(8), F(8), F(0), F(0), F(39, 4))
    case = inputs.FalsifyCase(t, "fixture")
    triples = []
    compute_norms = lib.probes.compute_norms

    def capture(*args, **kwargs):
        triples.append(compute_norms(*args, **kwargs))
        return triples[-1]

    lib.probes.compute_norms = capture
    try:
        report = lib.probes.falsify_instance(t)
    finally:
        lib.probes.compute_norms = compute_norms

    def check(c=case, r=report, tr=triples):
        return checks.check_falsify(c, r, tr, threshold, oracle)

    yield "falsify: genuine output", check(), False
    yield "falsify: crossing off by one", check(r=replace(report, crossed_at=report.crossed_at - 1)), True
    early = list(report.trace)
    early[0] = replace(early[0], log_ratio=math.log(threshold) + 1.0)
    yield "falsify: earlier entry over the threshold", check(r=replace(report, trace=early)), True
    divergent = list(triples)
    divergent[0] = replace(divergent[0], grad=lib.quadrature.NormValue.divergent("corrupted"))
    yield "falsify: divergent gradient norm", check(tr=divergent), True
    yield "falsify: missing member norms", check(tr=triples[:-1]), True
    embedding = inputs.FalsifyCase(P(3, F(2), F(2), F(2), F(0), F(0), F(-1)), "fixture")
    yield "falsify: oracle says it embeds", check(c=embedding), True


def main() -> int:
    sys.path.insert(0, run.SRC)
    lib = run.load_program()
    oracle = run.load_oracle()
    workdir = os.path.join(run.OUT, f"selftest-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    results = []
    try:
        for source in (sweep_cases(lib, oracle, workdir), exact_cases(lib, oracle),
                       verify_cases(lib), falsify_cases(lib, oracle)):
            results += list(source)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    bad = 0
    for label, problems, corrupted in results:
        ok = bool(problems) == corrupted
        bad += not ok
        verdict = "rejected" if problems else "accepted"
        print(f"{'ok  ' if ok else 'FAIL'} {label}: {verdict}"
              + (f" ({problems[0]})" if problems and not ok else ""))
    print(f"{len(results) - bad}/{len(results)} self-test cases behave as expected")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
