#!/usr/bin/env python3
"""Digests of the probe reports and sweep tables on the benchmark's inputs.

Runs verify_instance on the verify input set and falsify_instance on the
falsify input set of seeds 1-3, and prints the number of reports and the
SHA-256 of their as_dict() JSON, one line per report, then the same for
the verify reports alone and for the falsify reports alone, and then how
many of each are not ok, and how many panel integrals the verify and the
falsify reports asked for: unlike the digests, which may move with the
last bits of the BLAS, those counts are the same on every machine.  Then runs
`ckn sweep --jobs 1` on the sweep calls of the same seeds, each in CSV and
in JSON, and prints the number of rows and the SHA-256 of the standard
outputs.  Two checkouts whose outputs are byte-identical print the same
digests, so a change meant to move no number is checked by running this
on the checkout before and after it.

ckn is imported from checkout/src and the input sets from
checkout/benchmark/inputs.py, by default this script's own checkout; the
checkout is only read (no bytecode is written; the sweep specs are written
to a temporary directory).

Usage:
    python3 scripts/report_digest.py [checkout]
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import sys
import tempfile
from pathlib import Path

SEEDS = (1, 2, 3)


def main(argv) -> int:
    root = Path(argv[1] if len(argv) > 1 else Path(__file__).resolve().parent.parent).resolve()
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(root / "src"))
    spec = importlib.util.spec_from_file_location("inputs", root / "benchmark" / "inputs.py")
    inputs = sys.modules["inputs"] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    import ckn
    import ckn.cli
    from ckn import probes, quadrature

    # how many panel integrals each kind's sessions ask for
    panels = {"verify": [0], "falsify": [0]}
    integrate, tally = quadrature.integrate, panels["verify"]

    def counted(g, integrals, cfg):
        tally[0] += len(integrals)
        return integrate(g, integrals, cfg)

    quadrature.integrate = counted
    digest, count = hashlib.sha256(), 0
    kinds = {kind: [hashlib.sha256(), 0, 0] for kind in ("verify", "falsify")}
    for seed in SEEDS:
        reports = []
        tally = panels["verify"]
        for case in inputs.verify_cases(ckn.Params, ckn.classify, seed):
            family = probes.default_w0_family(case.params) if case.first_harmonic else None
            reports.append(("verify", probes.verify_instance(case.params, case.theta, family=family)))
        tally = panels["falsify"]
        for case in inputs.falsify_cases(ckn.Params, ckn.classify, seed):
            reports.append(("falsify", probes.falsify_instance(case.params)))
        for kind, report in reports:
            line = (json.dumps(report.as_dict()) + "\n").encode()
            digest.update(line)
            kinds[kind][0].update(line)
            kinds[kind][1] += 1
            kinds[kind][2] += not report.ok
        count += len(reports)
    print(f"{count} reports, sha256 {digest.hexdigest()}")
    for kind, (kind_digest, kind_count, _) in kinds.items():
        print(f"{kind_count} {kind} reports, sha256 {kind_digest.hexdigest()}")
    print("not ok: " + ", ".join(f"{bad} of {kind_count} {kind} reports" for kind, (_, kind_count, bad) in kinds.items()))
    print("panel integrals: " + ", ".join(f"{total} {kind}" for kind, (total,) in panels.items()))

    digest, rows = hashlib.sha256(), 0
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "sweep.json")
        for seed in SEEDS:
            for call in inputs.sweep_calls(seed):
                for out_format in ("csv", "json"):
                    Path(path).write_text(json.dumps({**call.spec(), "format": out_format}))
                    out = io.StringIO()
                    with contextlib.redirect_stdout(out):
                        code = ckn.cli.main(["sweep", path, "--jobs", "1"])
                    if code != 0:
                        raise SystemExit(f"sweep of {call} in {out_format} exited {code}")
                    digest.update(out.getvalue().encode())
                    rows += call.rows
    print(f"{rows} sweep rows, sha256 {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
