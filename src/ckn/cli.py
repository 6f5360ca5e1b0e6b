"""Batch front-end: classify, interval, theta, verify, falsify, sweep.

All parameters are exact rationals on the wire ("num/den" or integer
strings); decimal input is rejected with a hint.  Outputs are JSON with
stable key order and canonical rational strings, so identical inputs give
byte-identical output.

Exit codes: 0 embedding (or success), 1 no embedding (or precondition
verdict mismatch), 2 input error, 3 classifier/probe mismatch, 4 internal
error (a fault of the program, reported as {"error": "internal error: ..."}
on stderr).
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
from fractions import Fraction
from typing import List, Optional, Tuple

from .admissible import ThetaSetKind, admissible_set, theta_set
from .classify import Case, CLine, Decision, classify, classify_radial, classify_w0
from .derived import derive
from .multiweight import multiweight_classify, multiweight_from_dict
from .params import Params, validate_full_space
from .probes import (
    default_verification_family,
    default_w0_family,
    falsify_instance,
    verify_instance,
)
from .quadrature import DEFAULT_CONFIG
from .rational import format_optional, format_rational, parse_rational

EXIT_EMBEDS = 0
EXIT_NO_EMBED = 1
EXIT_INPUT_ERROR = 2
EXIT_PROBE_MISMATCH = 3
EXIT_INTERNAL_ERROR = 4

GRID_CAP_DEFAULT = 10**6
PARAM_NAMES = ("p", "q", "r", "a", "b", "c")


def _emit(obj) -> None:
    print(json.dumps(obj, indent=2))


def _config():
    cfg = DEFAULT_CONFIG
    override = os.environ.get("CKN_QUAD_TOL")
    if override:
        cfg = cfg.with_rel_tol(float(override))
    return cfg


def _parse_params(args, need_c: bool = True) -> Params:
    values = {}
    for name in ("p", "q", "r", "a", "b") + (("c",) if need_c else ()):
        raw = getattr(args, name)
        if raw is None:
            raise ValueError(f"--{name} is required")
        values[name] = parse_rational(raw, f"--{name}")
    c = values.pop("c", Fraction(0))
    return Params(n=args.n, c=c, **values)


def cmd_classify(args) -> int:
    params = _parse_params(args)
    if args.multiweight:
        with open(args.multiweight, "r", encoding="utf-8") as fh:
            spec = multiweight_from_dict(json.load(fh))
        verdict = multiweight_classify(spec)
        _emit({"mode": "multiweight", "spec": spec.as_dict(), **verdict.as_dict()})
        return EXIT_EMBEDS if verdict.embeds else EXIT_NO_EMBED
    if args.radial:
        verdict = classify_radial(params)
        _emit({"mode": "radial", "params": params.as_dict(), **verdict.as_dict()})
        return EXIT_EMBEDS if verdict.embeds else EXIT_NO_EMBED
    if args.w0:
        result = classify_w0(params)
        _emit(
            {
                "mode": "w0",
                "params": params.as_dict(),
                "decision": result.value,
                "note": "sufficient criterion only; Unknown is not a refusal",
            }
        )
        return EXIT_EMBEDS if result.value == "Embeds" else EXIT_NO_EMBED
    verdict = classify(params)
    _emit({"mode": "full", "params": params.as_dict(), **verdict.as_dict()})
    return EXIT_EMBEDS if verdict.embeds else EXIT_NO_EMBED


def cmd_interval(args) -> int:
    params = _parse_params(args, need_c=False)
    result = admissible_set(params)
    _emit({"params": params.as_dict(), "admissible": result.as_dict()})
    return EXIT_EMBEDS


def cmd_theta(args) -> int:
    params = _parse_params(args)
    verdict = classify(params)
    if verdict.decision is not Decision.EMBEDS:
        _emit({"params": params.as_dict(), "theta_set": None, **verdict.as_dict()})
        return EXIT_NO_EMBED
    _emit(
        {
            "params": params.as_dict(),
            "theta_set": theta_set(params).as_dict(),
            **verdict.as_dict(),
        }
    )
    return EXIT_EMBEDS


def cmd_verify(args) -> int:
    params = _parse_params(args)
    verdict = classify(params)
    if verdict.decision is not Decision.EMBEDS:
        _emit({"error": "instance does not embed", **verdict.as_dict()})
        return EXIT_NO_EMBED
    if args.theta is not None:
        theta = parse_rational(args.theta, "--theta")
    else:
        ts = theta_set(params)
        if ts.theta is not None:
            theta = ts.theta
        elif ts.lo is not None:
            theta = ts.hi  # upper end of the proven range
        elif ts.kind is ThetaSetKind.TRIVIAL_ZERO:
            theta = Fraction(0)
        else:
            _emit(
                {
                    "error": "no multiplicative exponent exists for this instance",
                    "theta_set": ts.as_dict(),
                    **verdict.as_dict(),
                }
            )
            return EXIT_PROBE_MISMATCH
    family = default_w0_family(params) if args.w0_family else default_verification_family(params)
    report = verify_instance(params, theta, family=family, cfg=_config())
    payload = report.as_dict()
    payload["theta_in_known_set"] = theta_set(params).contains(theta)
    _emit(payload)
    # an out-of-set exponent shows up as scale variance, which is also
    # reported as a probe mismatch (exit 3)
    if not report.ok or report.defect > args.defect_tol:
        return EXIT_PROBE_MISMATCH
    return EXIT_EMBEDS


def cmd_falsify(args) -> int:
    params = _parse_params(args)
    verdict = classify(params)
    if verdict.decision is not Decision.DOES_NOT_EMBED:
        _emit({"error": "instance embeds; nothing to falsify", **verdict.as_dict()})
        return EXIT_NO_EMBED
    report = falsify_instance(params, cfg=_config(), max_index=args.max_index)
    _emit(report.as_dict())
    return EXIT_EMBEDS if report.ok else EXIT_PROBE_MISMATCH


def _axis_range(axis: dict) -> Tuple[Fraction, Fraction, int]:
    """(start, step, number of points) of a sweep axis, without building it."""
    start = parse_rational(str(axis["start"]), "axis.start")
    stop = parse_rational(str(axis["stop"]), "axis.stop")
    step = parse_rational(str(axis["step"]), "axis.step")
    if step <= 0:
        raise ValueError("axis.step must be positive")
    return start, step, max(0, (stop - start) // step + 1)


def _axis_values(start: Fraction, step: Fraction, count: int) -> List[Fraction]:
    values = []
    current = start
    for _ in range(count):
        values.append(current)
        current += step
    return values


def _sweep_rows(points: List[Params]) -> List[List[str]]:
    """Table rows of the points, labelled on one c-line per distinct
    (p, q, r, a, b); the same rows `classify` gives point by point."""
    lines = {}
    rows = []
    for params in points:
        key = (params.p, params.q, params.r, params.a, params.b)
        if key not in lines:
            validate_full_space(params)
            d = derive(params)
            lines[key] = (CLine(params, d), d)
        line, d = lines[key]
        theta = None if d.slopes_equal else d.theta_of(params.c)
        tag = line.label(params.c, theta)
        embeds = isinstance(tag, Case)
        rows.append([
            str(params.n),
            *(format_rational(getattr(params, k)) for k in PARAM_NAMES),
            (Decision.EMBEDS if embeds else Decision.DOES_NOT_EMBED).value,
            tag.value if embeds else "",
            "" if embeds else tag.value,
            format_rational(d.c0),
            format_rational(d.c1),
            format_optional(theta) or "",
        ])
    return rows


def cmd_sweep(args) -> int:
    with open(args.spec, "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    if not isinstance(spec, dict):
        raise ValueError("sweep spec must be a JSON object")
    fixed = spec.get("fixed", {})
    axes = spec.get("axes", [])
    if not isinstance(fixed, dict) or not isinstance(axes, list) or not all(
        isinstance(axis, dict) for axis in axes
    ):
        raise ValueError("sweep spec needs a 'fixed' object and a list of 'axes' objects")
    out_format = spec.get("format", "csv")
    cap = int(spec.get("cap", GRID_CAP_DEFAULT))

    n = int(fixed["n"])
    base = {
        key: parse_rational(str(fixed[key]), key)
        for key in PARAM_NAMES
        if key in fixed
    }
    axis_names = [axis["param"] for axis in axes]
    for name in axis_names:
        if name == "n":
            raise ValueError("sweeping the dimension is not supported")
        if name not in PARAM_NAMES:
            raise ValueError(f"unknown sweep parameter {name!r}")
    ranges = [_axis_range(axis) for axis in axes]

    total = 1
    for _, _, count in ranges:
        total *= count
    if total > cap:
        raise ValueError(f"sweep grid of {total} points exceeds the cap {cap}")
    axis_values = [_axis_values(*axis_range) for axis_range in ranges]

    points: List[Params] = []
    for combo in itertools.product(*axis_values) if axes else [()]:
        entries = dict(base)
        for name, value in zip(axis_names, combo):
            entries[name] = value
        missing = [k for k in PARAM_NAMES if k not in entries]
        if missing:
            raise ValueError(f"sweep leaves parameters unset: {missing}")
        points.append(Params(n=n, **entries))

    jobs = max(1, args.jobs)
    if jobs > 1 and len(points) > 256:
        import multiprocessing

        chunks = [points[k:k + 512] for k in range(0, len(points), 512)]
        with multiprocessing.Pool(jobs) as pool:
            # results buffered and emitted in input order
            rows_out = [row for rows in pool.map(_sweep_rows, chunks) for row in rows]
    else:
        rows_out = _sweep_rows(points)

    writer = sys.stdout
    header = ["n", "p", "q", "r", "a", "b", "c", "decision", "case", "reason", "c0", "c1", "theta_c"]
    if out_format == "csv":
        writer.write(",".join(header) + "\n")
        for row in rows_out:
            writer.write(",".join(row) + "\n")
    else:
        _emit([dict(zip(header, row)) for row in rows_out])
    return EXIT_EMBEDS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ckn",
        description=(
            "classify weighted Sobolev embedding instances, compute admissible "
            "intervals and multiplicative exponents, and run numerical probes"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_params(sp, need_c=True):
        sp.add_argument("--n", type=int, required=True, help="dimension (integer >= 1)")
        for name in ("p", "q", "r", "a", "b"):
            sp.add_argument(f"--{name}", type=str, required=True)
        if need_c:
            sp.add_argument("--c", type=str, required=True)

    sp = sub.add_parser("classify", help="embedding verdict with derived quantities")
    add_params(sp)
    sp.add_argument("--radial", action="store_true", help="radial-subspace verdict")
    sp.add_argument("--w0", action="store_true", help="zero-spherical-mean sufficient test")
    sp.add_argument("--multiweight", type=str, help="JSON file with a multi-singularity spec")
    sp.set_defaults(func=cmd_classify)

    sp = sub.add_parser("interval", help="exact admissible set of c")
    add_params(sp, need_c=False)
    sp.set_defaults(func=cmd_interval)

    sp = sub.add_parser("theta", help="known multiplicative exponents")
    add_params(sp)
    sp.set_defaults(func=cmd_theta)

    sp = sub.add_parser("verify", help="multiplicative-ratio probe on an embedding instance")
    add_params(sp)
    sp.add_argument("--theta", type=str, help="exponent override (canonical rational)")
    sp.add_argument("--w0-family", action="store_true", help="use first-harmonic members")
    sp.add_argument("--defect-tol", type=float, default=1e-6)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("falsify", help="witness-family probe on a non-embedding instance")
    add_params(sp)
    sp.add_argument("--max-index", type=int, default=None)
    sp.set_defaults(func=cmd_falsify)

    sp = sub.add_parser("sweep", help="classify a rational parameter grid from a spec file")
    sp.add_argument("spec", type=str)
    sp.add_argument("--jobs", type=int, default=1, help="worker processes (output order is unchanged)")
    sp.set_defaults(func=cmd_sweep)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return EXIT_INPUT_ERROR
    except Exception as exc:  # a fault of the program, not of its input
        message = f"internal error: {type(exc).__name__}: {exc}"
        print(json.dumps({"error": message}), file=sys.stderr)
        return EXIT_INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
