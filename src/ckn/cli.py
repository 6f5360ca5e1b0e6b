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
import collections
import functools
import itertools
import json
import math
import os
import sys
from fractions import Fraction
from typing import Iterable, Iterator, List, Optional, Tuple

from .admissible import ThetaSetKind, admissible_set, theta_set
from .classify import Case, CLine, Decision, classify, classify_radial, classify_w0
from .multiweight import multiweight_classify, multiweight_from_dict
from .params import Params, validate_full_space
from .rational import format_rational, parse_rational

EXIT_EMBEDS = 0
EXIT_NO_EMBED = 1
EXIT_INPUT_ERROR = 2
EXIT_PROBE_MISMATCH = 3
EXIT_INTERNAL_ERROR = 4

GRID_CAP_DEFAULT = 10**6
PARAM_NAMES = ("p", "q", "r", "a", "b", "c")
SWEEP_HEADER = ["n", *PARAM_NAMES, "decision", "case", "reason", "c0", "c1", "theta_c"]


def _emit(obj) -> None:
    print(json.dumps(obj, indent=2))


def _config():
    from .panels import DEFAULT_CONFIG

    cfg = DEFAULT_CONFIG
    override = os.environ.get("CKN_QUAD_TOL")
    if override:
        try:
            tol = float(override)
        except ValueError:
            tol = float("nan")
        # inf, nan and tolerances outside (0, 1) make the quadrature wrong
        # or keep it subdividing without end
        if not 0 < tol < 1:
            raise ValueError(f"CKN_QUAD_TOL must be a number in (0, 1), got {override!r}")
        cfg = cfg.with_rel_tol(tol)
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
    # a nan tolerance passes every defect, a negative one fails every report
    if not 0 <= args.defect_tol < math.inf:
        raise ValueError(f"--defect-tol must be a finite number >= 0, got {args.defect_tol!r}")
    params = _parse_params(args)
    verdict = classify(params)
    if verdict.decision is not Decision.EMBEDS:
        _emit({"error": "instance does not embed", **verdict.as_dict()})
        return EXIT_NO_EMBED
    known = theta_set(params)
    if args.theta is not None:
        theta = parse_rational(args.theta, "--theta")
    elif known.theta is not None:
        theta = known.theta
    elif known.lo is not None:
        theta = known.hi  # upper end of the proven range
    elif known.kind is ThetaSetKind.TRIVIAL_ZERO:
        theta = Fraction(0)
    else:
        _emit(
            {
                "error": "no multiplicative exponent exists for this instance",
                "theta_set": known.as_dict(),
                **verdict.as_dict(),
            }
        )
        return EXIT_PROBE_MISMATCH
    # the probes, and with them numpy, are imported by verify and falsify only
    from . import probes

    family = probes.default_w0_family(params) if args.w0_family else probes.default_verification_family(params)
    report = probes.verify_instance(params, theta, family=family, cfg=_config())
    payload = report.as_dict()
    payload["theta_in_known_set"] = known.contains(theta)
    _emit(payload)
    # an out-of-set exponent shows up as scale variance, which is also
    # reported as a probe mismatch (exit 3)
    if not report.ok or report.defect > args.defect_tol:
        return EXIT_PROBE_MISMATCH
    return EXIT_EMBEDS


def cmd_falsify(args) -> int:
    # a negative index walks no member and reports a false probe mismatch
    if args.max_index is not None and args.max_index < 0:
        raise ValueError(f"--max-index must be an integer >= 0, got {args.max_index}")
    params = _parse_params(args)
    verdict = classify(params)
    if verdict.decision is not Decision.DOES_NOT_EMBED:
        _emit({"error": "instance embeds; nothing to falsify", **verdict.as_dict()})
        return EXIT_NO_EMBED
    from . import probes

    report = probes.falsify_instance(params, cfg=_config(), max_index=args.max_index)
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


def _axis_values(start: Fraction, step: Fraction, count: int) -> Iterator[Fraction]:
    current = start
    for _ in range(count):
        yield current
        current += step


def _grid(ranges: List[Tuple[Fraction, Fraction, int]]) -> Iterator[tuple]:
    """The axis values of every grid point, first axis slowest, made one
    point at a time."""
    if not ranges:
        yield ()
        return
    *outer, last = ranges
    for head in _grid(outer):
        for value in _axis_values(*last):
            yield (*head, value)


def _chunks(items: Iterable, size: int) -> Iterator[list]:
    items = iter(items)
    while True:
        chunk = list(itertools.islice(items, size))
        if not chunk:
            return
        yield chunk


def _in_order(pool, fn, chunks: Iterable[list], ahead: int) -> Iterator[list]:
    """fn of each chunk, run in the pool and returned in input order, with
    at most `ahead` chunks in flight.  (`Pool.imap` would keep every
    finished chunk while stdout is slower than the workers.)"""
    pending = collections.deque()
    for chunk in chunks:
        pending.append(pool.apply_async(fn, (chunk,)))
        if len(pending) >= ahead:
            yield pending.popleft().get()
    while pending:
        yield pending.popleft().get()


def _sweep_rows(n: int, points: List[tuple]) -> List[List[str]]:
    """Table rows of the points (p, q, r, a, b, c), labelled on one c-line
    per distinct (p, q, r, a, b); the same rows `classify` gives point by
    point."""
    lines = {}
    rows = []
    key = None
    for point in points:
        # neighbouring rows mostly share their (p, q, r, a, b) objects, and
        # comparing those is cheaper than hashing five Fractions
        if point[:5] != key:
            key = point[:5]
            if key not in lines:
                # `cmd_sweep` has validated the extreme points, which bound
                # every coordinate of every point
                line = CLine(n, *key)
                head = [str(n), *map(format_rational, key)]
                lines[key] = (line, head, str(Fraction(*line.c0)), str(Fraction(*line.c1)))
            line, head, c0, c1 = lines[key]
        c = point[5].as_integer_ratio()
        tag = line.label(c)
        embeds = isinstance(tag, Case)
        rows.append([
            *head,
            format_rational(point[5]),
            (Decision.EMBEDS if embeds else Decision.DOES_NOT_EMBED).value,
            tag.value if embeds else "",
            "" if embeds else tag.value,
            c0,
            c1,
            str(line.core.theta(*c)) if line.distinct else "",
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
    if out_format not in ("csv", "json"):
        raise ValueError(f"sweep format must be 'csv' or 'json', got {out_format!r}")
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

    # each parameter comes from the last axis that sweeps it, else from fixed
    source = {name: k for k, name in enumerate(axis_names)}

    def point(values: tuple) -> tuple:
        return tuple(values[source[k]] if k in source else base[k] for k in PARAM_NAMES)

    if total:
        missing = [k for k in PARAM_NAMES if k not in base and k not in source]
        if missing:
            raise ValueError(f"sweep leaves parameters unset: {missing}")
        # every check bounds one coordinate and the axes increase, so the
        # first and the last point hold each coordinate's extremes
        firsts = tuple(start for start, _, _ in ranges)
        lasts = tuple(start + (count - 1) * step for start, step, count in ranges)
        for values in (firsts, lasts):
            validate_full_space(Params(n, *point(values)))

    rows_of = functools.partial(_sweep_rows, n)
    chunks = _chunks(map(point, _grid(ranges)), 512)
    if args.jobs > 1 and total > 256:
        import multiprocessing

        with multiprocessing.Pool(args.jobs) as pool:
            _write_rows(_in_order(pool, rows_of, chunks, 2 * args.jobs), out_format)
    else:
        _write_rows(map(rows_of, chunks), out_format)
    return EXIT_EMBEDS


def _write_rows(row_chunks: Iterable[List[List[str]]], out_format: str) -> None:
    """Write each chunk of rows as it comes; the JSON form is byte for byte
    `json.dumps(all_rows, indent=2)`."""
    write = sys.stdout.write
    rows = itertools.chain.from_iterable(row_chunks)
    if out_format == "csv":
        write(",".join(SWEEP_HEADER) + "\n")
        for row in rows:
            write(",".join(row) + "\n")
        return
    opening = "[\n  "
    for row in rows:
        write(opening + json.dumps(dict(zip(SWEEP_HEADER, row)), indent=2).replace("\n", "\n  "))
        opening = ",\n  "
    write("[]\n" if opening == "[\n  " else "\n]\n")


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
    mode = sp.add_mutually_exclusive_group()
    mode.add_argument("--radial", action="store_true", help="radial-subspace verdict")
    mode.add_argument("--w0", action="store_true", help="zero-spherical-mean sufficient test")
    mode.add_argument("--multiweight", type=str, help="JSON file with a multi-singularity spec")
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
