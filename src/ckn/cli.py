"""Batch front-end: classify, interval, theta, verify, falsify, sweep.

All parameters are exact rationals on the wire ("num/den" or integer
strings); decimal input is rejected with a hint.  Outputs are JSON with
stable key order and canonical rational strings, so identical inputs give
byte-identical output.  `sweep` writes a CSV or JSON table computed in
integers, labelling each c-line once per open piece between its marks
(`cmd_sweep`).

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
import operator
import os
import sys
from fractions import Fraction
from typing import Iterable, Iterator, List, Optional, Tuple

from .admissible import ThetaSetKind, _theta_set, admissible_set
from .classify import Case, CLine, Decision, Reason, classify, classify_radial, classify_w0
from .multiweight import multiweight_classify, multiweight_from_dict
from .params import Params, validate_full_space
from .rational import Pair, parse_rational, reduced

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
    from .panels import DEFAULT_CONFIG, QuadratureConfig

    override = os.environ.get("CKN_QUAD_TOL")
    if not override:
        return DEFAULT_CONFIG
    try:
        tol = float(override)
    except ValueError:
        tol = float("nan")
    # inf, nan and tolerances outside (0, 1) make the quadrature wrong
    # or keep it subdividing without end
    if not 0 < tol < 1:
        raise ValueError(f"CKN_QUAD_TOL must be a number in (0, 1), got {override!r}")
    return QuadratureConfig(rel_tol=tol)


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
            "theta_set": _theta_set(params, verdict).as_dict(),
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
    known = _theta_set(params, verdict)
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
    report = probes._verify_instance(params, verdict, theta, family, cfg=_config())
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


def _axis_values(start: Fraction, step: Fraction, count: int) -> Iterator[Pair]:
    """The count values start + k step as reduced (num, den) pairs, den > 0,
    written over one common denominator: one add and one gcd per value."""
    den = math.lcm(start.denominator, step.denominator)
    num = start.numerator * (den // start.denominator)
    inc = step.numerator * (den // step.denominator)
    for _ in range(count):
        g = math.gcd(num, den)
        yield num // g, den // g
        num += inc


def _grid(fixed: tuple, ranges: List[Tuple[Fraction, Fraction, int]]) -> Iterator[tuple]:
    """fixed followed by the axis values of every grid point, first axis
    slowest, made one point at a time."""
    if not ranges:
        yield fixed
        return
    *outer, last = ranges
    for head in _grid(fixed, outer):
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


def _text(num: int, den: int) -> str:
    """str(Fraction(num, den)) of a pair in lowest terms, den > 0."""
    return str(num) if den == 1 else f"{num}/{den}"


# the decision, case and reason cells of each label
_CELLS = {
    **{case: (Decision.EMBEDS.value, case.value, "") for case in Case},
    **{reason: (Decision.DOES_NOT_EMBED.value, "", reason.value) for reason in Reason},
}
# -inf and +inf as pairs: every c lies strictly between them
_BELOW, _ABOVE = (-1, 0), (1, 0)


class _SweepLine:
    """One c-line of a sweep: its `CLine`, the text of n, p, q, r, a, b and
    of c0, c1, its marks, and the open piece (lo, hi) between neighbouring
    marks that its last labelled row fell in, with that row's cells.

    The label changes only at c0, c1, -N and c_bar (when the theta-condition
    has one), so a row strictly inside the piece keeps its cells; off the r
    range the whole line is one piece.  A row on a mark, or outside the
    piece, is labelled and starts a new piece, empty for a mark.
    """

    __slots__ = ("line", "head", "ends", "marks", "theta", "lo", "hi", "cells")

    def __init__(self, n: int, key: tuple):
        # `cmd_sweep` has validated the extreme points, which bound every
        # coordinate of every point
        line = self.line = CLine(n, *key)
        self.head = (str(n), *(_text(*x) for x in key))
        self.ends = (_text(*reduced(*line.c0)), _text(*reduced(*line.c1)))
        marks = (line.c0, line.c1, line.mn) + (() if line.c_bar is None else (line.c_bar,))
        self.marks = marks if line.r_ok else ()
        self.theta = line.core.theta_pair if line.distinct else None
        # no c lies strictly between 0 and 0: the first row is labelled
        self.lo = self.hi = (0, 1)
        self.cells = None

    def relabel(self, c: Pair) -> tuple:
        """The cells of c, which starts a new piece."""
        self.cells = _CELLS[self.line.label(c)]
        lo, hi = _BELOW, _ABOVE
        cn, cd = c
        for mark in self.marks:
            mn, md = mark
            side = mn * cd - cn * md  # sign of mark - c
            if side < 0:
                if mn * lo[1] > lo[0] * md:
                    lo = mark
            elif side > 0:
                if mn * hi[1] < hi[0] * md:
                    hi = mark
            else:
                lo = hi = c
                break
        self.lo, self.hi = lo, hi
        return self.cells


def _sweep_rows(n: int, points: List[tuple]) -> List[tuple]:
    """Table rows of the points (p, q, r, a, b, c) of (num, den) pairs: the
    rows `classify` gives point by point, labelled once per open piece of
    each c-line between its marks (`_SweepLine`)."""
    lines = {}
    rows = []
    key = None
    for point in points:
        # neighbouring rows mostly share their (p, q, r, a, b) objects, and
        # comparing those is cheaper than hashing five pairs
        if point[:5] != key:
            key = point[:5]
            line = lines.get(key)
            if line is None:
                line = lines[key] = _SweepLine(n, key)
            head, ends, theta = line.head, line.ends, line.theta
        c = point[5]
        cn, cd = c
        lo, hi = line.lo, line.hi
        if lo[0] * cd < cn * lo[1] and cn * hi[1] < hi[0] * cd:
            cells = line.cells
        else:
            cells = line.relabel(c)
        rows.append((
            *head,
            _text(cn, cd),
            *cells,
            *ends,
            "" if theta is None else _text(*theta(cn, cd)),
        ))
    return rows


def cmd_sweep(args) -> int:
    """Classify every point of the spec's grid and write one row per point.

    The whole spec is checked before anything is written.  Axis values are
    integer (num, den) pairs, rows are labelled once per open piece of
    their c-line between c0, c1, -N and c_bar (`_SweepLine`), and all text
    is written from the pairs, byte for byte `str(Fraction)`.  --jobs must
    be at least 1; the pool has at most one worker per core and per chunk
    of 512 points, and none when that is one.
    """
    # a count below 1 would run sequentially without a word
    if args.jobs < 1:
        raise ValueError(f"--jobs must be an integer >= 1, got {args.jobs}")
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

    # a grid point is the fixed values followed by the axis values; each
    # parameter comes from the last axis that sweeps it, else from fixed
    source = {name: len(PARAM_NAMES) + k for k, name in enumerate(axis_names)}
    point = operator.itemgetter(*(source.get(name, k) for k, name in enumerate(PARAM_NAMES)))
    fixed_values = tuple(base.get(name) for name in PARAM_NAMES)

    if total:
        missing = [k for k in PARAM_NAMES if k not in base and k not in source]
        if missing:
            raise ValueError(f"sweep leaves parameters unset: {missing}")
        # every check bounds one coordinate and the axes increase, so the
        # first and the last point hold each coordinate's extremes
        firsts = tuple(start for start, _, _ in ranges)
        lasts = tuple(start + (count - 1) * step for start, step, count in ranges)
        for values in (firsts, lasts):
            validate_full_space(Params(n, *point(fixed_values + values)))

    fixed_pairs = tuple(None if value is None else value.as_integer_ratio() for value in fixed_values)
    rows_of = functools.partial(_sweep_rows, n)
    chunks = _chunks(map(point, _grid(fixed_pairs, ranges)), 512)
    # no more workers than cores or chunks
    workers = min(args.jobs, os.cpu_count() or 1, -(-total // 512))
    if workers > 1:
        import multiprocessing

        with multiprocessing.Pool(workers) as pool:
            _write_rows(_in_order(pool, rows_of, chunks, 2 * workers), out_format)
    else:
        _write_rows(map(rows_of, chunks), out_format)
    return EXIT_EMBEDS


# one JSON row of `json.dumps(rows, indent=2)`, with a %s per cell
_JSON_ROW = "{\n    " + ",\n    ".join(f"{json.dumps(key)}: %s" for key in SWEEP_HEADER) + "\n  }"


def _write_rows(row_chunks: Iterable[List[tuple]], out_format: str) -> None:
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
        write(opening + _JSON_ROW % tuple(map(json.dumps, row)))
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
    sp.add_argument("--jobs", type=int, default=1,
                    help="worker processes, at most one per core and per 512 points (output order is unchanged)")
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
