#!/usr/bin/env python3
"""Benchmark of the ckn package: one workload per process.

    python3 benchmark/run.py --workload sweep-c --seed 1 --seconds 20 --trace 0

Workloads: sweep-c, exact-random, verify, falsify (see README.md).  The
last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; `--trace 0` reports the end-to-end
metrics, `--trace 1` the per-layer metrics of a traced run.  Details go to
standard error.  The program is imported from `src/` of the checkout this
file sits in; without it the benchmark exits with code 2 and prints no
result.
"""

import os

# single-threaded numerics: the process measures one core's work
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import bisect
import contextlib
import gc
import importlib
import importlib.util
import io
import json
import math
import resource
import shutil
import statistics
import sys
import traceback
from dataclasses import dataclass
from fractions import Fraction as F
from time import perf_counter
from types import SimpleNamespace
from typing import Callable, List, Tuple

import numpy as np

import checks
import inputs
from tracing import LayerTotals, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
ORACLE = os.path.join(ROOT, "tests", "oracle_unweighted.py")
OUT = os.path.join(HERE, "out")

SETUP_REPEATS = 5

# Reference loop: a fixed mix of Fraction arithmetic, numpy calls on small
# arrays and plain interpreter work, the kinds of work the program does.  It
# is timed after every operation.  The machine switches between a normal and
# a fast state (the loop takes about 0.48 or 0.30 ms) from one second to the
# next.  The loop's time moves more strongly than the workloads' do (their
# times change by the loop's ratio to the power 0.5 to 0.7), so each time is
# multiplied by
#     (REF_MS / median loop time within REF_WINDOW_S seconds) ** REF_ELASTICITY.
REF_MS = 0.5
REF_WINDOW_S = 1.0
REF_ELASTICITY = 0.6
_REF_GRID = np.linspace(0.5, 2.0, 16 * 48).reshape(16, 48)
_REF_WEIGHTS = np.linspace(0.0, 1.0, 48)


def reference_work():
    acc = F(0)
    for k in range(1, 40):
        acc += F(k, k + 1) * F(3, 7)
    x, y = _REF_GRID, None
    for _ in range(10):
        x = np.power(1.0 + 0.1 * x, 1.3)
        y = x @ _REF_WEIGHTS
    s = 0
    for i in range(1000):
        s += i * i % 7
    return acc, y, s


def reference_ms() -> float:
    """Fastest of three timed passes after an untimed one, with the garbage
    collector off, so that the heap the last operation left behind and
    cold caches do not count."""
    gc.disable()
    try:
        reference_work()
        best = math.inf
        for _ in range(3):
            t0 = perf_counter()
            reference_work()
            best = min(best, perf_counter() - t0)
    finally:
        gc.enable()
    return best * 1e3


def speed_factor(ref_ms: float) -> float:
    return (REF_MS / ref_ms) ** REF_ELASTICITY


@dataclass(frozen=True)
class Op:
    """One timed call and the evaluation of its result.

    `evaluate(result)` returns (failed, problems): a failed operation did
    not produce a usable result (the program reported failure); problems
    are outputs that the independent checks reject."""

    label: str
    items: int
    call: Callable[[], object]
    evaluate: Callable[[object], Tuple[bool, List[str]]]


# ---------------------------------------------------------------------------
# program loading
# ---------------------------------------------------------------------------


def load_program() -> SimpleNamespace:
    """Import ckn afresh from the checkout's src/ (earlier imports dropped)."""
    for name in [m for m in sys.modules if m == "ckn" or m.startswith("ckn.")]:
        del sys.modules[name]
    mods = {name: importlib.import_module("ckn." + name)
            for name in ("cli", "classify", "derived", "admissible", "probes",
                         "quadrature", "profiles", "witnesses")}
    ckn = sys.modules["ckn"]
    if os.path.dirname(os.path.abspath(ckn.__file__)) != os.path.join(SRC, "ckn"):
        raise ImportError(f"ckn was imported from {ckn.__file__}, not from {SRC}")
    return SimpleNamespace(ckn=ckn, classify_mod=mods.pop("classify"), **mods)


def load_oracle():
    spec = importlib.util.spec_from_file_location("oracle_unweighted", ORACLE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.unweighted_embeds


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def sweep_workload(lib, seed, oracle, workdir):
    def op(call, path):
        def run():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = lib.cli.main(["sweep", path, "--jobs", "1"])
            return code, buf.getvalue()

        def evaluate(result):
            code, text = result
            if code != 0:
                return True, []
            return False, checks.check_sweep(call, text, oracle)

        return Op(f"sweep n={call.n} p={call.p} q={call.q} r={call.r}", call.rows, run, evaluate)

    def write(call, name):
        path = os.path.join(workdir, name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(call.spec(), fh)
        return path

    ops = [op(call, write(call, f"c{k:02d}.json"))
           for k, call in enumerate(inputs.sweep_calls(seed))]
    warm = inputs.warmup_sweep_call()
    return ops, op(warm, write(warm, "warmup.json"))


def exact_workload(lib, seed, oracle, workdir):
    ckn = lib.ckn

    def op(k, batch):
        def run():
            out = []
            for t in batch:
                verdict = ckn.classify(t)
                out.append((verdict, ckn.classify_radial(t), ckn.admissible_set(t),
                            ckn.theta_set(t) if verdict.embeds else None))
            return out

        def evaluate(result):
            problems = []
            for t, (verdict, radial, adm, thetas) in zip(batch, result):
                mirror = ckn.classify(inputs.kelvin(ckn.Params, t))
                problems += checks.check_exact(t, verdict, radial, adm, thetas, mirror, oracle)
            return False, problems[:5]

        return Op(f"batch {k}", len(batch), run, evaluate)

    ops = [op(k, b) for k, b in enumerate(inputs.exact_batches(ckn.Params, seed))]
    warm = inputs.exact_batches(ckn.Params, 0, batches=1)[0]
    return ops, op("warmup", warm)


def verify_workload(lib, seed, oracle, workdir):
    probes = lib.probes

    def op(case):
        def run():
            family = None
            if case.first_harmonic:
                family = probes.default_w0_family(case.params)
            return probes.verify_instance(case.params, case.theta, family=family)

        def evaluate(report):
            if not report.ok:
                return True, []
            return False, checks.check_verify(case, report)

        label = ("w0 " if case.first_harmonic else "") + str(case.params)
        return Op(label, 1, run, evaluate)

    cases = inputs.verify_cases(lib.ckn.Params, lib.ckn.classify, seed)
    warm = lib.ckn.Params(*inputs.VERIFY_WARMUP)
    return [op(c) for c in cases], op(inputs.VerifyCase(warm, inputs.theta_c_of(warm), False))


def falsify_workload(lib, seed, oracle, workdir):
    probes = lib.probes
    threshold = lib.quadrature.DEFAULT_CONFIG.divergence_threshold
    triples = []
    compute_norms = probes.compute_norms

    def capture(*args, **kwargs):
        triple = compute_norms(*args, **kwargs)
        triples.append(triple)
        return triple

    # keeps each member's norms for the checks; one list append per member
    probes.compute_norms = capture

    def op(case):
        def run():
            triples.clear()
            report = probes.falsify_instance(case.params)
            return report, list(triples)

        def evaluate(result):
            report, members = result
            if not report.ok:
                return True, []
            return False, checks.check_falsify(case, report, members, threshold, oracle)

        return Op(f"{case.stratum} {case.params}", 1, run, evaluate)

    cases = inputs.falsify_cases(lib.ckn.Params, lib.ckn.classify, seed)
    warm = lib.ckn.Params(*inputs.FALSIFY_WARMUP)
    return [op(c) for c in cases], op(inputs.FalsifyCase(warm, "warmup"))


WORKLOADS = {
    # name: (builder, tail percentile); the tail is the highest percentile
    # that leaves ten operations of one round beyond it
    "sweep-c": (sweep_workload, 82),
    "exact-random": (exact_workload, 90),
    "verify": (verify_workload, 80),
    "falsify": (falsify_workload, 96),
}


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------


class Tally:
    """Raw wall times of the operations, reference-loop samples taken after
    each one, and the outcome of every check."""

    def __init__(self):
        self.raw = []
        self.stamps = []
        self.refs = []
        self.items = 0
        self.attempted = 0
        self.failed = []
        self.problems = []

    def record(self, op, result, error, stamp, seconds, ref):
        self.attempted += 1
        self.stamps.append(stamp)
        self.raw.append(seconds)
        self.refs.append(ref)
        self.items += op.items
        if error is not None:
            self.failed.append(f"{op.label}: {error}")
            return
        failed, problems = op.evaluate(result)
        if failed:
            self.failed.append(f"{op.label}: reported failure")
        self.problems += problems

    def factors(self):
        """Speed factor of each operation from the reference-loop times
        within REF_WINDOW_S seconds of it."""
        out = []
        for stamp in self.stamps:
            lo = bisect.bisect_left(self.stamps, stamp - REF_WINDOW_S)
            hi = bisect.bisect_right(self.stamps, stamp + REF_WINDOW_S)
            out.append(speed_factor(statistics.median(self.refs[lo:hi])))
        return out

    def latencies(self):
        return [seconds * f for seconds, f in zip(self.raw, self.factors())]


def timed(call):
    t0 = perf_counter()
    try:
        result = call()
    except Exception as exc:  # an operation that raises counts as failed
        traceback.print_exc(file=sys.stderr)
        return None, repr(exc), perf_counter() - t0
    return result, None, perf_counter() - t0


def setup(name, seed, oracle, workdir):
    """SETUP_REPEATS fresh imports of ckn, input builds and warm-up calls;
    returns the program, the operations and the median set-up time."""
    builder = WORKLOADS[name][0]
    times = []
    for _ in range(SETUP_REPEATS):
        ref_before = reference_ms()
        t0 = perf_counter()
        lib = load_program()
        ops, warm = builder(lib, seed, oracle, workdir)
        result, error, _ = timed(warm.call)
        elapsed = perf_counter() - t0
        if error is not None or warm.evaluate(result) != (False, []):
            raise RuntimeError(f"warm-up operation failed: {error or warm.evaluate(result)}")
        times.append(elapsed * speed_factor((ref_before + reference_ms()) / 2))
    return lib, ops, statistics.median(times)


def measure(ops, seconds, tracer=None, layers=None):
    """Whole rounds over `ops` until less than half a round of the budget
    is left.  With a tracer, each operation runs untraced and then traced."""
    tally = Tally()
    start = perf_counter()
    rounds = 0
    while True:
        round_start = perf_counter()
        for op in ops:
            stamp = perf_counter()
            result, error, seconds_op = timed(op.call)
            if tracer is not None:
                untraced = seconds_op
                tracer.install()
                try:
                    result, error, seconds_op = timed(op.call)
                finally:
                    tracer.remove()
                layers.add(*tracer.take(), op.items, op.label, untraced, seconds_op)
            tally.record(op, result, error, stamp, seconds_op, reference_ms())
        rounds += 1
        last_round = perf_counter() - round_start
        if seconds - (perf_counter() - start) < last_round / 2:
            return tally, rounds


def percentile(values, pct):
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def end_to_end(tally, tail_pct, setup_s):
    latencies = tally.latencies()
    lat_ms = [x * 1e3 for x in latencies]
    return {
        "setup_s": (setup_s, "s"),
        "items_per_s": (tally.items / sum(latencies), "1/s"),
        "latency_ms_p50": (statistics.median(lat_ms), "ms"),
        "latency_ms_tail": (percentile(lat_ms, tail_pct), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "ckn", "__init__.py")) or not os.path.isfile(ORACLE):
        print(f"ckn sources or the unweighted oracle not found under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    oracle = load_oracle()

    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        lib, ops, setup_s = setup(args.workload, args.seed, oracle, workdir)
        tracer = Tracer(lib) if args.trace else None
        layers = LayerTotals() if args.trace else None
        tally, rounds = measure(ops, args.seconds, tracer, layers)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    tail_pct = WORKLOADS[args.workload][1]
    if args.trace:
        metrics = layers.metrics(tally.factors())
        layers.write(os.path.join(OUT, f"trace-{args.workload}-{args.seed}.json"), metrics)
    else:
        metrics = end_to_end(tally, tail_pct, setup_s)
    for line in tally.failed:
        print(f"failed: {line}", file=sys.stderr)
    for line in tally.problems[:20]:
        print(f"CHECK: {line}", file=sys.stderr)
    raw_ms = [x * 1e3 for x in tally.raw]
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "rounds": rounds,
        "ops": tally.attempted, "tail_pct": tail_pct,
        "raw_ms_p50": statistics.median(raw_ms),
        "raw_ms_tail": percentile(raw_ms, tail_pct),
        "raw_items_per_s": tally.items / sum(tally.raw),
        "ref_ms_quartiles": statistics.quantiles(tally.refs, n=4),
    }), file=sys.stderr)
    print(json.dumps({
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": len(tally.failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
