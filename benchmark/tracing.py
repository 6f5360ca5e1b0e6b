"""Per-layer tracing from outside the program.

`Tracer` replaces the bindings of each layer's public functions inside the
`ckn` modules with wrappers that record spans (name, parent, start,
duration, time covered by child spans), and wraps the profile catalog's
`value` / `derivative` methods with counters.  Nothing under `src/`
changes; `install` and `remove` swap the bindings in and out around each
traced operation.
"""

from __future__ import annotations

import json
import os
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

# public function -> span name; weighted_norm* spans are named by the
# angular kind of their test function instead
SPANNED = {
    "main": "cli.sweep",
    "classify": "classify",
    "classify_radial": "classify.radial",
    "derive": "derived.derive",
    "admissible_set": "admissible.admissible_set",
    "theta_set": "admissible.theta_set",
    "verify_instance": "probes.verify",
    "falsify_instance": "probes.falsify",
    "witness_for_verdict": "witnesses.build",
}
NORMS = ("weighted_norm", "weighted_norm_gradient")


class Tracer:
    def __init__(self, lib):
        self.spans = []      # [name, parent, start, duration, child time]
        self.stack = []
        self.evals = 0
        self.points = 0
        self._in_eval = False
        self._patches = []
        originals = {}
        for attr in SPANNED:
            for mod in (lib.cli, lib.classify_mod, lib.derived, lib.admissible,
                        lib.probes, lib.witnesses):
                fn = vars(mod).get(attr)
                if callable(fn) and getattr(fn, "__module__", "").startswith("ckn"):
                    originals[fn] = self._span(SPANNED[attr], fn)
        for attr in NORMS:
            fn = getattr(lib.quadrature, attr)
            originals[fn] = self._norm_span(fn)
        for name in [m for m in sys.modules if m == "ckn" or m.startswith("ckn.")]:
            for attr, value in list(vars(sys.modules[name]).items()):
                wrapper = originals.get(value) if callable(value) else None
                if wrapper is not None:
                    self._patches.append((sys.modules[name], attr, value, wrapper))
        for cls in _subclasses(lib.profiles, lib.profiles.RadialProfile):
            for meth in ("value", "derivative"):
                if meth in vars(cls):
                    fn = vars(cls)[meth]
                    self._patches.append((cls, meth, fn, self._counted(fn)))
        for cls in _subclasses(lib.witnesses, lib.witnesses.WitnessFamily):
            if "member" in vars(cls):
                fn = vars(cls)["member"]
                self._patches.append((cls, "member", fn, self._span("witnesses.member", fn)))

    # -- wrappers -------------------------------------------------------------

    def _open(self, name):
        parent = self.stack[-1] if self.stack else -1
        record = [name, parent, perf_counter(), 0.0, 0.0]
        self.stack.append(len(self.spans))
        self.spans.append(record)
        return record

    def _close(self, record):
        self.stack.pop()
        record[3] = perf_counter() - record[2]
        if record[1] >= 0:
            self.spans[record[1]][4] += record[3]

    def _span(self, name, fn):
        def wrapper(*args, **kwargs):
            record = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(record)
        return wrapper

    def _norm_span(self, fn):
        def wrapper(u, *args, **kwargs):
            record = self._open("quadrature." + u.angular.value)
            try:
                return fn(u, *args, **kwargs)
            finally:
                self._close(record)
        return wrapper

    def _counted(self, fn):
        """Counts outermost catalog evaluations and their points; nested
        calls (a scaled profile evaluating its inner one) are not counted."""
        def wrapper(profile, t):
            if self._in_eval:
                return fn(profile, t)
            self._in_eval = True
            try:
                return fn(profile, t)
            finally:
                self._in_eval = False
                self.evals += 1
                self.points += np.size(t)
        return wrapper

    # -- control ------------------------------------------------------------------

    def install(self):
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def remove(self):
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def take(self):
        """Spans and counters of the last operation; resets them."""
        spans, evals, points = self.spans, self.evals, self.points
        self.spans, self.stack = [], []
        self.evals = self.points = 0
        return spans, evals, points


def _subclasses(module, base):
    return [v for v in vars(module).values() if isinstance(v, type) and issubclass(v, base)]


class LayerTotals:
    """Per-layer sums over the traced operations.  Times are wall times,
    scaled per operation by the reference-loop factor when metrics are
    computed."""

    def __init__(self):
        self.per_op = []     # (count, total, self time) by span name, per op
        self.span_log = []
        self.evals = 0
        self.points = 0
        self.items = 0
        self.untraced = []
        self.traced = []

    def add(self, spans, evals, points, items, label, untraced_s, traced_s):
        count, total, own = defaultdict(int), defaultdict(float), defaultdict(float)
        for name, _, _, duration, child in spans:
            count[name] += 1
            total[name] += duration
            own[name] += duration - child
        self.per_op.append((count, total, own))
        if spans:
            origin = spans[0][2]
            self.span_log.append({"op": label, "spans": [
                [name, parent, round((start - origin) * 1e6, 1), round(duration * 1e6, 1)]
                for name, parent, start, duration, _ in spans]})
        self.evals += evals
        self.points += points
        self.items += items
        self.untraced.append(untraced_s)
        self.traced.append(traced_s)

    def write(self, path, metrics):
        """Spans (name, parent index, start and duration in us, unscaled)
        of every traced operation, with the metrics, as one JSON file."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"metrics": {k: v for k, (v, _) in metrics.items()},
                       "operations": self.span_log}, fh)

    def metrics(self, factors) -> dict:
        count, total, own = defaultdict(int), defaultdict(float), defaultdict(float)
        for (c, t, o), f in zip(self.per_op, factors):
            for name in c:
                count[name] += c[name]
                total[name] += t[name] * f
                own[name] += o[name] * f
        ops = len(self.per_op)

        def per(num, den, scale=1.0):
            return num * scale / den if den else 0.0

        norm_kinds = ("radial", "first_harmonic", "translated")
        norms = sum(count["quadrature." + k] for k in norm_kinds)
        out = {
            "cli.sweep.self_us_per_row": (per(own["cli.sweep"], self.items, 1e6), "us"),
            "classify.calls_per_row": (per(count["classify"], self.items), "count"),
            "classify.us_per_call": (per(total["classify"], count["classify"], 1e6), "us"),
            "derived.derive.calls_per_op": (per(count["derived.derive"], ops), "count"),
            "derived.derive.us_per_call": (
                per(total["derived.derive"], count["derived.derive"], 1e6), "us"),
            "admissible.admissible_set.us_per_call": (
                per(total["admissible.admissible_set"], count["admissible.admissible_set"], 1e6), "us"),
            "admissible.theta_set.us_per_call": (
                per(total["admissible.theta_set"], count["admissible.theta_set"], 1e6), "us"),
            "quadrature.norms_per_op": (per(norms, ops), "count"),
        }
        for kind in norm_kinds:
            name = "quadrature." + kind
            out["quadrature.ms_per_norm." + kind] = (per(total[name], count[name], 1e3), "ms")
        out["profiles.eval_calls_per_norm"] = (per(self.evals, norms), "count")
        out["profiles.points_per_eval_call"] = (per(self.points, self.evals), "count")
        out["witnesses.members_per_op"] = (per(count["witnesses.member"], ops), "count")
        out["witnesses.build_ms"] = (
            per(own["witnesses.build"] + own["witnesses.member"], ops, 1e3), "ms")
        out["probes.verify.self_ms_per_op"] = (per(own["probes.verify"], ops, 1e3), "ms")
        out["probes.falsify.self_ms_per_op"] = (per(own["probes.falsify"], ops, 1e3), "ms")
        untraced, traced = sum(self.untraced), sum(self.traced)
        out["trace.overhead_pct"] = (per(traced - untraced, untraced, 100.0), "%")
        return out
