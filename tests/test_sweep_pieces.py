"""`ckn sweep` labels each c-line once per open piece between its marks
c0, c1, -N and c_bar; every row must still be `classify` at its point.

Seeded lines of every shape are swept along a c-axis that lands on each
mark and along one that straddles them all, so that rows inside a piece
reuse its label and rows on a mark are labelled afresh.
"""

import json
import math
import random
from fractions import Fraction as F

import pytest

from ckn import Params, classify
from ckn.classify import CLine
from ckn.cli import main

PER_KIND = 3
MAX_ROWS = 400


def _rational(rng, lo, hi, den):
    d = rng.randint(1, den)
    return F(rng.randint(lo * d, hi * d), d)


def _kind(n, p, q, r, a, b, line):
    """The shape of a line: how its c0, c1, -N and c_bar lie."""
    if not line.r_ok:
        return "r out of range"
    if line.c_bar is None:
        return "no c_bar" if line.distinct else None
    if not line.distinct:
        return "eta = 0" if a == -n else "equal slopes"
    if a == -n:
        return "a = -N"
    if b - p == -n:
        return "b - p = -N"
    lo, hi = sorted([F(*line.c0), F(*line.c1)])
    inside = "c_bar inside" if lo < F(*line.c_bar) < hi else "c_bar outside"
    return inside + (", opposite sides" if (a + n) * (b - p + n) < 0 else "")


KINDS = ("c_bar inside", "c_bar outside", "c_bar inside, opposite sides", "c_bar outside, opposite sides",
         "equal slopes", "eta = 0", "a = -N", "b - p = -N", "r out of range", "no c_bar")


def _lines(seed=20):
    """PER_KIND lines (n, p, q, r, a, b, marks) of each kind, whose marks
    lie on a grid of at most MAX_ROWS points from min - 2 to max + 2."""
    rng, found = random.Random(seed), {kind: [] for kind in KINDS}
    while any(len(lines) < PER_KIND for lines in found.values()):
        n = rng.randint(1, 5)
        p, q, r = 1 + _rational(rng, 0, 3, 3), 1 + _rational(rng, 0, 3, 3), 1 + _rational(rng, 0, 4, 3)
        a, b = _rational(rng, -2 * n - 2, n + 2, 2), _rational(rng, -2 * n - 2, n + 3, 2)
        shape = rng.randrange(7)
        if shape == 1:  # equal slopes
            b = p * (a + n) / q + p - n
        elif shape == 2:  # eta = 0
            a, b = F(-n), p - n
        elif shape == 3:
            a = F(-n)
        elif shape == 4:
            b = p - n
        elif shape in (5, 6) and p < n:
            p_star = n * p / (n - p)
            if shape == 5:  # r > max{p*, q}
                r = max(p_star, q) + _rational(rng, 0, 2, 3) + F(1, 3)
            else:  # 1/p - 1/N - 1/q = 0: no c_bar
                q = p_star
        try:
            Params(n, p, q, r, a, b, F(0))
        except ValueError:
            continue
        line = CLine(n, *(x.as_integer_ratio() for x in (p, q, r, a, b)))
        kind = _kind(n, p, q, r, a, b, line)
        if kind is None or len(found[kind]) >= PER_KIND:
            continue
        marks = [F(*line.c0), F(*line.c1), F(-n)] + ([F(*line.c_bar)] if line.c_bar is not None else [])
        den = math.lcm(*(mark.denominator for mark in marks))
        if (max(marks) - min(marks) + 4) * den <= MAX_ROWS:
            found[kind].append((kind, n, p, q, r, a, b, marks))
    return [line for lines in found.values() for line in lines]


LINES = _lines()


def _sweep(tmp_path, capsys, fixed, start, stop, step):
    spec = {"fixed": fixed, "axes": [{"param": "c", "start": str(start), "stop": str(stop), "step": str(step)}]}
    path = tmp_path / "line.json"
    path.write_text(json.dumps(spec))
    assert main(["sweep", str(path)]) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    return [dict(zip(header.split(","), row.split(","))) for row in rows]


@pytest.mark.parametrize("on_marks", [True, False], ids=["on marks", "straddling"])
@pytest.mark.parametrize("kind, n, p, q, r, a, b, marks", LINES, ids=[
    f"{line[0]} {k % PER_KIND}" for k, line in enumerate(LINES)])
def test_piece_labels_are_classify_at_every_row(tmp_path, capsys, kind, n, p, q, r, a, b, marks, on_marks):
    # every mark is a multiple of 1/den; the straddling axis sits half a
    # step off that grid, so it lands on no mark and crosses every one
    step = F(1, math.lcm(*(mark.denominator for mark in marks)))
    start, stop = min(marks) - 2, max(marks) + 2
    if not on_marks:
        start, stop = start + step / 2, stop - step / 2
    fixed = {"n": str(n), "p": str(p), "q": str(q), "r": str(r), "a": str(a), "b": str(b)}
    rows = _sweep(tmp_path, capsys, fixed, start, stop, step)
    assert len(rows) == (stop - start) / step + 1
    cs = [F(row["c"]) for row in rows]
    assert set(marks) <= set(cs) if on_marks else not set(marks) & set(cs)
    for row, c in zip(rows, cs):
        verdict = classify(Params(n, p, q, r, a, b, c))
        d = verdict.derived
        assert row["decision"] == verdict.decision.value, row
        assert row["case"] == (verdict.case.value if verdict.case else ""), row
        assert row["reason"] == (verdict.reason.value if verdict.reason else ""), row
        assert (row["c0"], row["c1"]) == (str(d.c0), str(d.c1)), row
        assert row["theta_c"] == ("" if d.theta_c is None else str(d.theta_c)), row
