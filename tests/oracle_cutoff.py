"""The fixed smooth step as an h-ratio, kept as an oracle for the logistic
form in `ckn.profiles`.

    step(w) = h(1-w) / (h(w) + h(1-w)),   h(x) = exp(-1/x) for x > 0, else 0,

which is 1 for w <= 0 and 0 for w >= 1, and its mirror 1 - step(w) =
h(w) / (h(w) + h(1-w)), computed without the subtraction.  Each h is
evaluated on its own, with masks, so no exp overflows.
"""

import numpy as np


def h(x):
    """exp(-1/x) for x > 0, else 0."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    pos = x > 0
    out[pos] = np.exp(-1.0 / x[pos])
    return out


def h_prime(x):
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    pos = x > 0
    out[pos] = np.exp(-1.0 / x[pos]) / x[pos] ** 2
    return out


def _ratio(num, other):
    """num / (num + other), 0 where both vanish."""
    den = num + other
    return np.where(den > 0, num / np.where(den > 0, den, 1.0), 0.0)


def step(w):
    w = np.asarray(w, dtype=float)
    return _ratio(h(1.0 - w), h(w))


def mirrored_step(w):
    """1 - step(w)."""
    w = np.asarray(w, dtype=float)
    return _ratio(h(w), h(1.0 - w))


def step_prime(w):
    w = np.asarray(w, dtype=float)
    out = np.zeros_like(w)
    inside = (w > 0) & (w < 1)
    wi = w[inside]
    hw, h1w = h(wi), h(1.0 - wi)
    out[inside] = -(h_prime(1.0 - wi) * hw + h1w * h_prime(wi)) / (hw + h1w) ** 2
    return out
