"""Embedding rule for weights with several power-like singularities.

The weights look like |x - x_i|^{a_i} near finitely many points x_i and
like |x|^{a_inf} near infinity (same pattern for the gradient and target
weights).  A sufficient condition for the embedding, for
1 <= r <= min{p, q}: every c_i must exceed the lower endpoint of the
admissible interval computed at (a_i, b_i), and c_inf must lie below the
upper endpoint of the admissible interval at (a_inf, b_inf); an endpoint
value itself is acceptable exactly when it belongs to the interval.

When a local admissible set is empty (equal slopes with r below the
trivial range), the comparison endpoint is defined by the monotone
relaxation: raising a_i or b_i slightly produces a nonempty interval
whose endpoints collapse to c0 = c1, so the relaxed endpoint is c0,
exclusive.  These verdicts are sufficient and possibly non-optimal.

With a single singularity at the origin and matching weights at
infinity, the rule reduces exactly to the single-weight classifier.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Tuple

from .admissible import admissible_set
from .classify import Decision, Reason, Verdict, classify
from .derived import derive
from .params import Params, validate_full_space
from .rational import format_rational


@dataclass(frozen=True)
class SiteWeights:
    a: Fraction
    b: Fraction
    c: Fraction

    def as_dict(self) -> dict:
        return {
            "a": format_rational(self.a),
            "b": format_rational(self.b),
            "c": format_rational(self.c),
        }


@dataclass(frozen=True)
class MultiWeightSpec:
    n: int
    p: Fraction
    q: Fraction
    r: Fraction
    singularities: Tuple[SiteWeights, ...]
    infinity: SiteWeights

    def __post_init__(self):
        if not self.singularities:
            raise ValueError("multiweight spec needs at least one singularity")

    def site_params(self, site: SiteWeights) -> Params:
        return Params(self.n, self.p, self.q, self.r, site.a, site.b, site.c)

    def as_dict(self) -> dict:
        return {
            "n": self.n,
            "p": format_rational(self.p),
            "q": format_rational(self.q),
            "r": format_rational(self.r),
            "singularities": [s.as_dict() for s in self.singularities],
            "infinity": self.infinity.as_dict(),
        }


def _relaxed_endpoint(params: Params) -> Tuple[Fraction, bool]:
    """Endpoint of the vanishing-relaxation limit: c0 (= c1), exclusive."""
    return derive(params).c0, False


def multiweight_classify(spec: MultiWeightSpec) -> Verdict:
    """Sufficient multi-singularity verdict (exact single-weight reduction
    when there is one singularity with weights matching infinity)."""
    reference = spec.site_params(spec.infinity)
    validate_full_space(reference)

    if len(spec.singularities) == 1 and spec.singularities[0] == spec.infinity:
        return classify(reference)

    if spec.r > min(spec.p, spec.q):
        raise ValueError(
            "the multi-singularity rule requires r <= min{p, q} "
            "unless it reduces to the single-weight classifier"
        )

    note = "sufficient, possibly non-optimal (multi-singularity rule)"
    for index, site in enumerate(spec.singularities):
        local = spec.site_params(site)
        lower = admissible_set(local).lower_endpoint()
        if lower is None:
            lower = _relaxed_endpoint(local)
        lo, lo_included = lower
        if not (site.c > lo or (site.c == lo and lo_included)):
            return Verdict(
                Decision.DOES_NOT_EMBED,
                None,
                Reason.C_OUTSIDE_HULL,
                derive(local),
                note=f"c at singularity {index} is below the local lower endpoint",
            )

    upper = admissible_set(reference).upper_endpoint()
    if upper is None:
        upper = _relaxed_endpoint(reference)
    hi, hi_included = upper
    if not (spec.infinity.c < hi or (spec.infinity.c == hi and hi_included)):
        return Verdict(
            Decision.DOES_NOT_EMBED,
            None,
            Reason.C_OUTSIDE_HULL,
            derive(reference),
            note="c at infinity is above the upper endpoint",
        )

    return Verdict(Decision.EMBEDS, None, None, derive(reference), note=note)


def multiweight_from_dict(data: dict) -> MultiWeightSpec:
    from .rational import parse_rational

    sites = data.get("singularities") if isinstance(data, dict) else None
    if not isinstance(sites, list) or not all(isinstance(s, dict) for s in sites):
        raise ValueError(
            "multiweight spec must be an object whose 'singularities' is a list of objects"
        )
    if not isinstance(data.get("infinity"), dict):
        raise ValueError("multiweight spec needs an 'infinity' object")

    def site(d: dict, label: str) -> SiteWeights:
        return SiteWeights(
            a=parse_rational(str(d["a"]), f"{label}.a"),
            b=parse_rational(str(d["b"]), f"{label}.b"),
            c=parse_rational(str(d["c"]), f"{label}.c"),
        )

    return MultiWeightSpec(
        n=int(data["n"]),
        p=parse_rational(str(data["p"]), "p"),
        q=parse_rational(str(data["q"]), "q"),
        r=parse_rational(str(data["r"]), "r"),
        singularities=tuple(
            site(s, f"singularities[{i}]") for i, s in enumerate(sites)
        ),
        infinity=site(data["infinity"], "infinity"),
    )
