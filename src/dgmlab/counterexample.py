"""The sharpness example: a product double sequence that separates the
p-norm variation classes and makes the double sine series diverge at
(2*pi/3, 2*pi/3).

The single sequence is defined by residue of n:

    a_n = 3 / (n ln(n+1))                                   n = 1 (mod 3)
    a_n = 1 / (n ln(n+1))                                   n = 2 (mod 3)
    a_n = 1 / (n ln(n+1))                                   n = 3 (mod 6)
    a_n = 1 / ((n-3) ln(n-2)) + 1 / (n^(1+1/p) ln(n+1))     n = 0 (mod 6)

with construction exponent p > 1, and c_mn = a_m * a_n.  The fourth case
first occurs at n = 6, where n - 3 = 3 and ln(n - 2) > 0, so no extra
domain guard is needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .sequences import (
    Bracket,
    DoubleSequenceRule,
    Reading,
    SequenceRule,
    TailEnvelope,
    p_norm,
    product_rule,
    transpose_rule,
)

if TYPE_CHECKING:
    from .membership import BoundSpec

SIN_2PI3 = math.sin(2.0 * math.pi / 3.0)  # = sqrt(3)/2


class RatioVerdict(Reading):
    BOUNDED = "bounded"
    GROWING = "growing"
    INCONCLUSIVE = "inconclusive"


def _validate_p(p: float) -> float:
    if not p > 1.0:
        raise ValueError("construction exponent p must exceed 1")
    return float(p)


def single_term(n: int, p: float) -> float:
    """a_n of the sharpness sequence; positive for every n >= 1."""
    if n < 1:
        raise ValueError("n must be >= 1")
    _validate_p(p)
    if n % 3 == 1:
        return 3.0 / (n * math.log(n + 1))
    if n % 6 == 0:
        return 1.0 / ((n - 3) * math.log(n - 2)) + 1.0 / (n ** (1.0 + 1.0 / p) * math.log(n + 1))
    return 1.0 / (n * math.log(n + 1))


def single_values(ns, p: float) -> np.ndarray:
    """Vectorized ``a_n`` over an integer array."""
    _validate_p(p)
    ns = np.asarray(ns, dtype=np.int64)
    if ns.size and ns.min() < 1:
        raise ValueError("indices must be >= 1")
    nf = ns.astype(float)
    denom = nf * np.log(nf + 1.0)
    out = np.where(ns % 3 == 1, 3.0 / denom, 1.0 / denom)
    six = ns % 6 == 0
    if np.any(six):
        nf6 = nf[six]
        out[six] = 1.0 / ((nf6 - 3.0) * np.log(nf6 - 2.0)) + 1.0 / (
            nf6 ** (1.0 + 1.0 / p) * np.log(nf6 + 1.0)
        )
    return out


def single_rule(p: float) -> SequenceRule:
    _validate_p(p)
    return SequenceRule(
        lambda ns: single_values(ns, p),
        label=f"proposition(p={p})",
        real=True,
    )


def double_rule(p: float) -> DoubleSequenceRule:
    """c_mn = a_m * a_n as a product rule.

    m * a_m is bounded by its m = 1 value, giving a crude 1/(mn) envelope.
    It is not summable, so a decaying tail reading on this rule stays
    inconclusive.
    """
    s = single_rule(p)
    amp = (3.0 / math.log(2.0)) ** 2
    return product_rule(
        s, s, label=f"proposition2(p={p})",
        tail=TailEnvelope(amp=amp, kind="polynomial", a_j=1.0, a_k=1.0),
    )


@dataclass(frozen=True)
class DivergenceCertificate:
    """Partial sums at x0 = 2*pi/3 against a divergent lower-bound sequence.

    ``partial_sums[N]`` is ``S_N = sum_{k=1}^{6N+5} a_k sin(k x0)``,
    computed through the exact mod-6 grouping
    ``S_N = sin(x0) * sum_{k=0}^{N} [(a_{6k+1} - a_{6k+2}) + (a_{6k+4} - a_{6k+5})]``;
    ``lower_bounds[N]`` is ``L_N = 4 sin(x0) * sum_{k=0}^{N} 1/((6k+5) ln(6k+5))``,
    which increases without bound.  ``verified`` asserts S_N >= L_N for
    every N in range.
    """

    n_values: np.ndarray
    partial_sums: np.ndarray
    lower_bounds: np.ndarray
    verified: bool

    def __len__(self) -> int:
        return self.n_values.size


def divergence_certificate(n_max: int, p: float) -> DivergenceCertificate:
    """Certificate rows for N = 0..n_max."""
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    _validate_p(p)
    ks = np.arange(0, n_max + 1, dtype=np.int64)
    bracket = (single_values(6 * ks + 1, p) - single_values(6 * ks + 2, p)
               + single_values(6 * ks + 4, p) - single_values(6 * ks + 5, p))
    s = SIN_2PI3 * np.cumsum(bracket)
    lower = 4.0 * SIN_2PI3 * np.cumsum(1.0 / ((6.0 * ks + 5.0) * np.log(6.0 * ks + 5.0)))
    verified = bool(np.all(s >= lower))
    return DivergenceCertificate(ks, s, lower, verified)


def violation_ratio(m: int, n: int, p: float, spec: BoundSpec | None = None,
                    norm_exponent: float = 1.0, restricted: bool = False) -> float:
    """Column-inequality ratio for c_mn = a_m a_n at block (m, n).

    With ``norm_exponent = 1`` the ratio grows without bound, witnessing
    that the sequence leaves the p = 1 class; with ``norm_exponent = p``
    it stays bounded.  ``restricted=True`` keeps only the k = 3 (mod 6)
    differences, the part carrying the ``n^(-1/p)`` term; its log-log
    slope reaches the asymptotic exponent ``1 - 1/p`` already at desk
    horizons, whereas the full sum approaches it only slowly from below.
    """
    # imported here, so that the rules of the example load without membership
    from .membership import BoundFamily, BoundSpec, _ratio, rhs_row_bound

    if m < 1 or n < 1:
        raise ValueError("block indices must be >= 1")
    _validate_p(p)
    if norm_exponent <= 0:
        raise ValueError("norm exponent must be positive")
    if spec is None:
        spec = BoundSpec(BoundFamily.MAX_WINDOW, lam=2)
    ks = np.arange(n, 2 * n, dtype=np.int64)
    diffs = (single_values(ks, p) - single_values(ks + 3, p)) * single_term(m, p)
    if restricted:
        diffs = diffs[ks % 6 == 3]
    lhs = p_norm(diffs, norm_exponent)
    # the column bound is the row bound of the transposed rule
    return _ratio(lhs, rhs_row_bound(transpose_rule(double_rule(p)), n, m, spec).value)


def read_ratios(ns, ratios) -> tuple[RatioVerdict, float]:
    """The reading of ratios at block starts ``ns``, growing if their log-log slope exceeds
    ``MembershipReport.SLOPE_THRESHOLD``, and the slope; an inf ratio reads as (0, inf)."""
    from .membership import MembershipReport

    def slope(vs):
        ok = len(ns) >= 2 and all(v > 0 for v in vs)
        return float(np.polyfit(np.log2(ns), np.log2(vs), 1)[0]) if ok else math.nan

    def growing(vs):
        return slope(vs) > MembershipReport.SLOPE_THRESHOLD

    evidence = [Bracket(v) if math.isfinite(v) else Bracket(0.0, math.inf) for v in ratios]
    return RatioVerdict.read(evidence, lambda his: not growing(his), growing), slope(ratios)
