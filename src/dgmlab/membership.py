"""Bound families of the double-sequence variation classes and membership scans.

Three right-hand-side families are supported, all evaluated without the
class constant C:

* mean-value: windowed averages over ``[m // lam, lam * m]``,
* max-window: the maximum of dyadic window sums ``sum_{j=M}^{2M}`` over
  ``b(m) <= M <= lam * b(m)`` (rows/columns) and the anti-diagonal
  frontier supremum ``M + N >= b(m+n)`` (mixed),
* sup-window: the supremum of dyadic window sums over ``M >= b(m)``
  (rows/columns) and the same frontier supremum (mixed).

Suprema are truncated at ``horizon_cap``.  A maximizer sitting on the cap
boundary, or a window or frontier the cap cannot reach, is flagged truncated:
its ratio is unbounded above, so no scan reads "consistent" from it.

Only the row quantities are implemented.  A column quantity of ``c`` at
block (m, n) is the row quantity of ``transpose_rule(c)`` at (n, m): the
column bound is ``rhs_row_bound(transpose_rule(c), n, m, spec)``.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from .sequences import (
    HORIZON_LIMIT,
    Bracket,
    DoubleSequenceRule,
    Reading,
    SequenceRule,
    block_p_norm,
    double_block_p_norm,
    frontier_product_max,
    mixed_diff_values,
    p_norm,
    row_diff_values,
    step_diff_values,
    transpose_rule,
)

REL_TOL = 1e-12
ABS_TOL = 1e-14

# Exact 2-D window scans for rules without product structure or bounded
# support stop here; beyond it the result is flagged truncated.
GENERAL_MIXED_CAP = 512


class BoundFamily(enum.Enum):
    MEAN_VALUE = "mean-value"
    MAX_WINDOW = "max-window"
    SUP_WINDOW = "sup-window"


class Verdict(Reading):
    CONSISTENT = "consistent"
    VIOLATED = "violated"
    INCONCLUSIVE = "inconclusive"


def default_window_anchor(lam: int) -> Callable[[int], float]:
    """Default anchor sequence ``b(l) = max(1, l // lam)``.

    Makes max-window and sup-window searches comparable to the mean-value
    windows when no anchor is supplied.
    """

    def b(l: int) -> float:
        return float(max(1, l // lam))

    return b


@dataclass(frozen=True)
class BoundSpec:
    """Which bound family to evaluate, with its window parameters."""

    family: BoundFamily
    lam: int = 2
    b: Callable[[int], float] | None = None
    horizon_cap: int = 1 << 16

    def __post_init__(self):
        if self.family in (BoundFamily.MEAN_VALUE, BoundFamily.MAX_WINDOW):
            if self.lam < 2:
                raise ValueError(f"{self.family.value} requires lam >= 2")
        elif self.lam < 1:
            raise ValueError("sup-window requires lam >= 1")
        if not 1 <= self.horizon_cap <= HORIZON_LIMIT:
            raise ValueError(f"horizon_cap must be in [1, {HORIZON_LIMIT}]")
        if self.b is None:
            object.__setattr__(self, "b", default_window_anchor(self.lam))
        if self.family is not BoundFamily.MEAN_VALUE:
            if not self.b(self.horizon_cap) > self.b(1):
                raise ValueError("window anchor b must grow within the horizon")

    def anchor(self, l: int) -> float:
        return float(self.b(l))


@dataclass(frozen=True)
class BoundValue:
    """One evaluated right-hand side (without the class constant C).

    ``maximizer`` is the window start (or pair) achieving a max/sup
    family; ``truncated`` marks a maximizer on the horizon cap, or a bound
    the cap prevented from any evaluation (value 0, no maximizer).
    """

    value: float
    maximizer: object = None
    truncated: bool = False


def _window_sums(values: np.ndarray, first: int, starts: np.ndarray) -> np.ndarray:
    """``sum_{i=M}^{2M} values[i]`` for each start M, windows inclusive.

    ``values[t]`` holds the sequence entry at index ``first + t`` and must
    cover ``[first, 2 * starts.max()]``.
    """
    pref = np.concatenate(([0.0], np.cumsum(values)))
    lo = starts - first
    hi = 2 * starts - first + 1
    return pref[hi] - pref[lo]


def rhs_row_bound(c: DoubleSequenceRule, m: int, n: int, spec: BoundSpec) -> BoundValue:
    """Row-family bound at block start m, column n, scaled by 1/m."""
    if n < 1:
        raise ValueError("fixed index must be >= 1")
    if spec.family is BoundFamily.MEAN_VALUE:
        if m < spec.lam:
            raise ValueError(f"mean-value family needs block start >= lam={spec.lam}")
        lo, hi = m // spec.lam, spec.lam * m
        total = float(np.sum(np.abs(c.values(np.arange(lo, hi + 1), n))))
        return BoundValue(total / m)

    if spec.family is BoundFamily.MAX_WINDOW and m < spec.lam:
        raise ValueError(f"max-window family needs block start >= lam={spec.lam}")
    cap = spec.horizon_cap
    lo = max(1, math.ceil(spec.anchor(m) - 1e-9))
    if spec.family is BoundFamily.MAX_WINDOW:
        hi = math.floor(spec.lam * spec.anchor(m) + 1e-9)
    else:
        hi = cap
    clipped = hi > cap
    hi = min(hi, cap)
    if lo > hi:
        return BoundValue(0.0, truncated=True)
    starts = np.arange(lo, hi + 1)
    vals = np.abs(c.values(np.arange(lo, 2 * hi + 1), n))
    sums = _window_sums(vals, lo, starts)
    i = int(np.argmax(sums))
    best = int(starts[i])
    truncated = (clipped or spec.family is BoundFamily.SUP_WINDOW) and best == cap
    return BoundValue(float(sums[i]) / m, maximizer=best, truncated=truncated)


def rhs_mixed_bound(c: DoubleSequenceRule, m: int, n: int, spec: BoundSpec) -> BoundValue:
    """Mixed-family bound scaled by 1/(m*n).

    Mean-value evaluates the double window; both window families evaluate
    the supremum of double dyadic window sums over the truncated frontier
    ``{(M, N): M + N >= b(m + n), 1 <= M, N <= horizon_cap}``.
    """
    if spec.family is BoundFamily.MEAN_VALUE:
        if m < spec.lam or n < spec.lam:
            raise ValueError(f"mean-value family needs m, n >= lam={spec.lam}")
        jlo, jhi = m // spec.lam, spec.lam * m
        klo, khi = n // spec.lam, spec.lam * n
        if c.factors is not None:
            u, v = c.factors
            total = float(np.sum(np.abs(u.values(np.arange(jlo, jhi + 1))))
                          * np.sum(np.abs(v.values(np.arange(klo, khi + 1)))))
        else:
            js = np.arange(jlo, jhi + 1)[:, None]
            ks = np.arange(klo, khi + 1)[None, :]
            total = float(np.sum(np.abs(c.values(js, ks))))
        return BoundValue(total / (m * n))

    if m < spec.lam or n < spec.lam:
        raise ValueError(f"{spec.family.value} family needs m, n >= lam={spec.lam}")
    lo_sum = max(2, math.ceil(spec.anchor(m + n) - 1e-9))
    sup = _frontier_sup(c, lo_sum, spec.horizon_cap)
    return replace(sup, value=sup.value / (m * n))


def _frontier_sup(c: DoubleSequenceRule, lo_sum: int, cap: int) -> BoundValue:
    """sup of ``sum_{j=M}^{2M} sum_{k=N}^{2N} |c|`` over ``M+N >= lo_sum``."""
    if c.factors is not None:
        u, v = c.factors
        starts = np.arange(1, cap + 1)
        wu = _window_sums(np.abs(u.values(np.arange(1, 2 * cap + 1))), 1, starts)
        wv = _window_sums(np.abs(v.values(np.arange(1, 2 * cap + 1))), 1, starts)
        [(value, best_m, best_n)] = frontier_product_max(wu, wv, [lo_sum])
        if best_m == 0:  # the frontier lies beyond the cap
            return BoundValue(0.0, truncated=True)
        truncated = best_m == cap or best_n == cap
        return BoundValue(value, maximizer=(best_m, best_n), truncated=truncated)

    jmax, kmax = c.support or (math.inf, math.inf)
    edge = cap if c.support is not None else min(cap, GENERAL_MIXED_CAP)
    exact = c.support is not None or cap <= GENERAL_MIXED_CAP
    m_hi, n_hi = min(edge, jmax), min(edge, kmax)
    if lo_sum > jmax + kmax:
        # every frontier window starts beyond the support and is zero
        return BoundValue(0.0, maximizer=None)
    if lo_sum > m_hi + n_hi:
        return BoundValue(0.0, truncated=True)
    # a maximizer pinned at the scan's edge (not the support's) means the
    # scan may have stopped short
    m_capped, n_capped = edge < jmax, edge < kmax
    # rows and columns past the support are zero: their prefix sums
    # repeat the box edge's, so the window ends are clamped to it
    rows, cols = min(2 * m_hi, jmax), min(2 * n_hi, kmax)

    grid = np.abs(c.values(np.arange(1, rows + 1)[:, None], np.arange(1, cols + 1)[None, :]))
    pref = np.zeros((rows + 1, cols + 1))
    np.cumsum(np.cumsum(grid, axis=0), axis=1, out=pref[1:, 1:])
    ms = np.arange(1, m_hi + 1)
    ns = np.arange(1, n_hi + 1)
    m_end, n_end = np.minimum(2 * ms, rows), np.minimum(2 * ns, cols)
    w = (pref[np.ix_(m_end, n_end)] - pref[np.ix_(ms - 1, n_end)]
         - pref[np.ix_(m_end, ns - 1)] + pref[np.ix_(ms - 1, ns - 1)])
    mask = (ms[:, None] + ns[None, :]) >= lo_sum
    w = np.where(mask, w, -np.inf)
    i, j = np.unravel_index(int(np.argmax(w)), w.shape)
    best = (int(ms[i]), int(ns[j]))
    truncated = ((not exact)
                 or (m_capped and best[0] == m_hi)
                 or (n_capped and best[1] == n_hi))
    return BoundValue(float(w[i, j]), maximizer=best, truncated=truncated)


# ---------------------------------------------------------------------------
# membership scanning


@dataclass(frozen=True)
class BlockEvidence:
    m: int
    n: int
    axis: str  # "row" | "col" | "mixed"
    lhs: float
    rhs: float
    ratio: float
    truncated: bool


@dataclass(frozen=True)
class AxisFit:
    """Log-log regression of block ratios against their anchor index."""

    axis: str
    slope: float
    correlation: float
    octaves: float
    points: int


@dataclass(frozen=True)
class MembershipReport:
    per_block: list[BlockEvidence]
    c_estimate: float
    growth_fit: float
    verdict: Verdict
    axis_fits: list[AxisFit] = field(default_factory=list)

    # Violation trigger: sustained growth of the ratio over many octaves
    # is evidence the class constant cannot exist.
    SLOPE_THRESHOLD = 0.05
    MIN_OCTAVES = 6.0
    MIN_CORRELATION = 0.9


def _row_lhs(c: DoubleSequenceRule, m: int, n: int, p: float, r: int) -> float:
    return p_norm(row_diff_values(c, np.arange(m, 2 * m), n, r), p)


_AXES = ("row", "col", "mixed")


def _sides(c: DoubleSequenceRule, t: DoubleSequenceRule, m: int, n: int,
           p: float, r: int) -> tuple[float, float, float]:
    """Row, column and mixed left-hand sides of block (m, n); ``t`` is
    ``transpose_rule(c)``, whose row side is c's column side."""
    return _row_lhs(c, m, n, p, r), _row_lhs(t, n, m, p, r), double_block_p_norm(c, m, n, p, r)


def _ratio(lhs: float, bound: float) -> float:
    """``lhs / bound``; against a zero bound, infinite for a positive lhs, else 0."""
    return lhs / bound if bound > 0 else math.inf if lhs > 0 else 0.0


def _evidence(m: int, n: int, axis: str, lhs: float, rhs: BoundValue) -> BlockEvidence:
    return BlockEvidence(m, n, axis, lhs, rhs.value, _ratio(lhs, rhs.value), rhs.truncated)


def _check_scan(blocks: Sequence, p: float, r: int) -> None:
    if not blocks:
        raise ValueError("block list must not be empty")
    if p <= 0 or r < 1:
        raise ValueError("need p > 0 and r >= 1")


def _fit_axis(axis: str, pts: list[tuple[float, float]]) -> AxisFit | None:
    pts = [(a, v) for a, v in pts if a > 0 and v > 0 and math.isfinite(v)]
    if len(pts) < 3:
        return None
    x = np.log2([a for a, _ in pts])
    y = np.log2([v for _, v in pts])
    octaves = float(x.max() - x.min())
    if octaves < 1.0:
        return None
    slope, _ = np.polyfit(x, y, 1)
    if np.allclose(y, y[0]):
        corr = 0.0
    else:
        corr = float(np.corrcoef(x, y)[0, 1])
    return AxisFit(axis, float(slope), corr, octaves, len(pts))


def membership_scan(c: DoubleSequenceRule, p: float, r: int, spec: BoundSpec,
                    blocks: Sequence[tuple[int, int]]) -> MembershipReport:
    """Evaluate the three class inequalities on every block and aggregate.

    Each block (m, n) contributes the row, column and mixed left-hand
    sides against the family bounds, and ``sequences.Reading`` reads the
    ratios.  VIOLATED: some untruncated bound is zero against a left-hand
    side above ``ABS_TOL``, or some axis ratio grows like a positive power
    over >= 6 octaves with log-log correlation >= 0.9.  CONSISTENT: neither,
    and no bound is truncated.  Else INCONCLUSIVE.
    """
    _check_scan(blocks, p, r)
    t = transpose_rule(c)
    return _aggregate([
        _evidence(m, n, axis, lhs, rhs)
        for m, n in blocks
        for axis, lhs, rhs in zip(_AXES, _sides(c, t, m, n, p, r),
                                  (rhs_row_bound(c, m, n, spec), rhs_row_bound(t, n, m, spec),
                                   rhs_mixed_bound(c, m, n, spec)))])


def _aggregate(evidence: list[BlockEvidence]) -> MembershipReport:
    bounded = [e for e in evidence if e.rhs > 0 and not e.truncated]
    anchors = {"row": lambda e: e.m, "col": lambda e: e.n, "mixed": lambda e: e.m + e.n}
    fits = [fit for axis, anchor in anchors.items()
            if (fit := _fit_axis(axis, [(anchor(e), e.ratio) for e in bounded if e.axis == axis]))]
    growth = any(f.slope > MembershipReport.SLOPE_THRESHOLD
                 and f.octaves >= MembershipReport.MIN_OCTAVES
                 and f.correlation >= MembershipReport.MIN_CORRELATION for f in fits)
    # a ratio is unbounded above if truncated, exact against a positive bound, and
    # against a zero bound inf (a violation) for a lhs above ABS_TOL, else 0
    ratios = [Bracket(0.0, math.inf) if e.truncated else Bracket(e.ratio) if e.rhs > 0
              else Bracket(math.inf if e.lhs > ABS_TOL else 0.0) for e in evidence]
    verdict = Verdict.read(ratios, lambda his: not growth, lambda vs: growth or math.inf in vs)
    return MembershipReport(evidence, max((e.ratio for e in bounded), default=0.0),
                            max((f.slope for f in fits), default=math.nan), verdict, fits)


def gm_membership_scan(seq: SequenceRule, p: float, r: int, spec: BoundSpec,
                       blocks: Sequence[int]) -> MembershipReport:
    """Single-sequence analogue: block p-norms against the 1-D families."""
    _check_scan(blocks, p, r)
    # wrap the single sequence as a column-constant double rule so the
    # row-family window machinery applies unchanged
    line = DoubleSequenceRule(lambda js, ks: seq.values(js), label=seq.label,
                              real=seq.real)
    return _aggregate([_evidence(m, 0, "row", block_p_norm(seq, m, p, r),
                                 rhs_row_bound(line, m, 1, spec)) for m in blocks])


# ---------------------------------------------------------------------------
# embedding checks


@dataclass(frozen=True)
class EmbeddingViolation:
    m: int
    n: int
    axis: str
    lhs: float
    bound: float


@dataclass(frozen=True)
class EmbeddingReport:
    ok: bool
    checked: int
    violations: list[EmbeddingViolation]


def _leq(lhs: float, bound: float) -> bool:
    return lhs <= bound * (1.0 + REL_TOL) + ABS_TOL


def embedding_check(c: DoubleSequenceRule, r: int, p1: float, p2: float,
                    blocks: Sequence[tuple[int, int]]) -> EmbeddingReport:
    """Blockwise p-norm monotonicity: every p2-norm <= the p1-norm (p1 <= p2).

    This is the finite mechanism behind the inclusion of the p1-class in
    the p2-class.
    """
    if not 0 < p1 <= p2:
        raise ValueError("need 0 < p1 <= p2")
    t = transpose_rule(c)
    violations = [
        EmbeddingViolation(m, n, axis, small, big)
        for m, n in blocks
        for axis, small, big in zip(_AXES, _sides(c, t, m, n, p2, r), _sides(c, t, m, n, p1, r))
        if not _leq(small, big)]
    return EmbeddingReport(not violations, 3 * len(blocks), violations)


def divisor_embedding_check(c: DoubleSequenceRule, p: float, r1: int, r2: int,
                            blocks: Sequence[tuple[int, int]]) -> EmbeddingReport:
    """Triangle-inequality chain behind the step inclusion for r1 | r2.

    The step-r2 difference telescopes into q = r2/r1 shifted step-r1
    differences, so each block p-norm at step r2 is bounded by the sum of
    the q (q*q for the mixed norm) shifted step-r1 window norms; needs
    p >= 1 for the triangle inequality.  The shifted windows of each block
    are slices of one step-r1 difference run per axis and of one mixed
    step-r1 difference block.
    """
    if p < 1:
        raise ValueError("divisor embedding needs p >= 1")
    if r1 < 1 or r2 % r1 != 0:
        raise ValueError("r1 must divide r2")
    q = r2 // r1
    t = transpose_rule(c)
    violations = []
    checked = 0
    for m, n in blocks:
        for axis, rule, start, other in (("row", c, m, n), ("col", t, n, m)):
            seq = SequenceRule(lambda js: rule.values(js, other), real=c.real)
            lhs = block_p_norm(seq, start, p, r2)
            run = step_diff_values(seq, np.arange(start, 2 * start + (q - 1) * r1), r1)
            chain = sum(p_norm(run[i * r1:i * r1 + start], p) for i in range(q))
            checked += 1
            if not _leq(lhs, chain):
                violations.append(EmbeddingViolation(m, n, axis, lhs, chain))

        lhs = double_block_p_norm(c, m, n, p, r2)
        js = np.arange(m, 2 * m + (q - 1) * r1)
        ks = np.arange(n, 2 * n + (q - 1) * r1)
        block = mixed_diff_values(c, js[:, None], ks[None, :], r1)
        chain = 0.0
        for i in range(q):
            for i2 in range(q):
                chain += p_norm(block[i * r1:i * r1 + m, i2 * r1:i2 * r1 + n], p)
        checked += 1
        if not _leq(lhs, chain):
            violations.append(EmbeddingViolation(m, n, "mixed", lhs, chain))
    return EmbeddingReport(not violations, checked, violations)
