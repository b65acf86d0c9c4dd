"""Decay and tail checks of double sequences, and the log-integral inequality.

``decay_report`` samples one of ``DECAY_CONDITIONS`` over log-spaced
frontier anchors (m, n): the weighted coefficients ``jk`` and ``loglog``,
the row and column tails, and the mixed and row/column difference tails.
Each tail is one sweep over the rows from H down, batched over the anchors,
or suffix slices of a product rule's factor arrays over [1, H]: a report
evaluates each rule or factor entry once.  ``classify_decay`` reads the
report by the one rule of ``sequences.Reading``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .sequences import (
    Bracket,
    DoubleSequenceRule,
    Reading,
    _suffix_max,
    mixed_diff_values,
    row_diff_values,
    step_diff_values,
    transpose_rule,
)


class DecayVerdict(Reading):
    DECAYING = "decaying"
    NOT_DECAYING = "not-decaying"
    INCONCLUSIVE = "inconclusive"


# ---------------------------------------------------------------------------
# decay reports


@dataclass(frozen=True)
class DecaySample:
    m: int
    n: int
    value: float


@dataclass(frozen=True)
class DecayReport:
    samples: list[DecaySample]
    thresholds: list[int]
    max_tail: list[float]  # aligned with thresholds; nonincreasing
    trend_fit: float
    conclusive: bool = True


def frontier_samples(horizon: int) -> list[tuple[int, int]]:
    """Log-spaced (m, n) anchors from index 2 along the paths m=n, m=2n,
    n=2m and the axis-pinned paths, with small offsets so every residue
    class mod 6 is hit on the diagonal."""
    ladder = []
    b = 2
    while b <= horizon:
        ladder.append(b)
        b *= 2
    pts: set[tuple[int, int]] = set()
    for b in ladder:
        for d in range(6):
            s = b + d
            for m, n in ((s, s), (2 * s, s), (s, 2 * s), (s, 2), (2, s)):
                if m <= horizon and n <= horizon:
                    pts.add((m, n))
    return sorted(pts)


def _decay_thresholds(samples: list[tuple[int, int]], thresholds: Sequence[int]) -> list[int]:
    """The thresholds, checked before any sample is computed: positive, strictly
    increasing, and reached by the largest index sum m + n of the samples."""
    ts = [int(t) for t in thresholds]
    if not ts or any(b <= a for a, b in zip(ts, ts[1:])) or ts[0] < 1:
        raise ValueError("thresholds must be a strictly increasing positive list")
    if not samples or max(m + n for m, n in samples) < ts[-1]:
        raise ValueError("sampling horizon does not reach the largest threshold")
    return ts


def _build_decay_report(samples: list[tuple[int, int]], values: np.ndarray,
                        ts: list[int], conclusive: bool) -> DecayReport:
    sums = np.array([m + n for m, n in samples])
    tails = []
    for t in ts:
        sel = values[sums >= t]
        tails.append(float(sel.max()) if sel.size else 0.0)
    pos = values > 0
    if np.count_nonzero(pos) >= 3 and sums[pos].min() < sums[pos].max():
        slope, _ = np.polyfit(np.log(sums[pos]), np.log(values[pos]), 1)
        trend = float(slope)
    else:
        trend = math.nan
    out = [DecaySample(m, n, float(v)) for (m, n), v in zip(samples, values)]
    return DecayReport(out, ts, tails, trend, conclusive)


def classify_decay(report: DecayReport) -> DecayVerdict:
    """Decaying: the last tail is 0, or at most half the first with a falling (or
    unfitted) trend.  Not decaying: the last is nonzero and at least 0.9 of the first."""
    trend, residual = report.trend_fit, 0.0 if report.conclusive else math.inf
    return DecayVerdict.read(
        [Bracket(t, residual) for t in report.max_tail],
        lambda his: his[-1] == 0.0 or (his[0] > 0 and his[-1] <= 0.5 * his[0]
                                       and (math.isnan(trend) or trend < -0.02)),
        lambda values: values[-1] != 0.0 and values[-1] >= 0.9 * values[0])


# ---------------------------------------------------------------------------
# tail quantities


_CHUNK = 256

# the row sweep of a rule without factors takes time H^2: at 2^15, each tail takes
# up to about 7 s and 175 MB on `separable`
TAIL_HORIZON_LIMIT = 1 << 15


def _check_tail_args(anchors: Sequence[tuple[int, int]], horizon: int,
                     p: float = 1.0, r: int = 1) -> None:
    if not (p >= 1 and r >= 1):  # also refuses NaN
        raise ValueError("need p >= 1 and r >= 1")
    if horizon > TAIL_HORIZON_LIMIT:
        raise ValueError(f"tail horizon must be at most {TAIL_HORIZON_LIMIT}")
    if not anchors or not all(1 <= m <= horizon and 1 <= n <= horizon for m, n in anchors):
        raise ValueError("bad index range")


def _sweep(rows: Callable[[np.ndarray, np.ndarray], np.ndarray], fold: np.ufunc,
           anchors: Sequence[tuple[int, int]], horizon: int, k_hi: int) -> list[np.ndarray]:
    """Per anchor (m, n), from column n on, the state after row m of one
    sweep from row H down that folds each row of ``rows(js, ks)`` into a
    zero-started state with ``fold``.  ``ks`` spans [n0, k_hi], n0 the
    smallest anchor column, and ``rows`` gets ``_CHUNK`` rows per call; it
    may append one column, which the anchors past k_hi read.  Each fold
    makes a new state, so the state after an anchor row is kept as it is."""
    n0 = min(n for _, n in anchors)
    ks = np.arange(n0, k_hi + 1)[None, :]
    wanted = {m for m, _ in anchors}
    state, states = 0.0, {}
    for top in range(horizon, min(wanted) - 1, -_CHUNK):
        js = np.arange(max(top + 1 - _CHUNK, min(wanted)), top + 1, dtype=np.int64)[:, None]
        for j, row in zip(js[::-1, 0].tolist(), rows(js, ks)[::-1]):
            state = fold(state, row)
            if j in wanted:
                states[j] = state
        del row  # the last view of the block: free it before the next one
    return [states[m][min(n - n0, state.size - 1):] for m, n in anchors]


def _weight_is_decreasing(kind: str, a: float, j: float) -> bool:
    """Is w(t) = t * ln(t) * f(t) nonincreasing for t >= j?"""
    if kind == "geometric":
        # d/dt [ln t + ln ln t + t ln a] < 0 once t |ln a| > 1 + 1/ln t
        return j * abs(math.log(a)) > 1.0 + 1.0 / math.log(j)
    return a > 1.0 + 1.0 / math.log(j)


def row_tail_sups(c: DoubleSequenceRule, anchors: Sequence[tuple[int, int]],
                  horizon: int) -> list[Bracket]:
    """``sup_{j in [m, H]} j * ln(j) * sum_{k=n}^{H} |c_jk|`` at every anchor (m, n).

    Each row sum runs over [n, min(H, K)], K the support width, from its
    last column down.  The residual bound covers both the truncated
    inner k-tail and the unscanned j > H part: it is 0 when the support
    lies inside the horizon, and otherwise needs a tail envelope on the
    rule.  ``col-tail`` is this on the transposed rule.
    """
    _check_tail_args(anchors, horizon)
    if any(m < 2 for m, _ in anchors):
        raise ValueError("need m >= 2 so the ln weight is positive")
    js = np.arange(1, horizon + 1, dtype=np.int64)
    weight = js * np.log(js)
    if c.factors is not None:
        au, av = (np.abs(f.values(js)) for f in c.factors)
        values = [float(np.max(weight[m - 1:] * (au[m - 1:] * float(np.sum(av[n - 1:])))))
                  for m, n in anchors]
    else:
        def weighted(js, ks):
            # j ln j times the row suffix sums, and a 0 for the columns past the support
            suffix = np.zeros((js.shape[0], ks.size + 1))
            suffix[:, :-1] = np.cumsum(np.abs(c.values(js, ks))[:, ::-1], axis=1)[:, ::-1]
            return js * np.log(js) * suffix

        k_hi = horizon if c.support is None else min(horizon, c.support[1])
        values = [float(s[0]) for s in _sweep(weighted, np.maximum, anchors, horizon, k_hi)]
    env, h1 = c.tail, horizon + 1.0
    if c.support is not None and max(c.support) <= horizon:
        return [Bracket(value) for value in values]
    if env is None:
        return [Bracket(value, math.inf) for value in values]
    # the envelope's weight j ln j f(j): its sup over [m, H] is w_max[m - 1]
    w_max = _suffix_max(weight * env.f(js.astype(float)))
    beyond = _weight_is_decreasing(env.kind, env.a_j, h1)
    out = []
    for (m, n), value in zip(anchors, values):
        resid_beyond = math.inf
        if beyond:
            resid_beyond = h1 * math.log(h1) * env.f(h1) * env.amp * env.g_tail(n)
        residual = float(w_max[m - 1]) * env.amp * env.g_tail(horizon + 1) + resid_beyond
        out.append(Bracket(value, residual))
    return out


def mixed_diff_tails(c: DoubleSequenceRule, p: float, r: int,
                     anchors: Sequence[tuple[int, int]], horizon: int) -> list[float]:
    """``m^(1/p) n^(1/p) sum_{j=m}^{H} sum_{k=n}^{H} |mixed difference|`` at
    every anchor (m, n).

    Each column sum adds its rows from j = H down, so a value depends on
    neither the other anchors nor ``_CHUNK``.
    """
    _check_tail_args(anchors, horizon, p, r)
    if c.factors is not None:
        du, dv = (np.abs(step_diff_values(f, np.arange(1, horizon + 1), r)) for f in c.factors)
        return [(m * n) ** (1.0 / p) * float(np.sum(du[m - 1:])) * float(np.sum(dv[n - 1:]))
                for m, n in anchors]
    sums = _sweep(lambda js, ks: np.abs(mixed_diff_values(c, js, ks, r)), np.add,
                  anchors, horizon, horizon)
    return [(m * n) ** (1.0 / p) * float(np.sum(s)) for (m, n), s in zip(anchors, sums)]


def row_diff_tail_sups(c: DoubleSequenceRule, p: float, r: int,
                       anchors: Sequence[tuple[int, int]], horizon: int) -> list[float]:
    """``m^(1/p) sup_{k in [n, H]} k * sum_{j=m}^{H} |row difference at (j, k)|``
    at every anchor (m, n).

    Each column sum adds its rows from j = H down.  ``col-diff-tail`` is
    this on the transposed rule.
    """
    _check_tail_args(anchors, horizon, p, r)
    if c.factors is not None:
        u, v = c.factors
        ks = np.arange(1, horizon + 1, dtype=np.int64)
        du = np.abs(step_diff_values(u, ks, r))
        kv = _suffix_max(ks * np.abs(v.values(ks)))
        return [m ** (1.0 / p) * float(np.sum(du[m - 1:])) * float(kv[n - 1]) for m, n in anchors]
    sums = _sweep(lambda js, ks: np.abs(row_diff_values(c, js, ks, r)), np.add,
                  anchors, horizon, horizon)
    return [m ** (1.0 / p) * float(np.max(np.arange(n, horizon + 1) * s))
            for (m, n), s in zip(anchors, sums)]


DECAY_CONDITIONS = ("jk", "loglog", "row-tail", "col-tail", "mixed-diff-tail",
                    "row-diff-tail", "col-diff-tail")


def decay_report(c: DoubleSequenceRule, condition: str, thresholds: Sequence[int],
                 horizon: int, p: float = 2.0, r: int = 1) -> DecayReport:
    """Sample one of ``DECAY_CONDITIONS`` over the frontier anchors and report it.

    ``jk`` and ``loglog`` weigh ``|c_mn|`` by ``m * n`` and
    ``m * n * ln(m) * ln(n)``; the tail conditions are the batched tails
    above, and the ``col-*`` ones are the ``row-*`` ones on the transposed
    rule with the anchors swapped.  ``p`` and ``r`` serve the diff tails.
    The thresholds are checked before any value is computed, and the tail
    conditions refuse a horizon past ``TAIL_HORIZON_LIMIT``.  The diff
    tails bound no truncation residual yet and count as conclusive.
    """
    if condition not in DECAY_CONDITIONS:
        raise ValueError(f"unknown decay condition {condition!r}")
    anchors = frontier_samples(horizon)
    ts = _decay_thresholds(anchors, thresholds)
    # the diff tails sum only up to H, yet their residual is taken as 0: still to bound
    conclusive = True
    if condition in ("jk", "loglog"):
        ms = np.array([m for m, _ in anchors], dtype=np.int64)
        ns = np.array([n for _, n in anchors], dtype=np.int64)
        weight = ms * ns
        if condition == "loglog":
            weight = weight * np.log(ms) * np.log(ns)
        values = weight * np.abs(c.values(ms, ns))
    elif condition == "mixed-diff-tail":
        values = mixed_diff_tails(c, p, r, anchors, horizon)
    else:
        rule, at = c, anchors
        if condition.startswith("col-"):
            rule, at = transpose_rule(c), [(n, m) for m, n in anchors]
        if condition.endswith("diff-tail"):
            values = row_diff_tail_sups(rule, p, r, at, horizon)
        else:
            ests = row_tail_sups(rule, at, horizon)
            values = [e.value for e in ests]
            conclusive = all(math.isfinite(e.residual) for e in ests)
    return _build_decay_report(anchors, np.asarray(values, float), ts, conclusive)


# ---------------------------------------------------------------------------
# the log-integral inequality


def log_integral_bound(n: int, N: int, p: float) -> tuple[float, float]:
    """Closed form of ``int_{n + N^(1/p)}^{n + N} dk / (k ln k)`` and its cap.

    Returns ``(value, ln p)``.  The inequality says that the value never
    exceeds ``ln p`` for ``n, N >= 1`` and ``p >= 1`` (degenerate equality
    at p = 1); the caller checks it (the CLI reads a value above
    ``ln p + 1e-12`` as violated).  Inputs whose ``n + N^(1/p)`` overflows
    a float raise ``ValueError``.
    """
    if n < 1 or N < 1:
        raise ValueError("need n >= 1 and N >= 1")
    if not p >= 1:  # also refuses NaN
        raise ValueError("need p >= 1")
    try:
        lower = n + N ** (1.0 / p)
    except OverflowError:
        lower = math.inf
    if not math.isfinite(lower):
        raise ValueError("n + N^(1/p) overflows a float")
    value = math.log(math.log(n + N)) - math.log(math.log(lower))
    return value, math.log(p)