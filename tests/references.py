"""Code that the library replaced, kept as references for the replacements.

These must equal their replacements bit for bit (``==``):

* The direct column forms.  The library computes every column quantity
  of a rule as the row quantity of ``transpose_rule(c)`` with the indices
  swapped; ``symmetry_rules`` is the rule set the two are compared on.
* The two frontier product maximisers that ``frontier_product_max``
  replaced: the product remainder path's and the frontier bound's.
* The decay reports that ``decay_report`` replaced: ``jk_decay``,
  ``loglog_decay``, and the CLI's dispatch of the tail conditions through
  ``tail_decay_report``.

These must agree with their replacements to a relative 1e-12:

* The per-anchor tail loops ``loop_mixed_diff_tail``, ``loop_row_tail``
  and ``loop_row_diff_tail``.  The batched tails fold each row once, from
  row H down, so they add the same terms in another order.
"""

import functools
import math

import numpy as np

from dgmlab.convergence import (
    _build_decay_report,
    _decay_thresholds,
    _suffix_max,
    mixed_diff_tails,
    row_diff_tail_sups,
    row_tail_sups,
)
from dgmlab.counterexample import double_rule
from dgmlab.membership import BoundFamily, BoundValue, _window_sums
from dgmlab.sequences import (
    additive_rule,
    geometric_double_rule,
    geometric_rule,
    mixed_diff_values,
    power_double_rule,
    row_diff_values,
    step_diff_values,
    table_rule,
    transpose_rule,
)


def symmetry_rules():
    """Tables (complex, real, wider than tall, integer-valued with ties)
    and the library's product and additive rules."""
    rng = np.random.default_rng(31)
    return [
        table_rule(rng.normal(size=(13, 11)) + 1j * rng.normal(size=(13, 11)), "complex"),
        table_rule(rng.normal(size=(40, 36)), "real"),
        table_rule(rng.normal(size=(9, 30)), "wide"),
        table_rule(rng.integers(-2, 3, size=(12, 25)).astype(float), "integer ties"),
        geometric_double_rule(0.5),
        power_double_rule(1.5),
        double_rule(2.0),
        additive_rule(geometric_rule(0.5), geometric_rule(0.5), "separable"),
    ]


def direct_col_diff_values(c, js, ks, r):
    """Difference along the column index: ``c[j,k] - c[j,k+r]``."""
    if c.factors is not None:
        u, v = c.factors
        return u.values(js) * step_diff_values(v, ks, r)
    return c.values(js, ks) - c.values(js, np.asarray(ks) + r)


def direct_col_lhs(c, m, n, p, r):
    """Column-difference p-norm over the block ``[n, 2n)`` of row m."""
    d = np.abs(direct_col_diff_values(c, m, np.arange(n, 2 * n), r))
    return float(np.sum(d**p) ** (1.0 / p))


def direct_col_bound(c, m, n, spec):
    """Column-family bound at block start n, row m, scaled by 1/n."""
    def abs_col(ks):
        return np.abs(c.values(m, np.asarray(ks)))

    if m < 1:
        raise ValueError("fixed index must be >= 1")
    if spec.family is BoundFamily.MEAN_VALUE:
        if n < spec.lam:
            raise ValueError(f"mean-value family needs block start >= lam={spec.lam}")
        lo, hi = n // spec.lam, spec.lam * n
        total = float(np.sum(abs_col(np.arange(lo, hi + 1))))
        return BoundValue(total / n)

    if spec.family is BoundFamily.MAX_WINDOW and n < spec.lam:
        raise ValueError(f"max-window family needs block start >= lam={spec.lam}")
    cap = spec.horizon_cap
    lo = max(1, math.ceil(spec.anchor(n) - 1e-9))
    if spec.family is BoundFamily.MAX_WINDOW:
        hi = math.floor(spec.lam * spec.anchor(n) + 1e-9)
    else:
        hi = cap
    clipped = hi > cap
    hi = min(hi, cap)
    if lo > hi:
        return BoundValue(0.0, maximizer=None, truncated=True, conclusive=False)
    starts = np.arange(lo, hi + 1)
    vals = abs_col(np.arange(lo, 2 * hi + 1))
    sums = _window_sums(vals, lo, starts)
    i = int(np.argmax(sums))
    best = int(starts[i])
    truncated = (clipped or spec.family is BoundFamily.SUP_WINDOW) and best == cap
    return BoundValue(float(sums[i]) / n, maximizer=best, truncated=truncated)


def profile_product_max(pu, pv, thresholds):
    """The product remainder path's: max of pu[m-1] * pv[n-1] over m + n > t."""
    ms = np.arange(1, pu.size + 1)
    cap_n = pv.size
    sv = _suffix_max(pv)
    out = []
    for t in thresholds:
        lo_n = np.clip(t + 1 - ms, 1, cap_n + 1)
        ok = lo_n <= cap_n
        cand = np.where(ok, pu * sv[np.minimum(lo_n, cap_n) - 1], -np.inf)
        i = int(np.argmax(cand))
        if not np.isfinite(cand[i]):
            out.append((0.0, 0, 0))
            continue
        a = int(lo_n[i])
        n_star = a + int(np.argmax(pv[a - 1:]))
        out.append((float(cand[i]), int(ms[i]), n_star))
    return out


def window_product_max(wu, wv, lo_sum):
    """The frontier bound's: max of wu[M-1] * wv[N-1] over M + N >= lo_sum
    on a square of side cap; None when the frontier is out of reach."""
    cap = wu.size
    if lo_sum > 2 * cap:
        return None
    starts = np.arange(1, cap + 1)
    suf = np.maximum.accumulate(wv[::-1])[::-1]
    n_lo = np.clip(lo_sum - starts, 1, cap + 1)
    ok = n_lo <= cap
    cand = np.where(ok, wu * suf[np.minimum(n_lo, cap) - 1], -np.inf)
    i = int(np.argmax(cand))
    best_m = int(starts[i])
    a = int(n_lo[i])
    best_n = a + int(np.argmax(wv[a - 1:]))
    return float(wu[i] * wv[best_n - 1]), best_m, best_n


def frontier_samples(horizon, min_index=1):
    """The frontier anchors with their ``min_index`` knob."""
    base_floor = max(min_index, 2)
    ladder = []
    b = base_floor
    while b <= horizon:
        ladder.append(b)
        b *= 2
    pts = set()
    for b in ladder:
        for d in range(6):
            s = b + d
            for m, n in ((s, s), (2 * s, s), (s, 2 * s), (s, base_floor), (base_floor, s)):
                if min_index <= m <= horizon and min_index <= n <= horizon:
                    pts.add((m, n))
    return sorted(pts)


def jk_decay(c, thresholds, horizon=1 << 14):
    """Sample ``j * k * |c_jk|`` along the frontier paths."""
    samples = frontier_samples(horizon, min_index=1)
    ts = _decay_thresholds(samples, thresholds)
    ms = np.array([m for m, _ in samples], dtype=np.int64)
    ns = np.array([n for _, n in samples], dtype=np.int64)
    values = ms * ns * np.abs(c.values(ms, ns))
    return _build_decay_report(samples, values, ts, conclusive=True)


def loglog_decay(c, thresholds, horizon=1 << 14):
    """Sample ``m * n * ln(m) * ln(n) * |c_mn|``; indices start at 2."""
    samples = frontier_samples(horizon, min_index=2)
    ts = _decay_thresholds(samples, thresholds)
    ms = np.array([m for m, _ in samples], dtype=np.int64)
    ns = np.array([n for _, n in samples], dtype=np.int64)
    values = ms * ns * np.log(ms) * np.log(ns) * np.abs(c.values(ms, ns))
    return _build_decay_report(samples, values, ts, conclusive=True)


def tail_decay_report(fn, thresholds, horizon):
    """Sample a tail quantity ``fn(anchors) -> (values, conclusive)`` over
    the frontier anchors from index 2."""
    anchors = frontier_samples(horizon, min_index=2)
    ts = _decay_thresholds(anchors, thresholds)
    vals, conclusive = fn(anchors)
    return _build_decay_report(anchors, np.asarray(vals, float), ts, conclusive)


def decay_dispatch(c, condition, thresholds, horizon, p=2.0, r=1):
    """The CLI's choice of report and reducer per decay condition."""
    if condition == "jk":
        return jk_decay(c, thresholds, horizon)
    if condition == "loglog":
        return loglog_decay(c, thresholds, horizon)

    def fn(anchors):
        if condition == "mixed-diff-tail":
            return mixed_diff_tails(c, p, r, anchors, horizon), True
        rule, at = c, anchors
        if condition.startswith("col-"):
            rule, at = transpose_rule(c), [(n, m) for m, n in anchors]
        if condition.endswith("diff-tail"):
            return row_diff_tail_sups(rule, p, r, at, horizon), True
        ests = row_tail_sups(rule, at, horizon)
        return [e.value for e in ests], all(e.conclusive for e in ests)

    return tail_decay_report(fn, thresholds, horizon)


def loop_mixed_diff_tail(c, p, r, m, n, horizon, chunk=256):
    """The mixed difference tail of one anchor, one row chunk at a time."""
    total = 0.0
    ks = np.arange(n, horizon + 1)[None, :]
    js_all = np.arange(m, horizon + 1, dtype=np.int64)
    for i in range(0, js_all.size, chunk):
        rows = js_all[i:i + chunk, None]
        total += float(np.sum(np.abs(mixed_diff_values(c, rows, ks, r))))
    return (m * n) ** (1.0 / p) * total


def loop_row_tail(c, m, n, horizon, chunk=256):
    """The weighted row tail, one row chunk at a time."""
    js = np.arange(m, horizon + 1, dtype=np.int64)
    k_hi = horizon if c.support is None else min(horizon, c.support[1])
    tails = np.zeros(js.size)
    if k_hi >= n:
        ks = np.arange(n, k_hi + 1)[None, :]
        for i in range(0, js.size, chunk):
            tails[i:i + chunk] = np.sum(np.abs(c.values(js[i:i + chunk, None], ks)), axis=1)
    weighted = js * np.log(js) * tails
    return float(weighted[int(np.argmax(weighted))])


def loop_row_diff_tail(c, p, r, m, n, horizon, chunk=256):
    """The row difference tail over strips of ``chunk`` columns.  Rows are
    added one at a time: numpy sums a one-column array pairwise, not in j
    order."""
    ks = np.arange(n, horizon + 1, dtype=np.int64)
    js = np.arange(m, horizon + 1)[:, None]
    best = 0.0
    for i in range(0, ks.size, chunk):
        diffs = np.abs(row_diff_values(c, js, ks[None, i:i + chunk], r))
        sums = functools.reduce(np.add, diffs)
        best = max(best, float(np.max(ks[i:i + chunk] * sums)))
    return m ** (1.0 / p) * best
