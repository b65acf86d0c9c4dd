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
* The per-anchor product tails that suffix slices of factor arrays
  evaluated once replaced: ``per_anchor_product_row_tails``,
  ``per_anchor_product_mixed_diff_tails`` and
  ``per_anchor_product_row_diff_tails`` evaluated the factors again over
  [m, H] and [n, H] at every anchor, and ``per_anchor_row_tail_residuals``
  rebuilt the envelope weight over [m, H] at every anchor.

* The masked lookups ``masked_values_fn`` and ``masked_table_fn`` that
  the zero-padded lookups of ``rule_from_values`` and ``table_rule``
  replaced, in value (NaN where the reference is NaN), shape and dtype.
* ``four_call_partial_sum_bound``, which evaluated the rule four times
  where ``partial_sum_bound`` now slices one evaluation.
* ``per_row_write_csv``, which formatted and wrote one row at a time
  where ``write_csv`` now formats a batch of rows of one type at once.
* The per-point remainder paths that the batched ones replaced:
  ``per_point_sampled_sups`` built the whole table per point, folded the
  rows of c_jk sin(jx) and multiplied them by sin(ky) after,
  ``per_pair_product_sups`` computed both axes' start maxima for every
  pair, and ``one_table_general_scan`` scanned one point's table at a
  time.
* ``suffix_start_maxima``, the general scan's widest strip sums from each
  start on, where the scan now reads the range of each suffix.
* The difference operators that evaluated the rule once per operand:
  ``two_call_step_diff_values``, ``two_call_row_diff_values`` and
  ``four_call_mixed_diff_values``, where the library now evaluates one
  block of the index runs extended by r and differences it by slices;
  and ``per_window_divisor_embedding_check``, which evaluated each
  shifted window of the divisor chain on its own.
* ``full_split_cos_exact``, which also split the half-integer factor, and
  ``concatenated_sbp_decompose``, which built the three kernel ranges by
  concatenation and divided each by 2 sin(rx/2) on its own.

* ``tile_kernel_bound_sweep``, which computed |cos| at every shift and
  abscissa, where ``kernel_bound_sweep`` now skips the abscissas whose
  ceiling can change neither result, and ``two_branch_jordan_bounds``,
  which computed both branches of the half-band bound.

* The four verdict rules that ``sequences.Reading.read`` replaced, as
  they were: ``branch_classify_decay``, ``branch_convergence_verdict``,
  ``branch_aggregate`` (membership) and ``branch_ratio_reading``, the
  ``counterexample ratio`` reading the CLI made.  They give the same
  verdict on every report whose verdict quantities are finite.

``assert_bits_equal`` is that ``==`` for arrays that may hold NaN.

``scalar_eval`` is the scalar evaluator that the rules had, one value as
a Python complex; ``constant_rule``, ``zero_double_rule`` and
``double_term`` are the constant rules and the scalar term of the
sharpness example that only the tests used.

``dirichlet_cos`` and ``dirichlet_sin`` are the scalar kernels: the
oracle that the kernel sweep and the half-band bound are checked against.
``double_partial_sum`` is one rectangle sum from the full table of terms,
exactly rounded: the oracle of the rectangle sums.

These must agree with their replacements to a relative 1e-12:

* The per-anchor tail loops ``loop_mixed_diff_tail``, ``loop_row_tail``
  and ``loop_row_diff_tail``.  The batched tails fold each row once, from
  row H down, so they add the same terms in another order.
* ``pair_term_sampled_sups``, the sampled path that summed the terms
  c_jk * (sin(jx) * sin(ky)), where it now sums (sum_j c_jk sin(jx)) * sin(ky).
"""

import functools
import math

import numpy as np

from dgmlab import kernels
from dgmlab.convergence import (
    CORNER_TABLE_CAP,
    FLAT_RATIO,
    TOL_CONVERGE,
    TOL_DIVERGE,
    VERDICT_WINDOW,
    ConvergenceVerdict,
    _corner_ladder,
    _start_maxima,
)
from dgmlab.counterexample import double_rule, single_term
from dgmlab.decay import (
    DecayVerdict,
    _build_decay_report,
    _decay_thresholds,
    _weight_is_decreasing,
    mixed_diff_tails,
    row_diff_tail_sups,
    row_tail_sups,
)
from dgmlab.kernels import (
    KERNEL_STEP_LIMIT,
    HalfBandSweep,
    PartialSumBound,
    SbpDecomposition,
    _exact_sum,
    _half_denominator,
    band_index,
    half_bands,
    kernel_band_bound,
)
from dgmlab.membership import (
    ABS_TOL,
    BoundFamily,
    BoundValue,
    EmbeddingReport,
    EmbeddingViolation,
    MembershipReport,
    Verdict,
    _fit_axis,
    _leq,
    _window_sums,
)
from dgmlab.output import _RowFormats, fmt_value
from dgmlab.sequences import (
    additive_rule,
    geometric_double_rule,
    geometric_rule,
    SequenceRule,
    _suffix_max,
    double_block_p_norm,
    frontier_product_max,
    mixed_diff_values,
    p_norm,
    power_double_rule,
    product_rule,
    row_diff_values,
    step_diff_values,
    table_rule,
    transpose_rule,
)


def assert_bits_equal(got, want):
    """``==`` on the real and the imaginary parts apart, NaN exactly where
    the reference is NaN, and the same signs of zero."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    for g, w in ((got.real, want.real), (got.imag, want.imag)):
        nan = np.isnan(w)
        assert np.array_equal(np.isnan(g), nan)
        assert np.all(g[~nan] == w[~nan])
        assert np.array_equal(np.signbit(g[~nan]), np.signbit(w[~nan]))


def scalar_eval(rule, *idx):
    """The rule's value at one index (single rule) or index pair (double
    rule), as a Python complex."""
    return complex(rule.values(*([i] for i in idx))[0])


def constant_rule(value=0j):
    return SequenceRule(
        lambda ks: np.full(ks.shape, complex(value)),
        label=f"const({value})",
        real=(complex(value).imag == 0.0),
    )


def zero_double_rule():
    z = constant_rule(0j)
    return product_rule(z, z, label="zero")


def double_term(m, n, p):
    """c_mn = a_m * a_n of the sharpness example, from the scalar terms."""
    return single_term(m, p) * single_term(n, p)


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
        return BoundValue(0.0, maximizer=None, truncated=True)
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
        return [e.value for e in ests], all(math.isfinite(e.residual) for e in ests)

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


def per_anchor_product_row_tails(c, anchors, horizon):
    """The values of ``row_tail_sups`` on a product rule, anchor by anchor."""
    u, v = c.factors
    values = []
    for m, n in anchors:
        js = np.arange(m, horizon + 1, dtype=np.int64)
        sv = float(np.sum(np.abs(v.values(np.arange(n, horizon + 1)))))
        values.append(float(np.max(js * np.log(js) * (np.abs(u.values(js)) * sv))))
    return values


def per_anchor_row_tail_residuals(c, anchors, horizon):
    """The residuals of ``row_tail_sups``, anchor by anchor."""
    env, h1 = c.tail, horizon + 1.0
    exact = c.support is not None and max(c.support) <= horizon
    out = []
    for m, n in anchors:
        residual = 0.0 if exact else math.inf
        if env is not None and not exact:
            js = np.arange(m, horizon + 1, dtype=np.int64)
            resid_beyond = math.inf
            if _weight_is_decreasing(env.kind, env.a_j, h1):
                resid_beyond = h1 * math.log(h1) * env.f(h1) * env.amp * env.g_tail(n)
            w_max = float(np.max(js * np.log(js) * env.f(js.astype(float))))
            residual = w_max * env.amp * env.g_tail(horizon + 1) + resid_beyond
        out.append(residual)
    return out


def per_anchor_product_mixed_diff_tails(c, p, r, anchors, horizon):
    """``mixed_diff_tails`` on a product rule, anchor by anchor."""
    u, v = c.factors
    out = []
    for m, n in anchors:
        su = float(np.sum(np.abs(step_diff_values(u, np.arange(m, horizon + 1), r))))
        sv = float(np.sum(np.abs(step_diff_values(v, np.arange(n, horizon + 1), r))))
        out.append((m * n) ** (1.0 / p) * su * sv)
    return out


def per_anchor_product_row_diff_tails(c, p, r, anchors, horizon):
    """``row_diff_tail_sups`` on a product rule, anchor by anchor."""
    u, v = c.factors
    out = []
    for m, n in anchors:
        ks = np.arange(n, horizon + 1, dtype=np.int64)
        su = float(np.sum(np.abs(step_diff_values(u, np.arange(m, horizon + 1), r))))
        out.append(m ** (1.0 / p) * su * float(np.max(ks * np.abs(v.values(ks)))))
    return out


def masked_values_fn(values):
    """``rule_from_values``'s lookup: mask the indices inside ``1..n``, in
    the dtype of the input (float64 for real input, complex128 otherwise)."""
    arr = np.asarray(values, dtype=float if np.isrealobj(values) else complex)

    def fn(ks):
        idx = ks - 1
        ok = (idx >= 0) & (idx < arr.size)
        out = np.zeros(ks.shape, dtype=arr.dtype)
        out[ok] = arr[idx[ok]]
        return out

    return fn


def masked_table_fn(table):
    """``table_rule``'s lookup: mask the index pairs inside the support box,
    in the dtype of the input (float64 for real input, complex128 otherwise)."""
    arr = np.asarray(table, dtype=float if np.isrealobj(table) else complex)
    rows, cols = arr.shape

    def fn(js, ks):
        jb, kb = np.broadcast_arrays(js - 1, ks - 1)
        ok = (jb >= 0) & (jb < rows) & (kb >= 0) & (kb < cols)
        out = np.zeros(jb.shape, dtype=arr.dtype)
        out[ok] = arr[jb[ok], kb[ok]]
        return out

    return fn


def four_call_partial_sum_bound(seq, n, N, r, x):
    """``partial_sum_bound`` with one rule evaluation per sum (four in all)."""
    if N < n:
        raise ValueError("need N >= n")
    l, half = band_index(x, r)
    pref = kernel_band_bound(x, r, l)
    ks = np.arange(n, N + 1)
    term_sum = float(
        np.sum(np.abs(step_diff_values(seq, ks, r)))
        + np.sum(np.abs(seq.values(np.arange(N + 1, N + r + 1))))
        + np.sum(np.abs(seq.values(np.arange(n, n + r))))
    )
    if half == 0:
        stated = math.pi / (2.0 * (r * x - 2.0 * math.pi * l))
    else:
        stated = math.pi / (2.0 * (l + 1) * math.pi - r * x)
    return PartialSumBound(pref * term_sum, pref, stated, term_sum, l, half)


def _whole_table_sampled_sups(c, points, thresholds, caps, prefix_rows):
    """The sampled remainder path with the whole rule table, where
    ``prefix_rows(vals, sx, sy, rows)`` gives one point's prefix sums along
    k of the row-prefix rows ``rows`` (1-based), from its sines along j and k."""
    cap_m = min(caps[0], CORNER_TABLE_CAP)
    cap_n = min(caps[1], CORNER_TABLE_CAP)
    js = np.arange(1, cap_m + 1)
    ks = np.arange(1, cap_n + 1)
    vals = c.values(js[:, None], ks[None, :])
    if c.real:
        vals = vals.real.copy()

    lad_m, lad_n = _corner_ladder(cap_m), _corner_ladder(cap_n)
    pairs_m = [(m, M) for m in lad_m for M in lad_m if M >= m]
    pairs_n = [(n, N) for n in lad_n for N in lad_n if N >= n]
    am = np.array([p[0] for p in pairs_m])
    aM = np.array([p[1] for p in pairs_m])
    an = np.array([p[0] for p in pairs_n])
    aN = np.array([p[1] for p in pairs_n])
    sums = am[:, None] + an[None, :]
    rows = np.union1d(lad_m, lad_m - 1)[1:]
    at = np.zeros(cap_m + 1, dtype=np.int64)
    at[rows] = np.arange(1, rows.size + 1)
    hi, lo = at[aM][:, None], at[am - 1][:, None]
    results = []
    for x, y in points:
        kept = prefix_rows(vals, np.sin(js * x), np.sin(ks * y), rows)
        pref = np.zeros((rows.size + 1, cap_n + 1), dtype=kept.dtype)
        pref[1:, 1:] = kept
        rect = np.abs(pref[hi, aN[None, :]] - pref[lo, aN[None, :]]
                      - pref[hi, an[None, :] - 1] + pref[lo, an[None, :] - 1])
        out = []
        for t in thresholds:
            masked = np.where(sums > t, rect, -np.inf)
            i, j = np.unravel_index(int(np.argmax(masked)), masked.shape)
            if not np.isfinite(masked[i, j]):
                out.append((0.0, 0, 0))
            else:
                out.append((float(masked[i, j]), int(am[i]), int(an[j])))
        results.append(out)
    return results


def _row_prefix(table):
    """The prefix sums along j of ``table``, one row added at a time."""
    for i in range(1, table.shape[0]):
        np.add(table[i - 1], table[i], out=table[i])
    return table


def per_point_sampled_sups(c, points, thresholds, caps):
    """The sampled remainder path with the whole rule table: per point, the
    row prefix of c_jk * sin(jx), times sin(ky), then the prefix along k."""
    def prefix_rows(vals, sx, sy, rows):
        return np.cumsum(_row_prefix(vals * sx[:, None])[rows - 1] * sy, axis=1)

    return _whole_table_sampled_sups(c, points, thresholds, caps, prefix_rows)


def pair_term_sampled_sups(c, points, thresholds, caps):
    """The sampled remainder path that summed the terms
    c_jk * (sin(jx) * sin(ky)): the row prefix of one product table per
    point, then the prefix along k."""
    def prefix_rows(vals, sx, sy, rows):
        return np.cumsum(_row_prefix(vals * np.outer(sx, sy))[rows - 1], axis=1)

    return _whole_table_sampled_sups(c, points, thresholds, caps, prefix_rows)


def suffix_start_maxima(h):
    """sw[..., a-1] = max over a <= n <= N of |h[..., N] - h[..., n-1]|."""
    return _suffix_max(_start_maxima(h))


def per_pair_product_sups(c, points, thresholds, caps):
    """The product remainder path with both start maxima computed per pair."""
    u, v = c.factors
    ms = np.arange(1, caps[0] + 1)
    ns = np.arange(1, caps[1] + 1)
    u_vals = u.values(ms).real
    v_vals = v.values(ns).real
    results = []
    for x, y in points:
        pu = _start_maxima(np.concatenate(([0.0], np.cumsum(u_vals * np.sin(ms * x)))))
        pv = _start_maxima(np.concatenate(([0.0], np.cumsum(v_vals * np.sin(ns * y)))))
        best = frontier_product_max(pu, pv, [t + 1 for t in thresholds])
        results.append([e if math.isfinite(e[0]) else (0.0, 0, 0) for e in best])
    return results


def one_table_general_scan(table, thresholds):
    """The general exact scan of one point's table."""
    cap_m, cap_n = table.shape
    col_prefix = np.vstack([np.zeros(cap_n), np.cumsum(table, axis=0)])
    best = [(-math.inf, 0, 0, 0)] * len(thresholds)
    for m in range(1, cap_m + 1):
        h = np.zeros((cap_m - m + 1, cap_n + 1))
        np.cumsum(col_prefix[m:] - col_prefix[m - 1], axis=1, out=h[:, 1:])
        sw = suffix_start_maxima(h)
        for ti, t in enumerate(thresholds):
            a = max(1, t + 1 - m)
            if a > cap_n:
                continue
            col = sw[:, a - 1]
            i = int(np.argmax(col))
            if math.isnan(col[i]):
                col = np.where(np.isnan(col), -np.inf, col)
                i = int(np.argmax(col))
            if col[i] > best[ti][0]:
                best[ti] = (float(col[i]), m, m + i, a)
    out = []
    for val, m, M, a in best:
        if not math.isfinite(val):
            out.append((0.0, 0, 0))
            continue
        strip = col_prefix[M] - col_prefix[m - 1]
        pw = _start_maxima(np.concatenate(([0.0], np.cumsum(strip))))
        out.append((val, m, a + int(np.argmax(pw[a - 1:]))))
    return out


def per_point_general_sups(c, points, thresholds, caps):
    """The general exact path, one point's table at a time."""
    js = np.arange(1, caps[0] + 1)
    ks = np.arange(1, caps[1] + 1)
    vals = c.values(js[:, None], ks[None, :]).real
    return [one_table_general_scan(vals * np.outer(np.sin(js * x), np.sin(ks * y)), thresholds)
            for x, y in points]


def per_row_write_csv(path, header, rows):
    """``write_csv`` with one %-operation and one write per row."""
    formats = _RowFormats()
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fmt = formats[tuple(map(type, row))]
            fh.write(fmt % tuple(row) if fmt is not None
                     else ",".join(map(fmt_value, row)) + "\n")


def two_call_step_diff_values(seq, ks, r):
    """``a_k - a_{k+r}`` with one rule evaluation per operand."""
    ks = np.asarray(ks, dtype=np.int64)
    return seq.values(ks) - seq.values(ks + r)


def two_call_row_diff_values(c, js, ks, r):
    """``c[j,k] - c[j+r,k]`` with one rule evaluation per operand."""
    if c.factors is not None:
        u, v = c.factors
        return two_call_step_diff_values(u, js, r) * v.values(ks)
    return c.values(js, ks) - c.values(np.asarray(js) + r, ks)


def four_call_mixed_diff_values(c, js, ks, r):
    """The mixed difference with one rule evaluation per operand."""
    if c.factors is not None:
        u, v = c.factors
        return two_call_step_diff_values(u, js, r) * two_call_step_diff_values(v, ks, r)
    js = np.asarray(js, dtype=np.int64)
    ks = np.asarray(ks, dtype=np.int64)
    return (
        c.values(js, ks)
        - c.values(js + r, ks)
        - c.values(js, ks + r)
        + c.values(js + r, ks + r)
    )


def per_window_divisor_embedding_check(c, p, r1, r2, blocks):
    """``divisor_embedding_check`` with one difference evaluation per
    shifted window."""
    q = r2 // r1
    t = transpose_rule(c)
    violations = []
    checked = 0
    for m, n in blocks:
        for axis, rule, start, other in (("row", c, m, n), ("col", t, n, m)):
            seq = SequenceRule(lambda js: rule.values(js, other), real=c.real)
            lhs = p_norm(two_call_step_diff_values(seq, np.arange(start, 2 * start), r2), p)
            chain = sum(p_norm(two_call_step_diff_values(
                seq, np.arange(start + i * r1, 2 * start + i * r1), r1), p) for i in range(q))
            checked += 1
            if not _leq(lhs, chain):
                violations.append(EmbeddingViolation(m, n, axis, lhs, chain))

        lhs = double_block_p_norm(c, m, n, p, r2)
        chain = 0.0
        for i in range(q):
            for i2 in range(q):
                js = np.arange(m, 2 * m) + i * r1
                ks = np.arange(n, 2 * n) + i2 * r1
                chain += p_norm(four_call_mixed_diff_values(c, js[:, None], ks[None, :], r1), p)
        checked += 1
        if not _leq(lhs, chain):
            violations.append(EmbeddingViolation(m, n, "mixed", lhs, chain))
    return EmbeddingReport(not violations, checked, violations)


_SPLIT = 134217729.0  # 2**27 + 1


def full_split_cos_exact(a, b):
    """cos(a * b) at the exact product, with both factors split."""
    a = np.asarray(a, dtype=float)
    prod = a * b
    a1 = a * _SPLIT
    ah = a1 - (a1 - a)
    al = a - ah
    b1 = b * _SPLIT
    bh = b1 - (b1 - b)
    bl = b - bh
    err = ((ah * bh - prod) + ah * bl + al * bh) + al * bl
    return np.cos(prod) - err * np.sin(prod)


def concatenated_sbp_decompose(seq, n, m, r, x):
    """``sbp_decompose`` with its three kernel ranges concatenated."""
    if m < n:
        raise ValueError("need m >= n")
    if r < 1:
        raise ValueError("step r must be >= 1")
    s = _half_denominator(r, x)
    length = m - n + 1
    ks = np.arange(n, m + r + 1)
    vals = seq.values(ks)
    cos = full_split_cos_exact(np.concatenate([ks[:length] + 0.5 * r, ks[length:] - 0.5 * r,
                                               ks[:r] - 0.5 * r]), x)
    kern = cos[:length] / (2.0 * s)
    main = -_exact_sum((vals[:length] - vals[r:length + r]) * kern)
    upper = _exact_sum(vals[length:] * (-cos[length:length + r] / (2.0 * s)))
    lower = -_exact_sum(vals[:r] * (-cos[length + r:] / (2.0 * s)))
    return SbpDecomposition(main, upper, lower)


def dirichlet_cos(k, r, x):
    """Cosine-numerator Dirichlet-type kernel; r may be negative."""
    if k < 0:
        raise ValueError("k must be >= 0")
    return math.cos((k + 0.5 * r) * x) / (2.0 * _half_denominator(r, x))


def dirichlet_sin(k, r, x):
    """Sine-numerator Dirichlet-type kernel; r may be negative."""
    if k < 0:
        raise ValueError("k must be >= 0")
    return math.sin((k + 0.5 * r) * x) / (2.0 * _half_denominator(r, x))


def double_partial_sum(c, m, M, n, N, x, y):
    """``sum_{j=m}^{M} sum_{k=n}^{N} c_jk sin(jx) sin(ky)``, exactly rounded.

    Accumulation uses ``math.fsum`` on the real and imaginary parts, which
    is at least as accurate as compensated summation.
    """
    if not (1 <= m <= M and 1 <= n <= N):
        raise ValueError("need 1 <= m <= M and 1 <= n <= N")
    js = np.arange(m, M + 1)
    ks = np.arange(n, N + 1)
    terms = c.values(js[:, None], ks[None, :]) * np.outer(np.sin(js * x), np.sin(ks * y))
    return complex(math.fsum(terms.real.ravel().tolist()),
                   math.fsum(terms.imag.ravel().tolist()))


def two_branch_jordan_bounds(xs, r, band):
    """``kernels._jordan_bounds`` with both branches computed everywhere."""
    u = r * xs / math.pi - 2 * band
    return np.where(u < 1.0, 1.0 / (2.0 * u), 1.0 / (2.0 * (2.0 - u)))


def tile_kernel_bound_sweep(r, points, k_max):
    """``kernel_bound_sweep`` with the |cos| of every shift and abscissa.

    The bound, the |cos| tiles and the tile size come from the library
    module, so that a patched bound or tile size reaches both."""
    if points < 2 or k_max < 0:
        raise ValueError("need points >= 2 and k_max >= 0")
    if not 1 <= r <= KERNEL_STEP_LIMIT:
        raise ValueError(f"step r must be in [1, {KERNEL_STEP_LIMIT}]")
    ks = np.union1d(np.arange(-r, k_max - r + 1), np.arange(0, k_max + 1))
    shifts = ks + 0.5 * r
    reads = (ks >= 0).astype(np.int64) + (ks <= k_max - r)
    tile_size = kernels._TILE
    cols = min(points, tile_size)
    strip = max(1, tile_size // cols)
    buf = np.empty(tile_size)
    reports = []
    for band, half, lo, hi in half_bands(r):
        width = hi - lo
        xs = np.linspace(lo + width / (points + 1), hi - width / (points + 1), points)
        worst = 0.0
        bad = 0
        for c0 in range(0, points, cols):
            x = xs[c0:c0 + cols]
            top = np.zeros(x.size)
            for s0 in range(0, ks.size, strip):
                np.maximum(top, kernels._abs_cos(shifts[s0:s0 + strip], x, buf).max(axis=0),
                           out=top)
            denom = 2.0 * np.abs(np.sin(0.5 * r * x))
            bound = kernels._jordan_bounds(x, r, band)
            ratio = top / denom / bound
            worst = max(worst, float(np.max(ratio)))
            over = np.flatnonzero(ratio > 1.0 + 1e-12)
            if over.size:
                step = tile_size // over.size
                for s0 in range(0, ks.size, step):
                    mag = kernels._abs_cos(shifts[s0:s0 + step], x[over], buf) / denom[over]
                    hits = np.count_nonzero(mag / bound[over] > 1.0 + 1e-12, axis=1)
                    bad += int(reads[s0:s0 + step] @ hits)
        reports.append(HalfBandSweep(band, half, points, k_max, worst, bad))
    return reports


def branch_classify_decay(report):
    """Three-valued reading of a decay report's tail trajectory."""
    first, last = report.max_tail[0], report.max_tail[-1]
    if last == 0.0:
        return DecayVerdict.DECAYING if report.conclusive else DecayVerdict.INCONCLUSIVE
    if first > 0 and last <= 0.5 * first and (math.isnan(report.trend_fit)
                                              or report.trend_fit < -0.02):
        return DecayVerdict.DECAYING if report.conclusive else DecayVerdict.INCONCLUSIVE
    if last >= 0.9 * first:
        return DecayVerdict.NOT_DECAYING
    return DecayVerdict.INCONCLUSIVE


def branch_convergence_verdict(sups, exact):
    window = list(sups[-min(VERDICT_WINDOW, len(sups)):])
    last = window[-1]
    nonincreasing = all(a >= b - 1e-15 for a, b in zip(window, window[1:]))
    if exact and last < TOL_CONVERGE and nonincreasing:
        return ConvergenceVerdict.CONVERGING
    if last > TOL_DIVERGE and last >= FLAT_RATIO * max(window):
        return ConvergenceVerdict.NOT_CONVERGING
    return ConvergenceVerdict.INCONCLUSIVE


def branch_aggregate(evidence):
    finite = [e.ratio for e in evidence if e.rhs > 0 and not e.truncated]
    c_estimate = max(finite, default=0.0)
    hard_violation = any(
        e.rhs == 0.0 and e.lhs > ABS_TOL and not e.truncated for e in evidence
    )

    anchors = {"row": lambda e: e.m, "col": lambda e: e.n, "mixed": lambda e: e.m + e.n}
    fits = []
    for axis, anchor in anchors.items():
        pts = [(anchor(e), e.ratio) for e in evidence
               if e.axis == axis and e.rhs > 0 and not e.truncated]
        fit = _fit_axis(axis, pts)
        if fit is not None:
            fits.append(fit)

    growth_fit = max((f.slope for f in fits), default=math.nan)
    growth_violation = any(
        f.slope > MembershipReport.SLOPE_THRESHOLD
        and f.octaves >= MembershipReport.MIN_OCTAVES
        and f.correlation >= MembershipReport.MIN_CORRELATION
        for f in fits
    )
    if hard_violation or growth_violation:
        verdict = Verdict.VIOLATED
    elif any(e.truncated for e in evidence):
        verdict = Verdict.INCONCLUSIVE
    else:
        verdict = Verdict.CONSISTENT
    return MembershipReport(evidence, c_estimate, growth_fit, verdict, fits)


def branch_ratio_reading(ns, ratios):
    """``(reading, exit code, slope)`` of a ``counterexample ratio`` scan."""
    slope = float(np.polyfit(np.log2(ns), np.log2(ratios), 1)[0]) \
        if len(ns) >= 2 and all(v > 0 for v in ratios) else math.nan
    # an infinite ratio comes from a truncated right-hand side: no reading
    if not all(math.isfinite(v) for v in ratios):
        reading, code = "inconclusive", 2
    elif not math.isnan(slope) and slope > 0.05:
        reading, code = "growing", 1
    else:
        reading, code = "bounded", 0
    return reading, code, slope
