"""Regular-convergence profiling of rectangle partial sums, decay and tail checks.

Regular convergence of a double sine series asks every rectangle sum
``sum_{j=m}^{M} sum_{k=n}^{N} c_jk sin(jx) sin(ky)`` with ``m + n`` large
to be small.  The profiler computes, per threshold t, the exact supremum
of |rectangle sum| over all rectangles with ``m + n > t`` inside the
configured caps and over a singularity-avoiding (x, y) grid.  For product
rules the supremum factorizes and is found in O(cap) per grid point; a
general real rule gets an exact cubic-cost scan at small caps; anything
else falls back to log-spaced corner sampling, which only ever
underestimates and therefore can never upgrade a verdict to "converging".
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .sequences import (
    HORIZON_LIMIT,
    DoubleSequenceRule,
    mixed_diff_values,
    row_diff_values,
    step_diff_values,
    transpose_rule,
)

# Verdict tolerances: sup below TOL_CONVERGE at the largest threshold and
# nonincreasing over the last four thresholds reads as converging; a sup
# stuck above TOL_DIVERGE (within FLAT_RATIO of its recent peak) reads as
# not converging; everything else is inconclusive.
TOL_CONVERGE = 1e-3
TOL_DIVERGE = 0.1
FLAT_RATIO = 0.5
VERDICT_WINDOW = 4

# caps for the exact cubic scan / the sampled fallback table
EXACT_GENERAL_CAP = 128
CORNER_TABLE_CAP = 2048

# most abscissas per grid axis, so at most 4096 (x, y) pairs: about 3 MB of
# per-pair records; on 2 shared vCPUs such a grid took about 100 s on the
# general exact path at cap 128 (25 ms a pair) and 10-18 s on the sampled
# path at cap 2048 (a real rule to a complex table)
GRID_ABSCISSA_LIMIT = 64


class ConvergenceVerdict(enum.Enum):
    CONVERGING = "converging"
    NOT_CONVERGING = "not-converging"
    INCONCLUSIVE = "inconclusive"


class DecayVerdict(enum.Enum):
    DECAYING = "decaying"
    NOT_DECAYING = "not-decaying"
    INCONCLUSIVE = "inconclusive"


# ---------------------------------------------------------------------------
# grids


@dataclass(frozen=True)
class GridSpec:
    """Abscissa grid on (0, pi] avoiding the singular points 2*l*pi/r."""

    r: int
    points_per_band: int = 3
    exclusion_radius: float = 1e-6

    def __post_init__(self):
        if self.r < 1:
            raise ValueError("grid step r must be >= 1")
        if self.points_per_band < 1:
            raise ValueError("points_per_band must be >= 1")
        if grid_size_bound(self.r, self.points_per_band) > GRID_ABSCISSA_LIMIT:
            raise ValueError(f"a grid of step {self.r} with {self.points_per_band} points "
                             f"per band may have more than {GRID_ABSCISSA_LIMIT} abscissas")
        if not 0 < self.exclusion_radius < math.pi / (4 * self.r):
            raise ValueError("exclusion_radius out of range")


def grid_size_bound(r: int, points_per_band: int) -> int:
    """At most this many abscissas in the grid of step r: r // 2 + 1 bands,
    each with its interior points and one point inside each singular edge."""
    return (r // 2 + 1) * (points_per_band + 2)


def grid_points(spec: GridSpec) -> np.ndarray:
    """Grid abscissas: uniform interior points per band plus near-singular
    points one exclusion radius inside each singular band edge."""
    singular = []
    l = 0
    while 2 * l * math.pi / spec.r <= math.pi + 1e-12:
        singular.append(2 * l * math.pi / spec.r)
        l += 1
    bounds = sorted(set(singular) | {0.0, math.pi})
    pts: list[float] = []
    for lo, hi in zip(bounds, bounds[1:]):
        width = hi - lo
        if width <= 2 * spec.exclusion_radius:
            continue
        for i in range(spec.points_per_band):
            pts.append(lo + width * (i + 1) / (spec.points_per_band + 1))
        if lo in singular:
            pts.append(lo + spec.exclusion_radius)
        if hi in singular:
            pts.append(hi - spec.exclusion_radius)
    ok = [
        x for x in pts
        if 0.0 < x <= math.pi
        and all(abs(x - s) >= spec.exclusion_radius * (1 - 1e-12) for s in singular)
    ]
    return np.unique(np.asarray(ok, dtype=float))


# ---------------------------------------------------------------------------
# remainder profiling


@dataclass(frozen=True)
class ProfileEntry:
    threshold: int
    sup: float
    m: int
    n: int
    x: float
    y: float


@dataclass(frozen=True)
class RemainderProfile:
    entries: list[ProfileEntry]
    caps: tuple[int, int]
    verdict: ConvergenceVerdict
    exact: bool
    grid_size: int
    trivial: bool = False


def _suffix_max(a: np.ndarray) -> np.ndarray:
    """Suffix maxima along the last axis."""
    return np.maximum.accumulate(a[..., ::-1], axis=-1)[..., ::-1]


def _start_maxima(prefix: np.ndarray) -> np.ndarray:
    """best[..., m-1] = max over M in [m, cap] of |prefix[..., M] - prefix[..., m-1]|.

    ``prefix`` holds real partial sums along its last axis with
    prefix[..., 0] = 0.
    """
    cap = prefix.shape[-1] - 1
    smax = _suffix_max(prefix[..., 1:])
    smin = -_suffix_max(-prefix[..., 1:])
    starts = prefix[..., :cap]
    return np.maximum(smax - starts, starts - smin)


def _suffix_ranges(h: np.ndarray) -> np.ndarray:
    """ranges[..., i] = max(h[..., i:]) - min(h[..., i:]) for every i but the
    last: the widest |h[N] - h[n-1]| over i < n <= N, bit for bit since
    rounding is monotone, and +0 where every such difference is a zero.
    NaN wherever h[..., i:] holds a NaN."""
    return (_suffix_max(h) + _suffix_max(-h))[..., :-1]


def frontier_product_max(a: np.ndarray, b: np.ndarray,
                         sums: Sequence[int]) -> list[tuple[float, int, int]]:
    """Per sum s, the max of ``a[i-1] * b[j-1]`` over ``i + j >= s``.

    ``(value, i, j)`` with 1-based indices, the smallest i first and then
    the smallest j; ``(-inf, 0, 0)`` when no pair reaches s.  The suffix
    maxima of ``b`` are computed once for all the sums.
    """
    sb = _suffix_max(b)
    out = []
    for s in sums:
        i0 = max(1, s - b.size)
        if i0 > a.size:
            out.append((-math.inf, 0, 0))
            continue
        # i in [i0, i1] pairs with j >= s - i, the rest with every j
        i1 = max(i0 - 1, min(s - 1, a.size))
        reach = np.concatenate((sb[s - i1 - 1:s - i0][::-1], np.repeat(sb[0], a.size - i1)))
        cand = a[i0 - 1:] * reach
        i = i0 + int(np.argmax(cand))
        j = max(1, s - i)
        out.append((float(cand[i - i0]), i, j + int(np.argmax(b[j - 1:]))))
    return out


# entries per remainder batch: the sampled path evaluates B // cap_n rule
# rows at a time and holds B // max(cap_m, cap_n, corner rows x corner
# columns) points, the general path B // (cap_m * cap_n) point tables, and
# the product path the y side of B // cap_n abscissas; so no array of a
# batch holds more than B entries, whatever the caps and the grid size
_BATCH_ENTRIES = 1 << 17


def _distinct(zs) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values of ``zs``, bit for bit, and the position of each
    entry of ``zs`` among them."""
    bits, where = np.unique(np.asarray(zs, dtype=float).view(np.int64), return_inverse=True)
    return bits.view(float), where


def _point_sups_product(c: DoubleSequenceRule, points: Sequence[tuple[float, float]],
                        thresholds: Sequence[int],
                        caps: tuple[int, int]) -> list[list[tuple[float, int, int]]]:
    """The start maxima of u are computed once per distinct x and those of
    v once per distinct y.  The y side is held in batches of
    ``_BATCH_ENTRIES // caps[1]`` abscissas; each batch computes the x side
    once more."""
    u, v = c.factors
    ms = np.arange(1, caps[0] + 1)
    ns = np.arange(1, caps[1] + 1)
    u_vals = u.values(ms)
    v_vals = v.values(ns)
    sums = [t + 1 for t in thresholds]  # rectangles with m + n > t
    xs, xi = _distinct([x for x, _ in points])
    ys, yi = _distinct([y for _, y in points])
    per_batch = max(1, _BATCH_ENTRIES // caps[1])
    results = [None] * len(points)
    for y0 in range(0, ys.size, per_batch):
        pv = [_start_maxima(np.concatenate(([0.0], np.cumsum(v_vals * np.sin(ns * y)))))
              for y in ys[y0:y0 + per_batch].tolist()]
        by_x: dict[int, list[int]] = {}
        for p in np.flatnonzero((yi >= y0) & (yi < y0 + per_batch)).tolist():
            by_x.setdefault(int(xi[p]), []).append(p)
        for a, todo in by_x.items():
            pu = _start_maxima(np.concatenate(([0.0], np.cumsum(u_vals * np.sin(ms * xs[a])))))
            for p in todo:
                best = frontier_product_max(pu, pv[yi[p] - y0], sums)
                results[p] = [e if math.isfinite(e[0]) else (0.0, 0, 0) for e in best]
    return results


def _point_sups_general(c: DoubleSequenceRule, points: Sequence[tuple[float, float]],
                        thresholds: Sequence[int],
                        caps: tuple[int, int]) -> list[list[tuple[float, int, int]]]:
    """Exact scan for real rules at small caps, O(cap^3) per point, in
    batches of ``_BATCH_ENTRIES // (caps[0] * caps[1])`` points."""
    js = np.arange(1, caps[0] + 1)
    ks = np.arange(1, caps[1] + 1)
    vals = c.values(js[:, None], ks[None, :])
    per_batch = max(1, _BATCH_ENTRIES // (caps[0] * caps[1]))
    results = []
    for p0 in range(0, len(points), per_batch):
        batch = points[p0:p0 + per_batch]
        results += _general_scan(np.stack([vals * np.outer(np.sin(js * x), np.sin(ks * y))
                                           for x, y in batch]), thresholds)
    return results


def _general_scan(tables: np.ndarray,
                  thresholds: Sequence[int]) -> list[list[tuple[float, int, int]]]:
    """Per table of the (points, rows, cols) stack ``tables``, the sup of
    |rectangle sum| per threshold, with the maximizer of smallest m, then
    smallest M, then smallest n."""
    count, cap_m, cap_n = tables.shape
    col_prefix = np.zeros((count, cap_m + 1, cap_n))
    np.cumsum(tables, axis=1, out=col_prefix[:, 1:])
    at = np.arange(count)
    best = np.full((len(thresholds), count), -math.inf)
    strips = np.zeros((len(thresholds), count, 2), dtype=np.int64)  # the winning m, M
    for m in range(1, cap_m + 1):
        # row i of a point: prefix sums along k of the strip of rows m..M, M = m + i
        h = np.zeros((count, cap_m - m + 1, cap_n + 1))
        np.cumsum(col_prefix[:, m:] - col_prefix[:, m - 1:m], axis=2, out=h[:, :, 1:])
        sw = _suffix_ranges(h)
        for ti, t in enumerate(thresholds):
            a = max(1, t + 1 - m)
            if a > cap_n:
                continue
            # a NaN strip never wins a `>` test
            col = sw[:, :, a - 1]
            col = np.where(np.isnan(col), -np.inf, col)
            i = np.argmax(col, axis=1)
            top = col[at, i]
            win = top > best[ti]
            best[ti, win] = top[win]
            strips[ti, win, 0] = m
            strips[ti, win, 1] = (m + i)[win]
    out = []
    for p in range(count):
        row = []
        for ti, t in enumerate(thresholds):
            val = float(best[ti, p])
            if not math.isfinite(val):
                row.append((0.0, 0, 0))
                continue
            m, M = strips[ti, p].tolist()
            a = max(1, t + 1 - m)
            strip = col_prefix[p, M] - col_prefix[p, m - 1]
            pw = _start_maxima(np.concatenate(([0.0], np.cumsum(strip))))
            row.append((val, m, a + int(np.argmax(pw[a - 1:]))))
        out.append(row)
    return out


def _corner_ladder(cap: int) -> np.ndarray:
    vals = set(range(1, min(8, cap) + 1))
    v = 8.0
    while v < cap:
        vals.add(int(round(v)))
        v *= math.sqrt(2.0)
    vals.add(cap)
    return np.array(sorted(x for x in vals if 1 <= x <= cap), dtype=np.int64)


def _point_sups_sampled(c: DoubleSequenceRule, points: Sequence[tuple[float, float]],
                        thresholds: Sequence[int],
                        caps: tuple[int, int]) -> list[list[tuple[float, int, int]]]:
    """Lower-bound sampling over log-spaced rectangle corners.

    One sweep over the rows per batch of points, ``_BATCH_ENTRIES // cap_n``
    rows per rule evaluation.  Each row is folded into one running row of
    column sums per distinct x of the batch, sum_{j<=i} c_jk sin(jx); at the
    ladder rows each point multiplies its x's running row by sin(ky) and
    keeps the prefix sums along k at the ladder columns only.  The running
    rows, the y sines, each point's projection and the corner prefix sums of
    a batch hold at most ``_BATCH_ENTRIES`` entries each."""
    cap_m = min(caps[0], CORNER_TABLE_CAP)
    cap_n = min(caps[1], CORNER_TABLE_CAP)
    js = np.arange(1, cap_m + 1)
    ks = np.arange(1, cap_n + 1)

    lad_m, lad_n = _corner_ladder(cap_m), _corner_ladder(cap_n)
    (im, iM), (i_n, iN) = np.triu_indices(lad_m.size), np.triu_indices(lad_n.size)
    am, an = lad_m[im], lad_n[i_n]
    sums = am[:, None] + an[None, :]
    # only the prefix rows M and m - 1 and the prefix columns N and n - 1 of
    # the ladder corners are read; row 0 and column 0 are zero
    rows = np.union1d(lad_m, lad_m - 1)
    cols = np.union1d(lad_n, lad_n - 1)
    hi, lo = np.searchsorted(rows, lad_m[iM]), np.searchsorted(rows, am - 1)
    hi_n, lo_n = np.searchsorted(cols, lad_n[iN]), np.searchsorted(cols, an - 1)
    dtype = float if c.real else complex
    per_eval = max(1, _BATCH_ENTRIES // cap_n)
    per_batch = max(1, _BATCH_ENTRIES // max(cap_m, cap_n, rows.size * cols.size))
    # row 0 and column 0 are never written, so one stack serves every batch
    pref = np.zeros((min(per_batch, len(points)), rows.size, cols.size), dtype=dtype)
    proj = np.empty((pref.shape[0], cap_n), dtype=dtype)
    results = []
    for p0 in range(0, len(points), per_batch):
        batch = points[p0:p0 + per_batch]
        xs, xi = _distinct([x for x, _ in batch])
        sx = np.stack([np.sin(js * x) for x in xs.tolist()], axis=1)
        sy = np.stack([np.sin(ks * y) for _, y in batch])
        # acc: per distinct x, the running column sums of c_jk sin(jx); the
        # sums of the row-by-row prefix, bit for bit but for the sign of a
        # zero, which the rectangles' |.| drops
        acc = np.zeros((xs.size, cap_n), dtype=dtype)
        term = np.empty(acc.shape, dtype=dtype)
        here = proj[:len(batch)]
        r = 1  # rows[r]: the next prefix row to keep
        for i0 in range(0, cap_m, per_eval):
            for i, row in enumerate(c.values(js[i0:i0 + per_eval, None], ks[None, :]), i0 + 1):
                np.add(acc, np.multiply(row, sx[i - 1][:, None], out=term), out=acc)
                if i == rows[r]:
                    np.take(acc, xi, axis=0, out=here)
                    np.multiply(here, sy, out=here)
                    np.cumsum(here, axis=1, out=here)
                    pref[:len(batch), r, 1:] = here[:, cols[1:] - 1]
                    r += 1
        for p in range(len(batch)):
            top, bot = pref[p, hi], pref[p, lo]
            rect = np.abs(top[:, hi_n] - bot[:, hi_n] - top[:, lo_n] + bot[:, lo_n])
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


def _point_sups(c: DoubleSequenceRule, points: Sequence[tuple[float, float]],
                thresholds: Sequence[int], caps: tuple[int, int],
                ) -> tuple[list[list[tuple[float, int, int]]], bool]:
    """Per point (x, y), the (sup, m, n) of each threshold, and whether the
    sups are exact.  The product path reads the factors, so it needs them real."""
    if c.factors is not None and all(f.real for f in c.factors):
        return _point_sups_product(c, points, thresholds, caps), True
    # rows/columns beyond a support contribute nothing to the exact scan
    eff = caps if c.support is None else (min(caps[0], c.support[0]),
                                          min(caps[1], c.support[1]))
    if c.real and max(eff) <= EXACT_GENERAL_CAP:
        return _point_sups_general(c, points, thresholds, eff), True
    return _point_sups_sampled(c, points, thresholds, caps), False


def _convergence_verdict(sups: Sequence[float], exact: bool) -> ConvergenceVerdict:
    window = list(sups[-min(VERDICT_WINDOW, len(sups)):])
    last = window[-1]
    nonincreasing = all(a >= b - 1e-15 for a, b in zip(window, window[1:]))
    if exact and last < TOL_CONVERGE and nonincreasing:
        return ConvergenceVerdict.CONVERGING
    if last > TOL_DIVERGE and last >= FLAT_RATIO * max(window):
        return ConvergenceVerdict.NOT_CONVERGING
    return ConvergenceVerdict.INCONCLUSIVE


def _validate_thresholds(thresholds: Sequence[int], caps: tuple[int, int]) -> list[int]:
    ts = [int(t) for t in thresholds]
    if not ts or any(b <= a for a, b in zip(ts, ts[1:])) or ts[0] < 1:
        raise ValueError("thresholds must be a strictly increasing positive list")
    if min(caps) < 1 or max(caps) > HORIZON_LIMIT:
        raise ValueError(f"caps must be in [1, {HORIZON_LIMIT}]")
    if min(caps) < ts[-1]:
        raise ValueError("caps must be at least the largest threshold")
    return ts


def _profile(c: DoubleSequenceRule, pairs: list[tuple[float, float]], ts: list[int],
             caps: tuple[int, int]) -> RemainderProfile:
    """The profile over ``pairs``: per threshold, the first pair of largest sup."""
    results, exact = _point_sups(c, pairs, ts, caps)
    entries = []
    for ti, t in enumerate(ts):
        best = max(range(len(pairs)), key=lambda i: results[i][ti][0])
        entries.append(ProfileEntry(t, *results[best][ti], *pairs[best]))
    verdict = _convergence_verdict([e.sup for e in entries], exact)
    return RemainderProfile(entries, tuple(caps), verdict, exact, len(pairs))


def regular_remainder_sup(c: DoubleSequenceRule, grid, thresholds: Sequence[int],
                          caps: tuple[int, int]) -> RemainderProfile:
    """Profile sup |rectangle sum| over the grid, per remainder threshold.

    ``grid`` is a GridSpec or an explicit array of abscissas used for both
    axes.  The supremum at threshold t ranges over rectangles
    ``1 <= m <= M <= caps[0]``, ``1 <= n <= N <= caps[1]`` with
    ``m + n > t``.
    """
    ts = _validate_thresholds(thresholds, caps)
    pts = grid_points(grid) if isinstance(grid, GridSpec) else np.asarray(grid, float)
    if pts.size == 0:
        raise ValueError("empty abscissa grid")
    if pts.size > GRID_ABSCISSA_LIMIT:
        raise ValueError(f"more than {GRID_ABSCISSA_LIMIT} grid abscissas")
    return _profile(c, [(float(x), float(y)) for x in pts for y in pts], ts, caps)


def rational_point_convergence(c: DoubleSequenceRule, r: int, l1: int, l2: int,
                               thresholds: Sequence[int],
                               caps: tuple[int, int]) -> RemainderProfile:
    """Remainder profile at the single point (2*l1*pi/r, 2*l2*pi/r).

    For r in {1, 2} every sine factor vanishes at these points, so the
    condition holds trivially and an empty converging profile is returned;
    the thresholds and caps are checked at every r.
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    limit = r // 2 - 1 if r % 2 == 0 else r // 2
    if r > 2 and not (1 <= l1 <= limit and 1 <= l2 <= limit):
        raise ValueError(f"band indices must lie in [1, {limit}] for r={r}")
    ts = _validate_thresholds(thresholds, caps)
    if r <= 2:
        return RemainderProfile([], tuple(caps), ConvergenceVerdict.CONVERGING,
                                exact=True, grid_size=0, trivial=True)
    return _profile(c, [(2 * l1 * math.pi / r, 2 * l2 * math.pi / r)], ts, caps)


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
    """The thresholds, checked before any sample is computed: strictly
    increasing, and reached by the largest index sum m + n of the samples."""
    ts = [int(t) for t in thresholds]
    if not ts or any(b <= a for a, b in zip(ts, ts[1:])):
        raise ValueError("thresholds must be strictly increasing")
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
    if np.count_nonzero(pos) >= 3 and np.unique(sums[pos]).size >= 2:
        slope, _ = np.polyfit(np.log(sums[pos]), np.log(values[pos]), 1)
        trend = float(slope)
    else:
        trend = math.nan
    out = [DecaySample(m, n, float(v)) for (m, n), v in zip(samples, values)]
    return DecayReport(out, ts, tails, trend, conclusive)


def classify_decay(report: DecayReport) -> DecayVerdict:
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


# ---------------------------------------------------------------------------
# tail quantities


@dataclass(frozen=True)
class TailEstimate:
    """A truncated tail value with its truncation residual bound.

    ``conclusive`` is False when the rule's support does not lie inside
    the horizon and it carries no usable decay envelope, or the horizon
    is too small for the envelope to control what lies beyond it.
    """

    value: float
    residual: float
    conclusive: bool


_CHUNK = 256

# the tails take time H^2: at 2^15, each takes up to about 7 s and 175 MB on `separable`
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
                  horizon: int) -> list[TailEstimate]:
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
    if c.factors is not None:
        u, v = c.factors
        values = []
        for m, n in anchors:
            js = np.arange(m, horizon + 1, dtype=np.int64)
            sv = float(np.sum(np.abs(v.values(np.arange(n, horizon + 1)))))
            values.append(float(np.max(js * np.log(js) * (np.abs(u.values(js)) * sv))))
    else:
        def weighted(js, ks):
            # j ln j times the row suffix sums, and a 0 for the columns past the support
            suffix = np.zeros((js.shape[0], ks.size + 1))
            suffix[:, :-1] = np.cumsum(np.abs(c.values(js, ks))[:, ::-1], axis=1)[:, ::-1]
            return js * np.log(js) * suffix

        k_hi = horizon if c.support is None else min(horizon, c.support[1])
        values = [float(s[0]) for s in _sweep(weighted, np.maximum, anchors, horizon, k_hi)]
    env, h1 = c.tail, horizon + 1.0
    exact = c.support is not None and max(c.support) <= horizon
    out = []
    for (m, n), value in zip(anchors, values):
        residual = 0.0 if exact else math.inf
        if env is not None and not exact:
            js = np.arange(m, horizon + 1, dtype=np.int64)
            resid_beyond = math.inf
            if _weight_is_decreasing(env.kind, env.a_j, h1):
                resid_beyond = h1 * math.log(h1) * env.f(h1) * env.amp * env.g_tail(n)
            w_max = float(np.max(js * np.log(js) * env.f(js.astype(float))))
            residual = w_max * env.amp * env.g_tail(horizon + 1) + resid_beyond
        out.append(TailEstimate(value, residual, math.isfinite(residual)))
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
        u, v = c.factors
        out = []
        for m, n in anchors:
            su = float(np.sum(np.abs(step_diff_values(u, np.arange(m, horizon + 1), r))))
            sv = float(np.sum(np.abs(step_diff_values(v, np.arange(n, horizon + 1), r))))
            out.append((m * n) ** (1.0 / p) * su * sv)
        return out
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
        out = []
        for m, n in anchors:
            ks = np.arange(n, horizon + 1, dtype=np.int64)
            su = float(np.sum(np.abs(step_diff_values(u, np.arange(m, horizon + 1), r))))
            out.append(m ** (1.0 / p) * su * float(np.max(ks * np.abs(v.values(ks)))))
        return out
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
            conclusive = all(e.conclusive for e in ests)
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
