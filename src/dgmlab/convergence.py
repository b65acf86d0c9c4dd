"""Regular-convergence profiling of rectangle partial sums.

Regular convergence of a double sine series asks every rectangle sum
``sum_{j=m}^{M} sum_{k=n}^{N} c_jk sin(jx) sin(ky)`` with ``m + n`` large
to be small.  The profiler computes, per threshold t, the exact supremum
of |rectangle sum| over all rectangles with ``m + n > t`` inside the
configured caps and over a singularity-avoiding (x, y) grid.  For product
rules the supremum factorizes and is found in O(cap) per grid point; a
general real rule gets an exact cubic-cost scan at small caps; anything
else falls back to log-spaced corner sampling, which only ever
underestimates: its residual is unbounded, so it can never read "converging".
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .sequences import (
    HORIZON_LIMIT,
    Bracket,
    DoubleSequenceRule,
    Reading,
    _suffix_max,
    frontier_product_max,
    sorted_distinct,
)

# Verdict tolerances: sups whose upper bounds are below TOL_CONVERGE at the
# largest threshold and nonincreasing over the last four thresholds read as
# converging; a sup stuck above TOL_DIVERGE (within FLAT_RATIO of its recent
# peak) reads as not converging; everything else is inconclusive.
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


class ConvergenceVerdict(Reading):
    CONVERGING = "converging"
    NOT_CONVERGING = "not-converging"
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
    return sorted_distinct(np.asarray(ok, dtype=float))


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
    rows = sorted_distinct(np.concatenate((lad_m, lad_m - 1)))
    cols = sorted_distinct(np.concatenate((lad_n, lad_n - 1)))
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
    # a sampled sup is a lower bound; the rectangles past the caps are not bounded yet
    residual = 0.0 if exact else math.inf
    return ConvergenceVerdict.read(
        [Bracket(s, residual) for s in sups[-min(VERDICT_WINDOW, len(sups)):]],
        lambda his: his[-1] < TOL_CONVERGE and all(a >= b - 1e-15 for a, b in zip(his, his[1:])),
        lambda values: values[-1] > TOL_DIVERGE and values[-1] >= FLAT_RATIO * max(values))


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
