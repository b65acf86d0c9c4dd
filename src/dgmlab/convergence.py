"""Rectangle partial sums, regular-convergence profiling, decay and tail checks.

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
    """Abscissa grid on (0, upper] avoiding the singular points 2*l*pi/r."""

    r: int
    points_per_band: int = 3
    exclusion_radius: float = 1e-6
    upper: float = math.pi

    def __post_init__(self):
        if self.r < 1:
            raise ValueError("grid step r must be >= 1")
        if self.points_per_band < 1:
            raise ValueError("points_per_band must be >= 1")
        if not 0 < self.exclusion_radius < self.upper / (4 * self.r):
            raise ValueError("exclusion_radius out of range")


def grid_points(spec: GridSpec) -> np.ndarray:
    """Grid abscissas: uniform interior points per band plus near-singular
    points one exclusion radius inside each singular band edge."""
    singular = []
    l = 0
    while 2 * l * math.pi / spec.r <= spec.upper + 1e-12:
        singular.append(2 * l * math.pi / spec.r)
        l += 1
    bounds = sorted(set(singular) | {0.0, spec.upper})
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
        if 0.0 < x <= spec.upper
        and all(abs(x - s) >= spec.exclusion_radius * (1 - 1e-12) for s in singular)
    ]
    return np.unique(np.asarray(ok, dtype=float))


# ---------------------------------------------------------------------------
# rectangle sums


def double_partial_sum(c: DoubleSequenceRule, m: int, M: int, n: int, N: int,
                       x: float, y: float) -> complex:
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


def _point_sups_product(c: DoubleSequenceRule, points: Sequence[tuple[float, float]],
                        thresholds: Sequence[int],
                        caps: tuple[int, int]) -> list[list[tuple[float, int, int]]]:
    u, v = c.factors
    cap_m, cap_n = caps
    ms = np.arange(1, cap_m + 1)
    ns = np.arange(1, cap_n + 1)
    u_vals = u.values(ms).real
    v_vals = v.values(ns).real
    results = []
    for x, y in points:
        pu = _start_maxima(np.concatenate(([0.0], np.cumsum(u_vals * np.sin(ms * x)))))
        pv = _start_maxima(np.concatenate(([0.0], np.cumsum(v_vals * np.sin(ns * y)))))
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
        results.append(out)
    return results


def _point_sups_general(c: DoubleSequenceRule, points: Sequence[tuple[float, float]],
                        thresholds: Sequence[int],
                        caps: tuple[int, int]) -> list[list[tuple[float, int, int]]]:
    """Exact scan for real rules at small caps, O(cap^3) per point."""
    js = np.arange(1, caps[0] + 1)
    ks = np.arange(1, caps[1] + 1)
    vals = c.values(js[:, None], ks[None, :]).real
    return [_general_scan(vals * np.outer(np.sin(js * x), np.sin(ks * y)), thresholds)
            for x, y in points]


def _general_scan(table: np.ndarray,
                  thresholds: Sequence[int]) -> list[tuple[float, int, int]]:
    """Sup of |rectangle sum| of ``table`` per threshold, with the maximizer
    of smallest m, then smallest M, then smallest n."""
    cap_m, cap_n = table.shape
    col_prefix = np.vstack([np.zeros(cap_n), np.cumsum(table, axis=0)])
    best = [(-math.inf, 0, 0, 0)] * len(thresholds)
    for m in range(1, cap_m + 1):
        # row i: prefix sums along k of the strip of rows m..M, M = m + i
        h = np.zeros((cap_m - m + 1, cap_n + 1))
        np.cumsum(col_prefix[m:] - col_prefix[m - 1], axis=1, out=h[:, 1:])
        sw = _suffix_max(_start_maxima(h))
        for ti, t in enumerate(thresholds):
            a = max(1, t + 1 - m)
            if a > cap_n:
                continue
            col = sw[:, a - 1]
            i = int(np.argmax(col))
            if math.isnan(col[i]):
                # argmax picks the first NaN; a NaN strip never wins a `>` test
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
    """Lower-bound sampling over log-spaced rectangle corners."""
    cap_m = min(caps[0], CORNER_TABLE_CAP)
    cap_n = min(caps[1], CORNER_TABLE_CAP)
    js = np.arange(1, cap_m + 1)
    ks = np.arange(1, cap_n + 1)
    vals = c.values(js[:, None], ks[None, :])
    if c.real:
        # |re + 0j| == |re|, so the float table gives the same sums bit for bit
        vals = vals.real.copy()

    lad_m, lad_n = _corner_ladder(cap_m), _corner_ladder(cap_n)
    pairs_m = [(m, M) for m in lad_m for M in lad_m if M >= m]
    pairs_n = [(n, N) for n in lad_n for N in lad_n if N >= n]
    am = np.array([p[0] for p in pairs_m])
    aM = np.array([p[1] for p in pairs_m])
    an = np.array([p[0] for p in pairs_n])
    aN = np.array([p[1] for p in pairs_n])
    sums = am[:, None] + an[None, :]
    # only the prefix rows M and m - 1 of the ladder corners are read;
    # row 0 of ``pref`` is the zero row
    rows = np.union1d(lad_m, lad_m - 1)[1:]
    at = np.zeros(cap_m + 1, dtype=np.int64)
    at[rows] = np.arange(1, rows.size + 1)
    hi, lo = at[aM][:, None], at[am - 1][:, None]
    results = []
    for x, y in points:
        table = vals * np.outer(np.sin(js * x), np.sin(ks * y))
        for i in range(1, cap_m):
            # row by row: the bits of cumsum(axis=0), with contiguous rows
            np.add(table[i - 1], table[i], out=table[i])
        pref = np.zeros((rows.size + 1, cap_n + 1), dtype=table.dtype)
        np.cumsum(table[rows - 1], axis=1, out=pref[1:, 1:])
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


def _point_sups(c: DoubleSequenceRule, points: Sequence[tuple[float, float]],
                thresholds: Sequence[int], caps: tuple[int, int],
                ) -> tuple[list[list[tuple[float, int, int]]], bool]:
    """Per point (x, y), the (sup, m, n) of each threshold, and whether the
    sups are exact.  The rule is evaluated once for all the points."""
    if c.factors is not None and c.real:
        return _point_sups_product(c, points, thresholds, caps), True
    if c.support is not None:
        eff = (min(caps[0], c.support[0]), min(caps[1], c.support[1]))
        if c.real and max(eff) <= EXACT_GENERAL_CAP:
            sups = _point_sups_general(c, points, thresholds, eff)
            # rows/columns beyond the support contribute nothing
            return sups, True
        return _point_sups_sampled(c, points, thresholds, caps), False
    if c.real and max(caps) <= EXACT_GENERAL_CAP:
        return _point_sups_general(c, points, thresholds, caps), True
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
    pairs = [(float(x), float(y)) for x in pts for y in pts]
    results, exact = _point_sups(c, pairs, ts, caps)
    entries = []
    for ti, t in enumerate(ts):
        best = max(range(len(pairs)), key=lambda i: results[i][ti][0])
        sup, m, n = results[best][ti]
        x, y = pairs[best]
        entries.append(ProfileEntry(t, sup, m, n, x, y))
    verdict = _convergence_verdict([e.sup for e in entries], exact)
    return RemainderProfile(entries, tuple(caps), verdict, exact, len(pairs))


def rational_point_convergence(c: DoubleSequenceRule, r: int, l1: int, l2: int,
                               thresholds: Sequence[int],
                               caps: tuple[int, int]) -> RemainderProfile:
    """Remainder profile at the single point (2*l1*pi/r, 2*l2*pi/r).

    For r in {1, 2} every sine factor vanishes at these points, so the
    condition holds trivially and an empty converging profile is returned.
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    if r <= 2:
        return RemainderProfile([], tuple(caps), ConvergenceVerdict.CONVERGING,
                                exact=True, grid_size=0, trivial=True)
    limit = r // 2 - 1 if r % 2 == 0 else r // 2
    if not (1 <= l1 <= limit and 1 <= l2 <= limit):
        raise ValueError(f"band indices must lie in [1, {limit}] for r={r}")
    ts = _validate_thresholds(thresholds, caps)
    x = 2 * l1 * math.pi / r
    y = 2 * l2 * math.pi / r
    sups, exact = _point_sups(c, [(x, y)], ts, caps)
    entries = [ProfileEntry(t, s, m, n, x, y) for t, (s, m, n) in zip(ts, sups[0])]
    verdict = _convergence_verdict([e.sup for e in entries], exact)
    return RemainderProfile(entries, tuple(caps), verdict, exact, 1)


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


def frontier_samples(horizon: int, min_index: int = 1) -> list[tuple[int, int]]:
    """Log-spaced (m, n) anchors along the paths m=n, m=2n, n=2m and the
    axis-pinned paths, with small offsets so every residue class mod 6 is
    hit on the diagonal."""
    base_floor = max(min_index, 2)
    ladder = []
    b = base_floor
    while b <= horizon:
        ladder.append(b)
        b *= 2
    pts: set[tuple[int, int]] = set()
    for b in ladder:
        for d in range(6):
            s = b + d
            for m, n in ((s, s), (2 * s, s), (s, 2 * s), (s, base_floor), (base_floor, s)):
                if min_index <= m <= horizon and min_index <= n <= horizon:
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


def jk_decay(c: DoubleSequenceRule, thresholds: Sequence[int],
             horizon: int = 1 << 14) -> DecayReport:
    """Sample ``j * k * |c_jk|`` along the frontier paths."""
    samples = frontier_samples(horizon, min_index=1)
    ts = _decay_thresholds(samples, thresholds)
    ms = np.array([m for m, _ in samples], dtype=np.int64)
    ns = np.array([n for _, n in samples], dtype=np.int64)
    values = ms * ns * np.abs(c.values(ms, ns))
    return _build_decay_report(samples, values, ts, conclusive=True)


def loglog_decay(c: DoubleSequenceRule, thresholds: Sequence[int],
                 horizon: int = 1 << 14) -> DecayReport:
    """Sample ``m * n * ln(m) * ln(n) * |c_mn|``; indices start at 2."""
    samples = frontier_samples(horizon, min_index=2)
    ts = _decay_thresholds(samples, thresholds)
    ms = np.array([m for m, _ in samples], dtype=np.int64)
    ns = np.array([n for _, n in samples], dtype=np.int64)
    values = ms * ns * np.log(ms) * np.log(ns) * np.abs(c.values(ms, ns))
    return _build_decay_report(samples, values, ts, conclusive=True)


def classify_decay(report: DecayReport) -> DecayVerdict:
    """Three-valued reading of a decay report's tail trajectory."""
    first, last = report.max_tail[0], report.max_tail[-1]
    if last == 0.0:
        return DecayVerdict.DECAYING
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

    ``conclusive`` is False when the rule carries no usable decay
    envelope, or the horizon is too small for the envelope to control
    what lies beyond it.
    """

    value: float
    residual: float
    conclusive: bool
    maximizer: int = 0

    def __float__(self) -> float:
        return self.value


_CHUNK = 256


def _row_abs_tails(c: DoubleSequenceRule, js: np.ndarray, n: int, horizon: int) -> np.ndarray:
    """``sum_{k=n}^{horizon} |c_jk|`` for each j in js."""
    if c.factors is not None:
        u, v = c.factors
        vs = float(np.sum(np.abs(v.values(np.arange(n, horizon + 1)))))
        return np.abs(u.values(js)) * vs
    k_hi = horizon if c.support is None else min(horizon, c.support[1])
    if k_hi < n:
        return np.zeros(js.size)
    ks = np.arange(n, k_hi + 1)[None, :]
    out = np.empty(js.size)
    for i in range(0, js.size, _CHUNK):
        chunk = js[i:i + _CHUNK, None]
        out[i:i + _CHUNK] = np.sum(np.abs(c.values(chunk, ks)), axis=1)
    return out


def _env_factor(kind: str, a: float, idx: np.ndarray) -> np.ndarray:
    arr = np.asarray(idx, dtype=float)
    return a**arr if kind == "geometric" else arr**-a


def _weight_is_decreasing(kind: str, a: float, j: float) -> bool:
    """Is w(t) = t * ln(t) * f(t) nonincreasing for t >= j?"""
    if kind == "geometric":
        # d/dt [ln t + ln ln t + t ln a] < 0 once t |ln a| > 1 + 1/ln t
        return j * abs(math.log(a)) > 1.0 + 1.0 / math.log(j)
    return a > 1.0 + 1.0 / math.log(j)


def row_tail_sup(c: DoubleSequenceRule, m: int, n: int, horizon: int) -> TailEstimate:
    """``sup_{j in [m, horizon]} j * ln(j) * sum_{k=n}^{horizon} |c_jk|``.

    The residual bound covers both the truncated inner k-tail and the
    unscanned j > horizon part; it needs a tail envelope on the rule.
    """
    if m < 2:
        raise ValueError("need m >= 2 so the ln weight is positive")
    if n < 1 or horizon < max(m, n) or horizon > HORIZON_LIMIT:
        raise ValueError("horizon must cover [m, n] and stay under the limit")
    js = np.arange(m, horizon + 1, dtype=np.int64)
    tails = _row_abs_tails(c, js, n, horizon)
    weighted = js * np.log(js) * tails
    i = int(np.argmax(weighted))
    value = float(weighted[i])

    env = c.tail
    if env is None:
        return TailEstimate(value, math.inf, False, int(js[i]))
    fj = _env_factor(env.kind, env.a_j, js)
    w_max = float(np.max(js * np.log(js) * fj))
    resid_inner = w_max * env.amp * env.g_tail(horizon + 1)
    if _weight_is_decreasing(env.kind, env.a_j, horizon + 1.0):
        h1 = horizon + 1.0
        resid_beyond = h1 * math.log(h1) * env.f(h1) * env.amp * env.g_tail(n)
    else:
        resid_beyond = math.inf
    residual = resid_inner + resid_beyond
    return TailEstimate(value, residual, math.isfinite(residual), int(js[i]))


def col_tail_sup(c: DoubleSequenceRule, m: int, n: int, horizon: int) -> TailEstimate:
    """Transposed variant: ``sup_{k in [n, horizon]} k ln(k) sum_{j=m}^{horizon} |c_jk|``."""
    return row_tail_sup(transpose_rule(c), n, m, horizon)


def mixed_diff_tail(c: DoubleSequenceRule, p: float, r: int, m: int, n: int,
                    horizon: int) -> float:
    """``m^(1/p) n^(1/p) sum_{j=m}^{H} sum_{k=n}^{H} |mixed difference|``."""
    if p < 1 or r < 1:
        raise ValueError("need p >= 1 and r >= 1")
    if not (1 <= m <= horizon and 1 <= n <= horizon) or horizon > HORIZON_LIMIT:
        raise ValueError("bad index range")
    scale = (m * n) ** (1.0 / p)
    if c.factors is not None:
        u, v = c.factors
        su = float(np.sum(np.abs(step_diff_values(u, np.arange(m, horizon + 1), r))))
        sv = float(np.sum(np.abs(step_diff_values(v, np.arange(n, horizon + 1), r))))
        return scale * su * sv
    total = 0.0
    ks = np.arange(n, horizon + 1)[None, :]
    js_all = np.arange(m, horizon + 1, dtype=np.int64)
    for i in range(0, js_all.size, _CHUNK):
        chunk = js_all[i:i + _CHUNK, None]
        total += float(np.sum(np.abs(mixed_diff_values(c, chunk, ks, r))))
    return scale * total


def row_diff_tail_sup(c: DoubleSequenceRule, p: float, r: int, m: int, n: int,
                      horizon: int) -> float:
    """``m^(1/p) sup_{k in [n, H]} k * sum_{j=m}^{H} |row difference at (j, k)|``."""
    if p < 1 or r < 1:
        raise ValueError("need p >= 1 and r >= 1")
    if not (1 <= m <= horizon and 1 <= n <= horizon) or horizon > HORIZON_LIMIT:
        raise ValueError("bad index range")
    scale = m ** (1.0 / p)
    ks = np.arange(n, horizon + 1, dtype=np.int64)
    if c.factors is not None:
        u, v = c.factors
        su = float(np.sum(np.abs(step_diff_values(u, np.arange(m, horizon + 1), r))))
        return scale * su * float(np.max(ks * np.abs(v.values(ks))))
    js = np.arange(m, horizon + 1)[:, None]
    best = 0.0
    for i in range(0, ks.size, _CHUNK):
        chunk = ks[i:i + _CHUNK][None, :]
        sums = np.sum(np.abs(row_diff_values(c, js, chunk, r)), axis=0)
        best = max(best, float(np.max(ks[i:i + _CHUNK] * sums)))
    return scale * best


def col_diff_tail_sup(c: DoubleSequenceRule, p: float, r: int, m: int, n: int,
                      horizon: int) -> float:
    """``n^(1/p) sup_{j in [m, H]} j * sum_{k=n}^{H} |column difference at (j, k)|``."""
    return row_diff_tail_sup(transpose_rule(c), p, r, n, m, horizon)


def tail_decay_report(fn: Callable[[int, int], tuple[float, bool]],
                      thresholds: Sequence[int], horizon: int,
                      min_index: int = 2) -> DecayReport:
    """Sample a tail quantity over the frontier anchors and report it."""
    anchors = [a for a in frontier_samples(horizon, min_index)
               if max(a) <= horizon]
    ts = _decay_thresholds(anchors, thresholds)
    vals = []
    conclusive = True
    for m, n in anchors:
        v, ok = fn(m, n)
        vals.append(v)
        conclusive = conclusive and ok
    return _build_decay_report(anchors, np.asarray(vals, float), ts, conclusive)


# ---------------------------------------------------------------------------
# the log-integral inequality


def log_integral_bound(n: int, N: int, p: float) -> tuple[float, float]:
    """Closed form of ``int_{n + N^(1/p)}^{n + N} dk / (k ln k)`` and its cap.

    Returns ``(value, ln p)``; the value never exceeds ``ln p`` for
    ``n, N >= 1`` and ``p >= 1`` (degenerate equality at p = 1).
    """
    if n < 1 or N < 1:
        raise ValueError("need n >= 1 and N >= 1")
    if not p >= 1:  # also refuses NaN
        raise ValueError("need p >= 1")
    lower = n + N ** (1.0 / p)
    value = math.log(math.log(n + N)) - math.log(math.log(lower))
    bound = math.log(p)
    if value > bound + 1e-12:
        raise AssertionError(
            f"log-integral value {value} exceeded its bound {bound} at (n={n}, N={N}, p={p})"
        )
    return value, bound
