"""Dirichlet-type kernels, step-r summation by parts, and half-band bounds.

The kernels are

    cos-kernel(k, r, x) = cos((k + r/2) x) / (2 sin(r x / 2))
    sin-kernel(k, r, x) = sin((k + r/2) x) / (2 sin(r x / 2))

with singularities at x = 2*l*pi/r.  On the half-bands between
consecutive singular points, |sin(rx/2)| admits the linear lower bound
(Jordan's inequality) that turns the summation-by-parts identity into a
computable envelope for sine-series partial sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .sequences import HORIZON_LIMIT, SequenceRule, sorted_distinct

TWO_PI = 2.0 * math.pi

# |sin(rx/2)| at or below this is treated as singular
SIN_GUARD = 1e-12

# distance from a half-band endpoint (in band units rx/pi) treated as "on it"
EDGE_GUARD = 1e-12


class SingularAbscissa(ValueError):
    """x is (numerically) a multiple of 2*pi/r, where the kernels blow up."""

    def __init__(self, x: float, r: int, nearest: float):
        self.x = x
        self.r = r
        self.nearest = nearest
        super().__init__(
            f"x={x!r} is singular for step r={r}; nearest singular abscissa {nearest!r}"
        )


def nearest_singularity(x: float, r: int) -> float:
    l = round(abs(r) * x / TWO_PI)
    return TWO_PI * l / abs(r)


def _half_denominator(r: int, x: float) -> float:
    """sin(r x / 2), raising on the excluded abscissas 2*l*pi/r."""
    s = math.sin(0.5 * r * x)
    if abs(s) <= SIN_GUARD:
        raise SingularAbscissa(x, abs(r), nearest_singularity(x, r))
    return s


def band_index(x: float, r: int) -> tuple[int, int]:
    """Band l = floor(rx / 2pi) and half (0: first, 1: second) containing x.

    Raises ValueError when x sits on a half-band endpoint.
    """
    if r < 1:
        raise ValueError("step r must be >= 1")
    t = r * x / math.pi
    l = math.floor(t / 2.0)
    u = t - 2 * l
    if min(u, abs(u - 1.0), 2.0 - u) <= EDGE_GUARD:
        raise ValueError(f"x={x!r} lies on a half-band endpoint for r={r}")
    return l, (0 if u < 1.0 else 1)


def kernel_band_bound(x: float, r: int, l: int) -> float:
    """Envelope for |cos-kernel(k, +-r, x)| on the half-band containing x.

    First half-band (2l*pi/r, (2l+1)*pi/r): 1 / (2 (rx/pi - 2l)).
    Second half-band: 1 / (2 (2(l+1) - rx/pi)).  Valid for every k >= 0
    because |sin(rx/2)| >= (2/pi) * distance-to-band-edge there.
    """
    got_l, half = band_index(x, r)
    if got_l != l:
        raise ValueError(f"x={x!r} lies in band {got_l}, not the requested band {l}")
    return _band_bound(x, r, l, half)


def _band_bound(x: float, r: int, l: int, half: int) -> float:
    u = r * x / math.pi - 2 * l
    return 1.0 / (2.0 * u) if half == 0 else 1.0 / (2.0 * (2.0 - u))


def _check_range(last: int) -> None:
    """Refuse index ranges that end past ``HORIZON_LIMIT``."""
    if last > HORIZON_LIMIT:
        raise ValueError(f"indices must end at most at {HORIZON_LIMIT}, got {last}")


@dataclass(frozen=True)
class SbpDecomposition:
    """The three terms of the step-r summation-by-parts identity.

    ``total`` always equals ``main_term + upper_boundary + lower_boundary``
    and must reproduce ``sum_{k=n}^{m} a_k sin(kx)`` exactly (to roundoff).
    """

    main_term: complex
    upper_boundary: complex
    lower_boundary: complex

    @property
    def total(self) -> complex:
        return self.main_term + self.upper_boundary + self.lower_boundary


def sbp_decompose(seq: SequenceRule, n: int, m: int, r: int, x: float) -> SbpDecomposition:
    """Summation by parts with step r for ``sum_{k=n}^{m} a_k sin(kx)``.

    main term:      -sum_{k=n}^{m}     (a_k - a_{k+r}) cos-kernel(k,  r, x)
    upper boundary: +sum_{k=m+1}^{m+r} a_k             cos-kernel(k, -r, x)
    lower boundary: -sum_{k=n}^{n+r-1} a_k             cos-kernel(k, -r, x)

    Raises ValueError when m + r passes ``HORIZON_LIMIT``.
    """
    if m < n:
        raise ValueError("need m >= n")
    if r < 1:
        raise ValueError("step r must be >= 1")
    _check_range(m + r)
    s = _half_denominator(r, x)

    # one evaluation of a_n .. a_{m+r}, and one exact-cosine call: the three
    # kernel ranges are slices of the one progression n - r/2 + i, i < m-n+1+r.
    # Per-call overhead dominates at desk lengths
    length = m - n + 1
    ks = np.arange(n, m + r + 1)
    vals = seq.values(ks)
    # exactly rounded accumulation and exact-angle kernels: the identity
    # balances kernel-sized cancellations that plain float products and
    # pairwise summation only resolve to ~1e-12 at desk lengths
    kern = _cos_exact(ks - 0.5 * r, x) / (2.0 * s)
    main = -_exact_sum((vals[:length] - vals[r:]) * kern[r:])

    # kernel at step -r: cos((k - r/2) x) / (2 sin(-rx/2)) = -cos((k - r/2) x) / (2 s)
    upper = _exact_sum(vals[length:] * -kern[length:])
    lower = -_exact_sum(vals[:r] * -kern[:r])
    return SbpDecomposition(main, upper, lower)


def _exact_sum(terms: np.ndarray) -> complex:
    return complex(math.fsum(terms.real.tolist()), math.fsum(terms.imag.tolist()))


_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp splitting constant


def _cos_exact(a: np.ndarray, b: float) -> np.ndarray:
    """cos(a * b) evaluated at the exact real product, for half-integers a
    of magnitude below 2**25.

    Dekker two-product recovers the rounding residual of a * b; a
    first-order angle correction then removes it (the residual is ~1e-14
    radians, so the second-order term is far below one ulp).  Only b is
    split: such an a has at most 26 significant bits, so its Veltkamp split
    is exact with high part a and low part 0, and the terms of the low part
    drop out.  ``sbp_decompose`` stays inside that range because its
    indices end at most at ``HORIZON_LIMIT`` = 2**24.
    """
    prod = a * b
    b1 = b * _SPLIT
    bh = b1 - (b1 - b)
    bl = b - bh
    err = (a * bh - prod) + a * bl
    return np.cos(prod) - err * np.sin(prod)


def direct_sine_sum(seq: SequenceRule, n: int, m: int, x: float) -> complex:
    """Direct evaluation of ``sum_{k=n}^{m} a_k sin(kx)``.

    The independent oracle for the decomposition; switches to exactly
    rounded (compensated) accumulation for long sums.  Raises ValueError
    when m passes ``HORIZON_LIMIT``.

    Each angle is the rounded product ``ks * x``, so it is off by up to
    about k |x| 2^-53 rad: about 4e-9 rad near k = 2^24 at x = 2.9.  Only
    the summation is compensated, so this oracle can disagree with the
    decomposition there: ``dgmlab sbp --seq power --exponent 0.1 --start
    16770000 --end 16777213 --r 3 --x 2.9`` reads ``MISMATCH``.
    """
    _check_range(m)
    ks = np.arange(n, m + 1)
    # complex sines: numpy pairs a float sum's terms differently from a complex sum's
    terms = seq.values(ks) * np.sin(ks * x).astype(complex)
    return complex(terms.sum()) if terms.size <= 100_000 else _exact_sum(terms)


@dataclass(frozen=True)
class PartialSumBound:
    """Kernel-based envelope for |sum_{k=n}^{N} a_k sin(kx)|.

    ``value = prefactor * term_sum`` where ``prefactor`` is the half-band
    kernel bound.  ``stated_prefactor`` is the looser constant that the
    bound is usually quoted with (identical on first half-bands, twice the
    kernel bound on second half-bands); both are recorded, the tighter one
    is used.
    """

    value: float
    prefactor: float
    stated_prefactor: float
    term_sum: float
    band: int
    half: int


def partial_sum_bound(seq: SequenceRule, n: int, N: int, r: int, x: float) -> PartialSumBound:
    """Evaluate the summation-by-parts envelope on x's half-band.

    term_sum = sum_{k=n}^{N} |a_k - a_{k+r}| + sum_{k=N+1}^{N+r} |a_k|
               + sum_{k=n}^{n+r-1} |a_k|.

    Raises ValueError when N + r passes ``HORIZON_LIMIT``.
    """
    if N < n:
        raise ValueError("need N >= n")
    l, half = band_index(x, r)
    _check_range(N + r)
    pref = _band_bound(x, r, l, half)
    # one evaluation of a_n .. a_{N+r}, sliced as in sbp_decompose
    length = N - n + 1
    vals = seq.values(np.arange(n, N + r + 1))
    mags = np.abs(vals)
    term_sum = float(
        np.abs(vals[:length] - vals[r:]).sum()
        + mags[length:].sum()
        + mags[:r].sum()
    )
    if half == 0:
        stated = math.pi / (2.0 * (r * x - 2.0 * math.pi * l))
    else:
        stated = math.pi / (2.0 * (l + 1) * math.pi - r * x)
    return PartialSumBound(pref * term_sum, pref, stated, term_sum, l, half)


@dataclass(frozen=True)
class HalfBandSweep:
    band: int
    half: int
    points: int
    k_max: int
    max_ratio: float
    violations: int


def half_bands(r: int) -> list[tuple[int, int, float, float]]:
    """(band, half, lo, hi) for every half-band inside (0, pi]."""
    out = []
    i = 0
    while i * math.pi / r < math.pi - 1e-15:
        lo = i * math.pi / r
        hi = min((i + 1) * math.pi / r, math.pi)
        out.append((i // 2, i % 2, lo, hi))
        i += 1
    return out


# largest step of the kernel sweep: it reads r half-bands of r + k_max + 1
# shifts each, and writes one report per half-band
KERNEL_STEP_LIMIT = 1 << 12

# entries of one |cos| tile of the kernel sweep: the sweep's working set is
# this tile plus a few arrays of one value per abscissa
_TILE = 1 << 16

# fewest columns in one block of the kernel sweep's visit
_BLOCK = 64

# a ratio above this is a violation of the half-band bound
_LIMIT = 1.0 + 1e-12


def _jordan_bounds(xs: np.ndarray, r: int, band: int) -> np.ndarray:
    """``kernel_band_bound`` at abscissas ``xs`` inside band ``band``."""
    u = r * xs / math.pi - 2 * band
    return 1.0 / (2.0 * np.where(u < 1.0, u, 2.0 - u))


def _abs_cos(shifts: np.ndarray, xs: np.ndarray, buf: np.ndarray) -> np.ndarray:
    """|cos(s x)| for every shift s (rows) and abscissa x (columns), written
    into the front of ``buf``."""
    tile = buf[:shifts.size * xs.size].reshape(shifts.size, xs.size)
    np.multiply(shifts[:, None], xs[None, :], out=tile)
    np.cos(tile, out=tile)
    return np.abs(tile, out=tile)


def _denominators_and_bounds(xs: np.ndarray, r: int, band: int) -> tuple[np.ndarray, np.ndarray]:
    """2|sin(rx/2)| and the half-band bound at abscissas ``xs``.  The ratio
    at x is the largest |cos| over these two; with |cos| at its largest, 1,
    it is x's ceiling."""
    return 2.0 * np.abs(np.sin(0.5 * r * xs)), _jordan_bounds(xs, r, band)


def kernel_bound_sweep(r: int, points: int, k_max: int) -> list[HalfBandSweep]:
    """Grid-verify |cos-kernel(k, +-r, x)| <= kernel_band_bound on each half-band.

    ``ratio`` is kernel magnitude over the bound; a ratio above 1 + 1e-12
    counts as a violation (there should be none).  The step -r kernel at k
    has the numerator of the step +r kernel at k - r, so both signs read one
    table of shifts k + r/2, k = -r..k_max.  The division by the denominator
    and the bound is monotone, so each abscissa's ratio is that of its
    largest |cos|, and at most its ceiling, the ratio at |cos| = 1: a column
    whose ceiling is at most the worst ratio so far and at most 1 + 1e-12
    can change neither result, and is skipped.  Single entries are counted
    only where a column's ratio is over the threshold.  The |cos| table is
    filled in tiles of at most ``_TILE`` entries.
    Raises ValueError for r outside [1, ``KERNEL_STEP_LIMIT``].
    """
    if points < 2 or k_max < 0:
        raise ValueError("need points >= 2 and k_max >= 0")
    if not 1 <= r <= KERNEL_STEP_LIMIT:
        raise ValueError(f"step r must be in [1, {KERNEL_STEP_LIMIT}]")
    # the rows either sign reads, and how many of the two signs read each
    ks = sorted_distinct(np.concatenate((np.arange(-r, k_max - r + 1), np.arange(0, k_max + 1))))
    shifts = ks + 0.5 * r
    reads = (ks >= 0).astype(np.int64) + (ks <= k_max - r)
    # columns of a block: a power of two of at least _BLOCK, as many as fill
    # one |cos| tile, so that a tile holds whole blocks
    block = _BLOCK
    while 2 * block * shifts.size <= _TILE:
        block *= 2
    buf = np.empty(_TILE)
    return [HalfBandSweep(band, half, points, k_max,
                          *_sweep_half_band(r, band, lo, hi, points, shifts, reads, block, buf))
            for band, half, lo, hi in half_bands(r)]


def _sweep_half_band(r: int, band: int, lo: float, hi: float, points: int, shifts: np.ndarray,
                     reads: np.ndarray, block: int, buf: np.ndarray) -> tuple[float, int]:
    """The worst ratio and the violation count of one half-band.

    The abscissas are taken one tile of at most ``_TILE`` columns at a time,
    each cut into blocks of ``block`` columns.  A tile's blocks are visited
    by descending largest ceiling, and the visit stops at the first block
    that can change neither result; inside a visited block, only the columns
    that can are computed.  Any order of the tiles is exact; they are taken
    by descending ceiling at their end columns, which meets the worst ratio
    first when the ceilings rise or fall across the half-band.
    """
    width = hi - lo
    xs = np.linspace(lo + width / (points + 1), hi - width / (points + 1), points)
    starts = np.arange(0, points, _TILE)
    if starts.size > 1:
        ends = np.minimum(np.add.outer(starts, [0, _TILE - 1]), points - 1)
        denom, bound = _denominators_and_bounds(xs[ends], r, band)
        starts = starts[(1.0 / denom / bound).max(axis=1).argsort()[::-1]]
    worst = 0.0
    bad = 0
    for t0 in starts:
        x = xs[t0:t0 + _TILE]
        denom, bound = _denominators_and_bounds(x, r, band)
        ceiling = 1.0 / denom / bound
        cuts = np.arange(0, x.size, block)
        peaks = np.maximum.reduceat(ceiling, cuts)
        for b in peaks.argsort()[::-1]:
            if peaks[b] <= worst and peaks[b] <= _LIMIT:
                break
            c = ceiling[cuts[b]:cuts[b] + block]
            live = cuts[b] + np.flatnonzero((c > worst) | (c > _LIMIT))
            top, over = _sweep_columns(shifts, reads, x[live], denom[live], bound[live], buf)
            worst = max(worst, top)
            bad += over
    return worst, bad


def _sweep_columns(shifts: np.ndarray, reads: np.ndarray, x: np.ndarray, denom: np.ndarray,
                   bound: np.ndarray, buf: np.ndarray) -> tuple[float, int]:
    """The worst ratio and the violation count of the columns at ``x``."""
    strip = _TILE // x.size
    top = _abs_cos(shifts[:strip], x, buf).max(axis=0)
    for s0 in range(strip, shifts.size, strip):
        np.maximum(top, _abs_cos(shifts[s0:s0 + strip], x, buf).max(axis=0), out=top)
    ratio = top / denom / bound
    worst = float(ratio.max())
    bad = 0
    if worst > _LIMIT:  # count single entries; no column gets here in practice
        over = np.flatnonzero(ratio > _LIMIT)
        step = _TILE // over.size
        for s0 in range(0, shifts.size, step):
            mag = _abs_cos(shifts[s0:s0 + step], x[over], buf) / denom[over]
            hits = np.count_nonzero(mag / bound[over] > _LIMIT, axis=1)
            bad += int(reads[s0:s0 + step] @ hits)
    return worst, bad
