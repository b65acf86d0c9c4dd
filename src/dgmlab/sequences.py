"""Single and double sequences as evaluation rules.

A rule is one pure, vectorised function of its index array (a pair of
broadcastable index arrays for double sequences); ``values`` calls it and
is the one evaluator.  It returns float64 for a rule that declares
``real`` and complex128 otherwise, so real computations stay real from the
rule to the result.  ``rule_from_function`` wraps a scalar function of one
index.  Double rules may carry structure hints -- a multiplicative
factorization ``c[j,k] = u[j] * v[k]``, a bounded support box, a tail
envelope -- that let the heavier scans pick fast exact paths.  The hints
never change semantics: every consumer falls back to the generic array
path when a hint is absent.

This module also provides the array step differences, the block p-norms
and the sorted-array and suffix-max helpers that the class scanners and
convergence checks are built from.  Only the row difference is defined:
the column difference of ``c`` is the row difference of
``transpose_rule(c)`` with the indices swapped.  Each verdict is a ``Reading``
of ``Bracket`` evidence.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

# Hard ceiling on any index horizon accepted by the lab; keeps desk runs
# bounded regardless of configuration.
HORIZON_LIMIT = 2**24


@dataclass(frozen=True)
class Bracket:
    """A verdict quantity in ``[value, hi]``: ``value`` is what was computed,
    and ``residual`` bounds what was not (inf where nothing does)."""

    value: float
    residual: float = 0.0

    @property
    def hi(self) -> float:
        return self.value + self.residual


class Reading(enum.Enum):
    """A three-valued verdict: its members are the good, the bad and the
    inconclusive reading, in that order; a member's position is its exit code."""

    @property
    def code(self) -> int:
        return list(type(self)).index(self)

    @classmethod
    def read(cls, evidence: Sequence[Bracket], good: Callable, bad: Callable) -> Reading:
        """Good if every ``hi`` is finite and ``good`` holds on the ``hi`` sides;
        else bad if ``bad`` holds on the ``value`` sides; else inconclusive."""
        good_side, bad_side, neither = cls
        his = [b.hi for b in evidence]
        if all(math.isfinite(h) for h in his) and good(his):
            return good_side
        return bad_side if bad([b.value for b in evidence]) else neither


@dataclass(frozen=True)
class TailEnvelope:
    """Separable decay envelope ``|c[j,k]| <= amp * f(j) * g(k)``.

    ``kind`` selects the factor shape: ``"geometric"`` means
    ``f(j) = a_j**j`` with ``0 < a_j < 1``; ``"polynomial"`` means
    ``f(j) = j**-a_j``.  Tails may be infinite (slow decay); consumers
    treat an infinite residual as "inconclusive", never as zero.
    """

    amp: float
    kind: str
    a_j: float
    a_k: float

    def __post_init__(self):
        if self.kind not in ("geometric", "polynomial"):
            raise ValueError(f"unknown envelope kind {self.kind!r}")
        if self.kind == "geometric" and not (0 < self.a_j < 1 and 0 < self.a_k < 1):
            raise ValueError("geometric envelope needs ratios in (0, 1)")

    def f(self, j):
        """``f`` at a float or a float array."""
        return self.a_j**j if self.kind == "geometric" else j**-self.a_j

    def f_tail(self, start: int) -> float:
        """Upper bound on ``sum_{j >= start} f(j)``; may be ``inf``."""
        return _factor_tail(self.kind, self.a_j, start)

    def g_tail(self, start: int) -> float:
        return _factor_tail(self.kind, self.a_k, start)


def _factor_tail(kind: str, a: float, start: int) -> float:
    if kind == "geometric":
        return a**start / (1.0 - a)
    if a <= 1.0:
        return math.inf
    # integral comparison: sum_{j>=s} j^-a <= s^-a + s^(1-a)/(a-1)
    s = float(max(start, 1))
    return s**-a + s ** (1.0 - a) / (a - 1.0)


@dataclass(frozen=True)
class SequenceRule:
    """Sequence ``{a_k}`` defined for ``k >= 1``.

    ``fn`` maps an integer index array to the values at those indices, in
    the same shape; it must be pure.  ``real`` declares every value real.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    label: str = ""
    real: bool = False

    def values(self, ks) -> np.ndarray:
        """Evaluate at every index of ``ks`` (any integer array shape)."""
        return _typed(self.fn(np.asarray(ks, dtype=np.int64)), self.real)


@dataclass(frozen=True)
class DoubleSequenceRule:
    """Double sequence ``{c_jk}``, total on ``j, k >= 1``.

    ``fn`` maps two broadcastable integer index arrays to the values at
    those index pairs.  ``factors = (u, v)`` declares
    ``c[j,k] = u[j] * v[k]`` exactly; ``support = (J, K)`` declares
    ``c[j,k] = 0`` whenever ``j > J`` or ``k > K``.
    """

    fn: Callable[[np.ndarray, np.ndarray], np.ndarray]
    label: str = ""
    factors: tuple[SequenceRule, SequenceRule] | None = None
    support: tuple[int, int] | None = None
    real: bool = False
    tail: TailEnvelope | None = None

    def values(self, js, ks) -> np.ndarray:
        """Elementwise evaluation on broadcastable integer index arrays."""
        js = np.asarray(js, dtype=np.int64)
        ks = np.asarray(ks, dtype=np.int64)
        out = _typed(self.fn(js, ks), self.real)
        shape = np.broadcast(js, ks).shape
        if out.shape != shape:
            out = np.broadcast_to(out, shape).copy()
        return out


def _typed(out, real: bool) -> np.ndarray:
    """float64 values, the real part of ``out``, for a ``real`` rule (no
    ComplexWarning), and complex128 otherwise."""
    return np.asarray(np.real(out), dtype=float) if real else np.asarray(out, dtype=complex)


# ---------------------------------------------------------------------------
# difference operators


def _blocks(runs, others, r: int):
    """The differenced index ``runs``, each extended by r along its own axis,
    with per run its axis and the slices of its first and of its r-shifted
    entries, and the shape of the difference.

    A run is one index, or consecutive ascending indices along one axis; a
    single index gets a new leading axis.  No index, differenced or not
    (``others``), may vary along another run's axis."""
    shape = np.broadcast(*runs, *others).shape
    frame = sum(idx.size == 1 for idx in runs) + len(shape)
    blocks, cuts, lead = [], [], 0
    for idx in runs:
        first = int(idx.flat[0])
        if idx.size == 1:
            axis, lead = lead, lead + 1
            ext, lo, hi = np.array([first, first + r]), slice(0, 1), slice(1, 2)
        else:
            long_axes = [a for a, n in enumerate(idx.shape) if n > 1]
            ext = np.arange(first, first + idx.size + r)
            if len(long_axes) != 1 or (ext[:idx.size] != idx.ravel()).any():
                raise ValueError("a differenced index must be one index or a run "
                                 "of consecutive ascending indices along one axis")
            axis = frame - idx.ndim + long_axes[0]
            lo, hi = slice(0, idx.size), slice(r, idx.size + r)
            for other in (*runs, *others):
                if other is not idx and other.ndim >= frame - axis \
                        and other.shape[axis - frame] != 1:
                    raise ValueError("the indices must not vary along a differenced run")
        dims = [1] * frame
        dims[axis] = ext.size
        blocks.append(ext.reshape(dims))
        cuts.append((axis, lo, hi))
    return blocks, cuts, shape


def _at(frame: int, *parts) -> tuple:
    """Index of the block entries that take each ``(axis, slice)`` of ``parts``."""
    key = [slice(None)] * frame
    for axis, part in parts:
        key[axis] = part
    return tuple(key)


def step_diff_values(seq: SequenceRule, ks, r: int) -> np.ndarray:
    """Vectorized ``a_k - a_{k+r}`` over an index run.

    The rule is evaluated once, on the run extended by r."""
    ks = np.asarray(ks, dtype=np.int64)
    (kx,), ((axis, lo, hi),), shape = _blocks((ks,), (), r)
    b = seq.values(kx)
    return (b[_at(b.ndim, (axis, lo))] - b[_at(b.ndim, (axis, hi))]).reshape(shape)


def row_diff_values(c: DoubleSequenceRule, js, ks, r: int) -> np.ndarray:
    """Difference along the row index: ``c[j,k] - c[j+r,k]``, over a run of
    row indices; the rule is evaluated once, on the run extended by r."""
    if c.factors is not None:
        u, v = c.factors
        return step_diff_values(u, js, r) * v.values(ks)
    js = np.asarray(js, dtype=np.int64)
    ks = np.asarray(ks, dtype=np.int64)
    (jx,), ((axis, lo, hi),), shape = _blocks((js,), (ks,), r)
    b = c.values(jx, ks)
    return (b[_at(b.ndim, (axis, lo))] - b[_at(b.ndim, (axis, hi))]).reshape(shape)


def mixed_diff_values(c: DoubleSequenceRule, js, ks, r: int) -> np.ndarray:
    """Mixed difference, the row difference of the column difference:
    ``c[j,k] - c[j+r,k] - c[j,k+r] + c[j+r,k+r]``, over a run of row
    indices and a run of column indices along another axis.  The rule is
    evaluated once, on the block of both runs extended by r."""
    if c.factors is not None:
        u, v = c.factors
        return step_diff_values(u, js, r) * step_diff_values(v, ks, r)
    js = np.asarray(js, dtype=np.int64)
    ks = np.asarray(ks, dtype=np.int64)
    (jx, kx), ((aj, j0, j1), (ak, k0, k1)), shape = _blocks((js, ks), (), r)
    b = c.values(jx, kx)
    nd = b.ndim
    return (
        b[_at(nd, (aj, j0), (ak, k0))]
        - b[_at(nd, (aj, j1), (ak, k0))]
        - b[_at(nd, (aj, j0), (ak, k1))]
        + b[_at(nd, (aj, j1), (ak, k1))]
    ).reshape(shape)


# ---------------------------------------------------------------------------
# block p-norms


def p_norm(d, p: float) -> float:
    """``(sum |d|^p)^(1/p)`` over every entry of ``d``."""
    return float((np.abs(d) ** p).sum() ** (1.0 / p))


def block_p_norm(seq: SequenceRule, m: int, p: float, r: int) -> float:
    """``(sum_{k=m}^{2m-1} |a_k - a_{k+r}|^p)^(1/p)`` over one dyadic block."""
    if m < 1:
        raise ValueError(f"block start must be >= 1, got {m}")
    if p <= 0:
        raise ValueError("p must be positive")
    if r < 1:
        raise ValueError("step r must be >= 1")
    return p_norm(step_diff_values(seq, np.arange(m, 2 * m), r), p)


def double_block_p_norm(c: DoubleSequenceRule, m: int, n: int, p: float, r: int) -> float:
    """Mixed-difference block p-norm over ``[m, 2m) x [n, 2n)``.

    For product rules the mixed difference factorizes, so the double norm
    is the product of the two single block norms; used as the fast path.
    """
    if m < 1 or n < 1:
        raise ValueError("block starts must be >= 1")
    if p <= 0:
        raise ValueError("p must be positive")
    if r < 1:
        raise ValueError("step r must be >= 1")
    if c.factors is not None:
        u, v = c.factors
        return block_p_norm(u, m, p, r) * block_p_norm(v, n, p, r)
    js = np.arange(m, 2 * m)[:, None]
    ks = np.arange(n, 2 * n)[None, :]
    return p_norm(mixed_diff_values(c, js, ks, r), p)


# ---------------------------------------------------------------------------
# sorted arrays and suffix maxima


def sorted_distinct(a) -> np.ndarray:
    """``np.unique(a)`` for NaN-free ``a``, bit for bit: the sorted entries,
    each kept if it differs from the one before.  ``np.unique`` without
    ``return_*`` flags imports ``numpy.ma`` (numpy 2.4), which no other
    code here needs."""
    s = np.sort(a, axis=None)
    keep = np.empty(s.shape, dtype=bool)
    keep[:1] = True
    np.not_equal(s[1:], s[:-1], out=keep[1:])
    return s[keep]


def _suffix_max(a: np.ndarray) -> np.ndarray:
    """Suffix maxima along the last axis."""
    return np.maximum.accumulate(a[..., ::-1], axis=-1)[..., ::-1]


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


# ---------------------------------------------------------------------------
# rule constructors


def rule_from_function(fn: Callable[[int], complex], label: str = "") -> SequenceRule:
    """Sequence from a scalar function of one index, applied elementwise."""
    return SequenceRule(np.vectorize(fn, otypes=[complex]), label=label)


def rule_from_values(values, label: str = "") -> SequenceRule:
    """Array-backed sequence ``a_k = values[k - 1]``; indices beyond the array
    evaluate to 0.  Real input is held as float64, any other as complex128."""
    real = bool(np.isrealobj(values))
    arr = np.asarray(values, dtype=float if real else complex)
    # a_k at padded[k]; clipping sends every index outside 1..n to a zero end
    padded = np.zeros(arr.size + 2, dtype=arr.dtype)
    padded[1:-1] = arr

    def fn(ks: np.ndarray) -> np.ndarray:
        return padded.take(ks, mode="clip")

    return SequenceRule(fn, label=label, real=real)


def product_rule(u: SequenceRule, v: SequenceRule, label: str = "",
                 tail: TailEnvelope | None = None) -> DoubleSequenceRule:
    """Double rule ``c[j,k] = u[j] * v[k]``."""
    return DoubleSequenceRule(
        lambda js, ks: u.values(js) * v.values(ks),
        label=label or f"{u.label}*{v.label}",
        factors=(u, v),
        real=u.real and v.real,
        tail=tail,
    )


def additive_rule(u: SequenceRule, v: SequenceRule, label: str = "") -> DoubleSequenceRule:
    """Double rule ``c[j,k] = u[j] + v[k]``; its mixed differences vanish."""
    return DoubleSequenceRule(
        lambda js, ks: u.values(js) + v.values(ks),
        label=label or f"{u.label}+{v.label}",
        real=u.real and v.real,
    )


def table_rule(table, label: str = "") -> DoubleSequenceRule:
    """Double rule ``c[j,k] = table[j - 1, k - 1]``; zero outside the support
    box.  Real input is held as float64, any other as complex128."""
    real = bool(np.isrealobj(table))
    arr = np.asarray(table, dtype=float if real else complex)
    if arr.ndim != 2:
        raise ValueError("table must be two-dimensional")
    rows, cols = arr.shape
    # c[j,k] at padded[j, k] inside a zero border; clamping sends every index
    # pair outside the box to the border (np.minimum/np.maximum: np.clip adds
    # Python-level overhead per call)
    padded = np.zeros((rows + 2, cols + 2), dtype=arr.dtype)
    padded[1:-1, 1:-1] = arr

    def fn(js: np.ndarray, ks: np.ndarray) -> np.ndarray:
        return padded[np.minimum(np.maximum(js, 0), rows + 1),
                      np.minimum(np.maximum(ks, 0), cols + 1)]

    return DoubleSequenceRule(
        fn, label=label,
        support=(rows, cols),
        real=real,
    )


def geometric_rule(ratio: float = 0.5) -> SequenceRule:
    """``a_k = ratio**k``."""
    if not 0 < ratio < 1:
        raise ValueError("ratio must be in (0, 1)")
    return SequenceRule(
        lambda ks: float(ratio) ** ks,
        label=f"geometric({ratio})",
        real=True,
    )


def power_rule(exponent: float = 2.0) -> SequenceRule:
    """``a_k = k**-exponent``."""
    if exponent <= 0:
        raise ValueError("exponent must be positive")
    return SequenceRule(
        lambda ks: ks.astype(float) ** -exponent,
        label=f"power({exponent})",
        real=True,
    )


def geometric_double_rule(ratio: float = 0.5) -> DoubleSequenceRule:
    """``c[j,k] = ratio**(j+k)`` as a product rule with a tight envelope."""
    g = geometric_rule(ratio)
    return product_rule(
        g, g, label=f"geometric2({ratio})",
        tail=TailEnvelope(amp=1.0, kind="geometric", a_j=ratio, a_k=ratio),
    )


def power_double_rule(exponent: float = 2.0) -> DoubleSequenceRule:
    """``c[j,k] = (j*k)**-exponent`` as a product rule."""
    g = power_rule(exponent)
    return product_rule(
        g, g, label=f"power2({exponent})",
        tail=TailEnvelope(amp=1.0, kind="polynomial", a_j=exponent, a_k=exponent),
    )


def transpose_rule(c: DoubleSequenceRule) -> DoubleSequenceRule:
    """Rule with the roles of the two indices swapped."""
    return DoubleSequenceRule(
        lambda js, ks: c.fn(ks, js),
        label=f"T({c.label})",
        factors=(None if c.factors is None else (c.factors[1], c.factors[0])),
        support=(None if c.support is None else (c.support[1], c.support[0])),
        real=c.real,
        tail=(None if c.tail is None
              else TailEnvelope(c.tail.amp, c.tail.kind, c.tail.a_k, c.tail.a_j)),
    )
