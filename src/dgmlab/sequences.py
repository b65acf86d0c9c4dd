"""Single and double complex sequences as evaluation rules.

A rule is one pure, vectorised function of its index array (a pair of
broadcastable index arrays for double sequences); ``values`` calls it,
and the scalar ``eval`` is derived from ``values``.  ``rule_from_function``
wraps a scalar function of one index.  Double rules may carry structure
hints -- a multiplicative factorization ``c[j,k] = u[j] * v[k]``, a
bounded support box, a tail envelope -- that let the heavier scans pick
fast exact paths.  The hints never change semantics: every consumer falls
back to the generic array path when a hint is absent.

This module also provides the array step differences and the block
p-norms that the class scanners and convergence checks are built from.
Only the row difference is defined: the column difference of ``c`` is the
row difference of ``transpose_rule(c)`` with the indices swapped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

# Hard ceiling on any index horizon accepted by the lab; keeps desk runs
# bounded regardless of configuration.
HORIZON_LIMIT = 2**24


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
    """Complex sequence ``{a_k}`` defined for ``k >= 1``.

    ``fn`` maps an integer index array to the values at those indices, in
    the same shape; it must be pure.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    label: str = ""
    real: bool = False

    def values(self, ks) -> np.ndarray:
        """Evaluate at every index of ``ks`` (any integer array shape)."""
        return np.asarray(self.fn(np.asarray(ks, dtype=np.int64)), dtype=complex)

    def eval(self, k: int) -> complex:
        return complex(self.values([k])[0])


@dataclass(frozen=True)
class DoubleSequenceRule:
    """Complex double sequence ``{c_jk}``, total on ``j, k >= 1``.

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
        out = np.asarray(self.fn(js, ks), dtype=complex)
        shape = np.broadcast_shapes(js.shape, ks.shape)
        if out.shape != shape:
            out = np.broadcast_to(out, shape).copy()
        return out

    def eval(self, j: int, k: int) -> complex:
        return complex(self.values([j], [k])[0])


# ---------------------------------------------------------------------------
# difference operators


def step_diff_values(seq: SequenceRule, ks, r: int) -> np.ndarray:
    """Vectorized ``a_k - a_{k+r}`` over an index array."""
    ks = np.asarray(ks, dtype=np.int64)
    return seq.values(ks) - seq.values(ks + r)


def row_diff_values(c: DoubleSequenceRule, js, ks, r: int) -> np.ndarray:
    """Difference along the row index: ``c[j,k] - c[j+r,k]``."""
    if c.factors is not None:
        u, v = c.factors
        return step_diff_values(u, js, r) * v.values(ks)
    return c.values(js, ks) - c.values(np.asarray(js) + r, ks)


def mixed_diff_values(c: DoubleSequenceRule, js, ks, r: int) -> np.ndarray:
    """Mixed difference, the row difference of the column difference:
    ``c[j,k] - c[j+r,k] - c[j,k+r] + c[j+r,k+r]``."""
    if c.factors is not None:
        u, v = c.factors
        return step_diff_values(u, js, r) * step_diff_values(v, ks, r)
    js = np.asarray(js, dtype=np.int64)
    ks = np.asarray(ks, dtype=np.int64)
    return (
        c.values(js, ks)
        - c.values(js + r, ks)
        - c.values(js, ks + r)
        + c.values(js + r, ks + r)
    )


# ---------------------------------------------------------------------------
# block p-norms


def p_norm(d, p: float) -> float:
    """``(sum |d|^p)^(1/p)`` over every entry of ``d``."""
    return float(np.sum(np.abs(d) ** p) ** (1.0 / p))


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


def window_diff_p_norm(seq: SequenceRule, start: int, length: int, p: float, r: int) -> float:
    """Step-r difference p-norm over an arbitrary window ``[start, start+length)``.

    The dyadic ``block_p_norm`` is the ``length == start`` special case;
    the shifted windows appear in the divisor-embedding chain.
    """
    if length < 1:
        raise ValueError("window length must be >= 1")
    return p_norm(step_diff_values(seq, np.arange(start, start + length), r), p)


# ---------------------------------------------------------------------------
# rule constructors


def rule_from_function(fn: Callable[[int], complex], label: str = "") -> SequenceRule:
    """Sequence from a scalar function of one index, applied elementwise."""
    return SequenceRule(np.vectorize(fn, otypes=[complex]), label=label)


def rule_from_values(values, label: str = "") -> SequenceRule:
    """Array-backed sequence ``a_k = values[k - 1]``; indices beyond the array
    evaluate to 0."""
    arr = np.asarray(values, dtype=complex)
    # a_k at padded[k]; clipping sends every index outside 1..n to a zero end
    padded = np.zeros(arr.size + 2, dtype=complex)
    padded[1:-1] = arr

    def fn(ks: np.ndarray) -> np.ndarray:
        return padded.take(ks, mode="clip")

    return SequenceRule(fn, label=label, real=bool(np.isrealobj(values)))


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
    """Double rule ``c[j,k] = table[j - 1, k - 1]``; zero outside the support box."""
    arr = np.asarray(table, dtype=complex)
    if arr.ndim != 2:
        raise ValueError("table must be two-dimensional")
    rows, cols = arr.shape
    # c[j,k] at padded[j, k] inside a zero border; clamping sends every index
    # pair outside the box to the border (np.minimum/np.maximum: np.clip adds
    # Python-level overhead per call)
    padded = np.zeros((rows + 2, cols + 2), dtype=complex)
    padded[1:-1, 1:-1] = arr

    def fn(js: np.ndarray, ks: np.ndarray) -> np.ndarray:
        return padded[np.minimum(np.maximum(js, 0), rows + 1),
                      np.minimum(np.maximum(ks, 0), cols + 1)]

    return DoubleSequenceRule(
        fn, label=label,
        support=(rows, cols),
        real=bool(np.isrealobj(table)),
    )


def geometric_rule(ratio: float = 0.5) -> SequenceRule:
    """``a_k = ratio**k``."""
    if not 0 < ratio < 1:
        raise ValueError("ratio must be in (0, 1)")
    return SequenceRule(
        lambda ks: (float(ratio) ** ks).astype(complex),
        label=f"geometric({ratio})",
        real=True,
    )


def power_rule(exponent: float = 2.0) -> SequenceRule:
    """``a_k = k**-exponent``."""
    if exponent <= 0:
        raise ValueError("exponent must be positive")
    return SequenceRule(
        lambda ks: (ks.astype(float) ** -exponent).astype(complex),
        label=f"power({exponent})",
        real=True,
    )


def constant_rule(value: complex = 0j) -> SequenceRule:
    return SequenceRule(
        lambda ks: np.full(ks.shape, complex(value)),
        label=f"const({value})",
        real=(complex(value).imag == 0.0),
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


def zero_double_rule() -> DoubleSequenceRule:
    z = constant_rule(0j)
    return product_rule(z, z, label="zero")


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
