import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dgmlab.sequences import (
    DoubleSequenceRule,
    SequenceRule,
    additive_rule,
    block_p_norm,
    constant_rule,
    double_block_p_norm,
    geometric_double_rule,
    geometric_rule,
    mixed_diff_values,
    power_rule,
    product_rule,
    row_diff_values,
    rule_from_function,
    rule_from_values,
    step_diff_values,
    table_rule,
    transpose_rule,
    window_diff_p_norm,
)
from references import (
    direct_col_diff_values,
    masked_table_fn,
    masked_values_fn,
    symmetry_rules,
)

REL = 1e-12
ABS = 1e-14


def close(a, b):
    return abs(a - b) <= max(ABS, REL * max(abs(a), abs(b)))


# pointwise oracles: the difference operators from scalar evaluations


def step_diff(seq, k, r):
    return seq.eval(k) - seq.eval(k + r)


def row_diff(c, j, k, r):
    return c.eval(j, k) - c.eval(j + r, k)


def col_diff(c, j, k, r):
    return c.eval(j, k) - c.eval(j, k + r)


def mixed_diff(c, j, k, r):
    return c.eval(j, k) - c.eval(j + r, k) - c.eval(j, k + r) + c.eval(j + r, k + r)


def col_diff_values(c, js, ks, r):
    """The column difference: the row difference of the transposed rule."""
    return row_diff_values(transpose_rule(c), ks, js, r)


@pytest.mark.parametrize("c", symmetry_rules(), ids=lambda c: c.label)
def test_col_diff_is_the_transposed_row_diff(c):
    """The transposed form against the direct column difference, bit for bit."""
    for js, ks in [(np.arange(1, 15)[:, None], np.arange(1, 33)[None, :]),
                   (5, np.arange(3, 40)), (np.arange(2, 9), 4), (7, 2)]:
        for r in (1, 2, 3):
            got = col_diff_values(c, js, ks, r)
            want = direct_col_diff_values(c, js, ks, r)
            assert got.shape == want.shape and np.all(got == want), (c.label, r)


def test_step_diff_linear_rule():
    seq = rule_from_function(lambda k: complex(k))
    assert step_diff_values(seq, 1, 2) == -2


def test_step_diff_annihilates_constants():
    seq = constant_rule(5.0)
    for k, r in [(1, 1), (3, 4), (10, 7)]:
        assert step_diff_values(seq, k, r) == 0


def test_step_diff_harmonic_direct_evaluation():
    seq = rule_from_function(lambda k: 1.0 / k)
    # oracle: direct evaluation of both entries
    assert close(step_diff_values(seq, 3, 3), 1.0 / 3.0 - 1.0 / 6.0)


def test_mixed_diff_additively_separable_vanishes():
    c = additive_rule(rule_from_function(lambda j: complex(j)),
                      rule_from_function(lambda k: complex(k)))
    for j, k in [(1, 1), (2, 5), (7, 3)]:
        assert mixed_diff_values(c, j, k, 1) == 0


def test_mixed_diff_product_expansion():
    c = product_rule(rule_from_function(lambda j: complex(j)),
                     rule_from_function(lambda k: complex(k)))
    # 1*1 - 3*1 - 1*3 + 3*3
    assert mixed_diff_values(c, 1, 1, 2) == 4


def test_mixed_diff_is_row_diff_of_col_diff():
    rng = np.random.default_rng(11)
    c = table_rule(rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8)))
    for j, k, r in [(1, 1, 1), (2, 3, 2), (4, 4, 3), (1, 5, 2)]:
        # composition: column-difference first, then row-difference
        inner = col_diff_values(c, j, k, r) - col_diff_values(c, j + r, k, r)
        assert close(mixed_diff_values(c, j, k, r), inner)


def test_mixed_diff_transpose_symmetry():
    rng = np.random.default_rng(5)
    c = table_rule(rng.normal(size=(9, 7)))
    ct = transpose_rule(c)
    for j, k, r in [(1, 2, 1), (3, 1, 2), (2, 2, 3)]:
        assert close(mixed_diff_values(c, j, k, r), mixed_diff_values(ct, k, j, r))


@settings(max_examples=50, deadline=None)
@given(
    st.integers(1, 6), st.integers(1, 4), st.integers(1, 3),
    st.integers(0, 10**6),
)
def test_step_diff_telescopes_over_divisors(k, r1, q, seed):
    rng = np.random.default_rng(seed)
    seq = rule_from_values(rng.normal(size=40) + 1j * rng.normal(size=40))
    r2 = q * r1
    if r2 == 0:
        return
    total = sum(step_diff_values(seq, k + i * r1, r1) for i in range(q))
    assert close(step_diff_values(seq, k, r2), total)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6), st.complex_numbers(max_magnitude=10, allow_nan=False),
       st.complex_numbers(max_magnitude=10, allow_nan=False))
def test_diff_operators_are_linear(seed, alpha, beta):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    b = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    ca, cb = table_rule(a), table_rule(b)
    combo = table_rule(alpha * a + beta * b)
    for op in (row_diff_values, col_diff_values, mixed_diff_values):
        got = op(combo, 2, 2, 2)
        want = alpha * op(ca, 2, 2, 2) + beta * op(cb, 2, 2, 2)
        assert abs(got - want) <= 1e-9 * (1 + abs(want))


def test_block_p_norm_constant_zero():
    assert block_p_norm(constant_rule(3.0), 5, 1.5, 2) == 0.0


def test_block_p_norm_single_term_block():
    rng = np.random.default_rng(1)
    seq = rule_from_values(rng.normal(size=8))
    assert close(block_p_norm(seq, 1, 3.0, 1), abs(seq.eval(1) - seq.eval(2)))


def test_block_p_norm_harmonic_loop_oracle():
    seq = rule_from_function(lambda k: 1.0 / k)
    want = sum(abs(1.0 / k - 1.0 / (k + 1)) ** 2 for k in range(4, 8)) ** 0.5
    assert close(block_p_norm(seq, 4, 2.0, 1), want)


def test_block_p_norm_validation():
    seq = geometric_rule(0.5)
    with pytest.raises(ValueError):
        block_p_norm(seq, 4, 0.0, 1)
    with pytest.raises(ValueError):
        block_p_norm(seq, 4, 1.0, 0)
    with pytest.raises(ValueError):
        block_p_norm(seq, 0, 1.0, 1)


def test_double_block_p_norm_additive_zero():
    c = additive_rule(geometric_rule(0.5), power_rule(2.0))
    # zero up to the cancellation noise of the additive evaluation
    assert double_block_p_norm(c, 3, 5, 1.5, 2) <= ABS


def test_double_block_p_norm_single_block():
    c = geometric_double_rule(0.5)
    assert close(double_block_p_norm(c, 1, 1, 1.0, 1), abs(mixed_diff(c, 1, 1, 1)))


def test_double_block_p_norm_loop_oracle():
    rng = np.random.default_rng(21)
    c = table_rule(rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16)))
    m = n = 4
    p, r = 1.5, 2
    want = sum(
        abs(mixed_diff(c, j, k, r)) ** p
        for j in range(m, 2 * m) for k in range(n, 2 * n)
    ) ** (1 / p)
    assert close(double_block_p_norm(c, m, n, p, r), want)


def test_double_block_p_norm_product_path_matches_generic():
    u = rule_from_values(np.random.default_rng(3).normal(size=24))
    v = rule_from_values(np.random.default_rng(4).normal(size=24))
    fast = product_rule(u, v)
    slow = DoubleSequenceRule(np.vectorize(lambda j, k: u.eval(j) * v.eval(k),
                                           otypes=[complex]))
    for m, n, p, r in [(2, 3, 1.0, 1), (4, 4, 2.0, 3), (1, 5, 0.7, 2)]:
        assert close(double_block_p_norm(fast, m, n, p, r),
                     double_block_p_norm(slow, m, n, p, r))


@pytest.mark.parametrize("imag", [0.0, 1.0])
def test_product_difference_paths_match_generic(imag):
    """The factorised differences against the same rule without its hint."""
    rng = np.random.default_rng(13)
    u = rule_from_values(rng.normal(size=30) + imag * 1j * rng.normal(size=30))
    v = rule_from_values(rng.normal(size=30) + imag * 1j * rng.normal(size=30))
    fast = product_rule(u, v)
    slow = dataclasses.replace(fast, factors=None)
    js, ks = np.arange(1, 26)[:, None], np.arange(1, 24)[None, :]
    for op in (row_diff_values, col_diff_values, mixed_diff_values):
        for r in (1, 2, 5):
            assert np.allclose(op(fast, js, ks, r), op(slow, js, ks, r),
                               rtol=REL, atol=REL)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.floats(0.3, 2.0), st.floats(0.0, 2.5),
       st.integers(1, 5), st.integers(1, 3))
def test_block_norms_decrease_in_the_exponent(seed, p1, bump, m, r):
    """l^p monotonicity on a fixed finite block: p1 <= p2 => norm_p2 <= norm_p1."""
    p2 = p1 + bump
    rng = np.random.default_rng(seed)
    seq = rule_from_values(rng.normal(size=24) + 1j * rng.normal(size=24))
    n1 = block_p_norm(seq, m, p1, r)
    n2 = block_p_norm(seq, m, p2, r)
    assert n2 <= n1 * (1 + REL) + ABS


def test_window_diff_p_norm_matches_block_on_dyadic_window():
    seq = rule_from_values(np.random.default_rng(9).normal(size=40))
    assert close(window_diff_p_norm(seq, 5, 5, 2.0, 1), block_p_norm(seq, 5, 2.0, 1))


def test_rule_from_values_zero_outside_support():
    seq = rule_from_values([1.0, 2.0, 3.0])
    assert seq.eval(3) == 3.0
    assert seq.eval(4) == 0.0
    assert np.all(seq.values(np.array([4, 100])) == 0)


def assert_same_lookup(got, want):
    """Equal shape, dtype and values; NaN only where the reference has NaN."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert got.dtype == want.dtype
    for part in ("real", "imag"):
        assert np.array_equal(getattr(got, part), getattr(want, part), equal_nan=True)


def lookup_indices(n):
    """Indices before, at both ends of, just past and far past ``1..n``."""
    return np.array([-5, 0, 1, n, n + 1, 2**24], dtype=np.int64)


def lookup_arrays():
    rng = np.random.default_rng(18)
    special = rng.normal(size=(5, 4)) + 1j * rng.normal(size=(5, 4))
    special[0, 0] = complex(np.nan, 1.0)
    special[1, 2] = complex(np.inf, -np.inf)
    special[4, 3] = complex(-np.inf, np.nan)
    special[2, 1] = -0.0
    return {
        "complex": rng.normal(size=(5, 4)) + 1j * rng.normal(size=(5, 4)),
        "real": rng.normal(size=(6, 3)),
        "nan-inf": special,
        "empty": np.zeros((0, 0)),
        "no-rows": np.zeros((0, 3)),
        "no-cols": np.zeros((3, 0)),
        "1x1": np.array([[2.5 - 1j]]),
    }


class TestPaddedLookups:
    """The zero-padded lookups equal the masked ones they replaced."""

    @pytest.mark.parametrize("name", list(lookup_arrays()))
    def test_rule_from_values_equals_masked_lookup(self, name):
        values = lookup_arrays()[name].ravel()
        seq, ref = rule_from_values(values), masked_values_fn(values)
        ks = lookup_indices(values.size)
        for k in ks:  # 0-d
            assert_same_lookup(seq.fn(np.array(k)), ref(np.array(k)))
        for idx in (ks, ks.reshape(2, 3), ks[:, None], ks[:0]):
            assert_same_lookup(seq.fn(idx), ref(idx))
            assert_same_lookup(seq.values(idx), SequenceRule(ref).values(idx))

    @pytest.mark.parametrize("name", list(lookup_arrays()))
    def test_table_rule_equals_masked_lookup(self, name):
        table = lookup_arrays()[name]
        c, ref = table_rule(table), masked_table_fn(table)
        js, ks = lookup_indices(table.shape[0]), lookup_indices(table.shape[1])
        pairs = [(np.array(j), np.array(k)) for j in js for k in ks]  # 0-d
        pairs += [
            (js, ks),  # 1-D
            (js[:, None], ks[None, :]),  # (a, 1) x (1, b)
            tuple(np.meshgrid(js, ks, indexing="ij")),  # full 2-D
            (js[:, None], ks[None, :4]),
            (np.array(js[2]), ks),  # 0-d against 1-D
            (js[:, None], np.array(ks[3])),
            (js[:0], ks[:0]),
        ]
        for j, k in pairs:
            assert_same_lookup(c.fn(j, k), ref(j, k))
            assert_same_lookup(c.values(j, k), DoubleSequenceRule(ref).values(j, k))

    def test_lookups_keep_no_reference_to_the_input(self):
        values = np.arange(1.0, 6.0) + 0j
        table = values.reshape(1, 5).copy()
        seq, c = rule_from_values(values), table_rule(table)
        values[:] = table[:] = 0
        assert seq.eval(5) == 5.0 and c.eval(1, 5) == 5.0


def test_table_rule_support_box():
    c = table_rule(np.ones((3, 4)))
    assert c.support == (3, 4)
    assert c.eval(3, 4) == 1.0
    assert c.eval(4, 1) == 0.0
    grid = c.values(np.array([[1], [4]]), np.array([[1, 5]]))
    assert grid.shape == (2, 2)
    assert grid[0, 0] == 1.0 and grid[1, 0] == 0.0 and grid[0, 1] == 0.0


def test_values_fallback_matches_pointwise():
    c = DoubleSequenceRule(np.vectorize(lambda j, k: complex(j * 10 + k), otypes=[complex]))
    js = np.array([1, 2, 3])
    got = c.values(js[:, None], np.array([[1, 2]]))
    assert got.shape == (3, 2)
    assert got[2, 1] == 32
    assert c.eval(3, 2) == 32


def test_geometric_rule_envelope_tail():
    env = geometric_double_rule(0.5).tail
    # sum_{j>=4} 2^-j = 2^-3
    assert close(env.f_tail(4), 0.125)
    assert close(env.g_tail(4), 0.125)


def test_transpose_rule_swaps_indices():
    rng = np.random.default_rng(6)
    arr = rng.normal(size=(5, 3)) + 1j * rng.normal(size=(5, 3))
    ct = transpose_rule(table_rule(arr))
    assert ct.support == (3, 5)
    got = ct.values(np.arange(1, 5)[:, None], np.arange(1, 7)[None, :])
    assert np.array_equal(got, table_rule(arr.T).values(np.arange(1, 5)[:, None],
                                                         np.arange(1, 7)[None, :]))


def test_array_differences_match_pointwise_oracles():
    rng = np.random.default_rng(12)
    c = table_rule(rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9)))
    seq = rule_from_values(rng.normal(size=12))
    js, ks = np.arange(1, 8)[:, None], np.arange(1, 9)[None, :]
    for r in (1, 2, 3):
        for vec, op in ((row_diff_values, row_diff), (col_diff_values, col_diff),
                        (mixed_diff_values, mixed_diff)):
            got = vec(c, js, ks, r)
            want = [[op(c, j, k, r) for k in range(1, 9)] for j in range(1, 8)]
            assert np.allclose(got, want, rtol=REL, atol=ABS)
        got = step_diff_values(seq, np.arange(1, 12), r)
        assert np.allclose(got, [step_diff(seq, k, r) for k in range(1, 12)],
                           rtol=REL, atol=ABS)
