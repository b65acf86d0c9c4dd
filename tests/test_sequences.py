import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dgmlab.sequences import (
    Bracket,
    DoubleSequenceRule,
    Reading,
    SequenceRule,
    TailEnvelope,
    additive_rule,
    block_p_norm,
    double_block_p_norm,
    geometric_double_rule,
    geometric_rule,
    mixed_diff_values,
    power_rule,
    product_rule,
    row_diff_values,
    rule_from_function,
    rule_from_values,
    sorted_distinct,
    step_diff_values,
    table_rule,
    transpose_rule,
)
from dgmlab.counterexample import double_rule, single_rule
from dgmlab.kernels import direct_sine_sum, partial_sum_bound, sbp_decompose
from references import (
    assert_bits_equal,
    constant_rule,
    direct_col_diff_values,
    four_call_mixed_diff_values,
    masked_table_fn,
    masked_values_fn,
    scalar_eval,
    symmetry_rules,
    two_call_row_diff_values,
    two_call_step_diff_values,
)

REL = 1e-12
ABS = 1e-14


def close(a, b):
    return abs(a - b) <= max(ABS, REL * max(abs(a), abs(b)))


# pointwise oracles: the difference operators from scalar evaluations


def step_diff(seq, k, r):
    return scalar_eval(seq, k) - scalar_eval(seq, k + r)


def row_diff(c, j, k, r):
    return scalar_eval(c, j, k) - scalar_eval(c, j + r, k)


def col_diff(c, j, k, r):
    return scalar_eval(c, j, k) - scalar_eval(c, j, k + r)


def mixed_diff(c, j, k, r):
    return (scalar_eval(c, j, k) - scalar_eval(c, j + r, k)
            - scalar_eval(c, j, k + r) + scalar_eval(c, j + r, k + r))


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
    assert close(block_p_norm(seq, 1, 3.0, 1), abs(scalar_eval(seq, 1) - scalar_eval(seq, 2)))


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
    slow = DoubleSequenceRule(np.vectorize(lambda j, k: scalar_eval(u, j) * scalar_eval(v, k),
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


def test_rule_from_values_zero_outside_support():
    seq = rule_from_values([1.0, 2.0, 3.0])
    assert scalar_eval(seq, 3) == 3.0
    assert scalar_eval(seq, 4) == 0.0
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
            assert_same_lookup(seq.values(idx), SequenceRule(ref, real=seq.real).values(idx))

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
            assert_same_lookup(c.values(j, k), DoubleSequenceRule(ref, real=c.real).values(j, k))

    def test_lookups_keep_no_reference_to_the_input(self):
        values = np.arange(1.0, 6.0) + 0j
        table = values.reshape(1, 5).copy()
        seq, c = rule_from_values(values), table_rule(table)
        values[:] = table[:] = 0
        assert scalar_eval(seq, 5) == 5.0 and scalar_eval(c, 1, 5) == 5.0


def test_table_rule_support_box():
    c = table_rule(np.ones((3, 4)))
    assert c.support == (3, 4)
    assert scalar_eval(c, 3, 4) == 1.0
    assert scalar_eval(c, 4, 1) == 0.0
    grid = c.values(np.array([[1], [4]]), np.array([[1, 5]]))
    assert grid.shape == (2, 2)
    assert grid[0, 0] == 1.0 and grid[1, 0] == 0.0 and grid[0, 1] == 0.0


def test_values_fallback_matches_pointwise():
    c = DoubleSequenceRule(np.vectorize(lambda j, k: complex(j * 10 + k), otypes=[complex]))
    js = np.array([1, 2, 3])
    got = c.values(js[:, None], np.array([[1, 2]]))
    assert got.shape == (3, 2)
    assert got[2, 1] == 32
    assert scalar_eval(c, 3, 2) == 32


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


class TestOneBlockEvaluation:
    """Each difference operator evaluates the rule once, on the index runs
    extended by r, and equals the operand-by-operand reference bit for bit."""

    @staticmethod
    def double_rules():
        rng = np.random.default_rng(41)
        nan_table = rng.normal(size=(14, 12)) + 1j * rng.normal(size=(14, 12))
        nan_table[3, 5] = np.nan
        nan_table[7, 1] = complex(1.0, np.nan)
        u = rule_from_values(rng.normal(size=30) + 1j * rng.normal(size=30))
        v = rule_from_function(lambda k: complex(1.0 / k, (-1.0) ** k / (k + 2.0)))
        return [
            table_rule(rng.normal(size=(15, 13)), "real"),
            table_rule(rng.normal(size=(11, 16)) + 1j * rng.normal(size=(11, 16)), "complex"),
            table_rule(nan_table, "nan"),
            transpose_rule(table_rule(rng.normal(size=(9, 17)) + 1j * rng.normal(size=(9, 17)))),
            geometric_double_rule(0.6),
            product_rule(u, v, "product"),
            dataclasses.replace(product_rule(u, v), factors=None, label="unhinted product"),
            additive_rule(geometric_rule(0.5), rule_from_function(lambda k: 1j / k), "additive"),
            double_rule(2.0),
        ]

    @staticmethod
    def single_rules():
        rng = np.random.default_rng(43)
        vals = rng.normal(size=25) + 1j * rng.normal(size=25)
        vals[4] = np.nan
        return [rule_from_values(rng.normal(size=25)), rule_from_values(vals),
                geometric_rule(0.7), power_rule(1.5),
                rule_from_function(lambda k: complex(math.cos(k), 1.0 / k))]

    # (row indices, column indices): every shape the callers pass
    ROW_SHAPES = [
        (3, 4),
        (2, np.arange(1, 12)),
        (np.arange(2, 13), 5),
        (np.arange(1, 10)[:, None], np.arange(2, 14)[None, :]),
        (np.arange(4, 11)[:, None], 6),
        (np.arange(3, 12)[None, :], np.arange(1, 8)[:, None]),
        (np.array([5]), np.arange(1, 9)),
        (np.arange(1, 2)[:, None], np.arange(1, 6)[None, :]),
    ]
    MIXED_SHAPES = [
        (3, 4),
        (np.arange(1, 10)[:, None], np.arange(2, 14)[None, :]),
        (np.arange(3, 12)[None, :], np.arange(1, 8)[:, None]),
        (np.arange(4, 11)[:, None], 6),
        (2, np.arange(1, 12)),
        (np.arange(2, 13), 5),
        (np.arange(1, 2)[:, None], np.arange(1, 2)[None, :]),
    ]

    @pytest.mark.parametrize("r", range(1, 7))
    def test_step_diff_equals_two_calls(self, r):
        for seq in self.single_rules():
            for ks in (4, np.arange(1, 20), np.arange(3, 11)[:, None],
                       np.arange(2, 9)[None, :], np.array([7]), np.arange(1, 2)[:, None]):
                assert_bits_equal(step_diff_values(seq, ks, r),
                                  two_call_step_diff_values(seq, ks, r))

    @pytest.mark.parametrize("r", range(1, 7))
    def test_row_diff_equals_two_calls(self, r):
        for c in self.double_rules():
            for js, ks in self.ROW_SHAPES:
                assert_bits_equal(row_diff_values(c, js, ks, r),
                                  two_call_row_diff_values(c, js, ks, r))

    @pytest.mark.parametrize("r", range(1, 7))
    def test_mixed_diff_equals_four_calls(self, r):
        for c in self.double_rules():
            for js, ks in self.MIXED_SHAPES:
                assert_bits_equal(mixed_diff_values(c, js, ks, r),
                                  four_call_mixed_diff_values(c, js, ks, r))

    @pytest.mark.parametrize("ks", [
        [3, 5, 4], np.arange(1, 10, 2), np.arange(9, 0, -1), np.arange(12).reshape(3, 4) + 1,
    ], ids=["unsorted", "stride-2", "descending", "two-axes"])
    def test_a_non_run_is_refused(self, ks):
        seq = rule_from_values(np.arange(1.0, 30.0))
        c = table_rule(np.ones((20, 20)))
        with pytest.raises(ValueError, match="run"):
            step_diff_values(seq, ks, 1)
        with pytest.raises(ValueError, match="run"):
            row_diff_values(c, ks, 2, 1)
        with pytest.raises(ValueError, match="run"):
            mixed_diff_values(c, ks, 2, 1)

    def test_indices_varying_along_a_run_are_refused(self):
        c = table_rule(np.ones((20, 20)))
        with pytest.raises(ValueError, match="run"):
            row_diff_values(c, np.arange(1, 6), np.arange(2, 7), 1)
        with pytest.raises(ValueError, match="run"):
            row_diff_values(c, np.arange(1, 6)[:, None], np.ones((5, 3), dtype=int), 1)
        with pytest.raises(ValueError, match="run"):
            mixed_diff_values(c, np.arange(1, 6), np.arange(2, 7), 1)


class TestValuesDtype:
    """``values`` returns float64 exactly when the rule declares ``real``,
    and a real rule's values are, bit for bit, the real part of its ``fn``
    evaluated as a complex rule, whose imaginary part is exactly zero."""

    @staticmethod
    def single_rules():
        rng = np.random.default_rng(47)
        real = rng.normal(size=20)
        real[3] = -0.0
        return [
            geometric_rule(0.5), power_rule(1.5), single_rule(2.0),
            rule_from_values(real), rule_from_values(real + 1j * rng.normal(size=20)),
            rule_from_values(rng.integers(-9, 10, size=20)),
            rule_from_function(lambda k: complex(k, 0.0)),
            SequenceRule(lambda ks: ks * (1.0 + 0j), real=True),
        ]

    @staticmethod
    def double_rules():
        rng = np.random.default_rng(53)
        real = rng.normal(size=(12, 9))
        real[2, 4] = -0.0
        cplx = rng.normal(size=(7, 11)) + 1j * rng.normal(size=(7, 11))
        g = geometric_rule(0.5)
        z = rule_from_values(rng.normal(size=15) + 1j * rng.normal(size=15))
        return [
            double_rule(2.0), geometric_double_rule(0.5),
            table_rule(real), table_rule(cplx), table_rule(rng.integers(-9, 10, size=(8, 6))),
            product_rule(g, power_rule(2.0)), product_rule(g, z),
            additive_rule(g, power_rule(2.0)), additive_rule(z, g),
            transpose_rule(table_rule(real)), transpose_rule(table_rule(cplx)),
            transpose_rule(product_rule(g, z)),
            DoubleSequenceRule(lambda js, ks: js * (1.0 + 0j) + ks, real=True),
        ]

    @staticmethod
    def check(got, ref, real):
        assert got.dtype == (np.float64 if real else np.complex128)
        if real:
            assert ref.dtype == np.complex128
            assert_bits_equal(got, ref.real)
            assert np.all(ref.imag == 0)
        else:
            assert_bits_equal(got, ref)

    def test_single_rules(self):
        for seq in self.single_rules():
            ref = SequenceRule(seq.fn, real=False)
            for ks in (np.arange(1, 30), np.arange(1, 13).reshape(3, 4), np.array(5)):
                self.check(seq.values(ks), ref.values(ks), seq.real)

    def test_double_rules(self):
        for c in self.double_rules():
            ref = DoubleSequenceRule(c.fn, real=False)
            for js, ks in ((np.arange(1, 16)[:, None], np.arange(1, 14)[None, :]),
                           (np.arange(1, 6), np.arange(3, 8)), (np.array(2), np.arange(1, 9))):
                self.check(c.values(js, ks), ref.values(js, ks), c.real)

    def test_real_rule_sums_equal_their_complex_evaluation(self):
        for seq in self.single_rules():
            ref = SequenceRule(seq.fn, real=False)
            for n, m, r, x in ((5, 80, 3, 1.0), (1, 50, 2, 2.0), (3, 29, 1, 0.3)):
                assert direct_sine_sum(seq, n, m, x) == direct_sine_sum(ref, n, m, x)
                assert sbp_decompose(seq, n, m, r, x) == sbp_decompose(ref, n, m, r, x)
                assert partial_sum_bound(seq, n, m, r, x) == partial_sum_bound(ref, n, m, r, x)

    def test_declared_real_where_the_input_is_real(self):
        singles, doubles = self.single_rules(), self.double_rules()
        assert [s.real for s in singles] == [True, True, True, True, False, True, False, True]
        assert [c.real for c in doubles] == [True, True, True, False, True, True, False,
                                             True, False, True, False, False, True]


@pytest.mark.parametrize("call, match", [
    (lambda: TailEnvelope(1.0, "exponential", 0.5, 0.5), "unknown envelope kind"),
    (lambda: TailEnvelope(1.0, "geometric", 1.0, 0.5), r"ratios in \(0, 1\)"),
    (lambda: TailEnvelope(1.0, "geometric", 0.5, 0.0), r"ratios in \(0, 1\)"),
    (lambda: double_block_p_norm(geometric_double_rule(0.5), 0, 2, 1.0, 1),
     "block starts must be >= 1"),
    (lambda: double_block_p_norm(geometric_double_rule(0.5), 2, 0, 1.0, 1),
     "block starts must be >= 1"),
    (lambda: double_block_p_norm(geometric_double_rule(0.5), 2, 2, 0.0, 1), "p must be positive"),
    (lambda: double_block_p_norm(geometric_double_rule(0.5), 2, 2, 1.0, 0), "step r must be >= 1"),
    (lambda: table_rule(np.ones(4)), "table must be two-dimensional"),
    (lambda: geometric_rule(1.0), r"ratio must be in \(0, 1\)"),
    (lambda: power_rule(0), "exponent must be positive"),
])
def test_library_refusals(call, match):
    with pytest.raises(ValueError, match=match):
        call()


def test_lower_rank_values_take_the_broadcast_shape():
    # fn reads only the row index and returns a (3, 1) column
    c = DoubleSequenceRule(lambda js, ks: 2.0 * js, real=True)
    got = c.values(np.arange(1, 4)[:, None], np.arange(1, 6)[None, :])
    assert got.shape == (3, 5) and got.dtype == np.float64
    assert np.array_equal(got, np.repeat([[2.0], [4.0], [6.0]], 5, axis=1))
    got[0, 0] = -1.0  # writable, and not a view sharing one row across columns
    assert got[0, 1] == 2.0


# a few values, so that draws repeat, with both zeros
_FLOATS = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 1e-300, -1e300, math.inf, -math.inf]) \
    | st.floats(allow_nan=False)


@settings(deadline=None, max_examples=300)
@given(st.lists(_FLOATS, max_size=40).map(lambda v: np.array(v, dtype=float))
       | st.lists(st.integers(-3, 3) | st.integers(-2**63, 2**63 - 1), max_size=40)
       .map(lambda v: np.array(v, dtype=np.int64)))
def test_sorted_distinct_is_np_unique(a):
    got, want = sorted_distinct(a), np.unique(a)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# the one reading rule


class Toy(Reading):
    GOOD = "good"
    BAD = "bad"
    NEITHER = "neither"


def below(c):
    return lambda his: all(h < c for h in his)


def above(c):
    return lambda values: any(v > c for v in values)


def test_every_family_reads_its_exit_code_from_its_position():
    from dgmlab.convergence import ConvergenceVerdict
    from dgmlab.counterexample import RatioVerdict
    from dgmlab.decay import DecayVerdict
    from dgmlab.membership import Verdict

    families = {
        Verdict: ["consistent", "violated", "inconclusive"],
        ConvergenceVerdict: ["converging", "not-converging", "inconclusive"],
        DecayVerdict: ["decaying", "not-decaying", "inconclusive"],
        RatioVerdict: ["bounded", "growing", "inconclusive"],
    }
    for family, values in families.items():
        assert [(m.value, m.code) for m in family] == list(zip(values, (0, 1, 2)))


def test_good_reads_the_hi_sides_only():
    # the values would read good, the upper bounds do not
    assert Toy.read([Bracket(0.0, 1.0)], below(0.5), above(2.0)) is Toy.NEITHER
    assert Toy.read([Bracket(0.0, 0.25), Bracket(0.4)], below(0.5), above(2.0)) is Toy.GOOD
    assert Bracket(0.25, 0.5).hi == 0.75 and Bracket(3.0).hi == 3.0


def test_bad_reads_the_value_sides_only():
    # the upper bound would read bad, the value does not
    assert Toy.read([Bracket(1.0, 5.0)], below(0.5), above(2.0)) is Toy.NEITHER
    assert Toy.read([Bracket(3.0, 5.0), Bracket(0.0)], below(0.5), above(2.0)) is Toy.BAD


@pytest.mark.parametrize("evidence", [[Bracket(0.0, math.inf)], [Bracket(math.inf)],
                                      [Bracket(0.0), Bracket(1.0, math.nan)]])
def test_an_unbounded_hi_never_reads_good(evidence):
    # even a good predicate that holds everywhere, as `x <= 0.5 * x` does at inf
    assert Toy.read(evidence, lambda his: True, lambda values: False) is Toy.NEITHER
    assert Toy.read(evidence, lambda his: True, lambda values: True) is Toy.BAD


_GAP = st.floats(0.0, 10.0) | st.just(0.0)


@settings(deadline=None, max_examples=300)
@given(st.data(), st.lists(st.floats(0.0, 10.0), min_size=1, max_size=4),
       st.floats(0.0, 10.0), st.floats(0.0, 5.0))
def test_narrowing_toward_the_truth_never_flips_good_and_bad(data, truth, c_good, spread):
    """Brackets around a fixed truth, narrowed step by step to it.  With a
    good predicate closed downward and a bad one closed upward that never
    both hold at one point, no reading is ever the opposite of another, a
    reading once made stays, and the exact brackets read as the truth."""
    good, bad = below(c_good), above(c_good + spread)
    lo = [data.draw(_GAP) for _ in truth]
    hi = [data.draw(_GAP | st.just(math.inf)) for _ in truth]
    readings = []
    for _ in range(data.draw(st.integers(1, 5))):
        readings.append(Toy.read([Bracket(t - a, a + b) for t, a, b in zip(truth, lo, hi)],
                                 good, bad))
        lo = [a * data.draw(st.floats(0.0, 1.0)) for a in lo]
        hi = [b * data.draw(st.floats(0.0, 1.0)) if math.isfinite(b)
              else data.draw(_GAP | st.just(math.inf)) for b in hi]
    readings.append(Toy.read([Bracket(t) for t in truth], good, bad))
    made = [r for r in readings if r is not Toy.NEITHER]
    if made:
        assert readings[readings.index(made[0]):] == [readings[-1]] * len(made)
