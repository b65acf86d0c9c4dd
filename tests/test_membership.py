import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dgmlab.membership import (
    BoundFamily,
    BoundSpec,
    BoundValue,
    Verdict,
    _frontier_sup,
    divisor_embedding_check,
    embedding_check,
    gm_membership_scan,
    membership_scan,
    rhs_col_bound,
    rhs_mixed_bound,
    rhs_row_bound,
)
from dgmlab.sequences import (
    constant_rule,
    geometric_double_rule,
    geometric_rule,
    power_rule,
    product_rule,
    rule_from_values,
    table_rule,
    zero_double_rule,
)

REL = 1e-12
ABS = 1e-14


def close(a, b):
    return abs(a - b) <= max(ABS, REL * max(abs(a), abs(b)))


def mean_value(lam=2):
    return BoundSpec(BoundFamily.MEAN_VALUE, lam=lam)


def max_window(lam=2, b=None, cap=1 << 12):
    return BoundSpec(BoundFamily.MAX_WINDOW, lam=lam, b=b, horizon_cap=cap)


def sup_window(b=None, cap=1 << 12):
    return BoundSpec(BoundFamily.SUP_WINDOW, lam=1, b=b, horizon_cap=cap)


class TestBoundSpec:
    def test_mean_value_rejects_small_lambda(self):
        with pytest.raises(ValueError):
            BoundSpec(BoundFamily.MEAN_VALUE, lam=1)
        with pytest.raises(ValueError):
            BoundSpec(BoundFamily.MAX_WINDOW, lam=1)

    def test_sup_window_allows_lambda_one(self):
        BoundSpec(BoundFamily.SUP_WINDOW, lam=1)

    def test_anchor_must_grow(self):
        with pytest.raises(ValueError):
            BoundSpec(BoundFamily.SUP_WINDOW, lam=1, b=lambda l: 1.0)

    def test_default_anchor(self):
        spec = max_window(lam=2)
        assert spec.anchor(7) == 3.0
        assert spec.anchor(1) == 1.0


class TestRowBound:
    def test_zero_sequence_all_families(self):
        z = zero_double_rule()
        for spec in (mean_value(), max_window(), sup_window()):
            assert rhs_row_bound(z, 4, 1, spec).value == 0.0

    def test_mean_value_direct_loop(self):
        c = product_rule(geometric_rule(0.5), constant_rule(1.0))
        got = rhs_row_bound(c, 4, 1, mean_value(lam=2))
        want = sum(0.5**j for j in range(2, 9)) / 4
        assert close(got.value, want)
        assert close(got.value, 0.1240234375)

    def test_sup_window_decreasing_windows_maximizer_at_anchor(self):
        c = product_rule(power_rule(2.0), constant_rule(1.0))
        got = rhs_row_bound(c, 8, 1, sup_window(b=lambda l: float(l)))
        # scan oracle over the whole truncated range
        def window(M):
            return sum(1.0 / j**2 for j in range(M, 2 * M + 1))
        best = max(range(8, (1 << 12) + 1), key=window)
        assert got.maximizer == 8 == best
        assert close(got.value, window(8) / 8)
        assert not got.truncated

    def test_precondition_on_block_start(self):
        c = geometric_double_rule(0.5)
        with pytest.raises(ValueError):
            rhs_row_bound(c, 1, 1, mean_value(lam=2))

    def test_anchor_beyond_cap_is_inconclusive(self):
        c = geometric_double_rule(0.5)
        spec = sup_window(b=lambda l: float(l), cap=16)
        got = rhs_row_bound(c, 64, 1, spec)
        assert not got.conclusive
        assert got.value == 0.0


class TestColBound:
    def test_symmetric_rule_matches_transposed_row(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=(12, 12))
        c = table_rule(a + a.T)
        spec = mean_value()
        for m, n in [(2, 3), (4, 2), (3, 3)]:
            assert close(rhs_col_bound(c, m, n, spec).value,
                         rhs_row_bound(c, n, m, spec).value)

    def test_max_window_scan_oracle(self):
        c = product_rule(constant_rule(1.0), geometric_rule(0.5))
        got = rhs_col_bound(c, 1, 4, max_window(lam=2, b=lambda l: float(l)))
        def window(N):
            return sum(0.5**k for k in range(N, 2 * N + 1))
        want = max(window(N) for N in range(4, 9)) / 4
        assert close(got.value, want)
        assert got.maximizer == 4  # windows decrease, tie broken small

    def test_zero(self):
        assert rhs_col_bound(zero_double_rule(), 1, 4, max_window()).value == 0.0


class TestMixedBound:
    def test_zero(self):
        for spec in (mean_value(), max_window(), sup_window()):
            assert rhs_mixed_bound(zero_double_rule(), 2, 2, spec).value == 0.0

    def test_mean_value_double_loop(self):
        c = geometric_double_rule(0.5)
        got = rhs_mixed_bound(c, 2, 2, mean_value(lam=2))
        want = sum(0.5 ** (j + k) for j in range(1, 5) for k in range(1, 5)) / 4
        assert close(got.value, want)

    def test_product_frontier_matches_general_scan(self):
        """Factorization fast path against the dense-prefix general path."""
        rng = np.random.default_rng(8)
        ua, va = np.abs(rng.normal(size=48)), np.abs(rng.normal(size=48))
        u, v = rule_from_values(ua), rule_from_values(va)
        fast = product_rule(u, v)
        slow = table_rule(np.outer(ua, va))
        spec = sup_window(cap=24)
        for m, n in [(2, 2), (3, 5), (8, 8)]:
            a = rhs_mixed_bound(fast, m, n, spec)
            b = rhs_mixed_bound(slow, m, n, spec)
            assert close(a.value, b.value)
            assert a.maximizer == b.maximizer

    def test_frontier_respects_anchor(self):
        c = geometric_double_rule(0.5)
        spec = sup_window(b=lambda l: float(l), cap=64)
        got = rhs_mixed_bound(c, 8, 8, spec)
        assert got.maximizer[0] + got.maximizer[1] >= 16


class TestFrontierTruncationHonesty:
    def test_cap_below_support_is_truncated(self):
        big = table_rule(np.ones((40, 40)))
        spec = sup_window(cap=8)
        got = rhs_mixed_bound(big, 1, 1, BoundSpec(BoundFamily.SUP_WINDOW, lam=1,
                                                   horizon_cap=8))
        assert got.truncated and got.maximizer == (8, 8)

    def test_cap_covering_support_is_exact(self):
        small = table_rule(np.ones((4, 4)))
        got = rhs_mixed_bound(small, 1, 1, sup_window(cap=64))
        assert not got.truncated and got.conclusive

    def test_frontier_beyond_support_is_conclusive_zero(self):
        small = table_rule(np.ones((4, 4)))
        spec = BoundSpec(BoundFamily.SUP_WINDOW, lam=1, b=lambda l: 20.0 * l,
                         horizon_cap=64)
        got = rhs_mixed_bound(small, 2, 2, spec)
        assert got.value == 0.0 and got.conclusive and not got.truncated

    def test_frontier_beyond_cap_inconclusive_for_unbounded_rules(self):
        spec = BoundSpec(BoundFamily.SUP_WINDOW, lam=1, b=lambda l: 40.0 * l,
                         horizon_cap=16)
        got = rhs_mixed_bound(geometric_double_rule(0.5), 2, 2, spec)
        assert not got.conclusive


def square_frontier_sup(c, lo_sum, cap):
    """The frontier sup of a rule with bounded support over the square
    prefix grid of side 2 * max(m_hi, n_hi): the reference for the
    support-box grid."""
    jmax, kmax = c.support
    m_hi, n_hi = min(cap, jmax), min(cap, kmax)
    if lo_sum > jmax + kmax:
        return BoundValue(0.0, maximizer=None)
    if lo_sum > m_hi + n_hi:
        return BoundValue(0.0, maximizer=None, truncated=True, conclusive=False)
    top = 2 * max(m_hi, n_hi)
    js = np.arange(1, top + 1)
    grid = np.abs(c.values(js[:, None], js[None, :]))
    pref = np.zeros((top + 1, top + 1))
    np.cumsum(np.cumsum(grid, axis=0), axis=1, out=pref[1:, 1:])
    ms = np.arange(1, m_hi + 1)
    ns = np.arange(1, n_hi + 1)
    w = (pref[np.ix_(2 * ms, 2 * ns)] - pref[np.ix_(ms - 1, 2 * ns)]
         - pref[np.ix_(2 * ms, ns - 1)] + pref[np.ix_(ms - 1, ns - 1)])
    w = np.where((ms[:, None] + ns[None, :]) >= lo_sum, w, -np.inf)
    i, j = np.unravel_index(int(np.argmax(w)), w.shape)
    best = (int(ms[i]), int(ns[j]))
    truncated = (cap < jmax and best[0] == m_hi) or (cap < kmax and best[1] == n_hi)
    return BoundValue(float(w[i, j]), maximizer=best, truncated=truncated)


class TestFrontierSupportBox:
    """The support-box prefix grid against the square grid, bit for bit."""

    @pytest.mark.parametrize("shape", [(4, 4), (40, 40), (3, 50), (50, 3), (1, 9)])
    @pytest.mark.parametrize("ones", [False, True])
    def test_matches_square_grid(self, shape, ones):
        rng = np.random.default_rng(sum(shape))
        c = table_rule(np.ones(shape) if ones else rng.uniform(-1.0, 1.0, size=shape))
        for cap in (1, 2, 8, 64):
            for lo_sum in (2, 3, 7, 30, 52, 60, 120):
                assert _frontier_sup(c, lo_sum, cap) == square_frontier_sup(c, lo_sum, cap)


def test_sup_window_dominates_max_window_rows():
    c = geometric_double_rule(0.5)
    b = lambda l: float(max(1, l // 2))
    for m in (2, 4, 8, 16):
        hi = rhs_row_bound(c, m, 1, sup_window(b=b)).value
        lo = rhs_row_bound(c, m, 1, max_window(lam=2, b=b)).value
        assert hi >= lo * (1 - REL)


class TestMembershipScan:
    def blocks(self, hi=6):
        return [(2**t, 2**t) for t in range(1, hi + 1)]

    def test_zero_sequence_consistent(self):
        rep = membership_scan(zero_double_rule(), 1.0, 1, mean_value(), self.blocks())
        assert rep.verdict is Verdict.CONSISTENT
        assert rep.c_estimate == 0.0

    def test_geometric_consistent_bounded_ratios(self):
        rep = membership_scan(geometric_double_rule(0.5), 1.0, 1, mean_value(),
                              self.blocks())
        assert rep.verdict is Verdict.CONSISTENT
        assert 0 < rep.c_estimate < 10

    def test_rhs_zero_with_positive_lhs_is_violated(self):
        # step r=2 differences from block [4, 8) reach row 9, one past the
        # mean-value window [2, 8]; mass there gives lhs > 0 with rhs = 0
        arr = np.zeros((9, 9))
        arr[8, 3] = 1.0  # c[9, 4]
        rep = membership_scan(table_rule(arr), 1.0, 2, mean_value(lam=2), [(4, 4)])
        row = [e for e in rep.per_block if e.axis == "row"][0]
        assert row.lhs > 0 and row.rhs == 0.0
        assert rep.verdict is Verdict.VIOLATED

    def test_scale_invariance_of_ratios(self):
        rng = np.random.default_rng(13)
        a = np.abs(rng.normal(size=(32, 32)))
        r1 = membership_scan(table_rule(a), 1.5, 1, mean_value(), self.blocks(4))
        r2 = membership_scan(table_rule(7.5 * a), 1.5, 1, mean_value(), self.blocks(4))
        for e1, e2 in zip(r1.per_block, r2.per_block):
            assert close(e1.ratio, e2.ratio)
        assert close(r1.c_estimate, r2.c_estimate)

    def test_truncated_bound_degrades_to_inconclusive(self):
        # constant sequence: window sums grow with M, maximizer pinned at cap
        c = product_rule(constant_rule(1.0), constant_rule(1.0))
        rep = membership_scan(c, 1.0, 1, sup_window(cap=64), [(2, 2)])
        assert rep.verdict is Verdict.INCONCLUSIVE

    def test_empty_blocks_rejected(self):
        with pytest.raises(ValueError):
            membership_scan(zero_double_rule(), 1.0, 1, mean_value(), [])


class TestGmScan:
    def test_zero(self):
        z = constant_rule(0.0)
        rep = gm_membership_scan(z, 1.0, 1, mean_value(), [2, 4, 8])
        assert rep.verdict is Verdict.CONSISTENT
        assert rep.c_estimate == 0.0

    def test_geometric_consistent(self):
        rep = gm_membership_scan(geometric_rule(0.5), 1.0, 2, mean_value(),
                                 [2, 4, 8, 16, 32])
        assert rep.verdict is Verdict.CONSISTENT


class TestEmbedding:
    def test_equal_exponents_give_equality(self):
        rng = np.random.default_rng(6)
        c = table_rule(rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16)))
        rep = embedding_check(c, 1, 1.3, 1.3, [(2, 2), (4, 4)])
        assert rep.ok

    def test_random_complex_table_no_violations(self):
        rng = np.random.default_rng(7)
        c = table_rule(rng.normal(size=(32, 32)) + 1j * rng.normal(size=(32, 32)))
        rep = embedding_check(c, 1, 1.0, 2.0,
                              [(m, n) for m in (1, 2, 4, 8) for n in (1, 2, 4, 8)])
        assert rep.ok and rep.checked == 48

    def test_single_element_blocks_equal_for_any_p(self):
        rng = np.random.default_rng(17)
        c = table_rule(rng.normal(size=(8, 8)))
        rep = embedding_check(c, 2, 0.6, 3.7, [(1, 1)])
        assert rep.ok

    def test_rejects_bad_exponents(self):
        with pytest.raises(ValueError):
            embedding_check(zero_double_rule(), 1, 2.0, 1.0, [(1, 1)])


class TestDivisorEmbedding:
    def test_equal_steps_zero_slack(self):
        rng = np.random.default_rng(23)
        c = table_rule(rng.normal(size=(20, 20)))
        rep = divisor_embedding_check(c, 1.0, 2, 2, [(2, 2), (4, 4)])
        assert rep.ok

    def test_inverse_power_blocks_to_64(self):
        c = product_rule(power_rule(1.0), power_rule(1.0))  # 1/(jk)
        rep = divisor_embedding_check(c, 1.0, 1, 3,
                                      [(2**t, 2**t) for t in range(0, 7)])
        assert rep.ok

    def test_constant_both_sides_zero(self):
        c = product_rule(constant_rule(2.0), constant_rule(3.0))
        rep = divisor_embedding_check(c, 2.0, 1, 2, [(2, 2)])
        assert rep.ok

    def test_non_divisor_rejected(self):
        with pytest.raises(ValueError):
            divisor_embedding_check(zero_double_rule(), 1.0, 2, 3, [(1, 1)])
        with pytest.raises(ValueError):
            divisor_embedding_check(zero_double_rule(), 0.5, 1, 2, [(1, 1)])


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**6), st.floats(0.6, 2.0), st.integers(1, 2))
def test_embedding_property_random_tables(seed, p1, r):
    rng = np.random.default_rng(seed)
    c = table_rule(rng.normal(size=(24, 24)) + 1j * rng.normal(size=(24, 24)))
    rep = embedding_check(c, r, p1, p1 + 1.1, [(1, 1), (2, 3), (4, 4), (8, 2)])
    assert rep.ok


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from([(1, 2), (1, 3), (2, 4), (3, 6)]),
       st.sampled_from([1.0, 2.0]))
def test_divisor_embedding_property_random_tables(seed, steps, p):
    rng = np.random.default_rng(seed)
    c = table_rule(rng.normal(size=(24, 24)) + 1j * rng.normal(size=(24, 24)))
    rep = divisor_embedding_check(c, p, steps[0], steps[1], [(1, 1), (2, 2), (4, 4)])
    assert rep.ok
