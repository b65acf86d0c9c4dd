import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dgmlab import membership
from dgmlab.membership import (
    ABS_TOL,
    BoundFamily,
    BoundSpec,
    BoundValue,
    BlockEvidence,
    Verdict,
    _AXES,
    _aggregate,
    _fit_axis,
    _frontier_sup,
    _ratio,
    _row_lhs,
    _window_sums,
    divisor_embedding_check,
    embedding_check,
    gm_membership_scan,
    membership_scan,
    rhs_mixed_bound,
    rhs_row_bound,
)
from dgmlab.sequences import (
    SequenceRule,
    additive_rule,
    geometric_double_rule,
    geometric_rule,
    p_norm,
    power_rule,
    product_rule,
    rule_from_values,
    step_diff_values,
    table_rule,
    transpose_rule,
)
import references
from references import (
    branch_aggregate,
    constant_rule,
    direct_col_bound,
    direct_col_lhs,
    four_call_mixed_diff_values,
    per_window_divisor_embedding_check,
    symmetry_rules,
    two_call_row_diff_values,
    window_product_max,
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


def rhs_col_bound(c, m, n, spec):
    """The column bound: the row bound of the transposed rule."""
    return rhs_row_bound(transpose_rule(c), n, m, spec)


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
        assert got.truncated and got.maximizer is None
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


class TestTransposedColumnForms:
    """The column forms through ``transpose_rule`` against the direct
    column code, bit for bit."""

    SPECS = [mean_value(2), mean_value(3), max_window(2), max_window(3, cap=64),
             max_window(2, b=lambda l: float(l), cap=8), sup_window(cap=64),
             sup_window(b=lambda l: float(l), cap=32)]

    @pytest.mark.parametrize("c", symmetry_rules(), ids=lambda c: c.label)
    def test_bound_and_lhs(self, c):
        t = transpose_rule(c)
        for m, n in [(3, 3), (3, 7), (8, 4), (16, 16), (5, 40)]:
            for spec in self.SPECS:
                assert rhs_row_bound(t, n, m, spec) == direct_col_bound(c, m, n, spec), \
                    (c.label, m, n, spec)
            for p in (0.7, 1.0, 1.5, 3.0):
                for r in (1, 2, 3):
                    assert _row_lhs(t, n, m, p, r) == direct_col_lhs(c, m, n, p, r), \
                        (c.label, m, n, p, r)

    @pytest.mark.parametrize("c", symmetry_rules(), ids=lambda c: c.label)
    def test_scans_read_the_column_forms(self, c, monkeypatch):
        blocks = [(3, 7), (8, 4), (5, 40)]
        spec = max_window(2)
        cols = [e for e in membership_scan(c, 1.5, 2, spec, blocks).per_block if e.axis == "col"]
        assert [(e.lhs, e.rhs) for e in cols] == [
            (direct_col_lhs(c, m, n, 1.5, 2), direct_col_bound(c, m, n, spec).value)
            for m, n in blocks]
        # the embedding checks report only violations: record every comparison
        seen = []
        monkeypatch.setattr(membership, "_leq", lambda a, b: seen.append((a, b)) or True)
        embedding_check(c, 2, 1.0, 2.5, blocks)
        assert seen[1::3] == [(direct_col_lhs(c, m, n, 2.5, 2), direct_col_lhs(c, m, n, 1.0, 2))
                              for m, n in blocks]
        seen.clear()
        divisor_embedding_check(c, 1.5, 1, 3, blocks)
        want = []
        for m, n in blocks:
            col = SequenceRule(lambda ks: c.values(m, ks), real=c.real)
            want.append((p_norm(step_diff_values(col, np.arange(n, 2 * n), 3), 1.5),
                         sum(p_norm(step_diff_values(col, np.arange(n + i, 2 * n + i), 1), 1.5)
                             for i in range(3))))
        assert seen[1::3] == want

    def test_truncated_and_inconclusive_bounds(self):
        c = geometric_double_rule(0.5)
        spec = sup_window(b=lambda l: float(l), cap=16)
        got = rhs_col_bound(c, 1, 64, spec)
        assert got == direct_col_bound(c, 1, 64, spec) and got.truncated
        ones = product_rule(constant_rule(1.0), constant_rule(1.0))
        got = rhs_col_bound(ones, 2, 2, sup_window(cap=64))
        assert got == direct_col_bound(ones, 2, 2, sup_window(cap=64)) and got.truncated


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

    @pytest.mark.parametrize("imag", [0.0, 1.0])
    def test_product_mean_value_matches_generic(self, imag):
        """Factorised mean-value window against the same rule without its hint."""
        rng = np.random.default_rng(14)
        u = rule_from_values(rng.normal(size=40) + imag * 1j * rng.normal(size=40))
        v = rule_from_values(rng.normal(size=40) + imag * 1j * rng.normal(size=40))
        fast = product_rule(u, v)
        slow = dataclasses.replace(fast, factors=None)
        for m, n, lam in [(2, 2, 2), (3, 7, 2), (8, 5, 3), (16, 16, 2)]:
            a = rhs_mixed_bound(fast, m, n, mean_value(lam))
            b = rhs_mixed_bound(slow, m, n, mean_value(lam))
            assert close(a.value, b.value)

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
        assert not got.truncated

    def test_frontier_beyond_support_is_conclusive_zero(self):
        small = table_rule(np.ones((4, 4)))
        spec = BoundSpec(BoundFamily.SUP_WINDOW, lam=1, b=lambda l: 20.0 * l,
                         horizon_cap=64)
        got = rhs_mixed_bound(small, 2, 2, spec)
        assert got.value == 0.0 and not got.truncated

    def test_frontier_beyond_cap_inconclusive_for_unbounded_rules(self):
        spec = BoundSpec(BoundFamily.SUP_WINDOW, lam=1, b=lambda l: 40.0 * l,
                         horizon_cap=16)
        got = rhs_mixed_bound(geometric_double_rule(0.5), 2, 2, spec)
        assert got.truncated and got.maximizer is None


def square_frontier_sup(c, lo_sum, cap):
    """The frontier sup of a rule with bounded support over the square
    prefix grid of side 2 * max(m_hi, n_hi): the reference for the
    support-box grid."""
    jmax, kmax = c.support
    m_hi, n_hi = min(cap, jmax), min(cap, kmax)
    if lo_sum > jmax + kmax:
        return BoundValue(0.0, maximizer=None)
    if lo_sum > m_hi + n_hi:
        return BoundValue(0.0, maximizer=None, truncated=True)
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


def window_product_frontier_sup(c, lo_sum, cap):
    """The product branch of ``_frontier_sup`` with its own frontier
    maximiser: the reference for the shared one."""
    u, v = c.factors
    starts = np.arange(1, cap + 1)
    wu = _window_sums(np.abs(u.values(np.arange(1, 2 * cap + 1))), 1, starts)
    wv = _window_sums(np.abs(v.values(np.arange(1, 2 * cap + 1))), 1, starts)
    best = window_product_max(wu, wv, lo_sum)
    if best is None:
        return BoundValue(0.0, maximizer=None, truncated=True)
    value, best_m, best_n = best
    return BoundValue(value, maximizer=(best_m, best_n),
                      truncated=best_m == cap or best_n == cap)


class TestFrontierProductBranch:
    """The shared frontier maximiser against the product branch's own."""

    @staticmethod
    def rules():
        rng = np.random.default_rng(43)
        ties = [rule_from_values(rng.integers(0, 3, size=size).astype(float))
                for size in (7, 30)]
        return [geometric_double_rule(0.5), product_rule(power_rule(1.0), geometric_rule(0.7)),
                product_rule(ties[0], ties[1]), product_rule(ties[1], ties[0]),
                product_rule(constant_rule(1.0), constant_rule(1.0)),
                product_rule(constant_rule(0.0), ties[1])]

    def test_matches_the_branch_maximiser(self):
        for c in self.rules():
            for cap in (1, 2, 5, 16, 40):
                for lo_sum in (2, 3, 4, 9, 17, 31, 2 * cap, 2 * cap + 1, 100):
                    assert (_frontier_sup(c, lo_sum, cap)
                            == window_product_frontier_sup(c, lo_sum, cap)), (c.label, cap, lo_sum)


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

    def test_constant_ratio_axis_has_no_growth(self):
        pts = [(2**t, 0.75) for t in range(1, 10)]
        fit = _fit_axis("row", pts)
        assert fit.correlation == 0.0 and fit.octaves == 8.0 and fit.points == 9
        evidence = [BlockEvidence(m, 0, "row", 0.75 * 2.0, 2.0, ratio, False) for m, ratio in pts]
        rep = _aggregate(evidence)
        assert rep.axis_fits == [fit]
        assert rep.verdict is Verdict.CONSISTENT and rep.c_estimate == 0.75


class TestUnevaluatedBounds:
    """A bound the cap never evaluates is truncated evidence: no scan reads
    consistent from it, and none reads its zero value as a violation."""

    @pytest.mark.parametrize("c", [geometric_double_rule(0.5),
                                   additive_rule(geometric_rule(0.5), geometric_rule(0.5))],
                             ids=["product", "general"])
    def test_windows_and_frontiers_past_the_cap(self, c):
        # block (2, 64): the row window starts at b(2) = 2, inside the cap;
        # the column window would start at b(64) = 64 > 16, after its end,
        # and the mixed frontier M + N >= 66 lies past 2 * 16
        rep = membership_scan(c, 1.0, 1, sup_window(b=lambda l: float(l), cap=16), [(2, 64)])
        got = [(e.axis, e.rhs > 0, e.truncated) for e in rep.per_block]
        assert got == [("row", True, False), ("col", False, True), ("mixed", False, True)]
        assert rep.verdict is Verdict.INCONCLUSIVE

    def test_a_violation_elsewhere_still_reads(self):
        # the truncated rows read nothing, the zero bound against a positive
        # lhs reads violated
        evidence = [BlockEvidence(2, 64, "col", 1.0, 0.0, _ratio(1.0, 0.0), True),
                    BlockEvidence(2, 2, "row", 1.0, 0.0, _ratio(1.0, 0.0), False)]
        assert _aggregate(evidence).verdict is Verdict.VIOLATED
        assert _aggregate(evidence[:1]).verdict is Verdict.INCONCLUSIVE


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

    def test_violations_record_both_exponents(self, monkeypatch):
        rng = np.random.default_rng(21)
        c = table_rule(rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12)))
        blocks, r, p1, p2 = [(1, 2), (3, 3), (4, 2)], 2, 1.0, 2.5
        monkeypatch.setattr(membership, "_leq", lambda a, b: False)
        rep = embedding_check(c, r, p1, p2, blocks)
        assert not rep.ok and rep.checked == 9

        def sides(m, n, p):
            js, ks = np.arange(m, 2 * m), np.arange(n, 2 * n)
            return (p_norm(two_call_row_diff_values(c, js, n, r), p),
                    direct_col_lhs(c, m, n, p, r),
                    p_norm(four_call_mixed_diff_values(c, js[:, None], ks[None, :], r), p))

        assert [(v.m, v.n, v.axis, v.lhs, v.bound) for v in rep.violations] == [
            (m, n, axis, small, big)
            for m, n in blocks
            for axis, small, big in zip(("row", "col", "mixed"), sides(m, n, p2), sides(m, n, p1))]


class TestDivisorEmbedding:
    @pytest.mark.parametrize("r1, r2", [(1, 1), (1, 2), (1, 3), (2, 6), (3, 6)])
    def test_sliced_windows_equal_one_evaluation_per_window(self, r1, r2, monkeypatch):
        """The chain read as slices of one run per axis and one mixed block,
        against one difference evaluation per shifted window, bit for bit.
        Every comparison is made to fail, so that each report lists every
        left-hand side and chain."""
        monkeypatch.setattr(membership, "_leq", lambda lhs, bound: False)
        monkeypatch.setattr(references, "_leq", lambda lhs, bound: False)
        rng = np.random.default_rng(37)
        with_nan = rng.normal(size=(24, 24)) + 1j * rng.normal(size=(24, 24))
        with_nan[5, 9] = np.nan
        rules = [table_rule(rng.normal(size=(24, 24))),
                 table_rule(rng.normal(size=(24, 20)) + 1j * rng.normal(size=(24, 20))),
                 table_rule(with_nan), geometric_double_rule(0.7),
                 dataclasses.replace(geometric_double_rule(0.7), factors=None)]
        blocks = [(1, 1), (2, 2), (4, 4), (8, 8), (2, 8), (8, 2), (3, 5)]
        for c in rules:
            for p in (1.0, 1.7, 3.0):
                got = divisor_embedding_check(c, p, r1, r2, blocks)
                want = per_window_divisor_embedding_check(c, p, r1, r2, blocks)
                assert repr(got) == repr(want), (c.label, p)

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


@pytest.mark.parametrize("call, match", [
    (lambda: BoundSpec(BoundFamily.SUP_WINDOW, lam=0), "sup-window requires lam >= 1"),
    (lambda: max_window(cap=0), "horizon_cap must be in"),
    (lambda: max_window(cap=(1 << 24) + 1), "horizon_cap must be in"),
    (lambda: rhs_row_bound(geometric_double_rule(0.5), 4, 0, mean_value()),
     "fixed index must be >= 1"),
    (lambda: rhs_row_bound(geometric_double_rule(0.5), 1, 4, max_window()),
     "max-window family needs block start >= lam=2"),
    (lambda: rhs_mixed_bound(geometric_double_rule(0.5), 1, 4, mean_value()),
     "mean-value family needs m, n >= lam=2"),
    (lambda: rhs_mixed_bound(geometric_double_rule(0.5), 4, 1, mean_value()),
     "mean-value family needs m, n >= lam=2"),
    (lambda: rhs_mixed_bound(geometric_double_rule(0.5), 1, 4, max_window()),
     "max-window family needs m, n >= lam=2"),
    (lambda: rhs_mixed_bound(geometric_double_rule(0.5), 4, 1, max_window()),
     "max-window family needs m, n >= lam=2"),
    (lambda: rhs_mixed_bound(geometric_double_rule(0.5), 1, 4,
                             BoundSpec(BoundFamily.SUP_WINDOW, lam=2)),
     "sup-window family needs m, n >= lam=2"),
    (lambda: rhs_mixed_bound(geometric_double_rule(0.5), 4, 1,
                             BoundSpec(BoundFamily.SUP_WINDOW, lam=2)),
     "sup-window family needs m, n >= lam=2"),
    (lambda: membership_scan(zero_double_rule(), 1.0, 1, mean_value(), []), "must not be empty"),
    (lambda: membership_scan(zero_double_rule(), 0.0, 1, mean_value(), [(2, 2)]),
     "need p > 0 and r >= 1"),
    (lambda: membership_scan(zero_double_rule(), 1.0, 0, mean_value(), [(2, 2)]),
     "need p > 0 and r >= 1"),
    (lambda: gm_membership_scan(geometric_rule(0.5), 1.0, 1, mean_value(), []),
     "must not be empty"),
    (lambda: gm_membership_scan(geometric_rule(0.5), -1.0, 1, mean_value(), [2]),
     "need p > 0 and r >= 1"),
    (lambda: gm_membership_scan(geometric_rule(0.5), 1.0, 0, mean_value(), [2]),
     "need p > 0 and r >= 1"),
])
def test_library_refusals(call, match):
    with pytest.raises(ValueError, match=match):
        call()


# ---------------------------------------------------------------------------
# the membership verdict against the rule it replaced


def row(m, n, axis, lhs, rhs, truncated):
    return BlockEvidence(m, n, axis, lhs, rhs, _ratio(lhs, rhs), truncated)


_OCTAVE = st.integers(1, 12).map(lambda t: 2**t)
_LHS = st.sampled_from([0.0, ABS_TOL, ABS_TOL / 2, 2 * ABS_TOL]) | st.floats(0.0, 1e3)
_RHS = st.just(0.0) | st.floats(1e-3, 1e3)
_ROWS = st.builds(row, _OCTAVE, _OCTAVE, st.sampled_from(_AXES), _LHS, _RHS, st.booleans())


@st.composite
def power_law_rows(draw):
    """Rows along one axis whose ratios grow like a power of the anchor, so
    that some draws fit a slope over enough octaves to read growth."""
    axis = draw(st.sampled_from(_AXES))
    lo, count = draw(st.integers(1, 4)), draw(st.integers(3, 9))
    slope, noise = draw(st.floats(-0.5, 1.0)), draw(st.floats(0.0, 0.3))
    rows = []
    for t in range(lo, lo + count):
        m, n = {"row": (2**t, 4), "col": (4, 2**t), "mixed": (2**t, 2**t)}[axis]
        ratio = 2.0 ** (slope * t + noise * draw(st.floats(-1.0, 1.0)))
        rows.append(row(m, n, axis, ratio, 1.0, False))
    return rows


@settings(deadline=None, max_examples=500)
@given(st.lists(_ROWS, min_size=1, max_size=12)
       | st.tuples(power_law_rows(), st.lists(_ROWS, max_size=4)).map(lambda t: t[0] + t[1]))
@example([row(2, 2, "row", 1.0, 1.0, True), row(4, 4, "mixed", 0.0, 0.0, True)])  # all truncated
@example([row(2, 2, "row", ABS_TOL, 0.0, False)])  # a zero bound against lhs <= ABS_TOL
@example([row(2, 2, "row", 2 * ABS_TOL, 0.0, False)])  # ... and against a larger lhs
@example([row(2, 2, "col", 1.0, 0.0, True), row(4, 4, "row", 0.5, 2.0, False)])
def test_aggregate_is_the_branch_rule(evidence):
    got, want = _aggregate(evidence), branch_aggregate(evidence)
    assert got.verdict is want.verdict
    assert (got.per_block, got.c_estimate, got.axis_fits) == \
        (want.per_block, want.c_estimate, want.axis_fits)
    assert got.growth_fit == want.growth_fit or (math.isnan(got.growth_fit)
                                                 and math.isnan(want.growth_fit))
