import dataclasses
import math

import numpy as np
import pytest

from dgmlab.convergence import (
    EXACT_GENERAL_CAP,
    ConvergenceVerdict,
    DecayVerdict,
    GridSpec,
    _corner_ladder,
    _general_scan,
    _point_sups,
    classify_decay,
    col_diff_tail_sup,
    col_tail_sup,
    double_partial_sum,
    frontier_samples,
    grid_points,
    jk_decay,
    log_integral_bound,
    loglog_decay,
    mixed_diff_tail,
    rational_point_convergence,
    regular_remainder_sup,
    row_diff_tail_sup,
    row_tail_sup,
    tail_decay_report,
)
from dgmlab.sequences import (
    DoubleSequenceRule,
    additive_rule,
    geometric_double_rule,
    geometric_rule,
    mixed_diff,
    power_double_rule,
    power_rule,
    product_rule,
    row_diff,
    rule_from_values,
    table_rule,
    zero_double_rule,
)

REL = 1e-12


def rel_close(a, b, rel=REL):
    return abs(a - b) <= rel * (1 + max(abs(a), abs(b)))


class TestGrid:
    def test_points_respect_exclusion(self):
        spec = GridSpec(r=3, points_per_band=2, exclusion_radius=1e-4)
        pts = grid_points(spec)
        singular = [0.0, 2 * math.pi / 3]
        for x in pts:
            assert all(abs(x - s) >= 1e-4 * (1 - 1e-9) for s in singular)

    def test_near_singular_points_present(self):
        spec = GridSpec(r=3, points_per_band=2, exclusion_radius=1e-6)
        pts = grid_points(spec)
        target = 2 * math.pi / 3
        assert min(abs(pts - (target - 1e-6))) < 1e-12
        assert min(abs(pts - (target + 1e-6))) < 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            GridSpec(r=0)
        with pytest.raises(ValueError):
            GridSpec(r=1, points_per_band=0)
        with pytest.raises(ValueError):
            GridSpec(r=1, exclusion_radius=2.0)


class TestDoublePartialSum:
    def test_zero_abscissa_is_zero(self):
        c = geometric_double_rule(0.5)
        assert double_partial_sum(c, 1, 10, 1, 10, 0.0, 1.0) == 0
        assert double_partial_sum(c, 1, 10, 1, 10, 1.0, 0.0) == 0

    def test_delta_rule(self):
        arr = np.zeros((2, 3))
        arr[1, 2] = 2.5  # c[2, 3]
        c = table_rule(arr)
        x, y = 0.8, 1.3
        got = double_partial_sum(c, 1, 5, 1, 5, x, y)
        assert rel_close(got, 2.5 * math.sin(2 * x) * math.sin(3 * y))

    def test_separability_oracle(self):
        c = geometric_double_rule(0.5)
        x = y = 1.0
        got = double_partial_sum(c, 1, 30, 1, 30, x, y)
        one = sum(0.5**j * math.sin(j * x) for j in range(1, 31))
        assert rel_close(got, one * one)

    def test_bad_rectangle_rejected(self):
        with pytest.raises(ValueError):
            double_partial_sum(zero_double_rule(), 5, 4, 1, 2, 1.0, 1.0)


def brute_force_sups(c, x, y, thresholds, caps):
    cap_m, cap_n = caps
    js = np.arange(1, cap_m + 1)
    ks = np.arange(1, cap_n + 1)
    table = c.values(js[:, None], ks[None, :]) * np.outer(np.sin(js * x), np.sin(ks * y))
    pref = np.zeros((cap_m + 1, cap_n + 1), dtype=complex)
    pref[1:, 1:] = np.cumsum(np.cumsum(table, axis=0), axis=1)
    out = []
    for t in thresholds:
        best = 0.0
        for m in range(1, cap_m + 1):
            for M in range(m, cap_m + 1):
                for n in range(max(1, t + 1 - m), cap_n + 1):
                    for N in range(n, cap_n + 1):
                        v = abs(pref[M, N] - pref[m - 1, N] - pref[M, n - 1]
                                + pref[m - 1, n - 1])
                        best = max(best, v)
        out.append(best)
    return out


def point_sups(c, x, y, thresholds, caps):
    sups, exact = _point_sups(c, [(x, y)], thresholds, caps)
    return sups[0], exact


def _suffix_max_1d(a):
    return np.maximum.accumulate(a[::-1])[::-1]


def _start_maxima_1d(prefix):
    cap = prefix.size - 1
    smax = _suffix_max_1d(prefix[1:])
    smin = -_suffix_max_1d(-prefix[1:])
    starts = prefix[:cap]
    return np.maximum(smax - starts, starts - smin)


def loop_general_sups(c, x, y, thresholds, caps):
    js = np.arange(1, caps[0] + 1)
    ks = np.arange(1, caps[1] + 1)
    table = (c.values(js[:, None], ks[None, :]).real
             * np.outer(np.sin(js * x), np.sin(ks * y)))
    return loop_general_scan(table, thresholds)


def loop_general_scan(table, thresholds):
    """The general scan as one loop over every (m, M) strip: the reference
    for the exact path's sups and its (smallest m, M, n) tie-breaking."""
    cap_m, cap_n = table.shape
    col_prefix = np.vstack([np.zeros(cap_n), np.cumsum(table, axis=0)])
    best = [(-math.inf, 0, 0, 0)] * len(thresholds)
    for m in range(1, cap_m + 1):
        for M in range(m, cap_m + 1):
            strip = col_prefix[M] - col_prefix[m - 1]
            sw = _suffix_max_1d(_start_maxima_1d(np.concatenate(([0.0], np.cumsum(strip)))))
            for ti, t in enumerate(thresholds):
                a = max(1, t + 1 - m)
                if a > cap_n:
                    continue
                val = float(sw[a - 1])
                if val > best[ti][0]:
                    best[ti] = (val, m, M, a)
    out = []
    for val, m, M, a in best:
        if not math.isfinite(val):
            out.append((0.0, 0, 0))
            continue
        strip = col_prefix[M] - col_prefix[m - 1]
        pw = _start_maxima_1d(np.concatenate(([0.0], np.cumsum(strip))))
        out.append((val, m, a + int(np.argmax(pw[a - 1:]))))
    return out


def full_prefix_sampled_sups(c, x, y, thresholds, caps):
    """The sampled path with the whole complex prefix table: the reference
    for its float shortcut and its ladder-row prefix."""
    cap_m, cap_n = caps
    js = np.arange(1, cap_m + 1)
    ks = np.arange(1, cap_n + 1)
    table = c.values(js[:, None], ks[None, :]) * np.outer(np.sin(js * x), np.sin(ks * y))
    pref = np.zeros((cap_m + 1, cap_n + 1), dtype=complex)
    np.cumsum(np.cumsum(table, axis=0), axis=1, out=pref[1:, 1:])
    lad_m, lad_n = _corner_ladder(cap_m), _corner_ladder(cap_n)
    am, aM = np.array([(m, M) for m in lad_m for M in lad_m if M >= m]).T
    an, aN = np.array([(n, N) for n in lad_n for N in lad_n if N >= n]).T
    rect = np.abs(pref[aM[:, None], aN[None, :]] - pref[am[:, None] - 1, aN[None, :]]
                  - pref[aM[:, None], an[None, :] - 1] + pref[am[:, None] - 1, an[None, :] - 1])
    sums = am[:, None] + an[None, :]
    out = []
    for t in thresholds:
        masked = np.where(sums > t, rect, -np.inf)
        i, j = np.unravel_index(int(np.argmax(masked)), masked.shape)
        out.append((float(masked[i, j]), int(am[i]), int(an[j])))
    return out


class TestPointSups:
    """The profiler's fast paths against exhaustive rectangle enumeration."""

    thresholds = [2, 5, 9]
    caps = (10, 10)

    def test_product_path(self):
        rng = np.random.default_rng(31)
        c = product_rule(rule_from_values(rng.normal(size=12)),
                         rule_from_values(rng.normal(size=12)))
        for x, y in [(0.9, 1.7), (2.2, 0.4)]:
            got, exact = point_sups(c, x, y, self.thresholds, self.caps)
            want = brute_force_sups(c, x, y, self.thresholds, self.caps)
            assert exact
            for (sup, _, _), w in zip(got, want):
                assert rel_close(sup, w)

    def test_general_real_path(self):
        c = additive_rule(geometric_rule(0.6), power_rule(1.5))
        got, exact = point_sups(c, 1.1, 0.8, self.thresholds, self.caps)
        want = brute_force_sups(c, 1.1, 0.8, self.thresholds, self.caps)
        assert exact
        for (sup, _, _), w in zip(got, want):
            assert rel_close(sup, w)

    def test_table_path(self):
        rng = np.random.default_rng(55)
        c = table_rule(rng.normal(size=(8, 9)))
        got, exact = point_sups(c, 0.5, 2.0, self.thresholds, (12, 12))
        want = brute_force_sups(c, 0.5, 2.0, self.thresholds, (12, 12))
        assert exact
        for (sup, _, _), w in zip(got, want):
            assert rel_close(sup, w)

    def test_complex_rule_flags_sampled(self):
        rng = np.random.default_rng(5)
        c = table_rule(rng.normal(size=(300, 300)) + 1j * rng.normal(size=(300, 300)))
        got, exact = point_sups(c, 0.5, 2.0, [4], (280, 280))
        assert not exact
        # sampled sup never exceeds the true sup
        want = brute_force_sups(c, 0.5, 2.0, [4], (30, 30))
        assert got[0][0] >= 0.0

    def test_maximizer_is_reported(self):
        rng = np.random.default_rng(31)
        c = product_rule(rule_from_values(rng.normal(size=12)),
                         rule_from_values(rng.normal(size=12)))
        got, _ = point_sups(c, 0.9, 1.7, [5], self.caps)
        sup, m, n = got[0]
        assert m + n > 5 and sup > 0

    def test_asymmetric_caps(self):
        rng = np.random.default_rng(17)
        c1 = product_rule(rule_from_values(rng.normal(size=14)),
                          rule_from_values(rng.normal(size=10)))
        got, exact = point_sups(c1, 1.3, 0.6, [3, 7], (12, 7))
        want = brute_force_sups(c1, 1.3, 0.6, [3, 7], (12, 7))
        assert exact
        for (sup, _, _), w in zip(got, want):
            assert rel_close(sup, w)
        c2 = additive_rule(geometric_rule(0.7), power_rule(1.2))
        got2, exact2 = point_sups(c2, 0.4, 2.1, [3, 7], (9, 13))
        want2 = brute_force_sups(c2, 0.4, 2.1, [3, 7], (9, 13))
        assert exact2
        for (sup, _, _), w in zip(got2, want2):
            assert rel_close(sup, w)

    def test_general_scan_matches_loop_reference(self):
        """Identical (sup, m, n) triples, ties included, with the table
        evaluated once for all the points."""
        rng = np.random.default_rng(2024)
        sym = rng.normal(size=(9, 9))
        cases = [
            (table_rule(rng.normal(size=(11, 11))), (11, 11), [(0.5, 2.0), (1.3, 0.6)]),
            (table_rule(rng.normal(size=(12, 7))), (12, 7), [(1.3, 0.6), (2.9, 0.1)]),
            (table_rule(rng.normal(size=(6, 13))), (6, 13), [(0.4, 2.1)]),
            (additive_rule(geometric_rule(0.7), power_rule(1.2)), (9, 13), [(0.4, 2.1)]),
            # symmetric table at x == y: transposed rectangles tie
            (table_rule(sym + sym.T), (9, 9), [(0.7, 0.7), (1.9, 1.9)]),
            (table_rule(np.ones((5, 5))), (5, 5), [(1.0, 1.0)]),
        ]
        ts = [1, 2, 5, 9, 12]
        for c, caps, points in cases:
            got, exact = _point_sups(c, points, ts, caps)
            assert exact
            assert got == [loop_general_sups(c, x, y, ts, caps) for x, y in points]

    def test_general_scan_integer_tables_tie_like_the_loop(self):
        """Small integer tables sum exactly, so strips of one m often tie."""
        rng = np.random.default_rng(77)
        ts = [1, 2, 3, 5, 8]
        for shape in [(6, 6), (7, 4), (3, 8)] * 10:
            table = rng.integers(-1, 2, size=shape).astype(float)
            assert _general_scan(table, ts) == loop_general_scan(table, ts)

    def test_general_scan_skips_nan_strips_like_the_loop(self):
        table = np.random.default_rng(4).normal(size=(7, 7))
        table[3, 2] = np.nan
        c = table_rule(table)
        got, _ = point_sups(c, 0.9, 1.4, [1, 4, 8], (7, 7))
        want = loop_general_sups(c, 0.9, 1.4, [1, 4, 8], (7, 7))
        assert np.array_equal(np.array(got), np.array(want), equal_nan=True)

    def test_sampled_float_shortcut_is_exact(self):
        """A real rule past the exact cap gives the same sampled sups and
        maximizers whether or not it is flagged real."""
        rng = np.random.default_rng(12)
        n = EXACT_GENERAL_CAP + 20
        points = [(0.5, 2.0), (2.2, 0.4)]
        ts = [4, 40, 130]
        for real in (table_rule(rng.normal(size=(n, n - 7))),
                     additive_rule(geometric_rule(0.6), power_rule(1.5))):
            caps = (n, n - 7)
            as_complex = dataclasses.replace(real, real=False)
            got, exact = _point_sups(real, points, ts, caps)
            assert not exact
            assert got == _point_sups(as_complex, points, ts, caps)[0]
            assert got == [full_prefix_sampled_sups(real, x, y, ts, caps) for x, y in points]

    def test_sampled_complex_matches_full_prefix(self):
        rng = np.random.default_rng(5)
        c = table_rule(rng.normal(size=(150, 140)) + 1j * rng.normal(size=(150, 140)))
        got, exact = point_sups(c, 0.5, 2.0, [4, 100], (150, 140))
        assert not exact
        assert got == full_prefix_sampled_sups(c, 0.5, 2.0, [4, 100], (150, 140))


class TestRemainderProfile:
    def test_zero_sequence_converging(self):
        prof = regular_remainder_sup(zero_double_rule(), GridSpec(r=1, points_per_band=2),
                                     [4, 8, 16], (32, 32))
        assert prof.verdict is ConvergenceVerdict.CONVERGING
        assert all(e.sup == 0.0 for e in prof.entries)

    def test_geometric_tiny_sup_at_threshold_40(self):
        prof = regular_remainder_sup(geometric_double_rule(0.5),
                                     GridSpec(r=1, points_per_band=3),
                                     [10, 20, 30, 40], (4096, 4096))
        assert prof.verdict is ConvergenceVerdict.CONVERGING
        assert prof.entries[-1].sup < 1e-6
        assert prof.exact

    def test_monotone_jk_decay_implies_converging(self):
        # monotone nonnegative with jk * c_jk -> 0 must profile as converging
        c = power_double_rule(2.0)
        rep = jk_decay(c, [64, 256, 1024])
        assert classify_decay(rep) is DecayVerdict.DECAYING
        prof = regular_remainder_sup(c, GridSpec(r=1, points_per_band=2),
                                     [512, 1024, 2048, 4096], (8192, 8192))
        assert prof.verdict is ConvergenceVerdict.CONVERGING

    def test_entries_sorted_and_caps_recorded(self):
        prof = regular_remainder_sup(geometric_double_rule(0.5),
                                     GridSpec(r=2, points_per_band=1),
                                     [4, 8], (64, 64))
        assert [e.threshold for e in prof.entries] == [4, 8]
        assert prof.caps == (64, 64)

    def test_caps_must_cover_thresholds(self):
        with pytest.raises(ValueError):
            regular_remainder_sup(zero_double_rule(), GridSpec(r=1), [100], (64, 64))

    def test_thresholds_must_increase(self):
        with pytest.raises(ValueError):
            regular_remainder_sup(zero_double_rule(), GridSpec(r=1), [8, 8], (64, 64))


class TestRationalPoint:
    def test_r_one_and_two_trivially_pass(self):
        c = geometric_double_rule(0.5)
        for r in (1, 2):
            prof = rational_point_convergence(c, r, 1, 1, [10], (64, 64))
            assert prof.verdict is ConvergenceVerdict.CONVERGING
            assert prof.trivial

    def test_r3_geometric_converging(self):
        prof = rational_point_convergence(geometric_double_rule(0.5), 3, 1, 1,
                                          [10, 20, 30, 40], (2048, 2048))
        assert prof.verdict is ConvergenceVerdict.CONVERGING

    def test_band_range_validation(self):
        c = geometric_double_rule(0.5)
        with pytest.raises(ValueError):
            rational_point_convergence(c, 4, 2, 1, [10], (64, 64))  # limit is 1
        with pytest.raises(ValueError):
            rational_point_convergence(c, 5, 3, 1, [10], (64, 64))  # limit is 2
        rational_point_convergence(c, 5, 2, 2, [10], (64, 64))


class TestDecayReports:
    def test_fast_decay_closed_form(self):
        rep = jk_decay(power_double_rule(2.0), [16, 64, 256, 1024])
        # values are 1/(jk); the tail max sits on the axis-pinned path (2, n)
        assert classify_decay(rep) is DecayVerdict.DECAYING
        assert all(a >= b for a, b in zip(rep.max_tail, rep.max_tail[1:]))

    def test_constant_values_not_decaying(self):
        rep = jk_decay(power_double_rule(1.0), [16, 64, 256, 1024])
        assert all(rel_close(t, 1.0) for t in rep.max_tail)
        assert classify_decay(rep) is DecayVerdict.NOT_DECAYING

    def test_loglog_unit_values(self):
        c = DoubleSequenceRule(
            eval=lambda m, n: 1.0 / (m * n * math.log(m) * math.log(n))
            if min(m, n) >= 2 else 0.0,
            real=True)
        rep = loglog_decay(c, [16, 256, 2048])
        assert all(rel_close(t, 1.0) for t in rep.max_tail)
        assert classify_decay(rep) is DecayVerdict.NOT_DECAYING

    def test_loglog_squared_logs_decay(self):
        c = DoubleSequenceRule(
            eval=lambda m, n: 1.0 / (m * n * math.log(m + 1) ** 2 * math.log(n + 1) ** 2),
            real=True)
        rep = loglog_decay(c, [16, 256, 4096], horizon=1 << 13)
        assert classify_decay(rep) is DecayVerdict.DECAYING

    def test_values_nonnegative_and_tails_monotone(self):
        rng = np.random.default_rng(4)
        c = table_rule(rng.normal(size=(64, 64)))
        rep = jk_decay(c, [4, 16, 64])
        assert all(s.value >= 0 for s in rep.samples)
        assert all(a >= b for a, b in zip(rep.max_tail, rep.max_tail[1:]))

    def test_frontier_covers_all_mod6_residues_on_diagonal(self):
        diag = {m % 6 for m, n in frontier_samples(1 << 10) if m == n}
        assert diag == set(range(6))

    def test_horizon_must_reach_thresholds(self):
        with pytest.raises(ValueError):
            jk_decay(zero_double_rule(), [10**7], horizon=1 << 10)

    def test_thresholds_checked_before_any_sample(self):
        calls = []

        def fn(m, n):
            calls.append((m, n))
            return 0.0, True

        with pytest.raises(ValueError, match="does not reach"):
            tail_decay_report(fn, [16, 64, 4096], horizon=256)
        with pytest.raises(ValueError, match="strictly increasing"):
            tail_decay_report(fn, [64, 16], horizon=256)
        assert calls == []


class TestTailSups:
    def test_zero_rule(self):
        est = row_tail_sup(zero_double_rule(), 2, 1, 64)
        assert est.value == 0.0

    def test_geometric_matches_loop_oracle(self):
        c = geometric_double_rule(0.5)
        est = row_tail_sup(c, 4, 3, 200)
        want = max(j * math.log(j) * sum(0.5 ** (j + k) for k in range(3, 201))
                   for j in range(4, 201))
        assert rel_close(est.value, want)
        assert est.conclusive and est.residual < 1e-30
        # closed form: inner tail is 2^-j * 2^(1-n); the weight peaks at j=3,
        # so from m=4 on the sup sits at the block start
        assert est.maximizer == 4

    def test_inverse_square_conclusive_and_decaying(self):
        c = power_double_rule(2.0)
        values = [row_tail_sup(c, m, m, 4000).value for m in (8, 32, 128)]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert row_tail_sup(c, 8, 8, 4000).conclusive

    def test_no_envelope_is_inconclusive(self):
        rng = np.random.default_rng(9)
        c = table_rule(rng.normal(size=(32, 32)))
        assert not row_tail_sup(c, 2, 1, 64).conclusive

    def test_col_variant_transposes(self):
        rng = np.random.default_rng(19)
        arr = np.abs(rng.normal(size=(24, 24)))
        c = table_rule(arr)
        ct = table_rule(arr.T)
        a = col_tail_sup(c, 3, 4, 24)
        b = row_tail_sup(ct, 4, 3, 24)
        assert rel_close(a.value, b.value)

    def test_requires_log_positive_start(self):
        with pytest.raises(ValueError):
            row_tail_sup(zero_double_rule(), 1, 1, 64)


class TestDiffTails:
    def test_mixed_zero_for_additive(self):
        c = additive_rule(geometric_rule(0.5), geometric_rule(0.5))
        assert mixed_diff_tail(c, 2.0, 1, 2, 2, 40) <= 1e-12

    def test_mixed_matches_loop_oracle(self):
        c = geometric_double_rule(0.5)
        got = mixed_diff_tail(c, 2.0, 1, 8, 8, 300)
        want = (8 * 8) ** 0.5 * sum(abs(mixed_diff(c, j, k, 1))
                                    for j in range(8, 301) for k in range(8, 301))
        assert rel_close(got, want)

    def test_row_diff_matches_loop_oracle(self):
        c = geometric_double_rule(0.5)
        got = row_diff_tail_sup(c, 2.0, 1, 4, 4, 200)
        want = 4 ** 0.5 * max(
            k * sum(abs(row_diff(c, j, k, 1)) for j in range(4, 201))
            for k in range(4, 201))
        assert rel_close(got, want)

    def test_col_diff_transposed(self):
        rng = np.random.default_rng(29)
        arr = rng.normal(size=(20, 20))
        c, ct = table_rule(arr), table_rule(arr.T)
        assert rel_close(col_diff_tail_sup(c, 1.0, 2, 3, 5, 20),
                         row_diff_tail_sup(ct, 1.0, 2, 5, 3, 20))

    def test_validation(self):
        with pytest.raises(ValueError):
            mixed_diff_tail(zero_double_rule(), 0.5, 1, 1, 1, 10)
        with pytest.raises(ValueError):
            row_diff_tail_sup(zero_double_rule(), 1.0, 0, 1, 1, 10)


class TestLogIntegral:
    def test_degenerate_p_one(self):
        assert log_integral_bound(5, 9, 1.0) == (0.0, 0.0)

    def test_small_case_closed_form(self):
        value, bound = log_integral_bound(1, 4, 2.0)
        assert rel_close(value, math.log(math.log(5) / math.log(3)))
        assert value <= bound == math.log(2.0)

    def test_large_case(self):
        value, bound = log_integral_bound(10, 10**4, 3.0)
        assert value <= bound + 1e-12
        assert rel_close(bound, math.log(3.0))

    def test_exhaustive_grid(self):
        ns = sorted({int(round(10 ** (i / 8))) for i in range(0, 25)})
        for p in (1.0, 1.5, 2.0, 3.0, 10.0):
            for n in ns:
                for N in ns:
                    value, bound = log_integral_bound(n, N, p)
                    assert value <= bound + 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            log_integral_bound(0, 1, 2.0)
        with pytest.raises(ValueError):
            log_integral_bound(1, 1, 0.5)
        with pytest.raises(ValueError):
            log_integral_bound(1, 1, math.nan)
