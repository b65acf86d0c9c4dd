import dataclasses
import functools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dgmlab import convergence, decay
from dgmlab.convergence import (
    CORNER_TABLE_CAP,
    EXACT_GENERAL_CAP,
    GRID_ABSCISSA_LIMIT,
    ConvergenceVerdict,
    GridSpec,
    _corner_ladder,
    _general_scan,
    _point_sups,
    _point_sups_product,
    _convergence_verdict,
    _start_maxima,
    _suffix_ranges,
    grid_points,
    grid_size_bound,
    rational_point_convergence,
    regular_remainder_sup,
)
from dgmlab.counterexample import double_rule
from dgmlab.decay import (
    DECAY_CONDITIONS,
    TAIL_HORIZON_LIMIT,
    DecayReport,
    DecayVerdict,
    classify_decay,
    decay_report,
    frontier_samples,
    log_integral_bound,
    mixed_diff_tails,
    row_diff_tail_sups,
    row_tail_sups,
)
from dgmlab.sequences import (
    DoubleSequenceRule,
    mixed_diff_values,
    row_diff_values,
    additive_rule,
    frontier_product_max,
    geometric_double_rule,
    geometric_rule,
    power_double_rule,
    power_rule,
    product_rule,
    rule_from_values,
    table_rule,
    transpose_rule,
)
from references import (
    assert_bits_equal,
    branch_classify_decay,
    branch_convergence_verdict,
    decay_dispatch,
    double_partial_sum,
    loop_mixed_diff_tail,
    loop_row_diff_tail,
    loop_row_tail,
    pair_term_sampled_sups,
    per_anchor_product_mixed_diff_tails,
    per_anchor_product_row_diff_tails,
    per_anchor_product_row_tails,
    per_anchor_row_tail_residuals,
    per_pair_product_sups,
    per_point_general_sups,
    per_point_sampled_sups,
    profile_product_max,
    scalar_eval,
    suffix_start_maxima,
    window_product_max,
    zero_double_rule,
)

REL = 1e-12


def rel_close(a, b, rel=REL):
    return abs(a - b) <= rel * (1 + max(abs(a), abs(b)))


def all_close(got, want, rel=REL):
    """Elementwise agreement to a relative ``rel``, with no absolute slack."""
    return len(got) == len(want) and all(
        math.isclose(a, b, rel_tol=rel, abs_tol=0.0) for a, b in zip(got, want))


# pointwise oracles: the difference operators from scalar evaluations ``ev(j, k)``


def row_diff(ev, j, k, r):
    return ev(j, k) - ev(j + r, k)


def mixed_diff(ev, j, k, r):
    return ev(j, k) - ev(j + r, k) - ev(j, k + r) + ev(j + r, k + r)


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
    for its float shortcut and its ladder-row prefix.  The prefix along j of
    c_jk sin(jx), times sin(ky), then the prefix along k."""
    cap_m, cap_n = caps
    js = np.arange(1, cap_m + 1)
    ks = np.arange(1, cap_n + 1)
    table = c.values(js[:, None], ks[None, :]) * np.sin(js * x)[:, None]
    pref = np.zeros((cap_m + 1, cap_n + 1), dtype=complex)
    np.cumsum(np.cumsum(table, axis=0) * np.sin(ks * y), axis=1, out=pref[1:, 1:])
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
            assert _general_scan(table[None], ts) == [loop_general_scan(table, ts)]

    def test_general_scan_skips_nan_strips_like_the_loop(self):
        table = np.random.default_rng(4).normal(size=(7, 7))
        table[3, 2] = np.nan
        c = table_rule(table)
        got, _ = point_sups(c, 0.9, 1.4, [1, 4, 8], (7, 7))
        want = loop_general_sups(c, 0.9, 1.4, [1, 4, 8], (7, 7))
        assert np.array_equal(np.array(got), np.array(want), equal_nan=True)

    def test_suffix_ranges_are_the_suffix_start_maxima(self):
        """The range of each suffix equals the widest strip sum from each
        start on, bit for bit but for the sign of a zero, which the range
        always reads as +0: on random, tied, integer-valued, signed-zero
        and NaN-holding rows, and the prefix rows the general scan builds
        (+0 first, then prefix sums)."""
        rng = np.random.default_rng(26)

        def prefix(strips):
            h = np.zeros(strips.shape[:-1] + (strips.shape[-1] + 1,))
            np.cumsum(strips, axis=-1, out=h[..., 1:])
            return h

        zeros = np.where(rng.integers(0, 2, size=(8, 5)) == 1, 0.0, -0.0)
        rows = [rng.normal(size=(3, 5, 17)),
                prefix(rng.normal(size=(3, 5, 16))),
                prefix(rng.integers(-1, 2, size=(4, 9)).astype(float)),
                prefix(rng.integers(-3, 4, size=(6, 12)).astype(float)),
                np.repeat(rng.normal(size=(2, 1)), 7, axis=1),
                zeros, prefix(zeros)]
        for nan_at in ((0, 0), (2, 5), (4, 11), (1, 3)):
            h = prefix(rng.normal(size=(5, 11)))
            h[nan_at] = np.nan
            rows.append(h)
        for h in rows:
            with np.errstate(invalid="ignore"):
                want = suffix_start_maxima(h)
            assert_bits_equal(_suffix_ranges(h), np.where(want == 0, 0.0, want))
        # the start maxima of signed zeros read -0 in places
        assert np.signbit(suffix_start_maxima(prefix(zeros))).any()

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

    def test_product_path_needs_real_factors(self):
        """A real rule whose factors do not declare real takes the paths of
        the same rule without its product hint."""
        rng = np.random.default_rng(19)
        u = rule_from_values(rng.normal(size=40) + 0j)
        v = rule_from_values(rng.normal(size=30) + 0j)
        hinted = DoubleSequenceRule(lambda js, ks: u.values(js) * v.values(ks),
                                    factors=(u, v), real=True)
        plain = dataclasses.replace(hinted, factors=None)
        points = [(0.5, 2.0), (2.2, 0.4)]
        for caps in ((30, 20), (EXACT_GENERAL_CAP + 10, 40)):
            assert (_point_sups(hinted, points, [4, 20], caps)
                    == _point_sups(plain, points, [4, 20], caps))

    def test_sampled_complex_matches_full_prefix(self):
        rng = np.random.default_rng(5)
        c = table_rule(rng.normal(size=(150, 140)) + 1j * rng.normal(size=(150, 140)))
        got, exact = point_sups(c, 0.5, 2.0, [4, 100], (150, 140))
        assert not exact
        assert got == full_prefix_sampled_sups(c, 0.5, 2.0, [4, 100], (150, 140))


def scan_point_sups_product(c, points, thresholds, caps):
    """``_point_sups_product`` with its own maximiser."""
    u, v = c.factors
    ms, ns = np.arange(1, caps[0] + 1), np.arange(1, caps[1] + 1)
    u_vals, v_vals = u.values(ms).real, v.values(ns).real
    out = []
    for x, y in points:
        pu = _start_maxima(np.concatenate(([0.0], np.cumsum(u_vals * np.sin(ms * x)))))
        pv = _start_maxima(np.concatenate(([0.0], np.cumsum(v_vals * np.sin(ns * y)))))
        out.append(profile_product_max(pu, pv, thresholds))
    return out


class TestFrontierProductMax:
    """One maximiser for the product remainder path and the frontier bound,
    against the two it replaced, maximiser indices included."""

    @staticmethod
    def pairs():
        rng = np.random.default_rng(59)
        for _ in range(40):
            size_a, size_b = rng.integers(1, 12, size=2)
            # small integers: products tie often
            yield (rng.integers(0, 4, size=size_a).astype(float),
                   rng.integers(0, 4, size=size_b).astype(float))
        yield rng.uniform(size=9), rng.uniform(size=9)
        yield np.zeros(5), np.ones(5)

    def test_matches_the_profile_maximiser(self):
        for a, b in self.pairs():
            ts = list(range(0, a.size + b.size + 2))
            got = [e if math.isfinite(e[0]) else (0.0, 0, 0)
                   for e in frontier_product_max(a, b, [t + 1 for t in ts])]
            assert got == profile_product_max(a, b, ts), (a, b)

    def test_matches_the_window_maximiser(self):
        for a, b in self.pairs():
            b = np.resize(b, a.size)  # the frontier bound's square
            for s in range(0, 2 * a.size + 3):
                [(value, i, j)] = frontier_product_max(a, b, [s])
                want = window_product_max(a, b, s)
                assert (None if i == 0 else (value, i, j)) == want, (a, b, s)

    def test_out_of_reach(self):
        assert frontier_product_max(np.ones(3), np.ones(4), [8, 7]) == [(-math.inf, 0, 0),
                                                                      (1.0, 3, 4)]

    def test_product_path_matches_its_own_maximiser(self):
        rng = np.random.default_rng(61)
        ties = [rule_from_values(rng.integers(-2, 3, size=n).astype(float)) for n in (9, 14)]
        rules = [geometric_double_rule(0.5), power_double_rule(1.0),
                 product_rule(ties[0], ties[1]), product_rule(ties[1], ties[0])]
        points = [(0.9, 1.7), (2.0943951023931953, 2.0943951023931953), (3.0, 0.2)]
        for c in rules:
            for caps, ts in [((16, 16), [1, 4, 9, 20]), ((12, 7), [2, 5, 18])]:
                assert (_point_sups_product(c, points, ts, caps)
                        == scan_point_sups_product(c, points, ts, caps)), c.label


def _pairs(xs):
    return [(float(x), float(y)) for x in xs for y in xs]


POINTS_1 = [(0.5, 2.0)]
POINTS_49 = _pairs(grid_points(GridSpec(r=3, points_per_band=2)))
POINTS_81 = _pairs(np.linspace(0.3, 3.1, 9))
# repeated and unsorted pairs: the product path shares one abscissa's maxima
POINTS_MIXED = [(2.0, 0.5), (0.5, 2.0), (2.0, 0.5), (0.3, 0.3), (2.0, 0.3), (0.5, 0.5)]


def _constants(monkeypatch, value, width):
    """Patch the batch budget: 1 makes every batch one row, point or
    abscissa; 7 makes it 7 items of width entries, width being one item of
    the widest case: one point's corner prefix sums (27 x 27 at the sampled
    caps near 140) or point table (20 x 18), or one clipped row
    (CORNER_TABLE_CAP, which gives the product path 7 * 2048 // caps[1]
    abscissas a batch); None keeps the default."""
    if value is not None:
        monkeypatch.setattr(convergence, "_BATCH_ENTRIES", 1 if value == 1 else value * width)


class TestBatchedRemainderPaths:
    """The batched paths against the per-point ones they replaced, bit for bit,
    whatever the row-block and point-batch sizes."""

    @staticmethod
    def sampled_cases():
        rng = np.random.default_rng(808)
        nan = rng.normal(size=(140, 140))
        nan[37, 90] = np.nan
        cplx_nan = rng.normal(size=(135, 131)) + 1j * rng.normal(size=(135, 131))
        cplx_nan[3, 7] = complex(np.nan, 0.0)
        return [
            ("real", table_rule(rng.normal(size=(150, 140))), (150, 140), POINTS_49),
            ("complex", table_rule(rng.normal(size=(140, 130)) + 1j * rng.normal(size=(140, 130))),
             (140, 130), POINTS_81),
            ("ones", table_rule(np.ones((136, 136))), (136, 136), POINTS_49),
            ("integers", table_rule(rng.integers(-2, 3, size=(140, 150)).astype(float)),
             (140, 150), POINTS_81),
            ("nan", table_rule(nan), (140, 140), POINTS_49),
            ("complex-nan", table_rule(cplx_nan), (135, 131), POINTS_1),
            ("rule", additive_rule(geometric_rule(0.6), power_rule(1.5)), (300, 129), POINTS_1),
        ]

    @staticmethod
    def general_cases():
        rng = np.random.default_rng(909)
        nan = rng.normal(size=(10, 10))
        nan[3, 2] = np.nan
        return [
            ("real", table_rule(rng.normal(size=(20, 18))), (20, 18), POINTS_49),
            ("ones", table_rule(np.ones((12, 12))), (12, 12), POINTS_81),
            ("integers", table_rule(rng.integers(-1, 2, size=(15, 15)).astype(float)),
             (15, 15), POINTS_49),
            ("nan", table_rule(nan), (10, 10), POINTS_81),
            ("rule", additive_rule(geometric_rule(0.7), power_rule(1.2)),
             (EXACT_GENERAL_CAP, 40), POINTS_1 + POINTS_81[::10]),
        ]

    @staticmethod
    def product_cases():
        rng = np.random.default_rng(61)
        ties = [rule_from_values(rng.integers(-2, 3, size=n).astype(float)) for n in (9, 14)]
        return [
            ("geometric", geometric_double_rule(0.5), (4096, 4096), POINTS_49),
            ("power", power_double_rule(1.0), (3000, 5000), POINTS_MIXED),
            ("ties", product_rule(ties[0], ties[1]), (16, 16), POINTS_81 + POINTS_MIXED),
            ("proposition", double_rule(2.0), (512, 512), POINTS_1),
        ]

    @classmethod
    @functools.cache
    def expected(cls, kind):
        """The thresholds and, per case, the reference path's sups."""
        ts, ref = {"sampled": ([1, 4, 40, 130], per_point_sampled_sups),
                   "general": ([1, 2, 5, 9, 30], per_point_general_sups),
                   "product": ([1, 4, 9, 20], per_pair_product_sups)}[kind]
        return ts, [(name, c, caps, points, ref(c, points, ts, caps))
                    for name, c, caps, points in getattr(cls, kind + "_cases")()]

    @pytest.mark.parametrize("value", [1, 7, None], ids=["1", "7", "default"])
    def test_sampled_path(self, monkeypatch, value):
        ts, cases = self.expected("sampled")
        _constants(monkeypatch, value, 27 * 27)
        for name, c, caps, points, want in cases:
            got, exact = _point_sups(c, points, ts, caps)
            assert not exact, name
            assert got == want, name

    def test_sampled_path_against_the_full_prefix(self):
        # the reference knows no NaN rule: a NaN entry is left to the per-point path
        ts = [1, 4, 40, 130]
        for name, c, caps, points in self.sampled_cases():
            if "nan" not in name:
                got, _ = _point_sups(c, points[:2], ts, caps)
                assert got == [full_prefix_sampled_sups(c, x, y, ts, caps)
                               for x, y in points[:2]], name

    def test_sampled_path_near_the_pair_terms(self):
        """Summing (sum_j c_jk sin(jx)) sin(ky) in place of the pair terms
        c_jk (sin(jx) sin(ky)) moves a sup in its last bits: to a relative
        1e-12, with the same verdict over the points.  A NaN rule reads
        (0.0, 0, 0) on both sides and is left to the tests above."""
        ts, cases = self.expected("sampled")
        for name, c, caps, points, want in cases:
            if "nan" in name:
                continue
            old = pair_term_sampled_sups(c, points, ts, caps)
            got = [[sup for sup, _, _ in row] for row in want]
            ref = [[sup for sup, _, _ in row] for row in old]
            assert all(all_close(g, r) for g, r in zip(got, ref)), name
            assert (_convergence_verdict(np.max(got, axis=0).tolist(), False)
                    is _convergence_verdict(np.max(ref, axis=0).tolist(), False)), name

    @pytest.mark.parametrize("value", [1, 7, None], ids=["1", "7", "default"])
    def test_sampled_path_past_the_table_cap(self, monkeypatch, value):
        # both axes are clipped to CORNER_TABLE_CAP
        c = additive_rule(geometric_rule(0.5), power_rule(1.5))
        caps = (CORNER_TABLE_CAP + 52, CORNER_TABLE_CAP + 3)
        points = POINTS_81[::40]
        ts = [8, 40, 2090]
        want = per_point_sampled_sups(c, points, ts, caps)
        _constants(monkeypatch, value, CORNER_TABLE_CAP)
        assert _point_sups(c, points, ts, caps) == (want, False)

    @pytest.mark.parametrize("value", [1, 7, None], ids=["1", "7", "default"])
    def test_general_path(self, monkeypatch, value):
        ts, cases = self.expected("general")
        _constants(monkeypatch, value, 20 * 18)
        for name, c, caps, points, want in cases:
            got, exact = _point_sups(c, points, ts, caps)
            assert exact, name
            assert np.array_equal(np.array(got), np.array(want), equal_nan=True), name
            if max(caps) <= 20:
                loop = [loop_general_sups(c, x, y, ts, caps) for x, y in points]
                assert np.array_equal(np.array(got), np.array(loop), equal_nan=True), name

    @pytest.mark.parametrize("value", [1, 7, None], ids=["1", "7", "default"])
    def test_product_path(self, monkeypatch, value):
        ts, cases = self.expected("product")
        _constants(monkeypatch, value, CORNER_TABLE_CAP)
        for name, c, caps, points, want in cases:
            assert _point_sups(c, points, ts, caps) == (want, True), name

    def test_product_path_computes_each_abscissa_once(self, monkeypatch):
        calls = []

        def start_maxima(prefix):
            calls.append(prefix.size)
            return _start_maxima(prefix)

        monkeypatch.setattr(convergence, "_start_maxima", start_maxima)
        c = geometric_double_rule(0.5)
        _point_sups(c, POINTS_49, [8, 16], (64, 48))
        xs = {x for x, _ in POINTS_49}
        assert sorted(calls) == sorted([65] * len(xs) + [49] * len(xs))

    @pytest.mark.parametrize("points, batches", [(POINTS_49, 1), (POINTS_81, 2)])
    def test_sampled_path_streams(self, monkeypatch, points, batches):
        """Each rule evaluation is one row block; a batch of points
        evaluates the rule once."""
        sizes = []
        values = DoubleSequenceRule.values

        def counted_values(rule, *idx):
            out = values(rule, *idx)
            sizes.append(out.size)
            return out

        monkeypatch.setattr(DoubleSequenceRule, "values", counted_values)
        cap_m, cap_n = 300, 200
        # 64 points a batch: one point's corner prefix sums hold 31 x 29
        # entries at these caps, more than either cap
        budget = 64 * 31 * 29
        monkeypatch.setattr(convergence, "_BATCH_ENTRIES", budget)
        c = additive_rule(geometric_rule(0.6), power_rule(1.5))
        _point_sups(c, points, [8, 40], (cap_m, cap_n))
        assert -(-len(points) // 64) == batches
        assert max(sizes) <= budget
        assert sum(sizes) == batches * cap_m * cap_n

    def test_sampled_path_holds_no_full_table(self):
        # one float64 table over the caps would take 33.5 MB
        c = additive_rule(geometric_rule(0.6), power_rule(1.5))
        caps = (CORNER_TABLE_CAP, CORNER_TABLE_CAP)
        tracemalloc.start()
        try:
            _point_sups(c, POINTS_49[:7], [8, 40], caps)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < caps[0] * caps[1] * 8 / 4, peak

    @pytest.mark.parametrize("caps, fixed_peak", [((CORNER_TABLE_CAP, 16), 5_053_091),
                                                  ((16, CORNER_TABLE_CAP), 6_573_564)])
    def test_sampled_path_on_one_long_axis(self, caps, fixed_peak):
        # fixed_peak: measured on these calls with fixed batches of 64 rows
        # and 64 points; a batch holds B // max(caps) points, so a short
        # axis grows neither sine stack (B // cap_n points read 9.7 MB at
        # caps (2048, 16), under twice the fixed peak)
        c = additive_rule(geometric_rule(0.6), power_rule(1.5))
        points = _pairs(np.linspace(0.3, 3.1, 16))
        tracemalloc.start()
        try:
            _point_sups(c, points, [4, 12], caps)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * fixed_peak, peak

    @pytest.mark.parametrize("cap", [64, 130])
    def test_sampled_path_at_middle_caps(self, cap):
        # a batch holds B // (corner rows x corner columns) points at these
        # caps, so its corner prefix sums take at most B complex entries,
        # 2.1 MB, and its sine stacks and running sums, cap x points entries
        # each, less; these calls read 4.3 MB and 5.3 MB, against 12.5 MB and
        # 22.1 MB with batches of B // cap points (1008 or more) and 1.9 MB
        # and 3.1 MB with fixed batches of 64 points
        rng = np.random.default_rng(130)
        c = table_rule(rng.normal(size=(cap, cap)) + 1j * rng.normal(size=(cap, cap)))
        points = _pairs(np.linspace(0.3, 3.1, 32))
        tracemalloc.start()
        try:
            _point_sups(c, points, [4, 12], (cap, cap))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 16 * convergence._BATCH_ENTRIES, peak


class TestGridLimit:
    def test_the_bound_bounds_every_accepted_grid(self):
        for r in range(1, 45):
            for points in range(1, GRID_ABSCISSA_LIMIT // (r // 2 + 1) - 1):
                assert grid_size_bound(r, points) <= GRID_ABSCISSA_LIMIT
                assert grid_points(GridSpec(r, points)).size <= grid_size_bound(r, points)

    def test_over_the_limit_is_refused_before_any_grid(self, monkeypatch):
        monkeypatch.setattr(convergence, "GRID_ABSCISSA_LIMIT", 8)
        GridSpec(r=3, points_per_band=2)  # at most 8 abscissas
        for r, points in [(3, 3), (4, 2), (16, 1), (10**18, 1), (1, 10**18)]:
            with pytest.raises(ValueError, match="more than 8 abscissas"):
                GridSpec(r=r, points_per_band=points)
        monkeypatch.setattr(convergence, "_point_sups", None)
        with pytest.raises(ValueError, match="more than 8 grid abscissas"):
            regular_remainder_sup(zero_double_rule(), np.linspace(0.1, 3.0, 9), [4], (64, 64))


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
        rep = decay_report(c, "jk", [64, 256, 1024], 1 << 14)
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

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_thresholds_and_caps_are_checked_at_every_step(self, r):
        c = geometric_double_rule(0.5)
        with pytest.raises(ValueError, match="strictly increasing"):
            rational_point_convergence(c, r, 1, 1, [5, 3], (64, 64))
        with pytest.raises(ValueError, match="at least the largest threshold"):
            rational_point_convergence(c, r, 1, 1, [100], (50, 50))
        with pytest.raises(ValueError, match="caps must be in"):
            rational_point_convergence(c, r, 1, 1, [10], (0, 64))


class TestDecayReports:
    def test_fast_decay_closed_form(self):
        rep = decay_report(power_double_rule(2.0), "jk", [16, 64, 256, 1024], 1 << 14)
        # values are 1/(jk); the tail max sits on the axis-pinned path (2, n)
        assert classify_decay(rep) is DecayVerdict.DECAYING
        assert all(a >= b for a, b in zip(rep.max_tail, rep.max_tail[1:]))

    def test_constant_values_not_decaying(self):
        rep = decay_report(power_double_rule(1.0), "jk", [16, 64, 256, 1024], 1 << 14)
        assert all(rel_close(t, 1.0) for t in rep.max_tail)
        assert classify_decay(rep) is DecayVerdict.NOT_DECAYING

    def test_loglog_unit_values(self):
        c = DoubleSequenceRule(np.vectorize(
            lambda m, n: 1.0 / (m * n * math.log(m) * math.log(n))
            if min(m, n) >= 2 else 0.0, otypes=[complex]),
            real=True)
        rep = decay_report(c, "loglog", [16, 256, 2048], 1 << 14)
        assert all(rel_close(t, 1.0) for t in rep.max_tail)
        assert classify_decay(rep) is DecayVerdict.NOT_DECAYING

    def test_loglog_squared_logs_decay(self):
        c = DoubleSequenceRule(np.vectorize(
            lambda m, n: 1.0 / (m * n * math.log(m + 1) ** 2 * math.log(n + 1) ** 2),
            otypes=[complex]),
            real=True)
        rep = decay_report(c, "loglog", [16, 256, 4096], horizon=1 << 13)
        assert classify_decay(rep) is DecayVerdict.DECAYING

    def test_values_nonnegative_and_tails_monotone(self):
        rng = np.random.default_rng(4)
        c = table_rule(rng.normal(size=(64, 64)))
        rep = decay_report(c, "jk", [4, 16, 64], 1 << 14)
        assert all(s.value >= 0 for s in rep.samples)
        assert all(a >= b for a, b in zip(rep.max_tail, rep.max_tail[1:]))

    def test_frontier_covers_all_mod6_residues_on_diagonal(self):
        diag = {m % 6 for m, n in frontier_samples(1 << 10) if m == n}
        assert diag == set(range(6))

    def test_horizon_must_reach_thresholds(self):
        with pytest.raises(ValueError):
            decay_report(zero_double_rule(), "jk", [10**7], horizon=1 << 10)

    @pytest.mark.parametrize("thresholds, horizon", [([0, 16], 64), ([-8, 0], 64),
                                                     ([-3, 0], 1), ([-3], 1)])
    def test_thresholds_must_be_positive(self, thresholds, horizon):
        # as the remainder profiler's; at horizon 1 no anchor exists to reach them
        with pytest.raises(ValueError, match="strictly increasing positive"):
            decay_report(geometric_double_rule(0.5), "jk", thresholds, horizon)

    def test_thresholds_checked_before_any_sample(self, monkeypatch):
        calls = []
        for name in ("row_tail_sups", "row_diff_tail_sups", "mixed_diff_tails"):
            def record(*args, name=name, reducer=getattr(decay, name)):
                calls.append(name)
                return reducer(*args)
            monkeypatch.setattr(decay, name, record)
        c, count = counted(dataclasses.replace(geometric_double_rule(0.5), factors=None))
        for condition in DECAY_CONDITIONS:
            with pytest.raises(ValueError, match="does not reach"):
                decay_report(c, condition, [16, 64, 4096], horizon=256)
            with pytest.raises(ValueError, match="strictly increasing"):
                decay_report(c, condition, [64, 16], horizon=256)
        assert calls == [] and count == [0]
        for condition in DECAY_CONDITIONS:
            decay_report(c, condition, [16, 64], horizon=256)
        assert calls == ["row_tail_sups", "row_tail_sups", "mixed_diff_tails",
                         "row_diff_tail_sups", "row_diff_tail_sups"]
        assert count[0] > 0

    def test_unknown_condition(self):
        with pytest.raises(ValueError, match="unknown decay condition"):
            decay_report(geometric_double_rule(0.5), "bogus", [16, 64], horizon=256)

    @pytest.mark.parametrize("horizon, thresholds", [(256, [8, 32, 128, 256]),
                                                     (2048, [16, 64, 256, 1024, 4096])])
    @pytest.mark.parametrize("condition", DECAY_CONDITIONS)
    def test_equals_the_replaced_reports(self, condition, horizon, thresholds):
        rng = np.random.default_rng(43)
        rules = [
            geometric_double_rule(0.5),
            power_double_rule(2.0),
            double_rule(2.0),
            additive_rule(geometric_rule(0.5), geometric_rule(0.5), "separable"),
            # taller than the smaller horizon, inside the larger one
            table_rule(rng.normal(size=(300, 200)), "real"),
            table_rule(rng.normal(size=(40, 30)) + 1j * rng.normal(size=(40, 30)), "complex"),
        ]
        for c in rules:
            got = decay_report(c, condition, thresholds, horizon, p=1.5, r=2)
            want = decay_dispatch(c, condition, thresholds, horizon, p=1.5, r=2)
            for field in dataclasses.fields(DecayReport):
                a, b = getattr(got, field.name), getattr(want, field.name)
                if field.name == "trend_fit" and math.isnan(b):
                    assert math.isnan(a), c.label
                else:
                    assert a == b, (c.label, field.name)

    @pytest.mark.parametrize("tails", [[7808.0, 7808.0, 0.0], [0.0, 0.0, 0.0], [3.0, 1.0, 0.0]])
    def test_zero_last_tail_needs_a_conclusive_report(self, tails):
        for trend in (math.nan, -50.0):
            rep = DecayReport([], [16, 64, 256], tails, trend, conclusive=False)
            assert classify_decay(rep) is DecayVerdict.INCONCLUSIVE
            rep = dataclasses.replace(rep, conclusive=True)
            assert classify_decay(rep) is DecayVerdict.DECAYING


# one-anchor calls of the batched tails


def row_tail(c, m, n, horizon):
    return row_tail_sups(c, [(m, n)], horizon)[0]


def mixed_diff_tail(c, p, r, m, n, horizon):
    return mixed_diff_tails(c, p, r, [(m, n)], horizon)[0]


def row_diff_tail(c, p, r, m, n, horizon):
    return row_diff_tail_sups(c, p, r, [(m, n)], horizon)[0]


class TestTailSups:
    def test_zero_rule(self):
        est = row_tail(zero_double_rule(), 2, 1, 64)
        assert est.value == 0.0

    def test_geometric_matches_loop_oracle(self):
        c = geometric_double_rule(0.5)
        est = row_tail(c, 4, 3, 200)
        want = max(j * math.log(j) * sum(0.5 ** (j + k) for k in range(3, 201))
                   for j in range(4, 201))
        assert rel_close(est.value, want)
        assert math.isfinite(est.hi) and est.residual < 1e-30
        # closed form: inner tail is 2^-j * 2^(1-n); the weight peaks at j=3,
        # so from m=4 on the sup sits at the block start
        assert rel_close(est.value, 4 * math.log(4) * sum(0.5 ** (4 + k) for k in range(3, 201)))

    def test_inverse_square_conclusive_and_decaying(self):
        c = power_double_rule(2.0)
        values = [row_tail(c, m, m, 4000).value for m in (8, 32, 128)]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert math.isfinite(row_tail(c, 8, 8, 4000).hi)

    def test_no_envelope_is_inconclusive(self):
        # the support reaches past the horizon on one axis: the tail is truncated
        rng = np.random.default_rng(9)
        for shape in ((32, 80), (80, 32)):
            c = table_rule(rng.normal(size=shape))
            assert not math.isfinite(row_tail(c, 2, 1, 64).hi)

    def test_support_inside_the_horizon_is_exact(self):
        # every row and column past the support is zero: nothing is truncated
        rng = np.random.default_rng(9)
        for shape, horizon in (((32, 32), 64), ((24, 70), 128), ((64, 64), 64)):
            est = row_tail(table_rule(rng.normal(size=shape)), 2, 1, horizon)
            assert math.isfinite(est.hi) and est.residual == 0.0

    def test_col_variant_transposes(self):
        rng = np.random.default_rng(19)
        arr = np.abs(rng.normal(size=(24, 24)))
        c = table_rule(arr)
        ct = table_rule(arr.T)
        a = row_tail(transpose_rule(c), 4, 3, 24)
        b = row_tail(ct, 4, 3, 24)
        assert rel_close(a.value, b.value)

    def test_requires_log_positive_start(self):
        with pytest.raises(ValueError):
            row_tail(zero_double_rule(), 1, 1, 64)


class TestProductTailPaths:
    """The factorised tail scans against the same rule without its hint."""

    @staticmethod
    def pair(imag):
        rng = np.random.default_rng(15)
        u = rule_from_values(rng.normal(size=50) + imag * 1j * rng.normal(size=50))
        v = rule_from_values(rng.normal(size=50) + imag * 1j * rng.normal(size=50))
        fast = product_rule(u, v)
        return fast, dataclasses.replace(fast, factors=None)

    @pytest.mark.parametrize("imag", [0.0, 1.0])
    def test_row_tail_sup(self, imag):
        fast, slow = self.pair(imag)
        for m, n, horizon in [(2, 1, 60), (5, 9, 40), (12, 3, 300)]:
            a = row_tail(fast, m, n, horizon)
            b = row_tail(slow, m, n, horizon)
            assert rel_close(a.value, b.value)
            assert a.residual == b.residual

    @pytest.mark.parametrize("imag", [0.0, 1.0])
    def test_mixed_diff_tail(self, imag):
        fast, slow = self.pair(imag)
        for p, r, m, n, horizon in [(1.0, 1, 1, 1, 60), (2.0, 3, 4, 7, 80), (1.5, 2, 9, 2, 300)]:
            assert rel_close(mixed_diff_tail(fast, p, r, m, n, horizon),
                             mixed_diff_tail(slow, p, r, m, n, horizon))

    @pytest.mark.parametrize("imag", [0.0, 1.0])
    def test_row_diff_tail_sup(self, imag):
        fast, slow = self.pair(imag)
        for p, r, m, n, horizon in [(1.0, 1, 1, 1, 60), (2.0, 3, 4, 7, 80), (1.5, 2, 9, 2, 300)]:
            assert rel_close(row_diff_tail(fast, p, r, m, n, horizon),
                             row_diff_tail(slow, p, r, m, n, horizon))


class TestProductTailSuffixes:
    """A product rule's tails, read as suffix slices of factor arrays taken
    once, against the per-anchor loops they replaced, bit for bit."""

    HORIZONS = [2, 3, 7, 256, 257, 2048]

    @staticmethod
    def rules():
        rng = np.random.default_rng(33)
        a = rng.normal(size=300)
        a[40] = math.nan
        rules = [
            geometric_double_rule(0.5),
            power_double_rule(2.0),
            power_double_rule(1.5),  # the envelope weight decreases from H = 7 on
            power_double_rule(1.0),  # ... and never
            double_rule(2.0),
            product_rule(rule_from_values(a), rule_from_values(rng.normal(size=200))),
        ]
        return rules + [transpose_rule(c) for c in rules]

    @pytest.mark.parametrize("horizon", HORIZONS)
    def test_row_tails_and_residuals(self, horizon):
        anchors = frontier_samples(horizon)
        for c in self.rules():
            got = row_tail_sups(c, anchors, horizon)
            assert_bits_equal([e.value for e in got],
                              per_anchor_product_row_tails(c, anchors, horizon))
            assert_bits_equal([e.residual for e in got],
                              per_anchor_row_tail_residuals(c, anchors, horizon))

    @pytest.mark.parametrize("horizon", HORIZONS)
    @pytest.mark.parametrize("r", [1, 2, 5])
    @pytest.mark.parametrize("p", [1.0, 1.5])
    def test_diff_tails(self, horizon, r, p):
        anchors = frontier_samples(horizon)
        for c in self.rules():
            assert_bits_equal(mixed_diff_tails(c, p, r, anchors, horizon),
                              per_anchor_product_mixed_diff_tails(c, p, r, anchors, horizon))
            assert_bits_equal(row_diff_tail_sups(c, p, r, anchors, horizon),
                              per_anchor_product_row_diff_tails(c, p, r, anchors, horizon))

    @pytest.mark.parametrize("horizon", [256, 2048])
    def test_each_factor_is_evaluated_at_most_twice(self, horizon):
        calls = {"u": 0, "v": 0}

        def counting(name, seq):
            def fn(ks):
                calls[name] += 1
                return seq.fn(ks)
            return dataclasses.replace(seq, fn=fn)

        c = geometric_double_rule(0.5)
        u, v = c.factors
        c = product_rule(counting("u", u), counting("v", v), tail=c.tail)
        for condition in DECAY_CONDITIONS:
            calls.update(u=0, v=0)
            decay_report(c, condition, [16, 64], horizon, r=3)
            assert 1 <= calls["u"] <= 2 and 1 <= calls["v"] <= 2, (condition, calls)


class TestDiffTails:
    def test_mixed_zero_for_additive(self):
        c = additive_rule(geometric_rule(0.5), geometric_rule(0.5))
        assert mixed_diff_tail(c, 2.0, 1, 2, 2, 40) <= 1e-12

    def test_mixed_matches_loop_oracle(self):
        c = geometric_double_rule(0.5)
        got = mixed_diff_tail(c, 2.0, 1, 8, 8, 300)
        ev = functools.cache(functools.partial(scalar_eval, c))
        want = (8 * 8) ** 0.5 * sum(abs(mixed_diff(ev, j, k, 1))
                                    for j in range(8, 301) for k in range(8, 301))
        assert rel_close(got, want)

    def test_row_diff_matches_loop_oracle(self):
        c = geometric_double_rule(0.5)
        got = row_diff_tail(c, 2.0, 1, 4, 4, 200)
        ev = functools.cache(functools.partial(scalar_eval, c))
        want = 4 ** 0.5 * max(
            k * sum(abs(row_diff(ev, j, k, 1)) for j in range(4, 201))
            for k in range(4, 201))
        assert rel_close(got, want)

    def test_col_diff_transposed(self):
        rng = np.random.default_rng(29)
        arr = rng.normal(size=(20, 20))
        c, ct = table_rule(arr), table_rule(arr.T)
        assert rel_close(row_diff_tail(transpose_rule(c), 1.0, 2, 5, 3, 20),
                         row_diff_tail(ct, 1.0, 2, 5, 3, 20))

    def test_validation(self):
        with pytest.raises(ValueError):
            mixed_diff_tail(zero_double_rule(), 0.5, 1, 1, 1, 10)
        with pytest.raises(ValueError):
            row_diff_tail(zero_double_rule(), 1.0, 0, 1, 1, 10)
        with pytest.raises(ValueError, match="bad index range"):
            row_tail_sups(zero_double_rule(), [], 10)

    def test_tail_horizon_limit(self):
        # the tail conditions refuse a horizon past their own limit before any
        # row is evaluated; the pointwise conditions keep HORIZON_LIMIT
        c, count = counted(dataclasses.replace(geometric_double_rule(0.5), factors=None))
        for condition in DECAY_CONDITIONS:
            if condition.endswith("tail"):
                with pytest.raises(ValueError, match="tail horizon must be at most"):
                    decay_report(c, condition, [16, 64], TAIL_HORIZON_LIMIT + 1)
            else:
                decay_report(c, condition, [16, 64], 2 * TAIL_HORIZON_LIMIT)
        assert count[0] == 2 * len(frontier_samples(2 * TAIL_HORIZON_LIMIT))


def counted(c):
    """``c`` with a counter of the entries its ``fn`` evaluates."""
    count = [0]

    def fn(js, ks):
        count[0] += np.broadcast(js, ks).size
        return c.fn(js, ks)

    return dataclasses.replace(c, fn=fn), count


class TestBatchedMixedDiffTail:
    """One sweep over the rows per tail against the per-anchor loops."""

    @staticmethod
    def rules():
        rng = np.random.default_rng(41)
        return [
            additive_rule(geometric_rule(0.5), geometric_rule(0.5)),
            additive_rule(geometric_rule(0.6), power_rule(1.5)),
            table_rule(rng.normal(size=(400, 350)) + 1j * rng.normal(size=(400, 350))),
            table_rule(rng.normal(size=(120, 90))),
        ]

    @staticmethod
    def tails(c, anchors, horizon):
        """The three batched tails at the anchors, as one list per tail."""
        return (mixed_diff_tails(c, 1.5, 2, anchors, horizon),
                [e.value for e in row_tail_sups(c, anchors, horizon)],
                row_diff_tail_sups(c, 1.5, 2, anchors, horizon))

    @pytest.mark.parametrize("r, p, horizon", [(1, 1.0, 300), (2, 1.5, 700),
                                               (3, 1.0, 700), (3, 1.5, 300)])
    def test_equals_per_anchor_loop(self, r, p, horizon):
        # every fourth frontier anchor: the first sets the smallest column,
        # the others start inside the rows and columns it spans
        anchors = frontier_samples(horizon)[::4]
        picked = [0, 1, 9, len(anchors) // 2, len(anchors) - 1]
        for c in self.rules():
            got = mixed_diff_tails(c, p, r, anchors, horizon)
            rows = row_tail_sups(c, anchors, horizon)
            diffs = row_diff_tail_sups(c, p, r, anchors, horizon)
            assert len(got) == len(rows) == len(diffs) == len(anchors)
            at = [anchors[i] for i in picked]
            assert all_close([got[i] for i in picked],
                             [loop_mixed_diff_tail(c, p, r, m, n, horizon) for m, n in at]), c.label
            assert all_close([rows[i].value for i in picked],
                             [loop_row_tail(c, m, n, horizon) for m, n in at]), c.label
            assert all_close([diffs[i] for i in picked],
                             [loop_row_diff_tail(c, p, r, m, n, horizon) for m, n in at]), c.label

    def test_every_anchor_with_a_small_window(self, monkeypatch):
        # 7-row blocks: unsorted, repeated and single-row anchors, and
        # anchor rows on either side of a block edge
        monkeypatch.setattr(decay, "_CHUNK", 7)
        horizon = 100
        anchors = frontier_samples(horizon) + [(100, 3), (9, 100), (9, 100), (50, 50)]
        for c in self.rules()[1:]:
            got = mixed_diff_tails(c, 1.5, 2, anchors, horizon)
            want = [loop_mixed_diff_tail(c, 1.5, 2, m, n, horizon, chunk=7) for m, n in anchors]
            assert all_close(got, want), c.label
            got = [e.value for e in row_tail_sups(c, anchors, horizon)]
            want = [loop_row_tail(c, m, n, horizon, chunk=7) for m, n in anchors]
            assert all_close(got, want), c.label
            got = row_diff_tail_sups(c, 1.5, 2, anchors, horizon)
            want = [loop_row_diff_tail(c, 1.5, 2, m, n, horizon, chunk=7) for m, n in anchors]
            assert all_close(got, want), c.label

    def test_single_anchor_function_agrees(self):
        c = self.rules()[3]
        assert all_close([mixed_diff_tail(c, 1.5, 2, 7, 300, 400)],
                         [loop_mixed_diff_tail(c, 1.5, 2, 7, 300, 400)])
        assert all_close([row_tail(c, 7, 30, 400).value], [loop_row_tail(c, 7, 30, 400)])
        assert all_close([row_diff_tail(c, 1.5, 2, 7, 30, 400)],
                         [loop_row_diff_tail(c, 1.5, 2, 7, 30, 400)])

    def test_batched_equals_the_single_anchor_call(self):
        # a value reads only its own rows and columns of the sweep
        horizon = 100
        anchors = frontier_samples(horizon) + [(100, 3), (9, 100), (9, 100), (50, 50),
                                               (horizon, horizon)]
        for c in self.rules():
            batched = self.tails(c, anchors, horizon)
            alone = zip(*(self.tails(c, [a], horizon) for a in anchors))
            for got, want in zip(batched, alone):
                assert got == [w[0] for w in want], c.label

    def test_chunk_does_not_change_a_bit(self, monkeypatch):
        horizon = 100
        anchors = frontier_samples(horizon) + [(100, 3), (9, 100), (50, 50)]
        for c in self.rules():
            got = []
            for chunk in (1, 7, 256):
                monkeypatch.setattr(decay, "_CHUNK", chunk)
                got.append(self.tails(c, anchors, horizon))
            assert got[0] == got[1] == got[2], c.label

    def test_agrees_with_an_fsum_oracle(self):
        horizon, p, r = 700, 1.5, 2
        anchors = frontier_samples(horizon)[::4]
        anchors = [anchors[i] for i in (0, 1, 9, len(anchors) // 2, len(anchors) - 1)]
        anchors += [(100, 3), (9, 100)]
        js = np.arange(1, horizon + 1)[:, None]
        ks = np.arange(1, horizon + 1)[None, :]
        for c in self.rules():
            mixed = np.abs(mixed_diff_values(c, js, ks, r))
            diffs = np.abs(row_diff_values(c, js, ks, r))
            absc = np.abs(c.values(js, ks))
            k_hi = horizon if c.support is None else min(horizon, c.support[1])
            want_mixed, want_rows, want_diffs = [], [], []
            for m, n in anchors:
                want_mixed.append((m * n) ** (1.0 / p)
                                  * math.fsum(mixed[m - 1:, n - 1:].ravel().tolist()))
                want_rows.append(max(j * math.log(j) * math.fsum(row)
                                     for j, row in enumerate(absc[m - 1:, n - 1:k_hi].tolist(), m)))
                want_diffs.append(m ** (1.0 / p) * max(
                    k * math.fsum(col)
                    for k, col in enumerate(diffs[m - 1:, n - 1:].T.tolist(), n)))
            assert all_close(mixed_diff_tails(c, p, r, anchors, horizon), want_mixed), c.label
            assert all_close([e.value for e in row_tail_sups(c, anchors, horizon)],
                             want_rows), c.label
            assert all_close(row_diff_tail_sups(c, p, r, anchors, horizon), want_diffs), c.label

    def test_a_column_past_the_support_reads_zero(self):
        # the 120 x 90 table: row sums stop at column 90
        c = self.rules()[3]
        for anchors in ([(5, 95)], [(2, 2), (5, 95)], [(5, 95), (7, 99)]):
            for values in self.tails(c, anchors, 100):
                assert values[-1] == 0.0, anchors
        assert all(values[0] > 0.0 for values in self.tails(c, [(2, 2), (5, 95)], 100))

    @pytest.mark.parametrize("tail, per_entry", [
        (lambda c, anchors, h: row_tail_sups(c, anchors, h), 1),
        (lambda c, anchors, h: row_diff_tail_sups(c, 1.0, 2, anchors, h), 2),
        (lambda c, anchors, h: mixed_diff_tails(c, 1.0, 2, anchors, h), 4),
    ], ids=["row-tail", "row-diff-tail", "mixed-diff-tail"])
    def test_each_row_is_evaluated_once(self, monkeypatch, tail, per_entry):
        # every frontier anchor from (2, 2): rows and columns both span [2, H];
        # 7-row blocks move the window about 40 times
        monkeypatch.setattr(decay, "_CHUNK", 7)
        horizon = 300
        anchors = frontier_samples(horizon)
        c, count = counted(self.rules()[2])
        tail(c, anchors, horizon)
        assert 0 < count[0] <= (horizon - 1) ** 2 * per_entry

    def test_memory_grows_with_the_horizon_not_its_square(self):
        # a full float64 table over [2, 4000]^2 would take 128 MB
        c = self.rules()[1]
        anchors = [(2, 2), (3900, 2000)]
        tracemalloc.start()
        try:
            peaks = []
            for tail in (lambda: row_tail_sups(c, anchors, 4000),
                         lambda: row_diff_tail_sups(c, 1.0, 1, anchors, 4000),
                         lambda: mixed_diff_tails(c, 1.0, 1, anchors, 4000)):
                tracemalloc.reset_peak()
                tail()
                peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert max(peaks) < 64e6, peaks


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

    def test_float_overflow_is_a_value_error(self):
        for n, N, p in ((1, 10**400, 2.0), (10**400, 3, 2.0), (10**308, 10**308, 1.0)):
            with pytest.raises(ValueError, match="overflows"):
                log_integral_bound(n, N, p)


@pytest.mark.parametrize("call, match", [
    (lambda: regular_remainder_sup(geometric_double_rule(0.5), np.array([]), [4], (8, 8)),
     "empty abscissa grid"),
    (lambda: rational_point_convergence(geometric_double_rule(0.5), 0, 1, 1, [4], (8, 8)),
     "r must be >= 1"),
])
def test_library_refusals(call, match):
    with pytest.raises(ValueError, match=match):
        call()


def test_decay_trend_from_too_few_samples():
    # two positive jk samples, (2, 2) and (4, 4): no trend is fitted, and the
    # tail falling by half reads decaying
    arr = np.zeros((4, 4))
    arr[1, 1], arr[3, 3] = 1.0, 0.01
    rep = decay_report(table_rule(arr), "jk", [4, 8], 16)
    assert sum(s.value > 0 for s in rep.samples) == 2
    assert math.isnan(rep.trend_fit)
    assert rep.max_tail == [4.0, 0.16]
    assert classify_decay(rep) is DecayVerdict.DECAYING


# ---------------------------------------------------------------------------
# the decay and convergence verdicts against the rules they replaced


def _near(*points):
    """Floats that sit on and around the given verdict boundaries, or anywhere."""
    return st.sampled_from([0.0, *points, *(math.nextafter(x, 0.0) for x in points),
                            *(math.nextafter(x, math.inf) for x in points)]) \
        | st.floats(0.0, 1e300)


_TAILS = st.lists(_near(1.0, 0.5, 0.9, 2.0), min_size=1, max_size=5)
_TRENDS = st.just(math.nan) | st.sampled_from([-0.02, 0.0]) | st.floats(-50.0, 50.0)


@settings(deadline=None, max_examples=500)
@given(_TAILS, _TRENDS, st.booleans())
@example([0.0, 0.0, 0.0], math.nan, True)  # zero tails
@example([0.0, 0.0, 0.0], math.nan, False)
@example([2.0, 1.0], math.nan, True)  # a NaN trend
@example([2.0, 1.0], math.nan, False)
def test_classify_decay_is_the_branch_rule(tails, trend, conclusive):
    rep = DecayReport([], list(range(1, len(tails) + 1)), tails, trend, conclusive)
    assert classify_decay(rep) is branch_classify_decay(rep)


@settings(deadline=None, max_examples=200)
@given(st.lists(_near(1.0) | st.just(math.inf), min_size=1, max_size=5)
       .filter(lambda tails: math.inf in tails), _TRENDS, st.booleans())
@example([math.inf, 0.0], math.nan, True)
@example([math.inf, math.inf], math.nan, True)
def test_an_overflowed_tail_never_reads_decaying(tails, trend, conclusive):
    """A tail that overflowed to inf has no finite upper bound.  The branch
    rule read it like any number, so ``[inf 0]`` read decaying; the one rule
    reads it as a value only."""
    rep = DecayReport([], list(range(1, len(tails) + 1)), tails, trend, conclusive)
    assert classify_decay(rep) is not DecayVerdict.DECAYING


_SUPS = st.lists(_near(1e-3, 0.1, 0.05, 0.2), min_size=1, max_size=6)


@settings(deadline=None, max_examples=500)
@given(_SUPS, st.booleans())
@example([0.0, 0.0, 0.0, 0.0], False)
@example([5e-4, 5e-4 + 1e-15, 4e-4], True)  # nonincreasing within 1e-15
def test_convergence_verdict_is_the_branch_rule(sups, exact):
    assert _convergence_verdict(sups, exact) is branch_convergence_verdict(sups, exact)


@settings(deadline=None, max_examples=200)
@given(st.lists(_near(1e-3, 0.1), min_size=1, max_size=3), st.integers(0, 3))
@example([0.0], 0)
def test_an_overflowed_sup_never_reads_converging(sups, at):
    sups = [*sups[:at], math.inf, *sups[at:]][-convergence.VERDICT_WINDOW:]
    assert _convergence_verdict(sups, True) is not ConvergenceVerdict.CONVERGING
