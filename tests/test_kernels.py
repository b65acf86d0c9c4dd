import dataclasses
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dgmlab import kernels
from dgmlab.kernels import (
    KERNEL_STEP_LIMIT,
    HalfBandSweep,
    SingularAbscissa,
    band_index,
    direct_sine_sum,
    half_bands,
    kernel_band_bound,
    kernel_bound_sweep,
    partial_sum_bound,
    sbp_decompose,
)
from dgmlab.membership import divisor_embedding_check
from dgmlab.sequences import (
    HORIZON_LIMIT,
    geometric_rule,
    mixed_diff_values,
    power_rule,
    row_diff_values,
    rule_from_function,
    rule_from_values,
    step_diff_values,
    table_rule,
)
from references import (
    assert_bits_equal,
    concatenated_sbp_decompose,
    dirichlet_cos,
    dirichlet_sin,
    four_call_partial_sum_bound,
    full_split_cos_exact,
    tile_kernel_bound_sweep,
    two_branch_jordan_bounds,
)

REL = 1e-12


def rel_close(a, b, rel=REL):
    return abs(a - b) <= rel * (1 + max(abs(a), abs(b)))


class TestKernels:
    def test_cos_kernel_small_cases(self):
        assert abs(dirichlet_cos(0, 2, math.pi / 2)) < 1e-15
        assert rel_close(dirichlet_cos(1, 2, math.pi / 2), -0.5)

    def test_sin_kernel_small_cases(self):
        assert rel_close(dirichlet_sin(0, 1, math.pi / 2), 0.5)
        # sin(x) / (2 sin(x)) = 1/2 for any nonsingular x when k=0, r=2
        for x in (0.3, 1.1, 2.9):
            assert rel_close(dirichlet_sin(0, 2, x), 0.5)

    def test_singular_abscissa_raises_with_nearest_point(self):
        with pytest.raises(SingularAbscissa) as exc:
            dirichlet_cos(3, 3, 2 * math.pi / 3)
        assert rel_close(exc.value.nearest, 2 * math.pi / 3)

    def test_negative_step_allowed(self):
        x = 0.7
        want = math.cos((5 - 1.5) * x) / (2 * math.sin(-1.5 * x))
        assert rel_close(dirichlet_cos(5, -3, x), want)

    def test_high_precision_oracle(self):
        rng = np.random.default_rng(42)
        mpmath.mp.dps = 40
        for _ in range(50):
            k = int(rng.integers(0, 40))
            r = int(rng.integers(1, 6)) * int(rng.choice([-1, 1]))
            x = float(rng.uniform(0.05, math.pi - 0.05))
            if abs(math.sin(r * x / 2)) < 1e-6:
                continue
            want = mpmath.cos((k + mpmath.mpf(r) / 2) * x) / (2 * mpmath.sin(mpmath.mpf(r) * x / 2))
            assert rel_close(dirichlet_cos(k, r, x), float(want))
            want_s = mpmath.sin((k + mpmath.mpf(r) / 2) * x) / (2 * mpmath.sin(mpmath.mpf(r) * x / 2))
            assert rel_close(dirichlet_sin(k, r, x), float(want_s))


class TestSbp:
    def test_zero_sequence(self):
        z = rule_from_function(lambda k: 0j)
        dec = sbp_decompose(z, 3, 30, 2, 1.0)
        assert dec.main_term == dec.upper_boundary == dec.lower_boundary == 0
        assert dec.total == 0

    def test_single_spike_reproduces_sine(self):
        for n, r, x in [(5, 2, 0.7), (3, 3, 1.9), (8, 1, 2.5)]:
            values = np.zeros(n)
            values[n - 1] = 1.0
            spike = rule_from_values(values)
            dec = sbp_decompose(spike, n, n + 20, r, x)
            assert rel_close(dec.total, math.sin(n * x))

    def test_random_complex_sequence_matches_direct_sum(self):
        rng = np.random.default_rng(3)
        arr = rng.normal(size=64) + 1j * rng.normal(size=64)
        seq = rule_from_values(arr)
        dec = sbp_decompose(seq, 5, 40, 3, 1.0)
        direct = direct_sine_sum(seq, 5, 40, 1.0)
        assert abs(dec.total - direct) <= REL * (1 + abs(direct))

    def test_total_is_sum_of_terms(self):
        seq = power_rule(1.5)
        dec = sbp_decompose(seq, 2, 25, 2, 0.9)
        assert dec.total == dec.main_term + dec.upper_boundary + dec.lower_boundary

    def test_rejects_singular_abscissa(self):
        seq = power_rule(2.0)
        with pytest.raises(SingularAbscissa):
            sbp_decompose(seq, 1, 10, 3, 2 * math.pi / 3)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**6), st.integers(1, 5), st.integers(1, 30),
           st.integers(0, 60), st.floats(0.05, 3.1))
    def test_exactness_property(self, seed, r, n, span, x):
        if abs(math.sin(r * x / 2)) < 1e-6:
            return
        rng = np.random.default_rng(seed)
        arr = rng.normal(size=n + span + r + 1) + 1j * rng.normal(size=n + span + r + 1)
        seq = rule_from_values(arr)
        dec = sbp_decompose(seq, n, n + span, r, x)
        direct = direct_sine_sum(seq, n, n + span, x)
        assert abs(dec.total - direct) <= REL * (1 + abs(direct))


class TestDirectSineSum:
    @pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
    def test_long_sums_are_exactly_rounded(self, real):
        # past 100,000 terms each part of the sum is exact, rounded once:
        # terms of about +-1e16 and 1 whose float sum drops the ones
        size = 100_003
        rng = np.random.default_rng(17)
        arr = np.where(np.arange(size) % 2, 1.0, rng.choice([-1e16, 1e16], size=size))
        arr = arr / np.sin(np.arange(1, size + 1) * 1.0)
        if not real:
            arr = arr + 1j * arr[::-1]
        ks = np.arange(2, size + 1)
        sines = np.sin(ks * 1.0)
        parts = (np.real(arr[1:]) * sines, np.imag(arr[1:]) * sines)
        want = complex(*(float(sum(map(Fraction, part.tolist()))) for part in parts))
        assert complex((arr[1:] * sines.astype(complex)).sum()) != want
        assert direct_sine_sum(rule_from_values(arr), 2, size, 1.0) == want


class TestBandBound:
    def test_first_half_band_values(self):
        assert rel_close(kernel_band_bound(math.pi / 2, 1, 0), 1.0)
        assert rel_close(kernel_band_bound(math.pi / 4, 2, 0), 1.0)

    def test_band_mismatch_rejected(self):
        with pytest.raises(ValueError):
            kernel_band_bound(math.pi / 2, 1, 1)

    def test_endpoint_rejected(self):
        with pytest.raises(ValueError):
            kernel_band_bound(math.pi, 1, 0)
        with pytest.raises(ValueError):
            band_index(2 * math.pi / 3, 3)

    def test_band_index_halves(self):
        assert band_index(0.4, 1) == (0, 0)
        assert band_index(4.0, 1) == (0, 1)
        assert band_index(2.0, 3) == (0, 1)
        assert band_index(2.2, 3) == (1, 0)

    def test_periodic_band_structure(self):
        for x, r in [(0.4, 3), (0.2, 5), (1.0, 2)]:
            l, _ = band_index(x, r)
            a = kernel_band_bound(x, r, l)
            b = kernel_band_bound(x + 2 * math.pi / r, r, l + 1)
            assert rel_close(a, b, rel=1e-9)

    def test_grid_sweep_no_violations(self):
        for r in (1, 2, 3):
            sweeps = kernel_bound_sweep(r, 1000, 50)
            assert len(sweeps) == r
            assert all(s.violations == 0 for s in sweeps)
            assert all(s.max_ratio <= 1.0 + 1e-12 for s in sweeps)

    def test_half_band_partition_covers_zero_pi(self):
        bands = half_bands(4)
        assert bands[0][2] == 0.0
        assert rel_close(bands[-1][3], math.pi)
        for (b1, h1, lo1, hi1), (b2, h2, lo2, hi2) in zip(bands, bands[1:]):
            assert rel_close(hi1, lo2)


def loop_kernel_bound_sweep(r, points, k_max):
    """The two-sign sweep loop that the one-table sweep replaced: the
    reference it must equal bit for bit.  The bound comes from the same
    helper, so a patched bound reaches both."""
    reports = []
    ks = np.arange(0, k_max + 1)[:, None]
    for band, half, lo, hi in half_bands(r):
        width = hi - lo
        xs = np.linspace(lo + width / (points + 1), hi - width / (points + 1), points)
        bound = kernels._jordan_bounds(xs, r, band)
        denom = 2.0 * np.abs(np.sin(0.5 * r * xs))
        worst = 0.0
        bad = 0
        for sign in (1, -1):
            mag = np.abs(np.cos((ks + 0.5 * sign * r) * xs[None, :])) / denom[None, :]
            ratio = mag / bound[None, :]
            worst = max(worst, float(np.max(ratio)))
            bad += int(np.count_nonzero(ratio > 1.0 + 1e-12))
        reports.append(HalfBandSweep(band, half, points, k_max, worst, bad))
    return reports


class TestSweepAgainstLoop:
    def test_jordan_bounds_match_scalar_bound(self):
        for r in (1, 3):
            for band, half, lo, hi in half_bands(r):
                xs = np.linspace(lo, hi, 7)[1:-1]
                got = kernels._jordan_bounds(xs, r, band)
                assert got.tolist() == [kernel_band_bound(float(x), r, band) for x in xs]

    @pytest.mark.parametrize("r", range(1, 8))
    def test_equals_two_sign_loop(self, r):
        for k_max in sorted({0, 1, r - 1, r, 3 * r, 200}):
            for points in (2, 3, 97):
                assert kernel_bound_sweep(r, points, k_max) == \
                    loop_kernel_bound_sweep(r, points, k_max), (k_max, points)

    def test_wide_grids_span_several_tiles(self):
        # more points than one tile holds: the columns are swept in blocks
        points = kernels._TILE + 3
        assert kernel_bound_sweep(2, points, 3) == loop_kernel_bound_sweep(2, points, 3)

    def test_recount_with_half_the_bound(self, monkeypatch):
        jordan = kernels._jordan_bounds
        monkeypatch.setattr(kernels, "_jordan_bounds",
                            lambda xs, r, band: 0.5 * jordan(xs, r, band))
        for r, points, k_max in [(1, 97, 200), (3, 97, 2), (4, 3, 1), (5, 300, 15)]:
            got = kernel_bound_sweep(r, points, k_max)
            assert got == loop_kernel_bound_sweep(r, points, k_max)
            assert sum(s.violations for s in got) > 0


class TestCeilingPrune:
    """The sweep computes |cos| only for abscissas whose ceiling can still
    change the worst ratio or the violation count; its reports must equal
    those of the sweeps that compute every |cos|."""

    @settings(max_examples=60, deadline=None)
    @given(r=st.integers(1, 8), points=st.integers(2, 300), k_max=st.integers(0, 60),
           halved=st.booleans(), small_tile=st.booleans())
    def test_equals_full_sweeps(self, r, points, k_max, halved, small_tile):
        # a 256-entry tile cuts these grids into several blocks and tiles;
        # half the bound puts ratios over the threshold, so the recount runs
        with pytest.MonkeyPatch.context() as mp:
            if small_tile:
                mp.setattr(kernels, "_TILE", 256)
            if halved:
                jordan = kernels._jordan_bounds
                mp.setattr(kernels, "_jordan_bounds",
                           lambda xs, r, band: 0.5 * jordan(xs, r, band))
            got = kernel_bound_sweep(r, points, k_max)
            assert got == loop_kernel_bound_sweep(r, points, k_max)
            assert got == tile_kernel_bound_sweep(r, points, k_max)

    @pytest.mark.parametrize("r, points, k_max", [(3, 70_000, 20), (1, 5000, 40), (6, 2000, 0)])
    def test_equals_tile_sweep_on_wide_grids(self, r, points, k_max):
        assert kernel_bound_sweep(r, points, k_max) == tile_kernel_bound_sweep(r, points, k_max)

    @pytest.mark.parametrize("tile", [None, 4096])
    @pytest.mark.parametrize("rank", [8, 64, 72, 300])
    def test_worst_ratio_a_hair_above_the_rest(self, monkeypatch, tile, rank):
        # |cos| is set to one value per abscissa: 1 at the abscissa of the
        # given rank by ceiling, so that its ratio is its ceiling c, and
        # elsewhere the value that holds the ratio at c (1 - 1e-9) or at the
        # abscissa's own ceiling, whichever is lower.  The worst ratio is
        # then c, a hair above the ratios of every abscissa of a larger
        # ceiling: a skip loose by more than a hair misses it
        r, points, k_max = 2, 5000, 600  # 603 shifts: blocks of 64 abscissas
        if tile:
            monkeypatch.setattr(kernels, "_TILE", tile)
        grid, values, want = [], [], []
        for band, half, lo, hi in half_bands(r):
            width = hi - lo
            xs = np.linspace(lo + width / (points + 1), hi - width / (points + 1), points)
            denom, bound = kernels._denominators_and_bounds(xs, r, band)
            ceiling = 1.0 / denom / bound
            star = np.argsort(ceiling)[::-1][rank]
            value = np.minimum(1.0, ceiling[star] * (1 - 1e-9) / ceiling)
            value[star] = 1.0
            grid.append(xs)
            values.append(value)
            want.append(ceiling[star])
        order = np.argsort(np.concatenate(grid))
        known, value_of = np.concatenate(grid)[order], np.concatenate(values)[order]
        abs_cos = kernels._abs_cos

        def fixed(shifts, xs, buf):
            tile = abs_cos(shifts, xs, buf)
            at = np.searchsorted(known, xs)
            assert np.array_equal(known[at], xs)
            tile[:] = value_of[at]
            return tile

        monkeypatch.setattr(kernels, "_abs_cos", fixed)
        got = kernel_bound_sweep(r, points, k_max)
        assert [s.max_ratio for s in got] == want
        assert got == tile_kernel_bound_sweep(r, points, k_max)

    def test_jordan_bounds_equal_both_branches(self):
        for r in (1, 2, 5, 8):
            for band, half, lo, hi in half_bands(r):
                xs = np.linspace(lo, hi, 1003)[1:-1]
                assert_bits_equal(kernels._jordan_bounds(xs, r, band),
                                  two_branch_jordan_bounds(xs, r, band))

    @pytest.mark.parametrize("r, points, k_max, block", [
        (5, 5000, 1000, 64),  # the benchmark's kernel-bound run
        (3, 10_000, 100, 512),  # the README example
    ])
    def test_few_columns_reach_cos(self, monkeypatch, r, points, k_max, block):
        # at most two blocks of abscissas per half-band get their |cos|
        # computed, where the full sweeps compute all of them
        seen = []
        abs_cos = kernels._abs_cos

        def recording(shifts, xs, buf):
            seen.append(xs.copy())
            return abs_cos(shifts, xs, buf)

        monkeypatch.setattr(kernels, "_abs_cos", recording)
        got = kernel_bound_sweep(r, points, k_max)
        xs = np.concatenate(seen)
        for _, _, lo, hi in half_bands(r):
            computed = np.unique(xs[(xs > lo) & (xs < hi)]).size
            assert 1 <= computed <= 2 * block, (lo, computed)
        monkeypatch.setattr(kernels, "_abs_cos", abs_cos)
        assert got == tile_kernel_bound_sweep(r, points, k_max)


class TestPartialSumBound:
    def test_zero_sequence(self):
        z = rule_from_function(lambda k: 0j)
        assert partial_sum_bound(z, 3, 30, 2, 1.0).value == 0.0

    def test_dominates_inverse_square_sum(self):
        seq = power_rule(2.0)
        b = partial_sum_bound(seq, 4, 64, 1, 0.3)
        direct = abs(direct_sine_sum(seq, 4, 64, 0.3))
        assert direct <= b.value

    def test_dominates_random_sequences_both_halves(self):
        rng = np.random.default_rng(77)
        for case in range(50):
            r = int(rng.integers(1, 6))
            n = int(rng.integers(1, 20))
            N = n + int(rng.integers(0, 80))
            arr = rng.normal(size=N + r + 2) + 1j * rng.normal(size=N + r + 2)
            seq = rule_from_values(arr)
            for _, half, lo, hi in half_bands(r):
                x = lo + (hi - lo) * float(rng.uniform(0.05, 0.95))
                got = partial_sum_bound(seq, n, N, r, x)
                assert got.half == half
                direct = abs(direct_sine_sum(seq, n, N, x))
                assert direct <= got.value * (1 + REL)

    @pytest.mark.parametrize("r", range(1, 7))
    def test_equals_the_four_call_form(self, r):
        rng = np.random.default_rng(100 + r)
        arr = rng.normal(size=90) + 1j * rng.normal(size=90)
        rules = [rule_from_values(arr), rule_from_values(arr.real), power_rule(1.5),
                 geometric_rule(0.7), rule_from_function(lambda k: complex(k % 3, -k))]
        # N - n + 1 below, at and above r; windows running past the table
        for n, N in [(1, 1), (3, 3 + r - 2), (5, 5 + r - 1), (2, 40), (7, 84), (80, 95)]:
            if N < n:
                continue
            for _, _, lo, hi in half_bands(r):
                x = lo + (hi - lo) * float(rng.uniform(0.05, 0.95))
                for seq in rules:
                    assert partial_sum_bound(seq, n, N, r, x) == \
                        four_call_partial_sum_bound(seq, n, N, r, x), (seq.label, n, N, x)

    def test_prefactor_constants(self):
        seq = power_rule(2.0)
        # first half-band: the stated constant equals the kernel bound
        b0 = partial_sum_bound(seq, 2, 40, 3, 0.5)
        assert b0.half == 0
        assert rel_close(b0.prefactor, b0.stated_prefactor)
        # second half-band: the stated constant is twice the kernel bound
        b1 = partial_sum_bound(seq, 2, 40, 3, 1.6)
        assert b1.half == 1
        assert rel_close(2 * b1.prefactor, b1.stated_prefactor)


class TestOneEvaluationPerCall:
    @staticmethod
    def counted(seq):
        """``seq`` with a counter of the calls its ``fn`` receives."""
        calls = [0]

        def fn(ks):
            calls[0] += 1
            return seq.fn(ks)

        return dataclasses.replace(seq, fn=fn), calls

    @pytest.mark.parametrize("call", [
        lambda seq: sbp_decompose(seq, 3, 40, 3, 1.0),
        lambda seq: partial_sum_bound(seq, 3, 40, 3, 1.0),
        lambda seq: partial_sum_bound(seq, 3, 4, 5, 1.0),
        lambda seq: direct_sine_sum(seq, 3, 40, 1.0),
    ], ids=["sbp", "partial-sum-bound", "short-partial-sum-bound", "direct"])
    def test_each_call_evaluates_the_rule_once(self, call):
        seq, calls = self.counted(rule_from_values(np.arange(1.0, 50.0)))
        call(seq)
        assert calls[0] == 1

    @staticmethod
    def counted_double(c):
        """``c`` with the index arrays of every call its ``fn`` receives."""
        calls = []

        def fn(js, ks):
            calls.append((np.asarray(js), np.asarray(ks)))
            return c.fn(js, ks)

        return dataclasses.replace(c, fn=fn), calls

    @pytest.mark.parametrize("ks", [5, np.arange(3, 40), np.arange(2, 9)[:, None]],
                             ids=["scalar", "run", "column"])
    def test_step_diff_evaluates_the_rule_once(self, ks):
        seq, calls = self.counted(rule_from_values(np.arange(1.0, 50.0)))
        step_diff_values(seq, ks, 4)
        assert calls[0] == 1

    @pytest.mark.parametrize("js, ks", [
        (3, 4), (np.arange(2, 13), 5), (np.arange(1, 10)[:, None], np.arange(2, 14)[None, :]),
    ], ids=["scalars", "run-scalar", "column-row"])
    @pytest.mark.parametrize("op", [row_diff_values, mixed_diff_values],
                             ids=["row", "mixed"])
    def test_difference_evaluates_the_rule_once(self, op, js, ks):
        rng = np.random.default_rng(3)
        c, calls = self.counted_double(table_rule(rng.normal(size=(20, 20))))
        op(c, js, ks, 3)
        assert len(calls) == 1

    @pytest.mark.parametrize("r1, r2", [(1, 1), (1, 3), (2, 6)])
    def test_divisor_check_evaluates_one_mixed_block_per_block(self, r1, r2):
        rng = np.random.default_rng(4)
        c, calls = self.counted_double(table_rule(rng.normal(size=(30, 30))))
        blocks = [(1, 1), (2, 4), (4, 2), (8, 8)]
        divisor_embedding_check(c, 1.5, r1, r2, blocks)
        # per block: the step-r2 norm and one chain run per axis, and the
        # step-r2 mixed norm and one chain block, whatever r2 / r1
        mixed = [1 for js, ks in calls if js.size > 1 and ks.size > 1]
        assert len(mixed) == 2 * len(blocks)
        assert len(calls) == 6 * len(blocks)


class TestExactCosine:
    """The split-free exact cosine and the one-progression decomposition
    against the full-split, concatenated forms, bit for bit."""

    def test_split_free_cosine_equals_the_full_split(self):
        rng = np.random.default_rng(23)
        bound = 2**25 - 1  # twice the largest half-integer magnitude
        twice = np.concatenate([
            np.arange(-400, 401),
            rng.integers(-bound, bound + 1, size=20_000),
            [bound, -bound, 2**25 - 2, 2 * HORIZON_LIMIT, -HORIZON_LIMIT, 1, -1],
        ])
        a = twice / 2.0
        bs = [1.0, 0.5, math.pi / 3, 2.0 * math.pi - 1e-7, 1e-9, 3.0000000001, -2.2,
              float(np.nextafter(math.pi, 4.0)), math.nan]
        bs += rng.uniform(0.0, 2.0 * math.pi, size=40).tolist()
        for b in bs:
            assert_bits_equal(kernels._cos_exact(a, b), full_split_cos_exact(a, b))

    @staticmethod
    def rules():
        rng = np.random.default_rng(29)
        vals = rng.normal(size=300) + 1j * rng.normal(size=300)
        vals[17] = complex(np.nan, 1.0)
        return [rule_from_values(rng.normal(size=300)),
                rule_from_values(rng.normal(size=300) + 1j * rng.normal(size=300)),
                rule_from_values(vals), geometric_rule(0.9), power_rule(0.5),
                rule_from_function(lambda k: complex(1.0 / k, math.sin(k)))]

    @pytest.mark.parametrize("r", range(1, 7))
    def test_decomposition_equals_the_concatenated_form(self, r):
        for seq in self.rules():
            for n, m in [(1, 1), (1, 40), (5, 80), (37, 290), (120, 121)]:
                for h in range(r):
                    x = (h + 0.37) * math.pi / r
                    got = sbp_decompose(seq, n, m, r, x)
                    want = concatenated_sbp_decompose(seq, n, m, r, x)
                    for part in ("main_term", "upper_boundary", "lower_boundary"):
                        assert_bits_equal(np.array(getattr(got, part)),
                                          np.array(getattr(want, part)))

    def test_decomposition_at_the_index_bound(self):
        seq = power_rule(0.5)
        for r in (1, 3, 6):
            n, m = HORIZON_LIMIT - 40 - r, HORIZON_LIMIT - r
            for x in (0.3, 1.7, 2.9):
                got = sbp_decompose(seq, n, m, r, x)
                want = concatenated_sbp_decompose(seq, n, m, r, x)
                assert got == want


class TestIndexBound:
    """Index ranges past ``HORIZON_LIMIT`` are refused before any array is
    built."""

    def test_sbp_refuses_past_the_bound(self):
        seq = geometric_rule(0.5)
        with pytest.raises(ValueError, match="at most"):
            sbp_decompose(seq, 1, HORIZON_LIMIT, 1, 1.0)
        with pytest.raises(ValueError, match="at most"):
            sbp_decompose(seq, 3, 60, 10**8, 1.0)
        with pytest.raises(ValueError, match="at most"):
            sbp_decompose(seq, 1, 10**12, 1, 1.0)

    def test_partial_sum_bound_refuses_past_the_bound(self):
        seq = geometric_rule(0.5)
        with pytest.raises(ValueError, match="at most"):
            partial_sum_bound(seq, 1, HORIZON_LIMIT - 2, 3, 0.5)
        with pytest.raises(ValueError, match="at most"):
            partial_sum_bound(seq, 1, 10**12, 1, 1.0)

    def test_direct_sum_refuses_past_the_bound(self):
        with pytest.raises(ValueError, match="at most"):
            direct_sine_sum(geometric_rule(0.5), 1, HORIZON_LIMIT + 1, 1.0)

    def test_ranges_at_the_bound_run(self):
        seq = power_rule(1.0)
        n = HORIZON_LIMIT - 20
        assert sbp_decompose(seq, n, HORIZON_LIMIT - 3, 3, 1.0).total != 0
        assert partial_sum_bound(seq, n, HORIZON_LIMIT - 3, 3, 1.0).value > 0
        assert direct_sine_sum(seq, n, HORIZON_LIMIT, 1.0) != 0

    @pytest.mark.parametrize("r", [0, KERNEL_STEP_LIMIT + 1])
    def test_sweep_refuses_steps_past_the_bound(self, r):
        with pytest.raises(ValueError, match="step r"):
            kernel_bound_sweep(r, 2, 0)


@pytest.mark.parametrize("call, match", [
    (lambda: band_index(1.0, 0), "step r must be >= 1"),
    (lambda: sbp_decompose(geometric_rule(0.5), 5, 4, 1, 1.0), "need m >= n"),
    (lambda: sbp_decompose(geometric_rule(0.5), 1, 4, 0, 1.0), "step r must be >= 1"),
    (lambda: partial_sum_bound(geometric_rule(0.5), 5, 4, 1, 1.0), "need N >= n"),
    (lambda: kernel_bound_sweep(1, 1, 0), "need points >= 2 and k_max >= 0"),
    (lambda: kernel_bound_sweep(1, 2, -1), "need points >= 2 and k_max >= 0"),
])
def test_library_refusals(call, match):
    with pytest.raises(ValueError, match=match):
        call()
