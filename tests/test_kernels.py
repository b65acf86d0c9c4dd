import dataclasses
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dgmlab import kernels
from dgmlab.kernels import (
    HalfBandSweep,
    SingularAbscissa,
    band_index,
    dirichlet_cos,
    dirichlet_sin,
    direct_sine_sum,
    half_bands,
    kernel_band_bound,
    kernel_bound_sweep,
    partial_sum_bound,
    sbp_decompose,
)
from dgmlab.sequences import (
    geometric_rule,
    power_rule,
    rule_from_function,
    rule_from_values,
)
from references import four_call_partial_sum_bound

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
