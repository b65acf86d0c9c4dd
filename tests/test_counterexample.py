import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dgmlab.convergence import ConvergenceVerdict, rational_point_convergence
from dgmlab.counterexample import (
    SIN_2PI3,
    divergence_certificate,
    double_rule,
    read_ratios,
    single_term,
    single_values,
    violation_ratio,
)
from dgmlab.decay import DecayVerdict, classify_decay, decay_report
from dgmlab.membership import BoundFamily, BoundSpec, Verdict, membership_scan
from references import branch_ratio_reading, direct_col_bound, double_term, scalar_eval

REL = 1e-12


def rel_close(a, b, rel=REL):
    return abs(a - b) <= rel * (1 + max(abs(a), abs(b)))


class TestSingleTerm:
    def test_first_residue_value(self):
        assert rel_close(single_term(1, 2.0), 3.0 / math.log(2.0))

    def test_second_residue_value(self):
        assert rel_close(single_term(2, 2.0), 1.0 / (2.0 * math.log(3.0)))

    def test_multiple_of_six_value(self):
        want = 1.0 / (3.0 * math.log(4.0)) + 1.0 / (6.0**1.5 * math.log(7.0))
        assert rel_close(single_term(6, 2.0), want)

    def test_positivity(self):
        vals = single_values(np.arange(1, 10_001), 2.0)
        assert np.all(vals > 0)

    def test_residue_identities(self):
        ns = np.arange(1, 100_001)
        weighted = ns * np.log(ns + 1.0) * single_values(ns, 2.0)
        ones = (ns % 3 == 2) | ((ns % 3 == 0) & (ns % 6 != 0))
        threes = ns % 3 == 1
        assert np.max(np.abs(weighted[threes] - 3.0)) <= 1e-12 * 3.0
        assert np.max(np.abs(weighted[ones] - 1.0)) <= 1e-12

    def test_vectorized_matches_scalar(self):
        ns = np.array([1, 2, 3, 4, 5, 6, 7, 11, 12, 17, 18, 600])
        got = single_values(ns, 3.0)
        want = np.array([single_term(int(n), 3.0) for n in ns])
        assert np.max(np.abs(got - want)) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            single_term(0, 2.0)
        with pytest.raises(ValueError):
            single_term(5, 1.0)


class TestDoubleTerm:
    def test_product_at_origin(self):
        assert rel_close(double_term(1, 1, 2.0), (3.0 / math.log(2.0)) ** 2)

    def test_symmetry(self):
        for m, n in [(1, 2), (5, 9), (12, 7), (100, 3)]:
            assert double_term(m, n, 2.0) == double_term(n, m, 2.0)

    def test_six_six(self):
        assert rel_close(double_term(6, 6, 2.0), single_term(6, 2.0) ** 2)

    def test_rule_factorization(self):
        c = double_rule(2.0)
        assert c.factors is not None
        assert rel_close(scalar_eval(c, 7, 13).real, double_term(7, 13, 2.0))


class TestCertificate:
    def test_first_brackets_positive(self):
        p = 2.0
        b0 = single_term(1, p) - single_term(2, p)
        b1 = single_term(4, p) - single_term(5, p)
        assert b0 > 0 and b1 > 0
        cert = divergence_certificate(0, p)
        assert rel_close(cert.partial_sums[0], SIN_2PI3 * (b0 + b1))

    def test_lower_bound_increments(self):
        cert = divergence_certificate(50, 2.0)
        diffs = np.diff(cert.lower_bounds)
        ks = np.arange(1, 51)
        want = 4.0 * SIN_2PI3 / ((6 * ks + 5) * np.log(6 * ks + 5))
        assert np.max(np.abs(diffs - want)) <= 1e-15
        assert np.all(diffs > 0)

    def test_verified_at_thousand(self):
        cert = divergence_certificate(1000, 2.0)
        assert cert.verified
        assert np.all(cert.partial_sums >= cert.lower_bounds)

    def test_grouping_matches_direct_sine_sum(self):
        """Independent oracle: evaluate sum a_k sin(k * 2pi/3) term by term."""
        p = 2.0
        x0 = 2.0 * math.pi / 3.0
        cert = divergence_certificate(40, p)
        for N in (0, 3, 17, 40):
            direct = math.fsum(
                single_term(k, p) * math.sin(k * x0) for k in range(1, 6 * N + 6)
            )
            assert abs(cert.partial_sums[N] - direct) <= 1e-9

    def test_growth_between_checkpoints(self):
        # S_{10^4} > S_{10^2} + (L_{10^4} - L_{10^2}) with the bracket bound
        cert = divergence_certificate(10_000, 2.0)
        gap_lower = cert.lower_bounds[10_000] - cert.lower_bounds[100]
        assert cert.partial_sums[10_000] > cert.partial_sums[100] + gap_lower

    def test_empty_certificate_rejected(self):
        with pytest.raises(ValueError):
            divergence_certificate(-1, 2.0)


class TestViolationRatio:
    def test_doubling_growth(self):
        p = 2.0
        for n in (16, 32, 64, 128, 256, 512):
            assert violation_ratio(16, 2 * n, p) > violation_ratio(16, n, p)

    def test_restricted_slope_near_half(self):
        p = 2.0
        ns = [2**t for t in range(4, 13)]
        ratios = [violation_ratio(16, n, p, restricted=True) for n in ns]
        slope = np.polyfit(np.log2(ns), np.log2(ratios), 1)[0]
        assert abs(slope - 0.5) <= 0.15

    def test_matching_norm_exponent_stays_bounded(self):
        p = 2.0
        ratios = [violation_ratio(16, 2**t, p, norm_exponent=p) for t in range(4, 13)]
        slope = np.polyfit(np.log2([2**t for t in range(4, 13)]), np.log2(ratios), 1)[0]
        assert slope < 0.05
        assert max(ratios) < 10 * min(ratios)

    def test_equals_the_direct_column_ratio(self):
        """The transposed row bound against the direct column bound, bit for bit."""
        def direct(m, n, p, spec, q, restricted):
            ks = np.arange(n, 2 * n, dtype=np.int64)
            diffs = np.abs(single_values(ks, p) - single_values(ks + 3, p)) * single_term(m, p)
            if restricted:
                diffs = diffs[ks % 6 == 3]
            lhs = float(np.sum(diffs**q) ** (1.0 / q))
            rhs = direct_col_bound(double_rule(p), m, n, spec)
            return lhs / rhs.value if rhs.value > 0 else math.inf if lhs > 0 else 0.0

        specs = [BoundSpec(BoundFamily.MAX_WINDOW, lam=2),
                 BoundSpec(BoundFamily.MEAN_VALUE, lam=3),
                 BoundSpec(BoundFamily.SUP_WINDOW, lam=1, horizon_cap=1 << 10),
                 BoundSpec(BoundFamily.MAX_WINDOW, lam=2, horizon_cap=64)]
        for spec in specs:
            for m, n in [(1, 16), (16, 64), (5, 256), (16, 1024)]:
                for p, q, restricted in [(2.0, 1.0, False), (1.5, 1.5, True), (3.0, 2.0, False)]:
                    assert (violation_ratio(m, n, p, spec, q, restricted)
                            == direct(m, n, p, spec, q, restricted)), (spec, m, n, p)


class TestClassDichotomy:
    spec = BoundSpec(BoundFamily.MAX_WINDOW, lam=2, horizon_cap=1 << 15)
    blocks = [(16, 2**t) for t in range(4, 11)]

    def test_native_exponent_consistent(self):
        rep = membership_scan(double_rule(2.0), 2.0, 3, self.spec, self.blocks)
        assert rep.verdict is Verdict.CONSISTENT
        assert math.isfinite(rep.c_estimate)

    def test_unit_exponent_violated(self):
        rep = membership_scan(double_rule(2.0), 1.0, 3, self.spec, self.blocks)
        assert rep.verdict is Verdict.VIOLATED
        assert rep.growth_fit > 0.05


class TestDecayBehaviour:
    def test_jk_decay_goes_to_zero_slowly(self):
        rep = decay_report(double_rule(2.0), "jk", [16, 256, 4096, 16384], horizon=1 << 14)
        assert classify_decay(rep) is DecayVerdict.DECAYING
        assert rep.max_tail[-1] > 0.1  # slow: still visible at 2^14

    def test_loglog_stuck_near_nine_on_first_residue(self):
        ms = np.arange(100, 4000)
        ms = ms[ms % 3 == 1]
        vals = (ms * np.log(ms) * single_values(ms, 2.0)) ** 2
        assert np.all(vals >= 8.0)

    def test_rational_point_not_converging(self):
        prof = rational_point_convergence(double_rule(2.0), 3, 1, 1,
                                          [8, 16, 24, 40], (8192, 8192))
        assert prof.verdict is ConvergenceVerdict.NOT_CONVERGING


@pytest.mark.parametrize("call, match", [
    (lambda: single_values([3, 0, 5], 2.0), "indices must be >= 1"),
    (lambda: violation_ratio(0, 4, 2.0), "block indices must be >= 1"),
    (lambda: violation_ratio(4, 0, 2.0), "block indices must be >= 1"),
    (lambda: violation_ratio(4, 4, 2.0, norm_exponent=0.0), "norm exponent must be positive"),
    (lambda: violation_ratio(4, 4, 2.0, norm_exponent=-1.0), "norm exponent must be positive"),
])
def test_library_refusals(call, match):
    with pytest.raises(ValueError, match=match):
        call()


@st.composite
def ratio_scans(draw):
    """Block starts over consecutive octaves, and ratios that follow a power
    of n with some noise, or are drawn freely, among them 0, inf and NaN."""
    lo, count = draw(st.integers(0, 20)), draw(st.integers(1, 8))
    slope, noise = draw(st.floats(-1.0, 1.0)), draw(st.floats(0.0, 0.2))
    free = st.sampled_from([0.0, math.inf, math.nan, 1.0]) | st.floats(1e-6, 1e6)
    ratios = [2.0 ** (slope * t + noise * draw(st.floats(-1.0, 1.0))) if draw(st.booleans())
              else draw(free) for t in range(lo, lo + count)]
    return [2**t for t in range(lo, lo + count)], ratios


@settings(deadline=None, max_examples=500)
@given(ratio_scans())
@example(([16, 32], [1.0, math.inf]))  # an inf ratio
@example(([16, 32, 64], [1.0, 1.0 * 2**0.05, 2**0.1]))  # on the slope threshold
@example(([16], [3.0]))
def test_ratio_reading_is_the_branch_rule(scan):
    ns, ratios = scan
    verdict, slope = read_ratios(ns, ratios)
    reading, code, want = branch_ratio_reading(ns, ratios)
    assert (verdict.value, verdict.code) == (reading, code)
    assert slope == want or (math.isnan(slope) and math.isnan(want))
