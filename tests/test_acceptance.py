"""Acceptance suite.

One test per criterion; each computes its check at the stated tolerance,
prints a single pass/fail line, and asserts.  Run with ``pytest -v
tests/test_acceptance.py`` (add ``-s`` to see the lines on success).
"""

import math
import time

import numpy as np

from dgmlab.cli import main as cli_main
from dgmlab.convergence import (
    ConvergenceVerdict,
    GridSpec,
    regular_remainder_sup,
)
from dgmlab.counterexample import (
    divergence_certificate,
    double_rule,
    single_values,
    violation_ratio,
)
from dgmlab.decay import log_integral_bound
from dgmlab.kernels import (
    direct_sine_sum,
    half_bands,
    kernel_bound_sweep,
    sbp_decompose,
)
from dgmlab.membership import (
    BoundFamily,
    BoundSpec,
    Verdict,
    divisor_embedding_check,
    embedding_check,
    membership_scan,
)
from dgmlab.sequences import geometric_double_rule, rule_from_values, table_rule
from references import dirichlet_cos


def report(num, name, ok, detail, elapsed, limit):
    line = (f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'} "
            f"({detail}; {elapsed:.2f}s < {limit:.0f}s)")
    print(line)
    assert ok, line
    assert elapsed < limit, line


def test_c01_summation_by_parts_exactness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    checks = 0
    for _ in range(500):
        r = int(rng.integers(1, 6))
        n = int(rng.integers(1, 51))
        m = int(rng.integers(n, 201))
        arr = rng.normal(size=m + r + 1) + 1j * rng.normal(size=m + r + 1)
        seq = rule_from_values(arr)
        coeffs = arr[n - 1:m]
        ks = np.arange(n, m + 1)
        for _, _, lo, hi in half_bands(r):
            # nonsingular: stay a few percent inside the half-band so the
            # kernel scale stays O(10) and rounding cannot masquerade as a
            # broken identity
            width = hi - lo
            xs = lo + width * rng.uniform(0.05, 0.95, size=50)
            xs = xs[np.abs(np.sin(r * xs / 2)) > 1e-9]
            sines = np.sin(np.outer(xs, ks))
            for x, row in zip(xs, sines):
                # exactly rounded direct-sum oracle
                terms = coeffs * row
                want = complex(math.fsum(terms.real.tolist()),
                               math.fsum(terms.imag.tolist()))
                total = sbp_decompose(seq, n, m, r, float(x)).total
                err = abs(total - want) / (1.0 + abs(want))
                worst = max(worst, err)
                checks += 1
    elapsed = time.perf_counter() - t0
    report(1, "summation-by-parts exactness", worst <= 1e-12,
           f"{checks} identities, worst rel err {worst:.2e}", elapsed, 10)


def test_c02_kernel_band_bound():
    t0 = time.perf_counter()
    violations = 0
    worst = 0.0
    bands = 0
    for r in range(1, 6):
        for sweep in kernel_bound_sweep(r, 10_000, 100):
            violations += sweep.violations
            worst = max(worst, sweep.max_ratio)
            bands += 1
    # spot-check the sweep against the scalar kernel on a subsample
    rng = np.random.default_rng(7)
    for _ in range(100):
        r = int(rng.integers(1, 6))
        x = float(rng.uniform(1e-3, math.pi - 1e-3))
        if abs(math.sin(r * x / 2)) < 1e-6:
            continue
        k = int(rng.integers(0, 101))
        l = math.floor(r * x / (2 * math.pi))
        u = r * x / math.pi - 2 * l
        if min(u, abs(u - 1), 2 - u) < 1e-9:
            continue
        from dgmlab.kernels import kernel_band_bound
        assert abs(dirichlet_cos(k, r, x)) <= kernel_band_bound(x, r, l) * (1 + 1e-12)
    elapsed = time.perf_counter() - t0
    report(2, "kernel half-band bound", violations == 0,
           f"{bands} half-bands, 10^4 pts each, k<=100, max ratio {worst:.6f}",
           elapsed, 30)


def test_c03_partial_sum_domination():
    from dgmlab.kernels import partial_sum_bound
    t0 = time.perf_counter()
    rng = np.random.default_rng(303)
    violations = 0
    checks = 0
    for _ in range(200):
        r = int(rng.integers(1, 6))
        n = int(rng.integers(1, 30))
        N = n + int(rng.integers(0, 170))
        arr = rng.normal(size=N + r + 1) + 1j * rng.normal(size=N + r + 1)
        seq = rule_from_values(arr)
        # one abscissa inside each half of the first band
        for lo, hi in ((0.0, math.pi / r), (math.pi / r, 2 * math.pi / r)):
            x = lo + (hi - lo) * float(rng.uniform(0.02, 0.98))
            bound = partial_sum_bound(seq, n, N, r, x)
            direct = abs(direct_sine_sum(seq, n, N, x))
            checks += 1
            if direct > bound.value * (1 + 1e-12):
                violations += 1
    elapsed = time.perf_counter() - t0
    report(3, "partial-sum domination", violations == 0,
           f"{checks} bounds on both half-band kinds", elapsed, 20)


def test_c04_log_integral_bound():
    t0 = time.perf_counter()
    grid = sorted({int(round(10 ** (i / 8))) for i in range(0, 25)})
    worst_slack = -math.inf
    count = 0
    ok = True
    for p in (1.0, 1.5, 2.0, 3.0, 10.0):
        for n in grid:
            for N in grid:
                value, bound = log_integral_bound(n, N, p)
                ok = ok and value <= bound + 1e-12
                worst_slack = max(worst_slack, value - bound)
                count += 1
    elapsed = time.perf_counter() - t0
    report(4, "log-integral bound", ok,
           f"{count} grid points, worst value-bound {worst_slack:.2e}", elapsed, 5)


def test_c05_exponent_embedding():
    t0 = time.perf_counter()
    rng = np.random.default_rng(505)
    blocks = [(1, 1), (2, 2), (4, 4), (8, 8), (2, 5), (5, 2)]
    bad = 0
    for i in range(100):
        p1, p2 = sorted(rng.uniform(0.5, 4.0, size=2))
        r = [1, 2, 3][i % 3]
        c = table_rule(rng.normal(size=(24, 24)) + 1j * rng.normal(size=(24, 24)))
        rep = embedding_check(c, r, float(p1), float(p2), blocks)
        bad += len(rep.violations)
    elapsed = time.perf_counter() - t0
    report(5, "p-norm block monotonicity", bad == 0,
           f"100 tables x {len(blocks)} blocks, violations {bad}", elapsed, 10)


def test_c06_divisor_embedding():
    t0 = time.perf_counter()
    rng = np.random.default_rng(606)
    blocks = [(1, 1), (2, 2), (4, 4)]
    bad = 0
    checks = 0
    for _ in range(100):
        c = table_rule(rng.normal(size=(20, 20)) + 1j * rng.normal(size=(20, 20)))
        for r1, r2 in ((1, 2), (1, 3), (2, 4), (3, 6)):
            for p in (1.0, 2.0):
                rep = divisor_embedding_check(c, p, r1, r2, blocks)
                bad += len(rep.violations)
                checks += rep.checked
    elapsed = time.perf_counter() - t0
    report(6, "divisor step embedding", bad == 0,
           f"{checks} chain inequalities, violations {bad}", elapsed, 10)


def test_c07_residue_identities():
    t0 = time.perf_counter()
    ns = np.arange(1, 1_000_001)
    weighted = ns * np.log(ns + 1.0) * single_values(ns, 2.0)
    threes = ns % 3 == 1
    ones = (ns % 3 == 2) | ((ns % 3 == 0) & (ns % 6 != 0))
    err3 = float(np.max(np.abs(weighted[threes] - 3.0)))
    err1 = float(np.max(np.abs(weighted[ones] - 1.0)))
    ok = err3 <= 3e-12 and err1 <= 1e-12
    elapsed = time.perf_counter() - t0
    report(7, "residue identities to 10^6", ok,
           f"max dev {max(err3 / 3, err1):.2e} (rel)", elapsed, 5)


def test_c08_divergence_certificate():
    t0 = time.perf_counter()
    cert = divergence_certificate(100_000, 2.0)
    increasing = bool(np.all(np.diff(cert.lower_bounds) > 0))
    growth = float(cert.lower_bounds[100_000] - cert.lower_bounds[100])
    ok = cert.verified and increasing and growth > 0.2
    elapsed = time.perf_counter() - t0
    report(8, "divergence certificate", ok,
           f"S_N >= L_N up to 10^5, L growth over [10^2, 10^5] = {growth:.4f}",
           elapsed, 10)


def test_c09_class_dichotomy():
    t0 = time.perf_counter()
    spec = BoundSpec(BoundFamily.MAX_WINDOW, lam=2, horizon_cap=1 << 15)
    blocks = [(16, 2**t) for t in range(4, 13)]
    c = double_rule(2.0)
    rep_native = membership_scan(c, 2.0, 3, spec, blocks)
    rep_unit = membership_scan(c, 1.0, 3, spec, blocks)
    ns = [2**t for t in range(4, 13)]
    ratios = [violation_ratio(16, n, 2.0, spec, restricted=True) for n in ns]
    slope = float(np.polyfit(np.log2(ns), np.log2(ratios), 1)[0])
    ok = (rep_native.verdict is Verdict.CONSISTENT
          and math.isfinite(rep_native.c_estimate)
          and rep_unit.verdict is Verdict.VIOLATED
          and abs(slope - 0.5) <= 0.15)
    elapsed = time.perf_counter() - t0
    report(9, "class dichotomy", ok,
           f"p=2 consistent (C<={rep_native.c_estimate:.3g}), p=1 violated, "
           f"ratio slope {slope:.3f} within 0.15 of 0.5", elapsed, 60)


def test_c10_convergence_sanity():
    t0 = time.perf_counter()
    geo = regular_remainder_sup(geometric_double_rule(0.5),
                                GridSpec(r=1, points_per_band=3),
                                [10, 20, 30, 40], (4096, 4096))
    prop = regular_remainder_sup(double_rule(2.0),
                                 GridSpec(r=3, points_per_band=2,
                                          exclusion_radius=1e-6),
                                 [8, 16, 24, 40], (8192, 8192))
    target = 2 * math.pi / 3
    worst_entry = prop.entries[-1]
    near_singular = (abs(worst_entry.x - target) <= 2e-6
                     and abs(worst_entry.y - target) <= 2e-6)
    ok = (geo.verdict is ConvergenceVerdict.CONVERGING
          and geo.entries[-1].sup < 1e-6
          and prop.verdict is ConvergenceVerdict.NOT_CONVERGING
          and near_singular)
    elapsed = time.perf_counter() - t0
    report(10, "convergence sanity", ok,
           f"geometric sup@40 {geo.entries[-1].sup:.2e}; proposition "
           f"not-converging at ({worst_entry.x:.6f}, {worst_entry.y:.6f})",
           elapsed, 60)


def test_c11_cli_determinism(tmp_path):
    t0 = time.perf_counter()
    outs = []
    for name in ("first", "second"):
        out = tmp_path / name
        code = cli_main(["counterexample", "certify", "--p", "2",
                         "--n-max", "10000", "--no-plot", "--out", str(out)])
        assert code == 0
        outs.append((out / "certificate.csv").read_bytes())
    ok = outs[0] == outs[1] and len(outs[0]) > 0
    elapsed = time.perf_counter() - t0
    report(11, "CLI determinism", ok,
           f"two runs, {len(outs[0])} bytes, byte-identical", elapsed, 30)
