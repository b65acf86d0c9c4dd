"""The `identities` workload: many small library calls in one process.

Summation by parts, the partial-sum envelope and the direct sine sum on
every half-band of seeded random complex sequences, then the p-norm and
step embedding checks on seeded random complex tables.  The structure of
the inputs (steps, lengths, points per half-band, table shapes) depends
only on the case index, so every seed does the same amount of work.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

import checks

CASES = 100
POINTS_PER_HALF_BAND = 25
TABLES = 40
TABLE_SHAPE = (40, 40)
BLOCKS = [(1, 1), (2, 2), (4, 4), (8, 8), (16, 16), (2, 8), (8, 2), (4, 16), (16, 4)]


def make_inputs(seed: int):
    rng = np.random.default_rng([seed, 5])
    cases = []
    for i in range(CASES):
        r = 1 + i % 5
        n = 1 + (7 * i) % 50
        m = n + 49 + (37 * i) % 150
        coeffs = rng.normal(size=m + r) + 1j * rng.normal(size=m + r)  # a_1 .. a_{m+r}
        xs = []
        for h in range(r):  # every half-band (h pi / r, (h+1) pi / r) of (0, pi]
            lo, hi = h * math.pi / r, (h + 1) * math.pi / r
            xs += (lo + (hi - lo) * rng.uniform(0.05, 0.95, POINTS_PER_HALF_BAND)).tolist()
        cases.append((r, n, m, coeffs, xs))
    tables = []
    for i in range(TABLES):
        table = rng.normal(size=TABLE_SHAPE) + 1j * rng.normal(size=TABLE_SHAPE)
        p1 = float(rng.uniform(0.5, 2.0))
        p2 = p1 + float(rng.uniform(0.0, 3.0))
        p = float(rng.uniform(1.0, 3.0))
        r1 = 1 + i % 2
        tables.append((table, 1 + i % 4, p1, p2, p, r1, r1 * (2 + i % 2)))
    return cases, tables


def run(dg, cases, tables):
    """The timed library calls; returns their outputs and the call count."""
    sums = []
    for r, n, m, coeffs, xs in cases:
        seq = dg.rule_from_values(coeffs)
        for x in xs:
            total = dg.sbp_decompose(seq, n, m, r, x).total
            direct = dg.direct_sine_sum(seq, n, m, x)
            bound = dg.partial_sum_bound(seq, n, m, r, x).value
            sums.append((total, direct, bound))
    embeddings = []
    for table, r, p1, p2, p, r1, r2 in tables:
        c = dg.table_rule(table)
        a = dg.embedding_check(c, r, p1, p2, BLOCKS)
        b = dg.divisor_embedding_check(c, p, r1, r2, BLOCKS)
        embeddings.append(((a.ok, a.checked, len(a.violations)),
                           (b.ok, b.checked, len(b.violations))))
    return sums, embeddings, 3 * len(sums) + 2 * len(embeddings)


def digest(sums, embeddings) -> str:
    return hashlib.sha256(repr((sums, embeddings)).encode()).hexdigest()


def check(cases, sums, embeddings) -> list[str]:
    problems = []
    it = iter(sums)
    for i, (r, n, m, coeffs, xs) in enumerate(cases):
        for x in xs:
            total, direct, bound = next(it)
            want = checks.direct_sine_sum(coeffs[n - 1:m], n, x)
            where = f"case {i} (r={r}, n={n}, m={m}, x={x!r})"
            problems += checks.check_sbp(total, want, where)
            problems += checks.check_direct(direct, want, where)
            problems += checks.check_domination(bound, want, where)
    for i, (pnorm, step) in enumerate(embeddings):
        problems += checks.check_embedding(*pnorm, len(BLOCKS), f"table {i} p-norm")
        problems += checks.check_embedding(*step, len(BLOCKS), f"table {i} step")
    return problems
