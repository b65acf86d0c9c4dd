"""Reference computations and output checks for the dgmlab benchmark.

Nothing here imports dgmlab: every reference is computed from the closed
forms of the sequences (or the generated tables) with ``math.fsum`` and
plain numpy, so a check can only pass when the program agrees with an
independent computation or with a property the method must have.

Every check returns a list of problem strings; an empty list means the
output passed.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np

TWO_PI_3 = 2.0 * math.pi / 3.0
SIN_2PI_3 = math.sqrt(3.0) / 2.0

SBP_TOL = 1e-12          # relative error gate of the summation-by-parts identity
DOMINATION_SLACK = 1e-12  # relative slack for "bound >= |sum|"
SUP_RTOL = 1e-9          # reported sup vs the benchmark's own rectangle sums
TAIL_TOL = 1e-12         # additive rules have vanishing mixed differences
CERT_RTOL = 1e-9         # certificate partial sums vs a direct fsum


# ---------------------------------------------------------------------------
# parsing


def parse_csv(data: bytes) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(data.decode())))


# ---------------------------------------------------------------------------
# sequences from their closed forms


def proposition_terms(ns, p: float) -> np.ndarray:
    """a_n of the sharpness example, case by case from its definition."""
    n = np.asarray(ns, dtype=np.int64)
    nf = n.astype(float)
    plain = 1.0 / (nf * np.log(nf + 1.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        six = (1.0 / ((nf - 3.0) * np.log(nf - 2.0))
               + 1.0 / (nf ** (1.0 + 1.0 / p) * np.log(nf + 1.0)))
    return np.select([n % 3 == 1, n % 6 == 0], [3.0 * plain, six], plain)


def factor_terms(rule: dict, ks) -> np.ndarray:
    """One factor of a product rule (geometric, power, proposition)."""
    ks = np.asarray(ks, dtype=np.int64)
    kind = rule["kind"]
    if kind == "geometric":
        return np.array([rule["ratio"] ** k for k in ks.tolist()])
    if kind == "power":
        return np.array([float(k) ** -rule["exponent"] for k in ks.tolist()])
    if kind == "proposition":
        return proposition_terms(ks, rule["p"])
    raise ValueError(f"no factor form for {kind!r}")


def coefficient_table(rule: dict, rows: int, cols: int) -> np.ndarray:
    """c[j, k] for 1 <= j <= rows, 1 <= k <= cols (index 0 is j = 1)."""
    kind = rule["kind"]
    if kind == "separable":
        q = rule["ratio"]
        u = np.array([q ** j for j in range(1, rows + 1)])
        v = np.array([q ** k for k in range(1, cols + 1)])
        return u[:, None] + v[None, :]
    if kind == "table":
        out = np.zeros((rows, cols))
        t = np.asarray(rule["table"], dtype=float)
        r, c = min(rows, t.shape[0]), min(cols, t.shape[1])
        out[:r, :c] = t[:r, :c]
        return out
    u = factor_terms(rule, np.arange(1, rows + 1))
    v = factor_terms(rule, np.arange(1, cols + 1))
    return np.outer(u, v)


def _sine_sum(coeffs, ks, x: float) -> float:
    return math.fsum(float(a) * math.sin(k * x) for a, k in zip(coeffs, ks))


def rectangle_sum(rule: dict, m: int, M: int, n: int, N: int, x: float, y: float) -> float:
    """``sum_{j=m}^{M} sum_{k=n}^{N} c_jk sin(jx) sin(ky)``, exactly rounded per factor."""
    js = list(range(m, M + 1))
    ks = list(range(n, N + 1))
    kind = rule["kind"]
    if kind == "separable":
        q = rule["ratio"]
        ones_j, ones_k = [1.0] * len(js), [1.0] * len(ks)
        gj = [q ** j for j in js]
        gk = [q ** k for k in ks]
        return (_sine_sum(gj, js, x) * _sine_sum(ones_k, ks, y)
                + _sine_sum(ones_j, js, x) * _sine_sum(gk, ks, y))
    if kind == "table":
        c = coefficient_table(rule, M, N)
        return math.fsum(float(c[j - 1, k - 1]) * math.sin(j * x) * math.sin(k * y)
                         for j in js for k in ks)
    return (_sine_sum(factor_terms(rule, js), js, x)
            * _sine_sum(factor_terms(rule, ks), ks, y))


def grid_abscissas(r: int, points_per_band: int, exclusion: float,
                   upper: float = math.pi) -> list[float]:
    """Interior points of each band between the singular points 2*l*pi/r,
    plus one point an exclusion radius inside each singular band edge."""
    singular = [2 * l * math.pi / r for l in range(r + 1) if 2 * l * math.pi / r <= upper + 1e-12]
    edges = sorted(set(singular) | {0.0, upper})
    pts = []
    for lo, hi in zip(edges, edges[1:]):
        width = hi - lo
        pts += [lo + width * (i + 1) / (points_per_band + 1) for i in range(points_per_band)]
        if lo in singular:
            pts.append(lo + exclusion)
        if hi in singular:
            pts.append(hi - exclusion)
    return sorted(set(pts))


def brute_force_sups(coeffs: np.ndarray, xs: list[float],
                     thresholds: list[int]) -> list[float]:
    """sup |rectangle sum| over every rectangle with m + n > t and every
    (x, y) in xs^2, enumerating all (m, M) strips against all (n, N)."""
    cap_m, cap_n = coeffs.shape
    js = np.arange(1, cap_m + 1)
    ks = np.arange(1, cap_n + 1)
    ms, Ms = np.triu_indices(cap_m)          # 0-based m-1, M-1 with M >= m
    best = [0.0] * len(thresholds)
    for x in xs:
        for y in xs:
            t = coeffs * np.outer(np.sin(js * x), np.sin(ks * y))
            pref = np.zeros((cap_m + 1, cap_n + 1))
            pref[1:, 1:] = np.cumsum(np.cumsum(t, axis=0), axis=1)
            strips = pref[Ms + 1] - pref[ms]   # strip (m, M): column prefix over k
            # start_best[s, n-1] = max over N >= n of |strip sum over [n, N]|
            start_best = np.empty((strips.shape[0], cap_n))
            for n in range(1, cap_n + 1):
                rect = strips[:, n:] - strips[:, n - 1:n]
                start_best[:, n - 1] = np.max(np.abs(rect), axis=1)
            f = np.zeros((cap_m, cap_n))      # f[m-1, n-1]: best over M and N
            np.maximum.at(f, ms, start_best)
            sums = (np.arange(1, cap_m + 1)[:, None] + np.arange(1, cap_n + 1)[None, :])
            for i, th in enumerate(thresholds):
                sel = f[sums > th]
                if sel.size:
                    best[i] = max(best[i], float(sel.max()))
    return best


# ---------------------------------------------------------------------------
# identities workload


def direct_sine_sum(coeffs: np.ndarray, n: int, x: float) -> complex:
    """``sum_k a_k sin(kx)`` over k = n, n+1, ... with exactly rounded parts."""
    sines = [math.sin(k * x) for k in range(n, n + len(coeffs))]
    return complex(math.fsum(a.real * s for a, s in zip(coeffs.tolist(), sines)),
                   math.fsum(a.imag * s for a, s in zip(coeffs.tolist(), sines)))


def check_sbp(total: complex, want: complex, where: str) -> list[str]:
    err = abs(total - want) / (1.0 + abs(want))
    return [] if err <= SBP_TOL else [f"{where}: SBP identity off by {err:.3e}"]


def check_direct(got: complex, want: complex, where: str) -> list[str]:
    err = abs(got - want) / (1.0 + abs(want))
    return [] if err <= SBP_TOL else [f"{where}: direct_sine_sum off by {err:.3e}"]


def check_domination(bound: float, want: complex, where: str) -> list[str]:
    if abs(want) <= bound * (1.0 + DOMINATION_SLACK):
        return []
    return [f"{where}: partial-sum bound {bound!r} below |sum| {abs(want)!r}"]


def check_embedding(ok: bool, checked: int, violations: int, blocks: int,
                    where: str) -> list[str]:
    problems = []
    if not ok or violations:
        problems.append(f"{where}: {violations} embedding violations")
    if checked != 3 * blocks:
        problems.append(f"{where}: checked {checked}, expected {3 * blocks}")
    return problems


# ---------------------------------------------------------------------------
# remainder workload


def verdict_of(stdout: str) -> str:
    """Second word of the one-line verdict (``converge: converging at ...``)."""
    parts = stdout.split()
    return parts[1] if len(parts) > 1 else ""


def check_profile(rows: list[dict[str, str]], rule: dict, cap: int,
                  thresholds: list[int]) -> list[str]:
    """Sups nonincreasing in the threshold, thresholds as asked, and each
    sup at least |sum| over the rectangle [m, cap] x [n, cap]."""
    problems = []
    got_t = [int(r["threshold"]) for r in rows]
    if got_t != list(thresholds):
        problems.append(f"thresholds {got_t} != {thresholds}")
        return problems
    sups = [float(r["sup"]) for r in rows]
    for a, b in zip(sups, sups[1:]):
        if b > a * (1.0 + 1e-12) + 1e-15:
            problems.append(f"sup increases with threshold: {a!r} -> {b!r}")
    for row, t in zip(rows, thresholds):
        m, n = int(row["m"]), int(row["n"])
        if m == n == 0:
            # no rectangle inside the caps lies beyond t: the sup is empty
            if float(row["sup"]) != 0.0:
                problems.append(f"t={t}: empty sup reads {row['sup']}")
            continue
        if m + n <= t:
            problems.append(f"t={t}: maximizer (m={m}, n={n}) is not beyond the threshold")
            continue
        own = abs(rectangle_sum(rule, m, cap, n, cap, float(row["x"]), float(row["y"])))
        if float(row["sup"]) < own * (1.0 - SUP_RTOL) - 1e-15:
            problems.append(f"t={t}: sup {row['sup']} below |rectangle sum| {own!r}")
    return problems


def check_divergent_point(rows: list[dict[str, str]]) -> list[str]:
    last = rows[-1]
    x, y = float(last["x"]), float(last["y"])
    if abs(x - TWO_PI_3) <= 2e-6 and abs(y - TWO_PI_3) <= 2e-6:
        return []
    return [f"worst point ({x!r}, {y!r}) is not within 2e-6 of (2pi/3, 2pi/3)"]


def check_brute_force(rows: list[dict[str, str]], rule: dict, cap: int,
                      grid: tuple[int, int, float]) -> list[str]:
    thresholds = [int(r["threshold"]) for r in rows]
    want = brute_force_sups(coefficient_table(rule, cap, cap),
                            grid_abscissas(*grid), thresholds)
    problems = []
    for row, w in zip(rows, want):
        got = float(row["sup"])
        if abs(got - w) > SUP_RTOL * max(abs(w), 1e-300) + 1e-15:
            problems.append(f"t={row['threshold']}: exact sup {got!r} != brute force {w!r}")
    return problems


# ---------------------------------------------------------------------------
# scans workload


def _windows(values: np.ndarray) -> np.ndarray:
    """w[M-1] = sum_{i=M}^{2M} values[i-1] for M = 1..len(values); zero beyond."""
    pref = np.concatenate(([0.0], np.cumsum(values)))
    starts = np.arange(1, len(values) + 1)
    return pref[np.minimum(2 * starts, len(values))] - pref[starts - 1]


def skinny_rhs(table: np.ndarray, m: int, n: int, lam: int) -> dict[str, float]:
    """Sup-window right-hand sides of a finite table, from its support box.

    Windows starting beyond the support sum to zero, so the suprema over
    the unbounded frontier are attained inside the box.
    """
    a = np.abs(np.asarray(table, dtype=float))
    rows, cols = a.shape
    b = lambda l: max(1, l // lam)  # noqa: E731 - the default window anchor
    row_w = _windows(a[:, n - 1] if n <= cols else np.zeros(rows))
    col_w = _windows(a[m - 1, :] if m <= rows else np.zeros(cols))
    lo_sum = max(2, b(m + n))
    mixed = 0.0
    for M in range(1, rows + 1):
        w = _windows(a[M - 1:2 * M, :].sum(axis=0))
        first = max(1, lo_sum - M)
        if first <= cols:
            mixed = max(mixed, float(w[first - 1:].max()))
    return {"row": float(row_w[b(m) - 1:].max(initial=0.0)) / m,
            "col": float(col_w[b(n) - 1:].max(initial=0.0)) / n,
            "mixed": mixed / (m * n)}


def check_skinny(rows: list[dict[str, str]], table: np.ndarray, lam: int) -> list[str]:
    problems = []
    cache = {}
    for row in rows:
        m, n = int(row["m"]), int(row["n"])
        if (m, n) not in cache:
            cache[(m, n)] = skinny_rhs(table, m, n, lam)
        want = cache[(m, n)][row["axis"]]
        got = float(row["rhs"])
        if abs(got - want) > 1e-12 * max(abs(want), 1.0):
            problems.append(f"block ({m},{n}) {row['axis']}: rhs {got!r} != window sum {want!r}")
        if row["truncated"] != "false":
            problems.append(f"block ({m},{n}) {row['axis']}: truncated on a finite table")
    return problems


def check_tails(rows: list[dict[str, str]]) -> list[str]:
    worst = max(abs(float(r["value"])) for r in rows)
    return [] if worst <= TAIL_TOL else [f"additive mixed-difference tail {worst!r} > {TAIL_TOL}"]


def check_kernel(rows: list[dict[str, str]], r: int) -> list[str]:
    problems = []
    if len(rows) != r:
        problems.append(f"{len(rows)} half-bands, expected {r}")
    for row in rows:
        if float(row["max_ratio"]) > 1.0 or int(row["violations"]) != 0:
            problems.append(f"half-band {row['band']}/{row['half']}: ratio {row['max_ratio']} "
                            f"violations {row['violations']}")
    return problems


def certificate_partial_sum(N: int, p: float) -> float:
    """S_N = sum_{k=1}^{6N+5} a_k sin(2 pi k / 3), directly."""
    ks = np.arange(1, 6 * N + 6)
    a = proposition_terms(ks, p)
    sines = np.array([0.0, SIN_2PI_3, -SIN_2PI_3])[ks % 3]
    return math.fsum((a * sines).tolist())


def check_certificate(data: bytes, p: float, n_max: int, samples: list[int]) -> list[str]:
    """Columns N, partial_sum, lower_bound, margin: every margin >= 0 and
    sampled partial sums equal to a direct fsum."""
    text = data.decode()
    header, _, body = text.partition("\n")
    if header.split(",") != ["N", "partial_sum", "lower_bound", "margin"]:
        return [f"unexpected certificate header {header!r}"]
    table = np.array(body.replace("\n", ",").split(",")[:-1], dtype=float).reshape(-1, 4)
    if table.shape[0] != n_max + 1 or not np.array_equal(table[:, 0], np.arange(n_max + 1)):
        return [f"certificate rows do not run N = 0..{n_max}"]
    problems = []
    negative = np.flatnonzero(table[:, 3] < 0.0)
    if negative.size:
        problems.append(f"negative margin at N={negative[0]} ({negative.size} rows)")
    for N in samples:
        want = certificate_partial_sum(N, p)
        got = float(table[N, 1])
        if abs(got - want) > CERT_RTOL * abs(want):
            problems.append(f"S_{N} = {got!r}, direct fsum {want!r}")
    return problems


def violation_ratio(n: int, p: float, m: int, lam: int = 2) -> float:
    """Column ratio of c_mn = a_m a_n at block (m, n): the step-3 difference
    1-norm over [n, 2n) against the max-window bound with anchor n // lam."""
    a = proposition_terms(np.arange(1, 4 * n + 8), p)   # a[k-1] = a_k
    a_m = float(proposition_terms([m], p)[0])
    lhs = a_m * math.fsum(abs(a[k - 1] - a[k + 2]) for k in range(n, 2 * n))
    b = max(1, n // lam)
    window = max(math.fsum(a[N - 1:2 * N]) for N in range(b, lam * b + 1))
    return lhs / (a_m * window / n)


def check_ratio(rows: list[dict[str, str]], p: float, m: int) -> list[str]:
    problems = []
    ratios = [float(r["ratio"]) for r in rows]
    for row, got in zip(rows, ratios):
        want = violation_ratio(int(row["n"]), p, m)
        if abs(got - want) > 1e-9 * want:
            problems.append(f"n={row['n']}: ratio {got!r}, direct {want!r}")
    if not ratios[-1] > 2.0 * ratios[0]:
        problems.append(f"violation ratio does not grow: {ratios}")
    return problems
