"""The benchmark's workloads: seeded operation lists and how each is checked.

A workload is a list of operations that one round runs back to back.
Every input is drawn from the workload seed, and only values are drawn:
sizes, caps and step widths are fixed, so the work per round is the same
for every seed.  The same seed gives the same operations, so every round
of a run must produce byte-identical outputs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks

# the small real table of the `remainder` workload: every rectangle beyond
# its 2x2 support sums to zero, so it must read as converging
TINY_TABLE = [(1, 1, 0.5), (1, 2, 0.25), (2, 1, 0.25), (2, 2, 0.125)]

SKINNY_SHAPE = (4, 2000)
SKINNY_BLOCKS = "1:3"
CERT_N_MAX = 500_000
KERNEL = {"r": 5, "points": 5000, "k_max": 1000}
CONVERGE_GRID = (3, 2, 1e-6)  # CLI default grid: r=3, 2 points per band, exclusion 1e-6


@dataclass
class Op:
    """One CLI run (or the identities batch) and what its output must satisfy.

    ``expect`` is the exit code a correct run returns.  An op with
    ``known_fault`` set is expected to fail until that fault is mended;
    its failure is counted, not treated as a wrong answer.
    """

    name: str
    argv: list[str]
    expect: int
    check: str
    params: dict = field(default_factory=dict)
    outputs: tuple[str, ...] = ()
    known_fault: str = ""


def _converge(name, seq_argv, rule, cap, thresholds, expect, check, **extra):
    argv = ["converge", *seq_argv, "--cap", str(cap),
            "--thresholds", ",".join(map(str, thresholds)), *extra.pop("argv", [])]
    params = {"rule": rule, "cap": cap, "thresholds": thresholds, **extra}
    return Op(name, argv, expect, check, params, ("profile.csv",))


def remainder_ops(seed: int, workdir: Path) -> list[Op]:
    rng = random.Random(seed * 7919 + 11)
    q = round(rng.uniform(0.3, 0.6), 6)
    p = round(rng.uniform(1.5, 3.0), 6)
    e = round(rng.uniform(2.0, 3.0), 6)
    q_sep = round(rng.uniform(0.3, 0.7), 6)
    tiny = workdir / "tiny_table.csv"
    tiny.write_text("".join(f"{j},{k},{v!r}\n" for j, k, v in TINY_TABLE))
    geo = {"kind": "geometric", "ratio": q}
    prop = {"kind": "proposition", "p": p}
    power = {"kind": "power", "exponent": e}
    sep = {"kind": "separable", "ratio": q_sep}
    grid_r1 = ["--grid", "r=1,points=3"]
    return [
        _converge("geometric-r1", ["--seq", "geometric", "--ratio", str(q), *grid_r1], geo,
                  8192, [10, 20, 30, 40], 0, "converging"),
        _converge("proposition-r3", ["--seq", "proposition", "--p", str(p), "--grid", "r=3"],
                  prop, 8192, [8, 16, 24, 40], 1, "diverging"),
        _converge("proposition-small", ["--seq", "proposition", "--p", str(p), "--grid", "r=3"],
                  prop, 64, [8, 16, 24, 40], 2, "brute-force"),
        _converge("power-r1", ["--seq", "power", "--exponent", str(e), *grid_r1], power,
                  8192, [100, 200, 400, 800], 0, "converging"),
        _converge("power-r3", ["--seq", "power", "--exponent", str(e), "--grid", "r=3"], power,
                  16384, [200, 400, 800, 1600], 0, "converging"),
        _converge("rational-1-1", ["--seq", "proposition", "--p", str(p), "--grid-r", "3"],
                  prop, 8192, [8, 16, 24, 40], 1, "rational", argv=["--at-rational", "1,1"]),
        _converge("separable-general", ["--seq", "separable", "--ratio", str(q_sep)], sep,
                  48, [8, 16, 24, 40], 1, "brute-force"),
        _converge("separable-sampled", ["--seq", "separable", "--ratio", str(q_sep)], sep,
                  1448, [8, 16, 24, 40], 1, "sampled"),
        Op("table-2x2", ["converge", "--seq", "table", "--table-file", str(tiny),
                         "--cap", "64"], 0, "tiny-table",
           {"rule": {"kind": "table", "table": [[0.5, 0.25], [0.25, 0.125]]}, "cap": 64,
            "thresholds": [8, 16, 24, 40]},
           ("profile.csv",),
           known_fault="the CLI loads every table as complex, so a real table "
                       "takes the sampled remainder path and reads inconclusive"),
    ]


def scans_ops(seed: int, workdir: Path) -> list[Op]:
    rng = random.Random(seed * 104729 + 3)
    gen = np.random.default_rng([seed, 17])
    skinny = gen.uniform(-1.0, 1.0, size=SKINNY_SHAPE)
    path = workdir / "skinny_table.csv"
    path.write_text("".join(f"{j + 1},{k + 1},{float(skinny[j, k])!r}\n"
                            for j in range(skinny.shape[0]) for k in range(skinny.shape[1])))
    q = round(rng.uniform(0.3, 0.7), 6)
    p_cert = round(rng.uniform(1.5, 3.0), 6)
    p_ratio = round(rng.uniform(1.5, 3.0), 6)
    samples = sorted({0, 1, CERT_N_MAX} | {rng.randrange(2, 2000) for _ in range(4)}
                     | {rng.randrange(2000, 60_000) for _ in range(2)})
    prop = ["--seq", "proposition", "--r", "3", "--family", "max-window",
            "--octaves", "4:12", "--fixed-m", "16"]
    return [
        Op("dichotomy-p1", ["membership", *prop, "--p", "1"], 1, "none",
           outputs=("membership.csv",)),
        Op("dichotomy-p2", ["membership", *prop, "--p", "2"], 0, "none",
           outputs=("membership.csv",)),
        Op("skinny-sup-window", ["membership", "--seq", "table", "--table-file", str(path),
                                 "--family", "sup-window", "--p", "1", "--r", "1",
                                 "--octaves", SKINNY_BLOCKS], 0, "skinny",
           {"table": skinny.tolist(), "lam": 2}, ("membership.csv",)),
        Op("mixed-diff-tail", ["decay", "--seq", "separable", "--ratio", str(q),
                               "--condition", "mixed-diff-tail", "--horizon", "512",
                               "--thresholds", "16,64,256,512"], 0, "tails",
           outputs=("decay.csv",)),
        Op("kernel-bound", ["kernel-bound", "--r", str(KERNEL["r"]),
                            "--points", str(KERNEL["points"]),
                            "--k-max", str(KERNEL["k_max"])], 0, "kernel",
           {"r": KERNEL["r"]}, ("kernel_bound.csv",)),
        Op("certify", ["counterexample", "certify", "--p", str(p_cert),
                       "--n-max", str(CERT_N_MAX)], 0, "certificate",
           {"p": p_cert, "n_max": CERT_N_MAX, "samples": samples}, ("certificate.csv",)),
        Op("ratio", ["counterexample", "ratio", "--seq-p", str(p_ratio),
                     "--octaves", "4:12", "--fixed-m", "16"], 1, "ratio",
           {"p": p_ratio, "m": 16}, ("ratio.csv",)),
    ]


def identities_op(seed: int) -> Op:
    return Op("identities", [], 0, "identities", {"seed": seed})


def check_op(op: Op, code: int, stdout: str, files: dict[str, bytes]) -> list[str]:
    """Problems with one op's output (exit code, verdict line and tables)."""
    problems = []
    if code != op.expect:
        problems.append(f"exit code {code}, expected {op.expect}: {stdout.strip()[:200]}")
    if op.check in ("none", "identities"):
        return problems
    prm = op.params
    if op.check == "certificate":
        return problems + checks.check_certificate(files["certificate.csv"], prm["p"],
                                                   prm["n_max"], prm["samples"])
    rows = {name: checks.parse_csv(data) for name, data in files.items()}
    if op.check == "skinny":
        return problems + checks.check_skinny(rows["membership.csv"],
                                              np.asarray(prm["table"]), prm["lam"])
    if op.check == "tails":
        return problems + checks.check_tails(rows["decay.csv"])
    if op.check == "kernel":
        return problems + checks.check_kernel(rows["kernel_bound.csv"], prm["r"])
    if op.check == "ratio":
        return problems + checks.check_ratio(rows["ratio.csv"], prm["p"], prm["m"])

    # remainder profiles
    profile = rows["profile.csv"]
    verdict = checks.verdict_of(stdout)
    exact = "exact=true" in stdout
    want_verdict = {0: "converging", 1: "not-converging", 2: "inconclusive"}[op.expect]
    if verdict != want_verdict:
        problems.append(f"verdict {verdict!r}, expected {want_verdict!r}")
    if exact != (op.check != "sampled"):
        problems.append(f"exact flag {exact}, expected {op.check != 'sampled'}")
    cap = min(prm["cap"], 2048) if op.check == "sampled" else prm["cap"]
    problems += checks.check_profile(profile, prm["rule"], cap, prm["thresholds"])
    if op.check in ("diverging", "rational"):
        problems += checks.check_divergent_point(profile)
    if op.check == "brute-force":
        problems += checks.check_brute_force(profile, prm["rule"], cap, CONVERGE_GRID)
    if op.check == "tiny-table" and any(float(r["sup"]) != 0.0 for r in profile):
        problems.append("a rectangle beyond the table's support has a nonzero sum")
    return problems
