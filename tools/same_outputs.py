#!/usr/bin/env python3
"""Compare the CLI outputs of two dgmlab checkouts, byte for byte.

    python tools/same_outputs.py PARENT CHANGE

Each command runs once per checkout, in a fresh process with
``PYTHONPATH=<checkout>/src``.  Both sides run in a working directory of
the same relative layout, holding the same table files, so labels such as
``table(data.csv)`` match.  The exit code, stdout, stderr and the sha256
of every output file are compared.  One line is printed per command that
differs, and the exit code is 1 if any differs, else 0.

The list holds the README examples of CHANGE, with ``data.csv`` a seeded
20x20 real table and ``complex.csv`` a seeded 12x9 complex one; the argv
shapes of the benchmark's ``remainder`` and ``scans`` operations at fixed
values; scans and embedding checks on six rules; a direct sine sum past
its compensated-sum length; runs that read each of the three readings of
the membership, convergence, decay and ratio verdicts, among them known
wrong verdicts from truncated tails, unreached paths and a short fit; the
five tail conditions on three product rules at steps 1 and 3; eight
refusals; and ``--help`` of the program and of each subcommand.  Standard
library only.
"""

from __future__ import annotations

import hashlib
import os
import random
import re
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

README_BLOCK = re.compile(r"```sh\n(.*?)```", re.S)

TINY = "1,1,0.5\n1,2,0.25\n2,1,0.25\n2,2,0.125\n"
TINY_COMPLEX = "1,1,0.5,0.1\n1,2,0.25\n2,1,0.25\n2,2,0.125\n"

PROP = ["--seq", "proposition", "--r", "3", "--family", "max-window",
        "--octaves", "4:12", "--fixed-m", "16"]

RULES = {
    "geometric": ["--seq", "geometric", "--ratio", "0.45"],
    "power": ["--seq", "power", "--exponent", "2.5"],
    "separable": ["--seq", "separable", "--ratio", "0.5"],
    "proposition": ["--seq", "proposition", "--p", "2.25"],
    "real-table": ["--seq", "table", "--table-file", "data.csv"],
    "complex-table": ["--seq", "table", "--table-file", "complex.csv"],
}


def _converge(rule: str, cap: int, thresholds: str, *extra: str) -> list[str]:
    return ["converge", *RULES[rule], "--cap", str(cap), "--thresholds", thresholds, *extra]


# (name, argv) of the commands that are not README examples
EXTRA = [
    # the benchmark's `remainder` operations
    ("remainder geometric-r1", _converge("geometric", 8192, "10,20,30,40", "--grid", "r=1,points=3")),
    ("remainder proposition-r3", _converge("proposition", 8192, "8,16,24,40", "--grid", "r=3")),
    ("remainder proposition-small", _converge("proposition", 64, "8,16,24,40", "--grid", "r=3")),
    ("remainder power-r1", _converge("power", 8192, "100,200,400,800", "--grid", "r=1,points=3")),
    ("remainder power-r3", _converge("power", 16384, "200,400,800,1600", "--grid", "r=3")),
    ("remainder rational-1-1", _converge("proposition", 8192, "8,16,24,40", "--grid-r", "3",
                                         "--at-rational", "1,1")),
    ("remainder separable-general", _converge("separable", 48, "8,16,24,40")),
    ("remainder separable-sampled", _converge("separable", 1448, "8,16,24,40")),
    ("remainder table-2x2", ["converge", "--seq", "table", "--table-file", "tiny.csv",
                             "--cap", "64"]),
    # the benchmark's `scans` operations
    ("scans dichotomy-p1", ["membership", *PROP, "--p", "1"]),
    ("scans dichotomy-p2", ["membership", *PROP, "--p", "2"]),
    ("scans sup-window", ["membership", *RULES["real-table"], "--family", "sup-window",
                          "--p", "1", "--r", "1", "--octaves", "1:3"]),
    ("scans mixed-diff-tail", ["decay", *RULES["separable"], "--condition", "mixed-diff-tail",
                               "--horizon", "512", "--thresholds", "16,64,256,512"]),
    ("scans kernel-bound", ["kernel-bound", "--r", "5", "--points", "5000", "--k-max", "1000"]),
    ("scans certify", ["counterexample", "certify", "--p", "2.25", "--n-max", "500000"]),
    ("scans ratio", ["counterexample", "ratio", "--seq-p", "2.25", "--octaves", "4:12",
                     "--fixed-m", "16"]),
    # a direct sine sum long enough for compensated accumulation
    ("sbp 150000 terms", ["sbp", "--seq", "power", "--exponent", "0.5", "--start", "1",
                          "--end", "150000", "--r", "3", "--x", "1.0"]),
    ("ratio restricted", ["counterexample", "ratio", "--seq-p", "3", "--octaves", "4:10",
                          "--restricted"]),
    # a blank line before the header, and an exclusion radius out of range
    ("table after a blank line", ["membership", "--seq", "table", "--table-file",
                                  "blank-header.csv", "--blocks", "2x2,4x4"]),
    ("exclusion 0", ["converge", *RULES["geometric"], "--exclusion", "0"]),
    # a cap below the largest threshold and thresholds out of order
    ("cap below a threshold", ["converge", "--cap", "16", "--thresholds", "8,16,24,40"]),
    ("rational thresholds out of order", ["converge", "--grid-r", "3", "--at-rational", "1,1",
                                          "--thresholds", "16,8", "--cap", "64"]),
    ("decay thresholds out of order", ["decay", "--horizon", "64", "--thresholds", "16,8"]),
    ("decay thresholds past the horizon", ["decay", "--horizon", "64",
                                           "--thresholds", "16,8000"]),
    ("decay thresholds not positive", ["decay", "--horizon", "64", "--thresholds=-8,0"]),
    ("decay thresholds not positive, no anchor", ["decay", "--horizon", "1",
                                                  "--thresholds=-3,0"]),
    # a product rule's five tails, read from factor arrays taken once
    *((f"decay {rule} {cond} r={r}", ["decay", *RULES[rule], "--condition", cond,
                                      "--horizon", "2048", "--r", str(r),
                                      "--thresholds", "16,64,256,1024"])
      for rule in ("proposition", "geometric", "power")
      for cond in ("row-tail", "col-tail", "mixed-diff-tail", "row-diff-tail", "col-diff-tail")
      for r in (1, 3)),
    # each family's three readings: a sampled sup below the tolerance (inconclusive) ...
    ("converge complex 2x2", ["converge", "--seq", "table", "--table-file", "tiny-complex.csv",
                              "--cap", "64"]),
    # ... truncated diff tails and paths that do not reach the thresholds (decaying),
    # a flat tail (not decaying) and a zero last tail without an envelope (inconclusive) ...
    *((f"decay truncated {cond}", ["decay", "--seq", "power", "--exponent", "1",
                                   "--condition", cond, "--p", "1", "--r", "1",
                                   "--horizon", "1024", "--thresholds", thresholds])
      for cond, thresholds in (("mixed-diff-tail", "16,256,1024"),
                               ("row-diff-tail", "16,256,1900"))),
    *((f"decay unreached paths {cond}", ["decay", *RULES["separable"], "--condition", cond,
                                         "--horizon", "2048",
                                         "--thresholds", "16,64,256,1024,4096"])
      for cond in ("jk", "loglog", "row-tail")),
    ("decay proposition row-tail", ["decay", "--seq", "proposition", "--condition", "row-tail"]),
    # ... a growth fit over too few octaves (consistent) and bounds past the cap (inconclusive) ...
    ("membership short octaves", ["membership", *PROP[:-4], "--p", "1", "--octaves", "4:9",
                                  "--fixed-m", "16"]),
    ("membership past the cap", ["membership", *RULES["power"], "--family", "sup-window",
                                 "--cap", "4", "--blocks", "64x64"]),
    # ... and a bounded ratio, and infinite ratios past the cap (inconclusive)
    ("ratio bounded", ["counterexample", "ratio", "--norm-exponent", "2.25"]),
    ("ratio past the cap", ["counterexample", "ratio", "--seq-p", "2", "--octaves", "4:18"]),
    ("help", ["--help"]),
] + [
    (f"help {command}", [command, "--help"])
    for command in ("membership", "embedding", "sbp", "kernel-bound", "converge", "decay",
                    "log-integral", "counterexample")
] + [
    (f"{kind} {rule}", [kind.split()[0], *argv, *args])
    for rule, argv in RULES.items()
    for kind, args in (
        ("membership", ["--family", "max-window", "--octaves", "1:4", "--p", "1.5", "--r", "2"]),
        ("membership mean-value", ["--family", "mean-value", "--blocks", "2x2,4x8,8x4",
                                   "--p", "1", "--r", "3"]),
        ("embedding p-norm", ["--p1", "0.8", "--p2", "2.5", "--r", "2", "--octaves", "0:4"]),
        ("embedding step", ["--p", "1.5", "--r1", "2", "--r2", "6", "--octaves", "0:4"]),
    )
] + [
    # the rules with a single-sequence form
    (f"membership single {rule}", ["membership", "--single", *RULES[rule],
                                   "--family", "sup-window", "--octaves", "1:6",
                                   "--p", "1", "--r", "3"])
    for rule in ("geometric", "power", "proposition")
]


def readme_commands(root: Path) -> list[tuple[str, list[str]]]:
    """Every ``dgmlab`` command of the README's ``sh`` blocks, as argv lists."""
    out = []
    for block in README_BLOCK.findall((root / "README.md").read_text()):
        for line in block.replace("\\\n", " ").splitlines():
            argv = shlex.split(line, comments=True)
            if argv and argv[0] == "dgmlab":
                out.append(("README " + " ".join(argv[1:]), argv[1:]))
                if "data.csv" in argv:
                    alt = ["complex.csv" if a == "data.csv" else a for a in argv[1:]]
                    out.append(("README " + " ".join(alt), alt))
    return out


def write_tables(work: Path) -> None:
    rng = random.Random(20)
    (work / "data.csv").write_text("".join(
        f"{j},{k},{rng.uniform(-1.0, 1.0)!r}\n" for j in range(1, 21) for k in range(1, 21)))
    rng = random.Random(12)
    (work / "complex.csv").write_text("j,k,re,im\n" + "".join(
        f"{j},{k},{rng.gauss(0.0, 1.0)!r},{rng.gauss(0.0, 1.0)!r}\n"
        for j in range(1, 13) for k in range(1, 10)))
    (work / "tiny.csv").write_text(TINY)
    (work / "tiny-complex.csv").write_text(TINY_COMPLEX)
    (work / "blank-header.csv").write_text("\nj,k,re\n" + TINY)


def run(root: Path, work: Path, index: int, argv: list[str]) -> tuple:
    """Exit code, stdout, stderr and the sha256 of each output file of one run."""
    out = Path("out") / str(index)
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    proc = subprocess.run([sys.executable, "-m", "dgmlab.cli", *argv, "--out", str(out)],
                          cwd=work, env=env, capture_output=True, timeout=600)
    files = {}
    if (work / out).is_dir():
        for path in sorted((work / out).rglob("*")):
            if path.is_file():
                files[str(path.relative_to(work / out))] = hashlib.sha256(
                    path.read_bytes()).hexdigest()
    return proc.returncode, proc.stdout, proc.stderr, files


def differences(a: tuple, b: tuple) -> list[str]:
    parts = []
    for label, x, y in zip(("exit code", "stdout", "stderr"), a, b):
        if x != y:
            parts.append(f"{label} {x!r} -> {y!r}" if label == "exit code" else label)
    files_a, files_b = a[3], b[3]
    for name in sorted(files_a.keys() | files_b.keys()):
        if files_a.get(name) != files_b.get(name):
            parts.append(f"file {name}")
    return parts


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: same_outputs.py PARENT CHANGE", file=sys.stderr)
        return 2
    roots = [Path(a).resolve() for a in argv]
    commands = readme_commands(roots[1]) + EXTRA
    differ = 0
    with tempfile.TemporaryDirectory() as tmp:
        works = []
        for side in ("parent", "change"):
            work = Path(tmp) / side / "work"
            work.mkdir(parents=True)
            write_tables(work)
            works.append(work)
        for i, (name, cmd) in enumerate(commands):
            a, b = (run(root, work, i, cmd) for root, work in zip(roots, works))
            parts = differences(a, b)
            if parts:
                differ += 1
                print(f"DIFFERS {name}: {', '.join(parts)}")
    print(f"{len(commands)} commands, {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
