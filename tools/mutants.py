#!/usr/bin/env python3
"""Run the mutants of the verdict rules against the Tier-1 tests.

    python tools/mutants.py

Each mutant is one exact text replacement in one source file, and its old
text must occur exactly the stated number of times (every occurrence is
replaced).  For each mutant the checkout, less ``.git``, caches and BENCH
files, is copied to a temporary directory, the mutant is applied there, and
the Tier-1 tests run with ``-x``.  A mutant is killed when they fail.

One line is printed per mutant: killed (with the first failing test) or
survived, and its time.  The exit code is 1 if a mutant survives that is
not in ``KNOWN_SURVIVORS``, if one in it is killed (so that the list stays
current), or if a mutant's old text does not occur as stated; else 0.
Standard library only; the tests themselves need numpy and hypothesis.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]

IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis",
                                ".perfbench-out", "BENCH_*.json")


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    count: int = 1


MUTANTS = [
    # the one reading rule
    Mutant("read_good_from_value", "src/dgmlab/sequences.py",
           "his = [b.hi for b in evidence]", "his = [b.value for b in evidence]"),
    Mutant("read_without_finite_guard", "src/dgmlab/sequences.py",
           "if all(math.isfinite(h) for h in his) and good(his):", "if good(his):"),
    Mutant("read_good_bad_swapped", "src/dgmlab/sequences.py",
           "good_side, bad_side, neither = cls", "bad_side, good_side, neither = cls"),
    # the evidence each family reads
    Mutant("converging_from_inexact", "src/dgmlab/convergence.py",
           "residual = 0.0 if exact else math.inf", "residual = 0.0"),
    Mutant("decay_ignores_conclusive", "src/dgmlab/decay.py",
           "residual = report.trend_fit, 0.0 if report.conclusive else math.inf",
           "residual = report.trend_fit, 0.0"),
    # a product rule's tails and the row-tail residual, read as suffixes
    Mutant("product_tail_slice_shifted", "src/dgmlab/decay.py",
           "(m * n) ** (1.0 / p) * float(np.sum(du[m - 1:]))",
           "(m * n) ** (1.0 / p) * float(np.sum(du[m:]))"),
    Mutant("row_tail_residual_global_max", "src/dgmlab/decay.py",
           "float(w_max[m - 1])", "float(w_max[0])"),
    Mutant("aggregate_ignores_truncation", "src/dgmlab/membership.py",
           "Bracket(0.0, math.inf) if e.truncated", "Bracket(0.0) if e.truncated"),
    Mutant("growth_fit_any_octaves", "src/dgmlab/membership.py",
           "\n                 and f.octaves >= MembershipReport.MIN_OCTAVES", ""),
    Mutant("row_bound_unevaluated_not_truncated", "src/dgmlab/membership.py",
           "    if lo > hi:\n        return BoundValue(0.0, truncated=True)",
           "    if lo > hi:\n        return BoundValue(0.0)"),
    Mutant("frontier_past_cap_not_truncated", "src/dgmlab/membership.py",
           "        return BoundValue(0.0, truncated=True)\n    # a maximizer pinned",
           "        return BoundValue(0.0)\n    # a maximizer pinned"),
    Mutant("product_frontier_past_cap_not_truncated", "src/dgmlab/membership.py",
           "the cap\n            return BoundValue(0.0, truncated=True)",
           "the cap\n            return BoundValue(0.0)"),
    # exact angles and the exact general scan
    Mutant("cos_exact_plain", "src/dgmlab/kernels.py",
           "return np.cos(prod) - err * np.sin(prod)", "return np.cos(prod)"),
    Mutant("general_scan_threshold_shift", "src/dgmlab/convergence.py",
           "a = max(1, t + 1 - m)", "a = max(1, t - m)", count=2),
    Mutant("kernel_bound_skip_off_by_one", "src/dgmlab/kernels.py",
           "live = cuts[b] + np.flatnonzero(", "live = cuts[b] + 1 + np.flatnonzero("),
    # start-up: one BLAS thread, no numpy.ma
    Mutant("openblas_pin_deleted", "src/dgmlab/__init__.py",
           'os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")', "pass"),
    Mutant("grid_points_np_unique", "src/dgmlab/convergence.py",
           "return sorted_distinct(np.asarray(ok, dtype=float))",
           "return np.unique(np.asarray(ok, dtype=float))"),
    Mutant("sorted_distinct_stable", "src/dgmlab/sequences.py",
           "s = np.sort(a, axis=None)", 's = np.sort(a, axis=None, kind="stable")'),
    Mutant("sorted_distinct_last_of_run", "src/dgmlab/sequences.py",
           "keep[:1] = True\n    np.not_equal(s[1:], s[:-1], out=keep[1:])",
           "keep[-1:] = True\n    np.not_equal(s[:-1], s[1:], out=keep[:-1])"),
]

# mutants that no Tier-1 test kills yet, each with the fault it stands for; none
# today.  `growth_fit_any_octaves` is killed only by the test that holds
# `_aggregate` to the rule it replaced, which pins today's reading of a short
# steep fit (consistent), not the right one (inconclusive).
KNOWN_SURVIVORS: set[str] = set()

FAILED = re.compile(r"^(?:FAILED|ERROR) (\S+)", re.M)


def run_mutant(mutant: Mutant, work: Path) -> tuple[bool, str]:
    """Apply ``mutant`` to a fresh copy of the checkout under ``work`` and
    run Tier-1 there: (killed, first failing test or '')."""
    copy = work / mutant.name
    shutil.copytree(ROOT, copy, ignore=IGNORE)
    target = copy / mutant.path
    text = target.read_text()
    found = text.count(mutant.old)
    if found != mutant.count:
        raise SystemExit(f"{mutant.name}: old text occurs {found} times in {mutant.path}, "
                         f"expected {mutant.count}")
    target.write_text(text.replace(mutant.old, mutant.new))
    env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                           "--continue-on-collection-errors"],
                          cwd=copy, env=env, capture_output=True, text=True, timeout=1800)
    shutil.rmtree(copy)
    if proc.returncode == 0:
        return False, ""
    first = FAILED.search(proc.stdout)
    return True, first.group(1) if first else f"exit {proc.returncode}"


def main() -> int:
    bad = 0
    with tempfile.TemporaryDirectory() as tmp:
        for mutant in MUTANTS:
            t0 = time.perf_counter()
            killed, by = run_mutant(mutant, Path(tmp))
            known = mutant.name in KNOWN_SURVIVORS
            status = f"killed by {by}" if killed else "survived"
            if killed == known:
                bad += 1
                status += " (UNEXPECTED)"
            print(f"{mutant.name}: {status} [{time.perf_counter() - t0:.1f} s]", flush=True)
    print(f"{len(MUTANTS)} mutants, {bad} unexpected")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
