"""dgmlab benchmark: timed, checked workloads end to end and per module.

Run from the root of a dgmlab checkout:

    python3 perfbench/run.py --workload identities|remainder|scans \\
        --seed N --seconds S --trace 0|1

Load is a closed loop with one client: this script runs one operation at
a time, each in its own child process (``perfbench/child.py``) with
``src`` on PYTHONPATH and ``DGM_THREADS`` unset, so the program's pool
uses its default worker count.  A run repeats whole rounds of the
workload's operations while another round fits in ``--seconds`` (always
at least one).  The first round's outputs are checked against the
benchmark's own references (``checks.py``); every later round must
reproduce them byte for byte.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced rounds and prints the per-module metrics of the
traced rounds with the tracing overhead.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.  Outputs go to ``.perfbench-out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
WORKLOADS = ("identities", "remainder", "scans")
OP_TIMEOUT_S = 150

PER_LAYER = [
    ("cli.parse_s", "s"), ("cli.handler_s", "s"),
    ("sequences.values_calls", "count"), ("sequences.entries", "count"),
    ("sequences.values_s", "s"), ("sequences.norm_s", "s"),
    ("kernels.sbp_calls", "count"), ("kernels.sbp_s", "s"),
    ("kernels.partial_bound_s", "s"), ("kernels.sweep_s", "s"),
    ("membership.embedding_s", "s"), ("membership.scan_s", "s"),
    ("membership.line_bound_s", "s"), ("membership.mixed_bound_s", "s"),
    ("membership.frontier_entries", "count"), ("membership.frontier_yield", "ratio"),
    ("convergence.remainder_product_s", "s"), ("convergence.remainder_general_s", "s"),
    ("convergence.remainder_sampled_s", "s"), ("convergence.grid_pairs", "count"),
    ("convergence.tail_s", "s"), ("convergence.decay_s", "s"),
    ("counterexample.certificate_s", "s"), ("counterexample.ratio_s", "s"),
    ("output.csv_s", "s"), ("output.csv_bytes", "bytes"), ("output.csv_rows", "count"),
    ("output.svg_s", "s"),
    ("parallel.pmap_calls", "count"), ("parallel.pmap_items", "count"),
    ("parallel.pmap_wall_s", "s"), ("parallel.pmap_busy_s", "s"),
    ("trace.wall_s", "s"), ("trace.overhead_s", "s"),
]


@dataclass
class OpRun:
    """What one child process did: times on the monotonic clock, exit code, outputs."""

    wall_s: float = 0.0
    setup_s: float = 0.0
    cpu_s: float = 0.0
    rss_mb: float = 0.0
    code: int | None = None
    stdout: str = ""
    files: dict[str, bytes] = field(default_factory=dict)
    report: dict = field(default_factory=dict)
    error: str = ""

    def fingerprint(self) -> tuple:
        outputs = {k: hashlib.sha256(v).hexdigest() for k, v in sorted(self.files.items())}
        return (self.code, self.stdout, outputs, self.report.get("digest"))


@dataclass
class Round:
    traced: bool
    runs: list[OpRun]

    def metrics(self) -> dict[str, float]:
        total: dict[str, float] = {}
        for r in self.runs:
            for k, v in r.report.get("metrics", {}).items():
                total[k] = total.get(k, 0.0) + v
        return total


class Bench:
    def __init__(self, root: Path, workload: str, seed: int):
        self.root = root
        self.out = root / ".perfbench-out" / workload
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir(parents=True)
        self.env = dict(os.environ)
        self.env.pop("DGM_THREADS", None)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src")] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))
        if workload == "identities":
            self.ops = [workloads.identities_op(seed)]
        elif workload == "remainder":
            self.ops = workloads.remainder_ops(seed, self.out)
        else:
            self.ops = workloads.scans_ops(seed, self.out)
        self.reference: list[tuple] = []
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0

    def spawn(self, op: workloads.Op, traced: bool, check: bool) -> OpRun:
        opdir = self.out / op.name
        shutil.rmtree(opdir, ignore_errors=True)
        opdir.mkdir()
        report_path = opdir / "report.json"
        if op.check == "identities":
            spec = {"kind": "identities", "seed": op.params["seed"], "check": check}
        else:
            spec = {"kind": "cli", "argv": [*op.argv, "--out", str(opdir)]}
        spec.update(trace=traced, report=str(report_path))
        cmd = [sys.executable, str(HERE / "child.py"), json.dumps(spec)]
        run = OpRun()
        t0 = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=self.root, env=self.env, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True)
        try:
            out, err = proc.communicate(timeout=OP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            run.error = f"timed out after {OP_TIMEOUT_S} s"
            return run
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        if proc.returncode != 0 or not report_path.is_file():
            run.error = f"child exited {proc.returncode}: {err.strip()[-500:]}"
            return run
        rep = json.loads(report_path.read_text())
        run.report = rep
        run.code = rep["code"]
        run.stdout = out
        run.wall_s = rep["done"] - t0 - rep.get("excluded_s", 0.0)
        run.setup_s = rep["ready"] - t0
        run.cpu_s = rep["cpu_s"] - rep.get("excluded_cpu_s", 0.0)
        run.rss_mb = rep["maxrss_kb"] / 1024.0
        for name in op.outputs:
            path = opdir / name
            run.files[name] = path.read_bytes() if path.is_file() else b""
        return run

    def round(self, traced: bool) -> Round:
        first = not self.reference
        runs = []
        for i, op in enumerate(self.ops):
            run = self.spawn(op, traced, check=first)
            runs.append(run)
            self.attempted += run.report.get("ops", 1)
            problems = self.judge(op, run, first, i)
            if op.known_fault and problems:
                self.failed += 1
            elif run.error:
                self.failed += 1
                self.problems.append(f"{op.name}: {run.error}")
            else:
                self.problems += [f"{op.name}: {p}" for p in problems]
        return Round(traced, runs)

    def judge(self, op, run: OpRun, first: bool, i: int) -> list[str]:
        """Check the first round against the references; later rounds must
        reproduce it exactly and inherit its verdict."""
        if first:
            if run.error:
                problems = [run.error]
            else:
                problems = workloads.check_op(op, run.code, run.stdout, run.files)
                problems += run.report.get("problems", [])
            self.reference.append((run.fingerprint(), problems))
            return problems
        if run.error:
            return [run.error]
        fingerprint, problems = self.reference[i]
        if run.fingerprint() != fingerprint:
            return ["output differs from the run's first round"]
        return problems


def typical_round(rounds: list[Round], attr: str) -> float:
    """Sum over the workload's operations of each one's median over rounds,
    so one slow spell on a shared machine moves one term, not the whole."""
    return sum(statistics.median(getattr(rd.runs[i], attr) for rd in rounds)
               for i in range(len(rounds[0].runs)))


def end_to_end(rounds: list[Round]) -> dict[str, tuple[float, str]]:
    runs = [r for rd in rounds for r in rd.runs]
    return {
        "wall_s": (typical_round(rounds, "wall_s"), "s"),
        "cpu_s": (typical_round(rounds, "cpu_s"), "s"),
        "peak_rss_mb": (max(r.rss_mb for r in runs), "MB"),
        "setup_s": (statistics.median(r.setup_s for r in runs), "s"),
    }


def per_layer(rounds: list[Round]) -> dict[str, tuple[float, str]]:
    traced = [rd for rd in rounds if rd.traced]
    plain = [rd for rd in rounds if not rd.traced]
    sums = [rd.metrics() for rd in traced]
    for m in sums:
        entries = m.get("membership.frontier_entries", 0.0)
        m["membership.frontier_yield"] = (m.get("membership.frontier_useful", 0.0) / entries
                                          if entries else 0.0)
    wall = typical_round(traced, "wall_s")
    out = {}
    for name, unit in PER_LAYER:
        if name == "trace.wall_s":
            value = wall
        elif name == "trace.overhead_s":
            value = wall - typical_round(plain, "wall_s")
        else:
            value = statistics.median(m.get(name, 0.0) for m in sums)
        out[name] = (value, unit)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "dgmlab" / "__init__.py").is_file():
        print(f"error: no dgmlab source under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2

    bench = Bench(root, args.workload, args.seed)
    rounds: list[Round] = []
    start = time.monotonic()
    while True:
        traced = bool(args.trace) and len(rounds) % 2 == 1
        t0 = time.monotonic()
        rounds.append(bench.round(traced))
        last = time.monotonic() - t0
        both = not args.trace or any(rd.traced for rd in rounds)
        if both and time.monotonic() - start + last > args.seconds:
            break
        if bench.problems:
            break

    measured = per_layer(rounds) if args.trace else end_to_end(rounds)
    for p in bench.problems:
        print(f"problem: {p}", file=sys.stderr)
    result = {
        "correct": not bench.problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in measured.items()},
    }
    print(f"{args.workload}: {len(rounds)} rounds, seed {args.seed}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
