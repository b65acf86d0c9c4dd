"""The tracer reports per-module metrics and survives a removed public function.

Each test traces a fresh interpreter, because installing the tracer rebinds
dgmlab's functions for the whole process.

Run from the repository root:  python3 -m pytest perfbench/test_tracer.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join([str(HERE.parent / "src"), str(HERE)]))
ENV.pop("DGM_THREADS", None)

SCRIPT = """
import json, sys
import dgmlab.cli as cli
import dgmlab.parallel as par
if sys.argv[1] == "drop-pmap":
    del par.pmap
import tracer
t = tracer.install()
code = cli.main(["converge", "--seq", "separable", "--cap", "16",
                 "--thresholds", "4,8,12", "--out", sys.argv[2]])
print(json.dumps({"code": code, "metrics": t.metrics}))
"""


def traced(mode: str, out: Path) -> dict:
    proc = subprocess.run([sys.executable, "-c", SCRIPT, mode, str(out)], env=ENV,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_traced_run_reports_each_layer(tmp_path):
    got = traced("full", tmp_path)
    m = got["metrics"]
    assert got["code"] == 1
    assert m["convergence.remainder_general_s"] > 0
    assert m["convergence.grid_pairs"] == 49
    assert m["parallel.pmap_calls"] == 1 and m["parallel.pmap_items"] == 49
    assert m["parallel.pmap_busy_s"] > 0
    assert m["output.csv_rows"] == 3
    assert m["output.csv_bytes"] == (tmp_path / "profile.csv").stat().st_size
    assert m["cli.parse_s"] > 0 and m["cli.handler_calls"] == 1
    assert m["sequences.values_calls"] >= 49


def test_removed_function_reads_zero(tmp_path):
    got = traced("drop-pmap", tmp_path)
    m = got["metrics"]
    assert got["code"] == 1
    assert "parallel.pmap_calls" not in m
    assert m["convergence.remainder_general_s"] > 0
