"""Which dgmlab modules each entry point loads, and the package's lazy exports.

Every CLI process compiles the modules it imports, so a subcommand should
load only the modules it runs.  The package exports its public names
lazily: each binds the same object as the module that defines it.
Importing the package pins OpenBLAS to one thread before numpy loads,
unless the caller set the thread count already.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dgmlab
from dgmlab import cli
from dgmlab.membership import BoundFamily

SRC = Path(dgmlab.__file__).resolve().parents[1]

CLI_MODULES = {"dgmlab", "dgmlab.cli", "dgmlab.convergence", "dgmlab.sequences",
               "dgmlab.output"}

# module -> the public names it defines, as the package exports them
EXPORTS = {
    "convergence": [
        "DECAY_CONDITIONS", "GRID_ABSCISSA_LIMIT", "TAIL_HORIZON_LIMIT",
        "ConvergenceVerdict", "DecayReport", "DecayVerdict", "GridSpec",
        "RemainderProfile", "TailEstimate", "classify_decay", "decay_report",
        "grid_points", "grid_size_bound", "log_integral_bound", "mixed_diff_tails",
        "rational_point_convergence", "regular_remainder_sup", "row_diff_tail_sups",
        "row_tail_sups",
    ],
    "counterexample": [
        "DivergenceCertificate", "divergence_certificate", "double_rule", "single_rule",
        "violation_ratio",
    ],
    "kernels": [
        "PartialSumBound", "SbpDecomposition", "SingularAbscissa", "band_index",
        "direct_sine_sum", "kernel_band_bound", "kernel_bound_sweep",
        "partial_sum_bound", "sbp_decompose",
    ],
    "membership": [
        "BoundFamily", "BoundSpec", "BoundValue", "EmbeddingReport", "MembershipReport",
        "Verdict", "divisor_embedding_check", "embedding_check", "gm_membership_scan",
        "membership_scan", "rhs_mixed_bound", "rhs_row_bound",
    ],
    "sequences": [
        "HORIZON_LIMIT", "DoubleSequenceRule", "SequenceRule", "TailEnvelope",
        "additive_rule", "block_p_norm", "double_block_p_norm",
        "geometric_double_rule", "geometric_rule", "power_double_rule", "power_rule",
        "product_rule", "rule_from_function", "rule_from_values", "table_rule",
        "transpose_rule",
    ],
}
ALL_NAMES = sorted(name for names in EXPORTS.values() for name in names)


# the variables a pthreads OpenBLAS reads its thread count from
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def fresh_json(source: str, expr: str, **env: str):
    """``expr`` as a fresh interpreter reads it after running ``source``.

    The child gets ``env`` on top of this environment, less the BLAS
    thread-count variables that ``env`` does not set.
    """
    probe = f"{source}\nimport json, sys\nprint(json.dumps({expr}))"
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    child = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env={**child, **env, "PYTHONPATH": path}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def loaded_after(source: str) -> set[str]:
    """The dgmlab modules a fresh interpreter holds after running ``source``."""
    return set(fresh_json(source, "[m for m in sys.modules if m.split('.')[0] == 'dgmlab']"))


def cli_run(tmp_path, *argv) -> str:
    """Source that runs one subcommand and fails unless it reaches a verdict."""
    argv = [*argv, "--out", str(tmp_path), "--no-plot"]
    return ("import dgmlab.cli as cli\n"
            f"code = cli.main({argv!r})\n"
            "if code not in (0, 1, 2):\n"
            "    raise SystemExit(f'exit {code}')")


class TestImportGraph:
    def test_package_alone_loads_no_module(self):
        assert loaded_after("import dgmlab") == {"dgmlab"}

    def test_cli_loads_what_every_subcommand_needs(self):
        assert loaded_after("import dgmlab.cli") == CLI_MODULES

    @pytest.mark.parametrize("argv, extra", [
        (["converge", "--seq", "geometric", "--cap", "64", "--grid", "r=1,points=1"], set()),
        (["converge", "--seq", "proposition", "--cap", "64"], {"dgmlab.counterexample"}),
        (["decay", "--seq", "geometric", "--horizon", "256", "--thresholds", "16,64"], set()),
    ])
    def test_subcommand_loads_only_what_it_runs(self, tmp_path, argv, extra):
        assert loaded_after(cli_run(tmp_path, *argv)) == CLI_MODULES | extra


THREADS = ("[int(line.split()[1]) for line in open('/proc/self/status')"
           " if line.startswith('Threads:')][0]")


class TestOneBlasThread:
    @pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                        reason="no /proc/self/status to read a thread count from")
    def test_cli_process_runs_one_thread(self):
        assert fresh_json("import dgmlab.cli", THREADS) == 1

    def test_callers_thread_count_wins(self):
        expr = "os.environ['OPENBLAS_NUM_THREADS']"
        assert fresh_json("import os, dgmlab.cli", expr, OPENBLAS_NUM_THREADS="2") == "2"

    def test_pin_runs_before_numpy_loads(self):
        assert fresh_json("import dgmlab", "'numpy' in sys.modules") is False
        assert fresh_json("import os, dgmlab", "os.environ['OPENBLAS_NUM_THREADS']") == "1"


class TestLazyExports:
    def test_export_list_is_pinned(self):
        assert sorted(dgmlab.__all__) == ALL_NAMES

    def test_each_name_is_its_modules_object(self):
        for module, names in EXPORTS.items():
            defining = importlib.import_module(f"dgmlab.{module}")
            for name in names:
                assert getattr(dgmlab, name) is getattr(defining, name), name

    def test_star_import_and_dir_list_every_name(self):
        namespace: dict = {}
        exec("from dgmlab import *", namespace)
        assert set(ALL_NAMES) <= set(namespace)
        assert all(namespace[name] is getattr(dgmlab, name) for name in ALL_NAMES)
        assert set(ALL_NAMES) <= set(dir(dgmlab))

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            dgmlab.no_such_name  # noqa: B018
        assert not hasattr(dgmlab, "double_partial_sum")

    def test_cli_families_are_the_bound_families(self):
        assert cli._FAMILIES == tuple(f.value for f in BoundFamily)
