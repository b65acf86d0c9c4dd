"""Each output check passes on a real dgmlab output and flags it once perturbed.

Run from the repository root:  python3 -m pytest perfbench/test_checks.py
"""

from __future__ import annotations

import contextlib
import io
import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from dgmlab import cli  # noqa: E402


def dgmlab(tmp_path: Path, *argv: str) -> tuple[int, str, dict[str, bytes]]:
    """Run one CLI command in-process; return exit code, stdout and its CSVs."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main([*argv, "--out", str(tmp_path), "--no-plot"])
    return code, out.getvalue(), {p.name: p.read_bytes() for p in tmp_path.glob("*.csv")}


def rows_of(data: bytes) -> list[dict[str, str]]:
    return checks.parse_csv(data)


def to_csv(rows: list[dict[str, str]]) -> bytes:
    header = list(rows[0])
    lines = [",".join(header)] + [",".join(r[h] for h in header) for r in rows]
    return ("\n".join(lines) + "\n").encode()


def converge_op(check, rule, cap, thresholds, expect):
    return workloads.Op("t", [], expect, check,
                        {"rule": rule, "cap": cap, "thresholds": thresholds}, ("profile.csv",))


# -- identities -------------------------------------------------------------


def test_identity_checks_flag_perturbations():
    from dgmlab import direct_sine_sum, partial_sum_bound, rule_from_values, sbp_decompose

    rng = np.random.default_rng(0)
    coeffs = rng.normal(size=83) + 1j * rng.normal(size=83)
    seq = rule_from_values(coeffs)
    n, m, r, x = 5, 80, 3, 0.7
    want = checks.direct_sine_sum(coeffs[n - 1:m], n, x)
    total = sbp_decompose(seq, n, m, r, x).total
    direct = direct_sine_sum(seq, n, m, x)
    bound = partial_sum_bound(seq, n, m, r, x).value
    assert not checks.check_sbp(total, want, "w")
    assert not checks.check_direct(direct, want, "w")
    assert not checks.check_domination(bound, want, "w")
    assert checks.check_sbp(total + 1e-9, want, "w")
    assert checks.check_direct(direct * (1 + 1e-9), want, "w")
    assert checks.check_domination(abs(want) * 0.999, want, "w")
    assert not checks.check_embedding(True, 27, 0, 9, "w")
    assert checks.check_embedding(False, 27, 1, 9, "w")
    assert checks.check_embedding(True, 26, 0, 9, "w")


# -- remainder --------------------------------------------------------------


@pytest.mark.parametrize("seq, rule, expect", [
    (["--seq", "separable", "--ratio", "0.5"], {"kind": "separable", "ratio": 0.5}, 1),
    (["--seq", "proposition", "--p", "2"], {"kind": "proposition", "p": 2.0}, 2),
])
def test_profile_checks_flag_perturbations(tmp_path, seq, rule, expect):
    cap, ts = 24, [4, 8, 12, 20]
    code, stdout, files = dgmlab(tmp_path, "converge", *seq, "--cap", str(cap),
                                 "--thresholds", ",".join(map(str, ts)))
    op = converge_op("brute-force", rule, cap, ts, expect)
    assert workloads.check_op(op, code, stdout, files) == []

    rows = rows_of(files["profile.csv"])
    lowered = [dict(r, sup=repr(float(r["sup"]) * 0.5)) for r in rows]
    problems = workloads.check_op(op, code, stdout, {"profile.csv": to_csv(lowered)})
    assert any("brute force" in p for p in problems)
    assert any("below |rectangle sum|" in p for p in problems)

    rising = [dict(r) for r in rows]
    rising[-1]["sup"] = repr(float(rows[0]["sup"]) * 2)
    problems = workloads.check_op(op, code, stdout, {"profile.csv": to_csv(rising)})
    assert any("increases" in p for p in problems)

    assert workloads.check_op(op, 1 - expect % 2, stdout, files)


def test_divergent_point_check_flags_a_moved_point(tmp_path):
    code, stdout, files = dgmlab(tmp_path, "converge", "--seq", "proposition", "--p", "2",
                                 "--cap", "2048")
    rows = rows_of(files["profile.csv"])
    assert code == 1 and checks.check_divergent_point(rows) == []
    moved = [dict(r, x=repr(float(r["x"]) + 1e-5)) for r in rows]
    assert checks.check_divergent_point(moved)


def test_tiny_table_check_flags_nonzero_sup():
    rule = {"kind": "table", "table": [[0.5, 0.25], [0.25, 0.125]]}
    op = converge_op("tiny-table", rule, 64, [8, 16], 0)
    rows = [{"threshold": "8", "sup": "0", "m": "0", "n": "0", "x": "1", "y": "1"},
            {"threshold": "16", "sup": "0", "m": "0", "n": "0", "x": "1", "y": "1"}]
    stdout = "converge: converging at grid r=3 (49 points) exact=true caps=(64, 64)\n"
    assert workloads.check_op(op, 0, stdout, {"profile.csv": to_csv(rows)}) == []
    rows[1]["sup"] = "1e-3"
    assert workloads.check_op(op, 0, stdout, {"profile.csv": to_csv(rows)})
    sampled = stdout.replace("exact=true", "exact=false").replace("converging", "inconclusive")
    assert workloads.check_op(op, 2, sampled, {"profile.csv": to_csv(rows[:1])})


# -- scans ------------------------------------------------------------------


def test_skinny_check_flags_a_wrong_rhs(tmp_path):
    table = np.random.default_rng(1).uniform(-1, 1, size=(3, 40))
    path = tmp_path / "t.csv"
    path.write_text("".join(f"{j + 1},{k + 1},{float(table[j, k])!r}\n"
                            for j in range(3) for k in range(40)))
    out = tmp_path / "out"
    out.mkdir()
    code, _, files = dgmlab(out, "membership", "--seq", "table", "--table-file", str(path),
                            "--family", "sup-window", "--p", "1", "--octaves", "1:3")
    rows = rows_of(files["membership.csv"])
    assert code == 0 and checks.check_skinny(rows, table, 2) == []
    wrong = [dict(r) for r in rows]
    wrong[-1]["rhs"] = repr(float(wrong[-1]["rhs"]) * (1 + 1e-9))
    assert checks.check_skinny(wrong, table, 2)
    flagged = [dict(r, truncated="true") for r in rows]
    assert checks.check_skinny(flagged, table, 2)


def test_tail_kernel_and_ratio_checks_flag_perturbations(tmp_path):
    _, _, files = dgmlab(tmp_path, "decay", "--seq", "separable", "--condition",
                         "mixed-diff-tail", "--horizon", "64", "--thresholds", "8,16,64")
    rows = rows_of(files["decay.csv"])
    assert checks.check_tails(rows) == []
    assert checks.check_tails([dict(rows[0], value="1e-9")])

    _, _, files = dgmlab(tmp_path, "kernel-bound", "--r", "3", "--points", "50", "--k-max", "20")
    rows = rows_of(files["kernel_bound.csv"])
    assert checks.check_kernel(rows, 3) == []
    assert checks.check_kernel([dict(rows[0], max_ratio="1.01")] + rows[1:], 3)
    assert checks.check_kernel([dict(rows[0], violations="1")] + rows[1:], 3)
    assert checks.check_kernel(rows[1:], 3)

    _, _, files = dgmlab(tmp_path, "counterexample", "ratio", "--seq-p", "2.5",
                         "--octaves", "4:9", "--fixed-m", "16")
    rows = rows_of(files["ratio.csv"])
    assert checks.check_ratio(rows, 2.5, 16) == []
    assert checks.check_ratio([dict(rows[0], ratio=repr(float(rows[0]["ratio"]) * 1.001))]
                              + rows[1:], 2.5, 16)


def test_certificate_check_flags_perturbations(tmp_path):
    _, _, files = dgmlab(tmp_path, "counterexample", "certify", "--p", "2", "--n-max", "300")
    data = files["certificate.csv"]
    assert checks.check_certificate(data, 2.0, 300, [0, 17, 300]) == []
    rows = rows_of(data)
    negative = [dict(r) for r in rows]
    negative[5]["margin"] = "-1e-9"
    assert checks.check_certificate(to_csv(negative), 2.0, 300, [0])
    shifted = [dict(r) for r in rows]
    shifted[17]["partial_sum"] = repr(float(rows[17]["partial_sum"]) * (1 + 1e-6))
    assert checks.check_certificate(to_csv(shifted), 2.0, 300, [17])
    assert checks.check_certificate(to_csv(rows[:-1]), 2.0, 300, [0])
    assert math.isclose(checks.certificate_partial_sum(0, 2.0),
                        checks.SIN_2PI_3 * (3 / math.log(2) - 1 / (2 * math.log(3))
                                            + 3 / (4 * math.log(5)) - 1 / (5 * math.log(6))))


# -- repeatability ----------------------------------------------------------


def test_later_rounds_must_reproduce_the_first_byte_for_byte():
    bench = object.__new__(run.Bench)
    first = run.OpRun(code=0, stdout="ok\n", files={"a.csv": b"x,y\n1,2\n"})
    bench.reference = [(first.fingerprint(), [])]
    same = run.OpRun(code=0, stdout="ok\n", files={"a.csv": b"x,y\n1,2\n"})
    other = run.OpRun(code=0, stdout="ok\n", files={"a.csv": b"x,y\n1,3\n"})
    op = workloads.Op("t", [], 0, "none")
    assert bench.judge(op, same, first=False, i=0) == []
    assert bench.judge(op, other, first=False, i=0)
