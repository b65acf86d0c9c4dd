import contextlib
import csv
import io
import re
import shlex
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dgmlab import cli
from dgmlab.cli import _octave_starts, build_parser, main
from dgmlab.decay import DECAY_CONDITIONS, TAIL_HORIZON_LIMIT
from dgmlab.kernels import KERNEL_STEP_LIMIT
from dgmlab.sequences import HORIZON_LIMIT

README = Path(__file__).resolve().parents[1] / "README.md"


def run(tmp_path, *argv):
    return main([*argv, "--out", str(tmp_path)])


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


class TestMembershipCommand:
    def test_geometric_mean_value(self, tmp_path, capsys):
        code = run(tmp_path, "membership", "--seq", "geometric", "--p", "1",
                   "--r", "1", "--family", "mean-value", "--lambda", "2")
        assert code == 0
        header, rows = read_csv(tmp_path / "membership.csv")
        assert header == ["m", "n", "axis", "lhs", "rhs", "ratio", "truncated"]
        assert len(rows) == 3 * 6
        assert "consistent" in capsys.readouterr().out

    def test_proposition_dichotomy(self, tmp_path):
        args = ["membership", "--seq", "proposition", "--r", "3",
                "--family", "max-window", "--octaves", "4:10", "--fixed-m", "16"]
        assert run(tmp_path, *args, "--p", "1") == 1
        assert run(tmp_path, *args, "--p", "2") == 0

    def test_single_sequence_scan(self, tmp_path):
        assert run(tmp_path, "membership", "--single", "--seq", "geometric",
                   "--p", "1", "--r", "2", "--family", "mean-value") == 0

    def test_explicit_blocks(self, tmp_path):
        assert run(tmp_path, "membership", "--seq", "geometric",
                   "--family", "mean-value", "--blocks", "4x4,8x16") == 0
        _, rows = read_csv(tmp_path / "membership.csv")
        assert {(r[0], r[1]) for r in rows} == {("4", "4"), ("8", "16")}

    def test_truncated_sup_window_is_inconclusive(self, tmp_path):
        # a table of ones: window sums grow with M, so the sup pins at the
        # horizon cap and the verdict degrades honestly
        path = tmp_path / "ones.csv"
        path.write_text("\n".join(f"{j},{k},1.0" for j in range(1, 40)
                                  for k in range(1, 40)) + "\n")
        code = run(tmp_path, "membership", "--seq", "table", "--table-file",
                   str(path), "--family", "sup-window", "--lambda", "1",
                   "--cap", "16", "--blocks", "2x2")
        assert code == 2

    @pytest.mark.parametrize("seq", [["--seq", "power", "--exponent", "0.5"],
                                     ["--seq", "separable"]], ids=["product", "general"])
    def test_bounds_the_cap_never_evaluates_are_inconclusive(self, tmp_path, capsys, seq):
        # b(64) = 32 lies past the cap of 4: the row and column windows start
        # after they end, and the mixed frontier M + N >= 64 lies past the cap
        code = run(tmp_path, "membership", *seq, "--family", "sup-window", "--cap", "4",
                   "--blocks", "64x64", "--no-plot")
        assert code == 2 and capsys.readouterr().out.startswith("membership: inconclusive ")
        _, rows = read_csv(tmp_path / "membership.csv")
        assert [(r[2], r[4], r[6]) for r in rows] == [
            ("row", "0", "true"), ("col", "0", "true"), ("mixed", "0", "true")]


class TestEmbeddingCommand:
    def test_p_norm_mode(self, tmp_path):
        assert run(tmp_path, "embedding", "--seq", "geometric",
                   "--p1", "1", "--p2", "2", "--octaves", "0:4") == 0

    def test_divisor_mode(self, tmp_path):
        assert run(tmp_path, "embedding", "--seq", "power", "--p", "1",
                   "--r1", "1", "--r2", "3", "--octaves", "0:4") == 0

    def test_missing_mode_is_usage_error(self, tmp_path):
        assert run(tmp_path, "embedding", "--seq", "geometric") == 3


class TestSbpCommand:
    def test_exact_identity(self, tmp_path, capsys):
        code = run(tmp_path, "sbp", "--seq", "power", "--exponent", "1.5",
                   "--start", "5", "--end", "80", "--r", "3", "--x", "1.0")
        assert code == 0
        header, rows = read_csv(tmp_path / "sbp.csv")
        assert header == ["component", "re", "im"]
        comps = {r[0] for r in rows}
        assert {"main_term", "upper_boundary", "lower_boundary",
                "total", "direct_sum", "relative_error"} <= comps
        capsys.readouterr()
        assert run(tmp_path, "sbp", "--seq", "proposition", "--end", "60") == 0
        assert capsys.readouterr().out.startswith("sbp: exact")

    def test_singular_x_is_usage_error(self, tmp_path):
        code = run(tmp_path, "sbp", "--seq", "geometric", "--start", "1",
                   "--end", "10", "--r", "3", "--x", str(2 * np.pi / 3))
        assert code == 3


class TestKernelBoundCommand:
    def test_sweep_passes(self, tmp_path):
        assert run(tmp_path, "kernel-bound", "--r", "3", "--points", "500",
                   "--k-max", "60") == 0
        header, rows = read_csv(tmp_path / "kernel_bound.csv")
        assert len(rows) == 3  # three half-bands inside (0, pi] for r=3
        assert all(r[-1] == "0" for r in rows)


class TestConvergeCommand:
    def test_sampled_sup_below_the_tolerance_is_inconclusive(self, tmp_path, capsys):
        # a complex table takes the sampled path: its sups are lower bounds,
        # so even sups of about 1e-17 cannot read converging
        path = tmp_path / "c.csv"
        path.write_text("1,1,0.5,0.1\n1,2,0.25\n2,1,0.25\n2,2,0.125\n")
        code = run(tmp_path, "converge", "--seq", "table", "--table-file", str(path),
                   "--cap", "64", "--no-plot")
        out = capsys.readouterr().out
        assert code == 2 and out.startswith("converge: inconclusive "), out
        assert " exact=false " in out
        _, rows = read_csv(tmp_path / "profile.csv")
        assert max(float(r[1]) for r in rows) < 1e-3

    def test_geometric_converging(self, tmp_path):
        code = run(tmp_path, "converge", "--seq", "geometric",
                   "--thresholds", "10,20,30,40", "--cap", "2048",
                   "--grid-r", "1", "--no-plot")
        assert code == 0
        assert not (tmp_path / "profile.svg").exists()

    def test_proposition_not_converging_with_plot(self, tmp_path):
        code = run(tmp_path, "converge", "--seq", "proposition", "--p", "2",
                   "--grid-r", "3", "--cap", "4096")
        assert code == 1
        assert (tmp_path / "profile.svg").exists()
        header, rows = read_csv(tmp_path / "profile.csv")
        assert header == ["threshold", "sup", "m", "n", "x", "y"]

    def test_rational_point(self, tmp_path):
        assert run(tmp_path, "converge", "--seq", "geometric", "--grid-r", "3",
                   "--at-rational", "1,1", "--thresholds", "10,20,30,40",
                   "--cap", "1024", "--no-plot") == 0

    def test_compact_grid_spec(self, tmp_path):
        code = run(tmp_path, "converge", "--seq", "proposition", "--p", "2",
                   "--grid", "r=3,points=1,exclusion=1e-5", "--cap", "4096",
                   "--no-plot")
        assert code == 1
        assert run(tmp_path, "converge", "--seq", "geometric",
                   "--grid", "shape=9", "--no-plot") == 3

    def test_bad_rational_index(self, tmp_path):
        assert run(tmp_path, "converge", "--seq", "geometric", "--grid-r", "4",
                   "--at-rational", "2,1", "--cap", "1024", "--no-plot") == 3


class TestDecayCommand:
    def test_jk_on_power(self, tmp_path):
        assert run(tmp_path, "decay", "--seq", "power", "--condition", "jk",
                   "--thresholds", "16,64,256", "--horizon", "1024",
                   "--no-plot") == 0

    def test_loglog_on_proposition(self, tmp_path):
        assert run(tmp_path, "decay", "--seq", "proposition", "--seq-p", "2",
                   "--condition", "loglog", "--thresholds", "16,256,4096",
                   "--no-plot") == 1

    def test_tail_conditions_run(self, tmp_path):
        for cond in ("row-tail", "col-tail", "mixed-diff-tail",
                     "row-diff-tail", "col-diff-tail"):
            code = run(tmp_path, "decay", "--seq", "geometric", "--condition",
                       cond, "--thresholds", "8,16,32", "--horizon", "256",
                       "--no-plot")
            assert code == 0, cond

    @pytest.mark.parametrize("cond", ["tail", "diff-tail"])
    def test_col_conditions_are_row_conditions_of_the_transpose(self, tmp_path, cond):
        arr = np.random.default_rng(5).normal(size=(30, 20))
        tables = {}
        for name, table, side in (("t", arr, "col"), ("tt", arr.T, "row")):
            path = tmp_path / f"{name}.csv"
            path.write_text("".join(f"{j + 1},{k + 1},{float(table[j, k])!r}\n"
                                    for j in range(table.shape[0])
                                    for k in range(table.shape[1])))
            out = tmp_path / name
            main(["decay", "--seq", "table", "--table-file", str(path), "--condition",
                  f"{side}-{cond}", "--thresholds", "8,16,32", "--horizon", "40",
                  "--p", "1.5", "--r", "2", "--no-plot", "--out", str(out)])
            _, rows = read_csv(out / "decay.csv")
            tables[side] = {(int(m), int(n)): v for m, n, v in rows}
        assert tables["col"] == {(n, m): v for (m, n), v in tables["row"].items()}

    def test_unknown_condition(self, tmp_path):
        assert run(tmp_path, "decay", "--condition", "bogus") == 3

    @pytest.mark.parametrize("argv, err", [
        (["--condition", "row-diff-tail", "--p", "0.5", "--horizon", "256"],
         "error: field 'p': need p >= 1\n"),
        (["--condition", "col-tail", "--p", "nan", "--horizon", "256"],
         "error: field 'p': need p >= 1\n"),
        (["--condition", "mixed-diff-tail", "--horizon", str(HORIZON_LIMIT)],
         f"error: field 'horizon': must be in [1, {TAIL_HORIZON_LIMIT}], got {HORIZON_LIMIT}\n"),
        (["--condition", "row-tail", "--horizon", str(TAIL_HORIZON_LIMIT + 1)],
         f"error: field 'horizon': must be in [1, {TAIL_HORIZON_LIMIT}], "
         f"got {TAIL_HORIZON_LIMIT + 1}\n"),
    ], ids=["p-below-1", "p-nan", "horizon-limit", "past-tail-horizon-limit"])
    def test_tail_refusals_name_their_field(self, tmp_path, capsys, monkeypatch, argv, err):
        # refused before any value: the report is never built
        monkeypatch.setattr("dgmlab.decay.decay_report", None)
        code = run(tmp_path, "decay", "--seq", "separable", *argv, "--thresholds", "16,64")
        assert (code, capsys.readouterr().err) == (3, err)

    @pytest.mark.parametrize("cond", ["row-tail", "col-tail"])
    def test_zero_last_tail_without_envelope_is_inconclusive(self, tmp_path, capsys, cond):
        # only the corner anchor (2048, 2048) reaches 4096, and its one-entry
        # tail of the additive rule underflows to 0; the rule has no envelope
        code = run(tmp_path, "decay", "--seq", "separable", "--condition", cond,
                   "--horizon", "2048", "--thresholds", "16,64,256,1024,4096", "--no-plot")
        out = capsys.readouterr().out
        assert code == 2 and out.startswith(f"decay ({cond}): inconclusive "), out
        assert "max_tail=[7808 7808 7808 7808 0]" in out


class TestLogIntegralCommand:
    def test_single_evaluation(self, tmp_path):
        assert run(tmp_path, "log-integral", "--n", "10", "--N", "10000",
                   "--p", "3") == 0
        header, rows = read_csv(tmp_path / "log_integral.csv")
        assert header == ["n", "N", "p", "value", "bound"]
        assert len(rows) == 1

    def test_p_below_one_rejected(self, tmp_path):
        assert run(tmp_path, "log-integral", "--p", "0.5") == 3

    def test_nan_p_rejected(self, tmp_path):
        assert run(tmp_path, "log-integral", "--p", "nan") == 3

    def test_float_overflow_rejected(self, tmp_path, capsys):
        huge = str(10**400)
        assert run(tmp_path, "log-integral", "--N", huge) == 3
        assert run(tmp_path, "log-integral", "--n", huge, "--N", "3") == 3
        err = capsys.readouterr().err
        assert "Traceback" not in err and err.count("error:") == 2


class TestFailureExitCodes:
    def test_log_integral_violation_exits_one(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("dgmlab.decay.log_integral_bound", lambda n, N, p: (1.25, 0.5))
        code = run(tmp_path, "log-integral", "--n", "3", "--N", "7", "--p", "2")
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == "log-integral: violated value=1.25 bound=0.5\n"
        assert captured.err == ""
        _, rows = read_csv(tmp_path / "log_integral.csv")
        assert rows == [["3", "7", "2", "1.25", "0.5"]]

    def test_log_integral_at_its_slack_is_ok(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("dgmlab.decay.log_integral_bound", lambda n, N, p: (0.5 + 1e-12, 0.5))
        assert run(tmp_path, "log-integral") == 0
        assert capsys.readouterr().out.startswith("log-integral: ok ")

    def test_memory_error_is_one_error_line(self, tmp_path, capsys, monkeypatch):
        def exhausted(r, points, k_max):
            raise MemoryError("Unable to allocate 1.00 TiB for an array")

        monkeypatch.setattr("dgmlab.kernels.kernel_bound_sweep", exhausted)
        code = run(tmp_path, "kernel-bound", "--r", "2", "--points", "10")
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err == "error: out of memory: Unable to allocate 1.00 TiB for an array\n"
        assert not (tmp_path / "kernel_bound.csv").exists()

    def test_bare_memory_error(self, tmp_path, capsys, monkeypatch):
        def exhausted(r, points, k_max):
            raise MemoryError

        monkeypatch.setattr("dgmlab.kernels.kernel_bound_sweep", exhausted)
        assert run(tmp_path, "kernel-bound") == 3
        assert capsys.readouterr().err == "error: out of memory\n"


class TestCounterexampleCommand:
    def test_certify(self, tmp_path):
        code = run(tmp_path, "counterexample", "certify", "--p", "2",
                   "--n-max", "2000", "--no-plot")
        assert code == 0
        header, rows = read_csv(tmp_path / "certificate.csv")
        assert header == ["N", "partial_sum", "lower_bound", "margin"]
        assert len(rows) == 2001
        assert all(float(r[1]) >= float(r[2]) for r in rows)

    def test_certify_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["counterexample", "certify", "--p", "2",
                         "--n-max", "2000", "--no-plot", "--out", str(out)]) == 0
        assert (a / "certificate.csv").read_bytes() == (b / "certificate.csv").read_bytes()

    def test_ratio_growing(self, tmp_path):
        code = run(tmp_path, "counterexample", "ratio", "--seq-p", "2",
                   "--octaves", "4:10")
        assert code == 1  # growth witnesses the violation

    def test_ratio_bounded_at_native_exponent(self, tmp_path):
        code = run(tmp_path, "counterexample", "ratio", "--seq-p", "2",
                   "--octaves", "4:10", "--norm-exponent", "2")
        assert code == 0

    @pytest.mark.parametrize("extra, code, reading", [
        # from octave 18 the window bound lies past the horizon cap: inf ratios
        (["--octaves", "4:18"], 2, "inconclusive"),
        (["--octaves", "4:12"], 1, "growing"),
        (["--octaves", "4:12", "--norm-exponent", "2"], 0, "bounded"),
    ])
    def test_ratio_reading(self, tmp_path, capsys, extra, code, reading):
        assert run(tmp_path, "counterexample", "ratio", "--seq-p", "2", *extra) == code
        assert capsys.readouterr().out.startswith(f"counterexample ratio: {reading} ")
        if code == 2:
            _, rows = read_csv(tmp_path / "ratio.csv")
            assert rows[-1] == ["262144", "inf"]


class TestTableInput:
    def write_table(self, tmp_path, with_header=False, complex_col=True):
        path = tmp_path / "data.csv"
        rng = np.random.default_rng(3)
        lines = ["j,k,re,im"] if with_header else []
        for j in range(1, 9):
            for k in range(1, 9):
                re, im = rng.normal(), rng.normal() if complex_col else 0.0
                lines.append(f"{j},{k},{re},{im}")
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_membership_on_table(self, tmp_path):
        path = self.write_table(tmp_path, with_header=True)
        code = run(tmp_path, "membership", "--seq", "table", "--table-file",
                   str(path), "--family", "mean-value", "--blocks", "2x2,4x4")
        assert code in (0, 1, 2)
        assert (tmp_path / "membership.csv").exists()

    def test_embedding_on_table(self, tmp_path):
        path = self.write_table(tmp_path)
        assert run(tmp_path, "embedding", "--seq", "table", "--table-file",
                   str(path), "--p1", "1", "--p2", "2", "--blocks", "1x1,2x2") == 0

    def test_missing_file_is_usage_error(self, tmp_path):
        assert run(tmp_path, "membership", "--seq", "table", "--table-file",
                   str(tmp_path / "nope.csv")) == 3

    def test_bad_indices_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0,1,2.0\n")
        assert run(tmp_path, "membership", "--seq", "table",
                   "--table-file", str(path)) == 3

    def test_real_table_converges_exactly(self, tmp_path, capsys):
        # every rectangle beyond the 2x2 support sums to zero
        path = tmp_path / "tiny.csv"
        path.write_text("1,1,0.5\n1,2,0.25\n2,1,0.25\n2,2,0.125\n")
        code = run(tmp_path, "converge", "--seq", "table", "--table-file", str(path),
                   "--cap", "64", "--no-plot")
        assert code == 0
        assert "exact=true" in capsys.readouterr().out
        _, rows = read_csv(tmp_path / "profile.csv")
        assert rows and all(float(r[1]) == 0.0 for r in rows)

    def test_header_after_blank_lines(self, tmp_path, capsys):
        body = "1,1,0.5\n1,2,0.25\n2,1,0.25\n3,3,-0.125\n"
        runs = []
        for name, text in (("plain", body), ("blank-header", "\n \nj,k,re\n" + body)):
            path = tmp_path / f"{name}.csv"
            path.write_text(text)
            out = tmp_path / name
            code = main(["membership", "--seq", "table", "--table-file", str(path),
                         "--blocks", "2x2,4x4", "--out", str(out)])
            runs.append((code, capsys.readouterr(), (out / "membership.csv").read_bytes()))
        assert runs[0] == runs[1] and runs[0][0] != 3

    @pytest.mark.parametrize("text, row", [
        ("\n1,1,0.5\nx,2,0.25\n", 3),
        ("\nj,k,re\nj,k,re\n1,1,0.5\n", 3),
        ("j,k,re\n\n1,1,0.5\nk,1,0.5\n", 4),
    ])
    def test_bad_indices_past_the_first_row(self, tmp_path, capsys, text, row):
        path = tmp_path / "late.csv"
        path.write_text(text)
        assert run(tmp_path, "membership", "--seq", "table", "--table-file", str(path)) == 3
        assert capsys.readouterr().err == f"error: field 'table-file': row {row}: bad indices\n"

    @pytest.mark.parametrize("text, message", [
        ("1\n", "row 1: need j,k >= 1 and a value"),
        ("1,1,0.5\n\n2\n", "row 3: need j,k >= 1 and a value"),
        ("1,1,abc\n", "row 1: bad value"),
        ("j,k,re\n1,1,0.5\n1,2,0.25,abc\n", "row 3: bad value"),
    ])
    def test_short_rows_and_bad_values_name_their_row(self, tmp_path, capsys, text, message):
        path = tmp_path / "odd.csv"
        path.write_text(text)
        assert run(tmp_path, "membership", "--seq", "table", "--table-file", str(path)) == 3
        assert capsys.readouterr().err == f"error: field 'table-file': {message}\n"

    def test_non_finite_values_rejected(self, tmp_path, capsys):
        for value in ("nan", "inf", "0.25,-inf"):
            path = tmp_path / "odd.csv"
            path.write_text(f"1,1,0.5\n1,2,{value}\n2,1,0.25\n2,2,0.125\n")
            for argv in (["converge", "--cap", "64", "--no-plot"],
                         ["membership", "--blocks", "1x1"],
                         ["decay", "--condition", "jk"]):
                assert run(tmp_path, *argv, "--seq", "table",
                           "--table-file", str(path)) == 3, (value, argv)
                assert "row 2" in capsys.readouterr().err


class TestConfigFile:
    def test_config_supplies_defaults_flags_win(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# experiment\nseq = geometric\nratio = 0.5\np = 1\n"
                       "family = mean-value\nlambda = 2\n")
        code = main(["membership", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == 0
        # flag overrides config: an invalid p on the command line must lose... win
        code = main(["membership", "--config", str(cfg), "--p", "0",
                     "--out", str(tmp_path)])
        assert code == 3

    def test_malformed_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("just words\n")
        assert main(["membership", "--config", str(cfg)]) == 3

    def run_with(self, tmp_path, name, lines, *argv):
        """Run with a config file of ``lines`` into its own output directory."""
        out = tmp_path / name
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(lines)
        return main([*argv, "--config", str(cfg), "--out", str(out)]), out

    def test_false_switches_behave_like_absent_lines(self, tmp_path, capsys):
        cases = [
            ("single", "membership.csv",
             ["membership", "--seq", "geometric", "--p", "1", "--family", "mean-value"]),
            ("restricted", "ratio.csv",
             ["counterexample", "ratio", "--seq-p", "2", "--octaves", "4:8"]),
            ("no-plot", "profile.csv",
             ["converge", "--seq", "geometric", "--cap", "256", "--thresholds", "10,20"]),
        ]
        for key, table, argv in cases:
            runs = {}
            for name, lines in (("absent", ""), ("false", f"{key} = False\n"),
                                ("true", f"{key} = true\n")):
                code, out = self.run_with(tmp_path, f"{key}-{name}", lines, *argv)
                runs[name] = (code, capsys.readouterr().out, (out / table).read_bytes())
            assert runs["false"] == runs["absent"], key
            if key != "no-plot":
                assert runs["true"] != runs["absent"], key
        assert (tmp_path / "no-plot-false" / "profile.svg").exists()
        assert not (tmp_path / "no-plot-true" / "profile.svg").exists()

    def test_true_switch_equals_flag(self, tmp_path):
        argv = ["membership", "--seq", "geometric", "--p", "1", "--r", "2",
                "--family", "mean-value"]
        code, out = self.run_with(tmp_path, "cfg", "single = TRUE\n", *argv)
        assert code == main([*argv, "--single", "--out", str(tmp_path / "flag")]) == 0
        want = (tmp_path / "flag" / "membership.csv").read_bytes()
        assert (out / "membership.csv").read_bytes() == want

    def test_bad_switch_value_names_field(self, tmp_path, capsys):
        code, _ = self.run_with(tmp_path, "cfg", "single = maybe\n", "membership")
        assert code == 3
        assert "single" in capsys.readouterr().err

    def test_bad_number_names_field(self, tmp_path, capsys):
        code, _ = self.run_with(tmp_path, "cfg", "cap = abc\n", "membership")
        assert code == 3
        assert "cap" in capsys.readouterr().err

    def test_bad_exclusion_names_field(self, tmp_path, capsys):
        code, _ = self.run_with(tmp_path, "cfg", "exclusion = -1\n", "converge",
                                "--seq", "geometric")
        assert code == 3
        assert capsys.readouterr().err == ("error: field 'exclusion': "
                                           "exclusion_radius out of range\n")

    def test_negative_number_parses(self, tmp_path, capsys):
        code, _ = self.run_with(tmp_path, "cfg", "p = -1\n", "membership")
        assert code == 3
        assert "field 'p': must be positive" in capsys.readouterr().err


class TestGridSpellings:
    argv = ["converge", "--seq", "geometric", "--cap", "256", "--thresholds", "10,20",
            "--no-plot"]

    def profile(self, tmp_path, name, *extra):
        assert main([*self.argv, *extra, "--out", str(tmp_path / name)]) == 0
        return (tmp_path / name / "profile.csv").read_bytes()

    def test_long_option_beats_compact_key(self, tmp_path):
        long = self.profile(tmp_path, "long", "--grid-r", "4")
        assert self.profile(tmp_path, "both", "--grid-r", "4", "--grid", "r=5") == long
        assert self.profile(tmp_path, "compact", "--grid", "r=5") != long

    def test_long_config_beats_compact_flag(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("grid-r = 4\n")
        long = self.profile(tmp_path, "long", "--grid-r", "4")
        assert self.profile(tmp_path, "mixed", "--config", str(cfg), "--grid", "r=5") == long

    def test_compact_key_beats_r(self, tmp_path):
        assert (self.profile(tmp_path, "compact", "--grid", "r=2", "--r", "5")
                == self.profile(tmp_path, "long", "--grid-r", "2"))


def readme_commands():
    """Every ``dgmlab`` command in the README's ``sh`` blocks, as argv lists."""
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", README.read_text(), re.S):
        for line in block.replace("\\\n", " ").splitlines():
            argv = shlex.split(line, comments=True)
            if argv and argv[0] == "dgmlab":
                commands.append(argv[1:])
    return commands


def test_readme_commands_parse():
    commands = readme_commands()
    assert len(commands) >= 16
    parser = build_parser()
    for argv in commands:
        assert parser.parse_args(argv).command == argv[0]


def test_readme_library_sketch_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})


class TestUsageErrors:
    def test_unknown_family(self, tmp_path):
        assert run(tmp_path, "membership", "--family", "median") == 3

    def test_negative_p(self, tmp_path):
        assert run(tmp_path, "membership", "--p", "-1") == 3

    def test_bad_blocks_spec(self, tmp_path):
        assert run(tmp_path, "membership", "--blocks", "4,4") == 3

    def test_missing_subcommand(self):
        assert main([]) == 3

    def test_floats_have_17_significant_digits(self, tmp_path):
        run(tmp_path, "log-integral", "--n", "3", "--N", "7", "--p", "2")
        _, rows = read_csv(tmp_path / "log_integral.csv")
        value = rows[0][3]
        assert len(value.replace(".", "").replace("-", "").lstrip("0")) >= 16


class TestBoundedInputs:
    """Inputs past the stated bounds are refused at once with exit 3."""

    TABLES = {
        "late-index.csv": "1,1,0.5\nx,2,0.25\n",
        "no-entries.csv": "j,k,re\n\n",
        "wide.csv": "1,1,0.5\n2048,2049,0.25\n",  # a support box past 2^22 entries
        "one-field.csv": "1\n",
        "bad-value.csv": "1,1,abc\n",
        "bad-imag.csv": "1,1,1,abc\n",
    }

    @pytest.mark.parametrize("argv, field", [
        (["counterexample", "ratio", "--seq-p", "2", "--octaves", "4:40"], "octaves"),
        (["membership", "--seq", "geometric", "--octaves", "20:40"], "octaves"),
        (["counterexample", "ratio", "--seq-p", "2", "--fixed-m", str(2**25)], "fixed-m"),
        (["membership", "--seq", "geometric", "--fixed-m", str(2**25)], "fixed-m"),
        (["membership", "--seq", "geometric", "--blocks", f"2x{2**25}"], "blocks"),
        (["kernel-bound", "--points", "1"], "points"),
        (["kernel-bound", "--points", str(2**25)], "points"),
        (["kernel-bound", "--k-max", "-1"], "k-max"),
        (["kernel-bound", "--k-max", str(2**25)], "k-max"),
        (["sbp", "--seq", "geometric", "--end", str(10**12)], "end"),
        (["sbp", "--seq", "geometric", "--start", "3", "--end", "60", "--r", str(10**8)], "r"),
        (["sbp", "--seq", "geometric", "--end", str(HORIZON_LIMIT)], "end"),
        (["sbp", "--seq", "geometric", "--end", str(HORIZON_LIMIT - 2), "--r", "3"], "r"),
        (["kernel-bound", "--r", str(KERNEL_STEP_LIMIT + 1)], "r"),
        (["kernel-bound", "--r", str(10**12)], "r"),
        (["converge", "--seq", "geometric", "--grid-r", "2", "--at-rational", "1,1",
          "--thresholds", "5,3"], "thresholds"),
        (["converge", "--seq", "geometric", "--grid-r", "2", "--at-rational", "1,1",
          "--thresholds", "100", "--cap", "50"], "cap"),
        (["embedding", "--seq", "geometric", "--p1", "2", "--p2", "1"], "p1"),
        (["embedding", "--seq", "geometric", "--r1", "2", "--r2", "3"], "r1"),
        (["embedding", "--seq", "geometric", "--p", "0.5", "--r1", "1", "--r2", "2"], "p"),
        (["sbp", "--seq", "geometric", "--start", "5", "--end", "4"], "end"),
        (["counterexample", "certify", "--n-max", "-1"], "n-max"),
        (["converge", "--seq", "geometric", "--grid", "r"], "grid"),
        (["converge", "--seq", "table"], "table-file"),
        (["sbp", "--seq", "proposition", "--seq-p", "1"], "seq-p"),
        (["converge", "--seq", "geometric", "--exclusion", "0"], "exclusion"),
        (["converge", "--seq", "geometric", "--exclusion", "1"], "exclusion"),
        (["converge", "--seq", "geometric", "--grid", "r=3,exclusion=nan"], "exclusion"),
        (["membership", "--config", "missing.cfg"], "config"),
        (["converge", "--at-rational", "1"], "usage"),
        (["membership", "--seq", "table", "--table-file", "late-index.csv"], "table-file"),
        (["membership", "--seq", "table", "--table-file", "no-entries.csv"], "table-file"),
        (["membership", "--seq", "table", "--table-file", "wide.csv"], "table-file"),
        (["sbp", "--seq", "separable"], "seq"),
        (["membership", "--family", "mean-value", "--lambda", "1"], "lambda"),
        (["embedding", "--seq", "geometric", "--r1", "1", "--r2", "0"], "r2"),
        (["embedding", "--seq", "geometric", "--r1", "1", "--r2", "-2"], "r2"),
        (["membership", "--seq", "table", "--table-file", "one-field.csv"], "table-file"),
        (["membership", "--seq", "table", "--table-file", "bad-value.csv"], "table-file"),
        (["membership", "--seq", "table", "--table-file", "bad-imag.csv"], "table-file"),
        (["converge", "--cap", "16", "--thresholds", "8,16,24,40"], "cap"),
        (["converge", "--grid-r", "3", "--at-rational", "1,1", "--thresholds", "16,8",
          "--cap", "64"], "thresholds"),
        (["decay", "--horizon", "64", "--thresholds", "16,8"], "thresholds"),
        (["decay", "--horizon", "64", "--thresholds", "16,8000"], "thresholds"),
        (["decay", "--horizon", "64", "--thresholds=-8,0"], "thresholds"),
        (["decay", "--horizon", "1", "--thresholds=-3,0"], "thresholds"),
    ])
    def test_refused_fast(self, tmp_path, capsys, monkeypatch, argv, field):
        # the table files above, named relative to the working directory
        for name, text in self.TABLES.items():
            (tmp_path / name).write_text(text)
        monkeypatch.chdir(tmp_path)
        t0 = time.perf_counter()
        assert run(tmp_path, *argv) == 3
        assert time.perf_counter() - t0 < 1.0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: field '{field}'")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("argv, config, field", [
        (["--grid-r", "5"], "", "grid-r"),
        (["--points-per-band", "3"], "", "points-per-band"),
        (["--grid", "r=1,points=7"], "", "points-per-band"),
        (["--grid", "r=16"], "", "grid-r"),
        ([], "grid-r = 5\n", "grid-r"),
        ([], "grid = r=3,points=3\n", "points-per-band"),
        (["--grid-r", str(10**30)], "", "grid-r"),
    ])
    def test_grid_past_its_limit(self, tmp_path, capsys, monkeypatch, argv, config, field):
        # with the limit at 8 abscissas; refused before any grid is built
        monkeypatch.setattr("dgmlab.convergence.GRID_ABSCISSA_LIMIT", 8)
        monkeypatch.setattr("dgmlab.convergence.GridSpec", None)
        monkeypatch.setattr("dgmlab.convergence.regular_remainder_sup", None)
        cfg = tmp_path / "grid.cfg"
        cfg.write_text(config)
        assert run(tmp_path, "converge", "--seq", "geometric", "--cap", "64",
                   "--config", str(cfg), *argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: field '{field}': the grid may have ")
        assert captured.err.endswith("abscissas, more than 8\n")
        assert captured.err.count("\n") == 1
        assert not (tmp_path / "profile.csv").exists()

    def test_grid_at_its_limit_runs(self, tmp_path, capsys, monkeypatch):
        # step 3 with 2 points per band: at most (3 // 2 + 1) * (2 + 2) = 8 abscissas
        monkeypatch.setattr("dgmlab.convergence.GRID_ABSCISSA_LIMIT", 8)
        assert run(tmp_path, "converge", "--seq", "geometric", "--cap", "64",
                   "--grid", "r=3,points=2", "--no-plot") == 0
        assert "(49 points)" in capsys.readouterr().out

    def test_sbp_at_the_index_bound_runs(self, tmp_path, capsys):
        # reads a_n .. a_{end + r} with end + r = HORIZON_LIMIT
        assert run(tmp_path, "sbp", "--seq", "power", "--start", str(HORIZON_LIMIT - 30),
                   "--end", str(HORIZON_LIMIT - 3), "--r", "3") == 0
        assert capsys.readouterr().out.startswith("sbp: exact")

    def test_kernel_sweep_at_the_step_bound_runs(self, tmp_path):
        assert run(tmp_path, "kernel-bound", "--r", str(KERNEL_STEP_LIMIT),
                   "--points", "2", "--k-max", "0", "--no-plot") == 0
        rows = (tmp_path / "kernel_bound.csv").read_text().splitlines()
        assert len(rows) == 1 + KERNEL_STEP_LIMIT

    def test_largest_octave_is_accepted(self):
        assert _octave_starts(range(23, 25)) == [2**23, HORIZON_LIMIT]


class TestOutputDirectory:
    @pytest.mark.parametrize("below", [False, True], ids=["file", "below-file"])
    def test_unwritable_out_exits_3(self, tmp_path, capsys, below):
        afile = tmp_path / "afile"
        afile.write_text("")
        out = afile / "sub" if below else afile
        assert main(["log-integral", "--out", str(out)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: field 'out'")
        assert captured.err.count("\n") == 1

    def test_failed_run_writes_nothing(self, tmp_path):
        out = tmp_path / "new"
        assert main(["membership", "--seq", "table", "--table-file", str(tmp_path / "nope.csv"),
                     "--out", str(out)]) == 3
        assert not out.exists()

    def test_empty_table_keeps_its_header(self, tmp_path):
        assert run(tmp_path, "embedding", "--seq", "geometric", "--p1", "1", "--p2", "2") == 0
        assert (tmp_path / "embedding.csv").read_text() == "m,n,axis,lhs,bound\n"


# Exit-code contract: random subcommands, flags and values at tiny sizes.
# Each command starts with tiny sizes; the drawn flags come after them and
# win, and every size they can set stays tiny (caps and horizons <= 64,
# octaves <= 4, n-max <= 50, <= 5 kernel points).  A drawn flag goes on
# the command line or, as a ``key = value`` line, into a config file, where
# it loses to the command line's tiny sizes.
_ODD = ["0", "-1", "nan", "inf", "abc", ""]
_ODD_CONFIG_LINES = ["bogus = 1", "help = 1", "# a comment", "just words", "single = maybe"]
_SEQ = {"--seq": ["geometric", "power", "separable", "proposition", "table", "bogus"],
        "--ratio": ["0.5"], "--exponent": ["1.5"], "--seq-p": ["2", "1"],
        "--table-file": ["table.csv", "missing.csv"]}
_BLOCKS = {"--octaves": ["1:4", "3:1"], "--blocks": ["2x2,4x8", "0x0"], "--fixed-m": ["4"]}
_FUZZ = {
    "membership": (["--cap", "64", "--octaves", "1:3"],
                   {**_SEQ, **_BLOCKS, "--p": ["1", "2"], "--r": ["1", "3"],
                    "--family": ["mean-value", "max-window", "sup-window"],
                    "--lambda": ["1", "2"], "--cap": ["8", "64"], "--single": None}),
    "embedding": (["--octaves", "0:3"],
                  {**_SEQ, **_BLOCKS, "--p": ["1"], "--p1": ["1", "2"], "--p2": ["2"],
                   "--r": ["1", "3"], "--r1": ["1", "2"], "--r2": ["3", "4"]}),
    "sbp": (["--end", "20"],
            {**_SEQ, "--start": ["1", "5"], "--end": ["3", "64"], "--r": ["1", "3"],
             "--x": ["1.0", "2.0943951023931953"]}),
    "kernel-bound": (["--points", "5", "--k-max", "20"],
                     {"--r": ["1", "5"], "--points": ["2", "5"], "--k-max": ["64"]}),
    "converge": (["--cap", "32", "--thresholds", "4,8"],
                 {**_SEQ, "--p": ["2"], "--r": ["1", "3"], "--grid": ["r=2,points=1", "shape=9"],
                  "--grid-r": ["1", "3"], "--points-per-band": ["1", "2"],
                  "--exclusion": ["1e-6", "0.5"], "--thresholds": ["8,16", "16,8", "64"],
                  "--cap": ["8", "64"], "--at-rational": ["1,1", "2,1"]}),
    "decay": (["--horizon", "64", "--thresholds", "8,16"],
              {**_SEQ, "--condition": list(DECAY_CONDITIONS),
               "--thresholds": ["8,16", "16,8", "4096"], "--horizon": ["16", "64"],
               "--p": ["2"], "--r": ["1", "2"]}),
    "log-integral": ([], {"--n": ["10"], "--N": ["100"], "--p": ["1", "3"]}),
    "counterexample": (["--n-max", "50", "--octaves", "1:3"],
                       {"--p": ["2"], "--seq-p": ["1.5"], "--n-max": ["50"],
                        "--fixed-m": ["1", "16"], "--octaves": ["1:4", "4:1"],
                        "--norm-exponent": ["2"], "--restricted": None}),
}


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    (d / "table.csv").write_text("1,1,0.5\n1,2,0.25\n2,1,-0.25\n3,2,0.125\n")
    (d / "afile").write_text("")
    return d


@settings(derandomize=True, deadline=None, max_examples=150)
@given(data=st.data())
def test_every_run_ends_in_a_documented_exit_code(fuzz_dir, data):
    command = data.draw(st.sampled_from(sorted(_FUZZ)))
    base, flags = _FUZZ[command]
    argv = [command, *base]
    if command == "counterexample":
        argv.insert(1, data.draw(st.sampled_from(["certify", "ratio", "bogus"])))
    drawn = [(flag, None if flags[flag] is None else data.draw(st.sampled_from(flags[flag])))
             for flag in data.draw(st.lists(st.sampled_from(sorted(flags)), max_size=5))]
    # at most one odd value, so that most runs get past the validators
    odd = data.draw(st.none() | st.sampled_from(sorted(f for f, v in flags.items() if v)))
    if odd is not None:
        drawn.append((odd, data.draw(st.sampled_from(_ODD))))
    drawn += [("--no-plot", None)] * data.draw(st.booleans())
    lines = []
    for flag, value in drawn:
        if value in ("table.csv", "missing.csv"):
            value = str(fuzz_dir / value)
        if data.draw(st.booleans()):
            argv += [flag] if value is None else [flag, value]
        else:
            switch = data.draw(st.sampled_from(["true", "false"]))
            lines.append(f"{flag[2:]} = {switch if value is None else value}")
    if data.draw(st.integers(0, 5)) == 0:
        lines.append(data.draw(st.sampled_from(_ODD_CONFIG_LINES)))
    if lines:
        (fuzz_dir / "run.cfg").write_text("".join(f"{line}\n" for line in lines))
        argv += ["--config", str(fuzz_dir / "run.cfg")]
    out = data.draw(st.sampled_from(["out"] * 4 + ["afile", "afile/sub"]))
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main([*argv, "--out", str(fuzz_dir / out)])
    assert code in (0, 1, 2, 3), (argv, lines)
    # one line: the verdict on stdout, or the error on stderr
    printed, err = stdout.getvalue(), stderr.getvalue()
    if code == 3:
        assert printed == "" and err.startswith("error:") and err.count("\n") == 1, (argv, lines)
    else:
        assert printed.count("\n") == 1 and err == "", (argv, lines)


def _exits(capsys, parse) -> tuple:
    """The exit code, stdout and stderr of a parse that exits."""
    with pytest.raises(SystemExit) as exc:
        parse()
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


class TestOneSubcommandParser:
    """A run adds the arguments of its own subcommand only; what it prints
    is what the parser of every subcommand prints."""

    @pytest.mark.parametrize("argv", [["--help"], *([name, "--help"] for name in cli._COMMANDS)],
                             ids=lambda argv: " ".join(argv))
    def test_help_is_the_full_parsers(self, capsys, argv):
        full = _exits(capsys, lambda: build_parser().parse_args(argv))
        assert full[0] == 0 and full[1].startswith("usage: dgmlab")
        assert _exits(capsys, lambda: main(argv)) == full

    @pytest.mark.parametrize("argv", [["bogus"], [], ["converge", "--bogus"],
                                      ["--bogus", "converge"], ["decay", "--condition", "x"]],
                             ids=["unknown-subcommand", "no-subcommand", "unknown-option",
                                  "unknown-top-level-option", "bad-choice"])
    def test_errors_are_the_full_parsers(self, capsys, argv):
        with pytest.raises(cli.UsageError) as exc:
            build_parser().parse_args(argv)
        assert main(argv) == 3
        assert capsys.readouterr() == ("", f"error: {exc.value}\n")

    def test_only_the_named_subcommand_gets_arguments(self):
        def with_arguments(parser):
            [sub] = [a for a in parser._actions if a.dest == "command"]
            # every parser has its -h
            return [name for name, sp in sub.choices.items() if len(sp._actions) > 1]

        assert with_arguments(build_parser("converge")) == ["converge"]
        assert with_arguments(build_parser("bogus")) == list(cli._COMMANDS)
        assert with_arguments(build_parser()) == list(cli._COMMANDS)
