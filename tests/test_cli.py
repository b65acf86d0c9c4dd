import csv
import re
import shlex
from pathlib import Path

import numpy as np

from dgmlab.cli import build_parser, main

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
    def test_exact_identity(self, tmp_path):
        code = run(tmp_path, "sbp", "--seq", "power", "--exponent", "1.5",
                   "--start", "5", "--end", "80", "--r", "3", "--x", "1.0")
        assert code == 0
        header, rows = read_csv(tmp_path / "sbp.csv")
        assert header == ["component", "re", "im"]
        comps = {r[0] for r in rows}
        assert {"main_term", "upper_boundary", "lower_boundary",
                "total", "direct_sum", "relative_error"} <= comps

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

    def test_unknown_condition(self, tmp_path):
        assert run(tmp_path, "decay", "--condition", "bogus") == 3


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
