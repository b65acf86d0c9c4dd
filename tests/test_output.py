import numpy as np

from dgmlab.output import fmt_value, write_csv


def reference_csv(header, rows):
    """The field-by-field writer: every field through ``fmt_value``."""
    lines = [",".join(header)] + [",".join(map(fmt_value, row)) for row in rows]
    return ("\n".join(lines) + "\n").encode()


def test_write_csv_bytes_equal_fmt_value_writer(tmp_path):
    header = ["a", "b", "c", "d"]
    rows = [
        (1, 0.1, "name", True),
        [2, -0.0, "x", False],
        (3, float("nan"), "y", 1.5),
        (4, float("inf"), "z", -float("inf")),
        [5e-324, 2**70, -(2**70), 1e308],
        (np.float64(0.1), np.int64(-7), np.bool_(True), np.bool_(False)),
        (1 + 2j, complex(0.0, -0.0), 0, ""),
        (7, 1 / 3, "w", 2.5),
        (8, 2.0 / 3, "v", "now a string"),
        [9, 1e-310, "u", 3],
        (np.float64(np.nan), -1, "t", np.int64(2**62)),
        (),
        (10, 0.5, "s", 7),
    ]
    path = tmp_path / "t.csv"
    write_csv(path, header, rows)
    assert path.read_bytes() == reference_csv(header, rows)


def test_write_csv_takes_an_iterator(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ["n", "x"], zip(range(3), [0.5, 1e100, -2.0]))
    assert path.read_text() == "n,x\n0,0.5\n1,1e+100\n2,-2\n"
