import numpy as np
import pytest

from dgmlab import output
from dgmlab.output import fmt_value, write_csv
from references import per_row_write_csv


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


def mixed_rows():
    """Runs of one row type, 0 to 9 rows long, interleaved with rows that
    have no %-format (bool, numpy scalars, complex) and rows of other lengths."""
    rng = np.random.default_rng(3)
    makers = [
        lambda i: (i, float(rng.normal()), "name", 0.5 * i),
        lambda i: [i, float(rng.normal()), "name", 2 ** 70 + i],
        lambda i: (i, float(rng.normal())),
        lambda i: (i, True, 0.1),
        lambda i: (np.float64(rng.normal()), i),
        lambda i: (complex(i, -1), 1.5),
        lambda i: (),
        lambda i: (float("nan"), -0.0, float("-inf"), i),
    ]
    rows = []
    for i in range(200):
        make = makers[int(rng.integers(len(makers)))]
        rows += [make(i) for _ in range(int(rng.integers(10)))]
    return rows


@pytest.mark.parametrize("batch", [1, 3, 4096])
def test_batched_rows_equal_the_per_row_writer(tmp_path, monkeypatch, batch):
    monkeypatch.setattr(output, "_BATCH_ROWS", batch)
    header = ["a", "b", "c", "d"]
    rows = mixed_rows()
    path, per_row = tmp_path / "t.csv", tmp_path / "per_row.csv"
    write_csv(path, header, iter(rows))
    per_row_write_csv(per_row, header, rows)
    assert path.read_bytes() == per_row.read_bytes() == reference_csv(header, rows)
    # one long run crosses two batch edges
    run = [(i, i / 7, "x") for i in range(2 * batch + 5)]
    write_csv(path, header[:3], run)
    per_row_write_csv(per_row, header[:3], run)
    assert path.read_bytes() == per_row.read_bytes() == reference_csv(header[:3], run)


@pytest.mark.parametrize("rows", [[], [()], [(), ()]], ids=["no-rows", "one-empty", "two-empty"])
def test_empty_tables(tmp_path, rows):
    path = tmp_path / "t.csv"
    write_csv(path, ["a", "b"], rows)
    per_row_write_csv(tmp_path / "per_row.csv", ["a", "b"], rows)
    assert path.read_bytes() == (tmp_path / "per_row.csv").read_bytes()
    assert path.read_bytes() == reference_csv(["a", "b"], rows)
