"""Deterministic CSV tables and a minimal static SVG polyline plotter."""

from __future__ import annotations

import itertools
import math
from pathlib import Path
from typing import Iterable, Sequence


def fmt_value(v) -> str:
    """Floats with 17 significant digits; everything else via str."""
    if isinstance(v, bool):
        return str(v).lower()
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


# the field format of each exact type whose %-format equals ``fmt_value``
_FIELD_FORMATS = {float: "%.17g", int: "%d", str: "%s"}


class _RowFormats(dict):
    """Row-type signature -> one %-format for the whole line, or None when a
    field's type has none (bool, numpy scalars, complex): that row goes
    through ``fmt_value``."""

    def __missing__(self, signature: tuple) -> str | None:
        try:
            fmt = ",".join(_FIELD_FORMATS[t] for t in signature) + "\n"
        except KeyError:
            fmt = None
        self[signature] = fmt
        return fmt


# most rows formatted by one %-operation
_BATCH_ROWS = 4096


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Comma-joined lines.  Nothing is quoted: every field the lab writes is
    a number, ``true``/``false`` or a fixed name without commas.  A run of
    rows with one row-type signature is formatted ``_BATCH_ROWS`` at a time
    by one repeated line format."""
    formats = _RowFormats()
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for signature, run in itertools.groupby(rows, key=lambda row: tuple(map(type, row))):
            fmt = formats[signature]
            if fmt is None:
                fh.writelines(",".join(map(fmt_value, row)) + "\n" for row in run)
                continue
            while batch := list(itertools.islice(run, _BATCH_ROWS)):
                fh.write(fmt * len(batch) % tuple(itertools.chain.from_iterable(batch)))


def _ticks(lo: float, hi: float) -> list[float]:
    if hi <= lo:
        return [lo]
    return [lo + (hi - lo) * i / 4 for i in range(5)]


def write_polyline_svg(path, series: Sequence[tuple[str, Sequence[float], Sequence[float]]],
                       title: str = "", log_y: bool = False) -> None:
    """One 640 x 420 panel, any number of polylines; log_y plots log10 of positive y."""
    width, height = 640, 420
    margin = 56.0
    plot_w, plot_h = width - 2 * margin, height - 2 * margin

    def prep(ys):
        if not log_y:
            return list(map(float, ys))
        return [math.log10(y) if y > 0 else math.nan for y in ys]

    pts = [(list(map(float, xs)), prep(ys)) for _, xs, ys in series]
    finite_x = [x for xs, _ in pts for x in xs]
    finite_y = [y for _, ys in pts for y in ys if not math.isnan(y)]
    if not finite_x or not finite_y:
        finite_x, finite_y = [0.0, 1.0], [0.0, 1.0]
    x0, x1 = min(finite_x), max(finite_x)
    y0, y1 = min(finite_y), max(finite_y)
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0

    def sx(x):
        return margin + (x - x0) / (x1 - x0) * plot_w

    def sy(y):
        return height - margin - (y - y0) / (y1 - y0) * plot_h

    colors = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e"]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<rect x="{margin}" y="{margin}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="#888" stroke-width="1"/>',
    ]
    if title:
        parts.append(
            f'<text x="{width / 2:.1f}" y="24" text-anchor="middle" '
            f'font-family="monospace" font-size="14">{title}</text>'
        )
    for tx in _ticks(x0, x1):
        parts.append(
            f'<text x="{sx(tx):.2f}" y="{height - margin + 18:.2f}" text-anchor="middle" '
            f'font-family="monospace" font-size="10">{tx:.4g}</text>'
        )
    ylab = "log10" if log_y else ""
    for ty in _ticks(y0, y1):
        parts.append(
            f'<text x="{margin - 6:.2f}" y="{sy(ty) + 3:.2f}" text-anchor="end" '
            f'font-family="monospace" font-size="10">{ty:.4g}</text>'
        )
    if ylab:
        parts.append(
            f'<text x="14" y="{margin - 8:.2f}" font-family="monospace" '
            f'font-size="10">{ylab}</text>'
        )
    for i, (label, _, _) in enumerate(series):
        color = colors[i % len(colors)]
        xs, ys = pts[i]
        coords = " ".join(
            f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(xs, ys) if not math.isnan(y)
        )
        if coords:
            parts.append(
                f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.5"/>'
            )
        parts.append(
            f'<text x="{width - margin - 4:.1f}" y="{margin + 14 + 14 * i:.1f}" '
            f'text-anchor="end" font-family="monospace" font-size="11" '
            f'fill="{color}">{label}</text>'
        )
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n")
