"""Configuration-driven experiment runner.

Every lab operation is reachable through a subcommand.  Its handler only
computes; ``main`` writes the CSV tables (and SVG plots, unless
``--no-plot``) into ``--out``, prints a one-line verdict, and exits with a
machine-readable status:

    0  consistent / converging / decaying / verified / no violations
    1  violated / not converging / not decaying / unverified
    2  inconclusive
    3  usage or configuration error, an input past its stated bound, an
       --out that cannot be written, or a run out of memory

Options resolve in three layers: the default declared on the subcommand's
parser, then a flat ``key = value`` config file (``--config``), then
command-line flags.  Config values are typed and checked like flags.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import fields
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .output import write_csv, write_polyline_svg
from .sequences import (
    HORIZON_LIMIT,
    additive_rule,
    geometric_double_rule,
    geometric_rule,
    power_double_rule,
    power_rule,
    table_rule,
)

# convergence, decay, membership, kernels and counterexample are imported by
# the handlers that run them, so each subcommand loads only the modules it uses.
if TYPE_CHECKING:
    from .membership import BoundSpec

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 3

_FAMILIES = ("mean-value", "max-window", "sup-window")  # membership.BoundFamily's values


class UsageError(Exception):
    """Configuration problem; carries the offending field name."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"field '{field}': {message}")


def _read_config(path: str) -> dict[str, str]:
    cfg: dict[str, str] = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise UsageError("config", str(exc)) from None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError("config", f"line {lineno}: expected 'key = value'")
        key, value = line.split("=", 1)
        cfg[key.strip()] = value.strip()
    return cfg


def _positive(name: str, value: float) -> float:
    if not value > 0:
        raise UsageError(name, f"must be positive, got {value}")
    return value


def _step(name: str, value: int, high: int | None = None) -> int:
    if value < 1:
        raise UsageError(name, f"must be >= 1, got {value}")
    if high is not None and value > high:
        raise UsageError(name, f"must be at most {high}, got {value}")
    return int(value)


def _cap(name: str, value: int, low: int = 1, high: int = HORIZON_LIMIT) -> int:
    value = int(value)
    if not low <= value <= high:
        raise UsageError(name, f"must be in [{low}, {high}], got {value}")
    return value


def _thresholds(ts: list[int]) -> list[int]:
    """Strictly increasing positive thresholds."""
    if not ts or any(b <= a for a, b in zip(ts, ts[1:])):
        raise UsageError("thresholds", "must be strictly increasing")
    if ts[0] < 1:
        raise UsageError("thresholds", "must be positive")
    return ts


def _int_list(text: str) -> list[int]:
    return [int(t) for t in text.split(",") if t.strip()]


def _int_pair(text: str) -> tuple[int, int]:
    try:
        a, b = (int(t) for t in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected L1,L2, got {text!r}") from None
    return a, b


def _octaves(text: str) -> range:
    """``LO:HI``, the octaves LO..HI."""
    try:
        lo, hi = (int(t) for t in text.split(":"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected LO:HI, got {text!r}") from None
    if lo < 0 or hi < lo:
        raise argparse.ArgumentTypeError("need 0 <= LO <= HI")
    return range(lo, hi + 1)


def _block_pairs(text: str) -> list[tuple[int, int]]:
    """``MxN,...``, explicit blocks."""
    pairs = []
    for part in text.split(","):
        a, sep, b = part.partition("x")
        if not sep:
            raise argparse.ArgumentTypeError(f"expected MxN, got {part!r}")
        pairs.append((int(a), int(b)))
    return pairs


def _load_table(path: str):
    """CSV rows (j, k, re[, im]) with implicit zeros elsewhere."""
    import csv
    entries = []
    first = True
    try:
        with open(path, newline="") as fh:
            for i, row in enumerate(csv.reader(fh)):
                if not row or not row[0].strip():
                    continue
                header, first = first, False
                try:
                    j, k = int(row[0]), (int(row[1]) if len(row) > 1 else 0)
                except ValueError:
                    if header:
                        continue  # the first non-blank row may be a header
                    raise UsageError("table-file", f"row {i + 1}: bad indices") from None
                if j < 1 or k < 1 or len(row) < 3:
                    raise UsageError("table-file", f"row {i + 1}: need j,k >= 1 and a value")
                try:
                    re = float(row[2])
                    im = float(row[3]) if len(row) > 3 and row[3].strip() else 0.0
                except ValueError:
                    raise UsageError("table-file", f"row {i + 1}: bad value") from None
                if not (math.isfinite(re) and math.isfinite(im)):
                    raise UsageError("table-file", f"row {i + 1}: value is not finite")
                entries.append((j, k, complex(re, im)))
    except OSError as exc:
        raise UsageError("table-file", str(exc)) from None
    if not entries:
        raise UsageError("table-file", "no entries")
    jmax = max(e[0] for e in entries)
    kmax = max(e[1] for e in entries)
    if jmax * kmax > (1 << 22):
        raise UsageError("table-file", "support box too large")
    arr = np.zeros((jmax, kmax), dtype=complex)
    for j, k, v in entries:
        arr[j - 1, k - 1] = v
    if not arr.imag.any():
        arr = arr.real  # a real table keeps the exact real-rule paths
    return table_rule(arr, label=f"table({path})")


def _double_rule(args: argparse.Namespace):
    kind = args.seq
    if kind == "geometric":
        return geometric_double_rule(_positive("ratio", args.ratio))
    if kind == "power":
        return power_double_rule(_positive("exponent", args.exponent))
    if kind == "separable":
        q = _positive("ratio", args.ratio)
        return additive_rule(geometric_rule(q), geometric_rule(q))
    if kind == "proposition":
        from .counterexample import double_rule
        return double_rule(_seq_p(args))
    # table: the parser's choices admit no other kind
    if not args.table_file:
        raise UsageError("table-file", "required when seq=table")
    return _load_table(args.table_file)


def _single_rule(args: argparse.Namespace):
    kind = args.seq
    if kind == "geometric":
        return geometric_rule(_positive("ratio", args.ratio))
    if kind == "power":
        return power_rule(_positive("exponent", args.exponent))
    if kind == "proposition":
        from .counterexample import single_rule
        return single_rule(_seq_p(args))
    raise UsageError("seq", f"no single-sequence form for {kind!r}")


def _seq_p(args: argparse.Namespace) -> float:
    """Construction exponent of the proposition sequence.

    ``--seq-p`` always wins; where it has no default, ``--p`` doubles as the
    construction exponent (subcommands where p has no role of its own).
    """
    p = args.p if args.seq_p is None else args.seq_p
    if not p > 1:
        raise UsageError("seq-p", "construction exponent must exceed 1")
    return p


def _bound_spec(args: argparse.Namespace) -> BoundSpec:
    from .membership import BoundFamily, BoundSpec
    lam = _step("lambda", args.lam)
    cap = _cap("cap", args.cap)
    try:
        return BoundSpec(BoundFamily(args.family), lam=lam, horizon_cap=cap)
    except ValueError as exc:
        raise UsageError("lambda", str(exc)) from None


def _octave_starts(octaves: range) -> list[int]:
    """2**t for each octave t; octaves whose block would start past
    ``HORIZON_LIMIT`` are refused."""
    top = HORIZON_LIMIT.bit_length() - 1
    if octaves[-1] > top:
        raise UsageError("octaves", f"octaves must be at most {top} "
                                    f"(blocks start at most at {HORIZON_LIMIT})")
    return [2**t for t in octaves]


def _blocks(args: argparse.Namespace) -> list[tuple[int, int]]:
    if args.blocks:
        return [(_cap("blocks", m), _cap("blocks", n)) for m, n in args.blocks]
    if args.fixed_m is not None:
        m = _cap("fixed-m", args.fixed_m)
        return [(m, n) for n in _octave_starts(args.octaves)]
    return [(n, n) for n in _octave_starts(args.octaves)]


class _Run(NamedTuple):
    """A handler's verdict line and exit code, its CSV tables (name ->
    ``(header, rows)``) and its SVG plots (name -> ``(series, title, log_y)``)."""

    line: str
    code: int
    tables: dict
    plots: dict = {}


def _records(cls, items) -> tuple[list[str], list[list]]:
    """A table of dataclass records: the field names, then one row per record."""
    names = [f.name for f in fields(cls)]
    return names, [[getattr(e, k) for k in names] for e in items]


# ---------------------------------------------------------------------------
# subcommand handlers: each returns a _Run and writes nothing


def _run_membership(args: argparse.Namespace) -> _Run:
    from .membership import BlockEvidence, gm_membership_scan, membership_scan
    p = _positive("p", args.p)
    r = _step("r", args.r)
    spec = _bound_spec(args)
    if args.single:
        seq = _single_rule(args)
        blocks1 = sorted({m for m, _ in _blocks(args)})
        report = gm_membership_scan(seq, p, r, spec, blocks1)
    else:
        report = membership_scan(_double_rule(args), p, r, spec, _blocks(args))
    return _Run(f"membership: {report.verdict.value} c_estimate={report.c_estimate:.6g} "
                f"growth_fit={report.growth_fit:.4g}",
                report.verdict.code,
                {"membership.csv": _records(BlockEvidence, report.per_block)})


def _run_embedding(args: argparse.Namespace) -> _Run:
    from .membership import EmbeddingViolation, divisor_embedding_check, embedding_check
    c = _double_rule(args)
    blocks = _blocks(args)
    p1, p2, r1, r2 = args.p1, args.p2, args.r1, args.r2
    if p1 is not None and p2 is not None:
        r = _step("r", args.r)
        if not 0 < p1 <= p2:
            raise UsageError("p1", "need 0 < p1 <= p2")
        report = embedding_check(c, r, p1, p2, blocks)
        kind = f"p-norm p1={p1:g} p2={p2:g}"
    elif r1 is not None and r2 is not None:
        p = _positive("p", args.p)
        if p < 1:
            raise UsageError("p", "divisor embedding needs p >= 1")
        r2 = _step("r2", r2)
        if r1 < 1 or r2 % r1 != 0:
            raise UsageError("r1", "r1 must divide r2")
        report = divisor_embedding_check(c, p, r1, r2, blocks)
        kind = f"step r1={r1} r2={r2}"
    else:
        raise UsageError("p1", "give either --p1/--p2 or --r1/--r2")
    return _Run(f"embedding ({kind}): {'ok' if report.ok else 'violated'} "
                f"checked={report.checked} violations={len(report.violations)}",
                EXIT_PASS if report.ok else EXIT_FAIL,
                {"embedding.csv": _records(EmbeddingViolation, report.violations)})


def _run_sbp(args: argparse.Namespace) -> _Run:
    from .kernels import direct_sine_sum, sbp_decompose
    seq = _single_rule(args)
    n = _step("start", args.start)
    # the decomposition reads a_n .. a_{end + r}: end + r <= HORIZON_LIMIT
    m = _step("end", args.end, high=HORIZON_LIMIT - 1)
    if m < n:
        raise UsageError("end", "need end >= start")
    r = _step("r", args.r, high=HORIZON_LIMIT - m)
    x = args.x
    dec = sbp_decompose(seq, n, m, r, x)
    direct = direct_sine_sum(seq, n, m, x)
    err = abs(dec.total - direct) / (1.0 + abs(direct))
    ok = err <= 1e-12
    rows = [("main_term", dec.main_term.real, dec.main_term.imag),
            ("upper_boundary", dec.upper_boundary.real, dec.upper_boundary.imag),
            ("lower_boundary", dec.lower_boundary.real, dec.lower_boundary.imag),
            ("total", dec.total.real, dec.total.imag),
            ("direct_sum", direct.real, direct.imag),
            ("relative_error", err, 0.0)]
    return _Run(f"sbp: {'exact' if ok else 'MISMATCH'} relative_error={err:.3e}",
                EXIT_PASS if ok else EXIT_FAIL,
                {"sbp.csv": (["component", "re", "im"], rows)})


def _run_kernel_bound(args: argparse.Namespace) -> _Run:
    from .kernels import KERNEL_STEP_LIMIT, HalfBandSweep, kernel_bound_sweep
    r = _step("r", args.r, high=KERNEL_STEP_LIMIT)
    points = _cap("points", args.points, low=2)
    k_max = _cap("k-max", args.k_max, low=0)
    sweeps = kernel_bound_sweep(r, points, k_max)
    bad = sum(s.violations for s in sweeps)
    worst = max(s.max_ratio for s in sweeps)
    return _Run(f"kernel-bound: {'ok' if bad == 0 else 'violated'} "
                f"max_ratio={worst:.6f} violations={bad}",
                EXIT_PASS if bad == 0 else EXIT_FAIL,
                {"kernel_bound.csv": _records(HalfBandSweep, sweeps)})


def _run_converge(args: argparse.Namespace) -> _Run:
    from .convergence import (GRID_ABSCISSA_LIMIT, GridSpec, ProfileEntry, grid_size_bound,
                              rational_point_convergence, regular_remainder_sup)
    c = _double_rule(args)
    cap = _cap("cap", args.cap)
    thresholds = _thresholds(args.thresholds)
    if cap < thresholds[-1]:
        raise UsageError("cap", f"must be at least the largest threshold {thresholds[-1]}, "
                                f"got {cap}")
    caps = (cap, cap)
    gr = _step("grid-r", args.r if args.grid_r is None else args.grid_r)
    if args.at_rational:
        l1, l2 = args.at_rational
        try:
            profile = rational_point_convergence(c, gr, l1, l2, thresholds, caps)
        except ValueError as exc:
            raise UsageError("at-rational", str(exc)) from None
        where = f"rational point ({l1},{l2}) of step {gr}"
    else:
        points = _step("points-per-band", args.points_per_band)
        for name, bound in (("grid-r", grid_size_bound(gr, 1)),
                            ("points-per-band", grid_size_bound(gr, points))):
            if bound > GRID_ABSCISSA_LIMIT:
                raise UsageError(name, f"the grid may have {bound} abscissas, "
                                       f"more than {GRID_ABSCISSA_LIMIT}")
        try:
            grid = GridSpec(r=gr, points_per_band=points, exclusion_radius=args.exclusion)
        except ValueError as exc:
            # the step, the points and the abscissa bound are refused above
            raise UsageError("exclusion", str(exc)) from None
        profile = regular_remainder_sup(c, grid, thresholds, caps)
        where = f"grid r={gr} ({profile.grid_size} points)"
    entries = profile.entries
    plot = ([("sup", [e.threshold for e in entries], [max(e.sup, 1e-300) for e in entries])],
            f"remainder sup vs threshold [{c.label}]", True)
    return _Run(f"converge: {profile.verdict.value} at {where} "
                f"exact={str(profile.exact).lower()} caps={profile.caps}",
                profile.verdict.code,
                {"profile.csv": _records(ProfileEntry, entries)},
                {"profile.svg": plot} if entries else {})


def _run_decay(args: argparse.Namespace) -> _Run:
    from .decay import (TAIL_HORIZON_LIMIT, DecaySample, classify_decay, decay_report,
                        frontier_samples)
    c = _double_rule(args)
    condition = args.condition
    tail = condition.endswith("tail")  # only the tail conditions read p and r
    horizon = _cap("horizon", args.horizon, high=TAIL_HORIZON_LIMIT if tail else HORIZON_LIMIT)
    p, r = args.p, args.r
    if tail:
        if not p >= 1:  # also refuses NaN
            raise UsageError("p", "need p >= 1")
        r = _step("r", r)
    thresholds = _thresholds(args.thresholds)
    reach = max((m + n for m, n in frontier_samples(horizon)), default=0)
    if thresholds[-1] > reach:
        raise UsageError("thresholds", f"must be at most {reach}, the largest index sum that "
                                       f"horizon {horizon} reaches, got {thresholds[-1]}")
    report = decay_report(c, condition, thresholds, horizon, p, r)
    verdict = classify_decay(report)
    tails = " ".join(f"{t:.4g}" for t in report.max_tail)
    return _Run(f"decay ({condition}): {verdict.value} max_tail=[{tails}] "
                f"trend_fit={report.trend_fit:.4g}",
                verdict.code,
                {"decay.csv": _records(DecaySample, report.samples)},
                {"decay.svg": ([("max_tail", report.thresholds,
                                 [max(t, 1e-300) for t in report.max_tail])],
                               f"{condition} tail vs threshold [{c.label}]", True)})


def _run_log_integral(args: argparse.Namespace) -> _Run:
    from .decay import log_integral_bound
    n = _step("n", args.n)
    N = _step("N", args.N)
    p = args.p
    if not p >= 1:  # also refuses NaN
        raise UsageError("p", "need p >= 1")
    value, bound = log_integral_bound(n, N, p)
    ok = value <= bound + 1e-12
    return _Run(f"log-integral: {'ok' if ok else 'violated'} value={value:.12g} bound={bound:.12g}",
                EXIT_PASS if ok else EXIT_FAIL,
                {"log_integral.csv": (["n", "N", "p", "value", "bound"],
                                      [(n, N, p, value, bound)])})


def _run_counterexample(args: argparse.Namespace) -> _Run:
    from . import counterexample as cex
    p = _seq_p(args)
    if args.action == "certify":
        n_max = args.n_max
        if n_max < 0 or 6 * n_max + 5 > HORIZON_LIMIT:
            raise UsageError("n-max", "out of range")
        cert = cex.divergence_certificate(n_max, p)
        rows = zip(cert.n_values.tolist(), cert.partial_sums.tolist(),
                   cert.lower_bounds.tolist(),
                   (cert.partial_sums - cert.lower_bounds).tolist())
        thin = slice(None, None, max(1, len(cert) // 512))
        series = [("partial_sum", cert.n_values[thin], cert.partial_sums[thin]),
                  ("lower_bound", cert.n_values[thin], cert.lower_bounds[thin])]
        return _Run(f"counterexample certify: {'verified' if cert.verified else 'FAILED'} "
                    f"rows={len(cert)} "
                    f"final_margin={cert.partial_sums[-1] - cert.lower_bounds[-1]:.6g}",
                    EXIT_PASS if cert.verified else EXIT_FAIL,
                    {"certificate.csv": (["N", "partial_sum", "lower_bound", "margin"], rows)},
                    {"certificate.svg": (series, f"divergence certificate (p={p:g})", False)})
    m = _cap("fixed-m", args.fixed_m)
    q = _positive("norm-exponent", args.norm_exponent)
    ns = _octave_starts(args.octaves)
    ratios = [cex.violation_ratio(m, n, p, norm_exponent=q, restricted=args.restricted)
              for n in ns]
    verdict, slope = cex.read_ratios(ns, ratios)
    return _Run(f"counterexample ratio: {verdict.value} slope={slope:.4g} norm_exponent={q:g}",
                verdict.code, {"ratio.csv": (["n", "ratio"], zip(ns, ratios))})


# ---------------------------------------------------------------------------
# parser: the one place each option's type and default are declared


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError("usage", message)


def _add_seq_flags(sp, seq_p: float | None = 2.0):
    sp.add_argument("--seq", default="geometric", help="coefficient rule",
                    choices=["geometric", "power", "separable", "proposition", "table"])
    sp.add_argument("--ratio", type=float, default=0.5, help="geometric/separable ratio")
    sp.add_argument("--exponent", type=float, default=2.0, help="power-rule exponent")
    sp.add_argument("--seq-p", type=float, default=seq_p,
                    help="construction exponent of the proposition sequence")
    sp.add_argument("--table-file", help="CSV rows j,k,re[,im] for --seq table")


def _add_blocks(sp):
    sp.add_argument("--blocks", type=_block_pairs, help="explicit blocks MxN,...")
    sp.add_argument("--octaves", type=_octaves, default="1:6", help="dyadic octaves LO:HI")
    sp.add_argument("--fixed-m", type=int, help="fix m across the octaves")


# subcommand -> its help line, in the order that --help lists them
_COMMANDS = {
    "membership": "class membership scan",
    "embedding": "p-norm or step embedding check",
    "sbp": "summation-by-parts decomposition",
    "kernel-bound": "half-band kernel bound sweep",
    "converge": "regular-convergence remainder profile",
    "decay": "decay/tail condition report",
    "log-integral": "log-integral inequality value",
    "counterexample": "sharpness example tools",
}


def build_parser(only: str | None = None) -> argparse.ArgumentParser:
    """The parser of every subcommand.  Each is registered with its name and
    help; if ``only`` names one, only that one gets its arguments."""
    ap = _Parser(prog="dgmlab", description=__doc__,
                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)
    every = only not in _COMMANDS

    def command(name, handler):
        sp = sub.add_parser(name, help=_COMMANDS[name],
                            formatter_class=argparse.ArgumentDefaultsHelpFormatter)
        if not (every or name == only):
            return None
        sp.set_defaults(handler=handler, parser=sp)
        sp.add_argument("--config", help="flat key = value file; flags win over it")
        sp.add_argument("--out", default=".", help="output directory")
        sp.add_argument("--no-plot", action="store_true", help="skip the SVG plot")
        return sp

    if sp := command("membership", _run_membership):
        _add_seq_flags(sp)
        sp.add_argument("--p", type=float, default=1.0, help="norm exponent")
        sp.add_argument("--r", type=int, default=1, help="difference step")
        sp.add_argument("--family", choices=_FAMILIES, default="max-window",
                        help="right-hand-side bound family")
        sp.add_argument("--lambda", dest="lam", type=int, default=2, help="window factor")
        sp.add_argument("--cap", type=int, default=1 << 15, help="horizon cap of sup searches")
        _add_blocks(sp)
        sp.add_argument("--single", action="store_true", help="scan a single sequence")

    if sp := command("embedding", _run_embedding):
        _add_seq_flags(sp)
        sp.add_argument("--p", type=float, default=1.0, help="norm exponent of the step mode")
        sp.add_argument("--p1", type=float, help="smaller norm exponent of the p-norm mode")
        sp.add_argument("--p2", type=float, help="larger norm exponent of the p-norm mode")
        sp.add_argument("--r", type=int, default=1, help="difference step of the p-norm mode")
        sp.add_argument("--r1", type=int, help="smaller step of the step mode")
        sp.add_argument("--r2", type=int, help="larger step, a multiple of r1")
        _add_blocks(sp)

    if sp := command("sbp", _run_sbp):
        _add_seq_flags(sp)
        sp.add_argument("--start", type=int, default=1, help="first index n")
        sp.add_argument("--end", type=int, default=50, help="last index m")
        sp.add_argument("--r", type=int, default=1, help="difference step")
        sp.add_argument("--x", type=float, default=1.0, help="abscissa")

    if sp := command("kernel-bound", _run_kernel_bound):
        sp.add_argument("--r", type=int, default=1, help="difference step")
        sp.add_argument("--points", type=int, default=1000, help="abscissas per half-band")
        sp.add_argument("--k-max", type=int, default=100, help="largest kernel index")

    if sp := command("converge", _run_converge):
        _add_seq_flags(sp, seq_p=None)
        sp.add_argument("--p", type=float, default=2.0,
                        help="construction exponent when --seq-p is not given")
        sp.add_argument("--r", type=int, default=3, help="grid step when no grid option gives one")
        sp.add_argument("--grid", help="compact r=3,points=2,exclusion=1e-6; "
                                       "the long grid options win over its keys")
        sp.add_argument("--grid-r", type=int, help="grid step")
        sp.add_argument("--points-per-band", type=int, default=2, help="grid points per band")
        sp.add_argument("--exclusion", type=float, default=1e-6,
                        help="exclusion radius around singular abscissas")
        sp.add_argument("--thresholds", type=_int_list, default="8,16,24,40",
                        help="remainder thresholds")
        sp.add_argument("--cap", type=int, default=8192, help="partial-sum cap per axis")
        sp.add_argument("--at-rational", type=_int_pair,
                        help="profile the rational point L1,L2 of step grid-r instead")

    if sp := command("decay", _run_decay):
        from .decay import DECAY_CONDITIONS
        _add_seq_flags(sp)
        sp.add_argument("--condition", choices=DECAY_CONDITIONS, default="jk",
                        help="decay or tail condition")
        sp.add_argument("--thresholds", type=_int_list, default="16,64,256,1024,4096",
                        help="index-sum thresholds")
        sp.add_argument("--horizon", type=int, default=1 << 13, help="sampling horizon")
        sp.add_argument("--p", type=float, default=2.0, help="norm exponent of the tails")
        sp.add_argument("--r", type=int, default=1, help="difference step of the tails")

    if sp := command("log-integral", _run_log_integral):
        sp.add_argument("--n", type=int, default=1, help="offset n")
        sp.add_argument("--N", type=int, default=100, help="length N")
        sp.add_argument("--p", type=float, default=2.0, help="exponent p")

    if sp := command("counterexample", _run_counterexample):
        sp.add_argument("action", choices=["certify", "ratio"])
        sp.add_argument("--p", type=float, default=2.0,
                        help="construction exponent when --seq-p is not given")
        sp.add_argument("--seq-p", type=float, help="construction exponent")
        sp.add_argument("--n-max", type=int, default=10000, help="certificate length")
        sp.add_argument("--fixed-m", type=int, default=16, help="fixed m of the ratio scan")
        sp.add_argument("--octaves", type=_octaves, default="4:12", help="ratio octaves LO:HI")
        sp.add_argument("--norm-exponent", type=float, default=1.0,
                        help="norm exponent of the ratio")
        sp.add_argument("--restricted", action="store_true", help="restricted violation ratio")
    return ap


_GRID_KEYS = {"r": "--grid-r", "points": "--points-per-band", "exclusion": "--exclusion"}


def _grid_tokens(text: str) -> list[str]:
    """Long-option tokens for the compact grid spec ``r=3,points=2,exclusion=1e-6``."""
    tokens = []
    for part in text.split(",") if text else []:
        key, sep, value = part.partition("=")
        if not sep:
            raise UsageError("grid", f"expected key=value, got {part!r}")
        if key.strip() not in _GRID_KEYS:
            raise UsageError("grid", f"unknown grid key {key.strip()!r}")
        tokens.append(f"{_GRID_KEYS[key.strip()]}={value.strip()}")
    return tokens


def _config_tokens(sp: argparse.ArgumentParser, cfg: dict[str, str]) -> list[str]:
    """``--key=value`` tokens for the config keys that ``sp`` defines.

    Other keys are ignored.  A switch takes ``true`` or ``false``.  The keys
    of a compact ``grid`` come first, so the long grid options win over them.
    """
    tokens: list[str] = []
    for key, value in cfg.items():
        # argparse's own option table: exact names only, so no prefix matching
        action = sp._option_string_actions.get(f"--{key}")
        if action is None or key == "help":
            continue
        if key == "grid":
            tokens[:0] = _grid_tokens(value)
        elif action.nargs == 0:
            if value.lower() not in ("true", "false"):
                raise UsageError(key, f"expected true or false, got {value!r}")
            tokens += [f"--{key}"] if value.lower() == "true" else []
        else:
            tokens.append(f"--{key}={value}")
    return tokens


def _parse(argv: list[str]) -> argparse.Namespace:
    """Flag > config file > parser default, for every option.

    The config lines, and a compact ``--grid`` from either place, are parsed
    as flags after argv; the result becomes the subcommand's defaults, and
    argv is parsed again on top of them.
    """
    # the top-level parser has no option that takes a value, so the first
    # token that is not an option names the subcommand
    parser = build_parser(next((a for a in argv if not a.startswith("-")), None))
    args = parser.parse_args(argv)
    cfg = _read_config(args.config) if args.config else {}
    if getattr(args, "grid", None) is not None:
        cfg["grid"] = args.grid  # a compact flag replaces the config's
    tokens = _config_tokens(args.parser, cfg)
    if tokens:
        args.parser.set_defaults(**vars(parser.parse_args([*argv, *tokens])))
        args = parser.parse_args(argv)
    return args


def main(argv=None) -> int:
    """Run a subcommand; only if it succeeds, write its evidence and print its verdict."""
    try:
        args = _parse(sys.argv[1:] if argv is None else list(argv))
        run = args.handler(args)
        out = Path(args.out)
        try:
            out.mkdir(parents=True, exist_ok=True)
            for name, (header, rows) in run.tables.items():
                write_csv(out / name, header, rows)
            if not args.no_plot:
                for name, (series, title, log_y) in run.plots.items():
                    write_polyline_svg(out / name, series, title=title, log_y=log_y)
        except OSError as exc:
            raise UsageError("out", str(exc)) from None
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:
        print(f"error: out of memory{f': {exc}' if str(exc) else ''}", file=sys.stderr)
        return EXIT_USAGE
    print(run.line)
    return run.code


if __name__ == "__main__":
    sys.exit(main())
