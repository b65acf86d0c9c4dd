"""Configuration-driven experiment runner.

Every lab operation is reachable through a subcommand; each run writes a
CSV table (and optionally a static SVG plot), prints a one-line verdict,
and exits with a machine-readable status:

    0  consistent / converging / decaying / verified / no violations
    1  violated / not converging / not decaying / unverified
    2  inconclusive
    3  usage or configuration error

Options resolve in three layers: the default declared on the subcommand's
parser, then a flat ``key = value`` config file (``--config``), then
command-line flags.  Config values are typed and checked like flags.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from pathlib import Path

import numpy as np

from . import counterexample as cex
from .convergence import (
    ConvergenceVerdict,
    DecayVerdict,
    GridSpec,
    classify_decay,
    col_diff_tail_sup,
    col_tail_sup,
    jk_decay,
    log_integral_bound,
    loglog_decay,
    mixed_diff_tail,
    rational_point_convergence,
    regular_remainder_sup,
    row_diff_tail_sup,
    row_tail_sup,
    tail_decay_report,
)
from .kernels import direct_sine_sum, kernel_bound_sweep, sbp_decompose
from .membership import (
    BoundFamily,
    BoundSpec,
    Verdict,
    divisor_embedding_check,
    embedding_check,
    gm_membership_scan,
    membership_scan,
)
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

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 3


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


def _step(name: str, value: int) -> int:
    if value < 1:
        raise UsageError(name, f"must be >= 1, got {value}")
    return int(value)


def _cap(name: str, value: int) -> int:
    value = int(value)
    if not 1 <= value <= HORIZON_LIMIT:
        raise UsageError(name, f"must be in [1, {HORIZON_LIMIT}], got {value}")
    return value


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
    entries = []
    try:
        with open(path, newline="") as fh:
            for i, row in enumerate(csv.reader(fh)):
                if not row or not row[0].strip():
                    continue
                try:
                    j, k = int(row[0]), int(row[1])
                except ValueError:
                    if i == 0:
                        continue  # header row
                    raise UsageError("table-file", f"row {i + 1}: bad indices") from None
                if j < 1 or k < 1 or len(row) < 3:
                    raise UsageError("table-file", f"row {i + 1}: need j,k >= 1 and a value")
                re = float(row[2])
                im = float(row[3]) if len(row) > 3 and row[3].strip() else 0.0
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
        return cex.double_rule(_seq_p(args))
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
        return cex.single_rule(_seq_p(args))
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
    lam = _step("lambda", args.lam)
    cap = _cap("cap", args.cap)
    try:
        return BoundSpec(BoundFamily(args.family), lam=lam, horizon_cap=cap)
    except ValueError as exc:
        raise UsageError("lambda", str(exc)) from None


def _blocks(args: argparse.Namespace) -> list[tuple[int, int]]:
    if args.blocks:
        return [(_step("blocks", m), _step("blocks", n)) for m, n in args.blocks]
    if args.fixed_m is not None:
        return [(_step("fixed-m", args.fixed_m), 2**t) for t in args.octaves]
    return [(2**t, 2**t) for t in args.octaves]


def _outdir(args: argparse.Namespace) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _verdict_exit(verdict) -> int:
    if verdict in (Verdict.CONSISTENT, ConvergenceVerdict.CONVERGING, DecayVerdict.DECAYING):
        return EXIT_PASS
    if verdict in (Verdict.VIOLATED, ConvergenceVerdict.NOT_CONVERGING,
                   DecayVerdict.NOT_DECAYING):
        return EXIT_FAIL
    return EXIT_INCONCLUSIVE


# ---------------------------------------------------------------------------
# subcommand handlers


def _run_membership(args: argparse.Namespace) -> int:
    p = _positive("p", args.p)
    r = _step("r", args.r)
    spec = _bound_spec(args)
    out = _outdir(args)
    if args.single:
        seq = _single_rule(args)
        blocks1 = sorted({m for m, _ in _blocks(args)})
        report = gm_membership_scan(seq, p, r, spec, blocks1)
    else:
        report = membership_scan(_double_rule(args), p, r, spec, _blocks(args))
    write_csv(out / "membership.csv",
              ["m", "n", "axis", "lhs", "rhs", "ratio", "truncated"],
              [(e.m, e.n, e.axis, e.lhs, e.rhs, e.ratio, e.truncated)
               for e in report.per_block])
    print(f"membership: {report.verdict.value} c_estimate={report.c_estimate:.6g} "
          f"growth_fit={report.growth_fit:.4g}")
    return _verdict_exit(report.verdict)


def _run_embedding(args: argparse.Namespace) -> int:
    c = _double_rule(args)
    blocks = _blocks(args)
    out = _outdir(args)
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
        if r1 < 1 or r2 % r1 != 0:
            raise UsageError("r1", "r1 must divide r2")
        report = divisor_embedding_check(c, p, r1, r2, blocks)
        kind = f"step r1={r1} r2={r2}"
    else:
        raise UsageError("p1", "give either --p1/--p2 or --r1/--r2")
    write_csv(out / "embedding.csv",
              ["m", "n", "axis", "lhs", "bound"],
              [(v.m, v.n, v.axis, v.lhs, v.bound) for v in report.violations])
    print(f"embedding ({kind}): {'ok' if report.ok else 'violated'} "
          f"checked={report.checked} violations={len(report.violations)}")
    return EXIT_PASS if report.ok else EXIT_FAIL


def _run_sbp(args: argparse.Namespace) -> int:
    seq = _single_rule(args)
    n = _step("start", args.start)
    m = _step("end", args.end)
    if m < n:
        raise UsageError("end", "need end >= start")
    r = _step("r", args.r)
    x = args.x
    dec = sbp_decompose(seq, n, m, r, x)
    direct = direct_sine_sum(seq, n, m, x)
    err = abs(dec.total - direct) / (1.0 + abs(direct))
    out = _outdir(args)
    write_csv(out / "sbp.csv",
              ["component", "re", "im"],
              [("main_term", dec.main_term.real, dec.main_term.imag),
               ("upper_boundary", dec.upper_boundary.real, dec.upper_boundary.imag),
               ("lower_boundary", dec.lower_boundary.real, dec.lower_boundary.imag),
               ("total", dec.total.real, dec.total.imag),
               ("direct_sum", direct.real, direct.imag),
               ("relative_error", err, 0.0)])
    ok = err <= 1e-12
    print(f"sbp: {'exact' if ok else 'MISMATCH'} relative_error={err:.3e}")
    return EXIT_PASS if ok else EXIT_FAIL


def _run_kernel_bound(args: argparse.Namespace) -> int:
    r = _step("r", args.r)
    points = _step("points", args.points)
    k_max = args.k_max
    if k_max < 0:
        raise UsageError("k-max", "must be >= 0")
    sweeps = kernel_bound_sweep(r, points, k_max)
    out = _outdir(args)
    write_csv(out / "kernel_bound.csv",
              ["band", "half", "points", "k_max", "max_ratio", "violations"],
              [(s.band, s.half, s.points, s.k_max, s.max_ratio, s.violations)
               for s in sweeps])
    bad = sum(s.violations for s in sweeps)
    worst = max(s.max_ratio for s in sweeps)
    print(f"kernel-bound: {'ok' if bad == 0 else 'violated'} "
          f"max_ratio={worst:.6f} violations={bad}")
    return EXIT_PASS if bad == 0 else EXIT_FAIL


def _run_converge(args: argparse.Namespace) -> int:
    c = _double_rule(args)
    thresholds = args.thresholds
    cap = _cap("cap", args.cap)
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
        try:
            grid = GridSpec(r=gr, points_per_band=_step("points-per-band", args.points_per_band),
                            exclusion_radius=args.exclusion)
        except ValueError as exc:
            raise UsageError("grid-r", str(exc)) from None
        profile = regular_remainder_sup(c, grid, thresholds, caps)
        where = f"grid r={gr} ({profile.grid_size} points)"
    out = _outdir(args)
    write_csv(out / "profile.csv",
              ["threshold", "sup", "m", "n", "x", "y"],
              [(e.threshold, e.sup, e.m, e.n, e.x, e.y) for e in profile.entries])
    if not args.no_plot and profile.entries:
        write_polyline_svg(out / "profile.svg",
                           [("sup", [e.threshold for e in profile.entries],
                             [max(e.sup, 1e-300) for e in profile.entries])],
                           title=f"remainder sup vs threshold [{c.label}]", log_y=True)
    print(f"converge: {profile.verdict.value} at {where} "
          f"exact={str(profile.exact).lower()} caps={profile.caps}")
    return _verdict_exit(profile.verdict)


_TAIL_CONDITIONS = ("row-tail", "col-tail", "mixed-diff-tail",
                    "row-diff-tail", "col-diff-tail")


def _run_decay(args: argparse.Namespace) -> int:
    c = _double_rule(args)
    condition = args.condition
    thresholds = args.thresholds
    horizon = _cap("horizon", args.horizon)
    if condition == "jk":
        report = jk_decay(c, thresholds, horizon)
    elif condition == "loglog":
        report = loglog_decay(c, thresholds, horizon)
    else:
        p = _positive("p", args.p)
        r = _step("r", args.r)

        def fn(m: int, n: int) -> tuple[float, bool]:
            if condition == "row-tail":
                est = row_tail_sup(c, max(m, 2), n, horizon)
                return est.value, est.conclusive
            if condition == "col-tail":
                est = col_tail_sup(c, m, max(n, 2), horizon)
                return est.value, est.conclusive
            if condition == "mixed-diff-tail":
                return mixed_diff_tail(c, p, r, m, n, horizon), True
            if condition == "row-diff-tail":
                return row_diff_tail_sup(c, p, r, m, n, horizon), True
            return col_diff_tail_sup(c, p, r, m, n, horizon), True

        report = tail_decay_report(fn, thresholds, horizon)
    verdict = classify_decay(report)
    out = _outdir(args)
    write_csv(out / "decay.csv", ["m", "n", "value"],
              [(s.m, s.n, s.value) for s in report.samples])
    if not args.no_plot:
        write_polyline_svg(out / "decay.svg",
                           [("max_tail", report.thresholds,
                             [max(t, 1e-300) for t in report.max_tail])],
                           title=f"{condition} tail vs threshold [{c.label}]", log_y=True)
    tails = " ".join(f"{t:.4g}" for t in report.max_tail)
    print(f"decay ({condition}): {verdict.value} max_tail=[{tails}] "
          f"trend_fit={report.trend_fit:.4g}")
    return _verdict_exit(verdict)


def _run_log_integral(args: argparse.Namespace) -> int:
    n = _step("n", args.n)
    N = _step("N", args.N)
    p = args.p
    if not p >= 1:  # also refuses NaN
        raise UsageError("p", "need p >= 1")
    value, bound = log_integral_bound(n, N, p)
    out = _outdir(args)
    write_csv(out / "log_integral.csv", ["n", "N", "p", "value", "bound"],
              [(n, N, p, value, bound)])
    print(f"log-integral: ok value={value:.12g} bound={bound:.12g}")
    return EXIT_PASS


def _run_counterexample(args: argparse.Namespace) -> int:
    out = _outdir(args)
    p = _seq_p(args)
    if args.action == "certify":
        n_max = args.n_max
        if n_max < 0 or 6 * n_max + 5 > HORIZON_LIMIT:
            raise UsageError("n-max", "out of range")
        cert = cex.divergence_certificate(n_max, p)
        write_csv(out / "certificate.csv",
                  ["N", "partial_sum", "lower_bound", "margin"],
                  zip(cert.n_values.tolist(), cert.partial_sums.tolist(),
                      cert.lower_bounds.tolist(),
                      (cert.partial_sums - cert.lower_bounds).tolist()))
        if not args.no_plot:
            stride = max(1, len(cert) // 512)
            write_polyline_svg(
                out / "certificate.svg",
                [("partial_sum", cert.n_values[::stride], cert.partial_sums[::stride]),
                 ("lower_bound", cert.n_values[::stride], cert.lower_bounds[::stride])],
                title=f"divergence certificate (p={p:g})")
        print(f"counterexample certify: {'verified' if cert.verified else 'FAILED'} "
              f"rows={len(cert)} final_margin={cert.partial_sums[-1] - cert.lower_bounds[-1]:.6g}")
        return EXIT_PASS if cert.verified else EXIT_FAIL
    m = _step("fixed-m", args.fixed_m)
    q = _positive("norm-exponent", args.norm_exponent)
    ns = [2**t for t in args.octaves]
    ratios = [cex.violation_ratio(m, n, p, norm_exponent=q, restricted=args.restricted)
              for n in ns]
    write_csv(out / "ratio.csv", ["n", "ratio"], zip(ns, ratios))
    slope = float(np.polyfit(np.log2(ns), np.log2(ratios), 1)[0]) \
        if len(ns) >= 2 and all(v > 0 for v in ratios) else math.nan
    growing = not math.isnan(slope) and slope > 0.05
    print(f"counterexample ratio: {'growing' if growing else 'bounded'} "
          f"slope={slope:.4g} norm_exponent={q:g}")
    return EXIT_FAIL if growing else EXIT_PASS


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


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="dgmlab", description=__doc__,
                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)

    def command(name, help, handler):
        sp = sub.add_parser(name, help=help,
                            formatter_class=argparse.ArgumentDefaultsHelpFormatter)
        sp.set_defaults(handler=handler, parser=sp)
        sp.add_argument("--config", help="flat key = value file; flags win over it")
        sp.add_argument("--out", default=".", help="output directory")
        sp.add_argument("--no-plot", action="store_true", help="skip the SVG plot")
        return sp

    sp = command("membership", "class membership scan", _run_membership)
    _add_seq_flags(sp)
    sp.add_argument("--p", type=float, default=1.0, help="norm exponent")
    sp.add_argument("--r", type=int, default=1, help="difference step")
    sp.add_argument("--family", choices=[f.value for f in BoundFamily], default="max-window",
                    help="right-hand-side bound family")
    sp.add_argument("--lambda", dest="lam", type=int, default=2, help="window factor")
    sp.add_argument("--cap", type=int, default=1 << 15, help="horizon cap of sup searches")
    _add_blocks(sp)
    sp.add_argument("--single", action="store_true", help="scan a single sequence")

    sp = command("embedding", "p-norm or step embedding check", _run_embedding)
    _add_seq_flags(sp)
    sp.add_argument("--p", type=float, default=1.0, help="norm exponent of the step mode")
    sp.add_argument("--p1", type=float, help="smaller norm exponent of the p-norm mode")
    sp.add_argument("--p2", type=float, help="larger norm exponent of the p-norm mode")
    sp.add_argument("--r", type=int, default=1, help="difference step of the p-norm mode")
    sp.add_argument("--r1", type=int, help="smaller step of the step mode")
    sp.add_argument("--r2", type=int, help="larger step, a multiple of r1")
    _add_blocks(sp)

    sp = command("sbp", "summation-by-parts decomposition", _run_sbp)
    _add_seq_flags(sp)
    sp.add_argument("--start", type=int, default=1, help="first index n")
    sp.add_argument("--end", type=int, default=50, help="last index m")
    sp.add_argument("--r", type=int, default=1, help="difference step")
    sp.add_argument("--x", type=float, default=1.0, help="abscissa")

    sp = command("kernel-bound", "half-band kernel bound sweep", _run_kernel_bound)
    sp.add_argument("--r", type=int, default=1, help="difference step")
    sp.add_argument("--points", type=int, default=1000, help="abscissas per half-band")
    sp.add_argument("--k-max", type=int, default=100, help="largest kernel index")

    sp = command("converge", "regular-convergence remainder profile", _run_converge)
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

    sp = command("decay", "decay/tail condition report", _run_decay)
    _add_seq_flags(sp)
    sp.add_argument("--condition", choices=["jk", "loglog", *_TAIL_CONDITIONS], default="jk",
                    help="decay or tail condition")
    sp.add_argument("--thresholds", type=_int_list, default="16,64,256,1024,4096",
                    help="index-sum thresholds")
    sp.add_argument("--horizon", type=int, default=1 << 13, help="sampling horizon")
    sp.add_argument("--p", type=float, default=2.0, help="norm exponent of the tails")
    sp.add_argument("--r", type=int, default=1, help="difference step of the tails")

    sp = command("log-integral", "log-integral inequality value", _run_log_integral)
    sp.add_argument("--n", type=int, default=1, help="offset n")
    sp.add_argument("--N", type=int, default=100, help="length N")
    sp.add_argument("--p", type=float, default=2.0, help="exponent p")

    sp = command("counterexample", "sharpness example tools", _run_counterexample)
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
    parser = build_parser()
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
    try:
        args = _parse(sys.argv[1:] if argv is None else list(argv))
        return args.handler(args)
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
