"""Spans around dgmlab's public functions, installed from outside the program.

``install()`` replaces each traced function in its defining module and in
every dgmlab module that imported it by name (``cli`` imports its entry
points, ``convergence`` and ``membership`` import ``pmap``,
``counterexample`` imports ``rhs_col_bound``).  A traced name the program
no longer defines is skipped, so its metrics read zero.

Each span records its self time: its duration minus the time of the
spans it called.  Work that ``parallel.pmap`` hands to worker threads is
credited to the span that called ``pmap``, so a layer's time is its busy
time and may exceed wall time when workers overlap.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

VALUES = "sequences.values"
MIXED = "membership.mixed_bound"

# (module, function) -> span name; the metric is the name plus "_s"
SPANS = {
    ("sequences", "block_p_norm"): "sequences.norm",
    ("sequences", "double_block_p_norm"): "sequences.norm",
    ("sequences", "window_diff_p_norm"): "sequences.norm",
    ("kernels", "sbp_decompose"): "kernels.sbp",
    ("kernels", "partial_sum_bound"): "kernels.partial_bound",
    ("kernels", "direct_sine_sum"): "kernels.partial_bound",
    ("kernels", "kernel_bound_sweep"): "kernels.sweep",
    ("membership", "embedding_check"): "membership.embedding",
    ("membership", "divisor_embedding_check"): "membership.embedding",
    ("membership", "membership_scan"): "membership.scan",
    ("membership", "gm_membership_scan"): "membership.scan",
    ("membership", "rhs_row_bound"): "membership.line_bound",
    ("membership", "rhs_col_bound"): "membership.line_bound",
    ("membership", "rhs_mixed_bound"): MIXED,
    ("convergence", "regular_remainder_sup"): "convergence.remainder",
    ("convergence", "rational_point_convergence"): "convergence.remainder",
    ("convergence", "row_tail_sup"): "convergence.tail",
    ("convergence", "col_tail_sup"): "convergence.tail",
    ("convergence", "mixed_diff_tail"): "convergence.tail",
    ("convergence", "row_diff_tail_sup"): "convergence.tail",
    ("convergence", "col_diff_tail_sup"): "convergence.tail",
    ("convergence", "jk_decay"): "convergence.decay",
    ("convergence", "loglog_decay"): "convergence.decay",
    ("convergence", "tail_decay_report"): "convergence.decay",
    ("convergence", "classify_decay"): "convergence.decay",
    ("counterexample", "divergence_certificate"): "counterexample.certificate",
    ("counterexample", "violation_ratio"): "counterexample.ratio",
    ("output", "write_csv"): "output.csv",
    ("output", "write_polyline_svg"): "output.svg",
    ("cli", "main"): "cli.parse",
}
HANDLER = "cli.handler"  # every cli._run_* subcommand handler


class _Frame:
    __slots__ = ("name", "parent", "start", "children", "credited")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.start = time.perf_counter()
        self.children = 0.0   # time of spans called from this one, same thread
        self.credited = 0.0   # self time of pmap items run on its behalf


class Tracer:
    """Accumulates span self times and counters for one process."""

    def __init__(self):
        self.metrics = defaultdict(float)
        self._lock = threading.Lock()
        self._local = threading.local()

    # -- frames ---------------------------------------------------------

    def _current(self):
        return getattr(self._local, "frame", None)

    def _enter(self, name, parent):
        frame = _Frame(name, parent)
        self._local.frame = frame
        return frame

    def _leave(self, frame, prev, name=None, item=False):
        """Close ``frame``; return its duration.  Items credit their self
        time to the span that called pmap instead of to a name."""
        dur = time.perf_counter() - frame.start
        self._local.frame = prev
        own = dur - frame.children
        with self._lock:
            if item:
                if frame.parent is not None:
                    frame.parent.credited += own
            else:
                self.metrics[(name or frame.name) + "_s"] += own + frame.credited
                self.metrics[(name or frame.name) + "_calls"] += 1
        if not item and prev is not None:
            prev.children += dur
        return dur

    def _add(self, key, value):
        with self._lock:
            self.metrics[key] += value

    def _context(self):
        """Nearest enclosing span that is not a rule evaluation."""
        f = self._current()
        while f is not None and f.name == VALUES:
            f = f.parent
        return None if f is None else f.name

    # -- wrappers -------------------------------------------------------

    def span(self, name, fn, namer=None, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            prev = self._current()
            frame = self._enter(name, prev)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._leave(frame, prev)
                raise
            if after is not None:
                after(args, result)
            self._leave(frame, prev, namer(args, result) if namer else None)
            return result
        return wrapper

    def values(self, fn):
        """Rule evaluation: calls, entries evaluated (outermost calls only)
        and, inside frontier scans, how many entries lie in the support box."""
        @functools.wraps(fn)
        def wrapper(rule, *idx):
            prev = self._current()
            outer = prev is None or prev.name != VALUES
            context = self._context() if outer else None
            frame = self._enter(VALUES, prev)
            try:
                out = fn(rule, *idx)
            finally:
                self._leave(frame, prev)
            if outer:
                self._add("sequences.entries", out.size)
                if context == MIXED:
                    self._add("membership.frontier_entries", out.size)
                    self._add("membership.frontier_useful", _in_support(rule, idx, out.size))
            return out
        return wrapper

    def pmap(self, fn):
        @functools.wraps(fn)
        def wrapper(func, items):
            caller = self._current()
            busy = []

            def item(x):
                prev = self._current()
                frame = self._enter("parallel.item", caller)
                try:
                    return func(x)
                finally:
                    busy.append(self._leave(frame, prev, item=True))

            prev = self._current()
            frame = self._enter("parallel.pmap", prev)
            try:
                return fn(item, items)
            finally:
                dur = time.perf_counter() - frame.start
                self._local.frame = prev
                if prev is not None:
                    prev.children += dur
                with self._lock:
                    self.metrics["parallel.pmap_calls"] += 1
                    self.metrics["parallel.pmap_items"] += len(items)
                    self.metrics["parallel.pmap_wall_s"] += dur
                    self.metrics["parallel.pmap_busy_s"] += sum(busy)
        return wrapper


def _in_support(rule, idx, size) -> int:
    support = getattr(rule, "support", None)
    if support is None or len(idx) != 2:
        return size
    js, ks = (np.asarray(a) for a in idx)
    in_j = (js >= 1) & (js <= support[0])
    in_k = (ks >= 1) & (ks <= support[1])
    if js.ndim == ks.ndim == 2 and js.shape[1] == 1 and ks.shape[0] == 1:
        return int(np.count_nonzero(in_j)) * int(np.count_nonzero(in_k))
    return int(np.count_nonzero(in_j & in_k))


def _remainder_path(args, profile) -> str:
    if not profile.exact:
        return "convergence.remainder_sampled"
    c = args[0]
    if c.factors is not None and c.real:
        return "convergence.remainder_product"
    return "convergence.remainder_general"


def _replace(orig, wrapped) -> None:
    """Rebind every dgmlab module attribute that is ``orig``."""
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "dgmlab" or name.startswith("dgmlab.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, attr, wrapped)


def _module(name):
    try:
        return importlib.import_module(f"dgmlab.{name}")
    except ImportError:
        return None


def install() -> Tracer:
    tracer = Tracer()
    seq = _module("sequences")
    for cls in ("SequenceRule", "DoubleSequenceRule"):
        klass = getattr(seq, cls, None)
        if klass is not None and hasattr(klass, "values"):
            klass.values = tracer.values(klass.values)

    def count_pairs(args, profile):
        tracer._add("convergence.grid_pairs", profile.grid_size)

    def csv_stats(args, result):
        data = Path(args[0]).read_bytes()
        tracer._add("output.csv_bytes", len(data))
        tracer._add("output.csv_rows", max(data.count(b"\n") - 1, 0))

    for (modname, fname), span in SPANS.items():
        mod = _module(modname)
        orig = getattr(mod, fname, None) if mod is not None else None
        if orig is None:
            continue
        if span == "convergence.remainder":
            wrapped = tracer.span(span, orig, namer=_remainder_path, after=count_pairs)
        elif span == "output.csv":
            wrapped = tracer.span(span, orig, after=csv_stats)
        else:
            wrapped = tracer.span(span, orig)
        _replace(orig, wrapped)

    par = _module("parallel")
    if par is not None and hasattr(par, "pmap"):
        _replace(par.pmap, tracer.pmap(par.pmap))

    cli = _module("cli")
    if cli is not None:
        for attr in [a for a in vars(cli) if a.startswith("_run_")]:
            _replace(getattr(cli, attr), tracer.span(HANDLER, getattr(cli, attr)))
    return tracer
