"""Run one benchmark operation in a fresh process and report on it.

Usage: ``python3 perfbench/child.py SPEC_JSON`` with ``src`` on
PYTHONPATH.  SPEC_JSON holds ``kind`` (``cli`` or ``identities``),
``argv`` or ``seed``, ``trace`` and ``report``: the file the report is
written to.  The report gives, on the system-wide monotonic clock, when
set-up ended (the CLI handler was entered, or the identities inputs may
be built) and when the lab work ended, with the CPU time and peak RSS of
this process up to that point.
"""

from __future__ import annotations

import json
import resource
import sys
import time


def _mark_ready(cli, marks):
    """Record the first entry into any subcommand handler."""
    def wrap(fn):
        def handler(*args, **kwargs):
            marks.setdefault("ready", time.monotonic())
            return fn(*args, **kwargs)
        return handler

    for name in [a for a in vars(cli) if a.startswith("_run_")]:
        setattr(cli, name, wrap(getattr(cli, name)))


def _cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def main() -> int:
    spec = json.loads(sys.argv[1])
    marks: dict[str, float] = {}
    report: dict = {}
    tracer = None
    if spec["kind"] == "cli":
        import dgmlab.cli as cli
        if spec["trace"]:
            import tracer as tracing
            tracer = tracing.install()
        _mark_ready(cli, marks)
        start = time.monotonic()
        report["code"] = cli.main(spec["argv"])
        marks.setdefault("ready", start)
    else:
        import dgmlab
        import identities
        if spec["trace"]:
            import tracer as tracing
            tracer = tracing.install()
        marks["ready"] = time.monotonic()
        # building the inputs is the benchmark's work, not the program's
        cpu0, t0 = _cpu(), time.monotonic()
        cases, tables = identities.make_inputs(spec["seed"])
        report.update(excluded_s=time.monotonic() - t0, excluded_cpu_s=_cpu() - cpu0)
        sums, embeddings, report["ops"] = identities.run(dgmlab, cases, tables)
        report["code"] = 0
    done = time.monotonic()
    report.update(ready=marks["ready"], done=done, cpu_s=_cpu(),
                  maxrss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  metrics=dict(tracer.metrics) if tracer else {})
    if spec["kind"] == "identities":
        report["digest"] = identities.digest(sums, embeddings)
        report["problems"] = identities.check(cases, sums, embeddings) if spec["check"] else []
    with open(spec["report"], "w") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
