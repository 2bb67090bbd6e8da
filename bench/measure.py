"""The measuring half of a worker: whole rounds of a workload through the
CLI, output checks, and the traced rounds that give the per-layer metrics.

Loaded only after worker.py has stopped the set-up clock.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import checks
import workloads
from finprob.cli import main as cli_main
from spans import Tracer


class Measurement:
    """Rounds, failures and check results of one measuring process."""

    def __init__(self, runs, configs, outdir: Path):
        self.runs, self.configs, self.outdir = runs, configs, outdir
        self.refs = [checks.reference(spec) for spec in runs]
        self.round_s: list = []
        self.run_s = {spec.id: [] for spec in runs}
        self.attempted = 0
        self.failed = 0
        self.correct = True

    def round(self) -> None:
        """Run every config once, timed; then check every output, untimed."""
        gc.collect()
        times, codes = [], []
        with contextlib.redirect_stdout(io.StringIO()):
            for cfg in self.configs:
                start = time.perf_counter()
                try:
                    code = cli_main(["run", cfg, "--outdir", str(self.outdir)])
                except Exception:  # a crash fails the run, not the benchmark
                    traceback.print_exc(file=sys.stderr)
                    code = None
                times.append(time.perf_counter() - start)
                codes.append(code)
        self.round_s.append(sum(times))
        for spec, ref, secs, code in zip(self.runs, self.refs, times, codes):
            self.attempted += 1
            self.run_s[spec.id].append(secs)
            problems = [] if code == 0 else [f"exit code {code}"]
            if code in (0, 1):  # the run wrote its CSV
                wrong = checks.check(spec, self.outdir / f"{spec.id}.csv", ref)
                self.correct = self.correct and not wrong
                problems += wrong
            if problems:
                self.failed += 1
                for p in problems:
                    print(f"check failed: {spec.id}: {p}", file=sys.stderr)

    def rounds_until(self, deadline: float) -> list:
        """Whole rounds, at least one, until the monotonic deadline; their times."""
        first = len(self.round_s)
        while True:
            self.round()
            if time.monotonic() >= deadline:
                return self.round_s[first:]


def _traced(m: Measurement, deadline: float, outdir: Path):
    """Traced rounds; their times and, per span name, (calls per round,
    median self seconds per round)."""
    tracer = Tracer()
    tracer.install()
    marks = [tracer.mark()]
    try:
        while True:
            m.round()
            marks.append(tracer.mark())
            if time.monotonic() >= deadline:
                break
    finally:
        tracer.uninstall()
    per_round = [tracer.summary(a, b) for a, b in zip(marks, marks[1:])]
    summary = {
        name: (per_round[0][name][0], statistics.median(r[name][1] for r in per_round))
        for name in per_round[0]
    }
    tracer.write_spans(outdir / "spans.csv", marks[-2], marks[-1])
    with open(outdir / "trace.json", "w", encoding="ascii") as fh:
        json.dump({k: {"calls": c, "self_s": s} for k, (c, s) in sorted(summary.items())}, fh, indent=1)
    return m.round_s[-len(per_round):], summary


def _per_layer(names: list, summary: dict, overhead_s: float, run_s: dict, setup: dict) -> dict:
    """Values of the requested per-layer metrics; an unknown name is an error."""
    run_ids = {spec.id for w in workloads.WORKLOADS for spec in workloads.build(w, 0)}
    out = {}
    for name in names:
        head, _, kind = name.rpartition(".")
        run_id = head.removeprefix("experiments.")
        if name == "trace.overhead_s":
            out[name] = overhead_s
        elif name in setup:
            out[name] = setup[name]
        elif run_id in run_ids and kind == "wall_s":
            out[name] = statistics.median(run_s[run_id]) if run_id in run_s else 0.0
        elif head in summary and kind in ("calls", "self_s"):
            calls, self_s = summary[head]
            out[name] = calls if kind == "calls" else self_s
        else:
            raise SystemExit(f"per-layer metric {name!r} is not measured")
    return out


def main(args, setup: dict, root: Path) -> int:
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup["setup_s"]}))
        return 0

    outdir = workloads.workdir(root, args.workload)
    runs = workloads.build(args.workload, args.seed)
    m = Measurement(runs, args.configs, outdir / "out")
    start = time.monotonic()
    if not args.trace:
        round_s = m.rounds_until(start + args.seconds)
        metrics = {
            "wall_s": statistics.median(round_s),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    else:
        # Untraced first half: the baseline for the tracing overhead and the
        # per-run wall times.
        untraced = m.rounds_until(start + args.seconds / 2)
        run_s = {k: v[: len(untraced)] for k, v in m.run_s.items()}
        traced, summary = _traced(m, start + args.seconds, outdir)
        overhead_s = statistics.median(traced) - statistics.median(untraced)
        names = [n for n in args.per_layer.split(",") if n]
        metrics = _per_layer(names, summary, overhead_s, run_s, setup)
    print(json.dumps({
        "correct": m.correct,
        "attempted": m.attempted,
        "failed": m.failed,
        "rounds": len(m.round_s),
        "setup_s": setup["setup_s"],
        "metrics": metrics,
    }))
    return 0 if m.correct and m.failed == 0 else 1
