"""One workload in one process: set up, run trials for a fixed time, check.

Started by run.py with PYTHONPATH pointing at the checkout's src/ and BLAS
pinned to one thread. Trials run through ``harness.run_sweep`` in sweeps of
CHUNK trials, so the harness aggregates them and writes its CSV and JSON as
it does for users; ``harness.run_trial`` is replaced by a recorder that
times each trial and keeps its report. Prints one JSON line on stdout.

Times are scaled to a steady host. On a shared machine the speed of the
CPU this process gets swings by up to 2x over seconds to minutes, for every
kind of code alike, so raw wall times of two runs of the same program
differ by more than any useful bound. Before every trial the recorder times
a fixed reference kernel (benchmark code, never the program's). A trial's
wall time is scaled by REFERENCE_MS over the mean of the kernel times just
before and just after it: what the trial would have taken on a host where
the kernel takes REFERENCE_MS. Kernel time is left out of every figure. Raw
figures are reported in the traced run.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import sys
import time
import traceback
from dataclasses import replace
from pathlib import Path

import numpy as np

from icsim import harness

import checks
from tracing import Tracer

HERE = Path(__file__).resolve().parent
CHUNK = 16  # trials per run_sweep call
MIN_TRIALS = 120  # so that at least ten trials lie beyond the 90th percentile
PROTOCOL_SAMPLES = 24  # drawn protocols re-run by the benchmark's own loop
REFERENCE_MS = 2.0  # the reference kernel's time on a quiet host of this kind


def ready_clock() -> float:
    """System-wide monotonic clock, comparable with the parent process."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def reference_kernel() -> int:
    """Fixed work in the program's mix: small tuples and dicts in Python,
    then small numpy draws, products and argmaxes."""
    rng = np.random.default_rng(12345)
    acc = 0
    counts: dict = {}
    for i in range(4000):
        key = (i & 3, (i >> 2) & 1)
        counts[key] = counts.get(key, 0) + 1
        acc ^= key[0] * 2 + key[1]
    g = rng.integers(0, 2, size=(256, 24))
    for _ in range(60):
        y = rng.random(24) < 0.02
        acc += int(np.argmax(g @ np.where(y, -1.0, 1.0)))
    return acc


def kernel_ms() -> float:
    start = time.perf_counter()
    reference_kernel()
    return (time.perf_counter() - start) * 1e3


class Recorder:
    """Stands in for harness.run_trial: times the reference kernel and then
    the trial, and keeps the trial's report."""

    def __init__(self, run_trial, tracer: Tracer | None = None):
        self.inner = run_trial if tracer is None else tracer.wrap("harness.run_trial", run_trial)
        self.tracer = tracer
        self.kernel_ms: list[float] = []  # before each trial, then one closing run
        self.seconds: list[float] = []
        self.trials: list[tuple[int, object]] = []  # (trial seed, report)

    def __call__(self, cfg, n, trial):
        self.kernel_ms.append(kernel_ms())
        if self.tracer is not None:
            self.tracer.trial = cfg.base_seed + trial
        start = time.perf_counter()
        report = self.inner(cfg, n, trial)
        self.seconds.append(time.perf_counter() - start)
        self.trials.append((cfg.base_seed + trial, report))
        return report

    def drop_from(self, index: int) -> None:
        del self.kernel_ms[index:], self.seconds[index:], self.trials[index:]


class Phase:
    """A closed loop of sweeps: each trial starts when the previous ends."""

    def __init__(self, w: checks.Workload, cfg, tracer: Tracer | None = None):
        self.w, self.cfg, self.tracer = w, cfg, tracer
        self.recorder = Recorder(harness.run_trial, tracer)
        self.elapsed = 0.0  # wall time inside run_sweep calls, kernel included
        self.sweeps: list[tuple[float, int]] = []  # (seconds without kernel, trials)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def run(self, seconds: float | None = None, chunks: int | None = None) -> None:
        sweep = harness.run_sweep
        original = harness.run_trial
        if self.tracer is not None:
            sweep = self.tracer.wrap("harness.sweep", sweep)
            self.tracer.install()
        harness.run_trial = self.recorder
        try:
            while (len(self.sweeps) < chunks if chunks is not None else
                   self.elapsed < seconds or self.attempted < MIN_TRIALS):
                self._chunk(sweep)
            self.recorder.kernel_ms.append(kernel_ms())
        finally:
            harness.run_trial = original
            if self.tracer is not None:
                self.tracer.uninstall()

    def _chunk(self, sweep) -> None:
        cfg = replace(self.cfg, base_seed=self.cfg.base_seed + len(self.sweeps) * CHUNK)
        done = len(self.recorder.trials)
        self.attempted += CHUNK
        start = time.perf_counter()
        try:
            sweep(cfg)
            ok = True
        except Exception:
            traceback.print_exc(file=sys.stderr)
            ok = False
        seconds = time.perf_counter() - start
        self.elapsed += seconds
        seconds -= sum(self.recorder.kernel_ms[done:]) / 1e3
        if not ok:
            self.failed += CHUNK
            self.recorder.drop_from(done)
        self.sweeps.append((seconds, len(self.recorder.trials) - done))
        if ok:
            reports = [r for _, r in self.recorder.trials[done:]]
            self.problems += checks.sweep_problems(
                self.w, reports, Path(cfg.csv_path).read_text(),
                Path(cfg.json_path).read_text())

    def check_trials(self) -> None:
        for seed, report in self.recorder.trials:
            problems = checks.trial_problems(self.w, report, seed)
            if problems:
                self.failed += 1
                print(f"trial {seed}: " + "; ".join(problems), file=sys.stderr)

    def scales(self) -> np.ndarray:
        """Per trial: REFERENCE_MS over the mean of the kernel runs just
        before and just after the trial."""
        k = np.asarray(self.recorder.kernel_ms)
        return 2 * REFERENCE_MS / (k[:-1] + k[1:])

    def trial_ms(self, scaled: bool = True) -> np.ndarray:
        ms = np.asarray(self.recorder.seconds) * 1e3
        return ms * self.scales() if scaled else ms

    def rounds_per_s(self, scaled: bool = True) -> float:
        """n x trials over the time spent in run_sweep. Scaled, each trial
        counts at its own scale and the rest of a sweep (aggregation and
        writing) at the mean scale of the sweep's trials."""
        trial_s = self.trial_ms(scaled) / 1e3
        raw_s = np.asarray(self.recorder.seconds)
        scales = self.scales() if scaled else np.ones(len(raw_s))
        total, first = 0.0, 0
        for seconds, k in self.sweeps:
            part = slice(first, first + k)
            emit = seconds - raw_s[part].sum()
            total += trial_s[part].sum() + (emit * scales[part].mean() if k else 0.0)
            first += k
        return self.w.n * len(raw_s) / total

    @property
    def scale(self) -> float:
        """Scale of the phase as a whole: scaled over raw time."""
        return self.rounds_per_s(False) / self.rounds_per_s()


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def layer_metrics(tracer: Tracer, traced: Phase, untraced: Phase) -> dict:
    trials = len(traced.recorder.trials)
    scale = traced.scale

    def per_trial_ms(ns) -> dict:
        return metric(ns * scale / 1e6 / trials, "ms/trial")

    def per_sweep_ms(ns) -> dict:
        return metric(ns * scale / 1e6 / len(traced.sweeps), "ms/sweep")

    def per_trial(count, unit: str) -> dict:
        return metric(count / trials, unit)

    total, own, counts = tracer.total_ns, tracer.self_ns, tracer.counts
    overhead = 100.0 * (1.0 - traced.rounds_per_s() / untraced.rounds_per_s())
    return {
        "protocol.draw_ms": per_trial_ms(total["protocol.draw"]),
        "protocol.pad_ms": per_trial_ms(total["protocol.pad"]),
        "protocol.party_view_ms": per_trial_ms(total["protocol.party_view"]),
        "protocol.run_protocol_ms": per_trial_ms(total["protocol.run_protocol"]),
        "twostate.lookahead_ms": per_trial_ms(total["twostate.lookahead"]),
        "twostate.lookahead_bits": per_trial(counts["twostate.lookahead_bits"], "bits/trial"),
        "twostate.exhaustive_self_ms": per_trial_ms(own["twostate.exhaustive"]),
        "multistate.lookahead_ms": per_trial_ms(total["multistate.lookahead"]),
        "multistate.tail_bits": per_trial(counts["multistate.tail_bits"], "bits/trial"),
        "multistate.aborted_trials": metric(counts["multistate.aborted_trials"], "count"),
        "vertical.column_loop_self_ms": per_trial_ms(own["vertical.simulate"]),
        "coding.convey_ms": per_trial_ms(total["coding.convey"]),
        "coding.convey_calls": per_trial(counts["coding.convey_calls"], "calls/trial"),
        "coding.payload_bits": per_trial(counts["coding.payload_bits"], "bits/trial"),
        "channel.transmit_ms": per_trial_ms(total["channel.transmit"]),
        "channel.transmit_calls": per_trial(counts["channel.transmit_calls"], "calls/trial"),
        "channel.uses": per_trial(counts["channel.uses"], "uses/trial"),
        "channel.loglik_ms": per_trial_ms(total["channel.loglik"]),
        "harness.emit_ms": per_sweep_ms(own["harness.sweep"]
                                        - sum(traced.recorder.kernel_ms[:-1]) * 1e6),
        "harness.trials": metric(trials, "count"),
        "trace.untraced_rounds_per_s": metric(untraced.rounds_per_s(), "rounds/s"),
        "trace.traced_rounds_per_s": metric(traced.rounds_per_s(), "rounds/s"),
        "trace.overhead_pct": metric(overhead, "%"),
        "host.raw_rounds_per_s": metric(untraced.rounds_per_s(False), "rounds/s"),
        "host.raw_trial_ms_p50": metric(float(np.percentile(untraced.trial_ms(False), 50)), "ms"),
        "host.scale": metric(untraced.scale, "ratio"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--outdir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    config = HERE / "workloads" / f"{args.workload}.json"
    w = checks.Workload.from_config(args.workload, json.loads(config.read_text()))
    outdir = Path(args.outdir)
    cfg = harness.ExperimentConfig.from_json(
        config, trials=CHUNK, base_seed=args.seed * 10**6,
        csv_path=str(outdir / "sweep.csv"), json_path=str(outdir / "sweep.json"))
    harness.run_trial(cfg, w.n, 0)  # warm-up: fills the program's caches
    ready_at = ready_clock()
    setup = {"ready_at": ready_at,
             "setup_scale": REFERENCE_MS / statistics.median(kernel_ms() for _ in range(5))}
    if args.setup_only:
        print(json.dumps(setup))
        return 0

    # a traced run splits its time: half untraced, then the same trials traced
    untraced = Phase(w, cfg)
    untraced.run(seconds=args.seconds / 2 if args.trace else args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    phases = [untraced]
    if args.trace:
        tracer = Tracer()
        traced = Phase(w, cfg, tracer)
        traced.run(chunks=len(untraced.sweeps))  # the same trials, traced
        phases.append(traced)
        tracer.dump(outdir / "trace.json")

    # checks outside the timed region, with no wrapper installed
    problems = []
    column_bounds = checks.rlc_column_bounds(w) if w.code == "rlc" and w.noise else None
    for phase in phases:
        phase.check_trials()
        reports = [r for _, r in phase.recorder.trials]
        problems += phase.problems
        problems += checks.column_error_problems(w, reports, column_bounds)
    seeds = [seed for seed, _ in untraced.recorder.trials]
    for seed in seeds[:: max(1, math.ceil(len(seeds) / PROTOCOL_SAMPLES))]:
        problems += checks.protocol_problems(w, seed)
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)

    if args.trace:
        metrics = layer_metrics(tracer, traced, untraced)
    else:
        ms = untraced.trial_ms()
        metrics = {
            "rounds_per_s": metric(untraced.rounds_per_s(), "rounds/s"),
            "trial_ms_p50": metric(float(np.percentile(ms, 50)), "ms"),
            "trial_ms_p90": metric(float(np.percentile(ms, 90)), "ms"),
            "peak_rss_mb": metric(peak_rss_mb, "MB"),
        }
    print(json.dumps({
        **setup,
        "correct": not problems,
        "attempted": sum(p.attempted for p in phases),
        "failed": sum(p.failed for p in phases),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
