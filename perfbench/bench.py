"""Benchmark entry point: warm up, run reps for the time budget, check, report."""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
from contextlib import nullcontext
from time import perf_counter
from typing import Dict, List, Optional, Sequence

from perfbench.measure import Rep, host_metrics, layer_metrics, run_rep, sim_metrics
from perfbench.reference import REFERENCE_S, HostGauge
from perfbench.spec import END_TO_END, GATED, PER_LAYER
from perfbench.workloads import DEFAULT_SEED, HELD_OUT_SEED, WORKLOADS

#: Simulated seconds of the two warm-up cells run before measuring.
WARMUP_DURATION = 2.0

_METRICS = {m.name: m for m in END_TO_END + PER_LAYER}


def parse_args(argv: Optional[Sequence[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload seed (held-out seed: {HELD_OUT_SEED})")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="host seconds to keep running reps")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="0: end-to-end metrics; 1: per-layer metrics")
    parser.add_argument("--spans", default=None,
                        help="write every traced span to this file (JSON lines)")
    return parser.parse_args(argv)


class Outcome:
    """Correctness bookkeeping across every cell run of an invocation."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: List[str] = []

    def add_rep(self, rep: Rep, reference: Optional[Rep], what: str) -> None:
        """Count ``rep``'s cell runs; a run fails on its own checks or
        when its result or work counters differ from ``reference``'s."""
        for index, run in enumerate(rep.runs):
            problems = list(run.failures)
            if reference is not None:
                expected = reference.runs[index]
                if run.digest != expected.digest:
                    problems.append(f"nondeterminism: RunResult digest differs ({what})")
                if run.counters != expected.counters:
                    problems.append(f"nondeterminism: work counters differ ({what})")
            self.attempted += 1
            if problems:
                self.failed += 1
                self.messages.extend(f"{run.label}: {p}" for p in problems)

    def compare(self, label: str, first: Dict[str, float], other: Dict[str, float]) -> None:
        """Flag exact (count / sim) metrics that differ between reps."""
        for name, value in first.items():
            if other[name] != value:
                self.messages.append(
                    f"nondeterminism: {label} {name} {value!r} != {other[name]!r}"
                )

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.messages


#: Reps run however short ``--seconds`` is, so counts can be compared.
MIN_REPS = 2


def _reps_for(seconds: float, run) -> List[Rep]:
    """Run reps while another one fits in ``seconds`` of host time,
    judged by the last rep's length (at least MIN_REPS reps)."""
    reps: List[Rep] = []
    start = last = perf_counter()
    while len(reps) < MIN_REPS or 2 * perf_counter() - last - start <= seconds:
        gc.collect()
        last = perf_counter()
        reps.append(run())
    return reps


def benchmark(
    workload_name: str,
    seed: int,
    seconds: float,
    trace: bool,
    duration: Optional[float] = None,
    spans: Optional[str] = None,
) -> dict:
    """Measure one workload; returns the result object the CLI prints
    last, plus ``report``: the lines for people printed above it.

    ``duration`` overrides the simulated seconds of every scenario.
    """
    workload = WORKLOADS[workload_name]
    cells = workload.build(seed, duration)
    warmup = workload.build(seed, WARMUP_DURATION)[:2]
    run_rep(workload, warmup)
    outcome = Outcome()
    report = [
        f"perfbench workload={workload_name} seed={seed} cells={len(cells)} "
        f"trace={int(trace)} held_out_seed={HELD_OUT_SEED}"
    ]
    metrics: Dict[str, float] = {}
    samples: Dict[str, int] = {}
    if not trace:
        gauge = HostGauge()
        reps = _reps_for(seconds, lambda: run_rep(workload, cells, gauge=gauge))
        for rep in reps:
            outcome.add_rep(rep, reps[0] if rep is not reps[0] else None, "between reps")
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        # The sim-clock metrics are fixed by the seed, so they come from
        # one more rep that takes per-job records, after the timed reps
        # and the peak-memory reading.
        records = run_rep(workload, cells, record=True)
        outcome.add_rep(records, reps[0], "records rep vs timed reps")
        values = {**host_metrics(reps, peak_rss_mb), **sim_metrics(records)}
        report.append(f"reps={len(reps)} (end-to-end metrics, untraced) + 1 records rep")
        report.append(
            f"host times scaled to reference speed: reference loop median "
            f"{statistics.median(r.ref_s for r in reps):.4f} s, nominal {REFERENCE_S} s; "
            f"unscaled jobs_per_s "
            f"{statistics.median(r.arrived / r.run_s for r in reps):.6g}, setup_s "
            f"{statistics.median(r.setup_s for r in reps):.6g}"
        )
        for metric in END_TO_END:
            value, count = values[metric.name]
            metrics[metric.name] = value
            samples[metric.name] = count
        gated = GATED
    else:
        untraced = run_rep(workload, cells)
        outcome.add_rep(untraced, None, "")
        with open(spans, "w") if spans else nullcontext() as spans_out:
            traced = _reps_for(seconds, lambda: run_rep(workload, cells, True, spans_out))
        layer = []
        for rep in traced:
            outcome.add_rep(rep, untraced, "traced vs untraced")
            layer.append(layer_metrics(rep, untraced))
        exact = [m.name for m in PER_LAYER if m.clock in ("count", "sim")]
        for values in layer[1:]:
            outcome.compare("per-layer", {n: layer[0][n] for n in exact},
                            {n: values[n] for n in exact})
        report.append(f"traced reps={len(traced)} (per-layer metrics)")
        for metric in PER_LAYER:
            metrics[metric.name] = statistics.median(v[metric.name] for v in layer)
            samples[metric.name] = len(layer)
        gated = tuple(m.name for m in PER_LAYER)
    for name, value in metrics.items():
        m = _METRICS[name]
        report.append(
            f"  {name} = {value:.6g} {m.unit} [{m.clock}, {m.better} is better, "
            f"n={samples[name]}]" + (f" moves {m.moves}" if m.moves else "")
        )
    report.extend(f"FAIL {message}" for message in outcome.messages)
    return {
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": _METRICS[name].unit}
            for name in gated
        },
        "report": report,
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    result = benchmark(
        args.workload, args.seed, args.seconds, bool(args.trace), spans=args.spans
    )
    for line in result.pop("report"):
        print(line)
    print(json.dumps(result))
    return 0
