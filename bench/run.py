"""symchain benchmark: one workload, one seed, one run.

Usage (from the repository root):

    python3 bench/run.py --workload replay-scaled --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced rounds and prints the per-layer metrics (from the
traced rounds) with the tracing overhead.  The last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  A run whose outputs fail the correctness gate prints the
failures and exits 1.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]
try:
    import symchain
except ImportError as err:
    sys.exit(f"cannot import symchain from {ROOT / 'src'}: {err}")
if not Path(symchain.__file__).resolve().is_relative_to(ROOT / "src"):
    sys.exit(f"symchain was imported from {symchain.__file__}, not from {ROOT / 'src'}")

from symbench.tracing import GcPauses, Tracer, baseline_metrics, layer_metrics  # noqa: E402
from symbench.workloads import (  # noqa: E402
    WORKLOADS, Totals, best_round, make_workdir, measure, remove_workdir, run_round,
)


def end_to_end(totals: Totals, setup_times: list[float],
               late_half: bool = False) -> dict[str, tuple[float, str]]:
    n = totals.records
    records, wall, _ = best_round(totals, late_half)
    return {
        "problems_per_s": (records / wall, "1/s"),
        "accuracy": (totals.correct / n, "ratio"),
        "completion_rate": (1.0 - totals.errors / n, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "setup_s": (statistics.median(setup_times), "s"),
    }


def run_untraced(cls, seed: int, seconds: float):
    setup_times = []
    workload = None
    try:
        for _ in range(cls.setups):
            if workload is not None:
                remove_workdir(workload.workdir)
                workload = None
            gc.collect()  # every set-up starts from the same heap
            workload = cls(seed, make_workdir(OUT_DIR))
            start = time.perf_counter()
            workload.setup()
            setup_times.append(time.perf_counter() - start)
        if workload.setup_failures:
            return Totals(failures=dict(workload.setup_failures)), {}
        totals = measure(workload, seconds)
        if not totals.records:
            return totals, {}
        metrics = end_to_end(totals, setup_times, cls.state_grows)
        # printed in the table only: CPU time per record, too unsteady on a
        # shared host to hold a bound (it is a per-layer metric of traced
        # runs); error_rate, 0 when the gate passes; and the whole-run rate
        # that the best round is measured against
        records, _, cpu = best_round(totals, cls.state_grows)
        metrics["cpu_ms_per_problem"] = (1000.0 * cpu / records, "ms")
        metrics["error_rate"] = (totals.errors / totals.records, "ratio")
        metrics["problems_per_s_total"] = (totals.records / totals.wall_s, "1/s")
        return totals, metrics
    finally:
        if workload is not None:
            remove_workdir(workload.workdir)


def run_traced(cls, seed: int, seconds: float):
    """Alternate untraced and traced rounds of one set-up, so both halves
    see the same machine conditions; their rates give the tracing overhead."""
    tracer = Tracer()
    workload = cls(seed, make_workdir(OUT_DIR), tracer)
    try:
        workload.setup()
        if workload.setup_failures:
            return Totals(failures=dict(workload.setup_failures)), {}
        plain, traced = Totals(), Totals()
        pauses = GcPauses()  # of the untraced rounds, whose best round leaves them out
        for index, batches in enumerate(workload.rounds()):
            if index % 2:
                workload.trace_gateway(tracer)
                with tracer.installed():
                    run_round(workload, batches, traced)
            else:
                with pauses.installed():
                    run_round(workload, batches, plain)
            if plain.failures or traced.failures:
                break
            if index % 2 and plain.wall_s + traced.wall_s >= seconds:
                break  # after a traced round, so both halves have as many rounds
        # the baseline cases run once, under a tracer of their own
        probe = Tracer()
        if workload.baseline is not None and not (plain.failures or traced.failures):
            check = Totals()
            with probe.installed():
                workload.run_batch(workload.baseline, workload.workdir / "baseline.jsonl", check)
            traced.failures.update(check.failures)
        if tracer.missing:
            print(f"entry points not found, not traced: {', '.join(tracer.missing)}", file=sys.stderr)
        tracer.write(OUT_DIR / f"spans-{cls.name}-{seed}.jsonl")
        totals = Totals(
            wall_s=plain.wall_s + traced.wall_s, cpu_s=plain.cpu_s + traced.cpu_s,
            records=plain.records + traced.records, correct=plain.correct + traced.correct,
            errors=plain.errors + traced.errors, failures={**plain.failures, **traced.failures},
        )
        if totals.failures or not traced.records:
            return totals, {}
        records, wall, cpu = best_round(plain, cls.state_grows)
        untraced_rate = records / wall
        traced_records, traced_wall, _ = best_round(traced, cls.state_grows)
        traced_rate = traced_records / traced_wall
        metrics = {**layer_metrics(tracer), **baseline_metrics(probe)}
        metrics.update({
            "trace.problems": (traced.records, "count"),
            "trace.spans": (len(tracer.spans), "count"),
            "trace.problems_per_s_total_untraced": (plain.records / plain.wall_s, "1/s"),
            "gc.pause_ms_per_problem_untraced": (1000.0 * pauses.pause_s / plain.records, "ms"),
            "gc.gen2_collections_untraced": (pauses.collections[2], "count"),
            "trace.problems_per_s_untraced": (untraced_rate, "1/s"),
            "trace.cpu_ms_per_problem_untraced": (1000.0 * cpu / records, "ms"),
            "trace.problems_per_s_traced": (traced_rate, "1/s"),
            "trace.overhead_problems_per_s": (untraced_rate - traced_rate, "1/s"),
        })
        return totals, metrics
    finally:
        tracer.uninstall()
        remove_workdir(workload.workdir)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cls = WORKLOADS[args.workload]
    runner = run_traced if args.trace else run_untraced
    totals, metrics = runner(cls, args.seed, args.seconds)

    if totals.failures or not metrics:
        for pid, reason in sorted(totals.failures.items())[:20]:
            print(f"FAIL {pid}: {reason}")
        print(f"{len(totals.failures)} failing problems; no metrics reported")
        print(json.dumps({"correct": False, "attempted": max(totals.records, 1),
                          "failed": max(len(totals.failures), 1), "metrics": {}}))
        return 1

    print(f"{cls.name}  seed={args.seed}  trace={args.trace}  records={totals.records}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:14.6g} {unit}")
    wanted = _reported_names(args.trace)
    result = {
        "correct": True,
        "attempted": totals.records,
        "failed": 0,
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]} for name in wanted},
    }
    print(json.dumps(result))
    return 0


def _reported_names(trace: int) -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


if __name__ == "__main__":
    sys.exit(main())
