#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics as JSON.

Usage, from the repository root::

    python3 perfbench/run.py --workload serve-lockstep --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload serve-lockstep --seed 1 --seconds 10 --trace 1

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones (see ``perfbench/README.md``).  The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the exit code is 1 when a correctness check failed.  Every run
also appends a record to ``.bench_results/history.jsonl``.
"""

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOAD_NAMES = ("engine-paper", "serve-lockstep", "serve-churn", "serve-socket")

#: Set-ups per run; ``setup_s`` is their median (the first is timed from the
#: start of this script, so it also pays for imports).
SETUPS = 5

#: Share of a traced run's reps that run with recording off, as the base of
#: the tracing overhead.
BASE_SHARE = 1.0 / 3.0

#: Duration of :func:`host_probe` on the reference host (a 2-vCPU VM at
#: its typical speed).  Rates and latencies are reported at this speed.
PROBE_REFERENCE_SECONDS = 0.005

END_TO_END = [
    ("quotes_per_s", "1/s"),
    ("quote_p50_ms", "ms"),
    ("quote_p99_ms", "ms"),
    ("regret_ratio", "ratio"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
]


def host_probe() -> float:
    """Seconds a fixed mix of small numpy products and Python arithmetic takes.

    The host's speed drifts by up to 2x within minutes (other tenants share
    the cores), so each rep is bracketed by two probes and its rate and
    latencies are scaled to :data:`PROBE_REFERENCE_SECONDS`.  The probe runs
    no library code, so the scaling is the same for every commit.
    """
    import math

    import numpy as np

    matrix = np.eye(20) * 2.0
    vector = np.linspace(0.1, 1.0, 20)
    started = time.perf_counter()
    total = 0
    for index in range(400):
        total += math.sqrt(float(vector @ matrix @ vector)) + float(vector @ vector)
    for index in range(24000):
        total += index * index % 7
    return time.perf_counter() - started


def scaled_rep(workload, index: int):
    """Run one rep between host probes; record its host speed factor."""
    before = host_probe()
    rep = workload.rep(index)
    rep.speed = PROBE_REFERENCE_SECONDS / (0.5 * (before + host_probe()))
    return rep


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measurement budget; fixes the number of reps")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("error: %s has no src/repro; run from a full checkout" % ROOT, file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    from perfbench import metadata

    # Before numpy loads: one BLAS thread per process, so the pricer's small
    # matrix products never spin extra threads on a 2-vCPU host.
    for name in metadata.BLAS_THREAD_VARIABLES:
        os.environ.setdefault(name, "1")

    import numpy as np

    from perfbench.layers import PER_LAYER, lane_shares, layer_metrics
    from perfbench.stats import nearest_rank, stage_sum_ok, tail_percentile
    from perfbench.tracing import OFF, SETUP, TIMED, Tracer
    from perfbench.workloads import WORKLOADS

    # One CPU for the whole run (the socket server and its shard worker
    # inherit it): the scheduler cannot migrate or spread the processes, so
    # a rep's speed follows the host's, which the probes measure.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    workdir = os.path.join(ROOT, ".bench_work", "%s-%d" % (args.workload, os.getpid()))
    os.makedirs(workdir)
    tracer = Tracer()
    workload = None
    try:
        setups = []
        for attempt in range(SETUPS):
            if workload is not None:
                workload.close()
            probing = time.perf_counter()
            before = host_probe()
            probing = time.perf_counter() - probing
            # The first set-up counts from process start, less the probing.
            begin = PROCESS_START + probing if attempt == 0 else time.perf_counter()
            workload = WORKLOADS[args.workload](args.seed, workdir, tracer)
            if args.trace:
                if attempt == 0:
                    workload.instrument()
                else:
                    workload.traced = True
                # Only the kept set-up is recorded, so setup spans count once.
                tracer.level.value = SETUP if attempt == SETUPS - 1 else OFF
            workload.setup()
            elapsed = time.perf_counter() - begin
            setups.append(elapsed * PROBE_REFERENCE_SECONDS / (0.5 * (before + host_probe())))
        tracer.mark_lane("main")

        reps = workload.rep_count(args.seconds)
        base, traced = [], []
        if args.trace:
            base_count = max(1, int(round(reps * BASE_SHARE)))
            workload.set_level(OFF)
            cpu_start, wall_start = os.times(), time.perf_counter()
            base = [scaled_rep(workload, index) for index in range(base_count)]
            cpu_end, wall_end = os.times(), time.perf_counter()
            cpu_share = ((cpu_end.user + cpu_end.system) - (cpu_start.user + cpu_start.system)) / (wall_end - wall_start)
            workload.set_level(TIMED)
            traced = [scaled_rep(workload, index) for index in range(base_count, reps)]
            workload.set_level(OFF)
            measured = base + traced
        else:
            measured = [scaled_rep(workload, index) for index in range(reps)]
        outcome = workload.finish()
        failures = list(outcome.failures)
        attempted = sum(rep.quotes for rep in measured)
        rate_reps = [rep for rep in measured if rep.counts_rate]
        details = {
            "rep_rates": [rep.rate for rep in rate_reps],
            "rep_speeds": [rep.speed for rep in measured],
            "unscaled_quotes_per_s": statistics.median(rep.rate for rep in rate_reps),
        }
        if args.trace:
            summary = workload.layer_summary()
            wall = sum(rep.wall for rep in traced)
            shares = lane_shares(summary, workload.lanes, wall)
            for lane, share in shares.items():
                if not stage_sum_ok(share):
                    failures.append("lane %s: stage self times cover %.3f of the traced wall" % (lane, share))
            values = layer_metrics(summary, base, traced, outcome, workload.lanes, cpu_share)
            metrics = {name: {"value": float(values[name]), "unit": unit} for name, unit in PER_LAYER}
            details.update(lane_shares=shares, spans=summary["totals"])
        else:
            latency_reps = [rep for rep in measured if len(rep.latencies)]
            raw = np.concatenate([rep.latencies for rep in latency_reps])
            # Each rep's latencies scaled by its host speed, pooled over the run.
            scaled_ms = 1000.0 * np.concatenate([rep.latencies * rep.speed for rep in latency_reps])
            fewest = min(len(rep.latencies) for rep in latency_reps)
            tail = tail_percentile(fewest)
            if tail is None or tail < 99.0:
                failures.append("only %d latency samples in a rep: p99 is unsupported" % fewest)
            rep_p99_ms = [1000.0 * rep.speed * nearest_rank(rep.latencies, 99.0) for rep in latency_reps]
            values = {
                "quotes_per_s": statistics.median(rep.rate / rep.speed for rep in rate_reps),
                "quote_p50_ms": nearest_rank(scaled_ms, 50.0),
                # Per rep, then the median: a rep disturbed by the host
                # cannot move the tail.
                "quote_p99_ms": statistics.median(rep_p99_ms),
                "regret_ratio": outcome.regret_ratio,
                "peak_rss_mb": outcome.peak_rss_mb,
                "setup_s": statistics.median(setups),
            }
            metrics = {name: {"value": float(values[name]), "unit": unit} for name, unit in END_TO_END}
            details.update(
                rep_p99_ms=rep_p99_ms,
                latency_samples=len(scaled_ms),
                fewest_latency_samples_per_rep=fewest,
                tail_percentile_supported=tail,
                unscaled_p50_ms=1000.0 * nearest_rank(raw, 50.0),
                unscaled_p99_ms=1000.0 * nearest_rank(raw, 99.0),
            )
        result = {
            "correct": not failures,
            "attempted": int(attempted),
            "failed": len(failures),
            "metrics": metrics,
        }
        record = {
            "workload": args.workload,
            "trace": args.trace,
            "seconds": args.seconds,
            "metadata": metadata.run_metadata(ROOT, args.seed, workdir),
            "reps": len(measured),
            "setup_seconds": setups,
            "failures": failures,
            "result": result,
            **details,
        }
        metadata.append_history(os.path.join(ROOT, ".bench_results", "history.jsonl"), record)
    finally:
        try:
            if workload is not None:
                workload.close()
        finally:
            tracer.restore()
            shutil.rmtree(workdir, ignore_errors=True)

    for failure in failures:
        print("FAILED: %s" % failure)
    print("%s: %d reps, %s, set-ups %s s" % (
        args.workload, len(measured),
        "%d latency samples (p%g supported)" % (details["latency_samples"], details["tail_percentile_supported"] or 0)
        if "latency_samples" in details else "traced",
        ", ".join("%.3f" % value for value in setups)))
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
