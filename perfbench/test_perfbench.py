"""Tests of the benchmark itself: pure helpers, the tracer, determinism.

Run with ``PYTHONPATH=src python -m pytest perfbench -q`` from the
repository root.
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from perfbench import layers, run, stats, tracing
from perfbench.tracing import OFF, SETUP, TIMED, Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# --------------------------------------------------------------------------- #
# Pure helpers
# --------------------------------------------------------------------------- #


def test_nearest_rank_percentile():
    values = list(range(100, 0, -1))
    assert stats.nearest_rank(values, 50.0) == 50
    assert stats.nearest_rank(values, 99.0) == 99
    assert stats.nearest_rank(values, 100.0) == 100
    assert stats.nearest_rank(values, 0.5) == 1
    assert stats.nearest_rank([5.0, 1.0, 3.0], 50.0) == 3.0
    with pytest.raises(ValueError):
        stats.nearest_rank([], 50.0)
    with pytest.raises(ValueError):
        stats.nearest_rank([1.0], 0.0)


@pytest.mark.parametrize(
    "count, expected",
    [(10_000, 99.9), (1_000, 99.0), (999, 95.0), (200, 95.0), (100, 90.0), (20, 50.0), (19, None)],
)
def test_highest_percentile_with_ten_samples_beyond(count, expected):
    assert stats.tail_percentile(count) == expected
    if expected is not None:
        assert stats.beyond_count(count, expected) >= stats.MIN_BEYOND


@pytest.mark.parametrize(
    "children, expected",
    [
        ([], 10.0),
        ([(1.0, 3.0), (5.0, 6.0)], 7.0),
        ([(1.0, 3.0), (2.0, 4.0)], 7.0),  # overlapping children count once
        ([(1.0, 4.0), (2.0, 3.0)], 7.0),  # nested overlap
        ([(8.0, 12.0)], 8.0),  # overruns the parent's end: clipped
        ([(-5.0, 1.0)], 9.0),  # started before the parent
        ([(11.0, 12.0), (-3.0, -1.0)], 10.0),  # entirely outside
        ([(0.0, 10.0), (2.0, 3.0)], 0.0),
    ],
)
def test_self_time_with_overlapping_and_overrunning_children(children, expected):
    assert stats.self_time(0.0, 10.0, children) == pytest.approx(expected)


def test_stage_sum_check():
    assert stats.stage_share([5.0, 4.6], 10.0) == pytest.approx(0.96)
    assert stats.stage_sum_ok(0.96)
    assert stats.stage_sum_ok(1.08)
    assert not stats.stage_sum_ok(stats.stage_share([4.5, 4.0], 10.0))
    assert not stats.stage_sum_ok(stats.stage_share([6.0, 5.2], 10.0))
    with pytest.raises(ValueError):
        stats.stage_share([1.0], 0.0)


# --------------------------------------------------------------------------- #
# Tracer
# --------------------------------------------------------------------------- #


class _Target:
    def outer(self, tracer_clock):
        tracer_clock.append("outer")
        return self.inner(tracer_clock) + 1

    def inner(self, tracer_clock):
        tracer_clock.append("inner")
        return 1


def test_tracer_nests_spans_and_restores_patches():
    tracer = Tracer()
    original = _Target.__dict__["outer"]
    tracer.wrap(_Target, "outer", "layer.outer")
    tracer.wrap(_Target, "inner", "layer.inner")
    tracer.mark_lane("main")

    tracer.level.value = OFF
    assert _Target().outer([]) == 2
    assert tracer.summary()["totals"] == {}

    tracer.level.value = SETUP
    _Target().outer([])
    summary = tracer.summary()
    assert summary["lanes"] == {}
    outer_total, outer_self, outer_count = summary["totals"]["layer.outer"]
    inner_total, inner_self, inner_count = summary["totals"]["layer.inner"]
    assert (outer_count, inner_count) == (1, 1)
    assert inner_total == inner_self
    assert outer_self == pytest.approx(outer_total - inner_total)

    tracer.level.value = TIMED
    _Target().outer([])
    summary = tracer.summary()
    # Only the top-level span adds to the lane (plus its own bookkeeping).
    timed_outer = summary["totals"]["layer.outer"][0] - outer_total
    assert timed_outer <= summary["lanes"]["main:main"] <= timed_outer + 1e-3

    tracer.restore()
    assert _Target.__dict__["outer"] is original
    assert "inner" in _Target.__dict__


def test_merge_summaries_adds_totals_and_keeps_lanes():
    merged = tracing.merge_summaries([
        {"totals": {"a": [1.0, 0.5, 2]}, "lanes": {"x:main": 1.0}},
        {"totals": {"a": [2.0, 1.0, 1], "b": [1.0, 1.0, 1]}, "lanes": {"y:main": 2.0}},
    ])
    assert merged["totals"]["a"] == [3.0, 1.5, 3]
    assert merged["lanes"] == {"x:main": 1.0, "y:main": 2.0}


# --------------------------------------------------------------------------- #
# BENCHMARK.json agrees with the code
# --------------------------------------------------------------------------- #


def test_benchmark_json_lists_the_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == layers.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"][0]
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_run_refuses_a_directory_without_the_library(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "engine-paper",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode != 0
    assert completed.stdout == ""


# --------------------------------------------------------------------------- #
# Determinism: a seed fixes every decision and store count
# --------------------------------------------------------------------------- #

SMALL = {
    "engine-paper": {"linear_rounds": 300, "linear_passes": 2, "accommodation_rounds": 60,
                     "impression_rounds": 40, "impression_training": 300},
    "serve-lockstep": {"sessions_per_version": 2, "rounds": 12},
    "serve-churn": {"sessions": 400, "resident": 16, "events": 150, "rows": 64},
    "serve-socket": {"sessions_per_version": 1, "rounds": 6, "connections": 2},
}


def _fingerprint(name, seed, workdir):
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[name](seed, str(workdir), Tracer(), sizes=SMALL[name])
    try:
        workload.setup()
        reps = [workload.rep(index) for index in range(3)]
        outcome = workload.finish()
    finally:
        workload.close()
    counts = {}
    for rep in reps:
        for key in ("store.created", "store.hydrations", "store.evictions"):
            counts[key] = counts.get(key, 0) + rep.counters.get(key, 0)
    inputs = workload.market.features if hasattr(workload, "market") else np.concatenate(
        [environment.arrival_batch().features.ravel() for environment in workload.environments.values()]
    )
    return outcome, counts, np.asarray(inputs).copy()


@pytest.mark.parametrize("name", sorted(SMALL))
def test_same_seed_same_decisions_other_seed_other_inputs(name, tmp_path):
    first, first_counts, first_inputs = _fingerprint(name, 5, tmp_path)
    second, second_counts, second_inputs = _fingerprint(name, 5, tmp_path)
    assert first.failures == [] and second.failures == []
    assert first.regret_ratio == second.regret_ratio
    assert first.decisions == second.decisions
    assert first.log_volume == second.log_volume
    assert first_counts == second_counts
    assert np.array_equal(first_inputs, second_inputs)
    other = _fingerprint(name, 6, tmp_path)
    assert not np.array_equal(other[2], first_inputs)
    assert other[0].regret_ratio != first.regret_ratio


def test_serve_socket_leaves_no_process_behind(tmp_path):
    import multiprocessing
    import multiprocessing.resource_tracker

    _fingerprint("serve-socket", 5, tmp_path)
    assert multiprocessing.active_children() == []
    # The spawn start launches the resource tracker; close() must reap it.
    assert multiprocessing.resource_tracker._resource_tracker._pid is None
