"""Per-layer metrics of a traced run, derived from span aggregates.

Each metric is named ``<layer>.<quantity>`` after the module whose public
functions the spans wrap (``repro.engine``, ``repro.core``,
``serving.service``, ``serving.store``, ``serving.sharding``,
``serving.frontend``, ``serving.wire``, ``serving.client``) plus ``bench``
for checks on the trace itself.  A layer a workload does not run reports 0.
"""

from __future__ import annotations

from typing import Dict, List

from statistics import median

from perfbench.stats import stage_share
from perfbench.tracing import calls, own, total

#: (name, unit) of every per-layer metric, in report order.
PER_LAYER = [
    ("engine.materialize_s", "s"),
    ("engine.loop_s", "s"),
    ("engine.regret_s", "s"),
    ("engine.dispatch_s", "s"),
    ("core.cut_s", "s"),
    ("core.cut_calls", "count"),
    ("core.propose_s", "s"),
    ("core.update_s", "s"),
    ("core.explore_share", "ratio"),
    ("core.conservative_share", "ratio"),
    ("core.skip_share", "ratio"),
    ("core.sold_share", "ratio"),
    ("core.log_volume", "log"),
    ("service.submit_s", "s"),
    ("service.drain_s", "s"),
    ("service.feedback_s", "s"),
    ("service.quotes_per_drain", "count"),
    ("service.queue_ms", "ms"),
    ("store.hit_share", "ratio"),
    ("store.created", "count"),
    ("store.hydrations", "count"),
    ("store.evictions", "count"),
    ("store.persists", "count"),
    ("store.lookup_ms", "ms"),
    ("store.hydrate_ms", "ms"),
    ("store.persist_ms", "ms"),
    ("store.create_ms", "ms"),
    ("store.steps_per_eviction", "count"),
    ("store.bytes_per_session", "B"),
    ("store.segment_bytes_per_persist", "B"),
    ("sharding.call_s", "s"),
    ("sharding.worker_s", "s"),
    ("sharding.hop_ms", "ms"),
    ("sharding.quotes_per_dispatch", "count"),
    ("frontend.backend_s", "s"),
    ("frontend.loop_s", "s"),
    ("frontend.quotes_per_tick", "count"),
    ("frontend.rejected", "count"),
    ("wire.encode_s", "s"),
    ("wire.decode_s", "s"),
    ("wire.bytes_per_quote", "B"),
    ("client.submit_s", "s"),
    ("client.cpu_share", "ratio"),
    ("bench.stage_share", "ratio"),
    ("bench.trace_overhead", "ratio"),
    ("bench.base_quotes_per_s", "1/s"),
]


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_call_ms(seconds: float, count: int) -> float:
    return 1000.0 * ratio(seconds, count)


def lane_shares(summary: dict, lanes: List[str], wall: float) -> Dict[str, float]:
    """Top-level span time of each lane as a share of the traced wall time."""
    return {lane: stage_share([summary["lanes"].get(lane, 0.0)], wall) for lane in lanes}


def layer_metrics(summary: dict, base, traced, outcome, lanes: List[str], cpu_share: float) -> Dict[str, float]:
    """Every per-layer metric of one traced run.

    ``base`` and ``traced`` are the reps run with recording off and on;
    counters and span times come from the traced reps only.
    """
    quotes = sum(rep.quotes for rep in traced)
    wall = sum(rep.wall for rep in traced)
    counters: Dict[str, float] = {}
    for rep in traced:
        for name, value in rep.counters.items():
            counters[name] = counters.get(name, 0) + value
    gauges = traced[-1].gauges
    queue = [rep.queue_ms for rep in traced if rep.queue_ms is not None]
    hits, creates, hydrates = calls(summary, "store.hit"), calls(summary, "store.create"), calls(summary, "store.hydrate")
    worker = summary["lanes"].get("worker:main", 0.0)
    worker_s = max(0.0, worker - total(summary, "sharding.wait") - total(summary, "sharding.reply")) if worker else 0.0
    sends = calls(summary, "sharding.send")
    base_rate = median(rep.rate / rep.speed for rep in base)
    traced_rate = median(rep.rate / rep.speed for rep in traced)
    metrics = {
        "engine.materialize_s": total(summary, "engine.materialize"),
        "engine.loop_s": own(summary, "engine.loop"),
        "engine.regret_s": total(summary, "engine.regret"),
        "engine.dispatch_s": own(summary, "engine.dispatch"),
        "core.cut_s": total(summary, "core.cut"),
        "core.cut_calls": calls(summary, "core.cut"),
        "core.propose_s": own(summary, "core.propose"),
        "core.update_s": own(summary, "core.update"),
        "core.log_volume": outcome.log_volume,
        "service.submit_s": own(summary, "service.submit"),
        "service.drain_s": own(summary, "service.drain"),
        "service.feedback_s": own(summary, "service.feedback"),
        "service.quotes_per_drain": ratio(counters.get("service.quotes", 0), counters.get("service.drains", 0)),
        "service.queue_ms": median(queue) if queue else 0.0,
        "store.hit_share": ratio(hits, hits + creates + hydrates),
        "store.created": counters.get("store.created", 0),
        "store.hydrations": counters.get("store.hydrations", 0),
        "store.evictions": counters.get("store.evictions", 0),
        "store.persists": counters.get("store.persists", 0),
        "store.lookup_ms": per_call_ms(own(summary, "store.hit"), hits),
        "store.hydrate_ms": per_call_ms(own(summary, "store.hydrate"), hydrates),
        "store.persist_ms": per_call_ms(total(summary, "store.persist"), calls(summary, "store.persist")),
        "store.create_ms": per_call_ms(own(summary, "store.create"), creates),
        "store.steps_per_eviction": ratio(counters.get("store.clock_hand_steps", 0), counters.get("store.evictions", 0)),
        "store.bytes_per_session": ratio(gauges.get("store.resident_bytes", 0), gauges.get("store.resident", 0)),
        "store.segment_bytes_per_persist": ratio(gauges.get("store.segment_bytes", 0), gauges.get("store.persists", 0)),
        "sharding.call_s": total(summary, "sharding.call"),
        "sharding.worker_s": worker_s,
        "sharding.hop_ms": per_call_ms(max(0.0, total(summary, "sharding.call") - worker_s), sends) if sends else 0.0,
        "sharding.quotes_per_dispatch": ratio(quotes, sends),
        "frontend.backend_s": total(summary, "frontend.backend"),
        "frontend.loop_s": own(summary, "frontend.tick"),
        "frontend.quotes_per_tick": ratio(counters.get("frontend.hop_quotes", 0), counters.get("frontend.hops", 0)),
        "frontend.rejected": counters.get("frontend.rejected", 0),
        "wire.encode_s": total(summary, "wire.encode"),
        "wire.decode_s": total(summary, "wire.decode"),
        "wire.bytes_per_quote": ratio(counters.get("wire.bytes", 0), quotes),
        "client.submit_s": total(summary, "client.submit"),
        "client.cpu_share": cpu_share,
        "bench.stage_share": min(lane_shares(summary, lanes, wall).values()),
        "bench.trace_overhead": traced_rate / base_rate,
        "bench.base_quotes_per_s": base_rate,
    }
    for name, value in outcome.decisions.items():
        metrics["core." + name] = value
    return metrics
