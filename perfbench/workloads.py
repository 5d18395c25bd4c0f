"""The benchmark's four workloads.

Every workload builds its inputs from the seed in :meth:`Workload.setup`,
then runs a fixed number of identical *reps*: each rep starts from fresh
library state (a new run matrix pass, service, store or set of session
keys), so a rep's work — and the memory it leaves behind — is fixed by the
seed and the settings, never by how many reps fit in a time window.  The
entry point (``run.py``) reports medians over reps.

* ``engine-paper`` — one :class:`~repro.engine.RunMatrix` crossing the four
  algorithm versions with the paper's three instances (serial executor);
* ``serve-lockstep`` — 64 in-process sessions priced in lockstep
  (``submit_many`` → ``flush`` → ``feedback_batch`` per round);
* ``serve-churn`` — one caller, one quote outstanding, sessions drawn
  Zipf(1.1) from 20,000 with 1,024 resident and segment snapshots;
* ``serve-socket`` — a closed loop over a unix socket into a
  :class:`~repro.serving.QuoteFrontend` over a one-shard
  :class:`~repro.serving.ShardedRegistry` in a server process.

The README explains why each exists and which layer it stresses.
"""

from __future__ import annotations

import asyncio
import contextlib
import dataclasses
import json
import multiprocessing
import multiprocessing.resource_tracker
import os
import resource
import shutil
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

import repro.engine.runmatrix as runmatrix_module
import repro.engine.runner as runner_module
import repro.serving.client as client_module
import repro.serving.frontend as frontend_module
import repro.serving.sharding as sharding_module
from repro.apps import (
    ALGORITHM_VERSIONS,
    AccommodationConfig,
    ImpressionConfig,
    NoisyLinearQueryConfig,
    build_accommodation_environment,
    build_impression_environment,
    build_noisy_query_environment,
)
from repro.apps.common import VersionPricerFactory, build_pricer_for_version
from repro.core.knowledge import EllipsoidKnowledge
from repro.core.pricing import EllipsoidPricer
from repro.core.regret import batch_regrets
from repro.engine import RunMatrix, Transcript, simulate, simulate_reference
from repro.exceptions import BackpressureError, ServingError
from repro.serving import (
    AsyncQuoteClient,
    FeedbackEvent,
    FrameDecoder,
    MicroBatchConfig,
    PricerRegistry,
    QuoteFrontend,
    QuoteRequest,
    QuoteService,
    SessionKey,
    SessionStore,
    ShardedRegistry,
    frame_sold_at,
    start_frontend_thread,
)

from perfbench import tracing
from perfbench.stats import nearest_rank
from perfbench.tracing import OFF, SETUP, Tracer

_now = time.perf_counter

VERSIONS = tuple(ALGORITHM_VERSIONS)


@dataclass
class Rep:
    """What one rep measured."""

    quotes: int
    wall: float
    #: Per-quote latencies in seconds (empty where a rep has no quote path).
    latencies: np.ndarray = field(default_factory=lambda: np.empty(0))
    #: Summable library counters of this rep (service and store stats).
    counters: Dict[str, float] = field(default_factory=dict)
    #: Gauges read at the end of the rep (last rep wins).
    gauges: Dict[str, float] = field(default_factory=dict)
    #: Median of the service's own enqueue → emit samples, in ms.
    queue_ms: Optional[float] = None
    #: Whether the rep's rate counts towards the throughput.
    counts_rate: bool = True
    #: Host speed during the rep relative to the reference (set by run.py).
    speed: float = 1.0

    @property
    def rate(self) -> float:
        return self.quotes / self.wall


def make_rep(quotes: int, wall: float, latencies=(), queue=(), **fields) -> Rep:
    """A :class:`Rep` keeping latencies as a compact array and the queue as its median."""
    if len(queue):
        fields["queue_ms"] = 1000.0 * nearest_rank(queue, 50.0)
    return Rep(quotes=quotes, wall=wall, latencies=np.asarray(latencies, dtype=float), **fields)


@dataclass
class Outcome:
    """Seed-determined results and correctness failures of a whole run."""

    failures: List[str]
    regret_ratio: float
    decisions: Dict[str, float]
    log_volume: float
    peak_rss_mb: float


def own_peak_rss_mb() -> float:
    """Peak resident set size of this process (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def linear_environment(seed: int, rounds: int):
    """The noisy-linear-query market (n = 20, 200 owners; Fig. 4)."""
    return build_noisy_query_environment(
        NoisyLinearQueryConfig(dimension=20, rounds=rounds, owner_count=200, seed=seed)
    )


def decision_shares(exploratory, skipped, sold) -> Dict[str, float]:
    exploratory = np.asarray(exploratory, dtype=bool)
    skipped = np.asarray(skipped, dtype=bool)
    rounds = exploratory.size
    return {
        "explore_share": float(np.count_nonzero(exploratory)) / rounds,
        "conservative_share": float(np.count_nonzero(~exploratory & ~skipped)) / rounds,
        "skip_share": float(np.count_nonzero(skipped)) / rounds,
        "sold_share": float(np.count_nonzero(sold)) / rounds,
    }


def log_volume_of(pricer) -> float:
    return float(pricer.knowledge.ellipsoid.log_volume())


def same(a, b) -> bool:
    return bool(np.array_equal(np.asarray(a), np.asarray(b), equal_nan=True))


class Workload:
    """Set-up, reps and checks of one workload (see the module docstring)."""

    name = ""
    #: Nominal duration of one rep (on one CPU of a 2-vCPU VM); fixes the rep
    #: count for a given ``--seconds`` so that work never depends on the clock.
    nominal_rep_seconds = 1.0
    min_reps = 3
    #: Threads whose top-level spans must cover the traced wall time
    #: (``<process role>:<lane>``; run.py marks the main thread ``main``).
    lanes = ["main:main"]
    traced = False

    def __init__(self, seed: int, workdir: str, tracer: Tracer, sizes: Optional[dict] = None):
        self.seed = seed
        self.workdir = workdir
        self.tracer = tracer
        self.sizes = dict(self.default_sizes)
        if sizes:
            self.sizes.update(sizes)

    default_sizes: dict = {}

    def rep_count(self, seconds: float) -> int:
        return max(self.min_reps, int(round(seconds / self.nominal_rep_seconds)))

    def setup(self) -> None:
        raise NotImplementedError

    def rep(self, index: int) -> Rep:
        raise NotImplementedError

    def finish(self) -> Outcome:
        raise NotImplementedError

    def close(self) -> None:
        pass

    def instrument(self) -> None:
        """Install the traced wrappers of every layer this workload runs."""
        raise NotImplementedError

    def set_level(self, level: int) -> None:
        self.tracer.level.value = level

    @contextlib.contextmanager
    def untraced(self):
        """Build bench-side inputs (e.g. the offline answers) without spans."""
        saved = self.tracer.level.value
        self.tracer.level.value = OFF
        try:
            yield
        finally:
            self.tracer.level.value = saved

    def layer_summary(self) -> dict:
        return self.tracer.summary()


# --------------------------------------------------------------------------- #
# Instrumentation shared by the in-process workloads
# --------------------------------------------------------------------------- #


def instrument_core(tracer: Tracer) -> None:
    tracer.wrap(EllipsoidKnowledge, "cut", "core.cut")
    tracer.wrap(EllipsoidPricer, "propose", "core.propose")
    tracer.wrap(EllipsoidPricer, "update", "core.update")


def instrument_engine(tracer: Tracer) -> None:
    tracer.wrap(RunMatrix, "run", "engine.dispatch")
    tracer.wrap(runmatrix_module, "materialize", "engine.materialize")
    tracer.wrap(runner_module, "materialize", "engine.materialize")
    tracer.wrap(runmatrix_module, "simulate", "engine.loop")
    tracer.wrap(Transcript, "finalize_regrets", "engine.regret")


def instrument_service(tracer: Tracer) -> None:
    for method in ("submit", "submit_many"):
        tracer.wrap(QuoteService, method, "service.submit")
    for method in ("flush", "poll", "quote"):
        tracer.wrap(QuoteService, method, "service.drain")
    for method in ("feedback", "feedback_batch", "feedback_many"):
        tracer.wrap(QuoteService, method, "service.feedback")


def instrument_store(tracer: Tracer) -> None:
    original = SessionStore.session
    level = tracer.level

    def session(self, key):
        if not level.value:
            return original(self, key)
        stats = self.stats
        created, hydrated = stats.created, stats.hydrations
        frame = tracer.begin("store.hit")
        try:
            return original(self, key)
        finally:
            if stats.created != created:
                frame[0] = "store.create"
            elif stats.hydrations != hydrated:
                frame[0] = "store.hydrate"
            tracer.end(frame)

    tracer.patch(SessionStore, "session", session)
    tracer.wrap(SessionStore, "persist", "store.persist")


def instrument_bench(tracer: Tracer, names: Dict[str, str]) -> None:
    """Trace the generator's own per-quote steps (module-level functions)."""
    module = sys.modules[__name__]
    for function, span in names.items():
        tracer.wrap(module, function, span)


def store_counters(stats) -> Dict[str, float]:
    return {
        "store.created": stats.created,
        "store.hydrations": stats.hydrations,
        "store.evictions": stats.evictions,
        "store.persists": stats.persists,
        "store.clock_hand_steps": stats.clock_hand_steps,
    }


def store_gauges(stats, resident: int) -> Dict[str, float]:
    return store_gauges_from_dict(stats.as_dict(), resident)


def service_counters(stats) -> Dict[str, float]:
    return {"service.quotes": stats.quotes_served, "service.drains": stats.drains}


# --------------------------------------------------------------------------- #
# engine-paper
# --------------------------------------------------------------------------- #


class _RecordingFactory(VersionPricerFactory):
    """Version pricer factory that keeps the last pricer built per scenario."""

    def __init__(self, version: str) -> None:
        super().__init__(version)
        self.pricers: Dict[str, object] = {}

    def __call__(self, scenario):
        pricer = super().__call__(scenario)
        self.pricers[scenario.name] = pricer
        return pricer


class EnginePaper(Workload):
    """The paper's grid: 4 versions × 3 instances through one RunMatrix."""

    name = "engine-paper"
    nominal_rep_seconds = 2.2
    default_sizes = {
        # The linear query stream is built once and replayed ``linear_passes``
        # times: building costs ~0.1 ms per query, and after the first pass
        # the pricer sits on its conservative tail (the regime this instance
        # stands for).
        "linear_rounds": 3000,
        "linear_passes": 6,
        "accommodation_rounds": 800,
        "impression_rounds": 600,
        "impression_training": 2000,
    }

    def setup(self) -> None:
        sizes = self.sizes
        linear = linear_environment(self.seed, sizes["linear_rounds"])
        linear = dataclasses.replace(linear, arrivals=linear.arrivals * sizes["linear_passes"])
        accommodation = build_accommodation_environment(
            AccommodationConfig(
                listing_count=sizes["accommodation_rounds"],
                dimension=55,
                reserve_log_ratio=0.6,
                seed=self.seed,
            )
        )
        impression = build_impression_environment(
            ImpressionConfig(
                impression_count=sizes["impression_rounds"],
                training_count=sizes["impression_training"],
                dimension=128,
                dense=False,
                seed=self.seed,
            )
        )
        self.environments = {
            "linear": linear,
            "accommodation": accommodation,
            "impression": impression,
        }
        self.factories = {version: _RecordingFactory(version) for version in VERSIONS}
        self.matrix = RunMatrix()
        for key, environment in self.environments.items():
            self.matrix.add_scenario(key, environment.as_scenario(key))
        for version, factory in self.factories.items():
            self.matrix.add_pricer(version, factory)
        self.matrix.add_cross()
        self.rounds = sum(
            environment.rounds * len(VERSIONS) for environment in self.environments.values()
        )
        self.first = None
        self.timed_grid = None
        self.mismatched_reps = 0

    def rep(self, index: int) -> Rep:
        """Odd reps of an untraced run time each round instead (§V-D latency).

        ``track_latency`` runs the sequential propose/update loop with a
        clock read per round, so those reps give the per-round latency
        percentiles and take no part in the throughput.
        """
        latency = index % 2 == 1 and not self.traced
        started = _now()
        grid = self.matrix.run(executor="serial", track_latency=latency)
        wall = _now() - started
        if latency:
            self.timed_grid = grid
            latencies = np.concatenate(
                [result.transcript.latency_seconds for _cell, result in grid]
            )
            return make_rep(self.rounds, wall, latencies, counts_rate=False)
        if self.first is None:
            self.first = grid
        elif not all(
            same(result.transcript.posted_prices, self.first.get(cell.scenario, cell.pricer).transcript.posted_prices)
            for cell, result in grid
        ):
            self.mismatched_reps += 1
        return Rep(quotes=self.rounds, wall=wall)

    def finish(self) -> Outcome:
        failures = []
        if self.mismatched_reps:
            failures.append("%d reps priced differently from the first" % self.mismatched_reps)
        ratios, explore, skipped, sold = [], [], [], []
        for cell, result in self.first:
            transcript = result.transcript
            failures.extend(transcript_invariants(cell, transcript))
            if self.timed_grid is not None and not same_decisions(
                transcript, self.timed_grid.get(cell.scenario, cell.pricer).transcript
            ):
                failures.append("%s/%s: sequential loop disagrees with run_batch" % (cell.scenario, cell.pricer))
            ratios.append(float(transcript.regret_ratio_curve()[-1]))
            explore.append(transcript.exploratory)
            skipped.append(transcript.skipped)
            sold.append(transcript.sold)
        linear = self.environments["linear"]
        for version in VERSIONS:
            reference = simulate_reference(
                linear.model, build_pricer_for_version(linear, version), linear.arrivals
            ).transcript
            served = self.first.get("linear", version).transcript
            if not (same_decisions(served, reference) and same(served.regrets, reference.regrets)):
                failures.append("linear/%s: engine differs from simulate_reference" % version)
        volumes = [
            log_volume_of(pricer)
            for factory in self.factories.values()
            for pricer in factory.pricers.values()
        ]
        return Outcome(
            failures=failures,
            regret_ratio=float(np.mean(ratios)),
            decisions=decision_shares(
                np.concatenate(explore), np.concatenate(skipped), np.concatenate(sold)
            ),
            log_volume=float(np.mean(volumes)),
            peak_rss_mb=own_peak_rss_mb(),
        )

    def instrument(self) -> None:
        instrument_engine(self.tracer)
        instrument_core(self.tracer)


def same_decisions(a: Transcript, b: Transcript) -> bool:
    return (
        same(a.posted_prices, b.posted_prices)
        and same(a.link_prices, b.link_prices)
        and same(a.sold, b.sold)
        and same(a.skipped, b.skipped)
        and same(a.exploratory, b.exploratory)
    )


def transcript_invariants(cell, transcript: Transcript) -> List[str]:
    """Posted ≥ reserve unless skipped (reserve versions); sold iff posted ≤ v; regret ≥ 0."""
    failures = []
    name = "%s/%s" % (cell.scenario, cell.pricer)
    posted = transcript.posted_prices
    priced = ~transcript.skipped
    if "reserve" in cell.pricer:
        reserves = transcript.reserve_values
        constrained = priced & ~np.isnan(reserves)
        # The pricer works in link space; mapping a price that sits exactly
        # on the reserve back through the link can lose an ulp.
        below = posted[constrained] < reserves[constrained] * (1.0 - 1e-12)
        if np.any(below):
            failures.append("%s: posted below the reserve" % name)
    expected_sold = priced & (posted <= transcript.market_values)
    if not same(transcript.sold, expected_sold):
        failures.append("%s: sold disagrees with posted <= market value" % name)
    if np.any(transcript.regrets < 0):
        failures.append("%s: negative regret" % name)
    return failures


# --------------------------------------------------------------------------- #
# Shared serving pieces
# --------------------------------------------------------------------------- #


class ServingMarket:
    """The n = 20 market the serving workloads price, plus its offline answer.

    The stream is cut into ``windows`` consecutive windows of ``length``
    rounds.  Session slot ``s`` prices window ``s // 4`` with algorithm
    version ``VERSIONS[s % 4]``, so concurrent sessions quote different
    arrivals and the regret ratio averages over many stretches of the market.
    """

    def __init__(self, seed: int, windows: int, length: int) -> None:
        self.length = length
        self.environment = linear_environment(seed, windows * length)
        self.materialized = runner_module.prepare(
            self.environment.model, self.environment.arrival_batch()
        )
        m = self.materialized
        self.features = m.batch.features
        self.reserves = [
            None if np.isnan(value) else float(value) for value in m.batch.reserve_values
        ]
        self.market_values = m.market_values.tolist()
        self.rounds = m.rounds

    @staticmethod
    def slot_name(slot: int) -> str:
        return "w%02d/%s" % (slot // len(VERSIONS), VERSIONS[slot % len(VERSIONS)])

    def row(self, slot: int, index: int) -> int:
        return (slot // len(VERSIONS)) * self.length + index

    def factory(self):
        """The session factory: the version is the last part of the key's segment."""
        environment = self.environment

        def factory(key: SessionKey):
            version = key.segment.rsplit("/", 1)[1]
            return environment.model, build_pricer_for_version(environment, version)

        return factory

    def offline(self, slots: int):
        """Per-slot engine transcripts and final pricers (the exact answer)."""
        transcripts, pricers = [], []
        for slot in range(slots):
            start = self.row(slot, 0)
            pricer = build_pricer_for_version(self.environment, VERSIONS[slot % len(VERSIONS)])
            transcripts.append(simulate(
                self.environment.model,
                pricer,
                materialized=self.materialized.slice(start, start + self.length),
            ).transcript)
            pricers.append(pricer)
        return transcripts, pricers

    def regret_totals(self, posted, sold):
        """Σ regret and Σ market value of ``posted``/``sold`` arrays (slots × length)."""
        m = self.materialized
        rows = np.array([[self.row(slot, index) for index in range(posted.shape[1])]
                         for slot in range(posted.shape[0])])
        values = m.market_values[rows]
        regrets = batch_regrets(values, m.batch.reserve_values[rows], posted, sold)
        return float(regrets.sum()), float(values.sum())


class SessionColumns:
    """Decision columns of many sessions (sessions × rounds)."""

    def __init__(self, sessions: int, rounds: int) -> None:
        self.link = np.full((sessions, rounds), np.nan)
        self.posted = np.full((sessions, rounds), np.nan)
        self.sold = np.zeros((sessions, rounds), dtype=bool)
        self.skipped = np.zeros((sessions, rounds), dtype=bool)
        self.exploratory = np.zeros((sessions, rounds), dtype=bool)

    def record(self, session: int, index: int, link, posted, sold, skipped, exploratory) -> None:
        if not skipped and posted is not None:
            self.link[session, index] = link
            self.posted[session, index] = posted
            self.sold[session, index] = sold
        self.skipped[session, index] = skipped
        self.exploratory[session, index] = exploratory

    def same_as(self, other: "SessionColumns") -> bool:
        return all(
            same(getattr(self, name), getattr(other, name))
            for name in ("link", "posted", "sold", "skipped", "exploratory")
        )

    def matches(self, session: int, transcript: Transcript) -> bool:
        return (
            same(self.posted[session], transcript.posted_prices)
            and same(self.link[session], transcript.link_prices)
            and same(self.sold[session], transcript.sold)
            and same(self.skipped[session], transcript.skipped)
            and same(self.exploratory[session], transcript.exploratory)
        )


# --------------------------------------------------------------------------- #
# serve-lockstep
# --------------------------------------------------------------------------- #


def lockstep_requests(keys, rows, features, reserves):
    return [
        QuoteRequest(key=key, features=features[row], reserve=reserves[row])
        for key, row in zip(keys, rows)
    ]


def lockstep_settle(responses, columns, slot_of, index, rows, market_values):
    events = []
    for response in responses:
        slot = slot_of[response.key]
        sold = response.sold_at(market_values[rows[slot]])
        columns.record(
            slot, index, response.link_price, response.posted_price,
            sold, response.skipped, response.exploratory,
        )
        events.append(FeedbackEvent(key=response.key, quote_id=response.quote_id, accepted=sold))
    return events


class ServeLockstep(Workload):
    """64 resident sessions priced in lockstep windows, in process."""

    name = "serve-lockstep"
    nominal_rep_seconds = 0.55
    default_sizes = {"sessions_per_version": 16, "rounds": 60}

    def setup(self) -> None:
        slots = self.sizes["sessions_per_version"] * len(VERSIONS)
        self.market = market = ServingMarket(self.seed, self.sizes["sessions_per_version"], self.sizes["rounds"])
        self.keys = [SessionKey("lockstep", market.slot_name(slot)) for slot in range(slots)]
        self.slot_of = {key: slot for slot, key in enumerate(self.keys)}
        self.rows = [
            [market.row(slot, index) for slot in range(slots)] for index in range(market.length)
        ]
        self.factory = market.factory()
        with self.untraced():
            self.offline, self.offline_pricers = market.offline(slots)
        self.config = MicroBatchConfig(max_batch=slots, max_wait_seconds=0.001)
        self.failures: List[str] = []
        self.columns = None

    def rep(self, index: int) -> Rep:
        market, keys, slot_of = self.market, self.keys, self.slot_of
        registry = PricerRegistry(self.factory)
        service = QuoteService(registry, config=self.config)
        columns = SessionColumns(len(keys), market.length)
        latencies = []
        issued = 0
        started = _now()
        for round_index, rows in enumerate(self.rows):
            requests = lockstep_requests(keys, rows, market.features, market.reserves)
            due = _now()
            service.submit_many(requests)
            responses = service.flush()
            latency = _now() - due
            events = lockstep_settle(
                responses, columns, slot_of, round_index, rows, market.market_values
            )
            service.feedback_batch(events)
            latencies.extend([latency] * len(responses))
            issued += len(requests)
        wall = _now() - started
        stats = service.stats
        if not issued == stats.quotes_served == stats.feedback_applied == len(latencies):
            self.failures.append(
                "rep %d: issued %d, served %d, settled %d"
                % (index, issued, stats.quotes_served, stats.feedback_applied)
            )
        if self.columns is None:
            self.columns, self.registry = columns, registry
        elif not columns.same_as(self.columns):
            self.failures.append("rep %d priced differently from the first" % index)
        return make_rep(
            stats.feedback_applied,
            wall,
            latencies,
            stats.latency.samples_seconds,
            counters={**service_counters(stats), **store_counters(registry.stats)},
            gauges=store_gauges(registry.stats, registry.resident_count),
        )

    def finish(self) -> Outcome:
        failures = list(self.failures)
        columns = self.columns
        for slot, key in enumerate(self.keys):
            if not columns.matches(slot, self.offline[slot]):
                failures.append("session %s: transcript differs from the engine" % key.segment)
        regret, value = self.market.regret_totals(columns.posted, columns.sold)
        volumes = [log_volume_of(self.registry.peek(key).pricer) for key in self.keys]
        return Outcome(
            failures=failures,
            regret_ratio=regret / value,
            decisions=decision_shares(columns.exploratory, columns.skipped, columns.sold),
            log_volume=float(np.mean(volumes)),
            peak_rss_mb=own_peak_rss_mb(),
        )

    def instrument(self) -> None:
        tracer = self.tracer
        instrument_engine(tracer)
        instrument_core(tracer)
        instrument_service(tracer)
        instrument_store(tracer)
        instrument_bench(tracer, {
            "lockstep_requests": "bench.generate",
            "lockstep_settle": "bench.settle",
        })


# --------------------------------------------------------------------------- #
# serve-churn
# --------------------------------------------------------------------------- #


def churn_request(market, key, row):
    request = QuoteRequest(key=key, features=market.features[row], reserve=market.reserves[row])
    return request, market.market_values[row]


def churn_settle(response, key, market_value, columns, event):
    sold = response.sold_at(market_value)
    posted, sold_column, skipped, exploratory = columns
    if response.posted:
        posted[event] = response.posted_price
    sold_column[event] = sold
    skipped[event] = response.skipped
    exploratory[event] = response.exploratory
    return FeedbackEvent(key=key, quote_id=response.quote_id, accepted=sold)


class ServeChurn(Workload):
    """Zipf session popularity over a bounded, segment-backed store.

    Unlike the other workloads the store lives for the whole run: rep ``k``
    serves the next ``events`` draws (drawn from the seed and ``k``), so
    the resident set, the clock hand and the snapshot segments carry over
    and the store settles into steady churn.  The run's work is still fixed
    by the seed and the rep count.
    """

    name = "serve-churn"
    nominal_rep_seconds = 0.25
    default_sizes = {"sessions": 20_000, "resident": 1024, "events": 1000, "rows": 512, "zipf_a": 1.1}

    def setup(self) -> None:
        sizes = self.sizes
        self.market = ServingMarket(self.seed, 1, sizes["rows"])
        pmf = np.arange(1, sizes["sessions"] + 1, dtype=np.float64) ** -sizes["zipf_a"]
        self.pmf = pmf / pmf.sum()
        # Session i has popularity rank i and version i % 4, so every
        # version is equally represented at every popularity.
        self.keys = [
            SessionKey("churn", "s%05d/%s" % (index, VERSIONS[index % len(VERSIONS)]))
            for index in range(sizes["sessions"])
        ]
        self.snapshot_dir = os.path.join(self.workdir, "churn-%d" % id(self))
        self.registry = PricerRegistry(
            self.market.factory(),
            snapshot_dir=self.snapshot_dir,
            max_sessions=sizes["resident"],
            snapshot_format="segment",
        )
        self.service = QuoteService(self.registry)
        self.failures: List[str] = []
        self.columns: List[tuple] = []
        self.events = 0

    def draws(self, index: int) -> List[int]:
        rng = np.random.default_rng([self.seed, 2, index])
        return rng.choice(self.pmf.size, size=self.sizes["events"], p=self.pmf).tolist()

    def rep(self, index: int) -> Rep:
        sizes, market, keys = self.sizes, self.market, self.keys
        registry, service = self.registry, self.service
        draws = self.draws(index)
        rows = market.rounds
        first_event = self.events
        row_of = (first_event + np.arange(len(draws))) % rows
        columns = (
            np.full(len(draws), np.nan),
            np.zeros(len(draws), dtype=bool),
            np.zeros(len(draws), dtype=bool),
            np.zeros(len(draws), dtype=bool),
        )
        latencies = []
        peak_resident = 0
        stats, registry_stats = service.stats, registry.stats
        served_before, settled_before, drains_before = stats.quotes_served, stats.feedback_applied, stats.drains
        store_before = store_counters(registry_stats)
        queue_before = len(stats.latency.samples_seconds)
        started = _now()
        for event, (session, row) in enumerate(zip(draws, row_of.tolist())):
            due = _now()
            request, market_value = churn_request(market, keys[session], row)
            response = service.quote(request)
            latencies.append(_now() - due)
            service.feedback(churn_settle(response, request.key, market_value, columns, event))
            if event & 127 == 0:
                peak_resident = max(peak_resident, registry.resident_count)
        wall = _now() - started
        self.events += len(draws)
        peak_resident = max(peak_resident, registry.resident_count)
        if registry_stats.zero_copy_hydrations + registry_stats.legacy_hydrations + registry_stats.created != registry_stats.opened:
            self.failures.append("rep %d: hydration split does not add up to opened" % index)
        if peak_resident > sizes["resident"]:
            self.failures.append("rep %d: %d sessions resident, bound %d" % (index, peak_resident, sizes["resident"]))
        served, settled = stats.quotes_served - served_before, stats.feedback_applied - settled_before
        if not len(draws) == served == settled:
            self.failures.append(
                "rep %d: issued %d, served %d, settled %d" % (index, len(draws), served, settled)
            )
        self.columns.append(columns + (row_of,))
        counters = {"service.quotes": served, "service.drains": stats.drains - drains_before}
        for name, value in store_counters(registry_stats).items():
            counters[name] = value - store_before[name]
        gauges = store_gauges(registry_stats, registry.resident_count)
        return make_rep(settled, wall, latencies, stats.latency.samples_seconds[queue_before:],
                        counters=counters, gauges=gauges)

    def finish(self) -> Outcome:
        posted, sold, skipped, exploratory, rows = (
            np.concatenate(column) for column in zip(*self.columns)
        )
        batch = self.market.materialized
        market_values = batch.market_values[rows]
        regrets = batch_regrets(market_values, batch.batch.reserve_values[rows], posted, sold)
        registry = self.registry
        resident = [registry.peek(key).pricer for key in registry.store.resident_keys]
        return Outcome(
            failures=list(self.failures),
            regret_ratio=float(regrets.sum() / market_values.sum()),
            decisions=decision_shares(exploratory, skipped, sold),
            log_volume=float(np.mean([log_volume_of(pricer) for pricer in resident])),
            peak_rss_mb=own_peak_rss_mb(),
        )

    def close(self) -> None:
        self.registry.close()
        shutil.rmtree(self.snapshot_dir, ignore_errors=True)

    def instrument(self) -> None:
        tracer = self.tracer
        instrument_engine(tracer)
        instrument_core(tracer)
        instrument_service(tracer)
        instrument_store(tracer)
        instrument_bench(tracer, {
            "churn_request": "bench.generate",
            "churn_settle": "bench.settle",
        })


# --------------------------------------------------------------------------- #
# serve-socket
# --------------------------------------------------------------------------- #

#: Server-side micro-batch window: every poll drains whatever is queued, so
#: quotes coalesce only as far as the closed loop bunches them and no timer
#: adds latency.
SOCKET_BATCH = MicroBatchConfig(max_batch=16, max_wait_seconds=0.0)
SOCKET_DRAIN_INTERVAL = 0.0005


def instrument_server(tracer: Tracer, worker_trace_path: str) -> None:
    """Wrap the server process's layers; the shard worker inherits them."""
    instrument_engine(tracer)
    instrument_core(tracer)
    instrument_service(tracer)
    instrument_store(tracer)
    for method in ("submit_many", "poll", "flush", "quote", "feedback_batch", "feedback_many", "stats"):
        tracer.wrap(ShardedRegistry, method, "sharding.call")
    tracer.wrap(ShardedRegistry, "_send", "sharding.send")
    tracer.wrap(ShardedRegistry, "_recv", "sharding.recv")
    tracer.wrap(FrameDecoder, "feed", "wire.decode")
    for function in ("encode_quote_result_batch", "encode_feedback_ok_batch", "encode_frames", "encode_frame"):
        tracer.wrap(frontend_module, function, "wire.encode")

    run_in_executor = QuoteFrontend._run_in_executor
    level = tracer.level

    def traced_run_in_executor(self, loop, function, *args):
        future = run_in_executor(self, loop, function, *args)
        if level.value:
            started = _now()
            future.add_done_callback(lambda _done: tracer.add("frontend.backend", _now() - started))
        return future

    tracer.patch(QuoteFrontend, "_run_in_executor", traced_run_in_executor)

    worker_main = sharding_module._shard_worker_main

    def traced_worker_main(conn, *args, **kwargs):
        # Runs in the forked worker: start from empty aggregates and write
        # them out when the worker's command loop ends.
        tracer.reset()
        tracer.role = "worker"
        tracer.mark_lane("main")
        try:
            worker_main(
                tracing.TracedConnection(conn, tracer, "sharding.wait", "sharding.reply"),
                *args, **kwargs,
            )
        finally:
            with open(worker_trace_path, "w") as handle:
                json.dump(tracer.summary(), handle)

    tracer.patch(sharding_module, "_shard_worker_main", traced_worker_main)


def socket_server_main(
    conn, seed: int, windows: int, length: int, socket_path: str, trace: bool, workdir: str
) -> None:
    """The serve-socket server process: frontend over a one-shard registry.

    Commands arrive on ``conn``: ``("level", n)`` sets the shared recording
    level (read by this process and its shard worker), ``("stats", None)``
    returns the counters the generator checks, ``("stop", None)`` shuts
    everything down and returns peak RSS, final frontend gauges and the
    merged span aggregates.
    """
    level = multiprocessing.RawValue("b", SETUP if trace else OFF)
    tracer = Tracer(level=level, role="server")
    worker_trace_path = os.path.join(workdir, "worker-trace-%d.json" % os.getpid())
    if trace:
        instrument_server(tracer, worker_trace_path)
    market = ServingMarket(seed, windows, length)
    backend = ShardedRegistry(
        market.factory(), num_shards=1, config=SOCKET_BATCH
    )
    handle = start_frontend_thread(
        backend, unix_path=socket_path, drain_interval=SOCKET_DRAIN_INTERVAL
    )
    if trace:
        def trace_frontend_loop():
            tracer.mark_lane("frontend")
            tracing.trace_event_loop(tracer, handle.loop, "frontend.tick", "frontend.wait")

        handle.loop.call_soon_threadsafe(trace_frontend_loop)
    frontend = handle.frontend
    conn.send(("ready", None))
    try:
        while True:
            op, argument = conn.recv()
            if op == "level":
                level.value = argument
                conn.send(("ok", None))
            elif op == "stats":
                stats = backend.shard_stats()[0]
                conn.send(("ok", {
                    "quotes": stats["quotes_served"],
                    "drains": stats["drains"],
                    "settled": stats["feedback_applied"],
                    "queue": stats["latency_samples"],
                    "registry": stats["registry"],
                    "resident": stats["sessions_resident"],
                    "rejected": frontend.stats.rejected,
                    "hops": frontend.wire_stats.submit_batch.count,
                    "hop_quotes": frontend.wire_stats.submit_batch.total,
                    "bytes": frontend.wire_stats.bytes_in + frontend.wire_stats.bytes_out,
                }))
            elif op == "stop":
                break
    finally:
        waiters = frontend.waiter_count
        rejected = frontend.stats.rejected
        handle.stop()
        backend.close()
    level.value = OFF
    summaries = [tracer.summary()]
    if trace and os.path.exists(worker_trace_path):
        with open(worker_trace_path) as source:
            summaries.append(json.load(source))
        os.unlink(worker_trace_path)
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    conn.send(("ok", {
        "peak_rss_mb": own_peak_rss_mb() + children,
        "waiters": waiters,
        "rejected": rejected,
        "trace": tracing.merge_summaries(summaries),
    }))
    conn.close()


class ServeSocket(Workload):
    """A closed loop of 16 sessions over a unix socket into a server process."""

    name = "serve-socket"
    nominal_rep_seconds = 0.6
    lanes = ["generator:main", "server:frontend", "worker:main"]
    default_sizes = {"sessions_per_version": 4, "rounds": 64, "connections": 2}
    #: Seconds allowed for the server to start, answer, and stop.
    server_timeout = 60.0

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.slots = self.sizes["sessions_per_version"] * len(VERSIONS)
        self.process = None
        self.server_result = None
        self.loop = None
        self.clients = []

    def setup(self) -> None:
        sizes = self.sizes
        with self.untraced():
            self.market = ServingMarket(self.seed, sizes["sessions_per_version"], sizes["rounds"])
            self.offline, self.offline_pricers = self.market.offline(self.slots)
        # A relative path keeps the unix socket name short wherever the
        # checkout lives (both processes share the working directory).
        self.socket_path = os.path.relpath(
            os.path.join(self.workdir, "quotes-%d-%d.sock" % (os.getpid(), id(self)))
        )
        context = multiprocessing.get_context("spawn")
        self.conn, child = context.Pipe()
        self.process = context.Process(
            target=socket_server_main,
            args=(child, self.seed, sizes["sessions_per_version"], sizes["rounds"],
                  self.socket_path, self.traced, self.workdir),
        )
        self.process.start()
        child.close()
        self._call_reply()
        self.loop = asyncio.new_event_loop()
        if self.traced:
            tracing.trace_event_loop(self.tracer, self.loop, "bench.tick", "bench.wait")
        self.clients = self.loop.run_until_complete(gather([
            AsyncQuoteClient.connect(unix_path=self.socket_path, wire=2, coalesce_writes=True)
            for _ in range(sizes["connections"])
        ]))
        self.failures: List[str] = []
        self.columns = None
        self.server_stats = self.call("stats")

    def _call_reply(self):
        if not self.conn.poll(self.server_timeout):
            raise ServingError("serve-socket server did not answer within %gs" % self.server_timeout)
        status, payload = self.conn.recv()
        return payload

    def call(self, op: str, argument=None):
        self.conn.send((op, argument))
        return self._call_reply()

    def set_level(self, level: int) -> None:
        self.tracer.level.value = level
        self.call("level", level)

    async def _session(self, slot, key, client, columns, latencies, errors):
        market = self.market
        try:
            for index in range(market.length):
                row = market.row(slot, index)
                due = _now()
                result = await client.quote(key, market.features[row], reserve=market.reserves[row])
                latencies.append(_now() - due)
                sold = frame_sold_at(result, market.market_values[row])
                columns.record(
                    slot, index, result["link_price"], result["posted_price"],
                    sold, result["skipped"], result["exploratory"],
                )
                await client.feedback(key, result["quote_id"], sold)
        except BackpressureError as exc:
            errors.append("session %s: rejected: %s" % (key.segment, exc))
        except ServingError as exc:
            errors.append("session %s: %s" % (key.segment, exc))

    def rep(self, index: int) -> Rep:
        sizes, market = self.sizes, self.market
        keys = [
            SessionKey("socket", "r%03d-%s" % (index, market.slot_name(slot)))
            for slot in range(self.slots)
        ]
        columns = SessionColumns(len(keys), market.length)
        latencies: List[float] = []
        errors: List[str] = []
        sessions = [
            self._session(slot, key, self.clients[slot % len(self.clients)], columns, latencies, errors)
            for slot, key in enumerate(keys)
        ]
        started = _now()
        self.loop.run_until_complete(gather(sessions))
        wall = _now() - started
        before, after = self.server_stats, self.call("stats")
        self.server_stats = after
        expected = len(keys) * market.length
        self.failures.extend("rep %d: %s" % (index, error) for error in errors)
        served, settled = after["quotes"] - before["quotes"], after["settled"] - before["settled"]
        if not expected == served == settled == len(latencies):
            self.failures.append(
                "rep %d: issued %d, served %d, settled %d, answered %d"
                % (index, expected, served, settled, len(latencies))
            )
        for slot, key in enumerate(keys):
            if not columns.matches(slot, self.offline[slot]):
                self.failures.append("rep %d session %s: transcript differs from the engine" % (index, key.segment))
        if self.columns is None:
            self.columns = columns
        counters = {
            "service.quotes": served,
            "service.drains": after["drains"] - before["drains"],
            "frontend.hops": after["hops"] - before["hops"],
            "frontend.hop_quotes": after["hop_quotes"] - before["hop_quotes"],
            "wire.bytes": after["bytes"] - before["bytes"],
            "frontend.rejected": after["rejected"] - before["rejected"],
        }
        for name in ("created", "hydrations", "evictions", "persists", "clock_hand_steps"):
            counters["store." + name] = after["registry"][name] - before["registry"][name]
        gauges = store_gauges_from_dict(after["registry"], after["resident"])
        return make_rep(settled, wall, latencies, after["queue"][len(before["queue"]):],
                        counters=counters, gauges=gauges)

    def finish(self) -> Outcome:
        failures = list(self.failures)
        self.stop_server()
        result = self.server_result
        if result["rejected"]:
            failures.append("%d quotes refused by backpressure" % result["rejected"])
        if result["waiters"]:
            failures.append("%d waiters left on the server" % result["waiters"])
        outstanding = sum(client.outstanding for client in self.clients)
        if outstanding:
            failures.append("%d requests outstanding on the clients" % outstanding)
        columns = self.columns
        regret, value = self.market.regret_totals(columns.posted, columns.sold)
        return Outcome(
            failures=failures,
            regret_ratio=regret / value,
            decisions=decision_shares(columns.exploratory, columns.skipped, columns.sold),
            # Transcripts equal the engine's (checked above), so each
            # session's final knowledge is its version's offline pricer's.
            log_volume=float(np.mean([log_volume_of(pricer) for pricer in self.offline_pricers])),
            peak_rss_mb=result["peak_rss_mb"],
        )

    def layer_summary(self) -> dict:
        return tracing.merge_summaries([self.tracer.summary(), self.server_result["trace"]])

    def stop_server(self) -> None:
        if self.process is None:
            return
        try:
            if self.server_result is None and self.process.is_alive():
                self.server_result = self.call("stop")
        except (OSError, EOFError, ServingError):
            self.process.kill()
            raise
        finally:
            self.process.join(self.server_timeout)
            if self.process.is_alive():
                self.process.kill()
                self.process.join(self.server_timeout)
            self.process = None
            self.conn.close()

    def close(self) -> None:
        try:
            if self.loop is not None:
                self.loop.run_until_complete(gather([client.close() for client in self.clients]))
        finally:
            try:
                self.stop_server()
            finally:
                stop_resource_tracker()
                if self.loop is not None:
                    self.loop.close()
                    self.loop = None

    def instrument(self) -> None:
        tracer = self.tracer
        self.traced = True
        tracer.role = "generator"
        tracer.wrap(AsyncQuoteClient, "submit_quote", "client.submit")
        tracer.wrap(AsyncQuoteClient, "submit_feedback", "client.submit")
        tracer.wrap(FrameDecoder, "feed", "wire.decode")
        for function in ("encode_quote_batch", "encode_feedback_batch", "encode_frames", "encode_frame"):
            tracer.wrap(client_module, function, "wire.encode")


def stop_resource_tracker() -> None:
    """Stop multiprocessing's resource tracker and wait for it to exit.

    Starting a ``spawn`` process launches the tracker, and multiprocessing
    never waits for it: it would outlive the run by a moment.  Call this
    only once every spawned process has ended, since they hold its pipe open.
    """
    tracker = multiprocessing.resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None:
        tracker._stop()


async def gather(awaitables):
    """Await all of ``awaitables`` on the running loop."""
    return await asyncio.gather(*awaitables)


def store_gauges_from_dict(stats: dict, resident: int) -> Dict[str, float]:
    """End-of-rep store gauges (a rep's store is fresh, so ``persists`` is the rep's)."""
    return {
        "store.resident_bytes": stats["resident_bytes"],
        "store.resident": resident,
        "store.segment_bytes": stats["segment_bytes"],
        "store.persists": stats["persists"],
    }


WORKLOADS = {
    cls.name: cls
    for cls in (EnginePaper, ServeLockstep, ServeChurn, ServeSocket)
}
