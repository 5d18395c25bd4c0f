"""Checkpoint-backed pricing-session registry (facade over the store).

A *session* is one live pricer (plus its market value model) serving one
traffic segment.  The :class:`PricerRegistry` owns every resident session and
gives the serving layer three lifecycle guarantees:

* **hydration** — a session whose snapshot exists under ``snapshot_dir`` is
  rebuilt from it: the factory constructs a fresh, same-configuration pricer
  and the checkpoint subsystem (:mod:`repro.engine.checkpoint`) restores its
  exact state, so a restarted service continues pricing bit-identically to
  an uninterrupted one (the same exact-resume contract the offline chunked
  runner is pinned to);
* **write-behind persistence** — with ``persist_every=N``, a session's state
  is snapshotted after every N-th feedback update (and always on eviction
  and :meth:`~PricerRegistry.flush`), bounding the feedback loss of a crash
  to the last N updates without putting serialisation on the quote hot path;
* **clock-hand eviction** — with ``max_sessions`` set, a cold session is
  persisted and dropped when capacity is exceeded, chosen by a second-chance
  clock sweep (O(1) amortised per eviction).  Sessions with in-flight quotes
  (pending decisions awaiting feedback) are never evicted — a decision
  object cannot be rebuilt from a snapshot.

Since PR 9 the mechanics live in :mod:`repro.serving.store`: state is
captured into per-family struct-of-arrays slabs, and snapshots are written
either as legacy file-per-session ``.session.npz`` checkpoints (the default,
interchangeable with offline sweeps) or as mmap-backed segment files
(``snapshot_format="segment"``) whose hydration is a zero-copy slice.  This
module keeps the stable public surface — ``session`` / ``peek`` / ``pin`` /
``evict`` / ``flush`` / ``export_session`` — that :class:`QuoteService`,
:class:`~repro.serving.sharding.ShardedRegistry`, and the live rebalancer
are built against.
"""

from __future__ import annotations

from typing import List, Optional

from repro.serving.requests import SessionKey
from repro.serving.store import (
    DEFAULT_SEGMENT_BYTES,
    SESSION_SUFFIX,
    SNAPSHOT_FORMATS,
    MaterializedRows,
    PricingSession,
    RegistryStats,
    SessionFactory,
    SessionStore,
)

__all__ = [
    "SESSION_SUFFIX",
    "SNAPSHOT_FORMATS",
    "SessionFactory",
    "PricingSession",
    "RegistryStats",
    "PricerRegistry",
]


class PricerRegistry:
    """Session registry keyed by :class:`SessionKey` with bounded residency.

    A thin facade over :class:`repro.serving.store.SessionStore` — every
    method delegates, and the store is reachable as :attr:`store` for the
    columnar row APIs and bench introspection.

    Parameters
    ----------
    factory:
        Builds ``(model, pricer)`` for a key.  The pricer must be freshly
        constructed with the session's configuration — hydration loads only
        the mutable state into it (the checkpoint contract).
    snapshot_dir:
        Directory of session snapshots.  ``None`` disables persistence:
        evicted sessions lose their state and hydration never happens.
    max_sessions:
        Resident-session capacity; ``None`` means unbounded.
    persist_every:
        Write-behind cadence in feedback updates; ``0`` persists only on
        eviction / flush.
    snapshot_format:
        ``"legacy"`` (file-per-session ``.npz``, the default) or
        ``"segment"`` (shared mmap segment files + index journal).
    segment_max_bytes:
        Segment-file rotation threshold (segment format only).
    """

    def __init__(
        self,
        factory: SessionFactory,
        snapshot_dir: Optional[str] = None,
        max_sessions: Optional[int] = None,
        persist_every: int = 0,
        snapshot_format: str = "legacy",
        segment_max_bytes: int = DEFAULT_SEGMENT_BYTES,
    ) -> None:
        self.store = SessionStore(
            factory,
            snapshot_dir=snapshot_dir,
            max_sessions=max_sessions,
            persist_every=persist_every,
            snapshot_format=snapshot_format,
            segment_max_bytes=segment_max_bytes,
        )

    @property
    def stats(self) -> RegistryStats:
        return self.store.stats

    # ------------------------------------------------------------------ #
    # Lookup / residency
    # ------------------------------------------------------------------ #

    def session(self, key: SessionKey) -> PricingSession:
        """The resident session for ``key``, creating or hydrating it."""
        return self.store.session(key)

    def peek(self, key: SessionKey) -> Optional[PricingSession]:
        """The resident session for ``key`` without touching recency."""
        return self.store.peek(key)

    @property
    def resident_count(self) -> int:
        """Number of sessions currently resident."""
        return self.store.resident_count

    @property
    def resident_keys(self) -> List[SessionKey]:
        """Resident keys in LRU → MRU order."""
        return self.store.resident_keys

    def __contains__(self, key: SessionKey) -> bool:
        return key in self.store

    def pin(self, key: SessionKey) -> None:
        """Exempt a resident session from eviction until :meth:`unpin`."""
        self.store.pin(key)

    def unpin(self, key: SessionKey) -> None:
        """Lift a session's eviction exemption (no-op when not resident)."""
        self.store.unpin(key)

    # ------------------------------------------------------------------ #
    # Persistence
    # ------------------------------------------------------------------ #

    def snapshot_path(self, key: SessionKey) -> Optional[str]:
        """The legacy snapshot file for ``key`` (``None`` = persistence off)."""
        return self.store.snapshot_path(key)

    def persist(self, session: PricingSession) -> bool:
        """Snapshot one session to disk; returns whether anything was written."""
        return self.store.persist(session)

    def note_feedback(self, session: PricingSession, count: int = 1) -> None:
        """Record ``count`` applied feedback updates (write-behind cadence)."""
        self.store.note_feedback(session, count)

    def flush(self) -> int:
        """Persist every resident session; returns the number written."""
        return self.store.flush()

    def export_session(self, key: SessionKey) -> str:
        """Persist one quiesced session as a legacy file and drop it."""
        return self.store.export_session(key)

    def materialize_legacy(self, key: SessionKey) -> Optional[str]:
        """Ensure a cold session exists as a legacy file (segment → ``.npz``)."""
        return self.store.materialize_legacy(key)

    def evict(self, key: SessionKey) -> bool:
        """Persist and drop one session; returns whether it was resident."""
        return self.store.evict(key)

    # ------------------------------------------------------------------ #
    # Contiguous row slices
    # ------------------------------------------------------------------ #

    def materialize_rows(self, keys, refresh=True) -> MaterializedRows:
        """Contiguous struct-of-arrays slices of same-family sessions."""
        return self.store.materialize_rows(keys, refresh=refresh)

    def scatter_rows(self, materialized: MaterializedRows) -> int:
        """Write materialized slices back into slab rows and live pricers."""
        return self.store.scatter_rows(materialized)

    def close(self) -> None:
        self.store.close()
