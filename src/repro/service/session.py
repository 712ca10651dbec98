"""Resumable named streams: the multi-tenant session API.

A :class:`Session` binds one input stream to one compiled (possibly
sharded) ruleset and carries the stream's active-state snapshot between
:meth:`~Session.feed` calls, so many concurrent streams — different
users, different connections — can interleave arbitrarily against the
same cached engines without interfering.  START_OF_DATA semantics and
report cycles are per-*session*: each session starts its own stream at
position 0 regardless of how its chunks interleave with other
sessions'.
"""

from __future__ import annotations

from repro.api.config import ScanConfig
from repro.errors import SimulationError
from repro.service.merge import accumulate_stats
from repro.service.sharding import Dispatcher, iter_chunks
from repro.sim.backends.base import handle_truncation
from repro.sim.engine import SimulationResult
from repro.sim.reports import Report
from repro.sim.trace import TraceStats
from repro.telemetry.metrics import default_registry

_REGISTRY = default_registry()
_SESSION_FEEDS = _REGISTRY.counter(
    "repro_session_feeds_total",
    "Chunks fed into streaming sessions",
)
_SESSION_FEED_BYTES = _REGISTRY.counter(
    "repro_session_feed_bytes_total",
    "Input bytes consumed by streaming-session feeds",
)


class Session:
    """One resumable stream scanned against one dispatcher's shards.

    Created by :meth:`repro.service.service.MatchingService.open_session`;
    feed chunks as they arrive and read the accumulated result at any
    point.  Sessions are cheap: per shard they hold only the active
    state indices and the stream position.

    The session consumes two fields of its
    :class:`~repro.api.config.ScanConfig`: ``max_reports`` bounds the
    reports *recorded* over the whole stream (reports keep being
    counted past it), and ``on_truncation`` decides what the first
    chunk that loses a report to the cap does — mark the session
    ``truncated`` and raise a :class:`ReportTruncationWarning`
    (``"warn"``, the default), a :class:`~repro.errors.SimulationError`
    (``"error"``), or nothing (``"ignore"``).

    Sessions are context managers: leaving the ``with`` block closes
    the stream (the accumulated result stays readable via
    :attr:`reports` / :attr:`stats`).
    """

    def __init__(
        self,
        name: str,
        dispatcher: Dispatcher,
        config: ScanConfig | None = None,
        *,
        ledger_probe=None,
    ) -> None:
        self.config = config if config is not None else ScanConfig()
        self.name = name
        self.dispatcher = dispatcher
        self.truncated = False
        self.closed = False
        #: the ruleset version this stream opened against (set by
        #: MatchingService when the ruleset is version-tracked); the
        #: session keeps these engines through any later hot-swap
        self.ruleset_version: int | None = None
        #: called once with this session when it closes (set by the
        #: owning MatchingService, so both ``close()`` and
        #: ``close_session(name)`` release its bookkeeping)
        self.on_close = None
        self._states = dispatcher.initial_states()
        self._reports: list[Report] = []
        self._stats = TraceStats(
            num_states=sum(len(s.global_ids) for s in dispatcher.shards)
        )
        # resumable reference accounting (:class:`~repro.telemetry.
        # ledger.LedgerProbe`): fed the same chunks as the shards, so a
        # running hardware ledger is available at any chunk boundary
        self._ledger_probe = ledger_probe

    @property
    def position(self) -> int:
        """Bytes of this stream consumed so far."""
        return self._states[0].position if self._states else 0

    @property
    def reports(self) -> list[Report]:
        """All reports emitted so far (absolute stream offsets)."""
        return list(self._reports)

    @property
    def stats(self) -> TraceStats:
        return self._stats

    @property
    def report_budget(self) -> int:
        """Reports this stream may still record before hitting its cap."""
        return max(0, self.config.max_reports - len(self._reports))

    @property
    def shard_states(self):
        """The live per-shard engine states (advanced in place by feeds)."""
        return self._states

    def feed(self, chunk: bytes) -> list[Report]:
        """Consume one chunk; return only the reports it produced."""
        if self.closed:
            raise SimulationError(f"session {self.name!r} is closed")
        result = self.dispatcher.run_chunk(
            chunk, self._states, max_reports=self.report_budget
        )
        return self.absorb(chunk, result)

    def absorb(self, chunk: bytes, result: SimulationResult) -> list[Report]:
        """Record one already-dispatched chunk's result into the session.

        The bookkeeping half of :meth:`feed`, split out so a batch
        scheduler can dispatch many sessions' chunks in one
        :meth:`~repro.service.sharding.Dispatcher.run_chunk_batch` call
        (against :attr:`shard_states`, capped at :attr:`report_budget`)
        and still account each result exactly as a solo feed would.

        Raises the same closed-session error :meth:`feed` does: the
        batched path must never advance a closed stream's accounting
        (batch dispatchers filter closed sessions out *before*
        dispatch, so their shard states are never touched either).
        """
        if self.closed:
            raise SimulationError(f"session {self.name!r} is closed")
        _SESSION_FEEDS.labels().inc()
        _SESSION_FEED_BYTES.labels().inc(len(chunk))
        if self._ledger_probe is not None:
            self._ledger_probe.feed(chunk)
        self._reports.extend(result.reports)
        accumulate_stats(self._stats, result.stats)
        if result.truncated and not self.truncated:
            self.truncated = True
            handle_truncation(
                self.config.on_truncation,
                f"session {self.name!r} hit its kept-reports cap "
                f"({self.config.max_reports}); further reports are counted "
                f"but not recorded",
                stacklevel=3,
            )
        return result.reports

    def feed_all(self, data: bytes, chunk_size: int) -> list[Report]:
        """Feed ``data`` in ``chunk_size`` pieces; return its new reports."""
        out: list[Report] = []
        for chunk in iter_chunks(data, chunk_size):
            out.extend(self.feed(chunk))
        return out

    def ledger(self):
        """The running :class:`~repro.telemetry.ledger.HardwareLedger`
        over everything fed so far, or None when the session was opened
        without ``ScanConfig(hardware_ledger=True)``."""
        if self._ledger_probe is None:
            return None
        return self._ledger_probe.ledger()

    def snapshot(self):
        """Copies of the per-shard engine states (a resumable checkpoint)."""
        return [state.copy() for state in self._states]

    def restore(self, states) -> None:
        """Adopt a checkpointed snapshot: the failover handoff.

        ``states`` is a per-shard list of
        :class:`~repro.sim.backends.base.EngineState` objects or their
        ``to_dict()`` wire form (what a checkpointing server ``feed``
        returns).  Only a *fresh* session may restore — the stream then
        resumes from the snapshot's position, so reports produced by
        subsequent feeds carry the same absolute offsets the original
        stream would have.  Shard count must match (same ruleset, same
        sharding) and every shard must sit at the same position.
        """
        from repro.sim.backends.base import EngineState

        if self.closed:
            raise SimulationError(f"session {self.name!r} is closed")
        if self.position != 0 or self._reports:
            raise SimulationError(
                f"session {self.name!r} has already consumed data; "
                f"only a fresh session can restore a snapshot"
            )
        decoded = [
            state if isinstance(state, EngineState) else EngineState.from_dict(state)
            for state in states
        ]
        if len(decoded) != len(self._states):
            raise SimulationError(
                f"snapshot has {len(decoded)} shard states; this session "
                f"runs {len(self._states)} shards (ruleset or sharding "
                f"mismatch)"
            )
        positions = {state.position for state in decoded}
        if len(positions) > 1:
            raise SimulationError(
                f"snapshot shard positions disagree: {sorted(positions)}"
            )
        self._states = decoded

    def close(self) -> SimulationResult:
        """Finish the stream and return the accumulated result."""
        if not self.closed:
            self.closed = True
            if self.on_close is not None:
                self.on_close(self)
        return SimulationResult(
            reports=self._reports, stats=self._stats, truncated=self.truncated
        )

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
