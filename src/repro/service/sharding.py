"""Sharded dispatch: split a ruleset, fan a stream across the pieces.

Transitions of a homogeneous NFA never cross weakly-connected
components (:func:`repro.automata.analysis.connected_components`), so a
large ruleset splits into independent *shards* — groups of whole
components balanced by state count — that can scan the same input
stream in isolation and disagree about nothing.  The
:class:`Dispatcher` owns that split: it builds one sub-automaton (and
one :class:`Engine`) per shard, feeds each chunk of the stream to every
shard serially or across a ``multiprocessing`` pool, and merges the
per-shard reports and statistics back into the global automaton's view,
reproducing a monolithic :meth:`Engine.run`'s report stream
byte-for-byte.

Components with no reporting state can never contribute a report and
are dropped at shard-construction time; :attr:`Dispatcher.num_dropped_
states` records how many states that removed.  When such components
exist, merged *statistics* (``num_states``, enabled/active sums) cover
only the retained shards and so undercount a monolithic run's —
reports are unaffected.
"""

from __future__ import annotations

import multiprocessing
import threading
from collections.abc import Iterator
from dataclasses import dataclass

from repro.api.config import DEFAULT_CHUNK_SIZE, ScanConfig
from repro.automata.analysis import balanced_shards, connected_components
from repro.automata.nfa import Automaton
from repro.errors import ConfigError, SimulationError
from repro.service.merge import accumulate_stats, merge_shard_results
from repro.service.ruleset import RulesetManager
from repro.sim.backends import DEFAULT_MAX_KEPT_REPORTS
from repro.sim.engine import Engine, EngineState, SimulationResult
from repro.sim.trace import TraceStats
from repro.telemetry.metrics import default_registry
from repro.telemetry.tracing import current_trace

__all__ = [
    "DEFAULT_CHUNK_SIZE",
    "Dispatcher",
    "Shard",
    "chunked_scan",
    "iter_chunks",
    "make_shards",
]

_REGISTRY = default_registry()
_DISPATCH_SCANS = _REGISTRY.counter(
    "repro_dispatcher_scans_total",
    "One-shot Dispatcher.scan fan-outs, by execution mode (serial | pool)",
    ("mode",),
)
_SHARD_RUNS = _REGISTRY.counter(
    "repro_dispatcher_shard_runs_total",
    "Per-shard stream executions dispatched, by execution mode",
    ("mode",),
)
_CHUNK_RUNS = _REGISTRY.counter(
    "repro_dispatcher_chunk_runs_total",
    "Session chunks fanned across every shard via Dispatcher.run_chunk",
)
_BATCH_CHUNK_RUNS = _REGISTRY.counter(
    "repro_dispatcher_batch_runs_total",
    "Batched multi-stream steps fanned across every shard",
)


@dataclass(frozen=True)
class Shard:
    """One independent slice of a ruleset.

    ``automaton`` is the induced sub-automaton with dense local ids;
    ``global_ids[local]`` maps back to the parent automaton's state id.
    """

    index: int
    automaton: Automaton
    global_ids: list[int]


def iter_chunks(data: bytes, chunk_size: int) -> Iterator[bytes]:
    """Split ``data`` into consecutive chunks of ``chunk_size`` bytes."""
    if chunk_size < 1:
        raise ConfigError("chunk size must be >= 1")
    for start in range(0, len(data), chunk_size):
        yield data[start : start + chunk_size]


def make_shards(automaton: Automaton, num_shards: int) -> list[Shard]:
    """Split ``automaton`` into at most ``num_shards`` independent shards.

    Whole connected components are packed largest-first into balanced
    groups; reporterless components are dropped (they cannot affect the
    report stream).
    """
    automaton.validate()
    reporting = {s.ste_id for s in automaton.reporting_states()}
    components = [
        c for c in connected_components(automaton) if reporting.intersection(c)
    ]
    shards = []
    for index, group in enumerate(balanced_shards(components, num_shards)):
        sub = automaton.subautomaton(
            group, name=f"{automaton.name}.shard{index}"
        )
        shards.append(Shard(index=index, automaton=sub, global_ids=group))
    return shards


def chunked_scan(
    engine: Engine,
    data: bytes,
    chunk_size: int,
    max_reports: int = DEFAULT_MAX_KEPT_REPORTS,
) -> SimulationResult:
    """Stream ``data`` through ``engine`` chunk by chunk.

    Equivalent to ``engine.run(data)`` (the chunked-equivalence tests
    assert this exactly), but exercises the resumable path and bounds
    the per-call working set.
    """
    state = engine.initial_state()
    stats = TraceStats(num_states=len(engine.automaton))
    reports = []
    truncated = False
    for chunk in iter_chunks(data, chunk_size):
        budget = max(0, max_reports - len(reports))
        result = engine.run_chunk(chunk, state, max_reports=budget)
        reports.extend(result.reports)
        truncated |= result.truncated
        accumulate_stats(stats, result.stats)
    return SimulationResult(reports=reports, stats=stats, truncated=truncated)


# -- worker-process plumbing (top-level for picklability) -----------------
_WORKER_ENGINES: list[Engine] = []


def _init_worker(engines: list[Engine]) -> None:
    # Engines arrive pre-compiled from the parent: shared copy-on-write
    # pages under fork, pickled once per worker otherwise.
    global _WORKER_ENGINES
    _WORKER_ENGINES = engines


def _scan_shard(task: tuple[int, bytes, int, int]) -> SimulationResult:
    index, data, chunk_size, max_reports = task
    return chunked_scan(_WORKER_ENGINES[index], data, chunk_size, max_reports)


class Dispatcher:
    """Runs one ruleset, split into shards, over input streams.

    Args:
        automaton: the full ruleset.
        config: the :class:`~repro.api.config.ScanConfig` driving this
            dispatcher.  The consumed fields:

            ``num_shards``
                upper bound on independent shards (the component
                structure may yield fewer).
            ``workers``
                processes for :meth:`scan`; 1 means in-process serial
                execution.  Parallelism is across *shards*, so workers
                beyond ``len(shards)`` are never used.  Streaming
                sessions always run serially — chunk N+1 of a stream
                cannot start before chunk N finishes.
            ``backend``
                execution backend for the shard engines.  ``"auto"``
                resolves *per shard*: each shard's sub-automaton is
                sized and density-estimated independently, so one
                ruleset can mix sparse and bit-parallel kernels.
        manager: optional shared :class:`RulesetManager`; shard engines
            are then cached by fingerprint and survive this dispatcher.
    """

    def __init__(
        self,
        automaton: Automaton,
        config: ScanConfig | None = None,
        *,
        manager: RulesetManager | None = None,
        prebuilt: "tuple[list[Shard], list[Engine]] | None" = None,
    ) -> None:
        self.config = config if config is not None else ScanConfig()
        self.automaton = automaton
        if prebuilt is not None:
            # composed shards + engines from the incremental compiler:
            # the expensive work (tables, kernels) already happened
            # against cached component artifacts, so nothing is derived
            # here and the lazy .engines path never compiles.
            shards, engines = prebuilt
            if len(shards) != len(engines):
                raise SimulationError(
                    "prebuilt shards and engines must pair up"
                )
            self.shards = list(shards)
            self._prebuilt_engines: list[Engine] | None = list(engines)
        else:
            self.shards = make_shards(automaton, self.config.num_shards)
            self._prebuilt_engines = None
        self.workers = min(self.config.workers, len(self.shards))
        self._manager = manager
        self._engines: list[Engine] | None = None
        self._pool: multiprocessing.pool.Pool | None = None
        # pool scans running now, and whether the owner let go of this
        # dispatcher: a retired pool closes when its last scan finishes
        self._pool_scans = 0
        self._retired = False
        # engine compilation and pool creation are check-then-create;
        # concurrent scans (e.g. server executor threads) must not race
        # them or a duplicate pool's processes would leak unterminated.
        # Reentrant: pool creation reads .engines under the same lock.
        self._compile_lock = threading.RLock()
        self.num_dropped_states = len(automaton) - sum(
            len(s.global_ids) for s in self.shards
        )

    @property
    def num_shards(self) -> int:
        return len(self.shards)

    @property
    def engines(self) -> list[Engine]:
        """Per-shard engines, compiled lazily (and cached via the manager)."""
        if self._engines is None:
            with self._compile_lock:
                if self._engines is None:
                    backend = self.config.backend
                    if self._prebuilt_engines is not None:
                        self._engines = self._prebuilt_engines
                    elif self._manager is not None:
                        self._engines = [
                            self._manager.engine(s.automaton, backend)
                            for s in self.shards
                        ]
                    else:
                        self._engines = [
                            Engine(s.automaton, backend=backend)
                            for s in self.shards
                        ]
        return self._engines

    @property
    def backend_names(self) -> list[str]:
        """Resolved kernel name per shard (``auto`` decides per shard)."""
        return [engine.backend_name for engine in self.engines]

    def global_ids(self) -> list[list[int]]:
        return [s.global_ids for s in self.shards]

    # -- streaming ------------------------------------------------------
    def initial_states(self) -> list[EngineState]:
        """Fresh per-shard stream states (one session's snapshot)."""
        return [engine.initial_state() for engine in self.engines]

    def run_chunk(
        self,
        data: bytes,
        states: list[EngineState],
        *,
        max_reports: int = DEFAULT_MAX_KEPT_REPORTS,
    ) -> SimulationResult:
        """Feed one chunk to every shard, advancing ``states`` in place.

        Returns the merged global-view result for this chunk only.
        """
        if len(states) != len(self.shards):
            raise SimulationError(
                "state snapshot does not match shard count"
            )
        _CHUNK_RUNS.labels().inc()
        _SHARD_RUNS.labels("serial").inc(len(self.shards))
        per_shard = [
            engine.run_chunk(data, state, max_reports=max_reports)
            for engine, state in zip(self.engines, states)
        ]
        return self._merge_capped(per_shard, max_reports)

    def run_chunk_batch(
        self,
        chunks: list[bytes],
        states_per_stream: "list[list[EngineState]]",
        *,
        max_reports=DEFAULT_MAX_KEPT_REPORTS,
    ) -> list[SimulationResult]:
        """Feed one chunk per stream to every shard in batched steps.

        The multi-stream analogue of :meth:`run_chunk`:
        ``states_per_stream[r]`` is stream ``r``'s per-shard snapshot
        list (advanced in place) and ``chunks[r]`` its next chunk.
        Each shard engine advances *all* streams in one
        :meth:`Engine.step_batch` call, so per-stream Python overhead
        is paid once per shard instead of once per (stream, shard).
        ``max_reports`` is one shared cap or a per-stream budget
        sequence; returns one merged global-view result per stream,
        byte-identical to per-stream :meth:`run_chunk` calls.
        """
        num_streams = len(chunks)
        if len(states_per_stream) != num_streams:
            raise SimulationError(
                f"got {len(states_per_stream)} state snapshots for "
                f"{num_streams} chunks"
            )
        for snapshot in states_per_stream:
            if len(snapshot) != len(self.shards):
                raise SimulationError(
                    "state snapshot does not match shard count"
                )
        if isinstance(max_reports, int):
            caps = [max_reports] * num_streams
        else:
            caps = list(max_reports)
        _BATCH_CHUNK_RUNS.labels().inc()
        _SHARD_RUNS.labels("serial").inc(len(self.shards))
        per_stream: list[list[SimulationResult]] = [
            [] for _ in range(num_streams)
        ]
        for shard_index, engine in enumerate(self.engines):
            shard_results = engine.step_batch(
                chunks,
                [snapshot[shard_index] for snapshot in states_per_stream],
                max_reports=caps,
            )
            for stream, result in enumerate(shard_results):
                per_stream[stream].append(result)
        return [
            self._merge_capped(results, caps[stream])
            for stream, results in enumerate(per_stream)
        ]

    # -- one-shot scans -------------------------------------------------
    def scan(
        self,
        data: bytes,
        *,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        max_reports: int = DEFAULT_MAX_KEPT_REPORTS,
    ) -> SimulationResult:
        """Scan a complete stream across all shards and merge the results."""
        trace = current_trace()
        if self.workers > 1:
            _DISPATCH_SCANS.labels("pool").inc()
            _SHARD_RUNS.labels("pool").inc(len(self.shards))
            tasks = [
                (shard.index, data, chunk_size, max_reports)
                for shard in self.shards
            ]
            pool = self._acquire_pool()
            try:
                if trace is not None:
                    # worker-process kernel spans cannot cross the pickle
                    # boundary; one span records the whole fan-out instead
                    with trace.span(
                        "dispatcher.pool",
                        shards=len(self.shards),
                        workers=self.workers,
                    ):
                        per_shard = pool.map(_scan_shard, tasks)
                else:
                    per_shard = pool.map(_scan_shard, tasks)
            finally:
                self._release_pool()
        else:
            _DISPATCH_SCANS.labels("serial").inc()
            _SHARD_RUNS.labels("serial").inc(len(self.shards))
            per_shard = []
            for shard, engine in zip(self.shards, self.engines):
                if trace is not None:
                    with trace.span(
                        "dispatcher.shard",
                        shard=shard.index,
                        backend=engine.backend_name,
                        states=len(shard.global_ids),
                    ):
                        per_shard.append(
                            chunked_scan(engine, data, chunk_size, max_reports)
                        )
                else:
                    per_shard.append(
                        chunked_scan(engine, data, chunk_size, max_reports)
                    )
        return self._merge_capped(per_shard, max_reports)

    def _acquire_pool(self) -> "multiprocessing.pool.Pool":
        """The persistent worker pool, created on first parallel scan,
        counted as in use until the matching :meth:`_release_pool`.

        Compiled engines ship to the workers exactly once, as the
        initializer's arguments (copy-on-write pages under fork).
        Repeat scans pay neither pool startup nor recompilation.
        """
        with self._compile_lock:
            if self._pool is None:
                self._pool = multiprocessing.Pool(
                    processes=self.workers,
                    initializer=_init_worker,
                    initargs=(self.engines,),
                )
            self._pool_scans += 1
            return self._pool

    def _release_pool(self) -> None:
        with self._compile_lock:
            self._pool_scans -= 1
            if self._retired and self._pool_scans == 0:
                self.close()

    def retire(self) -> None:
        """Let go of this dispatcher: its worker pool closes now, or
        when the last pool scan still running finishes (terminating it
        mid-scan would kill another thread's work).  A scan started
        after retirement still works and closes its pool when done."""
        with self._compile_lock:
            self._retired = True
            if self._pool_scans == 0:
                self.close()

    def close(self) -> None:
        """Shut down the worker pool (no-op for serial dispatchers).

        Idempotent, and safe to call after a scan raised mid-stream:
        ``terminate`` stops the workers even with tasks still queued,
        and ``join`` reaps the processes so no pool (or
        ``ResourceWarning``) outlives the dispatcher.
        """
        with self._compile_lock:
            if self._pool is not None:
                self._pool.terminate()
                self._pool.join()
                self._pool = None

    def __enter__(self) -> "Dispatcher":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def _merge_capped(
        self, per_shard: list[SimulationResult], max_reports: int
    ) -> SimulationResult:
        """Merge shard results, re-applying the recording cap globally.

        Each shard records up to ``max_reports`` on its own, so the
        merged stream could hold ``num_shards x max_reports`` entries;
        trim to the first ``max_reports`` in emission order (counting
        via ``stats.num_reports`` is unaffected), matching what a
        monolithic engine would have recorded.
        """
        merged = merge_shard_results(per_shard, self.global_ids())
        if len(merged.reports) > max_reports:
            del merged.reports[max_reports:]
            merged.truncated = True
        return merged
