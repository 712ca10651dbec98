"""repro.service — streaming, sharded, multi-tenant matching service.

The simulator and CAMA machine under :mod:`repro.sim` / :mod:`repro.core`
are one-shot: compile an automaton, run one complete byte string, throw
the compiled object away.  This package turns them into a *service* the
way hardware automata processors are deployed: compiled rulesets are
long-lived cached assets, inputs are unbounded resumable streams, and a
large ruleset is a set of independent shards that scale out.

Architecture (bottom-up)::

    repro.sim.engine.EngineState      resumable snapshot: active states +
      Engine.run_chunk                stream position; START_OF_DATA means
      CamaMachine.run_chunk           start of *stream*, never chunk 2+

    ruleset.RulesetManager            fingerprint (language content, not
                                      names) -> LRU of compiled Engines,
                                      with an optional persistent second
                                      level of serialized artifacts
                                      (repro.compile: warm restarts load
                                      instead of recompiling)

    sharding.Dispatcher               connected-component shards, balanced
                                      by state count; serial or
                                      multiprocessing fan-out per stream

    merge                             sequential (chunk-after-chunk) and
                                      parallel (shard) result merging,
                                      remapping shard-local state ids

    session.Session                   one named stream's snapshot; feed()
                                      chunks as they arrive

    batching.BatchScheduler           cross-stream coalescing: pending
                                      feeds sharing a dispatcher flush as
                                      one vectorized step_batch over a
                                      struct-of-arrays state matrix
                                      (rows_full / max_delay / drain)

    service.MatchingService           the facade: cache + dispatchers +
                                      sessions + scan / scan_many (two or
                                      more streams advance in lock-step
                                      batched kernel calls)

    protocol / server / client        the network face: newline-delimited
                                      JSON frames over TCP; an asyncio
                                      MatchingServer with per-connection
                                      backpressure, graceful drain, and
                                      precompiled-artifact upload
                                      (register_artifact), plus sync +
                                      asyncio clients

Execution is backend-pluggable (:mod:`repro.sim.backends`): the service
defaults to the ``auto`` policy, which picks the sparse or bit-parallel
kernel per shard from size and estimated activity; pass
``ScanConfig(backend="sparse")`` (or ``"bitparallel"``) to pin one.

Configuration is one typed object — :class:`repro.api.ScanConfig` —
consumed by the service, dispatcher, session, server protocol and CLI
alike; it is the only way to configure them.

Quick use::

    from repro.api import ScanConfig
    from repro.service import MatchingService

    service = MatchingService(ScanConfig(num_shards=4))
    result = service.scan(automaton, data)          # one-shot, cached
    session = service.open_session(automaton, "tenant-a")
    session.feed(chunk1); session.feed(chunk2)      # resumable stream
    results = service.scan_many(automaton, {"a": data_a, "b": data_b})

(:class:`repro.api.Ruleset` wraps all of this behind one fluent
facade; prefer it in application code.)

Chunked, sharded, and cached execution all reproduce the one-shot
``Engine.run`` report stream byte-for-byte; the equivalence tests in
``tests/test_service.py`` assert this across every registry benchmark.
"""

from repro.service.batching import BatchScheduler, feed_session_batch
from repro.service.client import (
    AsyncMatchingClient,
    MatchingClient,
    RemoteError,
    RemoteScanResult,
    RetryPolicy,
)
from repro.service.merge import (
    accumulate_stats,
    merge_shard_reports,
    merge_shard_results,
    merge_shard_stats,
)
from repro.service.protocol import (
    DEFAULT_MAX_FRAME_BYTES,
    DEFAULT_MAX_INFLIGHT,
    PROTOCOL_VERSION,
    ProtocolError,
)
from repro.service.ruleset import (
    DEFAULT_CACHE_CAPACITY,
    CacheStats,
    RulesetManager,
    ruleset_fingerprint,
)
from repro.service.server import BackgroundServer, MatchingServer, run_server
from repro.service.service import MatchingService, ServiceResult
from repro.service.session import Session
from repro.service.sharding import (
    DEFAULT_CHUNK_SIZE,
    Dispatcher,
    Shard,
    chunked_scan,
    iter_chunks,
    make_shards,
)

__all__ = [
    "AsyncMatchingClient",
    "BackgroundServer",
    "BatchScheduler",
    "CacheStats",
    "DEFAULT_CACHE_CAPACITY",
    "DEFAULT_CHUNK_SIZE",
    "DEFAULT_MAX_FRAME_BYTES",
    "DEFAULT_MAX_INFLIGHT",
    "Dispatcher",
    "MatchingClient",
    "MatchingServer",
    "MatchingService",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "RemoteError",
    "RemoteScanResult",
    "RetryPolicy",
    "RulesetManager",
    "ServiceResult",
    "Session",
    "Shard",
    "accumulate_stats",
    "chunked_scan",
    "feed_session_batch",
    "iter_chunks",
    "make_shards",
    "merge_shard_reports",
    "merge_shard_results",
    "merge_shard_stats",
    "ruleset_fingerprint",
    "run_server",
]
