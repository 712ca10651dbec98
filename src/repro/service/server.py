"""Asyncio network front end for :class:`~repro.service.service.MatchingService`.

:class:`MatchingServer` exposes the full service surface — ruleset
registration, one-shot ``scan`` / ``scan_many``, named resumable
sessions, and service statistics — over TCP as newline-delimited JSON
frames (:mod:`repro.service.protocol`).  It is the deployment shape the
paper motivates: one shared accelerator (here, the compiled-ruleset
cache plus sharded backends) serving many remote tenants.

Concurrency model:

* the event loop only frames, parses and routes; all matching work runs
  on a thread pool (``run_in_executor``), so shard fan-out and the
  sparse/bit-parallel kernels never block the loop;
* frames of one connection execute strictly in order (chunk N+1 of a
  session cannot start before chunk N finishes), while different
  connections proceed in parallel;
* each connection owns a bounded in-flight queue; when a client pipelines
  more frames than ``max_inflight``, the server stops reading its socket
  until work drains — ordinary TCP backpressure, no unbounded buffering;
* :meth:`drain` (or a client ``shutdown`` frame) stops accepting new
  connections, lets every queued frame finish and flushes its response,
  then closes the connections.

Sessions opened over the network are scoped to their connection: two
clients may both open a session called ``"s"``, and a dropped
connection closes its own sessions only.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import itertools
import threading
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from repro.api.config import ScanConfig
from repro.automata.glushkov import compile_regex_set
from repro.automata.mnrl import loads_mnrl
from repro.errors import ConfigError, ReproError, SimulationError
from repro.service.protocol import (
    DEFAULT_MAX_FRAME_BYTES,
    DEFAULT_MAX_INFLIGHT,
    PROTOCOL_VERSION,
    ProtocolError,
    decode_data,
    decode_frame,
    encode_frame,
    encode_reports,
    error_frame,
    ok_frame,
    ruleset_update_from_frame,
    scan_config_from_frame,
)
from repro.service.service import MatchingService
from repro.telemetry.log import get_logger
from repro.telemetry.metrics import default_registry, render_prometheus

#: ops that touch the service (payloads, compiles, or its lock) and so
#: always run on the thread pool, never on the event loop
_HEAVY_OPS = frozenset(
    {
        "register",
        "register_artifact",
        "update",
        "scan",
        "scan_many",
        "open",
        "feed",
        "close",
    }
)

_log = get_logger("repro.service.server")

_REGISTRY = default_registry()
_REQUESTS = _REGISTRY.counter(
    "repro_server_requests_total",
    "Protocol frames handled, by op and outcome (ok | error code)",
    ("op", "outcome"),
)
_REQUEST_SECONDS = _REGISTRY.histogram(
    "repro_server_request_seconds",
    "Frame turnaround (decode to response built), by op",
    ("op",),
)
_INFLIGHT = _REGISTRY.gauge(
    "repro_server_inflight_frames",
    "Frames read off sockets but not yet responded to (queue depth)",
)
_CONNECTIONS_ACTIVE = _REGISTRY.gauge(
    "repro_server_connections_active",
    "Currently open client connections",
)
_CONNECTIONS_TOTAL = _REGISTRY.counter(
    "repro_server_connections_total",
    "Client connections accepted over the server's lifetime",
)

#: queue marker for an oversized frame (the line itself was unrecoverable)
_OVERSIZED = object()


def _truncation_message(what: str, cap: int) -> str:
    return (
        f"{what} hit the kept-reports cap ({cap}); further reports are "
        f"counted but not recorded"
    )


@dataclass
class _ServerSession:
    """One network session: the service session plus its frame policy."""

    name: str
    internal: str
    on_truncation: str
    max_reports: int
    warned: bool = False
    #: when True, every feed response carries the serialized per-shard
    #: engine states (the cluster router's failover checkpoint)
    checkpoint: bool = False


@dataclass
class _Connection:
    """Per-connection bookkeeping."""

    conn_id: int
    queue: asyncio.Queue
    sessions: dict[str, _ServerSession] = field(default_factory=dict)
    closing: bool = False


@dataclass
class _BackendStats:
    """Aggregate scan traffic attributed to one resolved backend mix."""

    scans: int = 0
    bytes: int = 0
    elapsed_s: float = 0.0

    @property
    def throughput_mbps(self) -> float:
        if self.elapsed_s <= 0.0:
            return 0.0
        return self.bytes / self.elapsed_s / 1e6


class MatchingServer:
    """Serve a :class:`MatchingService` over TCP (NDJSON frames).

    Args:
        service: the service to expose; one is built from ``config``
            when omitted.
        config: the :class:`~repro.api.config.ScanConfig` for the
            service built when ``service`` is omitted.
        host, port: bind address (``port=0`` picks a free port; read the
            bound one from :attr:`port` after :meth:`start`).
        max_frame_bytes: reject request lines longer than this and
            replace over-long responses with an error frame.
        max_inflight: per-connection bound on parsed-but-unprocessed
            frames; the socket is not read past it.
        executor_workers: thread-pool size for matching work.
        allow_shutdown: honour the ``shutdown`` frame (handy for tests
            and benchmarks; disable for long-lived deployments).
    """

    def __init__(
        self,
        service: MatchingService | None = None,
        *,
        config: ScanConfig | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
        max_inflight: int = DEFAULT_MAX_INFLIGHT,
        executor_workers: int = 4,
        allow_shutdown: bool = True,
    ) -> None:
        if max_frame_bytes < 1024:
            raise ConfigError("max_frame_bytes must be >= 1024")
        if max_inflight < 1:
            raise ConfigError("max_inflight must be >= 1")
        if service is None:
            service = MatchingService(
                config if config is not None else ScanConfig()
            )
        elif config is not None:
            raise ConfigError(
                "pass either a prebuilt service or a config, not both"
            )
        self.service = service
        # wire semantics: a frame that names no truncation policy warns,
        # independent of the service's own scan policy (the client gets
        # the warning and decides); per-frame options merge onto this
        self._frame_base = service.config.replace(on_truncation="warn")
        self.host = host
        self._requested_port = port
        self.max_frame_bytes = max_frame_bytes
        self.max_inflight = max_inflight
        self.allow_shutdown = allow_shutdown
        self._executor = ThreadPoolExecutor(
            max_workers=executor_workers, thread_name_prefix="repro-serve"
        )
        self._server: asyncio.base_events.Server | None = None
        self._conn_ids = itertools.count(1)
        self._conn_tasks: set[asyncio.Task] = set()
        self._drain_event: asyncio.Event | None = None
        self._stopped = asyncio.Event()
        # registered automata, LRU-bounded alongside the service's
        # compiled-artifact caches (an evicted handle just re-registers)
        self._rulesets: OrderedDict[str, object] = OrderedDict()
        self._frames_processed = 0
        self._connections_total = 0
        self._connections_active = 0
        self._inflight = 0
        self._started_monotonic = time.monotonic()
        self._backend_stats: dict[str, _BackendStats] = {}
        # ops run on executor threads; guard their shared mutable state
        self._state_lock = threading.Lock()
        # cross-connection feed coalescing (created in start(); None
        # when ScanConfig.batch_max_rows disables batching)
        self._batcher = None

    # -- lifecycle --------------------------------------------------------
    @property
    def port(self) -> int:
        """The bound TCP port (only valid after :meth:`start`)."""
        if self._server is None:
            raise SimulationError("server is not started")
        return self._server.sockets[0].getsockname()[1]

    @property
    def address(self) -> tuple[str, int]:
        return (self.host, self.port)

    async def start(self) -> None:
        """Bind and start accepting connections."""
        if self._server is not None:
            raise SimulationError("server is already started")
        self._drain_event = asyncio.Event()
        cfg = self.service.config
        if cfg.batch_max_rows > 1:
            from repro.service.batching import BatchScheduler

            # feeds from concurrent connections against the same ruleset
            # coalesce into batched kernel steps; per-connection ordering
            # is untouched (one in-flight frame per connection)
            self._batcher = BatchScheduler(
                self._executor,
                max_rows=cfg.batch_max_rows,
                max_delay_s=cfg.batch_max_delay_ms / 1000.0,
            )
        self._server = await asyncio.start_server(
            self._handle_connection,
            self.host,
            self._requested_port,
            limit=self.max_frame_bytes,
        )

    async def serve_forever(self) -> None:
        """Run until :meth:`stop` (or a client ``shutdown`` frame)."""
        if self._server is None:
            await self.start()
        await self._stopped.wait()

    async def drain(self) -> None:
        """Graceful shutdown: stop accepting, finish queued work, close.

        Every frame already read from a socket is processed and its
        response flushed before the connection closes; nothing new is
        read or accepted.
        """
        if self._server is None:
            return
        _log.info(
            "server.draining", connections=self._connections_active
        )
        self._drain_event.set()
        if self._batcher is not None:
            # close, not just flush: feeds racing in behind the drain
            # (frames already read off a socket) must flush immediately
            # instead of parking on a delay timer nothing will service
            self._batcher.close()
        self._server.close()
        await self._server.wait_closed()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)
        self._stopped.set()

    async def stop(self) -> None:
        """Drain, then release the executor and the service's pools."""
        await self.drain()
        self._executor.shutdown(wait=True)
        self.service.close()

    # -- connection handling ----------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        conn = _Connection(
            conn_id=next(self._conn_ids),
            queue=asyncio.Queue(maxsize=self.max_inflight),
        )
        task = asyncio.current_task()
        self._conn_tasks.add(task)
        self._connections_total += 1
        self._connections_active += 1
        _CONNECTIONS_TOTAL.labels().inc()
        _CONNECTIONS_ACTIVE.labels().inc()
        peer = writer.get_extra_info("peername")
        _log.debug(
            "connection.open", conn_id=conn.conn_id, peer=str(peer)
        )
        processor = asyncio.create_task(self._process_frames(conn, writer))
        drain_wait = asyncio.ensure_future(self._drain_event.wait())
        try:
            while True:
                read = asyncio.ensure_future(reader.readline())
                done, _ = await asyncio.wait(
                    {read, drain_wait}, return_when=asyncio.FIRST_COMPLETED
                )
                if read not in done:
                    read.cancel()
                    break
                try:
                    line = read.result()
                except (asyncio.LimitOverrunError, ValueError):
                    # the line exceeded max_frame_bytes; the stream can no
                    # longer be framed, so reject and stop reading
                    _log.warning(
                        "connection.frame_too_large",
                        conn_id=conn.conn_id,
                        limit=self.max_frame_bytes,
                    )
                    await conn.queue.put(_OVERSIZED)
                    break
                except (ConnectionError, OSError) as exc:
                    _log.debug(
                        "connection.reset",
                        conn_id=conn.conn_id,
                        error=str(exc),
                    )
                    break  # client reset the connection
                if not line:
                    break  # EOF
                if line.strip():
                    await conn.queue.put(line)
                    self._inflight += 1
                    _INFLIGHT.labels().inc()
        finally:
            drain_wait.cancel()
            # the processor consumes until this sentinel even after a
            # write failure, so the put can never wedge on a full queue
            await conn.queue.put(None)
            await processor
            self._close_connection_sessions(conn)
            self._connections_active -= 1
            _CONNECTIONS_ACTIVE.labels().dec()
            _log.debug("connection.close", conn_id=conn.conn_id)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            self._conn_tasks.discard(task)

    async def _process_frames(
        self, conn: _Connection, writer: asyncio.StreamWriter
    ) -> None:
        """Execute one connection's frames strictly in order.

        Never exits before the reader's ``None`` sentinel: a dead peer
        (write failure) or a fatal protocol error switches to discard
        mode instead of returning, so the reader can always complete
        its (bounded, possibly full) queue handoff and reach its own
        cleanup — a blocked ``queue.put`` with no consumer would hang
        the connection task, and with it :meth:`drain`, forever.
        """
        discarding = False
        while True:
            item = await conn.queue.get()
            if item is None:
                return
            if item is not _OVERSIZED:
                self._inflight -= 1
                _INFLIGHT.labels().dec()
            if discarding:
                continue
            if item is _OVERSIZED:
                response = error_frame(
                    None,
                    f"frame exceeds max_frame_bytes ({self.max_frame_bytes})",
                    "frame-too-large",
                )
                conn.closing = True
            else:
                response = await self._respond(conn, item)
            self._frames_processed += 1
            payload = encode_frame(response)
            if len(payload) > self.max_frame_bytes:
                payload = encode_frame(
                    error_frame(
                        response.get("id"),
                        f"response exceeds max_frame_bytes "
                        f"({self.max_frame_bytes}); lower max_reports or "
                        f"use smaller chunks",
                        "frame-too-large",
                    )
                )
            try:
                writer.write(payload)
                await writer.drain()
            except (ConnectionError, OSError) as exc:
                _log.debug(
                    "connection.write_failed",
                    conn_id=conn.conn_id,
                    error=str(exc),
                )
                discarding = True
                continue
            if conn.closing:
                discarding = True

    async def _respond(self, conn: _Connection, line: bytes) -> dict:
        """Turn one raw request line into its response frame."""
        request_id = None
        op = "unknown"
        start = time.perf_counter()
        try:
            frame = decode_frame(line)
            request_id = frame.get("id")
            raw_op = frame.get("op")
            if not isinstance(raw_op, str):
                raise ProtocolError("frame has no 'op' field", code="bad-request")
            op = raw_op
            handler = getattr(self, f"_op_{op.replace('-', '_')}", None)
            if handler is None:
                raise ProtocolError(f"unknown op {op!r}", code="unknown-op")
            if op == "feed" and self._batcher is not None:
                # batched feeds park on the scheduler (event-loop side)
                # until their group flushes to the executor as one
                # batched kernel step
                payload = await self._op_feed_batched(conn, frame)
            elif op in _HEAVY_OPS:
                loop = asyncio.get_running_loop()
                payload = await loop.run_in_executor(
                    self._executor, handler, conn, frame
                )
            else:
                payload = handler(conn, frame)
            response = ok_frame(request_id, **payload)
            outcome = "ok"
        except ProtocolError as exc:
            _log.info(
                "request.rejected",
                conn_id=conn.conn_id,
                op=op,
                code=exc.code,
                error=str(exc),
            )
            response, outcome = error_frame(request_id, str(exc), exc.code), exc.code
        except ReproError as exc:
            _log.info(
                "request.rejected",
                conn_id=conn.conn_id,
                op=op,
                code="bad-request",
                error=str(exc),
            )
            response, outcome = error_frame(request_id, str(exc), "bad-request"), "bad-request"
        except Exception as exc:  # noqa: BLE001 — a handler bug must not
            # kill the connection; report it to the client instead
            _log.error(
                "request.internal_error",
                conn_id=conn.conn_id,
                op=op,
                error=f"{type(exc).__name__}: {exc}",
            )
            response = error_frame(
                request_id, f"{type(exc).__name__}: {exc}", "internal"
            )
            outcome = "internal"
        _REQUESTS.labels(op, outcome).inc()
        _REQUEST_SECONDS.labels(op).observe(time.perf_counter() - start)
        return response

    # -- shared op plumbing ----------------------------------------------
    def _automaton_for(self, frame: dict):
        handle = frame.get("handle")
        if not isinstance(handle, str):
            raise ProtocolError("request has no 'handle'", code="bad-request")
        with self._state_lock:
            automaton = self._rulesets.get(handle)
            if automaton is not None:
                self._rulesets.move_to_end(handle)
        if automaton is None:
            raise ProtocolError(
                f"unknown ruleset handle {handle!r}; register it first "
                f"(or re-register: handles are LRU-bounded)",
                code="unknown-handle",
            )
        return automaton

    def _scan_config(self, frame: dict) -> tuple:
        """The request's effective scan config (see
        :func:`~repro.service.protocol.scan_config_from_frame`); the
        typed config object is the single validation surface for loose
        frame fields and ``config`` objects alike."""
        return scan_config_from_frame(frame, self._frame_base)

    def _record_backend_traffic(self, result) -> None:
        key = "+".join(sorted(set(result.backends))) or "unresolved"
        with self._state_lock:
            stats = self._backend_stats.setdefault(key, _BackendStats())
            stats.scans += 1
            stats.bytes += result.bytes_scanned
            stats.elapsed_s += result.elapsed_s

    def _scan_payload(
        self, result, *, explicit_cap: bool, on_truncation: str, cap: int
    ) -> dict:
        """Serialize one ServiceResult, applying the frame-level policy.

        Matches engine-level semantics: an *explicit* per-request cap is
        intentional and silent; hitting the service default cap warns
        (a ``warnings`` entry the client re-raises) or errors.
        """
        self._record_backend_traffic(result)
        warnings_out: list[str] = []
        if result.truncated and not explicit_cap:
            message = _truncation_message("scan", cap)
            if on_truncation == "error":
                raise ProtocolError(message, code="truncated")
            if on_truncation == "warn":
                warnings_out.append(message)
        payload = {
            "reports": encode_reports(result.reports),
            "num_reports": result.num_reports,
            "truncated": result.truncated,
            "bytes": result.bytes_scanned,
            "elapsed_s": result.elapsed_s,
            "backends": result.backends,
            "cached": result.cached,
            "warnings": warnings_out,
        }
        if result.ledger is not None:
            payload["ledger"] = result.ledger.to_dict()
        if result.trace is not None:
            payload["trace_id"] = result.trace_id
        return payload

    # -- ops ---------------------------------------------------------------
    def _op_ping(self, conn: _Connection, frame: dict) -> dict:
        return {"pong": True, "version": PROTOCOL_VERSION}

    def _op_health(self, conn: _Connection, frame: dict) -> dict:
        """Liveness + inventory in one light frame (no matching work).

        What a router (or any load balancer / monitor) polls: whether
        the server is draining, how long it has been up, what rulesets
        and versions it holds, and how much work is in flight right
        now.  Runs on the event loop — it must answer even when every
        executor thread is busy scanning.
        """
        draining = self._drain_event.is_set() if self._drain_event else False
        with self._state_lock:
            num_rulesets = len(self._rulesets)
        return {
            "status": "draining" if draining else "ok",
            "uptime_s": round(time.monotonic() - self._started_monotonic, 3),
            "version": PROTOCOL_VERSION,
            "rulesets": num_rulesets,
            "ruleset_versions": self.service.version_summary(),
            "open_sessions": len(self.service.sessions),
            "inflight": self._inflight,
            "connections": self._connections_active,
        }

    def _op_register(self, conn: _Connection, frame: dict) -> dict:
        kind = frame.get("kind", "regex")
        if kind == "regex":
            rules = frame.get("rules")
            if not isinstance(rules, (dict, list)) or not rules:
                raise ProtocolError(
                    "register kind 'regex' needs a non-empty 'rules' "
                    "dict or list",
                    code="bad-request",
                )
            automaton = compile_regex_set(
                rules, name=str(frame.get("name", "remote"))
            )
        elif kind == "mnrl":
            text = frame.get("text")
            if not isinstance(text, str):
                raise ProtocolError(
                    "register kind 'mnrl' needs a 'text' document",
                    code="bad-request",
                )
            automaton = loads_mnrl(text, name=str(frame.get("name", "remote")))
        else:
            raise ProtocolError(
                f"unknown ruleset kind {kind!r} (expected 'regex' or 'mnrl')",
                code="bad-request",
            )
        handle = self.service.manager.fingerprint(automaton)
        cached = self._remember_ruleset(handle, automaton)
        # compile (and cache) the shard engines now: registration is the
        # expensive step, scans against the handle stay warm.  Versioned
        # registration also writes per-component artifacts, so a later
        # ``update`` reuses every untouched component.
        record = self.service.register_ruleset(automaton, key=handle)
        return {
            "handle": handle,
            "states": len(automaton),
            "cached": cached,
            "version": record.version,
            "fingerprint": record.fingerprint,
        }

    def _remember_ruleset(self, handle: str, automaton) -> bool:
        """Insert into the LRU-bounded handle table; True when it was
        already registered."""
        with self._state_lock:
            cached = handle in self._rulesets
            self._rulesets[handle] = automaton
            self._rulesets.move_to_end(handle)
            if len(self._rulesets) > self.service.manager.capacity:
                self._rulesets.popitem(last=False)
        return cached

    def preload_ruleset(self, automaton) -> str:
        """Register ``automaton`` server-side, before any client asks.

        The deployment-shape primitive behind ``repro.api``'s
        ``handle.serve()``: the ruleset compiles (and its handle
        registers) at startup, so the first remote ``scan`` against the
        returned handle is already warm.  Returns the handle — the same
        fingerprint a client-side ``register`` of the same rules yields.
        """
        handle = self.service.manager.fingerprint(automaton)
        self._remember_ruleset(handle, automaton)
        self.service.register_ruleset(automaton, key=handle)
        return handle

    def _op_register_artifact(self, conn: _Connection, frame: dict) -> dict:
        """Adopt a client-side precompiled ruleset ("compile once, load
        anywhere"): the artifact's prebuilt tables seed the service
        cache, so registration skips the compile the ``register`` op
        would have paid."""
        from repro.compile.artifact import CompiledArtifact
        from repro.errors import ArtifactError

        data = decode_data(frame.get("data", ""))
        if not data:
            raise ProtocolError(
                "register_artifact needs 'data' (base64 .npz artifact)",
                code="bad-request",
            )
        try:
            artifact = CompiledArtifact.from_bytes(data)
            handle, automaton = self.service.register_artifact(artifact)
        except ArtifactError as exc:
            raise ProtocolError(str(exc), code="bad-artifact") from exc
        cached = self._remember_ruleset(handle, automaton)
        # build the sharded dispatcher now (hits the seeded engine when
        # the shard shape lines up), so scans stay warm
        self.service.dispatcher(automaton, key=handle)
        return {"handle": handle, "states": len(automaton), "cached": cached}

    def _op_update(self, conn: _Connection, frame: dict) -> dict:
        """Hot-swap a registered ruleset to a new version, zero downtime.

        The handle keeps naming the lineage: this op rebinds it to the
        updated automaton, so scans and sessions opened afterwards see
        the new version, while sessions already open keep streaming
        against the version they opened with (the service retires it
        when its last session closes).  Compilation goes through the
        incremental path — only the added patterns' components compile;
        everything untouched is reused from cache.
        """
        handle = frame.get("handle")
        automaton = self._automaton_for(frame)
        add, remove = ruleset_update_from_frame(frame)
        record = self.service.update_ruleset(
            automaton, add=add, remove=remove
        )
        with self._state_lock:
            # rebind only if the handle still maps to what we updated
            # from (a concurrent re-register may have replaced it)
            if self._rulesets.get(handle) is automaton:
                self._rulesets[handle] = record.automaton
        return {
            "handle": handle,
            "version": record.version,
            "fingerprint": record.fingerprint,
            "states": len(record.automaton),
            "reused_components": record.reused_components,
            "compiled_components": record.compiled_components,
        }

    def _op_scan(self, conn: _Connection, frame: dict) -> dict:
        automaton = self._automaton_for(frame)
        data = decode_data(frame.get("data", ""))
        cfg, explicit_cap, digest = self._scan_config(frame)
        result = self.service.scan(
            automaton,
            data,
            chunk_size=cfg.chunk_size,
            max_reports=cfg.max_reports,
            on_truncation="ignore",
            hardware_ledger=cfg.hardware_ledger,
            ledger_design=cfg.ledger_design,
            trace=cfg.trace,
        )
        payload = self._scan_payload(
            result,
            explicit_cap=explicit_cap,
            on_truncation=cfg.on_truncation,
            cap=cfg.max_reports,
        )
        if digest is not None:
            payload["config_digest"] = digest
        return payload

    def _op_scan_many(self, conn: _Connection, frame: dict) -> dict:
        automaton = self._automaton_for(frame)
        streams = frame.get("streams")
        if not isinstance(streams, dict):
            raise ProtocolError(
                "scan_many needs a 'streams' dict of name -> base64 data",
                code="bad-request",
            )
        cfg, explicit_cap, digest = self._scan_config(frame)
        decoded = {str(name): decode_data(data) for name, data in streams.items()}
        results = self.service.scan_many(
            automaton,
            decoded,
            chunk_size=cfg.chunk_size,
            max_reports=cfg.max_reports,
            on_truncation="ignore",
            hardware_ledger=cfg.hardware_ledger,
            ledger_design=cfg.ledger_design,
            trace=cfg.trace,
        )
        payload = {
            "results": {
                name: self._scan_payload(
                    result,
                    explicit_cap=explicit_cap,
                    on_truncation=cfg.on_truncation,
                    cap=cfg.max_reports,
                )
                for name, result in results.items()
            }
        }
        if digest is not None:
            payload["config_digest"] = digest
        return payload

    def _op_open(self, conn: _Connection, frame: dict) -> dict:
        automaton = self._automaton_for(frame)
        name = frame.get("session")
        if not isinstance(name, str) or not name:
            raise ProtocolError(
                "open needs a non-empty 'session' name", code="bad-request"
            )
        if name in conn.sessions:
            raise ProtocolError(
                f"session {name!r} is already open on this connection",
                code="bad-request",
            )
        cfg, _, digest = self._scan_config(frame)
        internal = f"conn{conn.conn_id}/{name}"
        # policy is applied at the frame level (below); the underlying
        # session must not warn inside a worker thread
        session = self.service.open_session(
            automaton,
            internal,
            max_reports=cfg.max_reports,
            on_truncation="ignore",
            hardware_ledger=cfg.hardware_ledger,
            ledger_design=cfg.ledger_design,
        )
        state = frame.get("state")
        if state is not None:
            # failover handoff: adopt a checkpointed snapshot taken on
            # another node, so this stream resumes at the snapshot's
            # absolute position (only a fresh session may restore)
            if not isinstance(state, list):
                self.service.close_session(internal)
                raise ProtocolError(
                    "open 'state' must be a list of per-shard engine "
                    "state objects",
                    code="bad-request",
                )
            try:
                session.restore(state)
            except ReproError as exc:
                self.service.close_session(internal)
                raise ProtocolError(str(exc), code="bad-request") from exc
        conn.sessions[name] = _ServerSession(
            name=name,
            internal=internal,
            on_truncation=cfg.on_truncation,
            max_reports=session.config.max_reports,
            checkpoint=bool(frame.get("checkpoint")),
        )
        payload = {"session": name, "position": session.position}
        if session.ruleset_version is not None:
            payload["version"] = session.ruleset_version
        if digest is not None:
            payload["config_digest"] = digest
        return payload

    def _session_for(self, conn: _Connection, frame: dict) -> _ServerSession:
        name = frame.get("session")
        if not isinstance(name, str):
            raise ProtocolError("request has no 'session'", code="bad-request")
        record = conn.sessions.get(name)
        if record is None:
            raise ProtocolError(
                f"unknown session {name!r} on this connection",
                code="unknown-session",
            )
        return record

    def _op_feed(self, conn: _Connection, frame: dict) -> dict:
        record = self._session_for(conn, frame)
        data = decode_data(frame.get("data", ""))
        session = self.service.sessions[record.internal]
        return self._feed_payload(record, session, session.feed(data))

    async def _op_feed_batched(self, conn: _Connection, frame: dict) -> dict:
        """The batched ``feed`` path: park the chunk on the scheduler.

        Identical wire behaviour to :meth:`_op_feed` — same payload,
        same truncation policy — but the kernel step may advance many
        sessions at once when other connections feed concurrently.
        """
        record = self._session_for(conn, frame)
        data = decode_data(frame.get("data", ""))
        session = self.service.sessions[record.internal]
        reports = await self._batcher.submit(session.dispatcher, session, data)
        return self._feed_payload(record, session, reports)

    def _feed_payload(self, record, session, reports) -> dict:
        """Serialize one feed's outcome, applying the frame-level policy."""
        warnings_out: list[str] = []
        if session.truncated and not record.warned:
            record.warned = True
            message = _truncation_message(
                f"session {record.name!r}", record.max_reports
            )
            if record.on_truncation == "error":
                raise ProtocolError(message, code="truncated")
            if record.on_truncation == "warn":
                warnings_out.append(message)
        payload = {
            "reports": encode_reports(reports),
            "position": session.position,
            "truncated": session.truncated,
            "warnings": warnings_out,
        }
        if record.checkpoint:
            # the serialized per-shard engine states *after* this chunk:
            # whoever holds this response can resume the stream from
            # here on any node with the same ruleset (open with state=)
            payload["state"] = [s.to_dict() for s in session.shard_states]
        ledger = session.ledger()
        if ledger is not None:
            payload["ledger"] = ledger.to_dict()
        return payload

    def _op_close(self, conn: _Connection, frame: dict) -> dict:
        record = self._session_for(conn, frame)
        session = self.service.sessions.get(record.internal)
        ledger = session.ledger() if session is not None else None
        result = self.service.close_session(record.internal)
        del conn.sessions[record.name]
        payload = {
            "num_reports": result.num_reports,
            "cycles": result.stats.num_cycles,
            "truncated": result.truncated,
        }
        if ledger is not None:
            payload["ledger"] = ledger.to_dict()
        return payload

    def _op_stats(self, conn: _Connection, frame: dict) -> dict:
        cache = self.service.cache_stats
        with self._state_lock:
            backend_stats = {
                name: {
                    "scans": stats.scans,
                    "bytes": stats.bytes,
                    "elapsed_s": stats.elapsed_s,
                    "throughput_mbps": stats.throughput_mbps,
                }
                for name, stats in self._backend_stats.items()
            }
            num_rulesets = len(self._rulesets)
        payload = {
            #: stats-frame schema version (2: adds ``stats_version``,
            #: ``ledger`` totals and the ``telemetry`` block; absent
            #: means v1)
            "stats_version": 2,
            "cache": {
                "hits": cache.hits,
                "misses": cache.misses,
                "evictions": cache.evictions,
                "hit_rate": cache.hit_rate,
            },
            "active_sessions": len(self.service.sessions),
            "connections": {
                "active": self._connections_active,
                "total": self._connections_total,
            },
            "frames": self._frames_processed,
            "rulesets": num_rulesets,
            "ruleset_versions": self.service.version_summary(),
            "backends": backend_stats,
            "telemetry": {
                "metrics_enabled": _REGISTRY.enabled,
                "hardware_ledger": self.service.config.hardware_ledger,
            },
            "batching": self._batcher.stats()
            if self._batcher is not None
            else {"enabled": False},
            "draining": self._drain_event.is_set()
            if self._drain_event
            else False,
        }
        totals = self.service.ledger_totals
        if totals is not None:
            with self.service._lock:
                payload["ledger"] = totals.to_dict()
        return payload

    def _op_metrics(self, conn: _Connection, frame: dict) -> dict:
        """The process-wide metrics registry in the Prometheus text
        exposition format (a light op: snapshotting the registry takes
        one lock, never the service's)."""
        return {
            "content_type": "text/plain; version=0.0.4",
            "metrics": render_prometheus(),
        }

    def _op_shutdown(self, conn: _Connection, frame: dict) -> dict:
        if not self.allow_shutdown:
            raise ProtocolError(
                "remote shutdown is disabled on this server", code="bad-request"
            )
        # shutdown is a light op, so this runs on the event loop; the
        # drain task starts only after this frame's response is written
        asyncio.create_task(self.drain())
        return {"draining": True}

    def _close_connection_sessions(self, conn: _Connection) -> None:
        """Release a dropped connection's sessions (results discarded)."""
        for record in conn.sessions.values():
            try:
                self.service.close_session(record.internal)
            except ReproError as exc:
                _log.warning(
                    "session.close_failed",
                    conn_id=conn.conn_id,
                    session=record.name,
                    error=str(exc),
                )
        conn.sessions.clear()


class BackgroundServer:
    """A :class:`MatchingServer` on a daemon thread with its own loop.

    The in-process deployment shape tests, benchmarks and examples use:
    start it, talk to it over real TCP from any thread, stop it.  Extra
    keyword arguments build the server when one is not passed in.

    ::

        with BackgroundServer(config=ScanConfig(num_shards=4)) as bg:
            client = MatchingClient(port=bg.port)
    """

    def __init__(self, server: MatchingServer | None = None, **kwargs) -> None:
        self.server = server if server is not None else MatchingServer(**kwargs)
        self.loop: asyncio.AbstractEventLoop | None = None
        self.port: int | None = None
        self._ready = threading.Event()
        self._startup_error: BaseException | None = None
        self._thread: threading.Thread | None = None

    def _run(self) -> None:
        async def main() -> None:
            try:
                await self.server.start()
                self.loop = asyncio.get_running_loop()
                self.port = self.server.port
            except BaseException as exc:  # surface bind errors to start()
                self._startup_error = exc
                return
            finally:
                self._ready.set()
            try:
                await self.server.serve_forever()
            finally:
                await self.server.stop()

        asyncio.run(main())

    def start(self) -> "BackgroundServer":
        if self._thread is not None:
            raise SimulationError("background server is already started")
        self._thread = threading.Thread(
            target=self._run, name="repro-server", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout=10):
            raise SimulationError("background server did not start in time")
        if self._startup_error is not None:
            raise self._startup_error
        return self

    def stop(self, timeout: float = 10.0) -> None:
        """Drain and stop; no-op when already stopped (e.g. by a client
        ``shutdown`` frame)."""
        if self._thread is None:
            return
        if self.loop is not None and self._thread.is_alive():
            try:
                future = asyncio.run_coroutine_threadsafe(
                    self.server.stop(), self.loop
                )
                future.result(timeout)
            except (
                RuntimeError,
                asyncio.CancelledError,
                concurrent.futures.CancelledError,
                concurrent.futures.TimeoutError,
            ):
                pass  # the loop already wound down (e.g. client shutdown)
        self._thread.join(timeout)
        if self._thread.is_alive():
            raise SimulationError("background server did not stop in time")

    def __enter__(self) -> "BackgroundServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()


def run_server(server: MatchingServer) -> None:
    """Blocking convenience wrapper: start and serve until shutdown.

    Installs the JSON-lines log handler when the host application has
    not configured the ``repro`` logger tree itself, so the listening
    address (and every connection/request event) is observable.
    """
    import logging

    from repro.telemetry.log import configure as _configure_logging

    if not logging.getLogger("repro").handlers:
        _configure_logging()

    async def _main() -> None:
        await server.start()
        host, port = server.address
        _log.info("server.listening", host=host, port=port)
        try:
            await server.serve_forever()
        finally:
            await server.stop()

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        pass
