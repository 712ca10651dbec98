"""The three workloads: cold set-up, the untraced closed loop, the traced replay.

Every workload is a closed loop on one thread: a session's chunk N+1
is sent only after chunk N answered, and the next scan only after the
last one returned.  In-process workloads drive :mod:`repro.api`; the
wire workload drives a `repro serve` child through one
:class:`~repro.service.client.MatchingClient` connection.  No backend
is pinned anywhere.

The traced replay feeds each sampled stream, chunk by chunk from a
fresh state, through every layer's public entry point from the bottom
up (``Engine.run_chunk`` -> ``Dispatcher.run_chunk``/``scan`` ->
``Session.feed``/``MatchingService.scan`` -> wire feed to a node ->
feed through the router), checking every layer's reports against the
oracle.  A layer's self time is its median minus the median of the
layer below on identical work.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import random
import time
from collections import defaultdict

from repro.api import Ruleset, ScanConfig
from repro.automata.mnrl import loads_mnrl
from repro.cluster.fleet import NodeProcess
from repro.service.client import MatchingClient
from repro.service.protocol import decode_frame, encode_frame
from repro.service.sharding import iter_chunks
from repro.sim.backends.base import clear_csr_cache

from children import SERVE_DEFAULTS, Children, RouteProcess, peak_rss_mb
from corpus import Corpus, report_keys
from spans import median, percentile

CHUNK_BYTES = 512
#: socket timeout of every client: a hung child fails an op, not the run
CLIENT_TIMEOUT_S = 10.0
#: back-off after a failed op, so a dead child is not hammered
FAIL_PAUSE_S = 0.05
PINGS = 100

_names = itertools.count()


def unique_name(prefix: str) -> str:
    return f"{prefix}-{os.getpid()}-{next(_names)}"


class Tally:
    """Operations attempted, failed and timed."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        #: what each latency sample fed: "<stream>@<offset>"
        self.labels: list[str] = []
        self.verified_bytes = 0
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.window_s = 0.0

    def record(self, seconds: float, nbytes: int, ok: bool, label: str) -> None:
        self.attempted += 1
        self.latencies.append(seconds)
        self.labels.append(label)
        if ok:
            self.verified_bytes += nbytes
        else:
            self.failed += 1
            self._note("reports differ from the oracle")

    def fail(self, exc: BaseException) -> None:
        self.attempted += 1
        self.failed += 1
        self._note(f"{type(exc).__name__}: {exc}")

    def _note(self, message: str) -> None:
        if len(self.errors) < 20:
            self.errors.append(message)

    def absorb(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.errors.extend(other.errors[: 20 - len(self.errors)])

    @property
    def op_mbps(self) -> float:
        """Verified bytes per second of op time (not of wall time)."""
        busy = sum(self.latencies)
        return self.verified_bytes / busy / 1e6 if busy > 0 else 0.0


# -- systems under test ----------------------------------------------------
class InProcess:
    """Compiled handles served from the benchmark's own process."""

    def __init__(self, handles: list) -> None:
        self.handles = handles

    def dispatcher(self, index: int):
        handle = self.handles[index]
        return handle.service.dispatcher(handle.automaton)

    def backends(self) -> dict[str, list[str]]:
        return {
            handle.automaton.name: self.dispatcher(i).backend_names
            for i, handle in enumerate(self.handles)
        }

    def peak_rss_mb(self) -> float:
        """``VmHWM`` of this process plus its live workers (the
        dispatcher pools), read before teardown."""
        pids = [os.getpid()] + [p.pid for p in multiprocessing.active_children()]
        return sum(peak_rss_mb(pid) for pid in pids)

    def close(self) -> None:
        for handle in self.handles:
            handle.close()


class OverWire:
    """A `repro serve` child (plus a router for the replay) and the
    generator's connection to it."""

    def __init__(self, children: Children, node: NodeProcess) -> None:
        self.children = children
        self.node = node
        self.router: NodeProcess | None = None
        self.client: MatchingClient | None = None
        self.handle = ""
        self.register_s = 0.0

    def connect(self, node: NodeProcess) -> MatchingClient:
        return MatchingClient(
            node.host, node.port, timeout=CLIENT_TIMEOUT_S
        ).connect()

    def stats(self, proc: NodeProcess) -> dict:
        with self.connect(proc) as client:
            return client.stats()

    def backends(self) -> dict[str, list[str]]:
        """Backends the node resolved, from its ``stats`` op (the
        warm-up scan records them; the default is one shard)."""
        return {self.node.name: sorted(self.stats(self.node)["backends"])}

    def peak_rss_mb(self) -> float:
        return self.children.peak_rss_mb()

    def close(self) -> None:
        try:
            if self.client is not None:
                self.client.close()
        finally:
            self.children.stop()


# -- the closed loops ------------------------------------------------------
def feed_loop(open_session, streams, deadline: float, tally: Tally) -> None:
    """Feed ``streams`` in turn, 512 B at a time, until ``deadline``."""
    for stream in itertools.cycle(streams):
        if time.perf_counter() >= deadline:
            return
        try:
            session = open_session(unique_name("s"))
        except Exception as exc:  # noqa: BLE001 — a failed op, counted
            tally.fail(exc)
            time.sleep(FAIL_PAUSE_S)
            continue
        try:
            for start in range(0, len(stream.data), CHUNK_BYTES):
                if time.perf_counter() >= deadline:
                    break
                piece = stream.data[start : start + CHUNK_BYTES]
                began = time.perf_counter()
                try:
                    reports = session.feed(piece)
                except Exception as exc:  # noqa: BLE001 — a failed op
                    tally.fail(exc)
                    time.sleep(FAIL_PAUSE_S)
                    break
                elapsed = time.perf_counter() - began
                tally.record(
                    elapsed,
                    len(piece),
                    report_keys(reports)
                    == stream.expected_between(start, start + len(piece)),
                    f"{stream.name}@{start}",
                )
        finally:
            try:
                session.close()
            except Exception:  # noqa: BLE001 — the feeds already counted
                pass


# -- traced-replay layers --------------------------------------------------
class EngineLayer:
    """``Engine.run_chunk`` on each shard engine the dispatcher resolved.

    The op's sim time is the sum over shards, or the slowest shard when
    the dispatcher runs shards in parallel on its worker pool.
    """

    name = "sim.engine"

    def __init__(self, dispatcher, chunk_size: int | None = None) -> None:
        self.engines = dispatcher.engines
        self.ids = dispatcher.global_ids()
        self.parallel = dispatcher.workers > 1
        self.chunk_size = chunk_size

    def begin(self, stream):
        return [engine.initial_state() for engine in self.engines]

    def step(self, states, piece):
        if self.chunk_size is not None:
            # a one-shot scan: every shard starts a fresh stream
            states = [engine.initial_state() for engine in self.engines]
        shard_s, per_shard = [], []
        for engine, state in zip(self.engines, states):
            began = time.perf_counter()
            reports = []
            parts = (
                iter_chunks(piece, self.chunk_size)
                if self.chunk_size is not None
                else (piece,)
            )
            for part in parts:
                reports.extend(engine.run_chunk(part, state).reports)
            shard_s.append(time.perf_counter() - began)
            per_shard.append(reports)
        keys = sorted(
            (r.cycle, ids[r.state_id], r.code)
            for reports, ids in zip(per_shard, self.ids)
            for r in reports
        )
        blocking = max(shard_s) if self.parallel else sum(shard_s)
        return keys, blocking, {"shard_s": shard_s}

    def end(self, ctx) -> None:
        pass


class DispatcherLayer:
    name = "service.dispatcher"

    def __init__(self, dispatcher, chunk_size: int | None = None) -> None:
        self.dispatcher = dispatcher
        self.chunk_size = chunk_size

    def begin(self, stream):
        return self.dispatcher.initial_states()

    def step(self, states, piece):
        if self.chunk_size is not None:
            result = self.dispatcher.scan(piece, chunk_size=self.chunk_size)
        else:
            result = self.dispatcher.run_chunk(piece, states)
        return report_keys(result.reports), None, None

    def end(self, ctx) -> None:
        pass


class SessionLayer:
    """``Session.feed`` on a stream opened with ``RulesetHandle.stream``."""

    name = "service.session"

    def __init__(self, handle) -> None:
        self.handle = handle

    def begin(self, stream):
        return self.handle.stream(unique_name("replay"))

    def step(self, session, piece):
        return report_keys(session.feed(piece)), None, None

    def end(self, session) -> None:
        session.close()


class ScanLayer:
    """``MatchingService.scan`` through ``RulesetHandle.scan``."""

    name = "service.scan"

    def __init__(self, handle) -> None:
        self.handle = handle

    def begin(self, stream):
        return None

    def step(self, ctx, piece):
        return report_keys(self.handle.scan(piece).reports), None, None

    def end(self, ctx) -> None:
        pass


class _ResponseRecorder:
    """Passes a client's response reads through and keeps each line."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self.lines: list[bytes] = []

    def readline(self, *args):
        line = self.inner.readline(*args)
        self.lines.append(line)
        return line

    def close(self) -> None:
        self.inner.close()


class WireLayer:
    """``RemoteSession.feed`` over one connection; keeps feed responses."""

    def __init__(self, client: MatchingClient, handle: str, name: str) -> None:
        self.client = client
        self.handle = handle
        self.name = name
        # the client returns decoded payloads only; wrapping its reader
        # keeps the raw response frames for the protocol metrics
        self.recorder = _ResponseRecorder(client._file)
        client._file = self.recorder
        self.responses: list[bytes] = []

    def begin(self, stream):
        return self.client.open_session(self.handle, unique_name("replay"))

    def step(self, session, piece):
        reports = session.feed(piece)
        self.responses.append(self.recorder.lines[-1])
        return report_keys(reports), None, None

    def end(self, session) -> None:
        session.close()


def replay(streams, layers_for, pieces_for, seconds, tracer, tally, seed):
    """Replay sampled streams through every layer, bottom layer first.

    Returns per-layer op durations and bytes, and the report count of
    each op at the bottom layer.
    """
    times: dict[str, list[float]] = defaultdict(list)
    nbytes: dict[str, int] = defaultdict(int)
    reports: list[int] = []
    order = random.Random(seed).sample(streams, len(streams))
    deadline = time.perf_counter() + seconds
    for rep, stream in enumerate(itertools.cycle(order)):
        if rep and time.perf_counter() >= deadline:
            break
        layers = layers_for(stream)
        ctxs = []
        try:
            for layer in layers:
                ctxs.append(layer.begin(stream))
        except Exception as exc:  # noqa: BLE001 — a failed op, counted
            tally.fail(exc)
            _end_all(layers, ctxs)
            continue
        try:
            for index, (start, piece) in enumerate(pieces_for(stream)):
                expected = stream.expected_between(start, start + len(piece))
                trace_id = f"{rep}:{index}"
                ids = [tracer.new_id() for _ in layers]
                for level, (layer, ctx) in enumerate(zip(layers, ctxs)):
                    parent = ids[level + 1] if level + 1 < len(layers) else None
                    began = time.perf_counter()
                    try:
                        keys, blocking, attrs = layer.step(ctx, piece)
                    except Exception as exc:  # noqa: BLE001 — a failed op
                        tally.fail(exc)
                        continue
                    ended = time.perf_counter()
                    took = ended - began if blocking is None else blocking
                    tracer.record(
                        ids[level],
                        layer.name,
                        trace_id,
                        parent,
                        began,
                        ended,
                        stream=stream.name,
                        bytes=len(piece),
                        **(attrs or {}),
                    )
                    times[layer.name].append(took)
                    nbytes[layer.name] += len(piece)
                    tally.record(
                        took, len(piece), keys == expected, f"{stream.name}@{start}"
                    )
                    if level == 0:
                        reports.append(len(keys))
        finally:
            _end_all(layers, ctxs)
    return times, nbytes, reports


def _end_all(layers, ctxs) -> None:
    for layer, ctx in zip(layers, ctxs):
        try:
            layer.end(ctx)
        except Exception:  # noqa: BLE001 — replay ops already counted
            pass


def feed_pieces(stream):
    return [
        (start, stream.data[start : start + CHUNK_BYTES])
        for start in range(0, len(stream.data), CHUNK_BYTES)
    ]


def scan_pieces(stream):
    return [(0, stream.data)]


def p50_ms(values) -> float:
    return median(values) * 1e3


def self_ms(times, upper: str, lower: str) -> float:
    """p50 of ``upper`` minus p50 of ``lower`` on identical work, in ms."""
    return p50_ms(times[upper]) - p50_ms(times[lower])


def native_share(backends: dict[str, list[str]]) -> float:
    names = [name for names in backends.values() for name in names]
    return names.count("native") / len(names) if names else 0.0


# -- workloads -------------------------------------------------------------
class Workload:
    """One named workload over a seeded :class:`Corpus`."""

    name = ""
    #: ``[(benchmark, num_streams, stream_bytes), ...]`` for build_corpus
    plan: list[tuple[str, int, int]] = []
    #: the top layer of the traced replay, whose ops match the e2e ops
    top_layer = ""
    #: the ScanConfig the workload serves with (None: the default)
    config: ScanConfig | None = None

    def __init__(self, corpus: Corpus, seed: int, work_dir) -> None:
        self.corpus = corpus
        self.seed = seed
        self.work_dir = work_dir

    def warmup_bytes(self, rules_index: int) -> bytes:
        first = next(s for s in self.corpus.streams if s.rules == rules_index)
        return first.data[:CHUNK_BYTES]

    def compile_handle(self, rules_index: int):
        text = self.corpus.rulesets[rules_index].text
        return Ruleset.from_automaton(loads_mnrl(text)).compile(scan=self.config)

    def setup(self):
        raise NotImplementedError

    def drive(self, sut, seconds: float) -> Tally:
        raise NotImplementedError

    def layer_metrics(self, sut, seconds, tracer, tally, e2e: Tally) -> dict:
        """The traced half of a ``--trace 1`` run."""
        raise NotImplementedError

    def counters(self, sut) -> dict:
        """Cumulative program counters, read before and after a run."""
        return {}

    def counter_metrics(self, before: dict, after: dict) -> dict:
        return {}

    def compile_metrics(self, sut) -> dict:
        """Compile each ruleset cold and load it from its artifact, with
        the process-wide successor-table cache emptied before each."""
        cold = warm = size = 0.0
        for index in range(len(self.corpus.rulesets)):
            clear_csr_cache()
            began = time.perf_counter()
            handle = self.compile_handle(index)
            cold += time.perf_counter() - began
            blob = handle.artifact().to_bytes()
            handle.close()
            size += len(blob)
            clear_csr_cache()
            began = time.perf_counter()
            loaded = Ruleset.from_artifact(blob).compile(scan=self.config)
            warm += time.perf_counter() - began
            loaded.close()
        if isinstance(sut, OverWire):
            cold = sut.register_s  # the first register compiles server-side
        return {
            "compile.cold_s": cold,
            "compile.warm_load_s": warm,
            "compile.artifact_bytes": size,
        }

    def sim_metrics(self, times, nbytes, reports) -> dict:
        sim = times[EngineLayer.name]
        return {
            "sim.engine.p50_ms": p50_ms(sim),
            "sim.engine.p99_ms": percentile(sim, 0.99) * 1e3,
            "sim.engine.mbps": nbytes[EngineLayer.name] / sum(sim) / 1e6,
            "sim.reports_per_op": sum(reports) / len(reports),
        }

    def trace_metrics(self, times, nbytes, e2e: Tally, self_times) -> dict:
        top = times[self.top_layer]
        traced_mbps = nbytes[self.top_layer] / sum(top) / 1e6
        e2e_p50 = p50_ms(e2e.latencies)
        covered = p50_ms(times[EngineLayer.name]) + sum(self_times)
        return {
            "trace.overhead_share": 1.0 - traced_mbps / e2e.op_mbps,
            "trace.unattributed_share": (e2e_p50 - covered) / e2e_p50,
        }


class ScanCorpus(Workload):
    name = "scan-corpus"
    plan = [("ClamAV", 2, 16384), ("Snort", 2, 16384), ("SPM", 2, 16384)]
    config = ScanConfig(num_shards=2, workers=2)
    top_layer = ScanLayer.name

    def setup(self):
        handles = []
        try:
            for index in range(len(self.corpus.rulesets)):
                handle = self.compile_handle(index)
                handles.append(handle)
                handle.scan(self.warmup_bytes(index))
        except BaseException:
            InProcess(handles).close()
            raise
        return InProcess(handles)

    def drive(self, sut, seconds):
        tally = Tally()
        began = time.perf_counter()
        deadline = began + seconds
        for stream in itertools.cycle(self.corpus.streams):
            if time.perf_counter() >= deadline:
                break
            handle = sut.handles[stream.rules]
            start = time.perf_counter()
            try:
                result = handle.scan(stream.data)
            except Exception as exc:  # noqa: BLE001 — a failed op, counted
                tally.fail(exc)
                time.sleep(FAIL_PAUSE_S)
                continue
            tally.record(
                time.perf_counter() - start,
                len(stream.data),
                report_keys(result.reports) == stream.expected,
                f"{stream.name}@0",
            )
        tally.window_s = time.perf_counter() - began
        return tally

    def layer_metrics(self, sut, seconds, tracer, tally, e2e):
        layers = {}
        for index, handle in enumerate(sut.handles):
            dispatcher = sut.dispatcher(index)
            size = handle.scan_config.chunk_size
            layers[index] = [
                EngineLayer(dispatcher, size),
                DispatcherLayer(dispatcher, size),
                ScanLayer(handle),
            ]
        times, nbytes, reports = replay(
            self.corpus.streams,
            lambda stream: layers[stream.rules],
            scan_pieces,
            seconds,
            tracer,
            tally,
            self.seed,
        )
        dispatcher_self = self_ms(times, DispatcherLayer.name, EngineLayer.name)
        scan_self = self_ms(times, ScanLayer.name, DispatcherLayer.name)
        return {
            **self.sim_metrics(times, nbytes, reports),
            "service.dispatcher.self_p50_ms": dispatcher_self,
            "service.scan.self_p50_ms": scan_self,
            **self.trace_metrics(
                times, nbytes, e2e, [dispatcher_self, scan_self]
            ),
        }


class FeedDense(Workload):
    name = "feed-dense"
    plan = [("RandomForest", 6, 16384)]
    top_layer = SessionLayer.name

    def setup(self):
        handle = self.compile_handle(0)
        try:
            with handle.stream(unique_name("warmup")) as session:
                session.feed(self.warmup_bytes(0))
        except BaseException:
            handle.close()
            raise
        return InProcess([handle])

    def drive(self, sut, seconds):
        tally = Tally()
        began = time.perf_counter()
        feed_loop(
            sut.handles[0].stream, self.corpus.streams, began + seconds, tally
        )
        tally.window_s = time.perf_counter() - began
        return tally

    def layer_metrics(self, sut, seconds, tracer, tally, e2e):
        dispatcher = sut.dispatcher(0)
        layers = [
            EngineLayer(dispatcher),
            DispatcherLayer(dispatcher),
            SessionLayer(sut.handles[0]),
        ]
        times, nbytes, reports = replay(
            self.corpus.streams,
            lambda stream: layers,
            feed_pieces,
            seconds,
            tracer,
            tally,
            self.seed,
        )
        dispatcher_self = self_ms(times, DispatcherLayer.name, EngineLayer.name)
        session_self = self_ms(times, SessionLayer.name, DispatcherLayer.name)
        return {
            **self.sim_metrics(times, nbytes, reports),
            "service.dispatcher.self_p50_ms": dispatcher_self,
            "service.session.self_p50_ms": session_self,
            **self.trace_metrics(
                times, nbytes, e2e, [dispatcher_self, session_self]
            ),
        }


class WireSolo(Workload):
    name = "wire-solo"
    plan = [("Snort", 16, 4096)]
    top_layer = "service.server"

    def setup(self):
        children = Children()
        try:
            sut = OverWire(children, children.start(NodeProcess(**SERVE_DEFAULTS)))
            sut.client = sut.connect(sut.node)
            began = time.perf_counter()
            sut.handle = sut.client.register(
                self.corpus.rulesets[0].text, kind="mnrl"
            )
            sut.register_s = time.perf_counter() - began
            sut.client.scan(sut.handle, self.warmup_bytes(0))
        except BaseException:
            children.stop()
            raise
        return sut

    def drive(self, sut, seconds):
        tally = Tally()
        began = time.perf_counter()
        feed_loop(
            lambda name: sut.client.open_session(sut.handle, name),
            self.corpus.streams,
            began + seconds,
            tally,
        )
        tally.window_s = time.perf_counter() - began
        return tally

    def add_router(self, sut) -> None:
        """Put a `repro route` child in front of the node, for the replay.

        wire-solo's closed loop bypasses the router; its traced replay
        adds one so the router hop is measured on a single stream, with
        nothing else contending for the two cores.
        """
        sut.router = sut.children.start(RouteProcess([sut.node]))
        with sut.connect(sut.router) as client:
            client.register(self.corpus.rulesets[0].text, kind="mnrl")

    def layer_metrics(self, sut, seconds, tracer, tally, e2e):
        self.add_router(sut)
        mirror = self.compile_handle(0)  # in-process, default config
        dispatcher = mirror.service.dispatcher(mirror.automaton)
        server = WireLayer(sut.connect(sut.node), sut.handle, "service.server")
        router = WireLayer(sut.connect(sut.router), sut.handle, "cluster.router")
        layers = [
            EngineLayer(dispatcher),
            DispatcherLayer(dispatcher),
            SessionLayer(mirror),
            server,
            router,
        ]
        try:
            pings = []
            for _ in range(PINGS):
                began = time.perf_counter()
                server.client.ping()
                pings.append(time.perf_counter() - began)
            times, nbytes, reports = replay(
                self.corpus.streams,
                lambda stream: layers,
                feed_pieces,
                seconds,
                tracer,
                tally,
                self.seed,
            )
        finally:
            server.client.close()
            router.client.close()
            mirror.close()
        codec = []
        for line in server.responses:
            began = time.perf_counter()
            encode_frame(decode_frame(line))
            codec.append(time.perf_counter() - began)
        dispatcher_self = self_ms(times, DispatcherLayer.name, EngineLayer.name)
        session_self = self_ms(times, SessionLayer.name, DispatcherLayer.name)
        server_self = self_ms(times, server.name, SessionLayer.name)
        return {
            **self.sim_metrics(times, nbytes, reports),
            "service.dispatcher.self_p50_ms": dispatcher_self,
            "service.session.self_p50_ms": session_self,
            "service.server.ping_p50_ms": p50_ms(pings),
            "service.server.self_p50_ms": server_self,
            "service.protocol.response_bytes_per_op": sum(
                len(line) for line in server.responses
            )
            / len(server.responses),
            "service.protocol.codec_p50_us": median(codec) * 1e6,
            "cluster.router.hop_p50_ms": self_ms(times, router.name, server.name),
            # counted since the router started
            "cluster.router.failovers": sut.stats(sut.router)["failovers"],
            **self.trace_metrics(
                times, nbytes, e2e, [dispatcher_self, session_self, server_self]
            ),
        }

    def counters(self, sut) -> dict:
        """Cumulative batching counters of the node, diffed around a run."""
        batching = sut.stats(sut.node)["batching"]
        return {
            "batches": batching["batches"],
            "rows": batching["rows"],
            "max_delay": batching["flush_reasons"]["max_delay"],
        }

    def counter_metrics(self, before: dict, after: dict) -> dict:
        diff = {key: after[key] - before[key] for key in after}
        batches = diff["batches"] or 1
        return {
            "service.batching.rows_per_flush": diff["rows"] / batches,
            "service.batching.max_delay_share": diff["max_delay"] / batches,
        }


WORKLOADS = {w.name: w for w in (ScanCorpus, FeedDense, WireSolo)}
