"""Bench: the matching-service layer (repro.service).

Measures the service economics the subsystem exists for: warm (cached)
vs cold (recompile-every-request) scans on a repeat-ruleset workload,
sharded vs monolithic dispatch, and streaming-session overhead.  Run
directly:

    PYTHONPATH=src python -m pytest benchmarks/bench_service.py -q
"""

import time

from repro.api import ScanConfig
from repro.service import Dispatcher, MatchingService
from repro.workloads import multi_stream_inputs

REQUEST_BYTES = 256
NUM_REQUESTS = 8


def _request_streams(ctx, name="Snort"):
    automaton = ctx.benchmark(name).automaton
    return automaton, multi_stream_inputs(
        automaton, NUM_REQUESTS, length=REQUEST_BYTES
    )


def _cold_batch(automaton, streams) -> None:
    # a fresh service per request: every scan pays sharding + compile
    for data in streams.values():
        MatchingService().scan(automaton, data)


def _warm_batch(service, automaton, streams, latencies=None) -> None:
    for data in streams.values():
        start = time.perf_counter()
        service.scan(automaton, data)
        if latencies is not None:
            latencies.append(time.perf_counter() - start)


def _percentile(samples: list[float], q: float) -> float:
    """The q-quantile (0..1) of ``samples`` by nearest-rank."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
    return ordered[rank]


def test_cold_scan(benchmark, ctx):
    automaton, streams = _request_streams(ctx)
    benchmark(_cold_batch, automaton, streams)


def test_warm_scan(benchmark, ctx):
    automaton, streams = _request_streams(ctx)
    service = MatchingService()
    service.scan(automaton, next(iter(streams.values())))  # prime the cache
    benchmark(_warm_batch, service, automaton, streams)


def test_warm_beats_cold_2x(ctx, bench_json):
    """The acceptance ratio: cached scans >= 2x faster than cold scans.

    Medians over 5 interleaved rounds absorb scheduler noise; one retry
    keeps a single unlucky burst on a shared CI runner from failing an
    unrelated change.  Always writes BENCH_service.json, win or lose.
    """
    automaton, streams = _request_streams(ctx)
    warm_service = MatchingService()
    warm_service.scan(automaton, next(iter(streams.values())))
    best = (0.0, 0.0, 0.0)  # (speedup, cold median, warm median)
    warm_latencies: list[float] = []
    for _ in range(2):
        cold_times, warm_times = [], []
        for _ in range(5):
            start = time.perf_counter()
            _cold_batch(automaton, streams)
            cold_times.append(time.perf_counter() - start)
            start = time.perf_counter()
            _warm_batch(warm_service, automaton, streams, warm_latencies)
            warm_times.append(time.perf_counter() - start)
        cold = sorted(cold_times)[len(cold_times) // 2]
        warm = sorted(warm_times)[len(warm_times) // 2]
        best = max(best, (cold / warm, cold, warm))
        if best[0] >= 2.0:
            break
    speedup, cold, warm = best
    bench_json(
        "service",
        {
            "workload": {
                "benchmark": "Snort",
                "requests": NUM_REQUESTS,
                "request_bytes": REQUEST_BYTES,
            },
            # the medians behind the recorded speedup (same attempt)
            "cold_median_s": round(cold, 6),
            "warm_median_s": round(warm, 6),
            "speedup": round(speedup, 2),
            "target": 2.0,
            # per-request warm-scan latency across every measured round
            "warm_requests": len(warm_latencies),
            "warm_latency_p50_ms": round(
                _percentile(warm_latencies, 0.50) * 1e3, 3
            ),
            "warm_latency_p95_ms": round(
                _percentile(warm_latencies, 0.95) * 1e3, 3
            ),
        },
    )
    assert speedup >= 2.0, f"warm speedup only {speedup:.2f}x"


def test_monolithic_scan(benchmark, ctx):
    automaton = ctx.benchmark("Snort").automaton
    data = ctx.stream("Snort")
    dispatcher = Dispatcher(automaton, ScanConfig(num_shards=1))
    dispatcher.engines  # compile outside the measured region
    result = benchmark(dispatcher.scan, data, chunk_size=512)
    assert result.stats.num_cycles == len(data)


def test_sharded_scan(benchmark, ctx):
    automaton = ctx.benchmark("Snort").automaton
    data = ctx.stream("Snort")
    dispatcher = Dispatcher(automaton, ScanConfig(num_shards=4))
    dispatcher.engines
    result = benchmark(dispatcher.scan, data, chunk_size=512)
    assert result.stats.num_cycles == len(data)


def test_session_streaming(benchmark, ctx):
    automaton = ctx.benchmark("Snort").automaton
    data = ctx.stream("Snort")[:2000]
    service = MatchingService()
    service.scan(automaton, data[:64])  # prime

    def stream_once():
        session = service.open_session(automaton, "bench")
        session.feed_all(data, chunk_size=256)
        return service.close_session("bench")

    result = benchmark(stream_once)
    assert result.stats.num_cycles == len(data)


def test_scan_many_tenants(benchmark, ctx):
    automaton, streams = _request_streams(ctx)
    service = MatchingService()
    service.scan(automaton, next(iter(streams.values())))
    results = benchmark(service.scan_many, automaton, streams)
    assert len(results) == NUM_REQUESTS
