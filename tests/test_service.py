"""Tests for the streaming, sharded, multi-tenant service layer."""

import gc
import multiprocessing
import warnings

import numpy as np
import pytest

from repro.api import ScanConfig
from repro.automata import balanced_shards, glushkov_nfa
from repro.automata.glushkov import compile_regex_set
from repro.core.compiler import compile_automaton
from repro.core.machine import CamaMachine
from repro.errors import ConfigError, SimulationError
from repro.service import (
    Dispatcher,
    MatchingService,
    RulesetManager,
    accumulate_stats,
    chunked_scan,
    iter_chunks,
    make_shards,
    merge_shard_reports,
    ruleset_fingerprint,
)
from repro.sim.engine import Engine, EngineState
from repro.sim.reports import Report
from repro.sim.trace import TraceStats
from repro.workloads import BENCHMARK_NAMES, get_benchmark, multi_stream_inputs

TEST_SCALE = 1.0 / 64.0
STREAM_LENGTH = 600


def report_keys(reports):
    return [(r.cycle, r.state_id, r.code) for r in reports]


@pytest.fixture(scope="module")
def ruleset():
    nfa = compile_regex_set(
        {"r1": "(a|b)e*cd+", "r2": "abc", "r3": "x+y"}, name="svc"
    )
    return nfa


@pytest.fixture(scope="module")
def stream():
    return b"aecdabcxxyaecddabcyx" * 30


class TestChunkedEquivalence:
    """run_chunk over chunks == run over the whole stream, exactly."""

    @pytest.mark.parametrize("chunk_size", [1, 7, 64])
    @pytest.mark.parametrize("name", BENCHMARK_NAMES)
    def test_registry_benchmarks(self, name, chunk_size):
        bench = get_benchmark(name, scale=TEST_SCALE)
        data = bench.input_stream(STREAM_LENGTH)
        engine = Engine(bench.automaton)
        one_shot = engine.run(data)
        chunked = chunked_scan(engine, data, chunk_size)
        assert report_keys(chunked.reports) == report_keys(one_shot.reports)
        assert chunked.stats.num_cycles == one_shot.stats.num_cycles
        assert chunked.stats.num_reports == one_shot.stats.num_reports
        assert chunked.stats.enabled_states_sum == one_shot.stats.enabled_states_sum
        assert chunked.stats.active_states_sum == one_shot.stats.active_states_sum

    def test_start_of_data_does_not_refire_at_chunk_boundaries(self):
        engine = Engine(glushkov_nfa("ab", anchored=True))
        one_shot = engine.run(b"abab")
        for chunk_size in (1, 2, 3):
            chunked = chunked_scan(engine, b"abab", chunk_size)
            assert report_keys(chunked.reports) == report_keys(one_shot.reports)
            assert chunked.num_reports == 1

    def test_report_cycles_are_stream_offsets(self, ruleset):
        engine = Engine(ruleset)
        state = engine.initial_state()
        engine.run_chunk(b"aecdabcxx", state)
        late = engine.run_chunk(b"aecd", state)
        # the 'd' of the second chunk completes r1 at absolute offset 12
        assert (12, "r1") in {(r.cycle, r.code) for r in late.reports}

    def test_state_advances_in_place(self, ruleset):
        engine = Engine(ruleset)
        state = engine.initial_state()
        engine.run_chunk(b"aec", state)
        assert state.position == 3
        assert state.active.size > 0

    def test_snapshot_forks_execution(self, ruleset):
        engine = Engine(ruleset)
        state = engine.initial_state()
        engine.run_chunk(b"aec", state)
        fork = state.copy()
        finished = engine.run_chunk(b"d", state)
        assert finished.num_reports == 1
        # the fork still sees the same continuation independently
        assert engine.run_chunk(b"d", fork).num_reports == 1

    def test_empty_chunk_is_a_no_op(self, ruleset):
        engine = Engine(ruleset)
        state = engine.initial_state()
        result = engine.run_chunk(b"", state)
        assert result.num_reports == 0
        assert state.position == 0
        assert state.at_start

    def test_cama_machine_run_chunk_matches_engine(self, ruleset, stream):
        machine = CamaMachine(compile_automaton(ruleset))
        reference = Engine(ruleset).run(stream)
        state = machine.initial_state()
        reports = []
        for chunk in iter_chunks(stream, 17):
            reports.extend(machine.run_chunk(chunk, state).reports)
        assert report_keys(reports) == report_keys(reference.reports)


class TestRulesetManager:
    def test_fingerprint_ignores_names(self):
        a = glushkov_nfa("ab*c")
        b = glushkov_nfa("ab*c")
        b.name = "renamed"
        for ste in b.states:
            ste.name = f"other{ste.ste_id}"
        assert ruleset_fingerprint(a) == ruleset_fingerprint(b)

    def test_fingerprint_sees_language_changes(self):
        assert ruleset_fingerprint(glushkov_nfa("ab")) != ruleset_fingerprint(
            glushkov_nfa("ac")
        )
        anchored = glushkov_nfa("ab", anchored=True)
        assert ruleset_fingerprint(glushkov_nfa("ab")) != ruleset_fingerprint(
            anchored
        )

    def test_cache_hits_and_misses(self):
        manager = RulesetManager(capacity=4)
        nfa = glushkov_nfa("ab*c")
        first = manager.engine(nfa)
        assert manager.engine(nfa) is first
        assert manager.stats.misses == 1
        assert manager.stats.hits == 1

    def test_lru_eviction(self):
        manager = RulesetManager(capacity=2)
        rules = [glushkov_nfa(p) for p in ("ab", "cd", "ef")]
        engines = [manager.engine(nfa) for nfa in rules]
        assert manager.stats.evictions == 1
        # oldest entry was evicted; re-requesting it recompiles
        assert manager.engine(rules[0]) is not engines[0]
        assert manager.engine(rules[2]) is engines[2]

    def test_bad_capacity_rejected(self):
        with pytest.raises(Exception):
            RulesetManager(capacity=0)


class TestSharding:
    def test_balanced_shards_partition_states(self):
        components = [[0, 1], [2, 3, 4], [5], [6, 7]]
        groups = balanced_shards(components, 2)
        assert sorted(s for g in groups for s in g) == list(range(8))
        sizes = sorted(len(g) for g in groups)
        assert sizes == [4, 4]

    def test_balanced_shards_fewer_components_than_shards(self):
        groups = balanced_shards([[0, 1]], 4)
        assert groups == [[0, 1]]

    def test_balanced_shards_rejects_bad_count(self):
        with pytest.raises(ValueError):
            balanced_shards([[0]], 0)

    def test_make_shards_cover_reporting_components(self, ruleset):
        shards = make_shards(ruleset, 3)
        covered = sorted(s for shard in shards for s in shard.global_ids)
        assert covered == list(range(len(ruleset)))
        for shard in shards:
            shard.automaton.validate()

    def test_sharded_scan_equals_monolithic(self, ruleset, stream):
        one_shot = Engine(ruleset).run(stream)
        for num_shards in (1, 2, 3):
            dispatcher = Dispatcher(ruleset, ScanConfig(num_shards=num_shards))
            result = dispatcher.scan(stream, chunk_size=50)
            assert report_keys(result.reports) == report_keys(one_shot.reports)
            assert result.stats.num_reports == one_shot.stats.num_reports
            assert (
                result.stats.enabled_states_sum
                == one_shot.stats.enabled_states_sum
            )

    def test_sharded_scan_with_workers(self, ruleset, stream):
        one_shot = Engine(ruleset).run(stream)
        dispatcher = Dispatcher(ruleset, ScanConfig(num_shards=3, workers=2))
        try:
            # the pool persists across scans; both must match one-shot
            for _ in range(2):
                result = dispatcher.scan(stream, chunk_size=100)
                assert report_keys(result.reports) == report_keys(
                    one_shot.reports
                )
        finally:
            dispatcher.close()

    def test_sharded_registry_benchmark(self):
        bench = get_benchmark("Snort", scale=TEST_SCALE)
        data = bench.input_stream(STREAM_LENGTH)
        one_shot = Engine(bench.automaton).run(data)
        result = Dispatcher(bench.automaton, ScanConfig(num_shards=4)).scan(
            data, chunk_size=64
        )
        assert report_keys(result.reports) == report_keys(one_shot.reports)

    def test_run_chunk_state_mismatch_rejected(self, ruleset):
        dispatcher = Dispatcher(ruleset, ScanConfig(num_shards=2))
        with pytest.raises(SimulationError):
            dispatcher.run_chunk(b"ab", [EngineState()] * 5)

    def test_iter_chunks_rejects_bad_size(self):
        with pytest.raises(ConfigError):
            list(iter_chunks(b"abc", 0))


class TestMerge:
    def test_accumulate_requires_same_automaton(self):
        with pytest.raises(ValueError):
            accumulate_stats(TraceStats(num_states=2), TraceStats(num_states=3))

    def test_merge_shard_reports_orders_like_monolithic(self):
        per_shard = [
            [Report(cycle=1, state_id=0), Report(cycle=3, state_id=1)],
            [Report(cycle=1, state_id=0)],
        ]
        merged = merge_shard_reports(per_shard, [[5, 6], [2]])
        assert [(r.cycle, r.state_id) for r in merged] == [
            (1, 2),
            (1, 5),
            (3, 6),
        ]


class TestSessions:
    def test_interleaved_sessions_are_independent(self, ruleset, stream):
        service = MatchingService(ScanConfig(num_shards=2))
        expected = Engine(ruleset).run(stream)
        a = service.open_session(ruleset, "a")
        b = service.open_session(ruleset, "b")
        # feed the same stream to both, chunks interleaved unevenly
        for chunk in iter_chunks(stream, 13):
            a.feed(chunk)
        b.feed_all(stream, chunk_size=37)
        for session in (a, b):
            assert report_keys(session.reports) == report_keys(expected.reports)
        result = service.close_session("a")
        assert result.stats.num_cycles == len(stream)

    def test_session_feed_returns_only_new_reports(self, ruleset):
        service = MatchingService()
        session = service.open_session(ruleset, "s")
        assert session.feed(b"aec") == []
        new = session.feed(b"d")
        assert [(r.cycle, r.code) for r in new] == [(3, "r1")]
        assert session.position == 4

    def test_closed_session_rejects_feeds(self, ruleset):
        service = MatchingService()
        session = service.open_session(ruleset, "s")
        result = service.close_session("s")
        assert result.num_reports == 0
        assert "s" not in service.sessions
        with pytest.raises(SimulationError):
            session.feed(b"a")

    def test_with_block_close_releases_the_session(self):
        # leaving the with block must do everything close_session does:
        # drop the session, and let a pending hot-swap retire its version
        v1 = compile_regex_set({"r1": "(a|b)e*cd+", "r2": "abc"})
        with MatchingService(ScanConfig()) as service:
            record1 = service.register_ruleset(v1)
            with service.open_session(v1, "s") as session:
                session.feed(b"aecdabc")
                service.update_ruleset(v1, add={"r3": "x+y"})
                assert service.version_summary()["retiring"] == 1
            assert service.sessions == {}
            assert service.version_summary() == {
                "lineages": 1,
                "live": 1,
                "retiring": 0,
            }
            assert service.ruleset_version(record1.fingerprint) is None
            with pytest.raises(SimulationError, match="no such session"):
                service.close_session("s")
            # the name is free again
            service.open_session(v1, "s").close()
            assert service.sessions == {}

    def test_concurrent_closes_release_each_session_once(self):
        # both close paths racing on the same sessions: the bookkeeping
        # (table, version refcount, open-sessions gauge) moves once each
        import sys
        import threading

        from repro.service.service import _SESSIONS_OPEN

        v1 = compile_regex_set({"r1": "(a|b)e*cd+", "r2": "abc"})
        gauge = _SESSIONS_OPEN.labels()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with MatchingService(ScanConfig()) as service:
                record1 = service.register_ruleset(v1)
                open_before = gauge.value
                sessions = [service.open_session(v1, f"s{i}") for i in range(16)]
                service.update_ruleset(v1, add={"r3": "x+y"})

                def close(i):
                    session = sessions[i % len(sessions)]
                    if i % 2:
                        session.close()
                    else:
                        try:
                            service.close_session(session.name)
                        except SimulationError:
                            pass  # the other path released it first

                threads = [
                    threading.Thread(target=close, args=(i,)) for i in range(64)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=10)
                assert not any(thread.is_alive() for thread in threads)
                assert service.sessions == {}
                assert record1.sessions == 0
                assert gauge.value == open_before
                assert service.version_summary()["retiring"] == 0
        finally:
            sys.setswitchinterval(interval)

    def test_duplicate_session_name_rejected(self, ruleset):
        service = MatchingService()
        service.open_session(ruleset, "dup")
        with pytest.raises(SimulationError):
            service.open_session(ruleset, "dup")

    def test_unknown_session_close_rejected(self):
        with pytest.raises(SimulationError):
            MatchingService().close_session("ghost")

    def test_session_max_reports_caps_recording(self, ruleset):
        service = MatchingService()
        session = service.open_session(ruleset, "cap", max_reports=2)
        session.feed_all(b"aecd" * 10, chunk_size=4)
        assert len(session.reports) == 2
        assert session.stats.num_reports == 10

    def test_session_cap_holds_across_shards(self):
        # both components fire every cycle; the cap must apply to the
        # merged stream, not per shard
        nfa = compile_regex_set({"ra": "a", "rb": "b"}, name="two")
        service = MatchingService(ScanConfig(num_shards=2))
        session = service.open_session(nfa, "cap", max_reports=2)
        session.feed(b"ababab")
        assert len(session.reports) == 2
        assert session.stats.num_reports == 6


class TestMatchingService:
    def test_scan_marks_cache_state(self, ruleset, stream):
        service = MatchingService(ScanConfig(num_shards=2))
        cold = service.scan(ruleset, stream)
        warm = service.scan(ruleset, stream)
        assert not cold.cached
        assert warm.cached
        assert report_keys(cold.reports) == report_keys(warm.reports)
        assert warm.bytes_scanned == len(stream)
        assert warm.throughput_mbps >= 0.0

    def test_scan_equals_engine_run(self, ruleset, stream):
        service = MatchingService(ScanConfig(num_shards=3, chunk_size=41))
        expected = Engine(ruleset).run(stream)
        result = service.scan(ruleset, stream)
        assert report_keys(result.reports) == report_keys(expected.reports)
        assert result.stats.num_cycles == expected.stats.num_cycles

    def test_scan_many_isolates_streams(self, ruleset):
        service = MatchingService()
        streams = multi_stream_inputs(ruleset, 3, length=200)
        results = service.scan_many(ruleset, streams)
        assert set(results) == set(streams)
        for name, data in streams.items():
            expected = Engine(ruleset).run(data)
            assert report_keys(results[name].reports) == report_keys(
                expected.reports
            )

    def test_bad_chunk_size_rejected(self):
        with pytest.raises(ConfigError):
            MatchingService(ScanConfig(chunk_size=0))


class TestTeardown:
    """close() must be clean on error paths: no leaked pools, no
    ResourceWarnings, no half-open sessions."""

    def test_close_after_failing_chunk_releases_everything(self, ruleset):
        """A chunk that raises mid-stream must not leak the worker pool."""
        service = MatchingService(ScanConfig(num_shards=3, workers=2))
        stream = b"aecdabcxxy" * 20
        service.scan(ruleset, stream)  # builds the multiprocessing pool
        dispatcher = service.dispatcher(ruleset)
        assert dispatcher._pool is not None
        session = service.open_session(
            ruleset, "failing", max_reports=1, on_truncation="error"
        )
        with pytest.raises(SimulationError, match="kept-reports cap"):
            session.feed(stream)  # the failing chunk
        # teardown after the error: pool gone, session closed, quietly
        with warnings.catch_warnings():
            warnings.simplefilter("error", ResourceWarning)
            service.close()
            gc.collect()
        assert dispatcher._pool is None
        assert session.closed
        assert service.sessions == {}

    def test_close_is_idempotent(self, ruleset):
        service = MatchingService(ScanConfig(num_shards=2, workers=2))
        service.scan(ruleset, b"aecd" * 50)
        service.close()
        service.close()

    def test_use_after_close_raises_instead_of_recompiling(self, ruleset):
        service = MatchingService()
        service.scan(ruleset, b"aecd")
        service.close()
        with pytest.raises(SimulationError, match="closed"):
            service.scan(ruleset, b"aecd")
        with pytest.raises(SimulationError, match="closed"):
            service.open_session(ruleset, "late")

    def test_service_context_manager(self, ruleset):
        with MatchingService(ScanConfig(num_shards=2)) as service:
            result = service.scan(ruleset, b"aecdabc")
            assert result.num_reports > 0
        assert service.closed

    def test_dispatcher_context_manager_closes_pool(self, ruleset):
        config = ScanConfig(num_shards=3, workers=2)
        with Dispatcher(ruleset, config) as dispatcher:
            dispatcher.scan(b"aecdabcxxy" * 10, chunk_size=16)
            assert dispatcher._pool is not None
        assert dispatcher._pool is None
        dispatcher.close()  # idempotent

    def test_evicted_dispatcher_with_pool_closes_once_idle(self):
        # an evicted dispatcher with no scan in flight releases its pool
        # at once instead of holding it until the service closes
        rules_a = compile_regex_set({"a1": "ab", "a2": "cd"}, name="a")
        rules_b = compile_regex_set({"b1": "ef", "b2": "gh"}, name="b")
        service = MatchingService(
            ScanConfig(cache_capacity=1, num_shards=2, workers=2)
        )
        service.scan(rules_a, b"abcd" * 30)
        first = service.dispatcher(rules_a)
        assert first._pool is not None
        service.scan(rules_b, b"efgh" * 30)  # evicts rules_a's dispatcher
        assert first._pool is None
        service.close()

    def test_retired_dispatcher_keeps_its_pool_for_an_inflight_scan(
        self, ruleset
    ):
        # terminating the pool mid-scan would kill another thread's
        # work: the last in-flight scan closes it instead
        dispatcher = Dispatcher(ruleset, ScanConfig(num_shards=2, workers=2))
        pool = dispatcher._acquire_pool()  # a pool scan starts
        dispatcher.retire()
        assert dispatcher._pool is pool
        dispatcher._release_pool()  # ... and finishes
        assert dispatcher._pool is None
        # a scan that starts after retirement still works, then closes
        expected = Engine(ruleset).run(b"aecdabcxxy" * 10)
        result = dispatcher.scan(b"aecdabcxxy" * 10, chunk_size=16)
        assert report_keys(result.reports) == report_keys(expected.reports)
        assert dispatcher._pool is None

    def test_evicting_scans_leave_at_most_workers_live(self):
        # a long-lived service that churns rulesets must not accumulate
        # the worker pools of evicted dispatchers
        before = set(multiprocessing.active_children())
        with MatchingService(
            ScanConfig(cache_capacity=1, num_shards=2, workers=2)
        ) as service:
            for i in range(6):
                first, second = chr(ord("a") + 2 * i), chr(ord("b") + 2 * i)
                rules = compile_regex_set(
                    {"x": first + "+z", "y": second + "+z"}, name=f"churn{i}"
                )
                data = (first + "z" + second + "z").encode() * 20
                assert service.scan(rules, data).num_reports == 40
            live = set(multiprocessing.active_children()) - before
            assert len(live) <= 2

    def test_evicted_dispatcher_without_pool_closes_immediately(self):
        rules_a = compile_regex_set({"a1": "ab"}, name="a")
        rules_b = compile_regex_set({"b1": "ef"}, name="b")
        service = MatchingService(ScanConfig(cache_capacity=1))
        service.scan(rules_a, b"abab")
        first = service.dispatcher(rules_a)
        service.scan(rules_b, b"efef")  # evicts the (serial) dispatcher
        assert first._pool is None
        assert service.scan(rules_a, b"abab").num_reports == 2
        service.close()


class TestStridedMaxReports:
    def test_caps_recording_not_counting(self):
        from repro.automata import pad_input, stride2
        from repro.sim.engine import StridedEngine

        strided = stride2(glushkov_nfa("ab"))
        engine = StridedEngine(strided)
        data = pad_input(b"ab" * 50)
        full = engine.run(data)
        capped = engine.run(data, max_reports=5)
        assert len(capped.reports) == 5
        assert capped.stats.num_reports == full.stats.num_reports == 50
        assert capped.reports == full.reports[:5]
