"""Cross-backend equivalence and backend-selection tests.

The execution backends must be observationally identical: same reports
(cycle, state, code, order), same activity statistics, same final
resumable state — one-shot, chunked at arbitrary boundaries, and
sharded through the dispatcher.  These tests drive that equivalence
with randomized automata, randomized inputs and randomized chunk
splits, plus every registry benchmark.
"""

import random
import warnings

import numpy as np
import pytest

from repro.api import ScanConfig
from repro.automata.analysis import estimate_active_fraction
from repro.automata.glushkov import compile_regex_set, glushkov_nfa
from repro.automata.nfa import Automaton, StartKind
from repro.automata.striding import pad_input, stride2
from repro.automata.symbols import SymbolClass
from repro.errors import SimulationError
from repro.service import Dispatcher, MatchingService, RulesetManager
from repro.sim.backends import (
    BACKEND_NAMES,
    DENSE_ACTIVITY_THRESHOLD,
    MAX_BITPARALLEL_STATES,
    ReportTruncationWarning,
    choose_backend_name,
    clear_csr_cache,
    get_backend,
)
from repro.sim.backends import bitwords
from repro.sim.backends.native import native_available
from repro.sim.engine import Engine, StridedEngine, cached_successor_csr
from repro.sim.trace import PartitionAssignment
from repro.workloads import BENCHMARK_NAMES, get_benchmark
from repro.workloads.generators import dense_activity_automaton

TEST_SCALE = 1.0 / 64.0

#: the kernel the dense family resolves to on this host — the auto
#: policy upgrades "bitparallel" choices to the compiled C loop when
#: it is loadable (see repro.sim.backends.build_kernel)
DENSE_KERNEL = "native" if native_available() else "bitparallel"


def report_keys(reports):
    return [(r.cycle, r.state_id, r.code) for r in reports]


def random_automaton(rng: random.Random, num_states: int) -> Automaton:
    """A random valid homogeneous NFA (reachable, >=1 start, >=1 report)."""
    nfa = Automaton(name=f"rand{num_states}")
    for i in range(num_states):
        roll = rng.random()
        if roll < 0.25:
            cls = SymbolClass.from_symbols([rng.randrange(4)])
        elif roll < 0.5:
            lo = rng.randrange(3)
            cls = SymbolClass.from_ranges((lo, rng.randint(lo, 5)))
        elif roll < 0.75:
            cls = SymbolClass.from_symbols(
                rng.sample(range(8), rng.randint(1, 4))
            )
        else:
            cls = SymbolClass.from_symbols([rng.randrange(6)]).negate()
        if i == 0:
            start = StartKind.ALL_INPUT
        else:
            start = rng.choice(
                [StartKind.NONE, StartKind.NONE, StartKind.NONE,
                 StartKind.ALL_INPUT, StartKind.START_OF_DATA]
            )
        nfa.add_state(cls, start=start, reporting=rng.random() < 0.3)
    if not any(s.reporting for s in nfa.states):
        nfa.states[-1].reporting = True
    for v in range(1, num_states):
        # spanning edge keeps every state reachable from state 0
        nfa.add_transition(rng.randrange(v), v)
    for _ in range(num_states * 2):
        nfa.add_transition(
            rng.randrange(num_states), rng.randrange(num_states)
        )
    nfa.validate()
    return nfa


def random_input(rng: random.Random, length: int) -> bytes:
    # a tiny alphabet keeps the automaton's classes hot (lots of matches)
    return bytes(rng.randrange(8) for _ in range(length))


def random_chunks(rng: random.Random, data: bytes) -> list[bytes]:
    cuts = sorted(rng.sample(range(len(data) + 1), rng.randint(0, 5)))
    edges = [0] + cuts + [len(data)]
    return [data[a:b] for a, b in zip(edges, edges[1:])]


class TestRandomizedEquivalence:
    """sparse == bitparallel on generated automata x inputs x splits."""

    @pytest.mark.parametrize("seed", range(20))
    def test_one_shot_and_chunked(self, seed):
        rng = random.Random(seed)
        nfa = random_automaton(rng, rng.randint(1, 90))
        data = random_input(rng, rng.randint(0, 300))
        sparse = Engine(nfa, backend="sparse")
        bitp = Engine(nfa, backend="bitparallel")

        one_sparse = sparse.run(data)
        one_bitp = bitp.run(data)
        assert report_keys(one_bitp.reports) == report_keys(one_sparse.reports)
        assert one_bitp.stats.num_reports == one_sparse.stats.num_reports
        assert (
            one_bitp.stats.enabled_states_sum
            == one_sparse.stats.enabled_states_sum
        )
        assert (
            one_bitp.stats.active_states_sum
            == one_sparse.stats.active_states_sum
        )

        # random chunk splits: reports and final state must agree too
        state_sparse = sparse.initial_state()
        state_bitp = bitp.initial_state()
        chunked_sparse, chunked_bitp = [], []
        for chunk in random_chunks(rng, data):
            chunked_sparse.extend(
                sparse.run_chunk(chunk, state_sparse).reports
            )
            chunked_bitp.extend(bitp.run_chunk(chunk, state_bitp).reports)
        assert report_keys(chunked_sparse) == report_keys(one_sparse.reports)
        assert report_keys(chunked_bitp) == report_keys(one_sparse.reports)
        assert state_sparse.position == state_bitp.position == len(data)
        assert np.array_equal(
            np.sort(state_sparse.active), np.sort(state_bitp.active)
        )

    @pytest.mark.parametrize("seed", range(8))
    def test_states_migrate_between_backends(self, seed):
        """A stream may switch backends mid-flight at any chunk boundary."""
        rng = random.Random(1000 + seed)
        nfa = random_automaton(rng, rng.randint(2, 60))
        data = random_input(rng, 200)
        engines = [
            Engine(nfa, backend="sparse"),
            Engine(nfa, backend="bitparallel"),
        ]
        reference = engines[0].run(data)
        state = engines[0].initial_state()
        reports = []
        for i, chunk in enumerate(random_chunks(rng, data)):
            engine = engines[(seed + i) % 2]
            reports.extend(engine.run_chunk(chunk, state).reports)
        assert report_keys(reports) == report_keys(reference.reports)

    @pytest.mark.parametrize("seed", range(6))
    def test_per_cycle_and_placement_stats_agree(self, seed):
        rng = random.Random(2000 + seed)
        nfa = random_automaton(rng, rng.randint(4, 50))
        data = random_input(rng, 120)
        parts = np.array(
            [rng.randrange(3) for _ in range(len(nfa))], dtype=np.int64
        )
        placement = PartitionAssignment(partition_of=parts, num_partitions=3)
        rs = Engine(nfa, backend="sparse").run(
            data, placement=placement, keep_per_cycle=True
        )
        rb = Engine(nfa, backend="bitparallel").run(
            data, placement=placement, keep_per_cycle=True
        )
        assert rb.stats.enabled_per_cycle == rs.stats.enabled_per_cycle
        assert rb.stats.active_per_cycle == rs.stats.active_per_cycle
        for field in (
            "partition_enabled_cycles",
            "partition_active_cycles",
            "partition_enabled_states_sum",
            "partition_enabled_weight_sum",
            "partition_active_states_sum",
        ):
            assert np.array_equal(
                getattr(rb.stats, field), getattr(rs.stats, field)
            ), field
        assert (
            rb.stats.global_crossing_states_sum
            == rs.stats.global_crossing_states_sum
        )
        assert (
            rb.stats.global_source_partitions_sum
            == rs.stats.global_source_partitions_sum
        )

    @pytest.mark.parametrize("seed", range(4))
    def test_max_reports_cap_identical(self, seed):
        rng = random.Random(3000 + seed)
        nfa = random_automaton(rng, 30)
        data = random_input(rng, 200)
        for cap in (0, 1, 3, 10):
            rs = Engine(nfa, backend="sparse").run(data, max_reports=cap)
            rb = Engine(nfa, backend="bitparallel").run(data, max_reports=cap)
            assert report_keys(rb.reports) == report_keys(rs.reports)
            assert rb.stats.num_reports == rs.stats.num_reports
            assert rb.truncated == rs.truncated


class TestRegistryBenchmarkEquivalence:
    """Byte-identical reports on every registry benchmark."""

    @pytest.mark.parametrize("name", BENCHMARK_NAMES)
    def test_one_shot_chunked_and_sharded(self, name):
        bench = get_benchmark(name, scale=TEST_SCALE)
        data = bench.input_stream(400)
        sparse = Engine(bench.automaton, backend="sparse").run(data)
        bitp = Engine(bench.automaton, backend="bitparallel").run(data)
        assert report_keys(bitp.reports) == report_keys(sparse.reports)
        assert bitp.stats.num_reports == sparse.stats.num_reports
        assert bitp.stats.enabled_states_sum == sparse.stats.enabled_states_sum
        assert bitp.stats.active_states_sum == sparse.stats.active_states_sum

        # chunked through the bitparallel backend
        engine = Engine(bench.automaton, backend="bitparallel")
        state = engine.initial_state()
        chunked = []
        for start in range(0, len(data), 61):
            chunked.extend(
                engine.run_chunk(data[start : start + 61], state).reports
            )
        assert report_keys(chunked) == report_keys(sparse.reports)

        # sharded via the dispatcher, pinned to the bitparallel backend
        dispatcher = Dispatcher(
            bench.automaton,
            ScanConfig(num_shards=4, backend="bitparallel"),
        )
        sharded = dispatcher.scan(data, chunk_size=97)
        assert report_keys(sharded.reports) == report_keys(sparse.reports)

    def test_strided_rejects_custom_backend_instances(self):
        from repro.sim.backends import SparseBackend

        strided = stride2(glushkov_nfa("ab"))
        with pytest.raises(SimulationError, match="built-in execution"):
            StridedEngine(strided, backend=SparseBackend())

    def test_strided_backends_agree(self):
        nfa = compile_regex_set({"r1": "(a|b)e*cd+", "r2": "abc"}, name="s2")
        strided = stride2(nfa)
        data = pad_input(b"aecdabcaeccdd" * 9)
        rs = StridedEngine(strided, backend="sparse").run(data)
        rb = StridedEngine(strided, backend="bitparallel").run(data)
        assert report_keys(rb.reports) == report_keys(rs.reports)
        assert rb.stats.enabled_states_sum == rs.stats.enabled_states_sum
        assert rb.stats.active_states_sum == rs.stats.active_states_sum
        assert rb.stats.num_reports == rs.stats.num_reports


class TestAutoPolicy:
    def test_low_activity_automata_take_sparse(self):
        # narrow classes -> tiny expected activity -> the sparse kernel
        nfa = glushkov_nfa("abc")
        assert choose_backend_name(nfa) == "sparse"
        assert Engine(nfa, backend="auto").backend_name == "sparse"

    def test_small_dense_automaton_takes_bitparallel(self):
        dense = dense_activity_automaton(48, chain_length=16, match_width=230)
        assert choose_backend_name(dense) == "bitparallel"
        assert Engine(dense, backend="auto").backend_name == DENSE_KERNEL

    def test_sparse_regime_benchmark_takes_sparse(self):
        bench = get_benchmark("Snort", scale=TEST_SCALE)
        assert choose_backend_name(bench.automaton) == "sparse"

    def test_dense_workload_takes_bitparallel(self):
        dense = dense_activity_automaton(512)
        assert estimate_active_fraction(dense) >= DENSE_ACTIVITY_THRESHOLD
        assert choose_backend_name(dense) == "bitparallel"

    def test_measured_fraction_overrides_estimate(self):
        bench = get_benchmark("Snort", scale=TEST_SCALE)
        assert (
            choose_backend_name(bench.automaton, active_fraction=0.5)
            == "bitparallel"
        )
        dense = dense_activity_automaton(512)
        assert (
            choose_backend_name(dense, active_fraction=0.001) == "sparse"
        )

    def test_huge_automata_stay_sparse(self):
        class FakeHuge:
            def __len__(self):
                return MAX_BITPARALLEL_STATES + 1

        assert choose_backend_name(FakeHuge()) == "sparse"

    def test_explicit_bitparallel_fails_fast_above_limit(self):
        class FakeHuge:
            def __len__(self):
                return MAX_BITPARALLEL_STATES + 1

            def validate(self):
                pass

        with pytest.raises(SimulationError, match="bit-parallel limit"):
            get_backend("bitparallel").compile(FakeHuge())

    def test_unknown_backend_rejected(self):
        with pytest.raises(SimulationError, match="unknown execution backend"):
            get_backend("gpu")
        with pytest.raises(SimulationError):
            Engine(glushkov_nfa("a"), backend="nope")

    def test_backend_names_registry(self):
        assert set(BACKEND_NAMES) == {
            "sparse",
            "bitparallel",
            "native",
            "auto",
        }

    def test_auto_dispatcher_resolves_per_shard(self):
        # a dense component and a narrow-literal component end up on
        # different kernels under one auto dispatcher
        # one dense 48-state chain + one narrow literal = two components
        mixed = dense_activity_automaton(48, chain_length=48, match_width=230)
        mixed.merge(compile_regex_set(["abc"]))
        dispatcher = Dispatcher(mixed, ScanConfig(num_shards=2, backend="auto"))
        assert sorted(dispatcher.backend_names) == sorted(
            [DENSE_KERNEL, "sparse"]
        )

    def test_service_reports_backends(self):
        service = MatchingService(ScanConfig(backend="bitparallel"))
        nfa = compile_regex_set(["ab", "cd"])
        result = service.scan(nfa, b"abcdabcd")
        assert result.backends == ["bitparallel"]
        sparse = MatchingService(ScanConfig(backend="sparse"))
        sparse_result = sparse.scan(nfa, b"abcd")
        assert report_keys(sparse_result.reports) == report_keys(result.reports[:2])


class TestRulesetManagerBackends:
    def test_backends_cached_separately(self):
        manager = RulesetManager()
        nfa = glushkov_nfa("abc")
        sparse = manager.engine(nfa, "sparse")
        bitp = manager.engine(nfa, "bitparallel")
        assert sparse is not bitp
        assert manager.engine(nfa, "sparse") is sparse
        assert manager.engine(nfa, "bitparallel") is bitp
        assert manager.stats.hits == 2
        assert manager.stats.misses == 2


class TestCsrCache:
    def test_identical_structures_share_csr(self):
        clear_csr_cache()
        a = glushkov_nfa("abcd")
        b = glushkov_nfa("abcd")
        offs_a, tgts_a = cached_successor_csr(a)
        offs_b, tgts_b = cached_successor_csr(b)
        assert offs_a is offs_b and tgts_a is tgts_b

    def test_engine_constructors_reuse_cached_csr(self):
        clear_csr_cache()
        nfa = glushkov_nfa("(a|b)c*d")
        first = Engine(nfa, backend="sparse")
        second = Engine(nfa, backend="bitparallel")
        assert first.kernel._succ_offsets is second.kernel._succ_offsets
        assert first.kernel._succ_targets is second.kernel._succ_targets

    def test_mutation_invalidates_fingerprint(self):
        nfa = glushkov_nfa("ab")
        before = nfa.structure_fingerprint()
        nfa.add_transition(0, 0)
        after = nfa.structure_fingerprint()
        assert before != after
        offs, _ = cached_successor_csr(nfa)
        # the CSR reflects the new self-loop
        assert offs[1] - offs[0] >= 1

    def test_fingerprint_ignores_labels(self):
        a = glushkov_nfa("ab")
        b = glushkov_nfa("xy")  # different classes, same structure
        assert a.structure_fingerprint() == b.structure_fingerprint()


class TestTruncationControls:
    def test_implicit_cap_warns(self):
        engine = Engine(glushkov_nfa("a"), max_kept_reports=3)
        with pytest.warns(ReportTruncationWarning):
            result = engine.run(b"aaaaaa")
        assert len(result.reports) == 3
        assert result.stats.num_reports == 6
        assert result.truncated

    def test_implicit_cap_can_error(self):
        engine = Engine(
            glushkov_nfa("a"), max_kept_reports=2, on_truncation="error"
        )
        with pytest.raises(SimulationError, match="kept-reports cap"):
            engine.run(b"aaaa")

    def test_explicit_cap_is_silent(self):
        engine = Engine(glushkov_nfa("a"), max_kept_reports=3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = engine.run(b"aaaaaa", max_reports=2)
        assert len(result.reports) == 2
        assert result.truncated

    def test_no_warning_below_cap(self):
        engine = Engine(glushkov_nfa("a"), max_kept_reports=10)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = engine.run(b"aaa")
        assert not result.truncated

    def test_bad_policy_rejected(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            Engine(glushkov_nfa("a"), on_truncation="explode")

    def test_session_truncation_flag(self):
        service = MatchingService()
        session = service.open_session(
            glushkov_nfa("a"), "t", max_reports=2, on_truncation="warn"
        )
        with pytest.warns(ReportTruncationWarning):
            session.feed(b"aaaa")
        assert session.truncated
        assert service.close_session("t").truncated


class TestBitwords:
    def test_pack_unpack_roundtrip(self):
        rng = random.Random(7)
        for n in (1, 5, 63, 64, 65, 130, 200):
            ids = np.array(
                sorted(rng.sample(range(n), rng.randint(0, n))), dtype=np.int64
            )
            words = bitwords.pack_indices(ids, n)
            assert np.array_equal(bitwords.unpack_indices(words), ids)
            assert bitwords.popcount(words) == len(ids)

    def test_successor_rows_match_per_state_reference(self):
        # the one-scatter derivation against the per-state loop it replaced
        rng = random.Random(5)
        for n in (1, 5, 64, 65, 130):
            nfa = random_automaton(rng, n)
            offsets, targets = cached_successor_csr(nfa)
            reference = np.stack(
                [
                    bitwords.pack_indices(targets[offsets[s] : offsets[s + 1]], n)
                    for s in range(n)
                ]
            )
            assert np.array_equal(
                bitwords.successor_rows(offsets, targets, n), reference
            )

    def test_pack_bool_matches_pack_indices(self):
        mask = np.zeros(100, dtype=bool)
        mask[[0, 63, 64, 99]] = True
        assert np.array_equal(
            bitwords.pack_bool(mask),
            bitwords.pack_indices(np.flatnonzero(mask), 100),
        )

    def test_popcount_rows_table_fallback(self, monkeypatch):
        """The _POPCOUNT8 path (numpy < 2, no np.bitwise_count) must
        equal both ground truth and whatever this numpy ships."""
        rng = np.random.default_rng(11)
        matrices = [
            rng.integers(
                0,
                np.iinfo(np.uint64).max,
                size=shape,
                dtype=np.uint64,
                endpoint=True,
            )
            for shape in ((1, 1), (5, 3), (64, 7), (3, 16))
        ]
        matrices.append(np.zeros((4, 2), dtype=np.uint64))
        matrices.append(np.empty((0, 3), dtype=np.uint64))
        current = [bitwords.popcount_rows(m) for m in matrices]
        # popcount_rows probes np.bitwise_count at call time, so
        # removing the attribute exercises the table fallback
        monkeypatch.delattr(np, "bitwise_count", raising=False)
        for matrix, reference in zip(matrices, current):
            truth = np.array(
                [
                    sum(bin(int(word)).count("1") for word in row)
                    for row in matrix
                ],
                dtype=np.int64,
            )
            fallback = bitwords.popcount_rows(matrix)
            assert np.array_equal(fallback, truth)
            assert np.array_equal(fallback, reference)
            assert fallback.dtype == np.int64
