"""The native compiled kernel: differential, degradation, packaging.

The C step loop in ``cama_kernel.c`` must be byte-identical to the
pure-numpy bit-parallel kernel on every path — full runs, chunked
resumes, report caps (including the pause/resume dance when a chunk
fires more reports than the C-side buffer holds), batched stepping and
artifact round trips.  It must also *degrade* identically: with
``REPRO_NATIVE=0`` (or no compiler) ``backend="native"`` silently hands
out the numpy kernel, so requesting it is always safe.
"""

import pickle
import random
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from oracle import oracle_run
from repro.api.config import ScanConfig
from repro.automata.glushkov import compile_regex_set
from repro.compile import CompiledArtifact, compile_ruleset
from repro.sim.backends import (
    BACKEND_NAMES,
    choose_backend_name,
    get_backend,
    native,
)
from repro.sim.backends.bitparallel import BitParallelKernel
from repro.sim.backends.native import (
    NativeBackend,
    NativeKernel,
    native_available,
    native_status,
)
from repro.sim.engine import Engine
from test_backends import (
    dense_activity_automaton,
    random_automaton,
    random_chunks,
    random_input,
)

RULES = {
    "r0": "abc[a-f]{2}x",
    "r1": "foo(bar|baz)+",
    "r2": "[0-9]{3}z",
    "r3": "q.*nd",
    "r4": "(a|b)c*d",
}

needs_native = pytest.mark.skipif(
    not native_available(),
    reason=f"compiled kernel not loadable here ({native_status()})",
)


def _keys(reports):
    return [(r.cycle, r.state_id, r.code) for r in reports]


def _active(state):
    return sorted(int(s) for s in state.active)


@pytest.fixture
def no_native(monkeypatch):
    """Force the compiler-less world for one test, then re-probe."""
    monkeypatch.setenv(native.ENV_SWITCH, "0")
    native._reset_probe_cache()
    yield
    monkeypatch.undo()
    native._reset_probe_cache()


# -- registry / config surface ---------------------------------------------


def test_native_is_a_first_class_backend_name():
    assert "native" in BACKEND_NAMES
    assert isinstance(get_backend("native"), NativeBackend)
    # config validation accepts it everywhere a backend is selectable
    assert ScanConfig(backend="native").backend == "native"


def test_native_status_is_one_line():
    line = native_status()
    assert "\n" not in line
    assert "native kernel" in line


@needs_native
def test_native_engine_reports_native_kernel():
    nfa = compile_regex_set(RULES, name="native-name")
    engine = Engine(nfa, backend="native")
    assert engine.backend_name == "native"
    assert isinstance(engine._kernel, NativeKernel)


# -- differential correctness ----------------------------------------------


@pytest.mark.parametrize("seed", range(15))
def test_native_engine_matches_oracle(seed):
    """Random structural automata x random inputs vs the naive oracle.

    Runs in both worlds: with the C loop when loadable, through the
    degradation path otherwise — either way the answer must be exact.
    """
    rng = random.Random(9000 + seed)
    nfa = random_automaton(rng, rng.randint(1, 70))
    data = random_input(rng, rng.randint(0, 250))
    expected = oracle_run(nfa, data)
    result = Engine(nfa, backend="native").run(data)
    assert _keys(result.reports) == _keys(expected.reports)
    assert result.stats.num_reports == expected.num_reports
    assert result.stats.num_cycles == expected.num_cycles
    assert result.stats.enabled_states_sum == expected.enabled_states_sum
    assert result.stats.active_states_sum == expected.active_states_sum


@pytest.mark.parametrize("seed", range(10))
def test_native_chunked_resume_matches_bitparallel(seed):
    """Chunked execution with report caps: reports, truncation flags,
    stats and the resumable state itself all match the numpy kernel."""
    rng = random.Random(7100 + seed)
    nfa = random_automaton(rng, rng.randint(2, 60))
    data = random_input(rng, 300)
    cap = rng.choice([0, 1, 3, 10, 10_000])
    reference = Engine(nfa, backend="bitparallel")
    candidate = Engine(nfa, backend="native")
    ref_state = reference.initial_state()
    cand_state = candidate.initial_state()
    for chunk in random_chunks(rng, data):
        ref = reference.run_chunk(chunk, ref_state, max_reports=cap)
        cand = candidate.run_chunk(chunk, cand_state, max_reports=cap)
        assert _keys(cand.reports) == _keys(ref.reports)
        assert cand.truncated == ref.truncated
        assert cand.stats.num_reports == ref.stats.num_reports
        assert cand.stats.enabled_states_sum == ref.stats.enabled_states_sum
        assert cand.stats.active_states_sum == ref.stats.active_states_sum
        assert _active(cand_state) == _active(ref_state)
        assert cand_state.position == ref_state.position


def test_native_report_buffer_pause_resume():
    """A chunk firing more reports than the C report buffer holds
    (> 4096) forces the pause/drain/resume path; results stay exact."""
    nfa = compile_regex_set({"r": "a"}, name="buffer-resume")
    data = b"a" * 9000
    cap = 8000
    ref = Engine(nfa, backend="bitparallel").run(data, max_reports=cap)
    got = Engine(nfa, backend="native").run(data, max_reports=cap)
    assert len(got.reports) == cap
    assert got.truncated is True
    assert got.stats.num_reports == 9000
    assert _keys(got.reports) == _keys(ref.reports)
    assert got.stats.num_reports == ref.stats.num_reports


def test_native_keep_per_cycle_and_placement_still_work():
    """Features the C loop doesn't implement fall back to numpy and
    keep their full semantics."""
    nfa = compile_regex_set(RULES, name="fallback-features")
    data = b"abcddxfoobar123zqnd" * 10
    ref = Engine(nfa, backend="bitparallel").run(data, keep_per_cycle=True)
    got = Engine(nfa, backend="native").run(data, keep_per_cycle=True)
    assert _keys(got.reports) == _keys(ref.reports)
    assert got.stats.enabled_per_cycle == ref.stats.enabled_per_cycle
    assert got.stats.active_per_cycle == ref.stats.active_per_cycle


@needs_native
def test_native_kernel_is_thread_safe():
    """Server executor threads share one kernel; concurrent run_chunk
    calls must not corrupt each other (per-call buffers)."""
    rng = random.Random(4242)
    nfa = compile_regex_set(RULES, name="threads")
    engine = Engine(nfa, backend="native")
    pool = b"abcdfoobarbaz0123qndxz"
    streams = [
        bytes(rng.choice(pool) for _ in range(2000)) for _ in range(8)
    ]
    expected = [_keys(engine.run(data).reports) for data in streams]

    def scan(data):
        return _keys(engine.run(data).reports)

    with ThreadPoolExecutor(max_workers=4) as executor:
        got = list(executor.map(scan, streams))
    assert got == expected


# -- degradation -----------------------------------------------------------


def test_env_switch_degrades_to_pure_numpy(no_native):
    """REPRO_NATIVE=0 (CI's compiler-less stand-in): the native backend
    hands out plain BitParallelKernel objects and stays correct."""
    assert native_available() is False
    assert "unavailable" in native_status()
    nfa = compile_regex_set(RULES, name="degraded")
    kernel = get_backend("native").compile(nfa)
    assert type(kernel) is BitParallelKernel
    assert kernel.name == "bitparallel"
    data = b"abcddxfoobarbaz123zqnd" * 5
    expected = oracle_run(nfa, data)
    result = Engine(nfa, backend="native").run(data)
    assert _keys(result.reports) == _keys(expected.reports)
    # auto's packed choice degrades the same way
    dense = dense_activity_automaton(48, chain_length=16, match_width=230)
    assert choose_backend_name(dense) == "bitparallel"
    assert Engine(dense, backend="auto").backend_name == "bitparallel"


@needs_native
def test_dense_backend_prefers_native():
    """auto's packed (dense) choice runs the compiled loop."""
    dense = dense_activity_automaton(48, chain_length=16, match_width=230)
    assert choose_backend_name(dense) == "bitparallel"
    assert Engine(dense, backend="auto").backend_name == "native"


@needs_native
def test_native_engine_pickle_round_trip():
    """The ctypes handle is dropped on pickle and re-probed on load."""
    nfa = compile_regex_set(RULES, name="pickle")
    engine = Engine(nfa, backend="native")
    data = b"abcddxfoobar123z" * 20
    expected = engine.run(data)
    clone = pickle.loads(pickle.dumps(engine))
    assert clone.backend_name == "native"
    result = clone.run(data)
    assert _keys(result.reports) == _keys(expected.reports)
    assert result.stats.num_reports == expected.stats.num_reports


# -- tables / artifact interchange -----------------------------------------


def test_zeroed_successor_rows_in_an_artifact_are_never_read():
    """Packed successor rows are derived from the CSR on load, never
    shipped: an artifact smuggling a zeroed ``succ_words`` array still
    scans like the oracle on the packed kernels."""
    nfa = compile_regex_set(RULES, name="tables")
    artifact = CompiledArtifact.from_compiled(compile_ruleset(nfa))
    assert "succ_words" not in artifact.arrays
    n = len(nfa)
    artifact.arrays["succ_words"] = np.zeros((n, (n + 63) // 64), dtype="<u8")
    loaded = CompiledArtifact.from_bytes(artifact.to_bytes()).verify()
    data = b"abcddxfoobarbaz123zqnd" * 5
    expected = _keys(oracle_run(nfa, data).reports)
    assert expected
    for backend in ("native", "bitparallel"):
        engine = loaded.engine(backend)
        assert _keys(engine.run(data).reports) == expected, backend


def test_artifact_round_trip_with_native_backend():
    """compile -> artifact bytes -> native engine: the artifact is
    backend-neutral and the loaded engine is exact (even when the
    loading host must degrade to the numpy kernel)."""
    nfa = compile_regex_set(RULES, name="native-artifact")
    artifact = CompiledArtifact.from_compiled(compile_ruleset(nfa))
    loaded = CompiledArtifact.from_bytes(artifact.to_bytes()).validate()
    assert "backend" not in loaded.manifest
    expected_name = "native" if native_available() else "bitparallel"
    engine = loaded.engine("native")
    assert engine.backend_name == expected_name
    data = b"abcddxfoobarbaz123zqnd" * 10
    expected = oracle_run(nfa, data)
    result = engine.run(data)
    assert _keys(result.reports) == _keys(expected.reports)
    assert result.stats.num_reports == expected.num_reports


def test_auto_artifact_engine_upgrades_dense_family():
    """An artifact carries no backend: ``auto`` resolves when the
    engine is built, and its dense choice runs the compiled loop where
    it loads."""
    # a dense-activity automaton, so the family choice is bitparallel
    nfa = dense_activity_automaton(48, chain_length=16, match_width=230)
    loaded = CompiledArtifact.from_bytes(
        CompiledArtifact.from_compiled(compile_ruleset(nfa)).to_bytes()
    )
    engine = loaded.engine()
    assert engine.backend_name == ("native" if native_available() else "bitparallel")
