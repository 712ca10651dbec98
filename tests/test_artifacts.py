"""Tests for serialized compiled-ruleset artifacts and the disk store.

The acceptance property: a ruleset compiled and saved in one process,
loaded in another, produces *byte-identical* reports to an in-process
compile — checked here against both a fresh engine and the naive
differential oracle, including a genuine cross-process round trip.
Corruption, truncation and format-version skew must surface as
:class:`ArtifactError` (never a wrong answer), and the on-disk store
must hold its LRU byte budget.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from oracle import oracle_run
from repro.automata import compile_regex_set
from repro.automata.nfa import Automaton, StartKind
from repro.compile import (
    ARTIFACT_FORMAT_VERSION,
    ArtifactStore,
    CompiledArtifact,
    PipelineOptions,
    compile_ruleset,
)
from repro.core.machine import CamaMachine
from repro.errors import ArtifactError
from repro.sim.engine import Engine
from repro.workloads.registry import get_benchmark

RULES = {"r1": "(a|b)e*cd+", "r2": "abc", "r3": "x+y"}
STREAM = b"aecdabcxxyaecddabcyx" * 50


def manual_automaton() -> Automaton:
    """Start kinds, negated classes, report codes, multiple components."""
    a = Automaton(name="manual")
    s0 = a.add_state("[ab]", start=StartKind.START_OF_DATA)
    s1 = a.add_state("[^ab]", reporting=True, report_code="neg")
    s2 = a.add_state("*", start=StartKind.ALL_INPUT, name="anything")
    s3 = a.add_state("[a-m]", reporting=True, report_code="lower")
    s4 = a.add_state("[xyz]", start=StartKind.ALL_INPUT, reporting=True)
    a.add_transition(s0, s1)
    a.add_transition(s1, s1)
    a.add_transition(s2, s3)
    a.add_transition(s3, s3)
    a.add_transition(s4, s4)
    return a


def rulesets():
    return [
        ("regex", compile_regex_set(RULES, name="artifact-tests")),
        ("manual", manual_automaton()),
        ("registry", get_benchmark("Bro217", scale=1 / 64).automaton),
    ]


def keys_of(reports):
    return [(r.cycle, r.state_id, r.code) for r in reports]


@pytest.fixture(scope="module")
def compiled_regex():
    return compile_ruleset(compile_regex_set(RULES, name="artifact-tests"))


@pytest.fixture(scope="module")
def artifact_bytes(compiled_regex):
    return CompiledArtifact.from_compiled(compiled_regex).to_bytes()


class TestRoundTrip:
    @pytest.mark.parametrize("label,automaton", rulesets())
    def test_reports_identical_and_oracle_checked(self, label, automaton):
        compiled = compile_ruleset(automaton)
        loaded = CompiledArtifact.from_bytes(
            CompiledArtifact.from_compiled(compiled).to_bytes()
        )
        fresh = loaded.engine().run(STREAM)
        direct = Engine(automaton).run(STREAM)
        oracle = oracle_run(automaton, STREAM)
        assert keys_of(fresh.reports) == keys_of(direct.reports)
        assert keys_of(fresh.reports) == keys_of(oracle.reports)
        assert fresh.stats.num_reports == oracle.num_reports

    @pytest.mark.parametrize("backend", ["sparse", "bitparallel"])
    def test_backend_override_on_load(self, artifact_bytes, backend):
        loaded = CompiledArtifact.from_bytes(artifact_bytes)
        engine = loaded.engine(backend=backend)
        assert engine.backend_name == backend
        direct = Engine(loaded.automaton(), backend=backend)
        assert keys_of(engine.run(STREAM).reports) == keys_of(
            direct.run(STREAM).reports
        )

    def test_file_round_trip(self, compiled_regex, tmp_path):
        path = CompiledArtifact.from_compiled(compiled_regex).save(
            tmp_path / "rules.npz"
        )
        loaded = CompiledArtifact.load(path)
        assert loaded.key == compiled_regex.key
        assert loaded.verify() is loaded

    def test_automaton_reconstruction_is_faithful(self, compiled_regex):
        loaded = CompiledArtifact.from_bytes(
            CompiledArtifact.from_compiled(compiled_regex).to_bytes()
        )
        original = compiled_regex.automaton
        rebuilt = loaded.automaton()
        assert rebuilt.name == original.name
        assert len(rebuilt) == len(original)
        assert list(rebuilt.transitions()) == list(original.transitions())
        for a, b in zip(original.states, rebuilt.states):
            assert a.symbol_class == b.symbol_class
            assert a.start is b.start
            assert a.reporting == b.reporting
            assert a.report_code == b.report_code
            assert a.name == b.name

    @pytest.mark.parametrize("label,automaton", rulesets())
    def test_program_reconstruction_lock_step(self, label, automaton):
        compiled = compile_ruleset(automaton)
        loaded = CompiledArtifact.from_bytes(
            CompiledArtifact.from_compiled(compiled).to_bytes()
        )
        program = loaded.program()
        assert program.summary() == compiled.program.summary()
        assert program.state_encodings == compiled.program.state_encodings
        data = STREAM[:200]
        machine_reports = CamaMachine(program).run(data).reports
        direct_reports = CamaMachine(compiled.program).run(data).reports
        assert keys_of(machine_reports) == keys_of(direct_reports)

    def test_engine_only_artifact_has_no_program(self, compiled_regex):
        compiled = compile_ruleset(compiled_regex.automaton, PipelineOptions())
        compiled.program = None  # serialize a kernel-only compilation
        artifact = CompiledArtifact.from_compiled(compiled)
        loaded = CompiledArtifact.from_bytes(artifact.to_bytes())
        with pytest.raises(ArtifactError, match="no CAMA program"):
            loaded.program()
        loaded.engine()  # the kernel tables are still there

    def test_stride2_not_serializable(self, compiled_regex):
        compiled = compile_ruleset(compiled_regex.automaton, stride=2)
        with pytest.raises(ArtifactError, match="stride-2"):
            CompiledArtifact.from_compiled(compiled)


class TestCorruption:
    def test_truncated_bytes_rejected(self, artifact_bytes):
        for cut in (0, 10, len(artifact_bytes) // 2, len(artifact_bytes) - 7):
            with pytest.raises(ArtifactError, match="corrupt|artifact"):
                CompiledArtifact.from_bytes(artifact_bytes[:cut])

    def test_garbage_bytes_rejected(self):
        with pytest.raises(ArtifactError):
            CompiledArtifact.from_bytes(b"\x00\x01garbage" * 100)

    def test_non_artifact_npz_rejected(self, tmp_path):
        path = tmp_path / "plain.npz"
        np.savez(path, data=np.arange(5))
        with pytest.raises(ArtifactError, match="not a compiled artifact"):
            CompiledArtifact.load(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ArtifactError, match="no such artifact"):
            CompiledArtifact.load(tmp_path / "absent.npz")

    def test_version_mismatch_rejected(self, artifact_bytes):
        artifact = CompiledArtifact.from_bytes(artifact_bytes)
        artifact.manifest["format_version"] = ARTIFACT_FORMAT_VERSION + 1
        with pytest.raises(ArtifactError, match="format version"):
            CompiledArtifact.from_bytes(artifact.to_bytes())

    def test_v1_artifact_refused_with_recompile_error(self, artifact_bytes):
        # the v1 layout: a recorded backend hint and packed successor rows
        artifact = CompiledArtifact.from_bytes(artifact_bytes)
        n = artifact.num_states
        artifact.manifest["format_version"] = 1
        artifact.manifest["backend"] = "native"
        artifact.manifest["options"]["backend"] = "native"
        artifact.arrays["succ_words"] = np.zeros((n, (n + 63) // 64), "<u8")
        with pytest.raises(ArtifactError, match="v2.*recompile"):
            CompiledArtifact.from_bytes(artifact.to_bytes())

    def test_missing_array_rejected(self, artifact_bytes):
        artifact = CompiledArtifact.from_bytes(artifact_bytes)
        del artifact.arrays["match_words"]
        with pytest.raises(ArtifactError, match="lacks required arrays"):
            CompiledArtifact.from_bytes(artifact.to_bytes())

    def test_inconsistent_shapes_rejected(self, artifact_bytes):
        artifact = CompiledArtifact.from_bytes(artifact_bytes)
        artifact.arrays["state_reporting"] = artifact.arrays[
            "state_reporting"
        ][:-1]
        with pytest.raises(ArtifactError, match="inconsistent"):
            CompiledArtifact.from_bytes(artifact.to_bytes())

    def test_verify_detects_content_tamper(self, artifact_bytes):
        artifact = CompiledArtifact.from_bytes(artifact_bytes)
        reporting = artifact.arrays["state_reporting"].copy()
        reporting[0] = not reporting[0]
        artifact.arrays["state_reporting"] = reporting
        tampered = CompiledArtifact.from_bytes(artifact.to_bytes())
        with pytest.raises(ArtifactError, match="fingerprint"):
            tampered.verify()

    def test_verify_detects_match_table_tamper(self, artifact_bytes):
        # match words are derived data outside the fingerprint: verify
        # must re-derive them, not trust them
        artifact = CompiledArtifact.from_bytes(artifact_bytes)
        artifact.arrays["match_words"] = np.zeros_like(
            artifact.arrays["match_words"]
        )
        tampered = CompiledArtifact.from_bytes(artifact.to_bytes())
        with pytest.raises(ArtifactError, match="match tables"):
            tampered.verify()

    def test_verify_detects_key_swap(self, artifact_bytes):
        # a manifest key pointing at some other ruleset's cache slot
        artifact = CompiledArtifact.from_bytes(artifact_bytes)
        artifact.manifest["key"] = "f" * 64
        swapped = CompiledArtifact.from_bytes(artifact.to_bytes())
        with pytest.raises(ArtifactError, match="key"):
            swapped.verify()

    def test_truncated_transition_targets_rejected(self, artifact_bytes):
        # silently sliced-short successor lists would mean *wrong
        # matches*, not a crash — validate() must refuse them
        artifact = CompiledArtifact.from_bytes(artifact_bytes)
        artifact.arrays["succ_targets"] = artifact.arrays["succ_targets"][:-1]
        with pytest.raises(ArtifactError, match="transition tables"):
            CompiledArtifact.from_bytes(artifact.to_bytes())

    def test_out_of_range_transition_target_rejected(self, artifact_bytes):
        artifact = CompiledArtifact.from_bytes(artifact_bytes)
        targets = artifact.arrays["succ_targets"].copy()
        targets[0] = artifact.num_states + 5
        artifact.arrays["succ_targets"] = targets
        with pytest.raises(ArtifactError, match="transition tables"):
            CompiledArtifact.from_bytes(artifact.to_bytes())

    def test_wrong_match_word_count_rejected(self, artifact_bytes):
        artifact = CompiledArtifact.from_bytes(artifact_bytes)
        artifact.arrays["match_words"] = np.zeros((256, 99), dtype=np.uint64)
        with pytest.raises(ArtifactError, match="inconsistent"):
            CompiledArtifact.from_bytes(artifact.to_bytes())

    def test_unknown_option_field_is_artifact_error(self, artifact_bytes):
        # a future build's option without a format bump must read as
        # "unreadable artifact" (a cache miss), not escape as ReproError
        artifact = CompiledArtifact.from_bytes(artifact_bytes)
        artifact.manifest["options"]["vectorize"] = True
        with pytest.raises(ArtifactError, match="options"):
            CompiledArtifact.from_bytes(artifact.to_bytes())


class TestStore:
    def test_put_get_round_trip(self, compiled_regex, tmp_path):
        store = ArtifactStore(tmp_path)
        artifact = CompiledArtifact.from_compiled(compiled_regex)
        store.put(artifact)
        assert store.contains(artifact.key)
        loaded = store.get(artifact.key)
        assert loaded is not None and loaded.key == artifact.key
        assert store.stats.hits == 1

    def test_get_missing_is_a_miss(self, tmp_path):
        store = ArtifactStore(tmp_path)
        assert store.get("f" * 64) is None
        assert store.stats.misses == 1

    def test_bad_key_rejected(self, tmp_path):
        store = ArtifactStore(tmp_path)
        with pytest.raises(Exception, match="bad artifact key"):
            store.path("../escape")

    def test_corrupt_entry_deleted_and_counted(self, compiled_regex, tmp_path):
        store = ArtifactStore(tmp_path)
        artifact = CompiledArtifact.from_compiled(compiled_regex)
        path = store.put(artifact)
        path.write_bytes(path.read_bytes()[:100])  # truncate in place
        assert store.get(artifact.key) is None
        assert store.stats.invalid == 1
        assert not path.exists(), "corrupt artifact should be deleted"

    def test_lru_byte_budget_eviction(self, tmp_path):
        automata = {
            name: compile_regex_set({name: pattern}, name=name)
            for name, pattern in (
                ("one", "abc+de"),
                ("two", "(x|y)z*w"),
                ("three", "q+rs"),
            )
        }
        artifacts = {
            name: CompiledArtifact.from_compiled(compile_ruleset(a))
            for name, a in automata.items()
        }
        one_size = len(artifacts["one"].to_bytes())
        store = ArtifactStore(tmp_path, max_bytes=int(one_size * 2.5))
        store.put(artifacts["one"])
        store.put(artifacts["two"])
        assert store.get(artifacts["one"].key) is not None  # refresh LRU
        store.put(artifacts["three"])  # over budget: evict LRU = "two"
        assert store.stats.evictions >= 1
        assert store.contains(artifacts["three"].key)
        assert store.contains(artifacts["one"].key)
        assert not store.contains(artifacts["two"].key)

    def test_clear(self, compiled_regex, tmp_path):
        store = ArtifactStore(tmp_path)
        store.put(CompiledArtifact.from_compiled(compiled_regex))
        store.clear()
        assert len(store) == 0 and store.total_bytes() == 0


class TestCrossProcess:
    def test_save_in_one_process_load_in_another(self, tmp_path):
        """The acceptance flow: compile+save in a *fresh* interpreter,
        load here, byte-identical reports vs in-process compile."""
        out = tmp_path / "xproc.npz"
        script = f"""
import json, sys
from repro.automata import compile_regex_set
from repro.compile import CompiledArtifact, compile_ruleset

rules = json.loads({json.dumps(json.dumps(RULES))})
automaton = compile_regex_set(rules, name="artifact-tests")
compiled = compile_ruleset(automaton)
CompiledArtifact.from_compiled(compiled).save({str(out)!r})
print(compiled.key)
"""
        src_dir = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = f"{src_dir}{os.pathsep}" + env.get("PYTHONPATH", "")
        result = subprocess.run(
            [sys.executable, "-c", script],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        loaded = CompiledArtifact.load(out)
        assert loaded.key == result.stdout.strip()
        automaton = compile_regex_set(RULES, name="artifact-tests")
        fresh = loaded.engine().run(STREAM)
        direct = Engine(automaton).run(STREAM)
        oracle = oracle_run(automaton, STREAM)
        assert keys_of(fresh.reports) == keys_of(direct.reports)
        assert keys_of(fresh.reports) == keys_of(oracle.reports)
