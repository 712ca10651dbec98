"""Tests for the staged compilation pipeline (repro.compile)."""

import pytest

from repro.automata import compile_regex_set
from repro.automata.striding import pad_input
from repro.compile import (
    DEFAULT_PASSES,
    Pipeline,
    PipelineOptions,
    compile_ruleset,
    ruleset_fingerprint,
)
from repro.compile.ir import PipelineState
from repro.compile.passes import (
    PROGRAM_PASSES,
    EncodingPass,
    MappingPass,
    ParsePass,
)
from repro.core.compiler import CamaCompiler, compile_automaton
from repro.errors import ReproError
from repro.sim.engine import Engine, StridedEngine
from repro.workloads.registry import get_benchmark

RULES = {"r1": "(a|b)e*cd+", "r2": "abc", "r3": "x+y"}
STREAM = b"aecdabcxxyaecddabcyx" * 30


@pytest.fixture(scope="module")
def ruleset():
    return compile_regex_set(RULES, name="pipeline-tests")


def report_keys(result):
    return [(r.cycle, r.state_id, r.code) for r in result.reports]


class TestOptions:
    def test_defaults_validate(self):
        PipelineOptions().validate()

    def test_bad_stride_rejected(self):
        with pytest.raises(ReproError, match="stride"):
            PipelineOptions(stride=4).validate()

    def test_bad_backend_rejected(self):
        # the backend is chosen at scan time; compile options refuse it
        with pytest.raises(ReproError, match="backend"):
            PipelineOptions.from_dict({"backend": "sparse"})

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ReproError, match="unknown pipeline options"):
            PipelineOptions.from_dict({"optimise": True})

    def test_roundtrip_dict(self):
        options = PipelineOptions(optimize=True, stride=2, clustered=False)
        assert PipelineOptions.from_dict(options.to_dict()) == options

    def test_digest_covers_every_knob(self):
        base = PipelineOptions()
        variants = [
            base.replace(optimize=True),
            base.replace(stride=2),
            base.replace(allow_negation=False),
            base.replace(clustered=False),
            base.replace(fixed_32bit=True),
        ]
        digests = {base.digest(), *[v.digest() for v in variants]}
        assert len(digests) == len(variants) + 1

    def test_fingerprint_covers_options(self, ruleset):
        bare = ruleset_fingerprint(ruleset)
        default = ruleset_fingerprint(ruleset, PipelineOptions())
        strided = ruleset_fingerprint(ruleset, PipelineOptions(stride=2))
        assert len({bare, default, strided}) == 3


class TestPipelineDriver:
    def test_default_pass_order(self):
        assert Pipeline().pass_names == (
            "parse",
            "optimize",
            "stride",
            "encode",
            "map",
            "kernel",
        )

    def test_every_pass_timed(self, ruleset):
        compiled = compile_ruleset(ruleset)
        assert [t.name for t in compiled.timings] == list(
            Pipeline().pass_names
        )
        for timing in compiled.timings:
            assert timing.seconds >= 0.0
            assert (timing.skipped is None) or (timing.detail == {})

    def test_skipped_passes_record_reasons(self, ruleset):
        compiled = compile_ruleset(ruleset)  # no optimize, stride 1
        skipped = {t.name: t.skipped for t in compiled.timings if t.skipped}
        assert "optimize" in skipped and "stride" in skipped

    def test_requires_contract_enforced(self, ruleset):
        # encode before parse: its required automaton field is missing
        pipeline = Pipeline((EncodingPass(), ParsePass()))
        with pytest.raises(ReproError, match="requires"):
            pipeline.run(ruleset)

    def test_duplicate_pass_names_rejected(self):
        with pytest.raises(ReproError, match="duplicate"):
            Pipeline((ParsePass(), ParsePass()))

    def test_run_pass_by_name(self, ruleset):
        pipeline = Pipeline()
        state = PipelineState(
            options=PipelineOptions().validate(), source=ruleset
        )
        timing = pipeline.run_pass("parse", state)
        assert timing.detail["states"] == len(ruleset)
        assert state.automaton is ruleset

    def test_unknown_pass_name(self, ruleset):
        state = PipelineState(options=PipelineOptions(), source=ruleset)
        with pytest.raises(ReproError, match="no pass named"):
            Pipeline().run_pass("vectorize", state)

    def test_option_kwargs_front_door(self, ruleset):
        compiled = compile_ruleset(ruleset, allow_negation=False)
        assert compiled.options == PipelineOptions(allow_negation=False)

    def test_bad_source_type(self):
        with pytest.raises(ReproError, match="cannot compile"):
            compile_ruleset(42)


class TestPipelineProducts:
    def test_matches_legacy_compiler(self, ruleset):
        compiled = compile_ruleset(ruleset)
        legacy = compile_automaton(ruleset)
        assert compiled.program.summary() == legacy.summary()
        assert compiled.program.state_encodings == legacy.state_encodings

    @pytest.mark.parametrize("name", ["TCP", "Bro217", "BlockRings"])
    def test_matches_legacy_on_registry(self, name):
        automaton = get_benchmark(name, scale=1 / 64).automaton
        compiled = compile_ruleset(automaton)
        assert compiled.program.summary() == compile_automaton(automaton).summary()

    def test_cama_compiler_is_thin_driver(self, ruleset):
        compiler = CamaCompiler(clustered=False, fixed_32bit=True)
        program = compiler.compile(ruleset)
        assert program.summary()["encoding"].startswith("fixed-")
        options = compiler.options()
        assert options.fixed_32bit and not options.clustered

    def test_engine_from_compiled_kernel(self, ruleset):
        compiled = compile_ruleset(ruleset)
        engine = compiled.engine(
            "sparse", max_kept_reports=5, on_truncation="ignore"
        )
        assert engine.backend_name == "sparse"
        direct = Engine(ruleset, backend="sparse")
        assert report_keys(engine.run(STREAM, max_reports=10**6)) == report_keys(
            direct.run(STREAM)
        )
        assert engine.max_kept_reports == 5

    def test_engine_requires_kernel(self, ruleset):
        # a program-only compilation skips the kernel-tables pass
        compiled = Pipeline(PROGRAM_PASSES).run(ruleset)
        assert compiled.tables is None and compiled.program is not None
        with pytest.raises(ReproError, match="without the kernel"):
            compiled.engine()

    def test_optimize_pass_reduces_and_preserves_reports(self):
        # shared literal prefixes are the prefix-merging sweet spot
        automaton = compile_regex_set(
            {"a": "abcdef", "b": "abcxyz", "c": "abcqrs"}
        )
        compiled = compile_ruleset(automaton, optimize=True)
        assert compiled.optimization is not None
        assert len(compiled.automaton) < len(automaton)
        data = b"abcdefabcxyzabcqrs" * 5
        optimized = compiled.engine().run(data)
        original = Engine(automaton).run(data)
        assert [r.cycle for r in optimized.reports] == [
            r.cycle for r in original.reports
        ]
        assert [r.code for r in optimized.reports] == [
            r.code for r in original.reports
        ]

    def test_stride2_builds_strided_engine(self, ruleset):
        compiled = compile_ruleset(ruleset, stride=2)
        assert isinstance(compiled.engine(), StridedEngine)
        assert compiled.program is None and compiled.tables is None
        skipped = {t.name for t in compiled.timings if t.skipped}
        assert {"encode", "map"} <= skipped
        data = pad_input(STREAM)
        strided = compiled.engine().run(data)
        unstrided = Engine(ruleset).run(data)
        assert [(r.cycle, r.state_id) for r in strided.reports] == [
            (r.cycle, r.state_id) for r in unstrided.reports
        ]

    def test_stride2_engine_takes_backend_and_engine_kwargs(self, ruleset):
        # the strided engine is built at scan time, like any other
        compiled = compile_ruleset(ruleset, stride=2)
        engine = compiled.engine("bitparallel", max_kept_reports=1)
        assert engine.backend_name == "bitparallel"
        assert engine.max_kept_reports == 1
        assert compiled.engine().backend_name == "sparse"  # auto

    def test_timing_rows_render(self, ruleset):
        rows = compile_ruleset(ruleset).timing_rows()
        assert rows[-1][0] == "total"
        assert len(rows) == len(DEFAULT_PASSES) + 1
