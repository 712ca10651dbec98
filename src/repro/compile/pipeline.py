"""The staged-pipeline driver.

A :class:`Pipeline` is an ordered list of
:class:`~repro.compile.passes.CompilePass` objects; :meth:`Pipeline.run`
threads a :class:`~repro.compile.ir.PipelineState` through them, timing
each pass and checking the declared ``requires``/``produces`` contracts,
then assembles the :class:`~repro.compile.ir.CompiledRuleset`.  Passes
can be run individually too (``pipeline.run_pass(name, state)``), which
is what ``repro compile --timings`` and the pipeline tests build on.

:func:`compile_ruleset` is the one-call front door used by the service
layer, the CLI and the benchmarks.
"""

from __future__ import annotations

import time

from repro.compile.fingerprint import ruleset_fingerprint
from repro.compile.ir import (
    CompiledRuleset,
    PassTiming,
    PipelineOptions,
    PipelineState,
)
from repro.compile.passes import DEFAULT_PASSES, CompilePass
from repro.errors import ReproError
from repro.telemetry.metrics import default_registry
from repro.telemetry.tracing import current_trace

_PASS_RUNS = default_registry().counter(
    "repro_compile_pass_runs_total",
    "Compile-pass executions, by pass and outcome (run | skipped)",
    ("pass", "outcome"),
)
_PASS_SECONDS = default_registry().histogram(
    "repro_compile_pass_seconds",
    "Wall-clock seconds per executed compile pass",
    ("pass",),
)


class Pipeline:
    """An ordered, inspectable sequence of compilation passes."""

    def __init__(self, passes: tuple[CompilePass, ...] = DEFAULT_PASSES) -> None:
        if not passes:
            raise ReproError("a pipeline needs at least one pass")
        names = [p.name for p in passes]
        if len(set(names)) != len(names):
            raise ReproError(f"duplicate pass names in pipeline: {names}")
        self.passes = tuple(passes)

    @property
    def pass_names(self) -> tuple[str, ...]:
        return tuple(p.name for p in self.passes)

    def run_pass(self, name: str, state: PipelineState) -> PassTiming:
        """Run (or record the skip of) one pass by name."""
        for compile_pass in self.passes:
            if compile_pass.name == name:
                return self._execute(compile_pass, state)
        raise ReproError(
            f"no pass named {name!r}; pipeline has {self.pass_names}"
        )

    def _execute(
        self, compile_pass: CompilePass, state: PipelineState
    ) -> PassTiming:
        skip = compile_pass.applies(state)
        if skip is not None:
            timing = PassTiming(
                name=compile_pass.name, seconds=0.0, skipped=skip
            )
            state.timings.append(timing)
            _PASS_RUNS.labels(compile_pass.name, "skipped").inc()
            return timing
        missing = [
            f for f in compile_pass.requires if getattr(state, f) is None
        ]
        if missing:
            raise ReproError(
                f"pass {compile_pass.name!r} requires {missing} but earlier "
                f"passes did not produce them"
            )
        start = time.perf_counter()
        detail = compile_pass.run(state)
        elapsed = time.perf_counter() - start
        unfilled = [
            f for f in compile_pass.produces if getattr(state, f) is None
        ]
        if unfilled:
            raise ReproError(
                f"pass {compile_pass.name!r} declared but did not produce "
                f"{unfilled}"
            )
        timing = PassTiming(
            name=compile_pass.name, seconds=elapsed, detail=detail or {}
        )
        state.timings.append(timing)
        _PASS_RUNS.labels(compile_pass.name, "run").inc()
        _PASS_SECONDS.labels(compile_pass.name).observe(elapsed)
        trace = current_trace()
        if trace is not None:
            # the pipeline's own pass timer doubles as the span clock,
            # so traced compiles reuse the PassTiming measurements
            trace.add_span(
                f"compile.{compile_pass.name}", elapsed, start_s=start
            )
        return timing

    def run(
        self, source, options: PipelineOptions | None = None
    ) -> CompiledRuleset:
        """Compile ``source`` end to end under ``options``."""
        options = (options or PipelineOptions()).validate()
        state = PipelineState(options=options, source=source)
        for compile_pass in self.passes:
            self._execute(compile_pass, state)
        return self.finish(state)

    @staticmethod
    def finish(state: PipelineState) -> CompiledRuleset:
        """Assemble the final product from a fully threaded state."""
        if state.automaton is None:
            raise ReproError("pipeline finished without an automaton")
        program = None
        if state.mapping is not None:
            from repro.core.compiler import CamaProgram

            program = CamaProgram(
                automaton=state.automaton,
                choice=state.choice,
                state_encodings=state.state_encodings,
                mapping=state.mapping,
                encoder=state.encoder,
            )
        return CompiledRuleset(
            automaton=state.automaton,
            options=state.options,
            key=ruleset_fingerprint(state.automaton, state.options),
            program=program,
            tables=state.tables,
            strided=state.strided,
            optimization=state.optimization,
            timings=list(state.timings),
        )


def compile_ruleset(
    source, options: PipelineOptions | None = None, **option_kwargs
) -> CompiledRuleset:
    """Compile any ruleset source through the default staged pipeline.

    ``options`` (or keyword overrides: ``compile_ruleset(a,
    stride=2, optimize=True)``) configure the passes; see
    :class:`PipelineOptions`.
    """
    if options is None:
        options = PipelineOptions(**option_kwargs)
    elif option_kwargs:
        options = options.replace(**option_kwargs)
    return Pipeline().run(source, options)
