"""repro.compile — the staged compilation pipeline and its artifacts.

The CAMA toolchain (paper §V.B, §VI) is a one-time compile/place/route
step whose cost deployments amortize across long-lived scans.  This
package makes that step explicit, inspectable and shippable:

``pipeline`` / ``passes`` / ``ir``
    The staged pipeline — parse → optimize → stride → encode → map →
    kernel — where each pass consumes/produces typed IR fields and is
    individually timed.  :func:`compile_ruleset` is the one-call front
    door; :class:`~repro.core.compiler.CamaCompiler` is now a thin
    driver over it.

``fingerprint``
    Content keys: :func:`ruleset_fingerprint` digests the language;
    with a :class:`PipelineOptions` it also digests the compile
    configuration, so differently configured artifacts never alias.

``artifact``
    :class:`CompiledArtifact` — a single ``.npz`` (numpy tables + JSON
    manifest, ``allow_pickle=False``) that rebuilds the automaton, a
    warm engine, and the CAMA program in any process: save in one,
    load in another, upload over the network server.

``store``
    :class:`ArtifactStore` — a content-addressed artifact directory
    with an LRU *byte* budget; the persistent second-level cache behind
    :class:`~repro.service.ruleset.RulesetManager` and the incremental
    compiler's per-component artifacts.

Quick use::

    from repro.compile import compile_ruleset, CompiledArtifact

    compiled = compile_ruleset(automaton)
    CompiledArtifact.from_compiled(compiled).save("snort.npz")
    # ... any other process, later ...
    engine = CompiledArtifact.load("snort.npz").engine()
"""

from repro.compile.artifact import ARTIFACT_FORMAT_VERSION, CompiledArtifact
from repro.compile.fingerprint import (
    component_fingerprint,
    composition_key,
    ruleset_fingerprint,
)
from repro.compile.incremental import (
    ComposedRuleset,
    IncrementalCompiler,
    apply_update,
    incremental_compile,
)
from repro.compile.ir import (
    CompiledRuleset,
    PassTiming,
    PipelineOptions,
    PipelineState,
)
from repro.compile.passes import DEFAULT_PASSES, CompilePass, load_source
from repro.compile.pipeline import Pipeline, compile_ruleset
from repro.compile.store import (
    DEFAULT_STORE_BYTES,
    ArtifactStore,
    StoreStats,
    remote_fetcher,
)

__all__ = [
    "ARTIFACT_FORMAT_VERSION",
    "ArtifactStore",
    "CompilePass",
    "CompiledArtifact",
    "CompiledRuleset",
    "ComposedRuleset",
    "DEFAULT_PASSES",
    "DEFAULT_STORE_BYTES",
    "IncrementalCompiler",
    "PassTiming",
    "Pipeline",
    "PipelineOptions",
    "PipelineState",
    "StoreStats",
    "apply_update",
    "component_fingerprint",
    "compile_ruleset",
    "composition_key",
    "incremental_compile",
    "load_source",
    "remote_fetcher",
    "ruleset_fingerprint",
]
