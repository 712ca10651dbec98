"""The CAMA optimization framework (§V.B, §VI): NFA -> CamaProgram.

This is the toolchain the paper describes as "automatically analyzes
the homogeneous NFA in an MNRL/ANML file, and chooses the optimal
encoding scheme, the code length, and the CAMA operation mode", then
"maps the optimized NFA to the hardware".  The compiled program bundles
everything the functional machine and the architecture models need.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.automata.nfa import Automaton
from repro.core.encoding.encoder import InputEncoder
from repro.core.encoding.negation import StateEncoding
from repro.core.encoding.selection import (
    EncodingChoice,
    fixed_one_zero_prefix_encoding,
    select_encoding,
)
from repro.core.mapping import CamaMapping
from repro.sim.trace import PartitionAssignment


@dataclass
class CamaProgram:
    """A fully compiled automaton: encoding + state entries + placement."""

    automaton: Automaton
    choice: EncodingChoice
    state_encodings: list[StateEncoding]
    mapping: CamaMapping
    encoder: InputEncoder

    @property
    def code_length(self) -> int:
        return self.choice.code_length

    @property
    def total_entries(self) -> int:
        return self.mapping.total_entries

    @property
    def memory_bits(self) -> int:
        """State-matching bits = entries x code length (Table II)."""
        return self.total_entries * self.code_length

    @property
    def num_negated_states(self) -> int:
        return sum(1 for se in self.state_encodings if se.negated)

    def placement(self, unit: str = "cam") -> PartitionAssignment:
        return self.mapping.placement(unit)

    def summary(self) -> dict:
        """Human-readable compilation summary (used by examples/docs)."""
        return {
            "automaton": self.automaton.name,
            "states": len(self.automaton),
            "encoding": self.choice.scheme,
            "code_length": self.code_length,
            "cam_entries": self.total_entries,
            "negated_states": self.num_negated_states,
            "rcb_switches": self.mapping.num_rcb_switches,
            "fcb_switches": self.mapping.num_fcb_switches,
            "tiles": self.mapping.num_tiles,
            "global_switches": self.mapping.num_global_switches,
            "cross_edges": len(self.mapping.cross_edges),
        }


class CamaCompiler:
    """Compiles homogeneous NFAs to CAMA programs.

    Since the staged-pipeline refactor this class is a thin,
    backwards-compatible driver over :func:`repro.compile.pipeline.
    compile_ruleset`'s program passes (parse → optimize → stride →
    encode → map): it configures the encode/map passes and returns the
    assembled :class:`CamaProgram`.  Use the pipeline directly for pass
    timings, kernel tables, or serializable artifacts.

    Args:
        allow_negation: apply negation optimization (NO) per state.
        clustered: apply frequency-first symbol clustering.
        fixed_32bit: bypass selection and use the fixed 32-bit
            One-Zero-Prefix baseline of Table II.
    """

    def __init__(
        self,
        *,
        allow_negation: bool = True,
        clustered: bool = True,
        fixed_32bit: bool = False,
    ) -> None:
        self.allow_negation = allow_negation
        self.clustered = clustered
        self.fixed_32bit = fixed_32bit

    def select(self, automaton: Automaton) -> EncodingChoice:
        if self.fixed_32bit:
            return fixed_one_zero_prefix_encoding(
                automaton, clustered=self.clustered
            )
        return select_encoding(automaton, clustered=self.clustered)

    def options(self) -> "object":
        """This compiler's settings as program-only pipeline options."""
        # imported lazily: repro.compile assembles CamaProgram from here
        from repro.compile.ir import PipelineOptions

        return PipelineOptions(
            optimize=False,
            stride=1,
            allow_negation=self.allow_negation,
            clustered=self.clustered,
            fixed_32bit=self.fixed_32bit,
        )

    def compile(self, automaton: Automaton) -> CamaProgram:
        from repro.compile.passes import PROGRAM_PASSES
        from repro.compile.pipeline import Pipeline

        return Pipeline(PROGRAM_PASSES).run(automaton, self.options()).program


def compile_automaton(automaton: Automaton, **kwargs) -> CamaProgram:
    """Convenience wrapper: ``CamaCompiler(**kwargs).compile(automaton)``."""
    return CamaCompiler(**kwargs).compile(automaton)
