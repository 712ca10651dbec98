"""Structural invariants of CAMA mappings, checked across benchmarks.

These tie the mapper to the physical fabric models: every placement the
compiler emits must be realizable on the actual switch/CAM structures
(positions within capacity, RCB band respected, intra-switch edges
programmable on a LocalSwitch, CAM entry budgets met).
"""

import numpy as np
import pytest

from repro.core.rrcb import CAMA_KDIA, LocalSwitch
from repro.workloads import get_benchmark

SCALE = 1.0 / 64.0
NAMES = ("Brill", "TCP", "Snort", "RandomForest", "EntityResolution", "SPM")


@pytest.fixture(scope="module", params=NAMES)
def compiled(request):
    from repro.core.compiler import compile_automaton

    benchmark = get_benchmark(request.param, scale=SCALE)
    return benchmark.automaton, compile_automaton(benchmark.automaton)


class TestPlacementInvariants:
    def test_every_state_placed(self, compiled):
        _, program = compiled
        assert (program.mapping.state_switch >= 0).all()
        assert (program.mapping.state_position >= 0).all()

    def test_positions_unique_within_switch(self, compiled):
        _, program = compiled
        mapping = program.mapping
        seen = set()
        for state in range(len(program.automaton)):
            key = (int(mapping.state_switch[state]), int(mapping.state_position[state]))
            assert key not in seen
            seen.add(key)

    def test_switch_capacities_respected(self, compiled):
        _, program = compiled
        for switch in program.mapping.switches:
            assert switch.used_states <= switch.capacity_states
            assert switch.entry_count <= switch.capacity_entries

    def test_entry_counts_consistent(self, compiled):
        _, program = compiled
        mapping = program.mapping
        per_switch = np.zeros(len(mapping.switches), dtype=np.int64)
        for state in range(len(program.automaton)):
            per_switch[mapping.state_switch[state]] += mapping.state_entries[state]
        for switch in mapping.switches:
            assert per_switch[switch.index] == switch.entry_count

    def test_rcb_band_respected(self, compiled):
        automaton, program = compiled
        mapping = program.mapping
        modes = {s.index: s.mode for s in mapping.switches}
        for u, v in automaton.transitions():
            su, sv = mapping.state_switch[u], mapping.state_switch[v]
            if su != sv:
                continue  # global-routed
            if modes[int(su)] != "rcb":
                continue
            delta = abs(
                int(mapping.state_position[u]) - int(mapping.state_position[v])
            )
            assert delta <= CAMA_KDIA, (u, v)

    def test_intra_switch_edges_programmable(self, compiled):
        automaton, program = compiled
        mapping = program.mapping
        switches = {
            plan.index: LocalSwitch(plan.mode) for plan in mapping.switches
        }
        for u, v in automaton.transitions():
            su, sv = int(mapping.state_switch[u]), int(mapping.state_switch[v])
            if su != sv:
                continue
            switches[su].program(
                int(mapping.state_position[u]), int(mapping.state_position[v])
            )

    def test_cross_edges_plus_local_edges_cover_all(self, compiled):
        automaton, program = compiled
        mapping = program.mapping
        cross = set(mapping.cross_edges)
        for u, v in automaton.transitions():
            local = mapping.state_switch[u] == mapping.state_switch[v]
            assert local != ((u, v) in cross)

    def test_tiles_are_mode_homogeneous(self, compiled):
        _, program = compiled
        mapping = program.mapping
        for tile in mapping.tiles:
            modes = {mapping.switches[i].mode for i in tile.switch_indices}
            assert len(modes) == 1

    def test_cam_units_cover_all_switches(self, compiled):
        _, program = compiled
        unit_of_switch, unit_modes = program.mapping.cam_units()
        assert set(unit_of_switch) == {
            s.index for s in program.mapping.switches
        }
        assert set(unit_of_switch.values()) == set(range(len(unit_modes)))

    def test_mode32_iff_long_code(self, compiled):
        _, program = compiled
        has_mode32 = any(t.mode == "mode32" for t in program.mapping.tiles)
        assert has_mode32 == (program.code_length > 16)


def _banded_chain(seed: int = 0, n: int = 900, extra: int = 300, span: int = 60):
    """One large component with long forward edges: it maps to FCB
    chunks whose boundaries carry hundreds of global-switch signals."""
    import random

    from repro.automata.nfa import Automaton, StartKind

    rng = random.Random(seed)
    automaton = Automaton(name="banded-chain")
    for i in range(n):
        automaton.add_state(
            chr(97 + rng.randrange(26)),
            start=StartKind.ALL_INPUT if i == 0 else StartKind.NONE,
            reporting=i % 50 == 49,
        )
    for i in range(1, n):
        automaton.add_transition(i - 1, i)
    for _ in range(extra):
        u = rng.randrange(n)
        automaton.add_transition(u, min(n - 1, u + rng.randrange(1, span)))
    return automaton


@pytest.mark.parametrize(
    "name", ["ClamAV", "Snort", "SPM", "RandomForest", "banded-chain"]
)
def test_switch_signals_match_naive_recount(name):
    """Each switch's global in/out signal counts equal a recount from
    the automaton's own successor and predecessor sets."""
    from repro.core.compiler import compile_automaton

    if name == "banded-chain":
        automaton = _banded_chain()
    else:
        automaton = get_benchmark(name, scale=1.0 / 32.0).automaton
    mapping = compile_automaton(automaton).mapping
    total = 0
    for switch in mapping.switches:
        placed = set(switch.states)
        inp = sum(
            1
            for v in placed
            if any(u not in placed for u in automaton.predecessors(v))
        )
        out = sum(
            1
            for u in placed
            if any(v not in placed for v in automaton.successors(u))
        )
        assert (switch.in_signals, switch.out_signals) == (inp, out)
        total += inp
    if name in ("RandomForest", "banded-chain"):
        assert total > 0  # the recount is exercised, not vacuous
