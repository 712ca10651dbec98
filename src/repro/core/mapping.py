"""Greedy mapping of a homogeneous NFA onto the CAMA fabric (§IV, §VI).

The mapper mirrors the paper's flow:

1. split the automaton into connected components (transitions never
   cross CCs);
2. order each CC breadth-first from its start states, which places most
   transitions near the diagonal (the eAP observation);
3. classify each CC: if every transition fits the RCB band
   (|Δposition| <= k_dia = 43) it is RCB-eligible, otherwise it needs
   FCB-mode tiles; a code length > 16 forces 32-bit mode for the whole
   automaton (both CAM sub-arrays hold one 32-bit word);
4. cut oversized CCs into switch-sized chunks (chunk-crossing edges are
   routed through the global switch and must respect the 16-in/16-out
   port budget of each local switch);
5. first-fit-decreasing pack chunks into local switches, pair switches
   into tiles, and group tiles 8-per-array, each array sharing one
   256x256 global switch.

Capacities per local switch:

=========  ==========  ============  =================
mode       states      CAM entries   physical switch
=========  ==========  ============  =================
rcb        256         256           128x128 (RCB remap, band 43)
fcb        128         128           128x128 full crossbar (half tile)
=========  ==========  ============  =================

In 16-bit FCB mode only one CAM sub-array of the tile is powered and
its 256 entries are split between the tile's two 128-state domains; in
32-bit mode both sub-arrays hold one logical 32-row x 256-entry CAM,
split the same way.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.automata.analysis import bfs_order, connected_components
from repro.automata.nfa import Automaton
from repro.core.encoding.base import Encoding
from repro.core.encoding.negation import StateEncoding
from repro.core.rrcb import CAMA_KDIA, FCB_POSITIONS, GLOBAL_PORTS, RCB_POSITIONS
from repro.errors import MappingError
from repro.sim.trace import PartitionAssignment

#: tiles per array; one array shares one 256x256 global switch
TILES_PER_ARRAY = 8
SWITCHES_PER_TILE = 2


@dataclass
class SwitchPlan:
    """One local switch (128x128 RRCB) with its placed states."""

    index: int
    mode: str  # "rcb" | "fcb"
    capacity_states: int
    capacity_entries: int
    states: list[int] = field(default_factory=list)
    entry_count: int = 0
    in_signals: int = 0
    out_signals: int = 0

    @property
    def used_states(self) -> int:
        return len(self.states)

    def fits(self, num_states: int, num_entries: int, inp: int, out: int) -> bool:
        return (
            self.used_states + num_states <= self.capacity_states
            and self.entry_count + num_entries <= self.capacity_entries
            and self.in_signals + inp <= GLOBAL_PORTS
            and self.out_signals + out <= GLOBAL_PORTS
        )


@dataclass
class TilePlan:
    """One tile: two stacked local switches + two 16x256 CAM sub-arrays."""

    index: int
    mode: str  # "rcb16" | "fcb16" | "mode32"
    switch_indices: list[int]

    @property
    def active_cam_subarrays(self) -> int:
        """Sub-arrays powered: 2 in rcb16 (one per switch), 1 in fcb16
        (the other is power-gated), 2 in mode32 (one logical CAM)."""
        return 1 if self.mode == "fcb16" else 2


@dataclass
class CamaMapping:
    """The full placement of one automaton onto CAMA."""

    automaton_name: str
    code_length: int
    switches: list[SwitchPlan]
    tiles: list[TilePlan]
    #: switch index per state
    state_switch: np.ndarray
    #: position of each state inside its switch
    state_position: np.ndarray
    #: CAM entries per state
    state_entries: np.ndarray
    #: transitions routed through the global switch
    cross_edges: list[tuple[int, int]]
    #: number of 256x256 global switches in use
    num_global_switches: int
    #: chunks whose boundary cut exceeded the 16-signal port budget
    oversubscribed_ports: int

    # -- Table V quantities ------------------------------------------------
    @property
    def num_rcb_switches(self) -> int:
        """Used RCB-mode local switches (tile-padding empties excluded)."""
        return sum(1 for s in self.switches if s.mode == "rcb" and s.states)

    @property
    def num_fcb_switches(self) -> int:
        """Used FCB-mode local switches (128-state domains)."""
        return sum(1 for s in self.switches if s.mode == "fcb" and s.states)

    @property
    def num_tiles(self) -> int:
        return len(self.tiles)

    @property
    def num_arrays(self) -> int:
        """Arrays provisioned (8 tiles each share one global switch)."""
        return -(-len(self.tiles) // TILES_PER_ARRAY)

    @property
    def num_banks(self) -> int:
        """Banks provisioned (16 arrays each, §VI.A's 65536-state unit)."""
        return -(-self.num_arrays // 16)

    @property
    def total_entries(self) -> int:
        return int(self.state_entries.sum())

    def tile_of_switch(self, switch_index: int) -> int:
        return switch_index // SWITCHES_PER_TILE

    def cam_units(self) -> tuple[dict[int, int], list[str]]:
        """(switch index -> CAM unit index, unit modes).

        A *CAM unit* is one state-matching access: in rcb16 mode each
        switch has its own 16x256 sub-array; in fcb16/mode32 the tile's
        two switches share one (16- or 32-row) CAM.
        """
        tile_mode = {t.index: t.mode for t in self.tiles}
        unit_of_switch: dict[int, int] = {}
        modes: list[str] = []
        seen_tiles: dict[int, int] = {}
        for switch in self.switches:
            tile = self.tile_of_switch(switch.index)
            mode = tile_mode[tile]
            if mode == "rcb16":
                unit_of_switch[switch.index] = len(modes)
                modes.append(mode)
            else:
                if tile not in seen_tiles:
                    seen_tiles[tile] = len(modes)
                    modes.append(mode)
                unit_of_switch[switch.index] = seen_tiles[tile]
        return unit_of_switch, modes

    def placement(self, unit: str = "cam") -> PartitionAssignment:
        """Partition assignment for the simulator's activity trace.

        ``unit="cam"`` partitions by CAM access unit (see
        :meth:`cam_units`); ``unit="switch"`` partitions by local switch.
        """
        if unit == "switch":
            return PartitionAssignment(
                partition_of=self.state_switch.copy(),
                num_partitions=len(self.switches),
                weights=self.state_entries.astype(np.float64),
            )
        if unit != "cam":
            raise MappingError(f"unknown placement unit: {unit!r}")
        unit_of_switch, modes = self.cam_units()
        partition = np.empty_like(self.state_switch)
        for state, switch_index in enumerate(self.state_switch):
            partition[state] = unit_of_switch[int(switch_index)]
        return PartitionAssignment(
            partition_of=partition,
            num_partitions=len(modes),
            weights=self.state_entries.astype(np.float64),
        )


def _boundary_signals(
    chunk: list[int],
    successors: list[list[int]],
    predecessors: list[list[int]],
) -> tuple[int, int]:
    """(in, out) global-switch signals of a chunk: its states with a
    predecessor / successor outside the chunk."""
    chunk_set = set(chunk)
    inp = sum(
        1
        for v in chunk_set
        if any(u not in chunk_set for u in predecessors[v])
    )
    out = sum(
        1
        for u in chunk_set
        if any(v not in chunk_set for v in successors[u])
    )
    return inp, out


def _chunk_component(
    order: list[int],
    successors: list[list[int]],
    predecessors: list[list[int]],
    entries_of: np.ndarray,
    max_states: int,
    max_entries: int,
) -> tuple[list[list[int]], int]:
    """Cut a BFS-ordered component into switch-sized chunks.

    Returns (chunks, oversubscribed): boundary cuts are moved earlier
    until the crossing-signal count fits the 16-port budget; if even a
    single-state reduction loop cannot satisfy it, the cut is accepted
    and counted as oversubscribed (diagnosed, not fatal, mirroring the
    paper's dense benchmarks that stress global routing).
    """
    chunks: list[list[int]] = []
    oversubscribed = 0
    start = 0
    n = len(order)
    while start < n:
        # widest prefix satisfying the state/entry budgets
        end = start
        entry_sum = 0
        while end < n and (end - start) < max_states:
            cost = int(entries_of[order[end]])
            if entry_sum + cost > max_entries:
                break
            entry_sum += cost
            end += 1
        if end == start:
            raise MappingError(
                f"state {order[start]} needs {int(entries_of[order[start]])} "
                f"CAM entries, exceeding the switch budget of {max_entries}"
            )
        if end < n:
            # shrink until the boundary signal counts fit the port budget
            best = end
            while end > start + 1:
                inp, out = _boundary_signals(
                    order[start:end], successors, predecessors
                )
                if out <= GLOBAL_PORTS and inp <= GLOBAL_PORTS:
                    break
                end -= 1
            else:
                end = best
                oversubscribed += 1
        chunks.append(order[start:end])
        start = end
    return chunks, oversubscribed


def map_automaton(
    automaton: Automaton,
    encoding: Encoding,
    state_encodings: list[StateEncoding],
    *,
    kdia: int = CAMA_KDIA,
) -> CamaMapping:
    """Place ``automaton`` onto the CAMA fabric (see module docstring)."""
    n = len(automaton)
    if len(state_encodings) != n:
        raise MappingError("state_encodings length must match automaton size")
    entries_of = np.array([se.num_entries for se in state_encodings], dtype=np.int64)
    mode32 = encoding.code_length > 16
    if encoding.code_length > 32:
        raise MappingError(
            f"code length {encoding.code_length} exceeds the 32-bit mode"
        )

    # one pass over the transitions builds both adjacency directions
    edges = automaton.transition_array()
    src, dst = edges[:, 0], edges[:, 1]
    successors: list[list[int]] = [[] for _ in range(n)]
    predecessors: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges.tolist():
        successors[u].append(v)
        predecessors[v].append(u)

    components = connected_components(automaton)
    orders = [bfs_order(automaton, component) for component in components]
    # band check for every component in one sweep: transitions never
    # cross components, so each edge belongs to its source's component
    position = np.zeros(n, dtype=np.int64)
    component_of = np.zeros(n, dtype=np.int64)
    for index, order in enumerate(orders):
        position[order] = np.arange(len(order))
        component_of[order] = index
    band_ok = np.ones(len(orders), dtype=bool)
    band_ok[component_of[src[np.abs(position[src] - position[dst]) > kdia]]] = False

    rcb_chunks: list[list[int]] = []
    fcb_chunks: list[list[int]] = []
    oversubscribed = 0
    for order, ok in zip(orders, band_ok.tolist()):
        rcb = ok and not mode32
        positions = RCB_POSITIONS if rcb else FCB_POSITIONS
        chunks, over = _chunk_component(
            order, successors, predecessors, entries_of, positions, positions
        )
        (rcb_chunks if rcb else fcb_chunks).extend(chunks)
        oversubscribed += over

    state_switch = np.full(n, -1, dtype=np.int64)
    state_position = np.full(n, -1, dtype=np.int64)

    def pack(chunks: list[list[int]], mode: str) -> list[SwitchPlan]:
        capacity_states = RCB_POSITIONS if mode == "rcb" else FCB_POSITIONS
        capacity_entries = RCB_POSITIONS if mode == "rcb" else FCB_POSITIONS
        plans: list[SwitchPlan] = []
        # first-fit decreasing by state count
        for chunk in sorted(chunks, key=len, reverse=True):
            chunk_entries = int(entries_of[chunk].sum())
            inp, out = _boundary_signals(chunk, successors, predecessors)
            target = None
            for plan in plans:
                if plan.fits(len(chunk), chunk_entries, inp, out):
                    target = plan
                    break
            if target is None:
                target = SwitchPlan(
                    index=-1,  # assigned after both modes are packed
                    mode=mode,
                    capacity_states=capacity_states,
                    capacity_entries=capacity_entries,
                )
                plans.append(target)
            offset = target.used_states
            for i, state in enumerate(chunk):
                state_switch[state] = id(target)  # temporary: plan identity
                state_position[state] = offset + i
            target.states.extend(chunk)
            target.entry_count += chunk_entries
            target.in_signals += inp
            target.out_signals += out
        return plans

    rcb_plans = pack(rcb_chunks, "rcb")
    fcb_plans = pack(fcb_chunks, "fcb")

    # Assign dense switch indices: rcb switches first, then fcb, so that
    # tiles (consecutive pairs) are mode-homogeneous.
    plan_index: dict[int, int] = {}
    ordered = rcb_plans + fcb_plans
    if len(rcb_plans) % 2:
        # a tile cannot mix rcb and fcb switches: pad with an empty switch
        pad = SwitchPlan(
            index=-1,
            mode="rcb",
            capacity_states=RCB_POSITIONS,
            capacity_entries=RCB_POSITIONS,
        )
        ordered = rcb_plans + [pad] + fcb_plans
    for dense, plan in enumerate(ordered):
        plan.index = dense
        plan_index[id(plan)] = dense
    for state in range(n):
        if state_switch[state] >= 0:
            state_switch[state] = plan_index[int(state_switch[state])]

    tiles: list[TilePlan] = []
    for tile_index in range(0, len(ordered), SWITCHES_PER_TILE):
        pair = ordered[tile_index : tile_index + SWITCHES_PER_TILE]
        if pair[0].mode == "rcb":
            mode = "rcb16"
        else:
            mode = "mode32" if mode32 else "fcb16"
        tiles.append(
            TilePlan(
                index=tile_index // SWITCHES_PER_TILE,
                mode=mode,
                switch_indices=[p.index for p in pair],
            )
        )

    crossing = state_switch[src] != state_switch[dst]
    cross_edges = [tuple(edge) for edge in edges[crossing].tolist()]
    arrays_used = set(
        (
            state_switch[np.concatenate((src[crossing], dst[crossing]))]
            // (SWITCHES_PER_TILE * TILES_PER_ARRAY)
        ).tolist()
    )

    return CamaMapping(
        automaton_name=automaton.name,
        code_length=encoding.code_length,
        switches=ordered,
        tiles=tiles,
        state_switch=state_switch,
        state_position=state_position,
        state_entries=entries_of,
        cross_edges=cross_edges,
        num_global_switches=len(arrays_used),
        oversubscribed_ports=oversubscribed,
    )
