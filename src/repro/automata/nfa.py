"""Homogeneous (ANML-style) non-deterministic finite automata.

A homogeneous NFA attaches the accepted symbol class to the *state*
rather than to each edge: a state s with class C(s) becomes active at
cycle t iff (a) some predecessor was active at cycle t-1 (or s is a
start state enabled at t) and (b) the input symbol at t is in C(s).
This is the automaton model of the Micron AP, Cache Automaton, Impala,
eAP and CAMA; the paper calls states *STEs* (state transition
elements).
"""

from __future__ import annotations

import enum
import hashlib
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field

import numpy as np

from repro.automata.symbols import SymbolClass
from repro.errors import AutomatonError


def edge_array(successors: list[set[int]]) -> np.ndarray:
    """All transitions as an ``(E, 2)`` little-endian int64 array.

    Rows are ``(src, dst)`` in :meth:`Automaton.transitions` order
    (sources ascending, successors sorted), so ``tobytes()`` is exactly
    the concatenation of every edge's two 8-byte little-endian ids.
    """
    flat = [v for succ in successors for v in sorted(succ)]
    edges = np.empty((len(flat), 2), dtype="<i8")
    edges[:, 0] = np.repeat(
        np.arange(len(successors), dtype=np.int64),
        [len(succ) for succ in successors],
    )
    edges[:, 1] = flat
    return edges


def edges_digest(
    num_states: int, successors: list[set[int]], salt: bytes = b""
) -> str:
    """Hex digest of a dense-id transition structure.

    The one hashing scheme behind every ``structure_fingerprint`` —
    :class:`Automaton` and :class:`~repro.automata.striding.
    StridedAutomaton` share it so their cache keyspaces can never
    drift apart.
    """
    h = hashlib.sha256()
    h.update(salt)
    h.update(num_states.to_bytes(8, "little"))
    h.update(edge_array(successors).tobytes())
    return h.hexdigest()


class StartKind(enum.Enum):
    """When a state is self-enabled, independent of its predecessors."""

    NONE = "none"
    #: enabled on every input symbol (ANML ``start-of-input="all-input"``)
    ALL_INPUT = "all-input"
    #: enabled only on the first symbol of the stream
    START_OF_DATA = "start-of-data"


@dataclass
class STE:
    """One state transition element of a homogeneous NFA.

    Attributes:
        ste_id: dense integer id, equal to the state's index in its
            :class:`Automaton`.
        symbol_class: the set of symbols this state matches.
        start: whether/how the state self-enables.
        reporting: whether an activation of this state emits a report.
        report_code: opaque label attached to reports (ANML allows one).
        name: optional human-readable name preserved from ANML/MNRL.
    """

    ste_id: int
    symbol_class: SymbolClass
    start: StartKind = StartKind.NONE
    reporting: bool = False
    report_code: str | None = None
    name: str | None = None

    def label(self) -> str:
        return self.name if self.name is not None else f"ste{self.ste_id}"


@dataclass
class Automaton:
    """A homogeneous NFA: STEs plus an STE-to-STE transition relation.

    Transitions are stored as forward adjacency ``successors[u] = {v}``.
    States are created through :meth:`add_state` so ids stay dense, which
    the simulator and mapper rely on.
    """

    name: str = "automaton"
    states: list[STE] = field(default_factory=list)
    _successors: list[set[int]] = field(default_factory=list)
    #: bumped on every structural mutation; invalidates cached fingerprints
    _mutations: int = field(default=0, repr=False, compare=False)
    _fingerprint: tuple[int, str] | None = field(
        default=None, repr=False, compare=False
    )

    # -- construction ---------------------------------------------------
    def add_state(
        self,
        symbol_class: SymbolClass | str,
        *,
        start: StartKind = StartKind.NONE,
        reporting: bool = False,
        report_code: str | None = None,
        name: str | None = None,
    ) -> STE:
        """Create a state and return it; its id is assigned densely."""
        if isinstance(symbol_class, str):
            symbol_class = SymbolClass.parse(symbol_class)
        if not symbol_class:
            raise AutomatonError("a state must accept at least one symbol")
        ste = STE(
            ste_id=len(self.states),
            symbol_class=symbol_class,
            start=start,
            reporting=reporting,
            report_code=report_code,
            name=name,
        )
        self.states.append(ste)
        self._successors.append(set())
        self._mutations += 1
        return ste

    def add_transition(self, src: int | STE, dst: int | STE) -> None:
        """Add the transition ``src -> dst`` (idempotent)."""
        u = src.ste_id if isinstance(src, STE) else src
        v = dst.ste_id if isinstance(dst, STE) else dst
        n = len(self.states)
        if not (0 <= u < n and 0 <= v < n):
            raise AutomatonError(f"transition ({u}, {v}) references unknown state")
        self._successors[u].add(v)
        self._mutations += 1

    # -- accessors ------------------------------------------------------
    def __len__(self) -> int:
        return len(self.states)

    def structure_fingerprint(self) -> str:
        """Hex digest of the transition *structure* (ids + edges only).

        Keys structure-derived caches — e.g. the successor CSR shared
        across engine compilations — so it deliberately excludes symbol
        classes, start kinds and reporting flags; use
        :func:`repro.service.ruleset.ruleset_fingerprint` to key
        *language*-derived artifacts.  Cached until the next structural
        mutation.
        """
        if self._fingerprint is not None and self._fingerprint[0] == self._mutations:
            return self._fingerprint[1]
        digest = edges_digest(len(self.states), self._successors)
        self._fingerprint = (self._mutations, digest)
        return digest

    def successors(self, ste_id: int) -> frozenset[int]:
        return frozenset(self._successors[ste_id])

    def predecessors(self, ste_id: int) -> frozenset[int]:
        return frozenset(
            u for u in range(len(self.states)) if ste_id in self._successors[u]
        )

    def transitions(self) -> Iterator[tuple[int, int]]:
        """Yield all transitions as (src, dst) pairs."""
        for u, succ in enumerate(self._successors):
            for v in sorted(succ):
                yield u, v

    def transition_array(self) -> np.ndarray:
        """All transitions as an ``(E, 2)`` array (see :func:`edge_array`)."""
        return edge_array(self._successors)

    def num_transitions(self) -> int:
        return sum(len(s) for s in self._successors)

    def start_states(self) -> list[STE]:
        return [s for s in self.states if s.start is not StartKind.NONE]

    def reporting_states(self) -> list[STE]:
        return [s for s in self.states if s.reporting]

    # -- validation -----------------------------------------------------
    def validate(self) -> None:
        """Raise :class:`AutomatonError` unless the automaton is usable.

        A usable automaton has at least one start state, at least one
        reporting state, dense consistent ids, and no state that is
        unreachable from every start state.
        """
        if not self.states:
            raise AutomatonError(f"{self.name}: automaton has no states")
        for i, ste in enumerate(self.states):
            if ste.ste_id != i:
                raise AutomatonError(
                    f"{self.name}: state at index {i} has id {ste.ste_id}"
                )
            if not ste.symbol_class:
                raise AutomatonError(
                    f"{self.name}: state {ste.label()} has an empty symbol class"
                )
        if not self.start_states():
            raise AutomatonError(f"{self.name}: automaton has no start state")
        if not self.reporting_states():
            raise AutomatonError(f"{self.name}: automaton has no reporting state")
        unreachable = self.unreachable_states()
        if unreachable:
            sample = ", ".join(str(i) for i in sorted(unreachable)[:5])
            raise AutomatonError(
                f"{self.name}: {len(unreachable)} states unreachable from any "
                f"start state (e.g. {sample})"
            )

    def unreachable_states(self) -> set[int]:
        """Ids of states not reachable from any start state."""
        seen: set[int] = set()
        frontier = [s.ste_id for s in self.start_states()]
        seen.update(frontier)
        while frontier:
            nxt: list[int] = []
            for u in frontier:
                for v in self._successors[u]:
                    if v not in seen:
                        seen.add(v)
                        nxt.append(v)
            frontier = nxt
        return set(range(len(self.states))) - seen

    # -- convenience ----------------------------------------------------
    def merge(self, other: "Automaton") -> dict[int, int]:
        """Append ``other``'s states/transitions; return old-id -> new-id."""
        offset = len(self.states)
        remap: dict[int, int] = {}
        for ste in other.states:
            new = self.add_state(
                ste.symbol_class,
                start=ste.start,
                reporting=ste.reporting,
                report_code=ste.report_code,
                name=ste.name,
            )
            remap[ste.ste_id] = new.ste_id
        for u, v in other.transitions():
            self.add_transition(remap[u], remap[v])
        if offset == 0 and not remap:
            raise AutomatonError("cannot merge an empty automaton")
        return remap

    def subautomaton(self, state_ids: Iterable[int], name: str | None = None) -> "Automaton":
        """The induced sub-automaton on ``state_ids`` (ids are re-densified)."""
        keep = sorted(set(state_ids))
        remap = {old: new for new, old in enumerate(keep)}
        sub = Automaton(name=name or f"{self.name}.sub")
        for old in keep:
            ste = self.states[old]
            sub.add_state(
                ste.symbol_class,
                start=ste.start,
                reporting=ste.reporting,
                report_code=ste.report_code,
                name=ste.name,
            )
        for u, v in self.transitions():
            if u in remap and v in remap:
                sub.add_transition(remap[u], remap[v])
        return sub

    def average_symbol_class_size(self) -> float:
        """Mean |C(s)| over states — the paper's "symbol class size"."""
        if not self.states:
            return 0.0
        return sum(len(s.symbol_class) for s in self.states) / len(self.states)

    def alphabet(self) -> SymbolClass:
        """Union of all symbol classes — the automaton's live alphabet."""
        mask = 0
        for ste in self.states:
            mask |= ste.symbol_class.mask
        return SymbolClass(mask)

    def __repr__(self) -> str:
        return (
            f"Automaton({self.name!r}, states={len(self.states)}, "
            f"transitions={self.num_transitions()})"
        )
