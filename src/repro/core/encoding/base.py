"""Code words and the 8T-CAM match semantics (paper §IV.A, §V.A).

CAMA re-purposes 8T SRAM cells as CAM cells with a *single* search
line per cell.  After the input encoder's built-in inversion, the
effective matching rule is:

    a stored '1' requires the input bit to be '1';
    a stored '0' is a don't-care.

so an entry matches iff ``stored & ~input == 0`` (:func:`cam_match`).
All single-symbol codes within one encoding have the same Hamming
weight; by the pigeonhole principle two *different* equal-weight codes
always produce at least one (stored 1, input 0) position, so exact-match
behaviour is preserved without differential search lines.

*Compression* stores the bitwise AND of several member codes, turning
the positions where members disagree into don't-cares.  An entry set
for a symbol class is **exact** when the union of the entries' match
sets equals the class; :mod:`repro.core.encoding.compression` enforces
this invariant.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from functools import cached_property

import numpy as np

from repro.automata.symbols import SymbolClass
from repro.errors import EncodingError
from repro.utils.bitvec import bit_positions, popcount


def cam_match(stored: int, input_code: int) -> bool:
    """True iff a CAM entry holding ``stored`` matches ``input_code``."""
    return stored & ~input_code == 0


class Encoding(ABC):
    """A fixed-weight code over some alphabet of 8-bit symbols.

    Concrete encodings (One-Zero, Multi-Zeros, Two-Zeros-Prefix,
    One-Zero-Prefix) assign every alphabet symbol a ``code_length``-bit
    code word with a fixed number of '0's.  Codes are Python ints with
    bit ``i`` = code position ``i``.
    """

    #: short scheme identifier, e.g. "two-zeros-prefix"
    name: str = "encoding"

    @property
    @abstractmethod
    def code_length(self) -> int:
        """Number of code bits (CAM rows used per entry)."""

    @property
    @abstractmethod
    def alphabet(self) -> SymbolClass:
        """The symbols this encoding can represent."""

    @abstractmethod
    def symbol_code(self, symbol: int) -> int:
        """Code word of ``symbol``; raises EncodingError if unencodable."""

    # -- shared machinery -------------------------------------------------
    @cached_property
    def _bit_members(self) -> list[int]:
        """``members[i]``: symbol mask of the codes with bit ``i`` set."""
        members = [0] * self.code_length
        for symbol in self.alphabet:
            for i in bit_positions(self.symbol_code(symbol)):
                members[i] |= 1 << symbol
        return members

    @cached_property
    def _code_array(self) -> np.ndarray:
        codes = np.zeros(256, dtype=np.uint64)
        for symbol in self.alphabet:
            codes[symbol] = self.symbol_code(symbol)
        return codes

    def input_code(self, symbol: int) -> int:
        """Search-line pattern for an input symbol.

        Symbols outside the alphabet return 0, which matches no
        (non-zero) stored entry; the hardware encoder additionally
        raises a miss flag for them (see ``InputEncoder``).
        """
        if not 0 <= symbol < 256:
            raise EncodingError(f"input symbol out of range: {symbol}")
        if symbol not in self.alphabet:
            return 0
        return int(self._code_array[symbol])

    def match_set(self, stored: int) -> SymbolClass:
        """All alphabet symbols whose codes match a stored entry.

        The match rule ``stored & ~code == 0`` (``~`` within the code
        length) says every stored '1' needs a code '1', so the match set
        is the alphabet intersected with the members of each stored bit.
        """
        mask = self.alphabet.mask
        members = self._bit_members
        for i in bit_positions(stored & ((1 << self.code_length) - 1)):
            mask &= members[i]
        return SymbolClass(mask)

    @cached_property
    def weight(self) -> int:
        """Hamming weight shared by all single-symbol codes."""
        symbols = self.alphabet.symbols()
        weights = {popcount(self.symbol_code(s)) for s in symbols}
        if len(weights) != 1:
            raise EncodingError(
                f"{self.name}: symbol codes do not have fixed weight: {weights}"
            )
        return weights.pop()

    def compress_groups(self, codes: list[int]) -> list[list[int]]:
        """Partition ``codes`` into groups that are *guaranteed* to be
        exactly mergeable by AND.  The default is the safe trivial
        partition; subclasses override with their structural fast path.
        """
        return [[code] for code in codes]

    def validate(self) -> None:
        """Check the fixed-weight and uniqueness invariants."""
        seen: dict[int, int] = {}
        for symbol in self.alphabet:
            code = self.symbol_code(symbol)
            if code <= 0 or code >= 1 << self.code_length:
                raise EncodingError(
                    f"{self.name}: code of symbol {symbol} out of range"
                )
            if code in seen:
                raise EncodingError(
                    f"{self.name}: symbols {seen[code]} and {symbol} share a code"
                )
            seen[code] = symbol
        _ = self.weight  # raises on non-fixed weight

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(L={self.code_length}, "
            f"A={len(self.alphabet)})"
        )
