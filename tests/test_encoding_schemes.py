"""Tests for the code families: One-Zero, Multi-Zeros, prefix schemes."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.automata.symbols import SymbolClass
from repro.core.encoding.base import cam_match
from repro.core.encoding.multi_zeros import MultiZerosEncoding, multi_zeros_length
from repro.core.encoding.one_zero import OneZeroEncoding
from repro.core.encoding.prefix import (
    build_prefix_encoding,
    one_zero_prefix_params,
    two_zeros_prefix_params,
)
from repro.errors import EncodingError
from repro.utils.bitvec import popcount


def ascii_alphabet(n: int) -> SymbolClass:
    return SymbolClass.from_symbols(range(n))


class TestCamMatch:
    def test_equal_codes_match(self):
        assert cam_match(0b0111, 0b0111)

    def test_stored_zero_is_dont_care(self):
        assert cam_match(0b0011, 0b0111)

    def test_stored_one_requires_input_one(self):
        assert not cam_match(0b0111, 0b0011)

    def test_fixed_weight_codes_never_cross_match(self):
        # pigeonhole: two distinct equal-weight codes mismatch both ways
        a, b = 0b01011, 0b01101
        assert not cam_match(a, b)
        assert not cam_match(b, a)


class TestOneZero:
    def test_code_length_equals_alphabet(self):
        enc = OneZeroEncoding(ascii_alphabet(7))
        assert enc.code_length == 7

    def test_single_zero_per_code(self):
        enc = OneZeroEncoding(ascii_alphabet(5))
        for symbol in enc.alphabet:
            assert popcount(enc.symbol_code(symbol)) == 4

    def test_validates(self):
        OneZeroEncoding(ascii_alphabet(16)).validate()

    def test_distinct_codes(self):
        enc = OneZeroEncoding(ascii_alphabet(10))
        codes = {enc.symbol_code(s) for s in enc.alphabet}
        assert len(codes) == 10

    def test_unencodable_symbol_rejected(self):
        enc = OneZeroEncoding(ascii_alphabet(4))
        with pytest.raises(EncodingError):
            enc.symbol_code(200)

    def test_match_set_of_single_code(self):
        enc = OneZeroEncoding(ascii_alphabet(6))
        assert set(enc.match_set(enc.symbol_code(3))) == {3}

    def test_match_set_of_merged_codes(self):
        enc = OneZeroEncoding(ascii_alphabet(6))
        merged = enc.symbol_code(1) & enc.symbol_code(4)
        assert set(enc.match_set(merged)) == {1, 4}

    def test_empty_alphabet_rejected(self):
        with pytest.raises(EncodingError):
            OneZeroEncoding(SymbolClass.empty())


class TestMultiZeros:
    def test_eq1_paper_value(self):
        # the paper's Brill/Hamming/Levenshtein code length for A=256
        assert multi_zeros_length(256) == 11

    def test_eq1_small(self):
        assert multi_zeros_length(2) == 2
        assert multi_zeros_length(6) == 4
        assert multi_zeros_length(252) == 10

    def test_balanced_weight(self):
        enc = MultiZerosEncoding(ascii_alphabet(256))
        assert enc.code_length == 11
        for symbol in [0, 100, 255]:
            assert popcount(enc.symbol_code(symbol)) == 11 - 5

    def test_validates(self):
        MultiZerosEncoding(ascii_alphabet(256)).validate()

    def test_explicit_length(self):
        enc = MultiZerosEncoding(ascii_alphabet(4), length=4)
        assert enc.code_length == 4

    def test_too_short_length_rejected(self):
        with pytest.raises(EncodingError):
            MultiZerosEncoding(ascii_alphabet(256), length=10)

    def test_match_set_singleton(self):
        enc = MultiZerosEncoding(ascii_alphabet(64))
        assert set(enc.match_set(enc.symbol_code(17))) == {17}


class TestPrefixEncodings:
    def build(self, zeros: int = 2, ls: int = 4, lp: int = 5, n: int = 24):
        symbols = list(range(n))
        clusters = [symbols[i : i + ls] for i in range(0, n, ls)]
        return build_prefix_encoding(clusters, ls, lp, zeros)

    def test_code_length(self):
        assert self.build().code_length == 9

    def test_fixed_weight(self):
        enc = self.build()
        weights = {popcount(enc.symbol_code(s)) for s in enc.alphabet}
        assert weights == {9 - 3}  # ls-1 suffix ones + lp-2 prefix ones... total

    def test_validates_both_shapes(self):
        self.build(zeros=2).validate()
        self.build(zeros=1, lp=6).validate()

    def test_same_cluster_shares_prefix(self):
        enc = self.build()
        mask = ((1 << 5) - 1) << 4
        assert enc.symbol_code(0) & mask == enc.symbol_code(3) & mask
        assert enc.symbol_code(0) & mask != enc.symbol_code(4) & mask

    def test_cluster_of(self):
        enc = self.build()
        assert enc.cluster_of(0) == 0
        assert enc.cluster_of(5) == 1

    def test_oversized_cluster_rejected(self):
        with pytest.raises(EncodingError):
            build_prefix_encoding([[0, 1, 2]], 2, 4, 2)

    def test_duplicate_symbol_rejected(self):
        with pytest.raises(EncodingError):
            build_prefix_encoding([[1], [1]], 2, 4, 2)

    def test_cluster_budget_enforced(self):
        # lp=3, two zeros -> C(3,2)=3 clusters max
        clusters = [[i] for i in range(4)]
        with pytest.raises(EncodingError):
            build_prefix_encoding(clusters, 2, 3, 2)

    def test_match_set_suffix_merge(self):
        enc = self.build()
        merged = enc.symbol_code(0) & enc.symbol_code(1)
        assert set(enc.match_set(merged)) == {0, 1}

    def test_compress_groups_by_prefix(self):
        enc = self.build(ls=4)
        codes = [enc.symbol_code(s) for s in [0, 1, 4, 5]]
        groups = enc.compress_groups(codes)
        assert sorted(len(g) for g in groups) == [2, 2]


class TestEq2:
    def test_paper_example_s5_a256(self):
        # §V.B: S=5, A=256 -> L=16
        ls, lp = two_zeros_prefix_params(256, 5.0)
        assert ls + lp == 16

    def test_tcp_like(self):
        ls, lp = two_zeros_prefix_params(256, 1.28)
        assert ls + lp == 16

    def test_ranges1_like(self):
        # A=115, S=1.29 -> 13 (Table II)
        ls, lp = two_zeros_prefix_params(115, 1.29)
        assert ls + lp == 13

    def test_ranges05_like(self):
        # A=107, S=1.21 -> 12 (Table II)
        ls, lp = two_zeros_prefix_params(107, 1.21)
        assert ls + lp == 12

    def test_infeasible_when_s_exceeds_sqrt_a(self):
        # RandomForest: S ~ 51.55 > sqrt(256)
        assert two_zeros_prefix_params(256, 51.55) is None

    def test_one_zero_prefix_256(self):
        ls, lp = one_zero_prefix_params(256)
        assert (ls, lp) == (16, 16)

    def test_one_zero_prefix_capacity(self):
        for a in [4, 30, 100, 200]:
            ls, lp = one_zero_prefix_params(a)
            assert ls * lp >= a

    def test_capacity_invariant_two_zeros(self):
        from math import comb

        for a, s in [(256, 2.0), (115, 1.3), (200, 4.0)]:
            ls, lp = two_zeros_prefix_params(a, s)
            assert comb(lp, 2) * ls >= a


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=2, max_value=256))
def test_eq1_is_minimal(alphabet_size):
    from math import comb

    length = multi_zeros_length(alphabet_size)
    assert comb(length, length // 2) >= alphabet_size
    if length > 1:
        assert comb(length - 1, (length - 1) // 2) < alphabet_size


def _encoding_of(scheme: str, alphabet: SymbolClass):
    from repro.core.encoding.clustering import identity_clusters

    size = len(alphabet)
    if scheme == "one-zero":
        return OneZeroEncoding(alphabet)
    if scheme == "multi-zeros":
        return MultiZerosEncoding(alphabet)
    if scheme == "two-zeros-prefix":
        ls, lp = two_zeros_prefix_params(size, 1.0)
        zeros = 2
    else:
        ls, lp = one_zero_prefix_params(size)
        zeros = 1
    return build_prefix_encoding(identity_clusters(alphabet, ls), ls, lp, zeros)


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(
        ["one-zero", "multi-zeros", "two-zeros-prefix", "one-zero-prefix"]
    ),
    st.sets(st.integers(0, 255), min_size=4, max_size=64),
    st.data(),
)
def test_match_set_equals_brute_force(scheme, symbols, data):
    """``match_set(stored)`` is exactly the alphabet symbols whose code
    has a '1' wherever ``stored`` has one, for any AND of member codes."""
    alphabet = SymbolClass.from_symbols(symbols)
    encoding = _encoding_of(scheme, alphabet)
    members = data.draw(
        st.lists(st.sampled_from(sorted(symbols)), min_size=1, max_size=6)
    )
    stored = encoding.symbol_code(members[0])
    for symbol in members[1:]:
        stored &= encoding.symbol_code(symbol)
    expected = {
        s for s in alphabet if stored & ~encoding.symbol_code(s) == 0
    }
    assert set(encoding.match_set(stored)) == expected
    assert set(members) <= expected
