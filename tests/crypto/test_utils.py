"""Tests for the shared crypto helpers."""

import pytest

from repro.crypto.utils import (
    RandomSource,
    bytes_to_int,
    constant_time_equals,
    default_random,
    hash_to_scalar,
    int_to_bytes,
    sha256,
)


class TestRandomSource:
    def test_seeded_source_is_reproducible(self):
        assert RandomSource(1).randbytes(16) == RandomSource(1).randbytes(16)

    def test_different_seeds_differ(self):
        assert RandomSource(1).randbytes(16) != RandomSource(2).randbytes(16)

    def test_randbits_within_range(self):
        rng = RandomSource(3)
        for _ in range(100):
            assert 0 <= rng.randbits(10) < 1024

    def test_randint_below_upper_bound(self):
        rng = RandomSource(4)
        for _ in range(100):
            assert 0 <= rng.randint_below(17) < 17

    def test_randint_below_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            RandomSource(5).randint_below(0)

    def test_randint_range(self):
        rng = RandomSource(6)
        for _ in range(100):
            assert 5 <= rng.randint_range(5, 10) < 10

    def test_randint_range_rejects_empty(self):
        with pytest.raises(ValueError):
            RandomSource(7).randint_range(5, 5)

    def test_permutation_is_a_permutation(self):
        permutation = RandomSource(8).permutation(10)
        assert sorted(permutation) == list(range(10))

    def test_shuffle_preserves_elements(self):
        items = list("abcdef")
        shuffled = RandomSource(9).shuffle(items)
        assert sorted(shuffled) == sorted(items)
        assert items == list("abcdef")  # original untouched

    def test_unseeded_source_produces_bytes(self):
        assert len(default_random().randbytes(8)) == 8


class TestHashing:
    def test_sha256_is_deterministic(self):
        assert sha256(b"a", b"b") == sha256(b"a", b"b")

    def test_sha256_length_prefix_prevents_ambiguity(self):
        assert sha256(b"ab", b"c") != sha256(b"a", b"bc")

    def test_hash_to_scalar_within_modulus(self):
        for modulus in (97, 2 ** 64, 2 ** 255 - 19):
            assert 0 <= hash_to_scalar(modulus, b"data") < modulus

    def test_hash_to_scalar_rejects_tiny_modulus(self):
        with pytest.raises(ValueError):
            hash_to_scalar(1, b"data")


class TestEncodings:
    def test_int_bytes_roundtrip(self):
        for value in (0, 1, 255, 256, 2 ** 64 - 1):
            assert bytes_to_int(int_to_bytes(value)) == value

    def test_int_to_bytes_fixed_length(self):
        assert len(int_to_bytes(5, 8)) == 8

    def test_int_to_bytes_rejects_negative(self):
        with pytest.raises(ValueError):
            int_to_bytes(-1)

    def test_constant_time_equals(self):
        assert constant_time_equals(b"abc", b"abc")
        assert not constant_time_equals(b"abc", b"abd")
