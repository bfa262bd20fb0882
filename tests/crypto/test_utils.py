"""Tests for the shared crypto helpers."""

import hashlib
import os

import pytest

from repro.crypto.group import RFC3526_MODP_2048, default_group
from repro.crypto.shamir import DEFAULT_PRIME
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

    def test_unseeded_draws_past_the_buffer(self):
        """More bytes than one buffered OS read, in small and large draws."""
        rng = default_random()
        draws = [rng.randbytes(24) for _ in range(400)]
        assert len(set(draws)) == 400
        assert all(0 < rng.randbits(64) < 2**64 for _ in range(1000))
        assert len(rng.randbytes(10_000)) == 10_000
        assert 0 <= rng.randbits(5) < 32 and rng.randbits(0) == 0
        assert all(1 <= rng.randint_range(1, 2**64) < 2**64 for _ in range(1000))

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_a_forked_child_draws_other_bytes_than_its_parent(self):
        """A forked child inherits a copy of the parent's buffered OS bytes;
        it must not draw them (the shard pool forks its workers on Linux)."""
        rng = default_random()
        rng.randbytes(1)  # the buffer holds unread bytes
        read_end, write_end = os.pipe()
        child = os.fork()
        if child == 0:  # pragma: no cover - runs in the child
            try:
                os.write(write_end, rng.randbytes(32))
            finally:
                os._exit(0)
        os.close(write_end)
        drawn = os.read(read_end, 32)
        os.close(read_end)
        os.waitpid(child, 0)
        assert len(drawn) == 32 and drawn != rng.randbytes(32)


#: The first draws of ``RandomSource(42)``, captured before the seeded
#: ``randint_below`` and ``randbytes`` drew straight from ``random.Random``
#: (one ``getrandbits`` call per candidate, one per 32-bit word of bytes).
#: Set-up derives every ballot from this stream, so a faster draw path must
#: draw these values in this order.
SEEDED_STREAM = [
    [
        0x11DC60F4392456DE3EB13B9046685257BDD640FB06671AD11C80317FA3B1799D,
        0x4B95423416419F828B9D2434E465E150BD9C66B3AD3C2D6D1A3D1FA7BC8960A9,
        0x4D0EF322815EF6D13B8FAA1837F8A88B17FC695A07A0CA6E0822E8F36C031199,
    ],
    [
        0x6B65A6A48B8148F6B38A088CA65ED389B74D0FB132E706298FADC1A606CB0FB3,
        0x371ECD7B27CD813047229389571AA8766C307511B2B9437A28DF6EC4CE4A2BBD,
        0x5BE6128E18C267976142EA7D17BE31111A2A73ED562B0F79C37459EEF50BEA63,
    ],
    [0, 1, 0, 14, 6982726854198922401],
    [0x2E4A0E78DC98D2C1E2ACF72F9E574F7AA0EE89AED453DD324B0DBB418D5288F2, 9],
    [
        b"",
        b"1",
        b"\xb4\x11\x0b\xa9:",
        b"\xc5J\xfc\x14\xda;\xdd\x19aGt\xa2\xd5])^",
        b"Z5\xabD\xb3\xef\xae\xa5\x12\x9b\xa2+\x88\xba>)vaE\xfd",
    ],
    [[0], [1, 0, 2], [6, 3, 4, 1, 0, 2, 5]],
]


def test_seeded_stream_is_pinned():
    """Scalars below the group order and the Shamir prime, small bounds
    (1 rejects every odd candidate), ranges, bytes and permutations, drawn
    one after the other from one source."""
    rng = RandomSource(42)
    q = default_group().order
    assert [
        [rng.randint_below(q) for _ in range(3)],
        [rng.randint_below(DEFAULT_PRIME) for _ in range(3)],
        [rng.randint_below(bound) for bound in (1, 2, 3, 17, 2 ** 64)],
        [rng.randint_range(1, q), rng.randint_range(5, 10)],
        [rng.randbytes(n) for n in (0, 1, 5, 16, 20)],
        [rng.permutation(n) for n in (1, 3, 7)],
    ] == SEEDED_STREAM


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

    @pytest.mark.parametrize("parts,scalar_255,digest_2048", [
        (
            (),
            0x3A2C94DE2AA51CD1C6740974619AEC77194F7C774D37DF5FBB7087F0766BB7B9,
            "9c05a7aa0b41547b486a4bceeac5db3dacf4d863022a5880eabf42508d0f98f1",
        ),
        (
            (b"",),
            0x73FD296E43325E3A04ECB9EEB1ABAD6C1705DD4710586AD7110A1BA06FB335A,
            "1a8ecee2d5c0b991f01020bb442c51d762c2b12b86c40272d55337aeeff4cbad",
        ),
        (
            (b"d-demos", b"\x00" * 33, bytes(range(256))),
            0x3AF37FA7CB35ABFBCB59815AB6DE6EF74F9FD572E3968F2062DFC7610E305FE8,
            "16cb7cee03fc97ded7b7a5e1204f8ca14af04a691efda9b1696bd15728e58981",
        ),
    ])
    def test_hash_to_scalar_is_pinned(self, parts, scalar_255, digest_2048):
        """Block ``i`` is ``sha256(i, *parts)``, so two and nine blocks: the
        values below were produced by the block-at-a-time loop this function
        had before it joined the parts once (``digest_2048`` is the SHA-256
        of the 256-byte big-endian scalar)."""
        assert hash_to_scalar(default_group().order, *parts) == scalar_255
        scalar = hash_to_scalar(RFC3526_MODP_2048, *parts)
        assert hashlib.sha256(scalar.to_bytes(256, "big")).hexdigest() == digest_2048


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
