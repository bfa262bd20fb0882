"""Packed scalar blocks against the per-share reference, on every backend.

``reconstruct_scalars`` recovers the secrets of position-aligned blocks of
evaluations -- the layout of a trustee's shares from the EA's dealing to the
BB's reconstruction.  ``ShamirSecretSharing.reconstruct`` and
``PedersenVSS.reconstruct`` over the same evaluations, boxed as ``Share`` /
``PedersenShare`` by the test-side unpacker (``tests/share_blocks.py``), are
the reference it must equal: for all four backends, every ``ht``-of-``Nt`` up
to 3-of-5 and every ``ht``-subset of the holders in every order.

The gmpy2 CI leg runs this file against ``mpz`` group orders: blocks are
built with ``int(...).to_bytes``.
"""

import dataclasses
import hashlib
from itertools import permutations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from share_blocks import boxed_pedersen, boxed_shamir

from repro.crypto.pedersen_vss import PedersenVSS
from repro.crypto.registry import get_group
from repro.crypto.shamir import (
    ShamirSecretSharing,
    pack_scalars,
    reconstruct_scalars,
    scalar_width,
    unpack_scalars,
)
from repro.crypto.utils import RandomSource

BACKENDS = ("schnorr", "schnorr-gmpy2", "ed25519", "secp256k1")
SHAPES = [(ht, nt) for ht in (1, 2, 3) for nt in range(ht, 6)]


def secrets_for(order, rng):
    return [0, 1, order - 1, rng.randint_below(order), rng.randint_below(order)]


def holders_blocks(evaluations, width):
    """``evaluations[s][k]`` (the scalars of secret ``s`` at holder ``k``, a
    tuple) -> one block per holder, the secrets in order."""
    return [
        pack_scalars((scalar for per_secret in evaluations for scalar in per_secret[k]), width)
        for k in range(len(evaluations[0]))
    ]


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize(("ht", "nt"), SHAPES)
class TestBlocksEqualTheBoxedReference:
    def test_shamir(self, backend, ht, nt):
        order = get_group(backend).order
        width, rng = scalar_width(order), RandomSource(1000 * ht + nt)
        sss = ShamirSecretSharing(ht, nt, prime=order)
        secrets = secrets_for(order, rng)
        blocks = holders_blocks(
            [[(value,) for value in sss.evaluations(s, rng=rng)] for s in secrets], width
        )
        for points in permutations(range(1, nt + 1), ht):
            chosen = [blocks[point - 1] for point in points]
            boxed = [boxed_shamir(block, width, point)
                     for point, block in zip(points, chosen, strict=True)]
            reference = [sss.reconstruct(shares) for shares in zip(*boxed, strict=True)]
            assert reconstruct_scalars(points, chosen, width, order) == reference == secrets

    def test_pedersen(self, backend, ht, nt):
        group = get_group(backend)
        width, rng = scalar_width(group.order), RandomSource(2000 * ht + nt)
        vss = PedersenVSS(ht, nt, group)
        secrets = secrets_for(group.order, rng)
        blocks = holders_blocks([vss.evaluations(s, rng=rng)[0] for s in secrets], width)
        for points in permutations(range(1, nt + 1), ht):
            chosen = [blocks[point - 1] for point in points]
            boxed = [boxed_pedersen(block, width, point)
                     for point, block in zip(points, chosen, strict=True)]
            reference = [vss.reconstruct(shares) for shares in zip(*boxed, strict=True)]
            # f, r adjacent: the secrets are the even positions.
            assert reconstruct_scalars(points, chosen, width, group.order)[::2] == reference
            assert reference == secrets


@pytest.mark.parametrize("backend", BACKENDS)
class TestRoutineProperties:
    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.data())
    def test_pack_unpack_round_trip(self, backend, data):
        order = get_group(backend).order
        width = scalar_width(order)
        values = data.draw(st.lists(st.integers(min_value=0, max_value=order - 1), max_size=12))
        block = pack_scalars(values, width)
        assert type(block) is bytes and len(block) == len(values) * width
        assert unpack_scalars(block, width) == values

    def test_blocks_of_different_lengths_are_refused(self, backend):
        order = get_group(backend).order
        width = scalar_width(order)
        with pytest.raises(ValueError):
            reconstruct_scalars(
                (1, 2), [pack_scalars([1, 2], width), pack_scalars([1], width)], width, order
            )

    def test_a_scalar_wider_than_the_field_is_refused(self, backend):
        order = get_group(backend).order
        with pytest.raises(OverflowError):
            pack_scalars([1 << (8 * scalar_width(order))], scalar_width(order))


#: SHA-256 of ``repr`` of what a seeded dealer hands out, captured at 1b95dde
#: (``share()`` / ``deal().shares`` as ``(index, value[, blinding])`` tuples):
#: the evaluation routines draw the parent's scalars in the parent's order and
#: ``share()`` / ``deal()`` box exactly their output.
GOLDEN_DEALINGS = {
    "schnorr": "2d7d2dc12a38fbab360a8e12567b9aff9980135834e6affd8104825162244f53",
    "schnorr-gmpy2": "2d7d2dc12a38fbab360a8e12567b9aff9980135834e6affd8104825162244f53",
    "ed25519": "5edd0ed68053b042baa4adbd484ee82fba7bb5b06b15802628896ca7d3cd3313",
    "secp256k1": "1927a28641438c0ac4c28e76f72af4017d622510be6eac4713f03819051ad4d0",
}


def as_ints(share):
    return tuple(int(part) for part in dataclasses.astuple(share))


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_seeded_dealer_returns_the_parents_shares(backend):
    group = get_group(backend)
    rng = RandomSource(21)
    dealt = []
    for ht, nt in ((1, 1), (2, 3), (3, 5)):
        sss = ShamirSecretSharing(ht, nt, prime=group.order)
        vss = PedersenVSS(ht, nt, group)
        for secret in (0, 1, group.order - 1, 123456789):
            dealt.append([as_ints(share) for share in sss.share(secret, rng=rng)])
            dealt.append([as_ints(share) for share in vss.deal(secret, rng=rng).shares])
    assert hashlib.sha256(repr(dealt).encode()).hexdigest() == GOLDEN_DEALINGS[backend]


@pytest.mark.parametrize("backend", BACKENDS)
def test_share_and_deal_box_the_evaluations(backend):
    """One dealing path: the same seed through the evaluation routine and
    through its wrapper gives the same scalars."""
    group = get_group(backend)
    sss = ShamirSecretSharing(2, 3, prime=group.order)
    vss = PedersenVSS(2, 3, group)
    assert [(s.index, s.value) for s in sss.share(5, rng=RandomSource(4))] == list(
        enumerate(sss.evaluations(5, rng=RandomSource(4)), start=1)
    )
    pairs, coefficients = vss.evaluations(5, rng=RandomSource(4))
    dealing = vss.deal(5, rng=RandomSource(4))
    assert [(s.index, (s.value, s.blinding)) for s in dealing.shares] == list(
        enumerate(pairs, start=1)
    )
    assert all(vss.verify_share(share, dealing.commitments) for share in dealing.shares)
    assert coefficients[0][0] == 5
