"""Test-side readers of the trustees' packed scalar blocks.

``src/`` never boxes a trustee's scalar: it packs evaluations into ``bytes``
as they are dealt and reconstructs whole blocks by position.  The tests that
compare this with the per-share reference (``ShamirSecretSharing.reconstruct``
/ ``PedersenVSS.reconstruct`` over ``Share`` / ``PedersenShare``) cut the
blocks up here.  Importable as ``share_blocks`` from every test directory
(``tests/`` is on ``sys.path`` through its ``conftest.py``).
"""

from __future__ import annotations

import dataclasses
import hashlib
from typing import Callable, List, NamedTuple, Tuple

from repro.crypto.group import GroupElement
from repro.crypto.pedersen_vss import PedersenShare
from repro.crypto.shamir import Share
from repro.crypto.signatures import SchnorrSignature


def scalars(block: bytes, width: int) -> List[int]:
    assert len(block) % width == 0
    return [int.from_bytes(block[at:at + width], "big") for at in range(0, len(block), width)]


def boxed_shamir(block: bytes, width: int, point: int) -> List[Share]:
    """One ``Share`` per scalar of a block of Shamir evaluations at ``point``."""
    return [Share(point, value) for value in scalars(block, width)]


def boxed_pedersen(block: bytes, width: int, point: int) -> List[PedersenShare]:
    """One ``PedersenShare`` per ``f, r`` pair of a block of Pedersen evaluations."""
    values = scalars(block, width)
    return [
        PedersenShare(point, value, blinding)
        for value, blinding in zip(values[::2], values[1::2], strict=True)
    ]


class TrusteeRow(NamedTuple):
    """One shuffled ballot row of a trustee's view, boxed."""

    value_shares: Tuple[PedersenShare, ...]
    randomness_shares: Tuple[PedersenShare, ...]
    #: ``const, lin`` adjacent, in ``_zk_affine_coefficients`` order
    zk_shares: Tuple[Share, ...]


def trustee_rows(view, part: str, num_options: int, width: int, point: int) -> List[TrusteeRow]:
    """The rows of ``view`` (a ``TrusteeBallotView``) for one ballot part."""
    opening, zk = view.opening[part], view.zk[part]
    opening_row, zk_row = 4 * num_options * width, (8 * num_options + 2) * width
    assert len(opening) % opening_row == 0
    rows = len(opening) // opening_row
    assert len(zk) in (0, rows * zk_row)
    made = []
    for index in range(rows):
        opening_at, zk_at = index * opening_row, index * zk_row
        pairs = boxed_pedersen(opening[opening_at:opening_at + opening_row], width, point)
        made.append(TrusteeRow(
            tuple(pairs[:num_options]),
            tuple(pairs[num_options:]),
            tuple(boxed_shamir(zk[zk_at:zk_at + zk_row], width, point)),
        ))
    return made


# -- a canonical walk over an ``ElectionSetup`` -------------------------------------


def canonical(obj, trustee_view: Callable):
    """``obj`` as nested tuples of ints, bytes and strings.

    Signatures are left out (their nonces come from the OS RNG) and so is
    every ``dealer_public_key`` (the dealer key is drawn from the OS RNG too).
    ``trustee_view(view)`` renders a ``TrusteeBallotView``: that is the one
    structure whose layout differs between commits.
    """
    if type(obj).__name__ == "TrusteeBallotView":
        return trustee_view(obj)
    if isinstance(obj, GroupElement):
        return ("element", obj.serialize())
    if isinstance(obj, SchnorrSignature):
        return "signature"
    if dataclasses.is_dataclass(obj):
        return (type(obj).__name__,) + tuple(
            (f.name, canonical(getattr(obj, f.name), trustee_view))
            for f in dataclasses.fields(obj)
            if f.name != "dealer_public_key"
        )
    if isinstance(obj, dict):
        return tuple(sorted(
            (canonical(key, trustee_view), canonical(value, trustee_view))
            for key, value in obj.items()
        ))
    if isinstance(obj, (list, tuple)):
        return tuple(canonical(item, trustee_view) for item in obj)
    if isinstance(obj, (bytes, str)) or obj is None:
        return obj
    return int(obj)


def setup_walk_hash(setup, trustee_view: Callable) -> str:
    """SHA-256 over everything a seeded ``ElectionAuthority.setup()`` returns
    that its ``RandomSource`` determines."""
    walked = canonical(
        (
            setup.commitment_public_key,
            setup.ballots,
            setup.vc_init,
            setup.bb_init,
            setup.trustee_init,
            setup.permutations,
        ),
        trustee_view,
    )
    return hashlib.sha256(repr(walked).encode()).hexdigest()


def boxed_trustee_view(setup) -> Callable:
    """The ``trustee_view`` renderer for packed views: per part and row, the
    ``(point, value, blinding)`` triples of the opening and the ``(point,
    value)`` pairs of the prover state -- what the parent's views held as
    ``PedersenShare`` and ``Share`` objects."""
    from repro.crypto.shamir import scalar_width

    width = scalar_width(setup.group.order)
    points = {
        id(view): point
        for point, init in enumerate(setup.trustee_init.values(), start=1)
        for view in init.ballots.values()
    }

    def render(view):
        point = points[id(view)]
        return (
            "trustee-view",
            view.serial,
            tuple(
                (
                    part,
                    tuple(
                        (
                            tuple(dataclasses.astuple(s) for s in row.value_shares),
                            tuple(dataclasses.astuple(s) for s in row.randomness_shares),
                            tuple(dataclasses.astuple(s) for s in row.zk_shares),
                        )
                        for row in trustee_rows(
                            view, part, setup.params.num_options, width, point
                        )
                    ),
                )
                for part in sorted(view.opening)
            ),
        )

    return render
