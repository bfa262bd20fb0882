"""Test-side readers of the trustees' packed scalar blocks.

``src/`` never boxes a trustee's scalar: it packs evaluations into ``bytes``
as they are dealt and reconstructs whole blocks by position.  The tests that
compare this with the per-share reference (``ShamirSecretSharing.reconstruct``
/ ``PedersenVSS.reconstruct`` over ``Share`` / ``PedersenShare``) cut the
blocks up here.  Importable as ``share_blocks`` from every test directory
(``tests/`` is on ``sys.path`` through its ``conftest.py``).

:func:`setup_walk_hash` hashes a seeded set-up as an older commit laid it
out; :func:`parent_shape` renders the packed trustee views share by share and
the collectors' and BB's init data as they were while the EA signed shares.
"""

from __future__ import annotations

import dataclasses
import hashlib
from typing import Any, Callable, Dict, List, NamedTuple, Tuple

from repro.core import ballot, ea
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


def canonical(obj, renderers: Dict[type, Callable]):
    """``obj`` as nested tuples of ints, bytes and strings.

    Signatures are left out (their nonces came from the OS RNG) and so is
    every ``dealer_public_key`` (the dealer key was drawn from the OS RNG
    too).  ``renderers[type(obj)](obj)``, where given, stands in for ``obj``:
    it renders a structure whose layout differs between commits in an older
    commit's shape (:func:`parent_shape`).
    """
    render = renderers.get(type(obj))
    if render is not None:
        return canonical(render(obj), renderers)
    if isinstance(obj, GroupElement):
        return ("element", obj.serialize())
    if isinstance(obj, SchnorrSignature):
        return "signature"
    if dataclasses.is_dataclass(obj):
        return (type(obj).__name__,) + tuple(
            (f.name, canonical(getattr(obj, f.name), renderers))
            for f in dataclasses.fields(obj)
            if f.name != "dealer_public_key"
        )
    if isinstance(obj, dict):
        return tuple(sorted(
            (canonical(key, renderers), canonical(value, renderers))
            for key, value in obj.items()
        ))
    if isinstance(obj, (list, tuple)):
        return tuple(canonical(item, renderers) for item in obj)
    if isinstance(obj, (bytes, str)) or obj is None:
        return obj
    return int(obj)


def setup_walk_hash(setup, renderers: Dict[type, Callable]) -> str:
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
        renderers,
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


# -- the collectors' and BB's init data as the EA signed every share ----------------
# Stand-ins with the names and fields the classes had while the EA signed each
# share: the walk renders a dataclass by its name and fields.


@dataclasses.dataclass(frozen=True)
class SignedShare:
    share: Share
    context: bytes
    signature: SchnorrSignature


@dataclasses.dataclass(frozen=True)
class VcBallotRow:
    code_commitment: Any
    receipt_share: SignedShare


@dataclasses.dataclass(frozen=True)
class VcBallotView:
    serial: int
    rows: Any


@dataclasses.dataclass(frozen=True)
class VcInitData:
    node_id: str
    signing_keys: Any
    msk_share: SignedShare
    ballots: Any
    vc_public_keys: Any


@dataclasses.dataclass(frozen=True)
class BbInitData:
    key_commitment: Any
    ballots: Any
    commitment_public_key: Any
    vc_public_keys: Any
    trustee_public_keys: Any


#: the walk drops every signature to one placeholder
NO_SIGNATURE = SchnorrSignature(0, 0)


def parent_shape(setup) -> Dict[type, Callable]:
    """Renderers giving a setup the shape it had while the EA signed each
    share: trustee views boxed share by share (:func:`boxed_trustee_view`), a
    receipt share as a ``SignedShare`` under the context
    ``receipt|serial|part|option`` (the row's option before the shuffle, from
    ``setup.permutations``), the ``msk`` share under ``msk``, and no digests."""

    def vc_view(view):
        rows = {
            part: tuple(
                VcBallotRow(row.code_commitment, SignedShare(
                    row.receipt_share,
                    b"receipt|%d|%s|%d" % (
                        view.serial, part.encode(), setup.permutations[(view.serial, part)][at]
                    ),
                    NO_SIGNATURE,
                ))
                for at, row in enumerate(part_rows)
            )
            for part, part_rows in view.rows.items()
        }
        return VcBallotView(view.serial, rows)

    def vc_init(init):
        return VcInitData(
            init.node_id, init.signing_keys, SignedShare(init.msk_share, b"msk", NO_SIGNATURE),
            init.ballots, init.vc_public_keys,
        )

    def bb_init(init):
        return BbInitData(
            init.key_commitment, init.ballots, init.commitment_public_key,
            init.vc_public_keys, init.trustee_public_keys,
        )

    return {
        ballot.TrusteeBallotView: boxed_trustee_view(setup),
        ballot.VcBallotView: vc_view,
        ea.VcInitData: vc_init,
        ea.BbInitData: bb_init,
    }
