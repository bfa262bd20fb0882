"""Wire messages of the D-DEMOS protocols.

These dataclasses are the payloads carried by :class:`repro.net.channels.Message`.
They correspond one-to-one to the messages named in the paper: VOTE,
ENDORSE, ENDORSEMENT, VOTE_P, ANNOUNCE, RECOVER-REQUEST, RECOVER-RESPONSE for
the vote-collection subsystem, plus the uploads VC nodes send to BB nodes at
the end of the election and the :class:`VscBatch` frame that carries a VC
node's ANNOUNCEs and binary-consensus traffic during Vote Set Consensus.

The ``sender`` fields are part of the wire format and are not trusted: a
receiver takes the sender from the authenticated channel
(:attr:`repro.net.channels.Message.sender`), so a collector cannot speak for
another by writing its name into a payload.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.consensus.batching import BatchEnvelope
from repro.crypto.shamir import Share
from repro.crypto.signatures import SchnorrSignature
from repro.values import frozen_value


# ---------------------------------------------------------------------------
# Voter <-> VC (public channel)
# ---------------------------------------------------------------------------


@frozen_value(weakref_slot=True)
class VoteRequest:
    """VOTE<serial-no, vote-code> submitted by a voter to one VC node."""

    serial: int
    vote_code: bytes
    voter_id: str


@frozen_value(weakref_slot=True)
class VoteReceipt:
    """The receipt returned to the voter once her vote is recorded."""

    serial: int
    vote_code: bytes
    receipt: bytes


@frozen_value(weakref_slot=True)
class VoteRejected:
    """Negative acknowledgement (outside voting hours, unknown code, ...)."""

    serial: int
    vote_code: bytes
    reason: str


# ---------------------------------------------------------------------------
# VC <-> VC (private authenticated channels) -- voting protocol
# ---------------------------------------------------------------------------


@frozen_value(weakref_slot=True)
class Endorse:
    """ENDORSE<serial-no, vote-code>: the responder asks for endorsements."""

    serial: int
    vote_code: bytes


@frozen_value(weakref_slot=True)
class Endorsement:
    """ENDORSEMENT<serial-no, vote-code, sig>: one VC node's signature."""

    serial: int
    vote_code: bytes
    signer: str
    signature: SchnorrSignature


@frozen_value(weakref_slot=True)
class UniquenessCertificate:
    """UCERT: ``Nv - fv`` endorsements proving a vote code is unique for a ballot."""

    serial: int
    vote_code: bytes
    endorsements: Tuple[Endorsement, ...]


@frozen_value(weakref_slot=True)
class VotePending:
    """VOTE_P<serial-no, vote-code, receipt-share, UCERT>."""

    serial: int
    vote_code: bytes
    receipt_share: Share
    ucert: UniquenessCertificate
    sender: str


# ---------------------------------------------------------------------------
# VC <-> VC -- Vote Set Consensus
# ---------------------------------------------------------------------------


@frozen_value(weakref_slot=True)
class Announce:
    """ANNOUNCE<serial-no, vote-code, UCERT>; vote_code is None if unknown.
    Travels as an element of a :class:`VscBatch`, never as a frame of its own."""

    serial: int
    vote_code: Optional[bytes]
    ucert: Optional[UniquenessCertificate]
    sender: str


@frozen_value(weakref_slot=True)
class RecoverRequest:
    """RECOVER-REQUEST<serial-no>: ask peers for the winning vote code."""

    serial: int
    sender: str


@frozen_value(weakref_slot=True)
class RecoverResponse:
    """RECOVER-RESPONSE<serial-no, vote-code, UCERT>."""

    serial: int
    vote_code: bytes
    ucert: UniquenessCertificate
    sender: str


@frozen_value(weakref_slot=True)
class VscBatch:
    """Everything one handler step of Vote Set Consensus sends to the VC nodes:
    per-ballot :class:`Announce` elements and binary-consensus messages."""

    envelope: BatchEnvelope
    sender: str


# ---------------------------------------------------------------------------
# VC -> BB uploads at election end
# ---------------------------------------------------------------------------


@frozen_value(weakref_slot=True)
class VoteSetUpload:
    """The agreed set of voted <serial, vote-code> tuples, sent to every BB node."""

    vote_set: Tuple[Tuple[int, bytes], ...]
    sender: str


@frozen_value(weakref_slot=True)
class MskShareUpload:
    """A VC node's share of the master key protecting the BB's vote codes."""

    share: Share
    sender: str


# ---------------------------------------------------------------------------
# Durable VC state (crash / recovery)
# ---------------------------------------------------------------------------


@frozen_value(weakref_slot=True)
class BallotStateEntry:
    """Durable per-ballot state of one VC node, as persisted at crash time.

    Only ballots with non-default state are snapshotted.  ``endorsed_code``
    is the code this node has signed an ENDORSEMENT for -- it must survive a
    restart, or a recovered node could endorse a *second* code for the same
    ballot and break UCERT uniqueness.
    """

    serial: int
    status: str
    used_vote_code: Optional[bytes]
    endorsed_code: Optional[bytes]
    receipt: Optional[bytes]
    ucert: Optional[UniquenessCertificate]
    receipt_shares: Tuple[Tuple[str, Share], ...]


@frozen_value(weakref_slot=True)
class VcStateSnapshot:
    """A VC node's minimal durable state, wire-encodable via the codec.

    This is what the chaos harness persists when it crashes a node and what
    :meth:`repro.core.vote_collector.VoteCollectorNode.restore_state` rebuilds
    a node from -- the simulation equivalent of restarting a process from its
    write-ahead state on disk.  Volatile state (in-flight endorsement
    collections, waiting voters, consensus instances) is deliberately absent:
    a restarted process has lost it and the protocol re-derives it.
    """

    node_id: str
    voting_closed: bool
    entries: Tuple[BallotStateEntry, ...]
