"""Batched binary consensus: message envelopes and superblock Vote Set Consensus.

The paper: "We introduce a version of Binary Consensus that operates in
batches of arbitrary size; this way, we achieve greater network efficiency."

Two cooperating mechanisms implement that sentence here:

1. **Message envelopes** (:class:`ConsensusBatcher` / :class:`BatchEnvelope`).
   Vote Set Consensus generates many small messages, and a node sends every
   one of them to all of its peers; the batcher buffers them and flushes them
   as one envelope broadcast to every peer, cutting the number of network
   messages without touching protocol logic.  An envelope's elements are
   whatever the host sends to all of its peers in that phase: consensus
   messages and, for a vote collector, its per-ballot ANNOUNCEs.

2. **Superblocks** (:class:`SuperblockConsensus`).  Instead of one binary
   consensus instance per ballot, ballots are grouped into fixed superblocks
   of ``ConsensusConfig.batch_size`` serials.  Each node reliably broadcasts its
   per-ballot opinion *vector* for the block (a Bracha echo/ready broadcast,
   so a Byzantine node cannot show different vectors to different peers) and
   one binary consensus instance then decides, for the whole block at once,
   between:

   * ``1`` -- *fast path*: a quorum of ``Nv - fv`` identical vectors exists.
     Reliable broadcast makes the quorum-supported vector unique (two quorums
     intersect in an honest node) and guarantees every honest node eventually
     observes it, so all honest nodes resolve every ballot in the block from
     the same vector.  A node whose own opinion differed recovers missing
     vote codes through the ordinary per-ballot RECOVER exchange.
   * ``0`` -- *fallback*: opinions genuinely disagree inside the block; every
     honest node falls back to one classic binary consensus instance per
     ballot of the block, i.e. exactly the unbatched protocol.

   One instance deciding ``B`` ballots amortizes the per-instance BVAL/AUX/
   FINISH traffic ``B``-fold on the fast path, which is where the Fig. 4/5
   scalability of the paper comes from.

The binary-consensus *validity* property keeps the fast path honest: if all
honest nodes enter with the same vector, they all propose ``1`` and the
superblock must decide ``1``; a lone Byzantine node can neither forge a
quorum vector nor force the expensive fallback.

Every quorum here is a quorum of the host's *members* (the collectors): the
reliable broadcast keeps its ECHO and READY supporters per vector as member
bitmasks (:func:`~repro.consensus.interfaces.member_bits`), and drops a step
whose sender or origin is not a member, so a bulletin-board node or any other
authenticated non-member can neither propose a vector nor help one to
delivery.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Mapping,
    NewType,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.consensus.bracha import BinaryConsensusInstance
from repro.consensus.interfaces import ConsensusMessage
from repro.values import frozen_value

if TYPE_CHECKING:  # repro.core.messages imports this module
    from repro.core.messages import Announce

#: An opinion vector: one byte, 0 or 1, per ballot of a superblock.  Values
#: are plain ``bytes``; the declared type tells the wire codec to refuse any
#: other byte.
OpinionBits = NewType("OpinionBits", bytes)


def superblock_id(index: int) -> str:
    """Canonical instance id of the ``index``-th superblock ("sb|<index>"; no
    serial's decimal instance id can collide with it)."""
    return f"sb|{index}"


def partition_serials(serials: Sequence[int], batch_size: int) -> List[Tuple[int, ...]]:
    """Split sorted ballot serials into consecutive superblocks.

    Every node computes the same partition from its (identical) ballot set, so
    block ids and member serials agree across the cluster without any extra
    coordination.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be positive")
    ordered = sorted(serials)
    return [
        tuple(ordered[start:start + batch_size])
        for start in range(0, len(ordered), batch_size)
    ]


@frozen_value(weakref_slot=True)
class BatchEnvelope:
    """A bundle of consensus-phase messages travelling as one network message."""

    #: consensus messages and a vote collector's ANNOUNCEs, in send order
    #: (the wire codec resolves ``Announce`` among the types registered before)
    messages: Tuple[Union[ConsensusMessage, Announce], ...]

    def __len__(self) -> int:
        return len(self.messages)


class ConsensusBatcher:
    """Buffers a node's consensus-phase broadcasts into envelopes.

    Every queued element goes to the same ``fanout`` peers, so one queue
    serves them all.  ``broadcast`` is the underlying callable
    (``broadcast(envelope)``) that sends one envelope to every peer.
    ``max_batch`` bounds the number of messages per envelope; ``flush`` drains
    everything regardless of size.  The counters count per destination: one
    flush of ``k`` messages adds ``fanout`` envelopes and ``k * fanout``
    messages.
    """

    def __init__(
        self, fanout: int, broadcast: Callable[[BatchEnvelope], None], max_batch: int = 4096
    ):
        if max_batch < 1:
            raise ValueError("max_batch must be positive")
        self.fanout = fanout
        self._broadcast = broadcast
        self.max_batch = max_batch
        self._pending: list = []
        self.envelopes_sent = 0
        self.messages_sent = 0

    def enqueue(self, message) -> None:
        """Queue one envelope element for every peer."""
        self._pending.append(message)
        if len(self._pending) >= self.max_batch:
            self.flush()

    def flush(self) -> None:
        """Broadcast the pending messages as one envelope."""
        if not self._pending:
            return
        envelope = BatchEnvelope(tuple(self._pending))
        self._pending = []
        self.envelopes_sent += self.fanout
        self.messages_sent += len(envelope) * self.fanout
        self._broadcast(envelope)


# ---------------------------------------------------------------------------
# Superblock Vote Set Consensus
# ---------------------------------------------------------------------------


@frozen_value(weakref_slot=True)
class SuperblockSend(ConsensusMessage):
    """First step of reliably broadcasting ``origin``'s opinion vector.

    ``bits`` holds one byte (0 or 1) per ballot of the block, the form the
    codec writes: the reliable broadcast keys its sender sets by the vector,
    and a ``bytes`` key hashes once and compares with ``memcmp``.
    """

    origin: str = ""
    bits: OpinionBits = b""


@frozen_value(weakref_slot=True)
class SuperblockEcho(ConsensusMessage):
    """Echo of an origin's vector (Bracha reliable-broadcast step 2)."""

    origin: str = ""
    bits: OpinionBits = b""


@frozen_value(weakref_slot=True)
class SuperblockReady(ConsensusMessage):
    """Ready for an origin's vector (Bracha reliable-broadcast step 3)."""

    origin: str = ""
    bits: OpinionBits = b""


@dataclass(slots=True)
class _RbcState:
    """Reliable-broadcast bookkeeping for one origin's proposal: the member
    masks of the ECHO and READY senders, per vector."""

    echoed: bool = False
    ready_sent: bool = False
    delivered: Optional[bytes] = None
    echo_senders: Dict[bytes, int] = field(default_factory=dict)
    ready_senders: Dict[bytes, int] = field(default_factory=dict)


class SuperblockConsensus:
    """Drives Vote Set Consensus for one superblock of ballots on one node.

    The host supplies:

    * ``members`` -- its member map (one bit per participant, see
      :func:`~repro.consensus.interfaces.member_bits`); traffic from, or
      about an origin, outside it is dropped;
    * ``bits`` -- its opinion vector, one byte (0 or 1) per serial of the block;
    * ``broadcast(message)`` -- send a :class:`ConsensusMessage` to every
      participant including the host itself (loopback through the network);
    * ``schedule(delay, callback)`` -- a one-shot timer, used to grant a grace
      period for slow/absent proposals before conceding the fast path;
    * ``on_resolve(block, {serial: bit})`` -- called once when the fast path
      succeeds and every ballot in the block is decided from the quorum vector;
    * ``on_fallback(block)`` -- called once when the block decides ``0`` and
      the host must run classic per-ballot consensus for ``block.serials``.

    Exactly one of ``on_resolve`` / ``on_fallback`` fires per block.
    """

    #: grace period (host timer units) for proposals that disagree or are late
    grace = 8.0

    def __init__(
        self,
        block_id: str,
        serials: Sequence[int],
        node_id: str,
        members: Mapping[str, int],
        num_faulty: int,
        bits: bytes,
        broadcast: Callable[[ConsensusMessage], None],
        schedule: Callable[[float, Callable[[], None]], None],
        on_resolve: Callable[["SuperblockConsensus", Dict[int, int]], None],
        on_fallback: Callable[["SuperblockConsensus"], None],
    ):
        self.block_id = block_id
        self.serials = tuple(serials)
        self.node_id = node_id
        self.members = members
        self.f = num_faulty
        self.quorum = len(members) - num_faulty
        self.bits = bits
        self.broadcast = broadcast
        self.schedule = schedule
        self.on_resolve = on_resolve
        self.on_fallback = on_fallback

        #: reliably delivered opinion vectors, by origin node
        self.proposals: Dict[str, bytes] = {}
        self._rbc: Dict[str, _RbcState] = {}
        self.proposed: Optional[int] = None
        self.decided: Optional[int] = None
        self.resolved = False
        self._grace_pending = False
        self.instance = BinaryConsensusInstance(
            instance_id=block_id,
            node_id=node_id,
            members=members,
            num_faulty=num_faulty,
            broadcast=broadcast,
            on_decide=self._on_decide,
        )

    # -- public API -------------------------------------------------------------

    def start(self) -> None:
        """Reliably broadcast this node's opinion vector for the block."""
        self.broadcast(SuperblockSend(self.block_id, self.node_id, self.bits))

    def handle(self, sender: str, message: ConsensusMessage) -> None:
        """Feed any message addressed to this block (RBC or inner instance).

        A reliable-broadcast step counts only if both its sender and its
        origin are members; the inner instance filters its own senders.
        """
        if message.instance != self.block_id:
            return
        if isinstance(message, (SuperblockSend, SuperblockEcho, SuperblockReady)):
            members = self.members
            bit = members.get(sender, 0)
            if not bit or message.origin not in members:
                return
            if isinstance(message, SuperblockSend):
                self._on_send(sender, message)
            elif isinstance(message, SuperblockEcho):
                self._on_echo(bit, message)
            else:
                self._on_ready(bit, message)
        else:
            self.instance.handle(sender, message)

    def close(self) -> None:
        """Cut the ``block -> instance -> self._on_decide -> block`` cycle.

        A host that discards finished blocks calls this so they are freed by
        reference counting rather than by a later cyclic collection.
        """
        self.instance.on_decide = None

    # -- reliable broadcast of proposals ----------------------------------------

    def _rbc_state(self, origin: str) -> _RbcState:
        state = self._rbc.get(origin)
        if state is None:
            state = self._rbc[origin] = _RbcState()
        return state

    def _on_send(self, sender: str, message: SuperblockSend) -> None:
        # Only the origin itself may introduce its proposal.
        if sender != message.origin or len(message.bits) != len(self.serials):
            return
        state = self._rbc_state(message.origin)
        if not state.echoed:
            state.echoed = True
            self.broadcast(SuperblockEcho(self.block_id, message.origin, message.bits))

    def _on_echo(self, bit: int, message: SuperblockEcho) -> None:
        state = self._rbc_state(message.origin)
        supporters = state.echo_senders.get(message.bits, 0) | bit
        state.echo_senders[message.bits] = supporters
        if supporters.bit_count() >= self.quorum and not state.ready_sent:
            state.ready_sent = True
            self.broadcast(SuperblockReady(self.block_id, message.origin, message.bits))

    def _on_ready(self, bit: int, message: SuperblockReady) -> None:
        state = self._rbc_state(message.origin)
        supporters = state.ready_senders.get(message.bits, 0) | bit
        state.ready_senders[message.bits] = supporters
        count = supporters.bit_count()
        # Ready amplification: f+1 readys prove an honest node vouches.
        if count >= self.f + 1 and not state.ready_sent:
            state.ready_sent = True
            self.broadcast(SuperblockReady(self.block_id, message.origin, message.bits))
        # Delivery at 2f+1 readys; at most one vector per origin can get there.
        if count >= 2 * self.f + 1 and state.delivered is None:
            state.delivered = message.bits
            self._on_proposal_delivered(message.origin, message.bits)

    # -- proposing and resolving --------------------------------------------------

    def _matching_proposals(self) -> int:
        return sum(1 for bits in self.proposals.values() if bits == self.bits)

    def _on_proposal_delivered(self, origin: str, bits: bytes) -> None:
        self.proposals[origin] = bits
        if self.proposed is None:
            if self._matching_proposals() >= self.quorum:
                self._propose(1)
            elif len(self.proposals) >= self.quorum and not self._grace_pending:
                # Enough vectors arrived but they disagree with ours; grant a
                # grace period for stragglers before conceding the fast path.
                self._grace_pending = True
                self.schedule(self.grace, self._on_grace_expired)
        if self.decided == 1 and not self.resolved:
            self._try_fast_resolve()

    def _on_grace_expired(self) -> None:
        if self.proposed is None:
            self._propose(1 if self._matching_proposals() >= self.quorum else 0)

    def _propose(self, value: int) -> None:
        # The instance may already have decided through FINISH amplification
        # (possible before this node ever proposed); proposing then would
        # restart round traffic for a dead instance.
        if self.decided is not None:
            return
        self.proposed = value
        self.instance.propose(value)

    def _on_decide(self, _instance_id: str, value: int) -> None:
        if self.decided is not None:
            return
        self.decided = value
        if value == 0:
            self.on_fallback(self)
        else:
            self._try_fast_resolve()

    def _try_fast_resolve(self) -> None:
        """Resolve from the (unique) vector backed by a quorum of proposals.

        If the block decided ``1``, some honest node proposed ``1`` after
        reliably delivering ``Nv - fv`` identical vectors; reliable-broadcast
        totality delivers those same proposals everywhere, so every honest
        node eventually finds the quorum vector -- no extra waiting protocol
        is needed.
        """
        if self.resolved:
            return
        support: Dict[bytes, int] = {}
        for bits in self.proposals.values():
            support[bits] = support.get(bits, 0) + 1
        for bits, count in support.items():
            if count >= self.quorum:
                self.resolved = True
                self.on_resolve(self, dict(zip(self.serials, bits, strict=True)))
                return
