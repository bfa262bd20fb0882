"""Vote Set Consensus (Section III-E) between "ready" and "decided", on one node.

The paper decides the set of voted ballots with one binary consensus per
ballot, "in batches of arbitrary size".  :class:`VoteSetConsensus` is the one
place in this repo that does so.  It knows no transport, clock, ballot or
certificate: it is built from callables, so a vote collector (which owns
ANNOUNCE quorums, RECOVER and the upload) and the crypto-free
:class:`~repro.consensus.cluster.ConsensusCluster` run the same code.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Callable, Collection, Dict, List, Mapping, Sequence, Set, Tuple, Union

from repro.consensus.batching import SuperblockConsensus, superblock_id
from repro.consensus.bracha import BinaryConsensusInstance
from repro.consensus.interfaces import ConsensusMessage


class HaltedInstance:
    """What the engine keeps of a halted per-ballot instance: its last round
    and its decision.  A halted :class:`BinaryConsensusInstance` ignores every
    message and propose, so nothing else of it (FINISH senders, callbacks into
    the engine) is read again."""

    __slots__ = ("round", "decided")
    started = True
    halted = True

    def __init__(self, instance: BinaryConsensusInstance):
        self.round = instance.round
        self.decided = instance.decided


class VoteSetConsensus:
    """Decides every serial of one node's ballot set.

    Owns everything between *this serial's opinion is ready* and *this serial
    is decided*: on-demand per-ballot :class:`BinaryConsensusInstance`\\ s, one
    :class:`SuperblockConsensus` per block (started when every member is
    ready), the per-ballot fallback of a block that decided ``0``, routing of
    incoming messages by instance id, and the counters of the path taken.
    The host reports :meth:`ready` per serial (or :meth:`ready_all`), feeds
    every incoming consensus message to :meth:`handle`, and supplies:

    * ``members`` -- the participants, one bit each
      (:func:`~repro.consensus.interfaces.member_bits`); the engine hands this
      one map to every instance and block it makes, and drops traffic from a
      sender outside it;
    * ``serials`` -- the serials this node decides (membership and iteration;
      the host's own ballot or opinion dict will do, it is not copied);
    * ``blocks`` -- the superblock partition of those serials, sorted and
      identical on every node; empty runs the paper's per-ballot protocol;
    * ``broadcast(message)`` -- send a :class:`ConsensusMessage` to every
      participant including the host itself;
    * ``schedule(delay, callback)`` -- a one-shot timer (superblock grace);
    * ``opinion_of(serial)`` -- the host's opinion bit, read at the moment a
      block or instance starts (it may change until then);
    * ``on_decide(serial, bit)`` -- called once per serial.
    """

    def __init__(
        self,
        node_id: str,
        members: Mapping[str, int],
        num_faulty: int,
        serials: Collection[int],
        blocks: Sequence[Tuple[int, ...]],
        broadcast: Callable[[ConsensusMessage], None],
        schedule: Callable[[float, Callable[[], None]], None],
        opinion_of: Callable[[int], int],
        on_decide: Callable[[int, int], None],
    ):
        #: what every instance and block of this node is built with
        self._member = dict(
            node_id=node_id, members=members, num_faulty=num_faulty, broadcast=broadcast
        )
        self.members = members
        self.serials = serials
        self.blocks = blocks
        self.schedule = schedule
        self.opinion_of = opinion_of
        self.on_decide = on_decide
        #: the one decide callback of every per-ballot instance (whose id is
        #: ``str(serial)``, as it goes on the wire); it holds the host's
        #: callable, not this engine
        self._instance_decided = lambda instance_id, value: on_decide(int(instance_id), value)

        self._starts = [block[0] for block in blocks]
        #: members still awaited, by block index (made on a block's first ``ready``)
        self._unready: Dict[int, Set[int]] = {}
        #: traffic for own blocks that have not started, by block id, in
        #: arrival order; a block leaves this dict when it starts
        self.buffered: Dict[str, List[Tuple[str, ConsensusMessage]]] = {
            superblock_id(index): [] for index in range(len(blocks))
        }
        #: started superblocks by block id
        self.running: Dict[str, SuperblockConsensus] = {}
        #: per-ballot instances by serial (made by a propose or a peer's
        #: message); a halted one is replaced by its :class:`HaltedInstance`
        self.instances: Dict[int, Union[BinaryConsensusInstance, HaltedInstance]] = {}

        #: per-ballot instances this node proposed in
        self.per_ballot_instances = 0
        #: superblocks started / resolved on the fast path / fallen back
        self.superblocks = 0
        self.superblocks_fast = 0
        self.superblocks_fallback = 0

    # -- the host's side ----------------------------------------------------------

    def ready(self, serial: int) -> None:
        """The host's opinion on ``serial`` (one of ``serials``) is ready.

        Per-ballot mode proposes at once; a superblock starts with its last
        member.  Calling again for the same serial changes nothing.
        """
        if not self.blocks:
            self._propose(serial)
            return
        index = bisect_right(self._starts, serial) - 1
        unready = self._unready.get(index)
        if unready is None:
            unready = self._unready[index] = set(self.blocks[index])
        unready.discard(serial)
        if not unready:
            self._start_block(index)

    def ready_all(self) -> None:
        """Every opinion is ready: one call, no per-serial bookkeeping."""
        if self.blocks:
            for index in range(len(self.blocks)):
                self._start_block(index)
        else:
            for serial in self.serials:
                self._propose(serial)

    def handle(self, sender: str, message: ConsensusMessage) -> None:
        """Route a consensus message from ``sender`` by its instance id.

        Ids that name neither a block of the partition nor one of ``serials``
        are Byzantine junk, and so is anything a non-member sends: dropped
        without a trace, never raised.
        """
        if sender not in self.members:
            return
        instance_id = message.instance
        block = self.running.get(instance_id)
        if block is not None:
            block.handle(sender, message)
            return
        early = self.buffered.get(instance_id)
        if early is not None:
            # The peer's election end (or its announces) outran ours.
            early.append((sender, message))
            return
        try:
            serial = int(instance_id)
        except ValueError:
            return
        if serial in self.serials:
            # Handling before propose() is safe: the instance is made on demand.
            instance = self._instance(serial)
            if not instance.halted:
                instance.handle(sender, message)
                self._retire_if_halted(serial, instance)

    def close(self) -> None:
        """Cut ``engine -> block/instance -> callback -> engine``.

        A host that is done with the engine calls this so the engine, and
        whatever its callables hold, is freed by reference counting.
        """
        for block in self.running.values():
            block.close()
        self.running.clear()
        self.instances.clear()

    # -- per-ballot instances -------------------------------------------------------

    def _instance(self, serial: int) -> Union[BinaryConsensusInstance, HaltedInstance]:
        instance = self.instances.get(serial)
        if instance is None:
            instance = self.instances[serial] = BinaryConsensusInstance(
                instance_id=str(serial), on_decide=self._instance_decided, **self._member
            )
        return instance

    def _propose(self, serial: int) -> None:
        instance = self._instance(serial)
        if not instance.started:
            self.per_ballot_instances += 1
            instance.propose(self.opinion_of(serial))
            self._retire_if_halted(serial, instance)

    def _retire_if_halted(self, serial: int, instance: BinaryConsensusInstance) -> None:
        # An instance that halts before it proposed keeps its round-1 state,
        # which its propose still reads; it is retired after the propose.
        if instance.halted and instance.started:
            self.instances[serial] = HaltedInstance(instance)

    # -- superblocks ----------------------------------------------------------------

    def _start_block(self, index: int) -> None:
        block_id = superblock_id(index)
        early = self.buffered.pop(block_id, None)
        if early is None:
            return  # already running
        serials = self.blocks[index]
        self.superblocks += 1
        block = self.running[block_id] = SuperblockConsensus(
            block_id=block_id,
            serials=serials,
            bits=bytes(map(self.opinion_of, serials)),
            schedule=self.schedule,
            on_resolve=self._on_resolve,
            on_fallback=self._on_fallback,
            **self._member,
        )
        block.start()
        for sender, message in early:
            block.handle(sender, message)

    def _on_resolve(self, _block: SuperblockConsensus, bits: Dict[int, int]) -> None:
        """Fast path: the whole block was decided by one consensus instance."""
        self.superblocks_fast += 1
        on_decide = self.on_decide
        for serial, bit in bits.items():
            on_decide(serial, bit)

    def _on_fallback(self, block: SuperblockConsensus) -> None:
        """Slow path: classic per-ballot consensus for the block's ballots."""
        self.superblocks_fallback += 1
        for serial in block.serials:
            self._propose(serial)
