"""In-memory consensus cluster for benchmarks and consensus-layer tests.

Running Vote Set Consensus for tens of thousands of ballots through the full
discrete-event simulator (with signatures, UCERTs and receipt shares) is far
too slow to benchmark the *consensus* layer itself.  :class:`ConsensusCluster`
strips everything else away: ``n`` nodes exchange consensus messages through a
synchronous FIFO router, each node holds a per-ballot opinion bit, and the
cluster runs either

* **per-ballot mode** (``batch_size == 1``): one
  :class:`~repro.consensus.bracha.BinaryConsensusInstance` per ballot, the
  paper's baseline; or
* **superblock mode** (``batch_size > 1``): one
  :class:`~repro.consensus.batching.SuperblockConsensus` per block of
  ``batch_size`` ballots, falling back to per-ballot instances for blocks
  that decide ``0``.

Every point-to-point message is counted, which is what
``benchmarks/bench_batched_consensus.py`` and the batching tests compare.
Grace timers are modelled deterministically: callbacks fire when the router
queue drains, i.e. after every in-flight message has been handled.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple

from repro.consensus.batching import SuperblockConsensus, partition_serials, superblock_id
from repro.consensus.bracha import BinaryConsensusInstance
from repro.consensus.interfaces import ConsensusMessage


@dataclass
class ClusterResult:
    """Outcome of one cluster run."""

    #: per node: {serial: decided bit}
    decisions: List[Dict[int, int]]
    #: total point-to-point consensus messages exchanged
    messages_sent: int
    #: superblocks that resolved on the fast path (summed over nodes)
    superblocks_fast: int = 0
    #: superblocks that fell back to per-ballot consensus (summed over nodes)
    superblocks_fallback: int = 0

    @property
    def agreed(self) -> bool:
        """Whether every node decided every ballot identically."""
        reference = self.decisions[0]
        return all(decision == reference for decision in self.decisions)

    def decided_serials(self) -> Tuple[int, ...]:
        """Serials decided 1 ("voted") by the first node, sorted."""
        return tuple(sorted(s for s, bit in self.decisions[0].items() if bit == 1))


class _ClusterNode:
    """One consensus participant: per-ballot instances and/or superblocks."""

    def __init__(self, index: int, cluster: "ConsensusCluster"):
        self.node_id = f"N{index}"
        self.cluster = cluster
        self.opinions: Dict[int, int] = {}
        self.decisions: Dict[int, int] = {}
        self.instances: Dict[str, BinaryConsensusInstance] = {}
        self.superblocks: Dict[str, SuperblockConsensus] = {}
        self.superblocks_fast = 0
        self.superblocks_fallback = 0

    # -- wiring ------------------------------------------------------------------

    def _broadcast(self, message: ConsensusMessage) -> None:
        self.cluster.broadcast(self.node_id, message)

    def _schedule(self, _delay: float, callback: Callable[[], None]) -> None:
        self.cluster.timers.append(callback)

    def _per_ballot_instance(self, serial: int) -> BinaryConsensusInstance:
        instance_id = str(serial)
        if instance_id not in self.instances:
            def on_decide(instance_id_: str, value: int, _serial=serial) -> None:
                self.decisions.setdefault(_serial, value)

            self.instances[instance_id] = BinaryConsensusInstance(
                instance_id=instance_id,
                node_id=self.node_id,
                num_nodes=self.cluster.num_nodes,
                num_faulty=self.cluster.num_faulty,
                broadcast=self._broadcast,
                on_decide=on_decide,
            )
        return self.instances[instance_id]

    # -- startup -----------------------------------------------------------------

    def start(self, opinions: Dict[int, int]) -> None:
        self.opinions = dict(opinions)
        if self.cluster.batch_size <= 1:
            for serial, bit in self.opinions.items():
                self._per_ballot_instance(serial).propose(bit)
            return
        blocks = partition_serials(list(self.opinions), self.cluster.batch_size)
        for index, serials in enumerate(blocks):
            block_id = superblock_id(index)
            block = SuperblockConsensus(
                block_id=block_id,
                serials=serials,
                node_id=self.node_id,
                num_nodes=self.cluster.num_nodes,
                num_faulty=self.cluster.num_faulty,
                opinions=self.opinions,
                broadcast=self._broadcast,
                schedule=self._schedule,
                on_resolve=self._on_resolve,
                on_fallback=self._on_fallback,
            )
            self.superblocks[block_id] = block
            block.start()

    # -- superblock callbacks ------------------------------------------------------

    def _on_resolve(self, block: SuperblockConsensus, bits: Dict[int, int]) -> None:
        self.superblocks_fast += 1
        for serial, bit in bits.items():
            self.decisions.setdefault(serial, bit)

    def _on_fallback(self, block: SuperblockConsensus) -> None:
        self.superblocks_fallback += 1
        for serial in block.serials:
            self._per_ballot_instance(serial).propose(self.opinions[serial])

    def release(self) -> None:
        """Drop every reference that closes a cycle through this node.

        ``node -> block/instance -> bound callback -> node`` and ``node <->
        cluster`` would otherwise keep the opinion and decision dicts alive
        until a full cyclic collection.
        """
        for block in self.superblocks.values():
            block.close()
        self.superblocks.clear()
        self.instances.clear()
        self.cluster = None

    # -- delivery ------------------------------------------------------------------

    def deliver(self, sender: str, message: ConsensusMessage) -> None:
        instance_id = message.instance
        if instance_id in self.superblocks:
            self.superblocks[instance_id].handle(sender, message)
            return
        serial = int(instance_id)
        self._per_ballot_instance(serial).handle(sender, message)


class ConsensusCluster:
    """``n`` consensus nodes around a message-counting synchronous router."""

    def __init__(self, num_nodes: int = 4, batch_size: int = 1,
                 num_faulty: Optional[int] = None, silent: Sequence[int] = ()):
        if num_nodes < 1:
            raise ValueError("need at least one node")
        self.num_nodes = num_nodes
        self.num_faulty = num_faulty if num_faulty is not None else (num_nodes - 1) // 3
        self.batch_size = batch_size
        #: indices of nodes that never speak (model crashed/Byzantine-silent)
        self.silent = set(silent)
        self.nodes = [_ClusterNode(index, self) for index in range(num_nodes)]
        self._node_by_id = {node.node_id: node for node in self.nodes}
        self.queue: Deque[Tuple[str, str, ConsensusMessage]] = deque()
        self.timers: List[Callable[[], None]] = []
        self.messages_sent = 0

    def broadcast(self, sender: str, message: ConsensusMessage) -> None:
        if int(sender[1:]) in self.silent:
            return
        for node in self.nodes:
            self.messages_sent += 1
            self.queue.append((node.node_id, sender, message))

    def run(
        self,
        opinions: Dict[int, int],
        per_node_opinions: Optional[Sequence[Dict[int, int]]] = None,
        max_steps: int = 50_000_000,
    ) -> ClusterResult:
        """Run consensus to quiescence and return decisions plus statistics.

        ``opinions`` is the default opinion vector; ``per_node_opinions`` can
        override it per node (same serial keys) to model disagreement.  The
        nodes are released when the run ends: a cluster runs once.
        """
        if self.nodes[0].cluster is None:  # released by an earlier run
            raise RuntimeError("a ConsensusCluster runs once")
        for index, node in enumerate(self.nodes):
            if index in self.silent:
                continue
            node_opinions = (
                per_node_opinions[index] if per_node_opinions is not None else opinions
            )
            node.start(node_opinions)
        steps = 0
        while self.queue or self.timers:
            while self.queue:
                destination, sender, message = self.queue.popleft()
                receiver = self._node_by_id[destination]
                if int(destination[1:]) not in self.silent:
                    receiver.deliver(sender, message)
                steps += 1
                if steps > max_steps:
                    raise RuntimeError("cluster did not quiesce; message storm?")
            # Queue drained: every in-flight message was handled, so pending
            # grace timers (waiting for slow proposals) may now fire.
            pending, self.timers = self.timers, []
            for callback in pending:
                callback()
        result = ClusterResult(
            decisions=[node.decisions for index, node in enumerate(self.nodes)
                       if index not in self.silent],
            messages_sent=self.messages_sent,
            superblocks_fast=sum(node.superblocks_fast for node in self.nodes),
            superblocks_fallback=sum(node.superblocks_fallback for node in self.nodes),
        )
        # The caller's ``del cluster`` must free a shard's consensus state at
        # once: the scale pipeline's O(shard) memory depends on it.
        for node in self.nodes:
            node.release()
        return result
