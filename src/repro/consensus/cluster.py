"""In-memory consensus cluster for benchmarks, the shard slice and consensus tests.

Running Vote Set Consensus for tens of thousands of ballots through the full
discrete-event simulator (with signatures, UCERTs and receipt shares) is far
too slow to benchmark the *consensus* layer itself.  :class:`ConsensusCluster`
runs the vote collectors' own engine
(:class:`~repro.consensus.vote_set_consensus.VoteSetConsensus`) behind a
crypto-free router: ``n`` engines exchange consensus messages through a
synchronous FIFO queue, each reads its per-ballot opinion bit from a dict and
writes its decisions to another, and every opinion is ready when the run
starts.  ``batch_size == 1`` is the paper's one binary consensus per ballot;
``batch_size > 1`` hands the engine consecutive blocks of that many serials.

Every point-to-point message is counted, which is what
``benchmarks/bench_batched_consensus.py`` and the batching tests compare.
Grace timers are modelled deterministically: callbacks fire when the router
queue drains, i.e. after every in-flight message has been handled.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import partial
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple

from repro.consensus.batching import partition_serials
from repro.consensus.interfaces import ConsensusMessage, member_bits
from repro.consensus.vote_set_consensus import VoteSetConsensus

#: deliveries after which a run is declared a message storm
MAX_STEPS = 50_000_000


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


class ConsensusCluster:
    """``n`` consensus engines around a message-counting synchronous router."""

    def __init__(self, num_nodes: int = 4, batch_size: int = 1, silent: Sequence[int] = ()):
        if num_nodes < 1:
            raise ValueError("need at least one node")
        self.num_nodes = num_nodes
        self.batch_size = batch_size
        #: indices of nodes that never speak (model crashed/Byzantine-silent)
        self.silent = set(silent)
        self.node_ids = [f"N{index}" for index in range(num_nodes)]
        self.queue: Deque[Tuple[str, str, ConsensusMessage]] = deque()
        self.timers: List[Callable[[], None]] = []
        self.messages_sent = 0
        self._ran = False

    def broadcast(self, sender: str, message: ConsensusMessage) -> None:
        for destination in self.node_ids:
            self.messages_sent += 1
            self.queue.append((destination, sender, message))

    def run(
        self,
        opinions: Dict[int, int],
        per_node_opinions: Optional[Sequence[Dict[int, int]]] = None,
    ) -> ClusterResult:
        """Run consensus to quiescence and return decisions plus statistics.

        ``opinions`` is the default opinion vector; ``per_node_opinions`` can
        override it per node (same serial keys) to model disagreement.  The
        engines are closed when the run ends: a cluster runs once.
        """
        if self._ran:
            raise RuntimeError("a ConsensusCluster runs once")
        self._ran = True
        blocks = partition_serials(list(opinions), self.batch_size) if self.batch_size > 1 else ()
        if per_node_opinions is None:
            per_node_opinions = [opinions] * self.num_nodes
        members = member_bits(self.node_ids)
        engines: Dict[str, VoteSetConsensus] = {}
        decisions: List[Dict[int, int]] = []
        for index, (node_id, node_opinions) in enumerate(
            zip(self.node_ids, per_node_opinions, strict=True)
        ):
            if index in self.silent:
                continue
            decided: Dict[int, int] = {}
            decisions.append(decided)
            engines[node_id] = VoteSetConsensus(
                node_id=node_id,
                members=members,
                num_faulty=(self.num_nodes - 1) // 3,
                serials=node_opinions,
                blocks=blocks,
                broadcast=partial(self.broadcast, node_id),
                schedule=lambda _delay, callback: self.timers.append(callback),
                opinion_of=node_opinions.__getitem__,
                on_decide=decided.setdefault,
            )
        for engine in engines.values():
            engine.ready_all()
        steps = 0
        while self.queue or self.timers:
            while self.queue:
                destination, sender, message = self.queue.popleft()
                engine = engines.get(destination)
                if engine is not None:  # silent nodes hear nothing either
                    engine.handle(sender, message)
                steps += 1
                if steps > MAX_STEPS:
                    raise RuntimeError("cluster did not quiesce; message storm?")
            # Queue drained: every in-flight message was handled, so pending
            # grace timers (waiting for slow proposals) may now fire.
            pending, self.timers = self.timers, []
            for callback in pending:
                callback()
        result = ClusterResult(
            decisions=decisions,
            messages_sent=self.messages_sent,
            superblocks_fast=sum(engine.superblocks_fast for engine in engines.values()),
            superblocks_fallback=sum(engine.superblocks_fallback for engine in engines.values()),
        )
        # The caller's ``del cluster`` must free a shard's consensus state at
        # once: the scale pipeline's O(shard) memory depends on it.
        for engine in engines.values():
            engine.close()
        return result
