"""Timed fault injection for chaos scenarios.

:class:`ChaosController` turns a declarative :class:`repro.api.spec.FaultPlan`
into events on the :class:`repro.net.simulator.Network` queue, driving the
existing :class:`~repro.net.adversary.Adversary` primitives (partitions,
link blocks, drop-rate overrides) and the simulator's crash/recovery support
at their scheduled simulated times.

Crashing a vote collector snapshots its durable state through the wire codec
(:meth:`~repro.core.vote_collector.VoteCollectorNode.snapshot_state`) -- the
simulation equivalent of the process dying with its write-ahead state intact
on disk.  Recovery restores that snapshot and, when the election has already
closed by then, catches the node up from the Bulletin Board: once a
:class:`~repro.core.bulletin_board.MajorityReader` sees ``fb + 1`` BB nodes
report the same agreed vote set, the recovered node adopts it as final and
uploads its own copy plus its msk share, exactly the read-repair path the
paper prescribes for nodes that missed Vote Set Consensus.

Every action the controller takes is appended to :attr:`ChaosController.log`
with its simulated timestamp, and :meth:`report` summarises the run for the
``recovery.json`` artifacts of the chaos matrix.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.api.spec import (
    ClockSkew,
    CrashNode,
    FaultPlan,
    LossBurst,
    Partition,
    RecoverNode,
)
from repro.core.bulletin_board import MajorityReader
from repro.core.vote_collector import VoteCollectorNode
from repro.net.simulator import Network

#: how often a recovered node re-polls the BB for the agreed vote set, and
#: how many polls it attempts before giving up (the BB may legitimately never
#: agree -- e.g. when the scenario itself is above threshold).
CATCHUP_POLL_INTERVAL = 5.0
CATCHUP_MAX_POLLS = 40


class ChaosController:
    """Schedules a :class:`FaultPlan`'s events onto a running simulation."""

    def __init__(
        self,
        plan: FaultPlan,
        network: Network,
        vote_collectors: List[VoteCollectorNode],
        bb_nodes: Optional[List[Any]] = None,
        election_end: Optional[float] = None,
        codec: Optional[Any] = None,
    ):
        self.plan = plan
        self.network = network
        self.vote_collectors = {node.node_id: node for node in vote_collectors}
        self.bb_nodes = list(bb_nodes or [])
        self.election_end = election_end
        self.codec = codec
        #: chronological record of every action taken, for recovery.json
        self.log: List[Dict[str, Any]] = []
        #: node id -> codec-encoded state captured at its latest crash
        self.snapshots: Dict[str, bytes] = {}
        #: partition event -> exact links it installed (healed precisely)
        self._partition_links: Dict[Partition, set] = {}
        self._installed = False

    # -- installation ------------------------------------------------------------

    def install(self) -> None:
        """Enqueue every planned fault on the network's event queue."""
        if self._installed:
            raise RuntimeError("chaos plan already installed")
        self._installed = True
        for event in self.plan.events:
            if isinstance(event, CrashNode):
                self.network.schedule_at(
                    event.t,
                    lambda e=event: self._crash(e),
                    description=f"chaos:crash:{event.node}",
                )
            elif isinstance(event, RecoverNode):
                self.network.schedule_at(
                    event.t,
                    lambda e=event: self._recover(e),
                    description=f"chaos:recover:{event.node}",
                )
            elif isinstance(event, Partition):
                self.network.schedule_at(
                    event.t_start,
                    lambda e=event: self._partition(e),
                    description="chaos:partition",
                )
                self.network.schedule_at(
                    event.t_end,
                    lambda e=event: self._heal(e),
                    description="chaos:heal",
                )
            elif isinstance(event, LossBurst):
                self.network.schedule_at(
                    event.t_start,
                    lambda e=event: self._loss_start(e),
                    description="chaos:loss-burst",
                )
                self.network.schedule_at(
                    event.t_end,
                    lambda e=event: self._loss_end(e),
                    description="chaos:loss-restore",
                )
            elif isinstance(event, ClockSkew):
                self.network.schedule_at(
                    event.t,
                    lambda e=event: self._skew(e),
                    description=f"chaos:skew:{event.node}",
                )

    # -- crash / recovery --------------------------------------------------------

    def _crash(self, event: CrashNode) -> None:
        node = self.vote_collectors[event.node]
        # Snapshot first: the write-ahead state exists the instant before the
        # process dies, not after.
        snapshot = node.snapshot_state(codec=self.codec)
        self.snapshots[event.node] = snapshot
        self.network.crash(event.node)
        node.crashes += 1
        self._log("crash", node=event.node, snapshot_bytes=len(snapshot))

    def _recover(self, event: RecoverNode) -> None:
        node = self.vote_collectors[event.node]
        snapshot = self.snapshots.get(event.node)
        if snapshot is not None:
            node.restore_state(snapshot, codec=self.codec)
        self.network.recover(event.node)
        needs_catchup = (
            self.election_end is not None and self.network.now >= self.election_end
        )
        self._log(
            "recover",
            node=event.node,
            restored=snapshot is not None,
            catchup=needs_catchup,
        )
        if needs_catchup:
            # The node slept through election end: its ``end_election`` timer
            # was suppressed and the ANNOUNCE/consensus traffic is long gone.
            # Read-repair from the BB instead of re-running consensus.
            self._schedule_catchup(node, attempt=1)

    def _schedule_catchup(self, node: VoteCollectorNode, attempt: int) -> None:
        self.network.schedule(
            CATCHUP_POLL_INTERVAL,
            lambda: self._poll_bb(node, attempt),
            description=f"chaos:catchup:{node.node_id}",
            owner=node.node_id,
        )

    def _poll_bb(self, node: VoteCollectorNode, attempt: int) -> None:
        # The paper's reader rule: a vote set counts once fb + 1 BB nodes hold
        # it; a node that raises gives no answer, one without a set yet None.
        try:
            reader = MajorityReader(self.bb_nodes, node.params)
            vote_set = reader.read(lambda bb: bb.accepted_vote_set)
        except ValueError:
            vote_set = None
        if vote_set is not None:
            node.adopt_final_vote_set(vote_set)
            self._log(
                "catchup",
                node=node.node_id,
                attempts=attempt,
                vote_set_size=len(vote_set),
            )
            return
        if attempt >= CATCHUP_MAX_POLLS:
            self._log("catchup-abandoned", node=node.node_id, attempts=attempt)
            return
        self._schedule_catchup(node, attempt + 1)

    # -- network faults ----------------------------------------------------------

    def _partition(self, event: Partition) -> None:
        installed: set = set()
        groups = event.groups
        for i, group_a in enumerate(groups):
            for group_b in groups[i + 1:]:
                installed |= self.network.adversary.partition(group_a, group_b)
        self._partition_links[event] = installed
        self._log("partition", groups=[list(g) for g in event.groups], links=len(installed))

    def _heal(self, event: Partition) -> None:
        links = self._partition_links.pop(event, set())
        self.network.adversary.heal_links(links)
        self._log("heal", links=len(links))

    def _loss_start(self, event: LossBurst) -> None:
        # Capture the prevailing rate at fire time (bursts never overlap, so
        # restoring it at t_end is always correct).
        previous = self.network.conditions.drop_rate
        self._loss_previous = previous
        self.network.conditions = self.network.conditions.replace(drop_rate=event.rate)
        self._log("loss-burst", rate=event.rate, previous=previous)

    def _loss_end(self, event: LossBurst) -> None:
        self.network.conditions = self.network.conditions.replace(
            drop_rate=self._loss_previous
        )
        self._log("loss-restore", rate=self._loss_previous)

    def _skew(self, event: ClockSkew) -> None:
        self.network.clocks.clock_of(event.node).set_drift(event.drift)
        self._log("clock-skew", node=event.node, drift=event.drift)

    # -- reporting ---------------------------------------------------------------

    def _log(self, kind: str, **detail: Any) -> None:
        self.log.append({"t": self.network.now, "kind": kind, **detail})

    def report(self) -> Dict[str, Any]:
        """JSON-compatible summary of everything the controller did."""
        crashes = {
            node_id: node.crashes
            for node_id, node in self.vote_collectors.items()
            if node.crashes
        }
        recovered = {
            node_id: node.recovered_at
            for node_id, node in self.vote_collectors.items()
            if node.recovered_at is not None
        }
        caught_up = sorted(
            node_id
            for node_id, node in self.vote_collectors.items()
            if node.caught_up_from_bb
        )
        return {
            "expect_failure": self.plan.expect_failure,
            "planned_events": [event.to_dict() for event in self.plan.events],
            "actions": list(self.log),
            "crashes": crashes,
            "recovered_at": recovered,
            "caught_up_from_bb": caught_up,
            "snapshot_bytes": {k: len(v) for k, v in self.snapshots.items()},
            "events_suppressed": self.network.events_suppressed,
            "still_crashed": sorted(self.network.crashed_nodes),
        }
