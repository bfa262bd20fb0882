"""Deterministic discrete-event network simulator.

The simulator replaces the paper's Netty/TLS deployment with an in-process
event loop: nodes are objects with an ``on_message`` handler, sends become
events on a priority queue, and the :class:`~repro.net.adversary.Adversary`
plus :class:`~repro.net.adversary.NetworkConditions` decide when (or whether)
each message arrives.  Everything is driven by explicit seeds so a protocol
execution -- including Byzantine behaviour and message reordering -- is fully
reproducible.
"""

from __future__ import annotations

import heapq
import itertools
from typing import TYPE_CHECKING, Any, Callable, Dict, Iterable, List, NamedTuple, Optional

from repro.net.adversary import Adversary, NetworkConditions
from repro.net.channels import ChannelKind, Message
from repro.net.clock import ClockRegistry, GlobalClock

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.transport import Transport


class Event(NamedTuple):
    """An entry in the simulator's priority queue.

    A plain tuple, so ``heapq`` orders entries with the native tuple
    comparison: ``(time, sequence)`` is the key and ``sequence`` is unique,
    so the comparison never reaches ``action``.

    ``owner`` names the node whose local processing the event represents (a
    timer, a scheduled local action): events owned by a node that is crashed
    when they fire are suppressed, exactly as a dead process loses its
    in-memory timers.
    """

    time: float
    sequence: int
    action: Callable[[], None]
    description: str = ""
    owner: Optional[str] = None


class SimNode:
    """Base class for every simulated protocol participant.

    Subclasses implement :meth:`on_message`; they send through :meth:`send`,
    :meth:`broadcast` and can schedule local timers with :meth:`set_timer`.
    """

    def __init__(self, node_id: str):
        self.node_id = node_id
        self.network: Optional["Network"] = None

    # -- wiring -----------------------------------------------------------------

    def attach(self, network: "Network") -> None:
        """Called by the network when the node is registered."""
        self.network = network

    @property
    def clock(self):
        """The node's internal clock."""
        return self.network.clocks.clock_of(self.node_id)

    @property
    def now(self) -> float:
        """Current internal time of this node."""
        return self.clock.now

    # -- messaging ---------------------------------------------------------------

    def send(self, receiver: str, payload: Any, channel: ChannelKind = ChannelKind.AUTHENTICATED) -> None:
        """Send a message to a single node."""
        self.network.submit(self.node_id, receiver, payload, channel)

    def broadcast(self, receivers: Iterable[str], payload: Any,
                  channel: ChannelKind = ChannelKind.AUTHENTICATED) -> None:
        """Send the same payload to many nodes (including possibly ourselves)."""
        self.network.broadcast(self.node_id, receivers, payload, channel)

    def set_timer(self, delay: float, callback: Callable[[], None], description: str = "timer") -> None:
        """Schedule a local callback ``delay`` time units in the future.

        The timer is owned by this node: it does not fire while the node is
        crashed (a restarted process has lost its in-memory timers).
        """
        self.network.schedule(
            delay, callback, description=f"{self.node_id}:{description}", owner=self.node_id
        )

    # -- handlers ------------------------------------------------------------------

    def on_message(self, message: Message) -> None:
        """Handle a delivered message; subclasses override."""
        raise NotImplementedError


class Network:
    """The event loop tying nodes, clocks, conditions and the adversary together."""

    def __init__(
        self,
        conditions: Optional[NetworkConditions] = None,
        adversary: Optional[Adversary] = None,
        max_drift: Optional[float] = None,
        transport: Optional["Transport"] = None,
    ):
        self.conditions = conditions or NetworkConditions()
        self.adversary = adversary or Adversary()
        self.clocks = ClockRegistry(GlobalClock(), max_drift=max_drift)
        self.nodes: Dict[str, SimNode] = {}
        self._queue: List[Event] = []
        self._sequence = itertools.count()
        self.messages_sent = 0
        self.messages_delivered = 0
        self.messages_dropped = 0
        #: nodes currently crashed: they neither receive messages nor run
        #: their owned timers until :meth:`recover` is called.
        self.crashed_nodes: set = set()
        #: owned events skipped because their owner was crashed at fire time
        self.events_suppressed = 0
        if transport is None:
            from repro.net.transport import InProcessTransport

            transport = InProcessTransport()
        self.transport = transport
        self.transport.attach(self)
        # Byte-level bandwidth accounting (non-zero only when the transport
        # runs the wire format).  "Sent" counts every submitted frame, dropped
        # or not -- the sender paid for those bytes; "delivered" counts only
        # frames that reached a handler.
        self.bytes_sent = 0
        self.bytes_delivered = 0
        self.channel_bytes_sent: Dict[ChannelKind, int] = {kind: 0 for kind in ChannelKind}
        self.channel_bytes_delivered: Dict[ChannelKind, int] = {kind: 0 for kind in ChannelKind}
        #: copies and bytes sent per payload class name, counted like
        #: ``messages_sent`` / ``bytes_sent`` (adversarial duplicates excluded)
        self.payload_copies_sent: Dict[str, int] = {}
        self.payload_bytes_sent: Dict[str, int] = {}

    # -- registration ----------------------------------------------------------

    def register(self, node: SimNode, clock_drift: float = 0.0) -> SimNode:
        """Add a node to the simulation."""
        if node.node_id in self.nodes:
            raise ValueError(f"duplicate node id {node.node_id!r}")
        self.nodes[node.node_id] = node
        self.clocks.register(node.node_id, drift=clock_drift)
        self.transport.register(node.node_id)
        node.attach(self)
        return node

    def register_all(self, nodes: Iterable[SimNode]) -> None:
        for node in nodes:
            self.register(node)

    @property
    def now(self) -> float:
        """Current global time."""
        return self.clocks.global_clock.now

    # -- crash / recovery --------------------------------------------------------

    def crash(self, node_id: str) -> None:
        """Take a node down: no deliveries, no owned timers, until recovery."""
        if node_id not in self.nodes:
            raise ValueError(f"cannot crash unknown node {node_id!r}")
        self.crashed_nodes.add(node_id)

    def recover(self, node_id: str) -> None:
        """Bring a crashed node back; messages start flowing to it again."""
        self.crashed_nodes.discard(node_id)

    def is_crashed(self, node_id: str) -> bool:
        return node_id in self.crashed_nodes

    # -- sending ---------------------------------------------------------------

    def submit(self, sender: str, receiver: str, payload: Any,
               channel: ChannelKind = ChannelKind.AUTHENTICATED) -> None:
        """Submit a message for (possible) delivery."""
        self.broadcast(sender, (receiver,), payload, channel)

    def broadcast(self, sender: str, receivers: Iterable[str], payload: Any,
                  channel: ChannelKind = ChannelKind.AUTHENTICATED) -> None:
        """Submit one payload to every receiver, serialising it once.

        The transport frames the payload a single time; every receiver then
        gets its own :class:`Message` around that frame and its own
        adversary / drop / latency / duplicate decisions, drawn in receiver
        order -- exactly the random stream ``len(receivers)`` separate
        :meth:`submit` calls would draw.
        """
        if sender in self.crashed_nodes:
            # A dead process cannot put anything on the wire.  (Defensive:
            # crashed nodes never run handlers, so they rarely reach here.)
            return
        receivers = tuple(receivers)
        if not receivers:
            return
        copies = len(receivers)
        frame = self.transport.encode(payload)
        wire_bytes = 0
        if frame is not None:
            wire_bytes = len(frame)
            self.transport.frames_sent += copies
        # "Sent" counts every submitted copy, dropped or not.
        self.messages_sent += copies
        self.bytes_sent += wire_bytes * copies
        self.channel_bytes_sent[channel] += wire_bytes * copies
        name = type(payload).__name__
        self.payload_copies_sent[name] = self.payload_copies_sent.get(name, 0) + copies
        self.payload_bytes_sent[name] = self.payload_bytes_sent.get(name, 0) + wire_bytes * copies
        now = self.now
        for receiver in receivers:
            message = Message(
                sender=sender,
                receiver=receiver,
                payload=payload,
                channel=channel,
                send_time=now,
                wire_frame=frame,
                wire_bytes=wire_bytes,
            )
            extra_delay = self.adversary.schedule(message)
            if extra_delay is None or self.conditions.should_drop():
                self.messages_dropped += 1
                continue
            latency = self.conditions.sample_latency() + extra_delay
            self._enqueue_delivery(message, latency)
            if self.conditions.should_duplicate():
                duplicate = message.duplicate()
                self._enqueue_delivery(duplicate, self.conditions.sample_latency() + extra_delay)

    def _enqueue_delivery(self, message: Message, latency: float) -> None:
        deliver_time = self.now + max(latency, 0.0)
        message.deliver_time = deliver_time

        def deliver() -> None:
            receiver = self.nodes.get(message.receiver)
            if receiver is None:
                return
            if message.receiver in self.crashed_nodes:
                # The frame reaches the host but the process is down; the
                # sender sees a drop (protocols retransmit, as the paper
                # assumes).
                self.messages_dropped += 1
                return
            payload = self.transport.deliver(message)
            if payload is not message.payload:
                message.payload = payload
            self.messages_delivered += 1
            self.bytes_delivered += message.wire_bytes
            self.channel_bytes_delivered[message.channel] += message.wire_bytes
            receiver.on_message(message)

        self.schedule_at(deliver_time, deliver, description=f"deliver->{message.receiver}")

    # -- event queue --------------------------------------------------------------

    def schedule(self, delay: float, action: Callable[[], None], description: str = "",
                 owner: Optional[str] = None) -> None:
        """Schedule an action ``delay`` time units from now."""
        self.schedule_at(self.now + max(delay, 0.0), action, description, owner=owner)

    def schedule_at(self, timestamp: float, action: Callable[[], None], description: str = "",
                    owner: Optional[str] = None) -> None:
        """Schedule an action at an absolute global time.

        ``owner`` marks the event as local processing of one node; it is
        suppressed if that node is crashed when the event fires.
        """
        heapq.heappush(
            self._queue, Event(timestamp, next(self._sequence), action, description, owner)
        )

    def step(self) -> bool:
        """Process the next event; returns False when the queue is empty."""
        if not self._queue:
            return False
        event = heapq.heappop(self._queue)
        self.clocks.global_clock.advance_to(event.time)
        if event.owner is not None and event.owner in self.crashed_nodes:
            self.events_suppressed += 1
            return True
        event.action()
        return True

    def run(self, max_events: int = 1_000_000, until: Optional[float] = None) -> int:
        """Run events until the queue drains, a deadline passes, or a budget is hit.

        Returns the number of events processed.  The budget guards against
        protocol bugs producing infinite message storms in tests.
        """
        processed = 0
        while self._queue and processed < max_events:
            if until is not None and self._queue[0].time > until:
                break
            self.step()
            processed += 1
        # Only a budget hit with work still queued is suspicious; draining the
        # queue on exactly the last budgeted event (or having only events past
        # the deadline left) is a normal completion.
        if (
            processed >= max_events
            and self._queue
            and (until is None or self._queue[0].time <= until)
        ):
            raise RuntimeError("event budget exhausted; possible message storm")
        return processed

    def run_until_idle(self, max_events: int = 1_000_000) -> int:
        """Run until no events remain."""
        return self.run(max_events=max_events)

    def pending_events(self) -> int:
        """Number of events still queued."""
        return len(self._queue)

    def next_event_time(self) -> Optional[float]:
        """Timestamp of the earliest queued event, or ``None`` when idle.

        Used by schedulers that multiplex several independent networks (the
        multi-election service) to step them in merged global-time order.
        """
        if not self._queue:
            return None
        return self._queue[0].time

    # -- observability -------------------------------------------------------------

    def bandwidth_summary(self) -> Dict[str, Any]:
        """Byte/message counters in one dict (all zeros without a wire format)."""
        return {
            "transport": self.transport.name,
            "messages_sent": self.messages_sent,
            "messages_delivered": self.messages_delivered,
            "messages_dropped": self.messages_dropped,
            "bytes_sent": self.bytes_sent,
            "bytes_delivered": self.bytes_delivered,
            "frames_sent": self.transport.frames_sent,
            "frames_encoded": self.transport.frames_encoded,
            "channel_bytes_sent": {
                kind.value: count for kind, count in self.channel_bytes_sent.items()
            },
            "channel_bytes_delivered": {
                kind.value: count for kind, count in self.channel_bytes_delivered.items()
            },
            "payload_copies_sent": dict(self.payload_copies_sent),
            "payload_bytes_sent": dict(self.payload_bytes_sent),
        }

    def close(self) -> None:
        """Shut down the transport (sockets, event loops); idempotent."""
        self.transport.close()
