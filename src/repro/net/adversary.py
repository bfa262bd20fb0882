"""Network conditions and the Byzantine adversary of the paper's model.

Figure 1 of the paper gives the adversary full control over message delivery
and node clocks, restricted only by the fault thresholds (``fv < Nv/3``,
``fb < Nb/2``, at most ``Nt - ht`` trustees) and -- for liveness only -- the
bounds ``delta`` (message delay) and ``Delta`` (clock drift).  In the
simulator this is split into:

* :class:`NetworkConditions` -- how long honest-to-honest messages take, and
  whether the (non-Byzantine part of the) network drops or duplicates them.
  When ``max_delay`` is set, delivery respects the liveness assumption.
* :class:`Adversary` -- message scheduling hooks (delay a specific message,
  drop messages between specific nodes, partition honest nodes for a while)
  used by fault-injection tests and the chaos controller.

Which nodes are corrupted, and how, is :class:`repro.api.spec.AdversaryProfile`;
the thresholds are :class:`repro.core.election.FaultThresholds`; the LAN and
WAN latency profiles are ``NetworkProfile.lan`` / ``NetworkProfile.wan``.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Set

from repro.net.channels import Message


@dataclass
class NetworkConditions:
    """Latency/loss profile applied to every message.

    ``base_latency`` and ``jitter`` are in the same (abstract) time unit the
    simulation uses -- the benchmarks interpret it as seconds.  ``drop_rate``
    and ``duplicate_rate`` model an unreliable network; dropped messages are
    retransmitted by the protocol layer, as the paper assumes senders keep
    retransmitting until delivery.
    """

    base_latency: float = 0.001
    jitter: float = 0.0
    drop_rate: float = 0.0
    duplicate_rate: float = 0.0
    max_delay: Optional[float] = None
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        self._rng = random.Random(self.seed)

    def replace(self, **changes) -> "NetworkConditions":
        """A copy with some fields changed that *keeps the live RNG stream*.

        ``dataclasses.replace`` re-runs ``__post_init__`` and therefore
        rebuilds the RNG from the seed, replaying the latency/loss stream
        from the start -- which silently de-randomizes any run that changes
        conditions mid-flight (a chaos loss burst, a profile switch).  Use
        this method instead: the copy continues the original's stream.
        """
        copy = dataclasses.replace(self, **changes)
        copy._rng = self._rng
        return copy

    def sample_latency(self) -> float:
        """Sample the delivery latency for one message."""
        latency = self.base_latency
        if self.jitter > 0:
            latency += self._rng.uniform(0.0, self.jitter)
        if self.max_delay is not None:
            latency = min(latency, self.max_delay)
        return latency

    def should_drop(self) -> bool:
        """Decide whether the network loses this transmission."""
        return self.drop_rate > 0 and self._rng.random() < self.drop_rate

    def should_duplicate(self) -> bool:
        """Decide whether the network duplicates this transmission."""
        return self.duplicate_rate > 0 and self._rng.random() < self.duplicate_rate


@dataclass
class Adversary:
    """Message-scheduling power of the Byzantine adversary."""

    #: extra delay (seconds) applied to messages matching a predicate
    delay_rules: list = field(default_factory=list)
    #: pairs (sender, receiver) whose messages are silently dropped
    blocked_links: Set[tuple] = field(default_factory=set)

    def block_link(self, sender: str, receiver: str) -> None:
        """Drop every message from ``sender`` to ``receiver`` until unblocked."""
        self.blocked_links.add((sender, receiver))

    def unblock_link(self, sender: str, receiver: str) -> None:
        self.blocked_links.discard((sender, receiver))

    def partition(self, group_a: Iterable[str], group_b: Iterable[str]) -> Set[tuple]:
        """Block every link between two groups of nodes (both directions).

        Returns the set of links this call installed (links that were already
        blocked for another reason are not included), so a caller can heal
        exactly this partition with :meth:`heal_links` and leave links
        blocked independently via :meth:`block_link` in force.
        """
        group_a, group_b = list(group_a), list(group_b)
        installed: Set[tuple] = set()
        for a in group_a:
            for b in group_b:
                for link in ((a, b), (b, a)):
                    if link not in self.blocked_links:
                        self.blocked_links.add(link)
                        installed.add(link)
        return installed

    def heal_links(self, links: Iterable[tuple]) -> None:
        """Unblock exactly the given links (e.g. one timed partition's set)."""
        for link in links:
            self.unblock_link(*link)

    def add_delay_rule(self, predicate: Callable[[Message], bool], extra_delay: float) -> None:
        """Delay every message matching ``predicate`` by ``extra_delay``."""
        self.delay_rules.append((predicate, extra_delay))

    def schedule(self, message: Message) -> Optional[float]:
        """Return the extra delay for a message, or ``None`` to drop it."""
        if (message.sender, message.receiver) in self.blocked_links:
            return None
        extra = 0.0
        for predicate, delay in self.delay_rules:
            if predicate(message):
                extra += delay
        return extra
