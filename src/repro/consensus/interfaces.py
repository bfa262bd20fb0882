"""What a host shares with its consensus instances: the message types and
the member set.

A host (a vote collector, a :class:`~repro.consensus.cluster.ConsensusCluster`)
builds one :func:`member_bits` map from its participants and hands it to every
instance it runs.  The instances then hold every set of participants -- BVAL,
AUX and FINISH senders, reliable-broadcast supporters, a collector's ANNOUNCE
senders -- as an ``int`` with one bit per member, sized with
``int.bit_count()``.  A sender the map does not name has no bit, so nothing it
sends is counted.  This module is the only one that assigns the bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable


def member_bits(members: Iterable[str]) -> Dict[str, int]:
    """Map each participant to its own bit, in the order given.

    A set of participants is then the ``|`` of their bits, and its size the
    ``int.bit_count()`` of the result; ``bits.get(sender, 0)`` is ``0`` for a
    sender outside the set.
    """
    return {member: 1 << index for index, member in enumerate(members)}


@dataclass(frozen=True, slots=True)
class ConsensusMessage:
    """Base class for all binary-consensus messages.

    ``instance`` identifies which consensus instance (in D-DEMOS: which
    ballot serial number) the message belongs to, so a single pair of nodes
    can run hundreds of thousands of instances over one logical channel.
    """

    instance: str


@dataclass(frozen=True, slots=True, weakref_slot=True)
class BVal(ConsensusMessage):
    """Binary-value broadcast message (first exchange of a round)."""

    round: int = 0
    value: int = 0


@dataclass(frozen=True, slots=True, weakref_slot=True)
class Aux(ConsensusMessage):
    """Auxiliary message carrying a value taken from ``bin_values``."""

    round: int = 0
    value: int = 0


@dataclass(frozen=True, slots=True, weakref_slot=True)
class Finish(ConsensusMessage):
    """Decision announcement; lets lagging nodes terminate."""

    value: int = 0
