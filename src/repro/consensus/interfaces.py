"""Message types of the consensus layer."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ConsensusMessage:
    """Base class for all binary-consensus messages.

    ``instance`` identifies which consensus instance (in D-DEMOS: which
    ballot serial number) the message belongs to, so a single pair of nodes
    can run hundreds of thousands of instances over one logical channel.
    """

    instance: str


@dataclass(frozen=True)
class BVal(ConsensusMessage):
    """Binary-value broadcast message (first exchange of a round)."""

    round: int = 0
    value: int = 0


@dataclass(frozen=True)
class Aux(ConsensusMessage):
    """Auxiliary message carrying a value taken from ``bin_values``."""

    round: int = 0
    value: int = 0


@dataclass(frozen=True)
class Finish(ConsensusMessage):
    """Decision announcement; lets lagging nodes terminate."""

    value: int = 0
