"""Messages and channels.

VC nodes talk to each other over *private, authenticated* channels and expose
a *public, unauthenticated* channel to voters; BB nodes are read over a public
anonymous channel and written over an authenticated one.  In the simulator a
channel is a property of the message (who sent it, whether the link is
authenticated) rather than a socket, which is all the protocol logic needs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Optional


class ChannelKind(Enum):
    """The two channel flavours the paper distinguishes."""

    AUTHENTICATED = "authenticated"
    PUBLIC = "public"


@dataclass(frozen=True)
class Channel:
    """A directed link between two named endpoints."""

    sender: str
    receiver: str
    kind: ChannelKind = ChannelKind.AUTHENTICATED

    @property
    def is_authenticated(self) -> bool:
        return self.kind is ChannelKind.AUTHENTICATED


_MESSAGE_COUNTER = itertools.count()


@dataclass
class Message:
    """A protocol message in flight.

    ``payload`` is an arbitrary protocol-level object (one of the dataclasses
    in :mod:`repro.core.messages`, a consensus message, ...).  ``sender`` is
    authenticated iff the channel is; Byzantine nodes may forge the sender on
    public channels but not on authenticated ones (the simulator enforces it).
    """

    sender: str
    receiver: str
    payload: Any
    channel: ChannelKind = ChannelKind.AUTHENTICATED
    send_time: float = 0.0
    deliver_time: float = 0.0
    message_id: int = field(default_factory=lambda: next(_MESSAGE_COUNTER))
    #: canonical wire encoding of ``payload`` (set by the transport when the
    #: wire format is enabled)
    wire_frame: Optional[bytes] = None
    #: size of the wire encoding in bytes (0 when the wire format is off)
    wire_bytes: int = 0

    def duplicate(self) -> "Message":
        """Create a copy with a fresh message id (adversarial duplication)."""
        return Message(
            sender=self.sender,
            receiver=self.receiver,
            payload=self.payload,
            channel=self.channel,
            send_time=self.send_time,
            deliver_time=self.deliver_time,
            message_id=next(_MESSAGE_COUNTER),
            wire_frame=self.wire_frame,
            wire_bytes=self.wire_bytes,
        )

