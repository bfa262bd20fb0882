"""Pluggable message transports for the discrete-event network.

The :class:`~repro.net.simulator.Network` decides *when* a message arrives
(conditions, adversary, clocks); a :class:`Transport` decides *how* its bytes
travel.  Two backends ship:

* :class:`InProcessTransport` -- the historical in-memory delivery.  With a
  :class:`~repro.net.codec.MessageCodec` attached, every payload is encoded
  to its canonical frame at send time (so the simulator counts real wire
  bytes) and the first delivered copy of a send or broadcast decodes that
  frame (so nothing undeclared ever crosses the boundary); every later copy,
  duplicates included, receives the same decoded object.  Without a codec,
  payloads are handed over by reference, exactly as before.
* :class:`TcpLoopbackTransport` -- every registered node gets a real asyncio
  TCP server on the loopback interface, and every delivery pushes the
  message's canonical frame through an actual socket pair before the decoded
  payload reaches the receiver.  Event ordering and timing stay under the
  deterministic simulator, so a run over TCP produces the *identical*
  election outcome as the simulated transport -- which is precisely the
  property the acceptance test checks.

A payload is framed once per send or broadcast (:meth:`Transport.encode`);
the network hands that one frame to every receiver's message, so the frame
size feeds the per-channel byte counters that are the raw material of the
paper-style bandwidth figures in ``benchmarks/bench_wire_bandwidth.py``.
``frames_encoded`` and ``frames_decoded`` count the two ends: in memory, a
run without drops parses exactly as many frames as it encodes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Optional, Tuple

from repro.net.channels import Message
from repro.net.codec import FRAME_HEADER_LEN, MessageCodec, default_codec

if TYPE_CHECKING:  # pragma: no cover - typing only
    import asyncio  # at run time: bound by the first TcpLoopbackTransport

    from repro.net.simulator import Network


class Transport:
    """How message bytes travel between two simulated nodes."""

    name: str = "abstract"

    def __init__(self, codec: Optional[MessageCodec] = None) -> None:
        self.network: Optional["Network"] = None
        #: wire format of this transport (``None``: payloads travel by reference)
        self.codec = codec
        #: frames submitted to the network, one per receiver, dropped ones
        #: included (0 when no wire format is used)
        self.frames_sent = 0
        #: payloads actually serialised; a broadcast encodes once for all receivers
        self.frames_encoded = 0
        #: frames parsed back into payloads (:meth:`decode` calls)
        self.frames_decoded = 0

    def attach(self, network: "Network") -> None:
        """Called once by the network that owns this transport."""
        self.network = network

    def register(self, node_id: str) -> None:
        """Called for every node added to the network (endpoint setup hook)."""

    def encode(self, payload: Any) -> Optional[bytes]:
        """The canonical frame of ``payload``, or ``None`` without a wire format.

        Called once per send or broadcast; the network attaches the frame to
        every receiver's message and counts its exact bytes, including for
        dropped messages.
        """
        if self.codec is None:
            return None
        self.frames_encoded += 1
        return self.codec.encode(payload)

    def decode(self, data: bytes) -> Any:
        """Parse one frame back into its payload (counted in ``frames_decoded``)."""
        self.frames_decoded += 1
        return self.codec.decode(data)

    def deliver(self, message: Message) -> Any:
        """Carry the message to its receiver; return the payload to dispatch."""
        return message.payload

    def close(self) -> None:
        """Release sockets/loops; safe to call more than once."""


class InProcessTransport(Transport):
    """In-memory delivery, optionally round-tripped through the wire format."""

    def __init__(self, codec: Optional[MessageCodec] = None):
        super().__init__(codec)
        self.name = "memory+wire" if codec is not None else "memory"

    def deliver(self, message: Message) -> Any:
        frame = message.wire_frame
        if frame is None:  # no wire format
            return message.payload
        if frame.decoded is None:
            frame.decoded = self.decode(frame.data)
        return frame.decoded


class TcpLoopbackTransport(Transport):
    """Real asyncio TCP sockets on the loopback interface.

    Each registered node owns one listening server; directed sender->receiver
    connections are opened lazily and kept for the whole run.  Deliveries are
    strictly sequential (the simulator processes one event at a time), so the
    frame read off the receiver's socket is always the frame just written --
    determinism is inherited from the event loop, while the bytes genuinely
    cross the operating system's TCP stack.
    """

    name = "tcp"

    def __init__(self, codec: Optional[MessageCodec] = None, host: str = "127.0.0.1"):
        super().__init__(codec or default_codec())
        # Imported by the first transport over real sockets, for the whole
        # module: a simulated run does not pay for asyncio (~40 ms, ~11 MiB).
        global asyncio
        import asyncio

        self.host = host
        self.loop = asyncio.new_event_loop()
        self._servers: Dict[str, asyncio.AbstractServer] = {}
        self._ports: Dict[str, int] = {}
        self._inboxes: Dict[str, asyncio.Queue] = {}
        self._writers: Dict[Tuple[str, str], asyncio.StreamWriter] = {}
        self._closed = False

    # -- endpoints --------------------------------------------------------------

    def register(self, node_id: str) -> None:
        if self._closed:
            raise RuntimeError("transport already closed")
        self.loop.run_until_complete(self._start_server(node_id))

    async def _start_server(self, node_id: str) -> None:
        inbox: asyncio.Queue = asyncio.Queue()

        async def handle(reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
            try:
                while True:
                    header = await reader.readexactly(FRAME_HEADER_LEN)
                    rest = await reader.readexactly(
                        MessageCodec.frame_remainder_length(header)
                    )
                    await inbox.put(header + rest)
            except (asyncio.IncompleteReadError, ConnectionResetError):
                pass
            except asyncio.CancelledError:
                # Normal shutdown path: close() cancels the handler tasks.
                pass
            finally:
                writer.close()

        server = await asyncio.start_server(handle, self.host, 0)
        self._servers[node_id] = server
        self._ports[node_id] = server.sockets[0].getsockname()[1]
        self._inboxes[node_id] = inbox

    # -- transport interface ----------------------------------------------------

    def deliver(self, message: Message) -> Any:
        if self._closed:
            raise RuntimeError("transport already closed")
        if message.wire_frame is None:
            raise RuntimeError("message was submitted without a wire frame")
        if message.receiver not in self._ports:
            # The simulator drops sends to unregistered nodes; mirror that.
            return message.payload
        received = self.loop.run_until_complete(self._roundtrip(message))
        return self.decode(received)

    async def _roundtrip(self, message: Message) -> bytes:
        writer = await self._writer_for(message.sender, message.receiver)
        writer.write(message.wire_frame.data)
        await writer.drain()
        return await self._inboxes[message.receiver].get()

    async def _writer_for(self, sender: str, receiver: str) -> asyncio.StreamWriter:
        key = (sender, receiver)
        writer = self._writers.get(key)
        if writer is None:
            _, writer = await asyncio.open_connection(self.host, self._ports[receiver])
            self._writers[key] = writer
        return writer

    # -- shutdown ---------------------------------------------------------------

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True

        async def shutdown() -> None:
            for writer in self._writers.values():
                writer.close()
            for server in self._servers.values():
                server.close()
                await server.wait_closed()
            # The per-connection handler coroutines block on readexactly;
            # cancel them so the loop closes without pending tasks.
            tasks = [
                task for task in asyncio.all_tasks() if task is not asyncio.current_task()
            ]
            for task in tasks:
                task.cancel()
            await asyncio.gather(*tasks, return_exceptions=True)

        self.loop.run_until_complete(shutdown())
        self.loop.close()
        self._writers.clear()
        self._servers.clear()

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            if not self._closed and not self.loop.is_closed():
                self.close()
        except Exception:
            pass
