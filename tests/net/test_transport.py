"""Tests for the transport backends and byte-level bandwidth accounting."""

import pytest

from repro.analysis.determinism import default_choices, outcome_hash
from repro.api import (
    AuditConfig,
    ConsensusConfig,
    ElectionEngine,
    FaultPlan,
    LossBurst,
    NetworkProfile,
    ScenarioSpec,
    TransportProfile,
)
from repro.core.messages import Announce, VscBatch
from repro.net.adversary import NetworkConditions
from repro.net.channels import ChannelKind
from repro.net.codec import FRAME_HEADER_LEN, FRAME_OVERHEAD, MessageCodec, WireFormatError
from repro.net.simulator import Network, SimNode
from repro.net.transport import InProcessTransport, TcpLoopbackTransport


class Sink(SimNode):
    def __init__(self, node_id):
        super().__init__(node_id)
        self.received = []

    def on_message(self, message):
        self.received.append(message)


def wire_network(**kwargs):
    network = Network(
        conditions=NetworkConditions(base_latency=0.001, seed=1),
        transport=InProcessTransport(codec=MessageCodec()),
        **kwargs,
    )
    a, b = Sink("a"), Sink("b")
    network.register(a)
    network.register(b)
    return network, a, b


PAYLOAD = Announce(7, None, None)


class TestByteAccounting:
    def test_default_transport_counts_no_bytes(self):
        network = Network(conditions=NetworkConditions(base_latency=0.001, seed=1))
        a, b = Sink("a"), Sink("b")
        network.register(a)
        network.register(b)
        a.send("b", PAYLOAD)
        network.run_until_idle()
        assert network.bytes_sent == 0
        assert network.bytes_delivered == 0
        assert b.received[0].payload is PAYLOAD  # passed by reference

    def test_wire_transport_counts_frame_bytes(self):
        network, a, b = wire_network()
        frame_len = len(MessageCodec().encode(PAYLOAD))
        a.send("b", PAYLOAD)
        network.run_until_idle()
        assert network.bytes_sent == frame_len
        assert network.bytes_delivered == frame_len
        assert frame_len > FRAME_OVERHEAD

    def test_wire_transport_round_trips_payloads_by_value(self):
        network, a, b = wire_network()
        a.send("b", PAYLOAD)
        network.run_until_idle()
        delivered = b.received[0].payload
        assert delivered == PAYLOAD
        assert delivered is not PAYLOAD  # decoded from bytes, not a reference

    def test_per_channel_byte_split(self):
        network, a, b = wire_network()
        a.send("b", PAYLOAD, channel=ChannelKind.PUBLIC)
        a.send("b", PAYLOAD)
        network.run_until_idle()
        assert network.channel_bytes_sent[ChannelKind.PUBLIC] > 0
        assert network.channel_bytes_sent[ChannelKind.AUTHENTICATED] > 0
        assert (
            network.channel_bytes_sent[ChannelKind.PUBLIC]
            + network.channel_bytes_sent[ChannelKind.AUTHENTICATED]
            == network.bytes_sent
        )
        assert network.channel_bytes_delivered == network.channel_bytes_sent

    def test_dropped_messages_cost_sent_bytes_but_not_delivered(self):
        network = Network(
            conditions=NetworkConditions(base_latency=0.001, drop_rate=1.0, seed=1),
            transport=InProcessTransport(codec=MessageCodec()),
        )
        a, b = Sink("a"), Sink("b")
        network.register(a)
        network.register(b)
        a.send("b", PAYLOAD)
        network.run_until_idle()
        assert network.bytes_sent > 0
        assert network.bytes_delivered == 0
        assert network.payload_bytes_sent == {"Announce": network.bytes_sent}

    def test_per_payload_counters_record_wire_bytes(self):
        network, a, b = wire_network()
        a.broadcast(["a", "b"], PAYLOAD)
        network.run_until_idle()
        frame_len = len(MessageCodec().encode(PAYLOAD))
        assert network.payload_copies_sent == {"Announce": 2}
        assert network.payload_bytes_sent == {"Announce": 2 * frame_len} == {
            "Announce": network.bytes_sent
        }

    def test_bandwidth_summary(self):
        network, a, b = wire_network()
        a.send("b", PAYLOAD)
        network.run_until_idle()
        summary = network.bandwidth_summary()
        assert summary["transport"] == "memory+wire"
        assert summary["bytes_sent"] == network.bytes_sent
        assert summary["channel_bytes_sent"]["authenticated"] == network.bytes_sent
        assert summary["payload_bytes_sent"] == {"Announce": network.bytes_sent}
        assert summary["payload_copies_sent"] == {"Announce": 1}


#: copies per payload type of ``lossy_wire_spec``, summed over the
#: per-message delivery log of 8c75730 (duplicated records skipped, dropped
#: ones kept), before the log gave way to counters
PARENT_COPIES = {
    "Endorse": 32, "Endorsement": 35, "MskShareUpload": 12, "VotePending": 128,
    "VoteReceipt": 9, "VoteRequest": 9, "VoteSetUpload": 12, "VscBatch": 128,
}
#: bytes per payload type of the same run, re-captured once signature nonces
#: became deterministic and receipt and ``msk`` shares travelled without the
#: EA's signature (``VotePending`` 105012 -> 84592 and ``MskShareUpload``
#: 2412 -> 840 bytes; the rest as summed over the log of 8c75730, up to the
#: byte or two a drawn nonce moved them), and once more when schnorr elements
#: became signed quadratic residues: nonces hash the new encodings, so
#: minimal-length signature scalars moved (``Endorsement`` 6159 -> 6160,
#: ``VotePending`` 84592 -> 84608, ``VscBatch`` 107408 -> 107424).  Translated
#: once more when the payloads lost their sender and voter fields: each type's
#: bytes less those fields' encoded bytes in every copy sent (``VoteRequest``
#: 549 -> 450, ``VotePending`` 84608 -> 83584, ``VscBatch`` 107424 -> 105376,
#: ``VoteSetUpload`` 3852 -> 3756, ``MskShareUpload`` 840 -> 744).
PARENT_BYTES = {
    "Endorse": 1600, "Endorsement": 6160, "MskShareUpload": 744, "VotePending": 83584,
    "VoteReceipt": 558, "VoteRequest": 450, "VoteSetUpload": 3756, "VscBatch": 105376,
}


def lossy_wire_spec():
    """Steady 2 % loss, as a loss burst over the whole run, and 10 % duplication."""
    return ScenarioSpec.preset("paper_baseline", num_voters=8, seed=5).derive(
        transport=TransportProfile.wire(),
        network=NetworkProfile.lan(duplicate_rate=0.1),
        faults=FaultPlan((LossBurst(0.0, 1e9, 0.02),)),
    )


def test_per_payload_counters_equal_the_old_delivery_log_sums():
    spec = lossy_wire_spec()
    network = ElectionEngine(spec).run(default_choices(spec)).network
    assert network.messages_dropped == 9  # the run drops and duplicates, as at 8c75730
    assert network.messages_delivered > network.messages_sent - network.messages_dropped
    assert network.payload_copies_sent == PARENT_COPIES
    assert sum(PARENT_COPIES.values()) == network.messages_sent
    assert network.payload_bytes_sent == PARENT_BYTES
    assert sum(network.payload_bytes_sent.values()) == network.bytes_sent


def test_one_seed_sends_the_same_bytes_on_every_run():
    """Signature nonces are derived from key and message, so a seeded run's
    frames are the same bytes every time.  Red while nonces were drawn from
    the OS RNG: ints are encoded at minimal length, so a signature's frame
    moved by a byte whenever a drawn challenge or response had a leading
    zero byte."""
    spec = lossy_wire_spec()
    counts = set()
    for _ in range(3):
        network = ElectionEngine(spec).run(default_choices(spec)).network
        counts.add((network.bytes_sent, tuple(sorted(network.payload_bytes_sent.items()))))
    assert len(counts) == 1


class TestBroadcast:
    """One frame per broadcast, with every receiver treated as by its own submit."""

    RECEIVERS = ["b", "c", "d", "e", "f", "g"]

    def run(self, use_broadcast, transport):
        network = Network(
            conditions=NetworkConditions(
                base_latency=0.001, jitter=0.002, drop_rate=0.15, duplicate_rate=0.15, seed=11
            ),
            transport=transport,
        )
        nodes = {name: Sink(name) for name in ["a", *self.RECEIVERS]}
        for node in nodes.values():
            network.register(node)
        network.crash("d")  # down at delivery time: the sender sees drops
        network.adversary.block_link("a", "f")  # dropped at submit time
        for serial in range(8):
            payload = Announce(serial, b"code", None)
            if use_broadcast:
                nodes["a"].broadcast(self.RECEIVERS, payload)
            else:
                for receiver in self.RECEIVERS:
                    nodes["a"].send(receiver, payload)
        network.run_until_idle()
        received = {
            name: [(m.payload, m.send_time, m.deliver_time, m.wire_bytes) for m in node.received]
            for name, node in nodes.items()
        }
        network.close()
        return network, received

    @pytest.mark.parametrize("make_transport", [
        lambda: InProcessTransport(codec=MessageCodec()),
        lambda: InProcessTransport(),
        TcpLoopbackTransport,
    ], ids=["wire", "memory", "tcp"])
    def test_broadcast_equals_separate_submits(self, make_transport):
        one, one_received = self.run(True, make_transport())
        many, many_received = self.run(False, make_transport())
        assert one_received == many_received
        assert one.bandwidth_summary() == {
            **many.bandwidth_summary(),
            "frames_encoded": one.transport.frames_encoded,
        }
        # The scenario really contains every case it is meant to compare:
        # d is crashed and a->f blocked (8 copies each), more are lost at
        # random, and some copies arrive twice.
        assert one_received["d"] == [] and one_received["f"] == []
        assert one.messages_dropped > 2 * 8
        assert one.messages_delivered > one.messages_sent - one.messages_dropped
        assert one.payload_copies_sent == {"Announce": 8 * len(self.RECEIVERS)}

    def test_broadcast_encodes_once_and_counts_one_frame_per_receiver(self):
        one, _received = self.run(True, InProcessTransport(codec=MessageCodec()))
        many, _received = self.run(False, InProcessTransport(codec=MessageCodec()))
        copies = 8 * len(self.RECEIVERS)
        assert one.transport.frames_sent == many.transport.frames_sent == copies
        assert one.transport.frames_encoded == 8
        assert many.transport.frames_encoded == copies
        assert one.bytes_sent == many.bytes_sent > one.bytes_delivered > 0

    def test_frames_sent_is_counted_at_submit_on_every_transport(self):
        """Dropped frames count as sent: the sender paid for those bytes."""
        wire, _received = self.run(True, InProcessTransport(codec=MessageCodec()))
        tcp, _received = self.run(True, TcpLoopbackTransport())
        assert wire.messages_dropped > 0
        assert tcp.transport.frames_sent == wire.transport.frames_sent == wire.messages_sent
        assert tcp.transport.frames_encoded == wire.transport.frames_encoded
        assert InProcessTransport().frames_sent == 0

    def test_empty_broadcast_encodes_nothing(self):
        network, a, _b = wire_network()
        a.broadcast([], PAYLOAD)
        assert network.transport.frames_encoded == 0
        assert network.messages_sent == 0



class CorruptingTransport(InProcessTransport):
    """Frames every payload with one body byte flipped: the CRC check fails."""

    def encode(self, payload):
        frame = bytearray(super().encode(payload))
        frame[FRAME_HEADER_LEN] ^= 0x01
        return bytes(frame)


class TestOneParsePerBroadcast:
    """The first delivered copy of a send or broadcast decodes its frame;
    every other copy gets that object.  Red at the parent, where every copy
    decoded its frame again."""

    def duplicating_network(self, transport):
        network = Network(
            conditions=NetworkConditions(base_latency=0.001, duplicate_rate=1.0, seed=5),
            transport=transport,
        )
        nodes = [Sink(name) for name in ("a", "b", "c", "d")]
        for node in nodes:
            network.register(node)
        return network, nodes

    def test_every_receiver_and_duplicate_gets_the_same_object(self):
        network, (a, *receivers) = self.duplicating_network(
            InProcessTransport(codec=MessageCodec())
        )
        a.broadcast(["b", "c", "d"], PAYLOAD)
        network.run_until_idle()
        delivered = [message.payload for node in receivers for message in node.received]
        assert len(delivered) == 6  # three receivers, every copy duplicated
        assert delivered[0] == PAYLOAD and delivered[0] is not PAYLOAD
        assert all(payload is delivered[0] for payload in delivered)
        assert network.transport.frames_encoded == network.transport.frames_decoded == 1

    def test_separate_sends_are_parsed_separately(self):
        network, a, b = wire_network()
        a.send("b", PAYLOAD)
        a.send("b", PAYLOAD)
        network.run_until_idle()
        first, second = (message.payload for message in b.received)
        assert first == second and first is not second
        assert network.transport.frames_decoded == 2

    def test_a_frame_that_fails_to_decode_raises_at_every_delivery(self):
        network, (a, *receivers) = self.duplicating_network(
            CorruptingTransport(codec=MessageCodec())
        )
        a.broadcast(["b", "c", "d"], PAYLOAD)
        for _ in range(6):
            with pytest.raises(WireFormatError, match="checksum"):
                network.step()
        assert not network.step()  # six deliveries, each refused
        assert network.transport.frames_decoded == 6  # nothing was cached
        assert all(node.received == [] for node in receivers)

    def test_an_election_without_drops_decodes_each_frame_once(
        self, small_wire_spec, monkeypatch
    ):
        decodes = []
        decode = MessageCodec.decode

        def counting(codec, frame):
            decodes.append(len(frame))
            return decode(codec, frame)

        monkeypatch.setattr(MessageCodec, "decode", counting)
        outcome = ElectionEngine(small_wire_spec).run(CHOICES)
        network, transport = outcome.network, outcome.network.transport
        assert outcome.audit_report.passed and network.messages_dropped == 0
        assert len(decodes) == transport.frames_decoded == transport.frames_encoded
        assert transport.frames_sent > 2 * transport.frames_encoded


@pytest.fixture(scope="module")
def small_wire_spec():
    return ScenarioSpec(
        options=("option-1", "option-2"),
        num_voters=3,
        election_end=400.0,
        transport=TransportProfile.wire(),
    )


CHOICES = ["option-1", "option-2", "option-1"]


def outcome_fingerprint(outcome):
    """Everything the acceptance criterion compares between transports."""
    return (
        outcome.tally.as_dict() if outcome.tally else None,
        outcome.audit_report.passed if outcome.audit_report else None,
        outcome.receipts_obtained,
        outcome.all_receipts_valid,
        tuple(node.final_vote_set for node in outcome.vote_collectors),
        tuple(sorted(outcome.phase_timings)),
    )


class TestTransportEquivalence:
    def test_wire_format_does_not_change_the_outcome(self, small_wire_spec):
        reference = ElectionEngine(
            small_wire_spec.derive(transport=TransportProfile())
        ).run(CHOICES)
        wired = ElectionEngine(small_wire_spec).run(CHOICES)
        assert outcome_fingerprint(reference) == outcome_fingerprint(wired)
        assert reference.network.bytes_sent == 0
        assert wired.network.bytes_sent > 0

    def test_tcp_loopback_election_matches_simulated_outcome(self, small_wire_spec):
        """Acceptance: a real-socket election equals the simulated one."""
        simulated = ElectionEngine(small_wire_spec).run(CHOICES)
        over_tcp = ElectionEngine(
            small_wire_spec.derive(transport=TransportProfile(backend="tcp"))
        ).run(CHOICES)
        assert outcome_fingerprint(simulated) == outcome_fingerprint(over_tcp)
        assert over_tcp.tally is not None and over_tcp.audit_report.passed
        assert over_tcp.network.transport.name == "tcp"
        assert over_tcp.network.transport.frames_sent > 0
        assert over_tcp.network.bytes_sent > 0

    def test_tcp_loopback_carries_announce_envelopes_over_64_kib(self, monkeypatch):
        """Seven collectors, enough voters that every node's announces -- one
        frame since they travel together -- are larger than 64 KiB (a stream
        socket's usual buffer): the frame must cross a real socket pair whole
        and the election must end exactly as the simulated one."""
        spec = ScenarioSpec(
            options=("option-1", "option-2"),
            num_voters=76,
            num_vc=7,
            election_end=400.0,
            stagger=0.005,
            seed=4,
            audit=AuditConfig(enabled=False),
            transport=TransportProfile.wire(),
        )
        choices = ["option-1", "option-2"] * 38
        simulated = ElectionEngine(spec).run(choices)
        announce_frames = []
        deliver = TcpLoopbackTransport.deliver

        def watching_deliver(transport, message):
            payload = deliver(transport, message)
            if isinstance(payload, VscBatch) and isinstance(payload.envelope.messages[0], Announce):
                announce_frames.append((payload, message.wire_bytes))
            return payload

        monkeypatch.setattr(TcpLoopbackTransport, "deliver", watching_deliver)
        tcp = TransportProfile(backend="tcp")
        over_tcp = ElectionEngine(spec.derive(transport=tcp)).run(choices)
        assert over_tcp.network.transport.name == "tcp"
        assert outcome_hash(over_tcp) == outcome_hash(simulated)
        assert over_tcp.receipts_obtained == 76 and over_tcp.tally.as_dict() == {
            "option-1": 38, "option-2": 38,
        }
        assert len(announce_frames) == 7 * 7  # one per node pair, not one per ballot
        for payload, wire_bytes in announce_frames:
            assert len(payload.envelope) == 76
            assert wire_bytes > 64 * 1024

    @pytest.mark.parametrize("batch_size", [1, 4], ids=["per-ballot", "superblock"])
    def test_outcome_hash_is_the_same_on_every_transport(self, small_wire_spec, batch_size):
        spec = small_wire_spec.derive(consensus=ConsensusConfig(batch_size=batch_size))
        hashes = {}
        for backend in ("memory", "wire", "tcp"):
            transport = TransportProfile(backend=backend)
            outcome = ElectionEngine(spec.derive(transport=transport)).run(CHOICES)
            assert outcome.audit_report.passed
            hashes[outcome.network.transport.name] = outcome_hash(outcome)
        assert set(hashes) == {"memory", "memory+wire", "tcp"}
        assert len(set(hashes.values())) == 1, hashes

    def test_superblock_batching_shrinks_consensus_bytes(self):
        """Acceptance: batching reduces measured consensus *bytes*."""

        def consensus_bytes(batch_size):
            spec = ScenarioSpec(
                options=("option-1", "option-2"),
                num_voters=8,
                election_end=400.0,
                audit=AuditConfig(enabled=False),
                consensus=ConsensusConfig(batch_size=batch_size),
                transport=TransportProfile.wire(),
            )
            choices = ["option-1", "option-2"] * 4
            outcome = ElectionEngine(spec).run(choices)
            return outcome.tally.as_dict(), outcome.network.payload_bytes_sent["VscBatch"]

        per_ballot_tally, per_ballot_bytes = consensus_bytes(1)
        batched_tally, batched_bytes = consensus_bytes(8)
        assert per_ballot_tally == batched_tally
        assert 0 < batched_bytes < per_ballot_bytes


class TestTcpTransportLifecycle:
    def test_close_is_idempotent(self):
        transport = TcpLoopbackTransport()
        network = Network(
            conditions=NetworkConditions(base_latency=0.001, seed=1), transport=transport
        )
        a, b = Sink("a"), Sink("b")
        network.register(a)
        network.register(b)
        a.send("b", PAYLOAD)
        network.run_until_idle()
        assert b.received[0].payload == PAYLOAD
        network.close()
        network.close()

    def test_register_after_close_rejected(self):
        transport = TcpLoopbackTransport()
        transport.close()
        with pytest.raises(RuntimeError):
            transport.register("a")

    def test_send_to_unregistered_node_is_silently_dropped(self):
        transport = TcpLoopbackTransport()
        network = Network(
            conditions=NetworkConditions(base_latency=0.001, seed=1), transport=transport
        )
        a = Sink("a")
        network.register(a)
        a.send("ghost", PAYLOAD)
        network.run_until_idle()
        network.close()
