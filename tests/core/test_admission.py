"""Unit tests for the voting-phase admission pipeline primitives."""

import pytest

from repro.core.admission import (
    ADMISSION_POLICIES,
    AdmissionQueue,
    AdmissionStats,
    EndorsementBatcher,
    node_batch_seed,
    parse_retry_hint,
    shed_reason,
)
from repro.core.election import AdmissionProfile
from repro.core.messages import Endorsement
from repro.core.vote_collector import endorsement_message
from repro.crypto.batch_verify import BatchVerifier
from repro.crypto.signatures import SignatureScheme
from repro.crypto.utils import RandomSource


class FakeNode:
    """A SimNode stand-in whose timers fire only when the test says so."""

    def __init__(self):
        self.timers = []

    def set_timer(self, delay, callback, description=""):
        self.timers.append((delay, callback, description))

    def fire_next(self):
        _delay, callback, _description = self.timers.pop(0)
        callback()

    def fire_all(self):
        while self.timers:
            self.fire_next()


class TestRetryHint:
    def test_round_trips_through_the_reason_string(self):
        assert parse_retry_hint(shed_reason(0.25)) == pytest.approx(0.25, abs=1e-3)

    def test_protocol_rejections_carry_no_hint(self):
        assert parse_retry_hint("invalid vote code") is None
        assert parse_retry_hint("ballot already used") is None

    def test_seed_is_deterministic_and_per_node(self):
        assert node_batch_seed("VC-0") == node_batch_seed("VC-0")
        assert node_batch_seed("VC-0") != node_batch_seed("VC-1")

    def test_flag_validation(self):
        AdmissionProfile(None, "shed", 0.0, 1, 0.05)
        with pytest.raises(ValueError):
            AdmissionProfile(queue_depth=0)
        with pytest.raises(ValueError):
            AdmissionProfile(policy="drop")
        with pytest.raises(ValueError):
            AdmissionProfile(service_ms=-1.0)
        with pytest.raises(ValueError):
            AdmissionProfile(endorse_batch_size=0)
        with pytest.raises(ValueError):
            AdmissionProfile(batch_window_s=0.0)
        assert set(ADMISSION_POLICIES) == {"shed", "block"}


def make_queue(policy="shed", depth=2, service_s=0.1):
    node = FakeNode()
    stats = AdmissionStats()
    admitted, shed = [], []
    queue = AdmissionQueue(
        node=node,
        stats=stats,
        on_admit=lambda sender, request: admitted.append((sender, request)),
        on_shed=lambda sender, request, hint: shed.append((sender, request, hint)),
        depth=depth,
        policy=policy,
        service_s=service_s,
    )
    return node, stats, admitted, shed, queue


class TestAdmissionQueue:
    def test_zero_service_admits_inline(self):
        node, stats, admitted, _shed, queue = make_queue(service_s=0.0)
        for i in range(5):
            assert queue.offer(f"V-{i}", i)
        assert [request for _sender, request in admitted] == list(range(5))
        assert stats.requests == stats.admitted == 5
        assert not node.timers  # nothing deferred

    def test_positive_service_defers_through_timers(self):
        node, stats, admitted, _shed, queue = make_queue(depth=None)
        queue.offer("V-0", 0)
        queue.offer("V-1", 1)
        assert admitted == []  # nothing admitted until the drain timer fires
        node.fire_all()
        assert [request for _sender, request in admitted] == [0, 1]
        assert stats.admitted == 2
        assert stats.peak_depth == 2

    def test_shed_policy_bounds_depth_and_hints(self):
        node, stats, admitted, shed, queue = make_queue(depth=2, service_s=0.1)
        assert queue.offer("V-0", 0)
        assert queue.offer("V-1", 1)
        assert not queue.offer("V-2", 2)  # over depth: shed
        assert stats.shed == 1
        assert shed[0][2] == pytest.approx(0.2)  # depth * service_s
        node.fire_all()
        assert len(admitted) == 2
        assert stats.peak_depth == 2

    def test_block_policy_queues_past_depth(self):
        node, stats, admitted, shed, queue = make_queue(policy="block", depth=2)
        for i in range(4):
            assert queue.offer(f"V-{i}", i)
        assert stats.blocked_over_depth == 2
        assert shed == []
        node.fire_all()
        assert len(admitted) == 4
        assert stats.peak_depth == 4


@pytest.fixture(scope="module")
def signed_endorsements(group):
    """Endorsements from four distinct signers, plus their public keys."""
    scheme = SignatureScheme(group)
    rng = RandomSource(33)
    keys = {f"VC-{i}": scheme.keygen(rng) for i in range(4)}
    publics = {node: pair.public for node, pair in keys.items()}
    endorsements = [
        Endorsement(7, b"\x01" * 20, node,
                    scheme.sign(pair, endorsement_message(7, b"\x01" * 20), rng))
        for node, pair in keys.items()
    ]
    return publics, endorsements


def make_batcher(group, publics, batch_size=3, window_s=0.05, wanted=None):
    node = FakeNode()
    stats = AdmissionStats()
    processed = []
    batcher = EndorsementBatcher(
        node=node,
        verifier=BatchVerifier(group, rng=RandomSource(5)),
        stats=stats,
        public_key_of=publics.get,
        message_of=lambda e: endorsement_message(e.serial, e.vote_code),
        process=processed.append,
        wanted=wanted or (lambda e: True),
        batch_size=batch_size,
        window_s=window_s,
    )
    return node, stats, processed, batcher


class TestEndorsementBatcher:
    def test_flushes_at_batch_size(self, group, signed_endorsements):
        publics, endorsements = signed_endorsements
        node, stats, processed, batcher = make_batcher(group, publics, batch_size=3)
        for endorsement in endorsements[:3]:
            batcher.add(endorsement)
        assert processed == list(endorsements[:3])  # arrival order preserved
        assert stats.endorse_batches == 1
        assert stats.endorsements_batch_verified == 3
        # One aggregate equation for a clean batch, versus 3 serial checks.
        assert stats.endorse_batch_equations == 1

    def test_window_timer_flushes_partial_batch(self, group, signed_endorsements):
        publics, endorsements = signed_endorsements
        node, stats, processed, batcher = make_batcher(group, publics, batch_size=10)
        batcher.add(endorsements[0])
        assert processed == []
        assert [d for d, _c, _desc in node.timers] == [0.05]
        node.fire_all()
        assert processed == [endorsements[0]]

    def test_forged_signature_is_bisected_out(self, group, signed_endorsements):
        from dataclasses import replace

        publics, endorsements = signed_endorsements
        good = endorsements[0]
        # Tampered response: passes the Fiat-Shamir pre-screen (the challenge
        # still hashes correctly) but fails the group equation, so the batch
        # must bisect to locate it.
        bad_signature = replace(endorsements[1].signature,
                                response=(endorsements[1].signature.response + 1) % group.order)
        forged = replace(endorsements[1], signature=bad_signature)
        node, stats, processed, batcher = make_batcher(group, publics, batch_size=3)
        for endorsement in (good, forged, endorsements[2]):
            batcher.add(endorsement)
        assert processed == [good, endorsements[2]]
        assert stats.endorse_batch_equations > 1  # bisection ran extra equations

    def test_stale_items_are_refiltered_at_flush(self, group, signed_endorsements):
        publics, endorsements = signed_endorsements
        live = {"wanted": True}
        node, _stats, processed, batcher = make_batcher(
            group, publics, batch_size=10, wanted=lambda e: live["wanted"])
        batcher.add(endorsements[0])
        live["wanted"] = False  # quorum reached while the batch waited
        node.fire_all()
        assert processed == []

    def test_unknown_signer_is_skipped(self, group, signed_endorsements):
        publics, endorsements = signed_endorsements
        stranger = Endorsement(7, b"\x01" * 20, "VC-99", endorsements[0].signature)
        node, _stats, processed, batcher = make_batcher(group, publics, batch_size=2)
        batcher.add(endorsements[0])
        batcher.add(stranger)
        assert processed == [endorsements[0]]
