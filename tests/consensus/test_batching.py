"""Tests for the consensus message batcher."""

import pytest

from repro.consensus.batching import BatchEnvelope, ConsensusBatcher
from repro.consensus.interfaces import Aux, BVal

PEERS = 3


def make_batcher(max_batch=4096):
    sent = []
    batcher = ConsensusBatcher(PEERS, sent.append, max_batch=max_batch)
    return batcher, sent


class TestBatching:
    def test_messages_are_buffered_until_flush(self):
        batcher, sent = make_batcher()
        batcher.enqueue(BVal("1", 1, 0))
        batcher.enqueue(Aux("1", 1, 0))
        assert sent == []
        assert batcher.pending_count == 2
        batcher.flush()
        assert len(sent) == 1
        assert len(sent[0]) == 2

    def test_flush_broadcasts_one_envelope_in_enqueue_order(self):
        batcher, sent = make_batcher()
        messages = (BVal("1", 1, 0), Aux("1", 1, 1), BVal("2", 1, 0))
        for message in messages:
            batcher.enqueue(message)
        batcher.flush()
        assert sent == [BatchEnvelope(messages)]
        assert batcher.pending_count == 0

    def test_auto_flush_at_max_batch(self):
        batcher, sent = make_batcher(max_batch=3)
        for i in range(3):
            batcher.enqueue(BVal(str(i), 1, 0))
        assert len(sent) == 1
        assert batcher.pending_count == 0

    def test_messages_after_a_flush_start_a_new_envelope(self):
        batcher, sent = make_batcher(max_batch=2)
        for i in range(3):
            batcher.enqueue(BVal(str(i), 1, 0))
        batcher.flush()
        assert [len(envelope) for envelope in sent] == [2, 1]

    def test_unpack_returns_original_messages(self):
        messages = (BVal("1", 1, 0), Aux("1", 1, 1))
        envelope = BatchEnvelope(messages)
        assert ConsensusBatcher.unpack(envelope) == messages

    def test_envelope_keeps_elements_in_send_order(self):
        batcher, sent = make_batcher()
        messages = (BVal("1", 1, 0), Aux("1", 1, 1))
        for message in messages:
            batcher.enqueue(message)
        batcher.flush()
        assert sent == [BatchEnvelope(messages)] and sent[0].messages == messages

    def test_statistics_count_one_envelope_per_destination(self):
        batcher, sent = make_batcher()
        for _ in range(5):
            batcher.enqueue(BVal("1", 1, 0))
        batcher.flush()
        assert len(sent) == 1
        assert batcher.envelopes_sent == PEERS
        assert batcher.messages_sent == 5 * PEERS

    def test_flush_on_empty_batcher_is_noop(self):
        batcher, sent = make_batcher()
        batcher.flush()
        assert sent == []
        assert batcher.envelopes_sent == 0

    def test_invalid_max_batch(self):
        with pytest.raises(ValueError):
            ConsensusBatcher(PEERS, lambda envelope: None, max_batch=0)

    def test_batching_reduces_network_messages(self):
        """The whole point: many instances, one envelope per destination."""
        batcher, sent = make_batcher()
        for serial in range(1000):
            batcher.enqueue(BVal(str(serial), 1, 1))
        batcher.flush()
        assert batcher.messages_sent == 1000 * PEERS
        assert batcher.envelopes_sent == PEERS
