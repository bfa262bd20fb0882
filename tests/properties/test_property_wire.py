"""Property-based tests (hypothesis) for the canonical wire format.

Two defining properties of the codec:

* **round trip** -- ``decode(encode(m)) == m`` for every registered message
  type, over adversarially weird field values (huge serials, empty and long
  byte strings, unicode node ids, deep nesting);
* **strict rejection** -- truncated, bit-flipped and unknown-tag frames never
  decode to anything; they raise :class:`WireFormatError`;
* **interning is invisible** -- a codec whose intern table is warm (and, with
  a small bound, constantly evicting) accepts, rejects and returns exactly
  what a fresh codec does, for well-formed and for damaged frames alike.
"""

import zlib
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.consensus.batching import (
    BatchEnvelope,
    SuperblockEcho,
    SuperblockReady,
    SuperblockSend,
)
from repro.consensus.interfaces import Aux, BVal, Finish
from repro.core.messages import (
    Announce,
    Endorse,
    Endorsement,
    MskShareUpload,
    RecoverRequest,
    RecoverResponse,
    UniquenessCertificate,
    VotePending,
    VoteReceipt,
    VoteRejected,
    VoteRequest,
    VoteSetUpload,
    VscBatch,
)
from repro.crypto.shamir import Share, SignedShare
from repro.crypto.signatures import SchnorrSignature
from repro.net import codec as codec_module
from repro.net.codec import FRAME_HEADER_LEN, FRAME_TRAILER_LEN, MessageCodec, WireFormatError

CODEC = MessageCodec()

serials = st.integers(min_value=0, max_value=2**64 - 1)
vote_codes = st.binary(min_size=0, max_size=40)
node_ids = st.text(min_size=1, max_size=12)
scalars = st.integers(min_value=0, max_value=2**256 - 1)
rounds = st.integers(min_value=0, max_value=2**16)
bits = st.integers(min_value=0, max_value=1)
instances = st.text(min_size=1, max_size=16)

signatures = st.builds(
    SchnorrSignature, challenge=scalars, response=scalars, commitment=st.none()
)
shares = st.builds(Share, index=st.integers(1, 1000), value=scalars)
signed_shares = st.builds(
    SignedShare, share=shares, context=st.binary(max_size=64), signature=signatures
)
endorsements = st.builds(
    Endorsement,
    serial=serials,
    vote_code=vote_codes,
    signer=node_ids,
    signature=signatures,
)
ucerts = st.builds(
    UniquenessCertificate,
    serial=serials,
    vote_code=vote_codes,
    endorsements=st.tuples(endorsements, endorsements, endorsements),
)
consensus_messages = st.one_of(
    st.builds(BVal, instance=instances, round=rounds, value=bits),
    st.builds(Aux, instance=instances, round=rounds, value=bits),
    st.builds(Finish, instance=instances, value=bits),
    st.builds(
        SuperblockSend,
        instance=instances,
        origin=node_ids,
        bits=st.lists(bits, max_size=64).map(bytes),
    ),
    st.builds(
        SuperblockEcho,
        instance=instances,
        origin=node_ids,
        bits=st.lists(bits, max_size=64).map(bytes),
    ),
    st.builds(
        SuperblockReady,
        instance=instances,
        origin=node_ids,
        bits=st.lists(bits, max_size=64).map(bytes),
    ),
)

announces = st.one_of(
    st.builds(
        Announce,
        serial=serials,
        vote_code=st.one_of(st.none(), vote_codes),
        ucert=st.none(),
        sender=node_ids,
    ),
    st.builds(Announce, serial=serials, vote_code=vote_codes, ucert=ucerts, sender=node_ids),
)

messages = st.one_of(
    st.builds(VoteRequest, serial=serials, vote_code=vote_codes, voter_id=node_ids),
    st.builds(VoteReceipt, serial=serials, vote_code=vote_codes, receipt=st.binary(max_size=16)),
    st.builds(VoteRejected, serial=serials, vote_code=vote_codes, reason=st.text(max_size=40)),
    st.builds(Endorse, serial=serials, vote_code=vote_codes),
    endorsements,
    ucerts,
    st.builds(
        VotePending,
        serial=serials,
        vote_code=vote_codes,
        receipt_share=signed_shares,
        ucert=ucerts,
        sender=node_ids,
    ),
    announces,
    st.builds(RecoverRequest, serial=serials, sender=node_ids),
    st.builds(
        RecoverResponse, serial=serials, vote_code=vote_codes, ucert=ucerts, sender=node_ids
    ),
    st.builds(
        VscBatch,
        envelope=st.builds(
            BatchEnvelope,
            messages=st.lists(st.one_of(consensus_messages, announces), max_size=8).map(tuple),
        ),
        sender=node_ids,
    ),
    st.builds(
        VoteSetUpload,
        vote_set=st.lists(st.tuples(serials, vote_codes), max_size=16).map(tuple),
        sender=node_ids,
    ),
    st.builds(MskShareUpload, share=signed_shares, sender=node_ids),
    consensus_messages,
    signatures,
    shares,
    signed_shares,
)


@given(message=messages)
@settings(max_examples=300)
def test_decode_encode_round_trip(message):
    assert CODEC.decode(CODEC.encode(message)) == message


@given(message=messages, data=st.data())
@settings(max_examples=200)
def test_truncated_frames_rejected(message, data):
    frame = CODEC.encode(message)
    cut = data.draw(st.integers(min_value=0, max_value=len(frame) - 1))
    try:
        CODEC.decode(frame[:cut])
    except WireFormatError:
        pass
    else:
        raise AssertionError("truncated frame decoded")


@given(message=messages, data=st.data())
@settings(max_examples=200)
def test_bit_flips_rejected(message, data):
    frame = bytearray(CODEC.encode(message))
    index = data.draw(st.integers(min_value=0, max_value=len(frame) - 1))
    bit = data.draw(st.integers(min_value=0, max_value=7))
    frame[index] ^= 1 << bit
    try:
        CODEC.decode(bytes(frame))
    except WireFormatError:
        pass
    else:
        raise AssertionError("corrupted frame decoded")


@given(message=messages, tag=st.integers(min_value=0x1000, max_value=0xFFFF))
@settings(max_examples=100)
def test_unknown_tags_rejected(message, tag):
    frame = bytearray(CODEC.encode(message))
    frame[3:5] = tag.to_bytes(2, "big")
    # Fix the checksum so only the unknown tag can be the rejection reason.
    frame[-4:] = zlib.crc32(bytes(frame[:-4])).to_bytes(4, "big")
    try:
        CODEC.decode(bytes(frame))
    except WireFormatError:
        pass
    else:
        raise AssertionError("unknown-tag frame decoded")


@given(message=messages)
@settings(max_examples=100)
def test_encoding_is_deterministic(message):
    assert CODEC.encode(message) == CODEC.encode(message)


# ---------------------------------------------------------------------------
# Interning: a warm table never changes what a frame decodes to
# ---------------------------------------------------------------------------


def with_checksum(unsigned: bytes) -> bytes:
    """Append a valid CRC, so that only the payload checks can reject the frame."""
    return unsigned + zlib.crc32(unsigned).to_bytes(4, "big")


def verdict(codec: MessageCodec, frame: bytes):
    """The decoded payload, or ``WireFormatError`` when the frame is rejected."""
    try:
        return codec.decode(frame)
    except WireFormatError:
        return WireFormatError


@given(batch=st.lists(messages, min_size=1, max_size=8), bound=st.sampled_from((2, 5, 4096)))
@settings(max_examples=150, deadline=None)
def test_warm_intern_table_decodes_like_a_fresh_codec(batch, bound):
    frames = [MessageCodec().encode(message) for message in batch]
    with mock.patch.object(codec_module, "INTERN_TABLE_MAX", bound):
        warm = MessageCodec()
        for _ in range(2):  # the second sweep runs against a warm table
            for frame, message in zip(frames, batch, strict=True):
                decoded = warm.decode(frame)
                assert decoded == MessageCodec().decode(frame) == message
                # Re-encoding a decoded object re-emits the interned bodies.
                assert warm.encode(decoded) == warm.encode(message) == frame
                assert warm.interned <= bound


@given(message=messages, data=st.data())
@settings(max_examples=300, deadline=None)
def test_damaged_frames_get_the_same_verdict_from_a_warm_table(message, data):
    """Truncation, bit flips and stray bytes with the checksum *repaired*, so the
    CRC cannot mask what the payload checks (and the intern table) decide."""
    frame = MessageCodec().encode(message)
    warm = MessageCodec()
    assert warm.decode(frame) == message
    body = bytearray(frame[:-4])
    damage = data.draw(st.sampled_from(("truncate", "flip", "insert", "append")))
    index = data.draw(st.integers(min_value=3, max_value=len(body) - 1))
    if damage == "truncate":
        del body[index:]
    elif damage == "flip":
        body[index] ^= 1 << data.draw(st.integers(min_value=0, max_value=7))
    elif damage == "insert":
        body.insert(index, data.draw(st.integers(min_value=0, max_value=255)))
    else:
        body.append(data.draw(st.integers(min_value=0, max_value=255)))
    damaged = with_checksum(bytes(body))
    expected = verdict(MessageCodec(), damaged)
    assert verdict(warm, damaged) == expected
    if damage in ("truncate", "append"):
        # The payload is shorter / longer than the frame header declares.
        assert expected is WireFormatError
    # The damaged frame left nothing behind that changes the genuine one.
    assert warm.decode(frame) == message


@given(endorsement=endorsements, data=st.data())
@settings(max_examples=100, deadline=None)
def test_non_minimal_integers_rejected_with_a_warm_table(endorsement, data):
    """A zero-padded serial re-encodes the same value in different bytes: the
    table is keyed by bytes, so the padded body misses and is strictly rejected."""
    frame = MessageCodec().encode(endorsement)
    warm = MessageCodec()
    assert warm.decode(frame) == endorsement
    # Body layout: sign byte, u32 magnitude length, magnitude, ...
    length_at = FRAME_HEADER_LEN + 1
    magnitude_len = int.from_bytes(frame[length_at:length_at + 4], "big")
    body_len = int.from_bytes(frame[5:9], "big")
    padded = (
        frame[:5]
        + (body_len + 1).to_bytes(4, "big")
        + frame[FRAME_HEADER_LEN:length_at]
        + (magnitude_len + 1).to_bytes(4, "big")
        + b"\x00"
        + frame[length_at + 4:-4]
    )
    for codec in (warm, MessageCodec()):
        assert verdict(codec, with_checksum(padded)) is WireFormatError
    assert warm.decode(frame) == endorsement


def test_intern_table_stays_within_its_bound():
    signature = SchnorrSignature(2**255 - 19, 2**254 + 7, None)
    frames = [
        CODEC.encode(Endorsement(serial, b"vote-code-bytes", "VC-1", signature))
        for serial in range(codec_module.INTERN_TABLE_MAX + 300)
    ]
    codec = MessageCodec()
    assert codec.interned == 0
    for serial, frame in enumerate(frames):
        assert codec.decode(frame).serial == serial
        assert codec.interned <= codec_module.INTERN_TABLE_MAX
    assert codec.interned == codec_module.INTERN_TABLE_MAX
    # The oldest entries were evicted; their frames still decode (strictly, again).
    assert codec.decode(frames[0]).serial == 0
    assert codec.interned == codec_module.INTERN_TABLE_MAX


def test_intern_table_keeps_the_newest_entries_in_insertion_order():
    bound = codec_module.INTERN_TABLE_MAX
    tag = CODEC.tag_of(Announce)
    codec = MessageCodec()
    keys = []
    for serial in range(3 * bound):
        # 64 vote-code bytes put the body in the interned size range; nothing
        # embedded in it is interned itself.
        frame = CODEC.encode(Announce(serial, bytes(64), None, "VC-1"))
        assert codec.decode(frame).serial == serial
        keys.append((tag, frame[FRAME_HEADER_LEN:-FRAME_TRAILER_LEN]))
    assert list(codec._decoded) == keys[-bound:]
    assert [obj for obj, _body in codec._bodies.values()] == list(codec._decoded.values())
