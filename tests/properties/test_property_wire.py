"""Property-based tests (hypothesis) for the canonical wire format.

Two defining properties of the codec:

* **round trip** -- ``decode(encode(m)) == m`` for every registered message
  type, over adversarially weird field values (huge serials, empty and long
  byte strings, unicode node ids, deep nesting);
* **strict rejection** -- truncated, bit-flipped and unknown-tag frames never
  decode to anything; they raise :class:`WireFormatError`;
* **interning is invisible** -- a codec whose intern table is warm accepts,
  rejects and returns exactly what a fresh codec does, for well-formed and
  for damaged frames alike;
* **an entry lives as long as its object** -- the table holds decoded objects
  weakly: an entry leaves both of its indexes when its object dies, and a
  body whose object is still held decodes to that very object however much
  else was decoded in between;
* **only bodies that repeat are interned** -- a payload type outside
  ``INTERNED_TYPES`` leaves no entry, at any body size.
"""

import gc
import zlib

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
from repro.crypto.shamir import Share
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
    ),
    st.builds(Announce, serial=serials, vote_code=vote_codes, ucert=ucerts),
)

messages = st.one_of(
    st.builds(VoteRequest, serial=serials, vote_code=vote_codes),
    st.builds(VoteReceipt, serial=serials, vote_code=vote_codes, receipt=st.binary(max_size=16)),
    st.builds(VoteRejected, serial=serials, vote_code=vote_codes, reason=st.text(max_size=40)),
    st.builds(Endorse, serial=serials, vote_code=vote_codes),
    endorsements,
    ucerts,
    st.builds(
        VotePending,
        serial=serials,
        vote_code=vote_codes,
        receipt_share=shares,
        ucert=ucerts,
    ),
    announces,
    st.builds(RecoverRequest, serial=serials),
    st.builds(RecoverResponse, serial=serials, vote_code=vote_codes, ucert=ucerts),
    st.builds(
        VscBatch,
        envelope=st.builds(
            BatchEnvelope,
            messages=st.lists(st.one_of(consensus_messages, announces), max_size=8).map(tuple),
        ),
    ),
    st.builds(
        VoteSetUpload,
        vote_set=st.lists(st.tuples(serials, vote_codes), max_size=16).map(tuple),
    ),
    st.builds(MskShareUpload, share=shares),
    consensus_messages,
    signatures,
    shares,
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


def interned_body(frame: bytes) -> bool:
    """Whether a frame's top-level body is interned: its type is one of the
    ``INTERNED_TYPES`` and its body is in the intern table's size range."""
    body_len = len(frame) - FRAME_HEADER_LEN - FRAME_TRAILER_LEN
    (cls, _) = CODEC._decoders[int.from_bytes(frame[3:5], "big")]
    return (
        cls in codec_module.INTERNED_TYPES
        and codec_module.INTERN_MIN_BODY <= body_len <= codec_module.INTERN_MAX_BODY
    )


@given(batch=st.lists(messages, min_size=1, max_size=8))
@settings(max_examples=150, deadline=None)
def test_warm_intern_table_decodes_like_a_fresh_codec(batch):
    frames = [MessageCodec().encode(message) for message in batch]
    warm = MessageCodec()
    held = [warm.decode(frame) for frame in frames]  # the table stays warm
    for frame, message, first in zip(frames, batch, held, strict=True):
        decoded = warm.decode(frame)
        assert decoded == MessageCodec().decode(frame) == message
        if interned_body(frame):
            assert decoded is first
        # Re-encoding a decoded object re-emits the interned bodies.
        assert warm.encode(decoded) == warm.encode(message) == frame


@given(message=messages, data=st.data())
@settings(max_examples=300, deadline=None)
def test_damaged_frames_get_the_same_verdict_from_a_warm_table(message, data):
    """Truncation, bit flips and stray bytes with the checksum *repaired*, so the
    CRC cannot mask what the payload checks (and the intern table) decide."""
    frame = MessageCodec().encode(message)
    warm = MessageCodec()
    held = warm.decode(frame)  # held, so its entries stay in the table
    assert held == message
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
    again = warm.decode(frame)
    assert again == message
    if interned_body(frame):
        assert again is held


@given(endorsement=endorsements, data=st.data())
@settings(max_examples=100, deadline=None)
def test_non_minimal_integers_rejected_with_a_warm_table(endorsement, data):
    """A zero-padded serial re-encodes the same value in different bytes: the
    table is keyed by bytes, so the padded body misses and is strictly rejected."""
    frame = MessageCodec().encode(endorsement)
    warm = MessageCodec()
    held = warm.decode(frame)  # its body stays interned
    assert held == endorsement
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


def endorsement_frame(serial: int) -> bytes:
    """An endorsement frame whose body alone is interned: 64 vote-code bytes
    put it in the interned size range, and its signature's body is not
    interned (signatures never repeat on their own)."""
    return CODEC.encode(Endorsement(serial, bytes(64), "VC-1", SchnorrSignature(3, 5, None)))


def test_an_entry_leaves_both_indexes_when_its_object_dies():
    codec = MessageCodec()
    frame = endorsement_frame(7)
    endorsement = codec.decode(frame)
    key = (CODEC.tag_of(Endorsement), frame[FRAME_HEADER_LEN:-FRAME_TRAILER_LEN])
    (entry,) = codec._decoded.values()
    assert codec._decoded == {key: entry} and codec._bodies == {id(endorsement): entry}
    assert entry() is endorsement and entry.key == key
    # Re-encoding reads the body back from the ``id`` index.
    assert codec.encode(endorsement) == frame
    del endorsement
    assert codec.interned == 0 and codec._decoded == {} and codec._bodies == {}
    # A certificate's endorsements live as long as it does.
    ucert = UniquenessCertificate(
        3, b"code" * 16,
        tuple(
            Endorsement(3, b"code" * 16, f"VC-{i}", SchnorrSignature(2**255 - i, 2**254 + i, None))
            for i in range(3)
        ),
    )
    frame = CODEC.encode(ucert)
    held = codec.decode(frame)
    assert codec.interned == 4  # the certificate and its 3 endorsements
    # Forwarding the certificate re-emits its stored body.
    assert codec.encode(held) == frame
    endorsement = held.endorsements[0]
    del held
    assert codec.interned == 1 and len(codec._bodies) == 1  # one endorsement
    del endorsement
    assert codec.interned == 0 and codec._bodies == {}


def test_a_type_outside_the_interned_types_leaves_no_entry():
    """ANNOUNCE, VOTE_P, signatures and the rest never repeat while their
    first object lives: their bodies are parsed, not copied into keys."""
    codec = MessageCodec()
    assert Announce not in codec_module.INTERNED_TYPES
    announce = Announce(1, bytes(64), None)
    frame = CODEC.encode(announce)
    body_len = len(frame) - FRAME_HEADER_LEN - FRAME_TRAILER_LEN
    assert codec_module.INTERN_MIN_BODY <= body_len <= codec_module.INTERN_MAX_BODY
    held = [codec.decode(frame), codec.decode(frame)]
    assert held[0] == held[1] == announce and held[0] is not held[1]
    signature = SchnorrSignature(2**255, 2**254, None)
    assert codec.decode(CODEC.encode(signature)) == signature
    assert codec.interned == 0 and codec._bodies == {}


def test_entries_die_with_a_reference_cycle_too():
    """Objects freed by the cyclic collector take their entries with them."""
    codec = MessageCodec()
    holder = [codec.decode(endorsement_frame(1))]
    holder.append(holder)  # only the cyclic collector frees the endorsement
    del holder
    gc.collect()
    assert codec.interned == 0 and codec._bodies == {}


def test_a_held_body_decodes_to_the_same_object_after_5000_unrelated_bodies():
    """The table has no count bound: what is still held is still found."""
    codec = MessageCodec()
    frame = endorsement_frame(0)
    held = codec.decode(frame)
    for serial in range(1, 5_001):
        assert codec.decode(endorsement_frame(serial)).serial == serial
    assert codec.interned == 1  # the unrelated objects died with their entries
    assert codec.decode(frame) is held
    kept = [codec.decode(endorsement_frame(serial)) for serial in range(1, 5_001)]
    assert codec.interned == 5_001
    assert codec.decode(frame) is held and codec.decode(endorsement_frame(1)) is kept[0]

