"""Tests for the canonical wire format (frame layout, registry, strictness).

``codec_goldens.json`` holds one frame per payload of :func:`all_type_payloads`
(every registered type, every ``Optional`` field absent and present, every
variable-length tuple empty and not, group elements of every backend), as the
hand-written per-type encoders of e5b995c wrote them.  The field-derived codec
must reproduce each byte for byte; regenerate the file only with a
``VERSION`` bump.
"""

import dataclasses
import json
import typing
import zlib
from dataclasses import dataclass, make_dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

import pytest

from repro.consensus.batching import (
    BatchEnvelope,
    SuperblockEcho,
    SuperblockReady,
    SuperblockSend,
)
from repro.consensus.interfaces import Aux, BVal, Finish
from repro.core.messages import (
    Announce,
    BallotStateEntry,
    Endorse,
    Endorsement,
    MskShareUpload,
    RecoverRequest,
    RecoverResponse,
    UniquenessCertificate,
    VcStateSnapshot,
    VotePending,
    VoteReceipt,
    VoteRejected,
    VoteRequest,
    VoteSetUpload,
    VscBatch,
)
from repro.crypto.commitments import CommitmentOpening, OptionCommitment, OptionEncodingScheme
from repro.crypto.elgamal import ElGamalCiphertext
from repro.crypto.group import EcGroup, GroupElement, SchnorrGroup
from repro.crypto.registry import available_backends, get_group
from repro.crypto.pedersen_vss import PedersenShare
from repro.shard.records import GlobalCommitRecord, ShardCommitRecord
from repro.shard.shard_runner import ShardSliceResult
from repro.crypto.shamir import Share, SignedShare, SigningDealer
from repro.crypto.signatures import SchnorrSignature, SignatureScheme
from repro.crypto.utils import RandomSource
from repro.net.codec import (
    FRAME_HEADER_LEN,
    FRAME_OVERHEAD,
    FRAME_TRAILER_LEN,
    MAGIC,
    MessageCodec,
    WireFormatError,
    default_codec,
    signing_bytes,
)

CODEC_GOLDENS = json.loads((Path(__file__).parent / "codec_goldens.json").read_text())


@pytest.fixture(scope="module")
def codec():
    return MessageCodec()


@pytest.fixture(scope="module")
def signature():
    scheme = SignatureScheme()
    keys = scheme.keygen(RandomSource(3))
    return scheme.sign(keys, b"wire-test", RandomSource(4))


@pytest.fixture(scope="module")
def sample_messages(signature):
    """One instance of every registered protocol payload."""
    endorsement = Endorsement(7, b"code-bytes", "VC-1", signature)
    ucert = UniquenessCertificate(7, b"code-bytes", (endorsement,))
    signed_share = SignedShare(Share(2, (1 << 200) + 17), b"receipt|7|A|0", signature)
    group = get_group("secp256k1")
    scheme = OptionEncodingScheme(2, group.power_g(5), group)
    commitment, opening = scheme.commit_option(1, RandomSource(9))
    shard_record = ShardCommitRecord(
        shard_id=0,
        serial_lo=0,
        serial_hi=100,
        ballots_registered=100,
        ballots_cast=73,
        commitment=commitment,
        vote_set_digest=b"\x11" * 32,
        sender="shard-0",
    )
    return [
        VoteRequest(7, b"code-bytes", "V-0"),
        VoteReceipt(7, b"code-bytes", b"\x00" * 8),
        VoteRejected(7, b"code-bytes", "outside voting hours"),
        Endorse(7, b"code-bytes"),
        endorsement,
        ucert,
        VotePending(7, b"code-bytes", signed_share, ucert, "VC-2"),
        Announce(7, b"code-bytes", ucert, "VC-0"),
        Announce(8, None, None, "VC-0"),
        RecoverRequest(7, "VC-3"),
        RecoverResponse(7, b"code-bytes", ucert, "VC-3"),
        VscBatch(
            BatchEnvelope((BVal("7", 0, 1), Aux("7", 0, 1), Finish("7", 1))), "VC-1"
        ),
        # What end_election sends: per-ballot announces inside one envelope.
        VscBatch(
            BatchEnvelope(
                (Announce(7, b"code-bytes", ucert, "VC-0"), Announce(8, None, None, "VC-0"))
            ),
            "VC-0",
        ),
        VoteSetUpload(((7, b"code-bytes"), (9, b"other")), "VC-2"),
        MskShareUpload(signed_share, "VC-2"),
        BallotStateEntry(
            7, "voted", b"code-bytes", b"code-bytes", b"\x00" * 8, ucert,
            (("VC-1", signed_share),),
        ),
        VcStateSnapshot(
            "VC-0",
            True,
            (
                BallotStateEntry(7, "voted", b"code-bytes", None, None, None, ()),
                BallotStateEntry(9, "not-voted", None, b"other", None, None, ()),
            ),
        ),
        BVal("sb|0", 2, 1),
        Aux("12", 0, 0),
        Finish("12", 1),
        SuperblockSend("sb|0", "VC-0", b"\x01\x00\x01\x01"),
        SuperblockEcho("sb|0", "VC-1", b"\x01\x00\x01\x01"),
        SuperblockReady("sb|0", "VC-2", b"\x01\x00\x01\x01"),
        BatchEnvelope((Aux("3", 1, 1), SuperblockSend("sb|1", "VC-0", b"\x00\x01"))),
        signature,
        Share(1, 42),
        SignedShare(Share(1, 42), b"ctx", signature),
        PedersenShare(3, 11, 29),
        commitment.ciphertexts[0],
        commitment,
        opening,
        shard_record,
        ShardSliceResult(shard_record, opening, (0, 73), 40, 1, 0, 5_000_000),
        GlobalCommitRecord(
            election_id="codec-test",
            num_shards=1,
            total_cast=73,
            combined=commitment,
            shard_digests=(b"\x22" * 32,),
        ),
    ]


class TestRoundTrip:
    def test_every_registered_type_round_trips(self, codec, sample_messages):
        for message in sample_messages:
            frame = codec.encode(message)
            assert codec.decode(frame) == message

    def test_sample_covers_the_whole_registry(self, codec, sample_messages):
        sampled = {type(message) for message in sample_messages}
        assert sampled == set(codec.registered_types)

    def test_encoding_is_deterministic(self, codec, sample_messages):
        for message in sample_messages:
            assert codec.encode(message) == codec.encode(message)

    def test_signature_without_commitment_round_trips(self, codec):
        bare = SchnorrSignature(12345, 67890, None)
        assert codec.decode(codec.encode(bare)) == bare

    def test_ec_group_elements_round_trip(self):
        group = get_group("secp256k1")
        scheme = SignatureScheme(group)
        keys = scheme.keygen(RandomSource(5))
        sig = scheme.sign(keys, b"ec", RandomSource(6))
        codec = MessageCodec(group=group)
        assert codec.decode(codec.encode(sig)) == sig
        # The group-less default codec infers the backend from the prefix.
        assert default_codec().decode(codec.encode(sig)) == sig


class TestStrictDecoding:
    def test_unknown_tag_rejected(self, codec):
        frame = bytearray(codec.encode(Endorse(1, b"x")))
        frame[3:5] = (0xFF, 0xFF)  # tag field
        with pytest.raises(WireFormatError):
            codec.decode(bytes(frame))

    def test_every_single_byte_flip_is_rejected(self, codec):
        frame = codec.encode(Endorse(1, b"x"))
        for index in range(len(frame)):
            corrupted = bytearray(frame)
            corrupted[index] ^= 0x01
            with pytest.raises(WireFormatError):
                codec.decode(bytes(corrupted))

    def test_truncation_rejected_at_every_length(self, codec):
        frame = codec.encode(VoteRequest(1, b"code", "V-0"))
        for length in range(len(frame)):
            with pytest.raises(WireFormatError):
                codec.decode(frame[:length])

    def test_trailing_garbage_rejected(self, codec):
        frame = codec.encode(Endorse(1, b"x"))
        with pytest.raises(WireFormatError):
            codec.decode(frame + b"\x00")

    def test_bad_magic_rejected(self, codec):
        frame = codec.encode(Endorse(1, b"x"))
        with pytest.raises(WireFormatError):
            codec.decode(b"XX" + frame[2:])

    def test_unsupported_version_rejected(self, codec):
        frame = bytearray(codec.encode(Endorse(1, b"x")))
        frame[2] = 99
        with pytest.raises(WireFormatError):
            codec.decode(bytes(frame))

    def test_unregistered_payload_rejected(self, codec):
        with pytest.raises(WireFormatError):
            codec.encode(object())

    @pytest.mark.parametrize(
        "element",
        [VoteRequest(1, b"x", "V-0"), RecoverRequest(7, "VC-3"), BatchEnvelope(())],
        ids=lambda element: type(element).__name__,
    )
    def test_embedded_type_must_match_field(self, codec, element):
        # An envelope may hold announces and consensus messages, nothing
        # else: the per-field type check must reject any other registered
        # type even though framing, lengths and checksum are all valid.  (The
        # encoder does not check, so the frame is built by the codec itself.)
        frame = codec.encode(VscBatch(BatchEnvelope((BVal("7", 0, 1), element)), "VC-0"))
        with pytest.raises(WireFormatError, match="ConsensusMessage or Announce"):
            codec.decode(frame)

    def test_retired_vsc_envelope_tag_is_rejected(self, codec):
        # Tag 0x0B carried one consensus message per frame until every
        # consensus-phase element moved into VscBatch.  A frame that was
        # valid then must not decode now, and the tag must stay unassigned.
        frame = bytes.fromhex(RETIRED_VSC_ENVELOPE_HEX)
        assert frame[3:5] == b"\x00\x0b"
        with pytest.raises(WireFormatError, match="unknown wire tag 0x000b"):
            codec.decode(frame)
        assert 0x0B not in {codec.tag_of(cls) for cls in codec.registered_types}

    @pytest.mark.parametrize("cls", [SuperblockSend, SuperblockEcho, SuperblockReady])
    @pytest.mark.parametrize("stray", [2, 0x80, 0xFF])
    def test_opinion_vector_bytes_must_be_bits(self, codec, cls, stray):
        # The encoder writes the vector as held, so a well-framed message can
        # carry any byte; a decoded vector keys the reliable broadcast's
        # sender sets and resolves ballots, so only 0/1 may come out.
        honest = codec.decode(codec.encode(cls("sb|0", "VC-0", b"\x01\x00\x01")))
        assert honest.bits == b"\x01\x00\x01" and type(honest.bits) is bytes
        frame = codec.encode(cls("sb|0", "VC-0", bytes([1, 0, stray])))
        with pytest.raises(WireFormatError, match="opinion vector"):
            codec.decode(frame)

    def test_frame_remainder_length(self, codec):
        frame = codec.encode(Endorse(1, b"x"))
        header = frame[:FRAME_HEADER_LEN]
        assert MessageCodec.frame_remainder_length(header) == len(frame) - FRAME_HEADER_LEN
        with pytest.raises(WireFormatError):
            MessageCodec.frame_remainder_length(b"XX" + header[2:])

    def test_frame_overhead_constant(self, codec):
        # magic + version + tag + length + crc32
        assert FRAME_OVERHEAD == 13
        assert codec.encode(Finish("1", 0)).startswith(MAGIC)


def malformed_elements(group) -> Dict[str, bytes]:
    """Element encodings no serializer emits: one element, one byte string."""
    good = group.generator().serialize()
    if isinstance(group, SchnorrGroup):
        width = len(good) - 1
        value = int.from_bytes(good[1:], "big")
        return {
            "truncated": good[:-1],
            "zero-padded": b"S\x00" + good[1:],
            "v+p": b"S" + (value + group.p).to_bytes(width + 1, "big"),
            "zero": b"S" + bytes(width),
            "p": b"S" + group.p.to_bytes(width, "big"),
        }
    if isinstance(group, EcGroup):
        # A point with a tiny x, so x + p still fits the 32-byte field.
        for x in range(1, 100):
            rhs = (pow(x, 3, group.p) + group.a * x + group.b) % group.p
            y = pow(rhs, (group.p + 1) // 4, group.p)
            if y * y % group.p == rhs:
                break
        return {
            "truncated": good[:-1],
            "off-curve": good[:-1] + bytes([good[-1] ^ 1]),
            "x+p": b"E\x04" + (x + group.p).to_bytes(32, "big") + y.to_bytes(32, "big"),
            "unknown-tag": b"E\x05" + good[2:],
            "long-infinity": b"E\x00\x00",
        }
    return {"truncated": good[:-1], "y=p": group.p.to_bytes(32, "little")}


@pytest.mark.parametrize("backend", available_backends())
def test_non_canonical_group_elements_are_refused(backend):
    """One encoding per element: wrong lengths, out-of-range values and
    off-curve points raise ``WireFormatError`` instead of decoding."""
    group = get_group(backend)
    codec = MessageCodec(group=group)
    element = group.generator() ** 5
    assert codec.element_from_bytes(element.serialize()) == element
    for name, data in malformed_elements(group).items():
        with pytest.raises(WireFormatError):
            codec.element_from_bytes(data)
            pytest.fail(f"{backend}: {name} encoding decoded")


@dataclass(frozen=True)
class Ping:
    """A payload outside the default registry, one field of every wire form."""

    nonce: int
    payload: bytes
    note: str
    urgent: bool
    share: Optional[Share]
    element: GroupElement
    pairs: Tuple[Tuple[str, int], ...]
    either: Union[Share, PedersenShare]


class TestRegistry:
    def test_duplicate_tag_rejected(self):
        codec = MessageCodec()
        with pytest.raises(ValueError, match="already registered for Endorse"):
            codec.register(codec.tag_of(Endorse), Ping)
        assert Ping not in codec.registered_types

    def test_duplicate_type_rejected(self):
        codec = MessageCodec()
        with pytest.raises(ValueError, match="Endorse already registered"):
            codec.register(0x1234, Endorse)

    def test_custom_type_registration(self):
        codec = MessageCodec()
        codec.register(0x7000, Ping)
        group = get_group("schnorr")
        for ping in (
            Ping(77, b"\x00", "ü", True, Share(1, 2), group.power_g(9), (), PedersenShare(1, 2, 3)),
            Ping(-1, b"", "", False, None, group.identity(), (("a", 1), ("b", -2)), Share(3, 4)),
        ):
            assert codec.decode(codec.encode(ping)) == ping
        # Ping's body is its fields in declaration order, nothing else.
        frame = codec.encode(Ping(0, b"", "", True, None, group.identity(), (), Share(0, 0)))
        element = group.identity().serialize()
        share = codec.encode(Share(0, 0))[3:-4]
        body = (
            b"\x00" + bytes(4) + bytes(4) + bytes(4) + b"\x01" + b"\x00"
            + len(element).to_bytes(4, "big") + element + bytes(4) + share
        )
        assert frame[3:-4] == (0x7000).to_bytes(2, "big") + len(body).to_bytes(4, "big") + body

    def test_mutable_type_rejected(self):
        """Decoded objects are shared between receivers, so they must be immutable."""

        @dataclass
        class Mutable:
            nonce: int

        with pytest.raises(ValueError, match="not a frozen dataclass"):
            MessageCodec().register(0x7001, Mutable)

    @pytest.mark.parametrize(
        "declared", [float, tuple, dict, Any, Dict[str, int], List[int], Optional[float]],
        ids=["float", "tuple", "dict", "Any", "Dict", "List", "Optional[float]"],
    )
    def test_field_without_wire_form_rejected(self, declared):
        Unwired = make_dataclass("Unwired", [("ok", int), ("field", declared)], frozen=True)
        codec = MessageCodec()
        with pytest.raises(ValueError, match=r"Unwired\.field: .* has no wire form"):
            codec.register(0x7002, Unwired)
        assert Unwired not in codec.registered_types
        assert 0x7002 not in {codec.tag_of(cls) for cls in codec.registered_types}


class TestSigningBytes:
    def test_deterministic(self):
        assert signing_bytes(b"d", 1, "x", b"y") == signing_bytes(b"d", 1, "x", b"y")

    def test_domain_separation(self):
        assert signing_bytes(b"endorse", 1) != signing_bytes(b"dealer-share", 1)

    def test_no_concatenation_ambiguity(self):
        # The old b"|"-joined format could not distinguish these splits.
        assert signing_bytes(b"d", b"a|b", b"c") != signing_bytes(b"d", b"a", b"b|c")
        assert signing_bytes(b"d", b"ab", b"c") != signing_bytes(b"d", b"a", b"bc")

    def test_typed_parts_do_not_collide(self):
        assert signing_bytes(b"d", 1) != signing_bytes(b"d", "1")
        assert signing_bytes(b"d", b"1") != signing_bytes(b"d", "1")

    def test_objects_use_registered_encodings(self, signature):
        share = Share(1, 5)
        one = signing_bytes(b"d", share)
        two = signing_bytes(b"d", Share(1, 6))
        assert one != two

    def test_dealer_share_signatures_use_canonical_encoding(self):
        dealer = SigningDealer(2, 3)
        (share, *_rest) = dealer.deal(999, b"ctx|with|pipes")
        assert SigningDealer.verify_share(dealer.scheme, dealer.public_key, share)
        # Moving a byte between context and share payload must not verify.
        tampered = SignedShare(share.share, b"ctx|with|pipes2", share.signature)
        assert not SigningDealer.verify_share(dealer.scheme, dealer.public_key, tampered)


# Frames of the wire format at VERSION 1, captured from the codec before the
# encode path was rewritten (back-patched lengths, reused bodies): a codec
# change that moves one byte of any of them is a wire-format change and needs
# a new VERSION.
GOLDEN_HEX = {
    "endorse": (
        "4457010004000000140000000001070000000a636f64652d6279746573bbe4e33f"
    ),
    "endorsement": (
        "44570100050000008a0000000001070000000a636f64652d62797465730000000456432d3100400000006800"
        "000000181234567890abcdef0000000000000000000000000000000000000000207fffffffffffffffffffff"
        "ffffffffffffffffffffffffffffffffffffffffed0100000021530000000000000000000000000000000000"
        "0000000000000000000000000004003a3357b0"
    ),
    "vote_pending": (
        "4457010007000001540000000001070000000a636f64652d627974657300420000004f004100000025000000"
        "000102000000001a01000000000000000000000000000000000000000000000000110000000d726563656970"
        "747c377c417c3000400000000d000000000101000000000102000006000000dd0000000001070000000a636f"
        "64652d62797465730000000200050000008a0000000001070000000a636f64652d6279746573000000045643"
        "2d3100400000006800000000181234567890abcdef0000000000000000000000000000000000000000207fff"
        "ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffed0100000021530000000000000000"
        "00000000000000000000000000000000000000000000040000050000002f0000000001070000000a636f6465"
        "2d62797465730000000456432d3200400000000d000000000101000000000102000000000456432d324123dd"
        "25"
    ),
    "announce": (
        "445701000800000101000000000107010000000a636f64652d6279746573010006000000dd00000000010700"
        "00000a636f64652d62797465730000000200050000008a0000000001070000000a636f64652d627974657300"
        "00000456432d3100400000006800000000181234567890abcdef000000000000000000000000000000000000"
        "0000207fffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffed010000002153000000"
        "000000000000000000000000000000000000000000000000000000040000050000002f000000000107000000"
        "0a636f64652d62797465730000000456432d3200400000000d00000000010100000000010200000000045643"
        "2d305f127212"
    ),
    "announce_empty": (
        "44570100080000001000000000010800000000000456432d30268f15e3"
    ),
    "vsc_batch": (
        "445701000c0000006d00260000005f0000000400200000001000000001370000000000000000000101002100"
        "0000100000000137000000000000000000010100220000000b00000001370000000001010023000000180000"
        "000473627c300000000456432d3000000004010001010000000456432d3172a90e55"
    ),
    "vote_set_upload": (
        "445701000d0000002f000000020000000001070000000a636f64652d6279746573000000000109000000056f"
        "746865720000000456432d32a727271a"
    ),
    "recover_response": (
        "445701000a000000ff0000000001070000000a636f64652d62797465730006000000dd000000000107000000"
        "0a636f64652d62797465730000000200050000008a0000000001070000000a636f64652d6279746573000000"
        "0456432d3100400000006800000000181234567890abcdef0000000000000000000000000000000000000000"
        "207fffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffed0100000021530000000000"
        "00000000000000000000000000000000000000000000000000040000050000002f0000000001070000000a63"
        "6f64652d62797465730000000456432d3200400000000d000000000101000000000102000000000456432d33"
        "19577c0b"
    ),
    "signing": (
        "6464656d6f732d7369676e2d763100000007656e646f72736500000004030004000000140000000001070000"
        "000a636f64652d627974657301000000000105020000000178000000000179"
    ),
}


#: ``VscEnvelope(BVal("7", 1, 0), "VC-0")`` as VERSION 1 framed it under tag 0x0B
RETIRED_VSC_ENVELOPE_HEX = (
    "445701000b0000001e002000000010000000013700000000010100000000000000000456432d3088d6e82a"
)


@pytest.fixture(scope="module")
def golden_payloads():
    group = get_group("schnorr")
    sig = SchnorrSignature(0x1234567890ABCDEF << 128, (1 << 255) - 19, group.power_g(5))
    bare = SchnorrSignature(1, 2, None)
    code = b"code-bytes"
    ucert = UniquenessCertificate(
        7, code, (Endorsement(7, code, "VC-1", sig), Endorsement(7, code, "VC-2", bare))
    )
    share = SignedShare(Share(2, (1 << 200) + 17), b"receipt|7|A|0", bare)
    consensus = (
        BVal("7", 0, 1), Aux("7", 0, 1), Finish("7", 1),
        SuperblockSend("sb|0", "VC-0", b"\x01\x00\x01\x01"),
    )
    return group, {
        "endorse": Endorse(7, code),
        "endorsement": ucert.endorsements[0],
        "vote_pending": VotePending(7, code, share, ucert, "VC-2"),
        "announce": Announce(7, code, ucert, "VC-0"),
        "announce_empty": Announce(8, None, None, "VC-0"),
        "vsc_batch": VscBatch(BatchEnvelope(consensus), "VC-1"),
        "vote_set_upload": VoteSetUpload(((7, code), (9, b"other")), "VC-2"),
        "recover_response": RecoverResponse(7, code, ucert, "VC-3"),
    }


class TestGoldenFrames:
    def test_frames_are_byte_identical_to_version_1(self, golden_payloads):
        group, payloads = golden_payloads
        codec = MessageCodec(group=group)
        for name, payload in payloads.items():
            assert codec.encode(payload).hex() == GOLDEN_HEX[name], name

    def test_golden_frames_decode_to_the_payloads(self, golden_payloads):
        group, payloads = golden_payloads
        codec = MessageCodec(group=group)
        for _ in range(2):  # cold, then through the intern table
            for name, payload in payloads.items():
                assert codec.decode(bytes.fromhex(GOLDEN_HEX[name])) == payload, name

    def test_decoded_objects_re_encode_to_the_same_frame(self, golden_payloads):
        """The reused-body path: the codec re-emits the bodies it decoded."""
        group, _payloads = golden_payloads
        codec = MessageCodec(group=group)
        for name, hex_frame in GOLDEN_HEX.items():
            if name != "signing":
                frame = bytes.fromhex(hex_frame)
                assert codec.encode(codec.decode(frame)) == frame, name

    def test_announces_ride_in_an_envelope_with_their_bytes_unchanged(self, golden_payloads):
        """An Announce is an envelope element now; its tag, length and body
        are the ones a frame of its own carried at VERSION 1."""
        group, payloads = golden_payloads
        codec = MessageCodec(group=group)
        announces = (payloads["announce"], payloads["announce_empty"])
        batch = VscBatch(BatchEnvelope(announces + (BVal("7", 0, 1),)), "VC-0")
        frame = codec.encode(batch)
        embedded = [
            bytes.fromhex(GOLDEN_HEX[name])[3:-4] for name in ("announce", "announce_empty")
        ]
        # frame header (9) + envelope tag and length (6) + element count (4)
        assert frame[19:].startswith(embedded[0] + embedded[1])
        assert codec.decode(frame) == batch
        assert MessageCodec(group=group).decode(frame) == batch  # cold table

    def test_signing_bytes_are_byte_identical(self, golden_payloads):
        group, payloads = golden_payloads
        signed = MessageCodec(group=group).signing_bytes(
            b"endorse", payloads["endorse"], 5, "x", b"y"
        )
        assert signed.hex() == GOLDEN_HEX["signing"]


#: backends whose elements the all-type goldens carry; ``schnorr-gmpy2`` is
#: the pure backend where gmpy2 is absent and mpz-backed where it is installed
GOLDEN_BACKENDS = ("schnorr", "schnorr-gmpy2", "secp256k1", "ed25519")


def all_type_payloads():
    """``name -> (backend, payload)``: every registered type at least once,
    every ``Optional`` field both absent and present, every variable-length
    tuple both empty and not, and the group-element payloads on every backend.
    """
    schnorr = get_group("schnorr")
    code = b"code-bytes"
    sig = SchnorrSignature(0x1234567890ABCDEF << 128, (1 << 255) - 19, schnorr.power_g(5))
    bare = SchnorrSignature(1, 2, None)
    endorsements = (Endorsement(7, code, "VC-1", sig), Endorsement(7, code, "VC-2", bare))
    ucert = UniquenessCertificate(7, code, endorsements)
    share = SignedShare(Share(2, (1 << 200) + 17), b"receipt|7|A|0", bare)
    other_share = SignedShare(Share(3, 5), b"receipt|7|A|0", sig)
    consensus = (
        BVal("7", 0, 1), Aux("7", 2, 0), Finish("7", 1),
        SuperblockSend("sb|0", "VC-0", b"\x01\x00\x01\x01"),
        SuperblockEcho("sb|0", "VC-1", b"\x01\x00\x01\x01"),
        SuperblockReady("sb|0", "VC-2", b"\x01\x00\x01\x01"),
    )
    full_entry = BallotStateEntry(
        7, "voted", code, code, b"\x00" * 8, ucert, (("VC-1", share), ("VC-2", other_share))
    )
    bare_entry = BallotStateEntry(9, "not-voted", None, None, None, None, ())
    payloads = {
        "signature_bare": ("schnorr", bare),
        "signature_signed_ints": ("schnorr", SchnorrSignature(-(1 << 70), 0, None)),
        "share": ("schnorr", Share(2, (1 << 200) + 17)),
        "signed_share": ("schnorr", share),
        "pedersen_share": ("schnorr", PedersenShare(3, 11, (1 << 255) + 1)),
        "vote_request": ("schnorr", VoteRequest(7, code, "V-0")),
        "vote_request_unicode": ("schnorr", VoteRequest(0, b"", "vöter-ü")),
        "vote_receipt": ("schnorr", VoteReceipt(7, code, b"\x00\x01" * 4)),
        "vote_rejected": ("schnorr", VoteRejected(7, code, "outside voting hours")),
        "endorse": ("schnorr", Endorse(7, code)),
        "endorsement": ("schnorr", endorsements[0]),
        "ucert": ("schnorr", ucert),
        "ucert_empty": ("schnorr", UniquenessCertificate(7, code, ())),
        "vote_pending": ("schnorr", VotePending(7, code, share, ucert, "VC-2")),
        "announce": ("schnorr", Announce(7, code, ucert, "VC-0")),
        "announce_code_only": ("schnorr", Announce(7, code, None, "VC-0")),
        "announce_ucert_only": ("schnorr", Announce(7, None, ucert, "VC-0")),
        "announce_empty": ("schnorr", Announce(8, None, None, "VC-0")),
        "recover_request": ("schnorr", RecoverRequest(7, "VC-3")),
        "recover_response": ("schnorr", RecoverResponse(7, code, ucert, "VC-3")),
        "vsc_batch": (
            "schnorr",
            VscBatch(BatchEnvelope(consensus + (Announce(8, None, None, "VC-1"),)), "VC-1"),
        ),
        "vsc_batch_empty": ("schnorr", VscBatch(BatchEnvelope(()), "VC-1")),
        "vote_set_upload": ("schnorr", VoteSetUpload(((7, code), (9, b"other")), "VC-2")),
        "vote_set_upload_empty": ("schnorr", VoteSetUpload((), "VC-2")),
        "msk_share_upload": ("schnorr", MskShareUpload(share, "VC-2")),
        "ballot_state_full": ("schnorr", full_entry),
        "ballot_state_bare": ("schnorr", bare_entry),
        "vc_snapshot": ("schnorr", VcStateSnapshot("VC-0", True, (full_entry, bare_entry))),
        "vc_snapshot_empty": ("schnorr", VcStateSnapshot("VC-0", False, ())),
        "bval": ("schnorr", consensus[0]),
        "aux": ("schnorr", consensus[1]),
        "finish": ("schnorr", consensus[2]),
        "superblock_send": ("schnorr", consensus[3]),
        "superblock_echo": ("schnorr", consensus[4]),
        "superblock_ready": ("schnorr", consensus[5]),
        "superblock_send_empty": ("schnorr", SuperblockSend("sb|1", "VC-3", b"")),
        "batch_envelope": ("schnorr", BatchEnvelope(consensus)),
        "batch_envelope_empty": ("schnorr", BatchEnvelope(())),
        "commitment_empty": ("schnorr", OptionCommitment(())),
    }
    for backend in GOLDEN_BACKENDS:
        group = get_group(backend)
        ciphertexts = (
            ElGamalCiphertext(group.power_g(3), group.power_g(11)),
            ElGamalCiphertext(group.identity(), group.generator()),
        )
        commitment = OptionCommitment(ciphertexts)
        payloads.update({
            f"{backend}/signature": (
                backend, SchnorrSignature(sig.challenge, sig.response, group.power_g(5))
            ),
            f"{backend}/ciphertext": (backend, ciphertexts[0]),
            f"{backend}/ciphertext_identity": (backend, ciphertexts[1]),
            f"{backend}/commitment": (backend, commitment),
            f"{backend}/shard_commit": (
                backend,
                ShardCommitRecord(2, 100, 150, 50, 37, commitment, b"\x11" * 32, "shard-2"),
            ),
            f"{backend}/global_commit": (
                backend,
                GlobalCommitRecord(
                    "codec-goldens", 2, 80, commitment, (b"\x22" * 32, b"\x33" * 32)
                ),
            ),
        })
    return payloads


@pytest.fixture(scope="module")
def all_payloads():
    return all_type_payloads()


def declared_fields(cls):
    """``(name, annotation)`` of a registered type's fields."""
    hints = typing.get_type_hints(cls, localns={"Announce": Announce})
    return [(f.name, hints[f.name]) for f in dataclasses.fields(cls)]


def is_optional(declared):
    return typing.get_origin(declared) is Union and type(None) in typing.get_args(declared)


def is_sequence(declared):
    args = typing.get_args(declared)
    return typing.get_origin(declared) is tuple and len(args) == 2 and args[1] is Ellipsis


#: registered after the goldens were captured; ``PINNED_SLICE_HEX`` in
#: ``tests/shard/test_parallel_driver.py`` pins a frame holding both
NOT_IN_GOLDENS = {CommitmentOpening, ShardSliceResult}


class TestAllTypeGoldens:
    def test_the_payloads_cover_every_registered_type(self, all_payloads):
        assert sorted(all_payloads) == sorted(CODEC_GOLDENS)
        covered = {type(payload) for _backend, payload in all_payloads.values()}
        assert covered | NOT_IN_GOLDENS == set(MessageCodec().registered_types)
        assert len(covered) == 30

    def test_every_optional_is_absent_and_present_and_every_sequence_empty_and_not(
        self, all_payloads
    ):
        # A global commit binds at least one shard digest by construction.
        never_empty = {(GlobalCommitRecord, "shard_digests")}
        for cls in set(MessageCodec().registered_types) - NOT_IN_GOLDENS:
            samples = [p for _b, p in all_payloads.values() if type(p) is cls]
            for name, declared in declared_fields(cls):
                values = [getattr(sample, name) for sample in samples]
                if is_optional(declared):
                    assert None in values and any(v is not None for v in values), (cls, name)
                if is_sequence(declared) and (cls, name) not in never_empty:
                    assert () in values and any(values), (cls, name)

    @pytest.mark.parametrize("name", sorted(CODEC_GOLDENS))
    def test_frame_is_byte_identical_and_round_trips(self, all_payloads, name):
        backend, payload = all_payloads[name]
        golden = bytes.fromhex(CODEC_GOLDENS[name])
        assert MessageCodec(group=get_group(backend)).encode(payload) == golden
        codec = MessageCodec(group=get_group(backend))
        decoded = codec.decode(golden)
        assert decoded == payload
        assert codec.encode(decoded) == golden  # the decoded bodies are reused


def with_byte(frame: bytes, at: int, value: int) -> bytes:
    """``frame`` with one byte replaced and its checksum recomputed."""
    body = bytearray(frame[:-FRAME_TRAILER_LEN])
    body[at] = value
    return bytes(body) + zlib.crc32(body).to_bytes(4, "big")


def first_difference(one: bytes, other: bytes) -> int:
    """The first body byte at which two frames of one type differ."""
    return next(
        at for at in range(FRAME_HEADER_LEN, min(len(one), len(other))) if one[at] != other[at]
    )


FLAG_FIELDS = [
    (cls, name)
    for cls in MessageCodec().registered_types
    for name, declared in declared_fields(cls)
    if is_optional(declared) or declared is bool
]


class TestFieldRefusals:
    """The checks every hand-written decoder made, on every field they apply to."""

    def test_the_flag_fields_are_the_seven_optionals_and_one_bool(self):
        assert sorted((cls.__name__, name) for cls, name in FLAG_FIELDS) == [
            ("Announce", "ucert"),
            ("Announce", "vote_code"),
            ("BallotStateEntry", "endorsed_code"),
            ("BallotStateEntry", "receipt"),
            ("BallotStateEntry", "ucert"),
            ("BallotStateEntry", "used_vote_code"),
            ("SchnorrSignature", "commitment"),
            ("VcStateSnapshot", "voting_closed"),
        ]

    @pytest.mark.parametrize("stray", [2, 0xFF])
    @pytest.mark.parametrize(
        "cls, name", FLAG_FIELDS, ids=[f"{cls.__name__}.{name}" for cls, name in FLAG_FIELDS]
    )
    def test_a_marker_or_bool_byte_other_than_0_or_1(self, all_payloads, cls, name, stray):
        codec = MessageCodec(group=get_group("schnorr"))
        samples = [p for backend, p in all_payloads.values() if type(p) is cls]
        # Two payloads that differ in this field alone: absent (or False) and
        # present (or True); the first byte they differ in is its marker.
        low = next(p for p in samples if not getattr(p, name))
        high = next(getattr(p, name) for p in samples if getattr(p, name))
        frame = codec.encode(low)
        at = first_difference(frame, codec.encode(dataclasses.replace(low, **{name: high})))
        assert frame[at] == 0
        with pytest.raises(WireFormatError, match="invalid (optional marker|bool byte)"):
            codec.decode(with_byte(frame, at, stray))
