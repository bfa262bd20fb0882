"""Canonical wire format for every D-DEMOS protocol payload.

The paper's prototype ships protocol messages over Netty/TLS as real byte
streams and reports byte-level bandwidth figures; this module is the
reproduction's equivalent of that wire layer.  It defines one deterministic,
versioned binary encoding shared by three consumers:

* the :mod:`repro.net.transport` backends, which frame every simulated or
  TCP-delivered message with it (giving honest byte counts and a real
  socket-capable representation);
* the signing sites (vote collectors endorsing vote codes, the EA's signing
  dealer, trustees signing submissions), which sign canonical encodings via
  :meth:`MessageCodec.signing_bytes` instead of ad-hoc byte concatenation;
* the :class:`repro.perf.costmodel.BandwidthCosts` model, which measures
  representative encodings to predict bandwidth at paper scale.

Frame layout (all integers big-endian)::

    +-------+---------+-------+----------+--------+-------+
    | magic | version |  tag  | body len |  body  | crc32 |
    |  "DW" |  u8=1   |  u16  |   u32    | ...    |  u32  |
    +-------+---------+-------+----------+--------+-------+

The tag identifies the payload type through the codec registry; the CRC32
covers everything before it.  Nested protocol objects (a signature inside an
endorsement, announces and consensus messages inside a batch envelope) are
embedded as ``tag + body len + body`` without the outer magic/CRC.  Decoding
is strict:
unknown tags, truncated frames, length mismatches, non-minimal integer
encodings, trailing garbage and checksum failures all raise
:class:`WireFormatError`, so a corrupted frame can never silently turn into a
different message.

Repeated sub-objects are decoded once.  The same uniqueness certificate rides
on every VOTE_P and ANNOUNCE of its ballot and a broadcast frame reaches every
collector, so each :class:`MessageCodec` keeps a bounded table from ``(tag,
body bytes)`` to the object those bytes strictly decoded to (see
:meth:`MessageCodec.decode_embedded`).  Magic, version, CRC and trailing-byte
checks still run on every frame; only the re-parsing of a body this codec has
already parsed, byte for byte, is skipped.
"""

from __future__ import annotations

import dataclasses
import zlib
from typing import Any, Callable, Dict, Optional, Tuple, Type

from repro.consensus.batching import (
    BatchEnvelope,
    SuperblockEcho,
    SuperblockReady,
    SuperblockSend,
)
from repro.consensus.interfaces import Aux, BVal, ConsensusMessage, Finish
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
from repro.crypto.group import Group, GroupElement
from repro.crypto.pedersen_vss import PedersenShare
from repro.crypto.shamir import Share, SignedShare
from repro.crypto.signatures import SchnorrSignature

MAGIC = b"DW"
VERSION = 1
#: magic(2) + version(1) + tag(2) + body length(4)
FRAME_HEADER_LEN = 9
#: trailing CRC32
FRAME_TRAILER_LEN = 4
#: fixed framing cost of one top-level message
FRAME_OVERHEAD = FRAME_HEADER_LEN + FRAME_TRAILER_LEN
_FRAME_PREFIX = MAGIC + bytes([VERSION])

#: entries a codec's intern table may hold (oldest evicted first)
INTERN_TABLE_MAX = 4096
#: embedded bodies outside this size range are not interned: re-parsing a
#: smaller one costs less than hashing it, and a larger one (a state snapshot)
#: would pin its bytes in the table for little chance of a repeat
INTERN_MIN_BODY = 64
INTERN_MAX_BODY = 8192


class WireFormatError(ValueError):
    """A frame could not be encoded or decoded canonically."""


# ---------------------------------------------------------------------------
# Primitive writers / readers
# ---------------------------------------------------------------------------


def _w_u8(out: bytearray, value: int) -> None:
    out += value.to_bytes(1, "big")


def _w_u16(out: bytearray, value: int) -> None:
    out += value.to_bytes(2, "big")


def _w_u32(out: bytearray, value: int) -> None:
    if value < 0 or value > 0xFFFFFFFF:
        raise WireFormatError(f"length {value} out of u32 range")
    out += value.to_bytes(4, "big")


def _w_vbytes(out: bytearray, value: bytes) -> None:
    _w_u32(out, len(value))
    out += value


def _w_vstr(out: bytearray, value: str) -> None:
    _w_vbytes(out, value.encode("utf-8"))


def _w_vint(out: bytearray, value: int) -> None:
    """Arbitrary-precision signed integer: sign byte + minimal magnitude."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise WireFormatError(f"expected an int, got {type(value).__name__}")
    magnitude = abs(value)
    data = magnitude.to_bytes((magnitude.bit_length() + 7) // 8, "big")
    out += b"\x01" if value < 0 else b"\x00"
    _w_vbytes(out, data)


class _Reader:
    """Strict cursor over an immutable byte buffer."""

    __slots__ = ("data", "pos", "end")

    def __init__(self, data: bytes, start: int = 0, end: Optional[int] = None):
        self.data = data
        self.pos = start
        self.end = len(data) if end is None else end

    def take(self, n: int) -> bytes:
        if n < 0 or self.pos + n > self.end:
            raise WireFormatError("truncated frame")
        chunk = self.data[self.pos:self.pos + n]
        self.pos += n
        return chunk

    # The fixed-width readers below repeat take()'s bounds check inline: they
    # run ~40 times per decoded message, and the extra call was a quarter of
    # decode time.

    def u8(self) -> int:
        pos = self.pos
        if pos >= self.end:
            raise WireFormatError("truncated frame")
        self.pos = pos + 1
        return self.data[pos]

    def u16(self) -> int:
        pos = self.pos
        end = pos + 2
        if end > self.end:
            raise WireFormatError("truncated frame")
        self.pos = end
        return int.from_bytes(self.data[pos:end], "big")

    def u32(self) -> int:
        pos = self.pos
        end = pos + 4
        if end > self.end:
            raise WireFormatError("truncated frame")
        self.pos = end
        return int.from_bytes(self.data[pos:end], "big")

    def vbytes(self) -> bytes:
        start = self.pos + 4
        if start > self.end:
            raise WireFormatError("truncated frame")
        end = start + int.from_bytes(self.data[self.pos:start], "big")
        if end > self.end:
            raise WireFormatError("truncated frame")
        self.pos = end
        return self.data[start:end]

    def vstr(self) -> str:
        try:
            return self.vbytes().decode("utf-8")
        except UnicodeDecodeError as exc:
            raise WireFormatError("invalid utf-8 in string field") from exc

    def vint(self) -> int:
        sign = self.u8()
        if sign not in (0, 1):
            raise WireFormatError(f"invalid integer sign byte {sign}")
        data = self.vbytes()
        if data and data[0] == 0:
            raise WireFormatError("non-minimal integer encoding")
        magnitude = int.from_bytes(data, "big")
        if sign == 1 and magnitude == 0:
            raise WireFormatError("negative zero is not canonical")
        return -magnitude if sign else magnitude

    def exhausted(self) -> bool:
        return self.pos == self.end


#: what a :class:`BatchEnvelope` may hold
_ENVELOPE_ELEMENTS = (ConsensusMessage, Announce)

Encoder = Callable[["MessageCodec", Any, bytearray], None]
Decoder = Callable[["MessageCodec", _Reader], Any]


def _remember(table: Dict[Any, Any], key: Any, value: Any) -> None:
    """Insert into an intern table, evicting the oldest entry at the bound."""
    if len(table) >= INTERN_TABLE_MAX:
        del table[next(iter(table))]
    table[key] = value


class MessageCodec:
    """Registry-driven encoder/decoder for every protocol payload.

    ``group`` is used to deserialize embedded group elements (the nonce
    commitment a Schnorr signature optionally carries); when omitted, the
    backend is inferred from the element's self-describing serialization
    prefix (``b"S"`` Schnorr, ``b"E"`` secp256k1).

    Each instance owns a bounded intern table (``INTERN_TABLE_MAX`` entries,
    oldest evicted first), filled by :meth:`decode_embedded` and indexed both
    ways: ``(tag, body bytes) -> object`` so the same bytes are parsed once,
    and ``id(object) -> (object, body bytes)`` so :meth:`encode_embedded` can
    re-emit the body of an object this codec decoded (a collector forwarding
    the certificate it received) without walking it again.
    """

    def __init__(self, group: Optional[Group] = None):
        self.group = group
        self._encoders: Dict[Type, Tuple[int, Encoder]] = {}
        self._decoders: Dict[int, Tuple[Type, Decoder]] = {}
        self._decoded: Dict[Tuple[int, bytes], Any] = {}
        #: values keep the object alive, so its ``id`` cannot be reused while
        #: the entry exists
        self._bodies: Dict[int, Tuple[Any, bytes]] = {}
        _install_default_types(self)

    # -- registry ---------------------------------------------------------------

    def register(self, tag: int, cls: Type, encoder: Encoder, decoder: Decoder) -> None:
        """Register a payload type under a wire tag (extensibility hook).

        ``cls`` must be a frozen dataclass: decoded objects are shared between
        every receiver of the same bytes, and an encoded body is reused for
        as long as the object lives.
        """
        if not 0 <= tag <= 0xFFFF:
            raise ValueError(f"tag {tag} out of u16 range")
        if tag in self._decoders:
            raise ValueError(f"tag {tag} already registered for {self._decoders[tag][0].__name__}")
        if cls in self._encoders:
            raise ValueError(f"{cls.__name__} already registered")
        if not (dataclasses.is_dataclass(cls) and cls.__dataclass_params__.frozen):
            raise ValueError(f"{cls.__name__} is not a frozen dataclass")
        self._encoders[cls] = (tag, encoder)
        self._decoders[tag] = (cls, decoder)

    @property
    def registered_types(self) -> Tuple[Type, ...]:
        """Every payload type this codec can put on the wire."""
        return tuple(self._encoders)

    def tag_of(self, cls: Type) -> int:
        """The wire tag of a registered payload type."""
        return self._encoders[cls][0]

    @property
    def interned(self) -> int:
        """Entries in the intern table (never above ``INTERN_TABLE_MAX``)."""
        return len(self._decoded)

    # -- top-level frames -------------------------------------------------------

    def encode(self, payload: Any) -> bytes:
        """Encode one payload as a complete, CRC-protected frame."""
        out = bytearray(_FRAME_PREFIX)
        self.encode_embedded(payload, out)
        _w_u32(out, zlib.crc32(out))
        return bytes(out)

    def decode(self, frame: bytes) -> Any:
        """Strictly decode a frame produced by :meth:`encode`."""
        if len(frame) < FRAME_OVERHEAD:
            raise WireFormatError(f"frame too short ({len(frame)} bytes)")
        if frame[:2] != MAGIC:
            raise WireFormatError("bad magic")
        if frame[2] != VERSION:
            raise WireFormatError(f"unsupported wire-format version {frame[2]}")
        body, crc = frame[:-FRAME_TRAILER_LEN], frame[-FRAME_TRAILER_LEN:]
        if zlib.crc32(body) != int.from_bytes(crc, "big"):
            raise WireFormatError("checksum mismatch (corrupted frame)")
        reader = _Reader(frame, start=3, end=len(frame) - FRAME_TRAILER_LEN)
        payload = self.decode_embedded(reader)
        if not reader.exhausted():
            raise WireFormatError("trailing bytes after payload")
        return payload

    @staticmethod
    def frame_remainder_length(header: bytes) -> int:
        """Bytes that follow a ``FRAME_HEADER_LEN``-byte header on a stream."""
        if len(header) != FRAME_HEADER_LEN:
            raise WireFormatError("incomplete frame header")
        if header[:2] != MAGIC:
            raise WireFormatError("bad magic")
        if header[2] != VERSION:
            raise WireFormatError(f"unsupported wire-format version {header[2]}")
        body_len = int.from_bytes(header[5:9], "big")
        return body_len + FRAME_TRAILER_LEN

    # -- embedded objects -------------------------------------------------------

    def encode_embedded(self, obj: Any, out: bytearray) -> None:
        """Append ``tag + length + body`` for one registered object."""
        entry = self._encoders.get(type(obj))
        if entry is None:
            raise WireFormatError(
                f"{type(obj).__name__} is not a registered wire payload"
            )
        tag, encoder = entry
        _w_u16(out, tag)
        known = self._bodies.get(id(obj))
        if known is not None and known[0] is obj:
            _w_vbytes(out, known[1])
            return
        # Reserve the length field and back-patch it once the body is written
        # straight into ``out``.
        out += b"\x00\x00\x00\x00"
        start = len(out)
        encoder(self, obj, out)
        length = len(out) - start
        if length > 0xFFFFFFFF:
            raise WireFormatError(f"length {length} out of u32 range")
        out[start - 4:start] = length.to_bytes(4, "big")

    def decode_embedded(self, reader: _Reader, expected=None) -> Any:
        """Decode one embedded object; optionally require its type (or one of
        a tuple of types).

        A body of ``INTERN_MIN_BODY..INTERN_MAX_BODY`` bytes is looked up in
        this codec's intern table by ``(tag, body bytes)`` first.  An entry
        is only ever written after those exact bytes passed the strict decode
        below, decoding is a pure function of the bytes (and of this codec's
        registry and group), and every registered type is a frozen dataclass,
        so a hit returns precisely what decoding again would build -- the
        table can skip work but never accept bytes strict decoding rejects.
        """
        tag = reader.u16()
        entry = self._decoders.get(tag)
        if entry is None:
            raise WireFormatError(f"unknown wire tag 0x{tag:04x}")
        cls, decoder = entry
        if expected is not None and not issubclass(cls, expected):
            wanted = expected if isinstance(expected, tuple) else (expected,)
            raise WireFormatError(
                f"expected an embedded {' or '.join(t.__name__ for t in wanted)}, "
                f"found {cls.__name__}"
            )
        start = reader.pos + 4
        end = start + reader.u32()
        if end > reader.end:
            raise WireFormatError("embedded object overruns its container")
        key = None
        if INTERN_MIN_BODY <= end - start <= INTERN_MAX_BODY:
            key = (tag, reader.data[start:end])
            obj = self._decoded.get(key)
            if obj is not None:
                reader.pos = end
                return obj
        sub = _Reader(reader.data, start=start, end=end)
        obj = decoder(self, sub)
        if sub.pos != end:
            raise WireFormatError(f"embedded {cls.__name__} has trailing bytes")
        if key is not None:
            _remember(self._decoded, key, obj)
            _remember(self._bodies, id(obj), (obj, key[1]))
        reader.pos = end
        return obj

    # -- group elements ---------------------------------------------------------

    def element_from_bytes(self, data: bytes) -> GroupElement:
        """Rebuild a group element from its self-describing serialization."""
        group = self.group
        if group is None:
            group = _group_for_serialized(data)
        try:
            return group.deserialize(data)
        except (ValueError, IndexError) as exc:
            raise WireFormatError("invalid group-element bytes") from exc

    # -- canonical signing encodings --------------------------------------------

    def signing_bytes(self, domain: bytes, *parts: Any) -> bytes:
        """Canonical byte string to sign: a domain tag plus typed parts.

        Each part is length-prefixed and type-tagged (bytes, int, str or any
        registered wire payload), so no concatenation of two different part
        lists can collide -- the property the old ad-hoc ``b"|"``-joined
        signing strings could not guarantee.
        """
        out = bytearray(b"ddemos-sign-v1")
        _w_vbytes(out, domain)
        _w_u32(out, len(parts))
        for part in parts:
            if isinstance(part, (bytes, bytearray)):
                _w_u8(out, 0)
                _w_vbytes(out, bytes(part))
            elif isinstance(part, bool):
                raise WireFormatError("bool is not a signable part")
            elif isinstance(part, int):
                _w_u8(out, 1)
                _w_vint(out, part)
            elif isinstance(part, str):
                _w_u8(out, 2)
                _w_vstr(out, part)
            else:
                _w_u8(out, 3)
                self.encode_embedded(part, out)
        return bytes(out)


def _group_for_serialized(data: bytes) -> Group:
    """Pick the shared registry group that can deserialize ``data``.

    Ed25519 elements are bare 32-byte compressed points with no type prefix,
    so the length check must come first: a compressed point can legitimately
    begin with the byte that tags Schnorr elements.  Schnorr elements are 33
    bytes (``b"S"`` + value) and secp256k1 points 2 or 66 (``b"E"`` + tag),
    so the three encodings never collide.
    """
    from repro.crypto.registry import get_group

    if len(data) == 32:
        return get_group("ed25519")
    if data[:1] == b"S":
        return get_group("schnorr")
    if data[:1] == b"E":
        return get_group("secp256k1")
    raise WireFormatError(f"unknown group-element prefix {data[:1]!r}")


# ---------------------------------------------------------------------------
# Default registry
# ---------------------------------------------------------------------------


def _opt_bytes(out: bytearray, value: Optional[bytes]) -> None:
    if value is None:
        _w_u8(out, 0)
    else:
        _w_u8(out, 1)
        _w_vbytes(out, value)


def _read_opt(reader: _Reader) -> bool:
    flag = reader.u8()
    if flag not in (0, 1):
        raise WireFormatError(f"invalid optional marker {flag}")
    return flag == 1


def _install_default_types(codec: MessageCodec) -> None:
    reg = codec.register

    # -- crypto building blocks (0x40..) ------------------------------------

    def enc_signature(c: MessageCodec, sig: SchnorrSignature, out: bytearray) -> None:
        _w_vint(out, sig.challenge)
        _w_vint(out, sig.response)
        _opt_bytes(out, None if sig.commitment is None else sig.commitment.serialize())

    def dec_signature(c: MessageCodec, r: _Reader) -> SchnorrSignature:
        challenge = r.vint()
        response = r.vint()
        commitment = c.element_from_bytes(r.vbytes()) if _read_opt(r) else None
        return SchnorrSignature(challenge, response, commitment)

    reg(0x40, SchnorrSignature, enc_signature, dec_signature)

    def enc_share(c: MessageCodec, share: Share, out: bytearray) -> None:
        _w_vint(out, share.index)
        _w_vint(out, share.value)

    def dec_share(c: MessageCodec, r: _Reader) -> Share:
        return Share(r.vint(), r.vint())

    reg(0x41, Share, enc_share, dec_share)

    def enc_signed_share(c: MessageCodec, signed: SignedShare, out: bytearray) -> None:
        c.encode_embedded(signed.share, out)
        _w_vbytes(out, signed.context)
        c.encode_embedded(signed.signature, out)

    def dec_signed_share(c: MessageCodec, r: _Reader) -> SignedShare:
        share = c.decode_embedded(r, Share)
        context = r.vbytes()
        signature = c.decode_embedded(r, SchnorrSignature)
        return SignedShare(share, context, signature)

    reg(0x42, SignedShare, enc_signed_share, dec_signed_share)

    def enc_pedersen_share(c: MessageCodec, share: PedersenShare, out: bytearray) -> None:
        _w_vint(out, share.index)
        _w_vint(out, share.value)
        _w_vint(out, share.blinding)

    def dec_pedersen_share(c: MessageCodec, r: _Reader) -> PedersenShare:
        return PedersenShare(r.vint(), r.vint(), r.vint())

    reg(0x43, PedersenShare, enc_pedersen_share, dec_pedersen_share)

    # -- voter <-> VC (0x01..) ----------------------------------------------

    def enc_vote_request(c: MessageCodec, m: VoteRequest, out: bytearray) -> None:
        _w_vint(out, m.serial)
        _w_vbytes(out, m.vote_code)
        _w_vstr(out, m.voter_id)

    def dec_vote_request(c: MessageCodec, r: _Reader) -> VoteRequest:
        return VoteRequest(r.vint(), r.vbytes(), r.vstr())

    reg(0x01, VoteRequest, enc_vote_request, dec_vote_request)

    def enc_vote_receipt(c: MessageCodec, m: VoteReceipt, out: bytearray) -> None:
        _w_vint(out, m.serial)
        _w_vbytes(out, m.vote_code)
        _w_vbytes(out, m.receipt)

    def dec_vote_receipt(c: MessageCodec, r: _Reader) -> VoteReceipt:
        return VoteReceipt(r.vint(), r.vbytes(), r.vbytes())

    reg(0x02, VoteReceipt, enc_vote_receipt, dec_vote_receipt)

    def enc_vote_rejected(c: MessageCodec, m: VoteRejected, out: bytearray) -> None:
        _w_vint(out, m.serial)
        _w_vbytes(out, m.vote_code)
        _w_vstr(out, m.reason)

    def dec_vote_rejected(c: MessageCodec, r: _Reader) -> VoteRejected:
        return VoteRejected(r.vint(), r.vbytes(), r.vstr())

    reg(0x03, VoteRejected, enc_vote_rejected, dec_vote_rejected)

    # -- VC <-> VC voting protocol (0x04..) ---------------------------------

    def enc_endorse(c: MessageCodec, m: Endorse, out: bytearray) -> None:
        _w_vint(out, m.serial)
        _w_vbytes(out, m.vote_code)

    def dec_endorse(c: MessageCodec, r: _Reader) -> Endorse:
        return Endorse(r.vint(), r.vbytes())

    reg(0x04, Endorse, enc_endorse, dec_endorse)

    def enc_endorsement(c: MessageCodec, m: Endorsement, out: bytearray) -> None:
        _w_vint(out, m.serial)
        _w_vbytes(out, m.vote_code)
        _w_vstr(out, m.signer)
        c.encode_embedded(m.signature, out)

    def dec_endorsement(c: MessageCodec, r: _Reader) -> Endorsement:
        return Endorsement(
            r.vint(), r.vbytes(), r.vstr(), c.decode_embedded(r, SchnorrSignature)
        )

    reg(0x05, Endorsement, enc_endorsement, dec_endorsement)

    def enc_ucert(c: MessageCodec, m: UniquenessCertificate, out: bytearray) -> None:
        _w_vint(out, m.serial)
        _w_vbytes(out, m.vote_code)
        _w_u32(out, len(m.endorsements))
        for endorsement in m.endorsements:
            c.encode_embedded(endorsement, out)

    def dec_ucert(c: MessageCodec, r: _Reader) -> UniquenessCertificate:
        serial = r.vint()
        vote_code = r.vbytes()
        count = r.u32()
        endorsements = tuple(c.decode_embedded(r, Endorsement) for _ in range(count))
        return UniquenessCertificate(serial, vote_code, endorsements)

    reg(0x06, UniquenessCertificate, enc_ucert, dec_ucert)

    def enc_vote_pending(c: MessageCodec, m: VotePending, out: bytearray) -> None:
        _w_vint(out, m.serial)
        _w_vbytes(out, m.vote_code)
        c.encode_embedded(m.receipt_share, out)
        c.encode_embedded(m.ucert, out)
        _w_vstr(out, m.sender)

    def dec_vote_pending(c: MessageCodec, r: _Reader) -> VotePending:
        return VotePending(
            r.vint(),
            r.vbytes(),
            c.decode_embedded(r, SignedShare),
            c.decode_embedded(r, UniquenessCertificate),
            r.vstr(),
        )

    reg(0x07, VotePending, enc_vote_pending, dec_vote_pending)

    # -- Vote Set Consensus (0x08..) ----------------------------------------

    def enc_announce(c: MessageCodec, m: Announce, out: bytearray) -> None:
        _w_vint(out, m.serial)
        _opt_bytes(out, m.vote_code)
        if m.ucert is None:
            _w_u8(out, 0)
        else:
            _w_u8(out, 1)
            c.encode_embedded(m.ucert, out)
        _w_vstr(out, m.sender)

    def dec_announce(c: MessageCodec, r: _Reader) -> Announce:
        serial = r.vint()
        vote_code = r.vbytes() if _read_opt(r) else None
        ucert = c.decode_embedded(r, UniquenessCertificate) if _read_opt(r) else None
        return Announce(serial, vote_code, ucert, r.vstr())

    reg(0x08, Announce, enc_announce, dec_announce)

    def enc_recover_request(c: MessageCodec, m: RecoverRequest, out: bytearray) -> None:
        _w_vint(out, m.serial)
        _w_vstr(out, m.sender)

    def dec_recover_request(c: MessageCodec, r: _Reader) -> RecoverRequest:
        return RecoverRequest(r.vint(), r.vstr())

    reg(0x09, RecoverRequest, enc_recover_request, dec_recover_request)

    def enc_recover_response(c: MessageCodec, m: RecoverResponse, out: bytearray) -> None:
        _w_vint(out, m.serial)
        _w_vbytes(out, m.vote_code)
        c.encode_embedded(m.ucert, out)
        _w_vstr(out, m.sender)

    def dec_recover_response(c: MessageCodec, r: _Reader) -> RecoverResponse:
        return RecoverResponse(
            r.vint(), r.vbytes(), c.decode_embedded(r, UniquenessCertificate), r.vstr()
        )

    reg(0x0A, RecoverResponse, enc_recover_response, dec_recover_response)

    # 0x0B (VscEnvelope, one consensus message per frame) is retired: every
    # consensus-phase element travels inside a VscBatch.  Do not reuse the tag.

    def enc_vsc_batch(c: MessageCodec, m: VscBatch, out: bytearray) -> None:
        c.encode_embedded(m.envelope, out)
        _w_vstr(out, m.sender)

    def dec_vsc_batch(c: MessageCodec, r: _Reader) -> VscBatch:
        return VscBatch(c.decode_embedded(r, BatchEnvelope), r.vstr())

    reg(0x0C, VscBatch, enc_vsc_batch, dec_vsc_batch)

    # -- VC -> BB uploads (0x0D..) ------------------------------------------

    def enc_vote_set_upload(c: MessageCodec, m: VoteSetUpload, out: bytearray) -> None:
        _w_u32(out, len(m.vote_set))
        for serial, vote_code in m.vote_set:
            _w_vint(out, serial)
            _w_vbytes(out, vote_code)
        _w_vstr(out, m.sender)

    def dec_vote_set_upload(c: MessageCodec, r: _Reader) -> VoteSetUpload:
        count = r.u32()
        vote_set = tuple((r.vint(), r.vbytes()) for _ in range(count))
        return VoteSetUpload(vote_set, r.vstr())

    reg(0x0D, VoteSetUpload, enc_vote_set_upload, dec_vote_set_upload)

    def enc_msk_share_upload(c: MessageCodec, m: MskShareUpload, out: bytearray) -> None:
        c.encode_embedded(m.share, out)
        _w_vstr(out, m.sender)

    def dec_msk_share_upload(c: MessageCodec, r: _Reader) -> MskShareUpload:
        return MskShareUpload(c.decode_embedded(r, SignedShare), r.vstr())

    reg(0x0E, MskShareUpload, enc_msk_share_upload, dec_msk_share_upload)

    # -- durable VC state for crash/recovery (0x0F..) -----------------------

    def enc_ballot_state(c: MessageCodec, m: BallotStateEntry, out: bytearray) -> None:
        _w_vint(out, m.serial)
        _w_vstr(out, m.status)
        _opt_bytes(out, m.used_vote_code)
        _opt_bytes(out, m.endorsed_code)
        _opt_bytes(out, m.receipt)
        if m.ucert is None:
            _w_u8(out, 0)
        else:
            _w_u8(out, 1)
            c.encode_embedded(m.ucert, out)
        _w_u32(out, len(m.receipt_shares))
        for sender, share in m.receipt_shares:
            _w_vstr(out, sender)
            c.encode_embedded(share, out)

    def dec_ballot_state(c: MessageCodec, r: _Reader) -> BallotStateEntry:
        serial = r.vint()
        status = r.vstr()
        used = r.vbytes() if _read_opt(r) else None
        endorsed = r.vbytes() if _read_opt(r) else None
        receipt = r.vbytes() if _read_opt(r) else None
        ucert = c.decode_embedded(r, UniquenessCertificate) if _read_opt(r) else None
        count = r.u32()
        shares = tuple(
            (r.vstr(), c.decode_embedded(r, SignedShare)) for _ in range(count)
        )
        return BallotStateEntry(serial, status, used, endorsed, receipt, ucert, shares)

    reg(0x0F, BallotStateEntry, enc_ballot_state, dec_ballot_state)

    def enc_vc_snapshot(c: MessageCodec, m: VcStateSnapshot, out: bytearray) -> None:
        _w_vstr(out, m.node_id)
        _w_u8(out, 1 if m.voting_closed else 0)
        _w_u32(out, len(m.entries))
        for entry in m.entries:
            c.encode_embedded(entry, out)

    def dec_vc_snapshot(c: MessageCodec, r: _Reader) -> VcStateSnapshot:
        node_id = r.vstr()
        closed = _read_opt(r)
        count = r.u32()
        entries = tuple(c.decode_embedded(r, BallotStateEntry) for _ in range(count))
        return VcStateSnapshot(node_id, closed, entries)

    reg(0x10, VcStateSnapshot, enc_vc_snapshot, dec_vc_snapshot)

    # -- binary consensus (0x20..) ------------------------------------------

    def enc_bval(c: MessageCodec, m: BVal, out: bytearray) -> None:
        _w_vstr(out, m.instance)
        _w_vint(out, m.round)
        _w_vint(out, m.value)

    def dec_bval(c: MessageCodec, r: _Reader) -> BVal:
        return BVal(r.vstr(), r.vint(), r.vint())

    reg(0x20, BVal, enc_bval, dec_bval)

    def enc_aux(c: MessageCodec, m: Aux, out: bytearray) -> None:
        _w_vstr(out, m.instance)
        _w_vint(out, m.round)
        _w_vint(out, m.value)

    def dec_aux(c: MessageCodec, r: _Reader) -> Aux:
        return Aux(r.vstr(), r.vint(), r.vint())

    reg(0x21, Aux, enc_aux, dec_aux)

    def enc_finish(c: MessageCodec, m: Finish, out: bytearray) -> None:
        _w_vstr(out, m.instance)
        _w_vint(out, m.value)

    def dec_finish(c: MessageCodec, r: _Reader) -> Finish:
        return Finish(r.vstr(), r.vint())

    reg(0x22, Finish, enc_finish, dec_finish)

    def make_superblock_codec(cls):
        def enc(c: MessageCodec, m, out: bytearray) -> None:
            _w_vstr(out, m.instance)
            _w_vstr(out, m.origin)
            # Opinion vectors travel as they are held: one byte per ballot
            # (the vector length is what the superblock byte savings trade
            # against, so keep it compact and deterministic).
            _w_vbytes(out, m.bits)

        def dec(c: MessageCodec, r: _Reader):
            instance, origin, bits = r.vstr(), r.vstr(), r.vbytes()
            if bits.translate(None, b"\x00\x01"):
                raise WireFormatError("opinion vector holds a byte other than 0 or 1")
            return cls(instance, origin, bits)

        return enc, dec

    for tag, cls in ((0x23, SuperblockSend), (0x24, SuperblockEcho), (0x25, SuperblockReady)):
        enc, dec = make_superblock_codec(cls)
        reg(tag, cls, enc, dec)

    def enc_batch_envelope(c: MessageCodec, m: BatchEnvelope, out: bytearray) -> None:
        _w_u32(out, len(m.messages))
        for message in m.messages:
            c.encode_embedded(message, out)

    def dec_batch_envelope(c: MessageCodec, r: _Reader) -> BatchEnvelope:
        count = r.u32()
        return BatchEnvelope(
            tuple(c.decode_embedded(r, _ENVELOPE_ELEMENTS) for _ in range(count))
        )

    reg(0x26, BatchEnvelope, enc_batch_envelope, dec_batch_envelope)

    # -- homomorphic-tally payloads (0x44..) and shard commits (0x60..) ------
    # Imported here, not at module load: repro.shard pulls this module in, so
    # a top-level import would be circular.  Registration runs per codec
    # instance, long after both modules are fully initialized.

    from repro.crypto.commitments import OptionCommitment
    from repro.crypto.elgamal import ElGamalCiphertext
    from repro.shard.records import GlobalCommitRecord, ShardCommitRecord

    def enc_ciphertext(c: MessageCodec, ct: ElGamalCiphertext, out: bytearray) -> None:
        _w_vbytes(out, ct.a.serialize())
        _w_vbytes(out, ct.b.serialize())

    def dec_ciphertext(c: MessageCodec, r: _Reader) -> ElGamalCiphertext:
        return ElGamalCiphertext(
            c.element_from_bytes(r.vbytes()), c.element_from_bytes(r.vbytes())
        )

    reg(0x44, ElGamalCiphertext, enc_ciphertext, dec_ciphertext)

    def enc_commitment(c: MessageCodec, m: OptionCommitment, out: bytearray) -> None:
        _w_u32(out, len(m.ciphertexts))
        for ciphertext in m.ciphertexts:
            c.encode_embedded(ciphertext, out)

    def dec_commitment(c: MessageCodec, r: _Reader) -> OptionCommitment:
        count = r.u32()
        return OptionCommitment(
            tuple(c.decode_embedded(r, ElGamalCiphertext) for _ in range(count))
        )

    reg(0x45, OptionCommitment, enc_commitment, dec_commitment)

    def enc_shard_commit(c: MessageCodec, m: ShardCommitRecord, out: bytearray) -> None:
        _w_vint(out, m.shard_id)
        _w_vint(out, m.serial_lo)
        _w_vint(out, m.serial_hi)
        _w_vint(out, m.ballots_registered)
        _w_vint(out, m.ballots_cast)
        c.encode_embedded(m.commitment, out)
        _w_vbytes(out, m.vote_set_digest)
        _w_vstr(out, m.sender)

    def dec_shard_commit(c: MessageCodec, r: _Reader) -> ShardCommitRecord:
        return ShardCommitRecord(
            r.vint(),
            r.vint(),
            r.vint(),
            r.vint(),
            r.vint(),
            c.decode_embedded(r, OptionCommitment),
            r.vbytes(),
            r.vstr(),
        )

    reg(0x60, ShardCommitRecord, enc_shard_commit, dec_shard_commit)

    def enc_global_commit(c: MessageCodec, m: GlobalCommitRecord, out: bytearray) -> None:
        _w_vstr(out, m.election_id)
        _w_vint(out, m.num_shards)
        _w_vint(out, m.total_cast)
        c.encode_embedded(m.combined, out)
        _w_u32(out, len(m.shard_digests))
        for digest in m.shard_digests:
            _w_vbytes(out, digest)

    def dec_global_commit(c: MessageCodec, r: _Reader) -> GlobalCommitRecord:
        election_id = r.vstr()
        num_shards = r.vint()
        total_cast = r.vint()
        combined = c.decode_embedded(r, OptionCommitment)
        count = r.u32()
        digests = tuple(r.vbytes() for _ in range(count))
        return GlobalCommitRecord(election_id, num_shards, total_cast, combined, digests)

    reg(0x61, GlobalCommitRecord, enc_global_commit, dec_global_commit)


_DEFAULT_CODEC: Optional[MessageCodec] = None


def default_codec() -> MessageCodec:
    """Process-wide codec with backend-inferred group-element decoding."""
    global _DEFAULT_CODEC
    if _DEFAULT_CODEC is None:
        _DEFAULT_CODEC = MessageCodec()
    return _DEFAULT_CODEC


def signing_bytes(domain: bytes, *parts: Any) -> bytes:
    """Canonical signing input over the default codec (see the method docs)."""
    return default_codec().signing_bytes(domain, *parts)
