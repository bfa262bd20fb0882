"""Canonical wire format for every D-DEMOS protocol payload.

The paper's prototype ships protocol messages over Netty/TLS as real byte
streams and reports byte-level bandwidth figures; this module is the
reproduction's equivalent of that wire layer.  It defines one deterministic,
versioned binary encoding shared by three consumers:

* the :mod:`repro.net.transport` backends, which frame every simulated or
  TCP-delivered message with it (giving honest byte counts and a real
  socket-capable representation);
* the signing sites (vote collectors endorsing vote codes, trustees signing
  submissions), which sign canonical encodings via
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

A payload's body is its declared dataclass fields, in declaration order, each
written by the one mapping below; :meth:`MessageCodec.register` derives a
type's encoder and decoder from ``dataclasses.fields`` and the field
annotations, so a layout is written down once, in the dataclass::

    declared field type            wire form
    -----------------------------  ------------------------------------------
    int                            vint: sign byte + u32 length + magnitude
    bytes / str                    u32 length + bytes (str as UTF-8)
    bool                           u8, 0 or 1
    OpinionBits                    as bytes; every byte must be 0 or 1
    a GroupElement subclass        bytes of ``serialize()``
    a dataclass, or a Union of     embedded ``tag + body len + body``; the
      dataclasses                    decoded tag must be of that class/union
    Optional[T]                    u8 marker (0 absent, 1 present), then T
    Tuple[T, ...]                  u32 count, then each T
    Tuple[A, B]                    A, then B

``register`` refuses a field with any other type (``float``, a bare ``tuple``,
``dict``, ``Any``) and names it.

Repeated sub-objects are decoded once.  A broadcast frame is parsed once, by
the first of its copies the transport delivers (:mod:`repro.net.transport`),
but the same uniqueness certificate rides on every VOTE_P and ANNOUNCE of its
ballot, in frames of its own, so each :class:`MessageCodec` keeps a bounded
table from ``(tag, body bytes)`` to the object those bytes strictly decoded to
(see :meth:`MessageCodec.decode_embedded`).  Magic, version, CRC and
trailing-byte checks run on every frame decoded; only the re-parsing of a
body this codec has already parsed, byte for byte, is skipped.
"""

from __future__ import annotations

import dataclasses
import typing
import zlib
from collections import OrderedDict
from functools import partial
from typing import Any, Callable, Dict, Optional, Tuple, Type, Union

from repro.consensus.batching import (
    BatchEnvelope,
    OpinionBits,
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
from repro.crypto.group import Group, GroupElement
from repro.crypto.pedersen_vss import PedersenShare
from repro.crypto.shamir import Share
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

    # Every reader checks its bounds inline: they run ~40 times per decoded
    # message, and a shared bounds-checking call was a quarter of decode time.

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

    def flag(self) -> bool:
        value = self.u8()
        if value > 1:
            raise WireFormatError(f"invalid bool byte {value}")
        return value == 1

    def exhausted(self) -> bool:
        return self.pos == self.end


# ---------------------------------------------------------------------------
# Field wire forms: (write(out, value), read(reader)) per declared type
# ---------------------------------------------------------------------------


def _w_bool(out: bytearray, value: bool) -> None:
    out += b"\x01" if value else b"\x00"


def _w_element(out: bytearray, value: GroupElement) -> None:
    _w_vbytes(out, value.serialize())


def _r_bits(reader: _Reader) -> bytes:
    bits = reader.vbytes()
    if bits.translate(None, b"\x00\x01"):
        raise WireFormatError("opinion vector holds a byte other than 0 or 1")
    return bits


_SCALARS: Dict[Any, Tuple[Callable, Callable]] = {
    int: (_w_vint, _Reader.vint),
    bytes: (_w_vbytes, _Reader.vbytes),
    str: (_w_vstr, _Reader.vstr),
    bool: (_w_bool, _Reader.flag),
    OpinionBits: (_w_vbytes, _r_bits),
}


def _optional(write: Callable, read: Callable) -> Tuple[Callable, Callable]:
    def write_optional(out: bytearray, value: Any) -> None:
        if value is None:
            out += b"\x00"
        else:
            out += b"\x01"
            write(out, value)

    def read_optional(reader: _Reader) -> Any:
        marker = reader.u8()
        if marker == 1:
            return read(reader)
        if marker:
            raise WireFormatError(f"invalid optional marker {marker}")
        return None

    return write_optional, read_optional


def _sequence(write: Callable, read: Callable) -> Tuple[Callable, Callable]:
    def write_sequence(out: bytearray, values: tuple) -> None:
        _w_u32(out, len(values))
        for value in values:
            write(out, value)

    def read_sequence(reader: _Reader) -> tuple:
        return tuple([read(reader) for _ in range(reader.u32())])

    return write_sequence, read_sequence


def _fixed(writers: Tuple[Callable, ...], readers: Tuple[Callable, ...]) -> Tuple:
    def write_fixed(out: bytearray, values: tuple) -> None:
        for write, value in zip(writers, values, strict=True):
            write(out, value)

    def read_fixed(reader: _Reader) -> tuple:
        return tuple([read(reader) for read in readers])

    return write_fixed, read_fixed


def _remember(table: OrderedDict, key: Any, value: Any) -> None:
    """Insert into an intern table, evicting the oldest entry at the bound.

    An ``OrderedDict`` pops its oldest entry in O(1); ``next(iter(dict))``
    walks every deleted slot at the front of a plain dict first.
    """
    if len(table) >= INTERN_TABLE_MAX:
        table.popitem(last=False)
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
        #: class -> (tag, encode(out, obj)) and tag -> (class, decode(reader))
        self._encoders: Dict[Type, Tuple[int, Callable]] = {}
        self._decoders: Dict[int, Tuple[Type, Callable]] = {}
        self._decoded: OrderedDict[Tuple[int, bytes], Any] = OrderedDict()
        #: values keep the object alive, so its ``id`` cannot be reused while
        #: the entry exists
        self._bodies: OrderedDict[int, Tuple[Any, bytes]] = OrderedDict()
        for tag, cls in _default_types():
            self.register(tag, cls)

    # -- registry ---------------------------------------------------------------

    def register(self, tag: int, cls: Type) -> None:
        """Register a payload type under a wire tag (extensibility hook).

        ``cls`` must be a frozen dataclass: decoded objects are shared between
        every receiver of the same bytes, and an encoded body is reused for
        as long as the object lives.  Its body is its fields in declaration
        order, each in the wire form of its annotation (module docstring); a
        name an annotation cannot resolve in its own module is looked up among
        the types registered before.
        """
        if not 0 <= tag <= 0xFFFF:
            raise ValueError(f"tag {tag} out of u16 range")
        if tag in self._decoders:
            raise ValueError(f"tag {tag} already registered for {self._decoders[tag][0].__name__}")
        if cls in self._encoders:
            raise ValueError(f"{cls.__name__} already registered")
        if not (dataclasses.is_dataclass(cls) and cls.__dataclass_params__.frozen):
            raise ValueError(f"{cls.__name__} is not a frozen dataclass")
        encode, decode = self._body_codec(cls)
        self._encoders[cls] = (tag, encode)
        self._decoders[tag] = (cls, decode)

    def _body_codec(self, cls: Type) -> Tuple[Callable, Callable]:
        """``encode(out, obj)`` and ``decode(reader)`` of ``cls``'s body."""
        names = [f.name for f in dataclasses.fields(cls)]
        hints = typing.get_type_hints(cls, localns={c.__name__: c for c in self._encoders})
        forms = [self._wire_form(hints[name], f"{cls.__name__}.{name}") for name in names]
        # getattr per field beats one attrgetter plus zip (~190 ns a body)
        writers = tuple((write, name) for (write, _), name in zip(forms, names, strict=True))
        readers = tuple(read for _, read in forms)

        def encode(out: bytearray, obj: Any) -> None:
            for write, name in writers:
                write(out, getattr(obj, name))

        def decode(reader: _Reader) -> Any:
            return cls(*[read(reader) for read in readers])

        return encode, decode

    def _wire_form(self, hint: Any, where: str) -> Tuple[Callable, Callable]:
        """``(write(out, value), read(reader))`` of one declared field type."""
        scalar = _SCALARS.get(hint)
        if scalar is not None:
            return scalar
        origin, args = typing.get_origin(hint), typing.get_args(hint)
        if origin is Union and type(None) in args:
            present = tuple(arg for arg in args if arg is not type(None))
            return _optional(*self._wire_form(Union[present], where))
        if origin is Union and all(map(dataclasses.is_dataclass, args)):
            return self._embedded(args)
        if origin is tuple and len(args) == 2 and args[1] is Ellipsis:
            return _sequence(*self._wire_form(args[0], where))
        if origin is tuple and args and Ellipsis not in args:
            forms = [self._wire_form(arg, where) for arg in args]
            return _fixed(tuple(w for w, _ in forms), tuple(r for _, r in forms))
        if isinstance(hint, type) and issubclass(hint, GroupElement):
            return _w_element, self._r_element
        if isinstance(hint, type) and dataclasses.is_dataclass(hint):
            return self._embedded(hint)
        raise ValueError(f"{where}: {hint!r} has no wire form")

    def _embedded(self, expected: Any) -> Tuple[Callable, Callable]:
        return self.encode_embedded, partial(self.decode_embedded, expected=expected)

    def _r_element(self, reader: _Reader) -> GroupElement:
        return self.element_from_bytes(reader.vbytes())

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
        self.encode_embedded(out, payload)
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

    def encode_embedded(self, out: bytearray, obj: Any) -> None:
        """Append ``tag + length + body`` for one registered object."""
        entry = self._encoders.get(type(obj))
        if entry is None:
            raise WireFormatError(
                f"{type(obj).__name__} is not a registered wire payload"
            )
        tag, encode = entry
        _w_u16(out, tag)
        known = self._bodies.get(id(obj))
        if known is not None and known[0] is obj:
            _w_vbytes(out, known[1])
            return
        # Reserve the length field and back-patch it once the body is written
        # straight into ``out``.
        out += b"\x00\x00\x00\x00"
        start = len(out)
        encode(out, obj)
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
        cls, decode = entry
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
        obj = decode(sub)
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
                self.encode_embedded(out, part)
        return bytes(out)


def _group_for_serialized(data: bytes) -> Group:
    """Pick the shared registry group that can deserialize ``data``.

    Schnorr elements are 33 bytes (``b"S"`` + value) and secp256k1 points 2
    or 66 (``b"E"`` + tag), so the prefix byte names the backend.
    """
    from repro.crypto.registry import get_group

    if data[:1] == b"S":
        return get_group("schnorr")
    if data[:1] == b"E":
        return get_group("secp256k1")
    raise WireFormatError(f"unknown group-element prefix {data[:1]!r}")


# ---------------------------------------------------------------------------
# Default registry
# ---------------------------------------------------------------------------


def _default_types() -> Tuple[Tuple[int, Type], ...]:
    """The ``(tag, class)`` pairs every codec registers, in this order."""
    # Imported here, not at module load: repro.shard pulls this module in, so
    # a top-level import would be circular.  Registration runs per codec
    # instance, long after both modules are fully initialized.
    from repro.crypto.commitments import CommitmentOpening, OptionCommitment
    from repro.crypto.elgamal import ElGamalCiphertext
    from repro.shard.records import GlobalCommitRecord, ShardCommitRecord
    from repro.shard.shard_runner import ShardSliceResult

    return (
        # crypto building blocks (0x40..).  0x42 (SignedShare, a share with
        # the EA's signature) is retired: shares travel bare and are checked
        # against the EA's digests.  Do not reuse the tag.
        (0x40, SchnorrSignature),
        (0x41, Share),
        (0x43, PedersenShare),
        # voter <-> VC (0x01..)
        (0x01, VoteRequest),
        (0x02, VoteReceipt),
        (0x03, VoteRejected),
        # VC <-> VC voting protocol (0x04..)
        (0x04, Endorse),
        (0x05, Endorsement),
        (0x06, UniquenessCertificate),
        (0x07, VotePending),
        # Vote Set Consensus (0x08..).  0x0B (VscEnvelope, one consensus
        # message per frame) is retired: every consensus-phase element travels
        # inside a VscBatch.  Do not reuse the tag.
        (0x08, Announce),
        (0x09, RecoverRequest),
        (0x0A, RecoverResponse),
        (0x0C, VscBatch),
        # VC -> BB uploads (0x0D..)
        (0x0D, VoteSetUpload),
        (0x0E, MskShareUpload),
        # durable VC state for crash/recovery (0x0F..)
        (0x0F, BallotStateEntry),
        (0x10, VcStateSnapshot),
        # binary consensus (0x20..); BatchEnvelope names Announce, registered above
        (0x20, BVal),
        (0x21, Aux),
        (0x22, Finish),
        (0x23, SuperblockSend),
        (0x24, SuperblockEcho),
        (0x25, SuperblockReady),
        (0x26, BatchEnvelope),
        # homomorphic-tally payloads (0x44..) and shard commits (0x60..)
        (0x44, ElGamalCiphertext),
        (0x45, OptionCommitment),
        (0x46, CommitmentOpening),
        (0x60, ShardCommitRecord),
        (0x61, GlobalCommitRecord),
        # a finished shard slice, worker process -> driver
        (0x62, ShardSliceResult),
    )


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
