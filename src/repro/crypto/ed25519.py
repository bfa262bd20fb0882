"""Ed25519 twisted Edwards group backend (registry name ``"ed25519"``).

The curve the paper's MIRACL deployment would pick today: ``-x^2 + y^2 =
1 + d x^2 y^2`` over ``GF(2^255 - 19)``, restricted to the prime-order
subgroup of order ``L ~ 2^252`` generated by the RFC 8032 base point.  Two
properties matter for the reproduction:

* **32-byte elements.**  Points compress to 32 bytes (little-endian ``y``
  with the sign of ``x`` in the top bit) versus 33 bytes for the 256-bit
  Schnorr group and 257 bytes for a security-equivalent 2048-bit one -- every
  signature commitment, ElGamal component and Pedersen commitment on the wire
  shrinks accordingly (measured in ``bench_wire_bandwidth.py``).
* **No modular inversions in the hot path.**  Arithmetic uses extended
  homogeneous coordinates ``(X : Y : Z : T)`` with ``T = XY/Z`` and the
  complete a=-1 addition formulas (Hisil et al. 2008, "add-2008-hwcd-3"), so
  adds and doubles are a handful of field multiplications; the single
  inversion per point happens at serialization time and is memoized.

The generic accelerators (windowed fixed-base tables, scan/bucket multi-power,
``cached_power`` promotion) from :class:`~repro.crypto.group.Group` apply
unchanged since they are written against the abstract element interface.
"""

from __future__ import annotations

from typing import Optional

from repro.crypto.group import Group, GroupElement
from repro.crypto.utils import sha256

#: field prime 2^255 - 19
_P = 2**255 - 19
#: order of the prime-order subgroup (RFC 8032 ``L``)
_L = 2**252 + 27742317777372353535851937790883648493
#: curve constant d = -121665/121666 mod p
_D = (-121665 * pow(121666, -1, _P)) % _P
_2D = (2 * _D) % _P
#: RFC 8032 base point (y = 4/5, even x)
_BX = 15112221349535400772501151409588531511454012693041857206046113283949847762202
_BY = 46316835694926478169428394003475163141307993866256225615783033603165251855960
#: sqrt(-1) mod p, used by the p = 5 (mod 8) square-root algorithm
_SQRT_M1 = pow(2, (_P - 1) // 4, _P)


class EdPoint(GroupElement):
    """Curve point in extended homogeneous coordinates."""

    __slots__ = ("x", "y", "z", "t", "group", "_encoded")

    def __init__(self, x: int, y: int, z: int, t: int, group: "Ed25519Group"):
        self.x = x
        self.y = y
        self.z = z
        self.t = t
        self.group = group
        self._encoded: Optional[bytes] = None

    # __slots__ classes need explicit pickle support; elements cross process
    # boundaries in the parallel audit pipeline.
    def __getstate__(self) -> tuple:
        return (self.x, self.y, self.z, self.t, self.group)

    def __setstate__(self, state: tuple) -> None:
        self.x, self.y, self.z, self.t, self.group = state
        self._encoded = None

    def __mul__(self, other: GroupElement) -> "EdPoint":
        assert isinstance(other, EdPoint)
        p = _P
        a = (self.y - self.x) * (other.y - other.x) % p
        b = (self.y + self.x) * (other.y + other.x) % p
        c = self.t * _2D % p * other.t % p
        d = 2 * self.z * other.z % p
        e = b - a
        f = d - c
        g = d + c
        h = b + a
        return EdPoint(e * f % p, g * h % p, f * g % p, e * h % p, self.group)

    def _double(self) -> "EdPoint":
        p = _P
        a = self.x * self.x % p
        b = self.y * self.y % p
        c = 2 * self.z * self.z % p
        h = a + b
        e = h - (self.x + self.y) ** 2 % p
        g = a - b
        f = c + g
        return EdPoint(e * f % p, g * h % p, f * g % p, e * h % p, self.group)

    def __pow__(self, exponent: int) -> "EdPoint":
        e = exponent % _L
        result = self.group.identity()
        addend = self
        while e:
            if e & 1:
                result = result * addend
            addend = addend._double()
            e >>= 1
        return result

    def inverse(self) -> "EdPoint":
        p = _P
        return EdPoint((-self.x) % p, self.y, self.z, (-self.t) % p, self.group)

    def serialize(self) -> bytes:
        """RFC 8032 point compression: 32 bytes, no type prefix."""
        if self._encoded is None:
            z_inv = pow(self.z, -1, _P)
            x = self.x * z_inv % _P
            y = self.y * z_inv % _P
            self._encoded = (y | ((x & 1) << 255)).to_bytes(32, "little")
        return self._encoded

    def __eq__(self, other: object) -> bool:
        # Cross-multiplied comparison avoids normalizing to affine.
        if not isinstance(other, EdPoint):
            return False
        return (
            (self.x * other.z - other.x * self.z) % _P == 0
            and (self.y * other.z - other.y * self.z) % _P == 0
        )

    def __hash__(self) -> int:
        return hash(("ed25519", self.serialize()))


class Ed25519Group(Group):
    """Prime-order subgroup of Ed25519, written multiplicatively."""

    element_bytes = 32

    def __init__(self):
        self.p = _P
        self.order = _L
        self.d = _D
        self._g = EdPoint(_BX, _BY, 1, _BX * _BY % _P, self)
        self._identity = EdPoint(0, 1, 1, 0, self)
        self._h = self._derive_second_generator()

    def generator(self) -> EdPoint:
        return self._g

    def second_generator(self) -> EdPoint:
        return self._h

    def identity(self) -> EdPoint:
        return self._identity

    def _derive_second_generator(self) -> EdPoint:
        """Hash-to-curve: decompress hash outputs until one lands on-curve,
        then clear the cofactor so ``h`` lives in the prime-order subgroup."""
        counter = 0
        while True:
            digest = sha256(b"d-demos-ed25519-h", counter.to_bytes(4, "big"))
            try:
                candidate = self.deserialize(digest)
            except ValueError:
                counter += 1
                continue
            # Multiply by the cofactor 8 to land in the order-L subgroup.
            cleared = candidate._double()._double()._double()
            if cleared != self._identity:
                return cleared
            counter += 1

    def is_member(self, point: EdPoint) -> bool:
        """On-curve and in the prime-order subgroup (``point ** L == 1``)."""
        p = _P
        x, y, z, t = point.x, point.y, point.z, point.t
        if (x * y - z * t) % p != 0:
            return False
        lhs = (y * y - x * x) % p
        rhs = (z * z + self.d * t * t) % p
        if (lhs - rhs) % p != 0:
            return False
        # point * L without the mod-L exponent reduction of ``__pow__`` --
        # reducing would turn this check into ``point ** 0`` for every point.
        result = self._identity
        addend = point
        e = _L
        while e:
            if e & 1:
                result = result * addend
            addend = addend._double()
            e >>= 1
        return result == self._identity

    def deserialize(self, data: bytes) -> EdPoint:
        if len(data) != 32:
            raise ValueError("ed25519 elements are exactly 32 bytes")
        encoded = int.from_bytes(data, "little")
        sign = encoded >> 255
        y = encoded & ((1 << 255) - 1)
        if y >= _P:
            raise ValueError("ed25519 y coordinate out of range")
        # x^2 = (y^2 - 1) / (d y^2 + 1); sqrt for p = 5 (mod 8).
        y2 = y * y % _P
        u = (y2 - 1) % _P
        v = (self.d * y2 + 1) % _P
        x2 = u * pow(v, -1, _P) % _P
        x = pow(x2, (_P + 3) // 8, _P)
        if x * x % _P != x2:
            x = x * _SQRT_M1 % _P
            if x * x % _P != x2:
                raise ValueError("not a point on ed25519")
        if x == 0 and sign:
            raise ValueError("invalid ed25519 sign bit for x = 0")
        if x & 1 != sign:
            x = _P - x
        return EdPoint(x, y, 1, x * y % _P, self)
