"""Small cryptographic helpers shared across the crypto package.

These helpers keep randomness, hashing and integer/byte conversions in one
place so the rest of the package never touches ``os.urandom`` or ``hashlib``
directly.  A deterministic RNG can be injected for reproducible tests.
"""

from __future__ import annotations

import hashlib
import hmac
import io
import os
import random
from functools import partial
from typing import Optional


#: bytes of one ``os.urandom`` read behind the unseeded draws
_OS_BUFFER_BYTES = 4096
_os_buffer = io.BytesIO()


def _os_bytes(n: int) -> bytes:
    """``n`` bytes of OS entropy, served from one buffered ``os.urandom`` read.

    ``BytesIO.read`` hands out each buffered byte once, also to concurrent
    threads.  A draw the buffer cannot fill reads the OS itself and refills
    the buffer, and a forked child starts with an empty buffer
    (``os.register_at_fork`` below), so parent and child never share bytes.
    """
    data = _os_buffer.read(n)
    if len(data) == n:
        return data
    _set_os_buffer(os.urandom(_OS_BUFFER_BYTES))
    return os.urandom(n)


def _os_bits(k: int) -> int:
    """A uniformly random integer of at most ``k >= 1`` bits of OS entropy."""
    n = (k + 7) // 8
    return int.from_bytes(_os_bytes(n), "big") >> (8 * n - k)


def _set_os_buffer(data: bytes) -> None:
    global _os_buffer
    _os_buffer = io.BytesIO(data)


os.register_at_fork(after_in_child=partial(_set_os_buffer, b""))


class RandomSource:
    """Source of randomness with an optional deterministic seed.

    The production path draws OS entropy (``os.urandom``, buffered by
    :func:`_os_bytes`); tests pass a seed to obtain a reproducible stream
    backed by :class:`random.Random`.
    """

    def __init__(self, seed: Optional[int] = None):
        self._seeded = seed is not None
        self._rng = random.Random(seed) if self._seeded else None

    def randbytes(self, n: int) -> bytes:
        """Return ``n`` uniformly random bytes.

        Seeded, byte ``i`` is the top byte of the ``i``-th 32-bit word of the
        stream (what ``getrandbits(8)`` returns); one ``getrandbits(32 * n)``
        holds those words little-endian, so the bytes are every fourth one.
        """
        if self._seeded:
            return self._rng.getrandbits(32 * n).to_bytes(4 * n, "little")[3::4]
        return _os_bytes(n)

    def randbits(self, k: int) -> int:
        """Return a uniformly random integer with at most ``k`` bits."""
        if k <= 0:
            return 0
        if self._seeded:
            return self._rng.getrandbits(k)
        return _os_bits(k)

    def randint_below(self, upper: int) -> int:
        """Return a uniformly random integer in ``[0, upper)``."""
        if upper <= 0:
            raise ValueError("upper bound must be positive")
        k = upper.bit_length()
        draw = self._rng.getrandbits if self._seeded else _os_bits
        candidate = draw(k)
        while candidate >= upper:
            candidate = draw(k)
        return candidate

    def randint_range(self, lower: int, upper: int) -> int:
        """Return a uniformly random integer in ``[lower, upper)``."""
        if upper <= lower:
            raise ValueError("empty range")
        return lower + self.randint_below(upper - lower)

    def shuffle(self, items: list) -> list:
        """Return a new list with the items shuffled (Fisher-Yates)."""
        out = list(items)
        for i in range(len(out) - 1, 0, -1):
            j = self.randint_below(i + 1)
            out[i], out[j] = out[j], out[i]
        return out

    def permutation(self, n: int) -> list:
        """Return a random permutation of ``range(n)`` as a list."""
        return self.shuffle(list(range(n)))


_DEFAULT_RANDOM = RandomSource()


def default_random() -> RandomSource:
    """Return the process-wide default randomness source."""
    return _DEFAULT_RANDOM


def sha256(*parts: bytes) -> bytes:
    """Hash the concatenation of ``parts`` with SHA-256."""
    h = hashlib.sha256()
    for part in parts:
        h.update(len(part).to_bytes(8, "big"))
        h.update(part)
    return h.digest()


#: the length prefix :func:`sha256` gives a 4-byte block counter
_COUNTER_LENGTH = (4).to_bytes(8, "big")


def hash_to_scalar(modulus: int, *parts: bytes) -> int:
    """Hash ``parts`` into a scalar in ``[0, modulus)``.

    Uses a counter-extended SHA-256 so the output is statistically close to
    uniform even when ``modulus`` is larger than 256 bits.
    """
    if modulus <= 1:
        raise ValueError("modulus must exceed 1")
    # Block ``i`` is ``sha256(i.to_bytes(4, "big"), *parts)``: the parts'
    # length-prefixed encoding is joined once and hashed after each counter.
    body = b"".join([len(part).to_bytes(8, "big") + part for part in parts])
    blocks = -(-((modulus.bit_length() + 7) // 8 + 16) // 32)
    material = b"".join([
        hashlib.sha256(_COUNTER_LENGTH + counter.to_bytes(4, "big") + body).digest()
        for counter in range(blocks)
    ])
    return int.from_bytes(material, "big") % modulus


def int_to_bytes(value: int, length: Optional[int] = None) -> bytes:
    """Encode a non-negative integer as big-endian bytes."""
    if value < 0:
        raise ValueError("cannot encode negative integers")
    if length is None:
        length = max(1, (value.bit_length() + 7) // 8)
    return value.to_bytes(length, "big")


def bytes_to_int(data: bytes) -> int:
    """Decode big-endian bytes into an integer."""
    return int.from_bytes(data, "big")


def constant_time_equals(a: bytes, b: bytes) -> bool:
    """Compare two byte strings without leaking the mismatch position."""
    return hmac.compare_digest(a, b)
