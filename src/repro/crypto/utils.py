"""Small cryptographic helpers shared across the crypto package.

These helpers keep randomness, hashing and integer/byte conversions in one
place so the rest of the package never touches ``os.urandom`` or ``hashlib``
directly.  A deterministic RNG can be injected for reproducible tests.
"""

from __future__ import annotations

import hashlib
import hmac
import os
import random
from typing import Optional


class RandomSource:
    """Source of randomness with an optional deterministic seed.

    The production path uses ``os.urandom``; tests pass a seed to obtain a
    reproducible stream backed by :class:`random.Random`.
    """

    def __init__(self, seed: Optional[int] = None):
        self._seeded = seed is not None
        self._rng = random.Random(seed) if self._seeded else None

    def randbytes(self, n: int) -> bytes:
        """Return ``n`` uniformly random bytes."""
        if self._seeded:
            return bytes(self._rng.getrandbits(8) for _ in range(n))
        return os.urandom(n)

    def randbits(self, k: int) -> int:
        """Return a uniformly random integer with at most ``k`` bits."""
        if k <= 0:
            return 0
        if self._seeded:
            return self._rng.getrandbits(k)
        return int.from_bytes(os.urandom((k + 7) // 8), "big") >> ((8 - k % 8) % 8)

    def randint_below(self, upper: int) -> int:
        """Return a uniformly random integer in ``[0, upper)``."""
        if upper <= 0:
            raise ValueError("upper bound must be positive")
        k = upper.bit_length()
        while True:
            candidate = self.randbits(k)
            if candidate < upper:
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


def hash_to_scalar(modulus: int, *parts: bytes) -> int:
    """Hash ``parts`` into a scalar in ``[0, modulus)``.

    Uses a counter-extended SHA-256 so the output is statistically close to
    uniform even when ``modulus`` is larger than 256 bits.
    """
    if modulus <= 1:
        raise ValueError("modulus must exceed 1")
    material = b""
    counter = 0
    target_len = (modulus.bit_length() + 7) // 8 + 16
    while len(material) < target_len:
        material += sha256(counter.to_bytes(4, "big"), *parts)
        counter += 1
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
