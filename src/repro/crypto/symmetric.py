"""Symmetric primitives: salted hash commitments and vote-code encryption.

Two pieces of the paper live here:

* **Vote-code hash commitments for VC nodes.**  Each VC node receives
  ``H = SHA256(vote_code, salt)`` and ``salt`` for every ballot row so it can
  validate a submitted vote code locally, without ever storing the code in
  clear — exactly as in the paper.

* **Vote-code encryption for BB nodes.**  The paper encrypts each vote code
  with AES-128-CBC under a random master key ``msk`` and a fresh IV
  ("AES-128-CBC$"), and gives each BB node ``H_msk = SHA256(msk, salt_msk)``
  so the node can check the key it later reconstructs from VC shares.  No AES
  implementation ships with the offline environment, so this module implements
  an equivalent symmetric layer: a SHA-256 based CTR stream cipher with a
  random 128-bit IV.  The interface, the key length (128 bits), the
  key-commitment check and the decrypt-after-reconstruction code path are all
  identical to the paper's; only the block cipher inside the keystream differs
  (``docs/ARCHITECTURE.md``, "Deviations from the paper").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.crypto.utils import RandomSource, constant_time_equals, default_random, sha256

#: Bit lengths prescribed by the paper.
VOTE_CODE_BITS = 160
RECEIPT_BITS = 64
SERIAL_BITS = 64
SALT_BITS = 64
MSK_BITS = 128


@dataclass(frozen=True, slots=True)
class SaltedHashCommitment:
    """A commitment ``H = SHA256(value, salt)`` with its salt."""

    digest: bytes
    salt: bytes

    def matches(self, value: bytes) -> bool:
        """Check whether ``value`` opens this commitment."""
        return constant_time_equals(self.digest, sha256(value, self.salt))


def commit_vote_code(
    vote_code: bytes, rng: Optional[RandomSource] = None, salt: Optional[bytes] = None
) -> SaltedHashCommitment:
    """Create the per-row hash commitment ``H_{l,j}`` a VC node stores."""
    rng = rng or default_random()
    if salt is None:
        salt = rng.randbytes(SALT_BITS // 8)
    return SaltedHashCommitment(sha256(vote_code, salt), salt)


@dataclass(frozen=True, slots=True)
class KeyCommitment:
    """``(H_msk, salt_msk)`` handed to every BB node at setup."""

    digest: bytes
    salt: bytes

    def matches(self, key: bytes) -> bool:
        """Check a reconstructed key against the commitment."""
        return constant_time_equals(self.digest, sha256(key, self.salt))


@dataclass(frozen=True, slots=True)
class EncryptedVoteCode:
    """An encrypted vote code ``[vote-code]_msk`` (IV plus ciphertext)."""

    iv: bytes
    ciphertext: bytes

    def serialize(self) -> bytes:
        return self.iv + self.ciphertext


class VoteCodeCipher:
    """Randomised symmetric encryption of vote codes under ``msk``.

    Keystream block ``i`` is ``SHA256(key, iv, i)``; encryption XORs the
    plaintext with the keystream.  With a fresh random IV per encryption this
    is IND-CPA in the random-oracle model, matching the hiding role AES-128-
    CBC$ plays in the paper.
    """

    def __init__(self, key: bytes):
        if len(key) != MSK_BITS // 8:
            raise ValueError("msk must be 128 bits")
        self.key = key

    @staticmethod
    def generate_key(rng: Optional[RandomSource] = None) -> bytes:
        """Generate a fresh 128-bit master key."""
        rng = rng or default_random()
        return rng.randbytes(MSK_BITS // 8)

    def _keystream(self, iv: bytes, length: int) -> bytes:
        stream = bytearray()
        counter = 0
        while len(stream) < length:
            stream.extend(sha256(self.key, iv, counter.to_bytes(8, "big")))
            counter += 1
        return bytes(stream[:length])

    def encrypt(
        self, plaintext: bytes, rng: Optional[RandomSource] = None, iv: Optional[bytes] = None
    ) -> EncryptedVoteCode:
        """Encrypt ``plaintext`` with a fresh random IV."""
        rng = rng or default_random()
        if iv is None:
            iv = rng.randbytes(16)
        keystream = self._keystream(iv, len(plaintext))
        ciphertext = bytes(p ^ k for p, k in zip(plaintext, keystream, strict=True))
        return EncryptedVoteCode(iv, ciphertext)

    def decrypt(self, encrypted: EncryptedVoteCode) -> bytes:
        """Decrypt an encrypted vote code."""
        keystream = self._keystream(encrypted.iv, len(encrypted.ciphertext))
        return bytes(c ^ k for c, k in zip(encrypted.ciphertext, keystream, strict=True))

    def key_commitment(self, rng: Optional[RandomSource] = None) -> KeyCommitment:
        """Produce ``(H_msk, salt_msk)`` for the BB nodes."""
        rng = rng or default_random()
        salt = rng.randbytes(SALT_BITS // 8)
        return KeyCommitment(sha256(self.key, salt), salt)


def random_vote_code(rng: Optional[RandomSource] = None) -> bytes:
    """Generate a 160-bit random vote code."""
    rng = rng or default_random()
    return rng.randbytes(VOTE_CODE_BITS // 8)


def random_receipt(rng: Optional[RandomSource] = None) -> bytes:
    """Generate a 64-bit random receipt."""
    rng = rng or default_random()
    return rng.randbytes(RECEIPT_BITS // 8)


def random_serial(rng: Optional[RandomSource] = None) -> int:
    """Generate a 64-bit random serial number."""
    rng = rng or default_random()
    return rng.randbits(SERIAL_BITS)
