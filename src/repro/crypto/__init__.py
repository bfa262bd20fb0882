"""Cryptographic substrates used by the D-DEMOS reproduction.

This package provides every cryptographic building block the paper relies on,
implemented from scratch on top of the Python standard library:

* :mod:`repro.crypto.group` -- prime-order group abstraction (abstract
  ``Group``/``GroupElement`` interface plus the pure-python Schnorr and
  secp256k1 backends).
* :mod:`repro.crypto.registry` -- the three named backends behind
  :func:`repro.crypto.registry.get_group`: the two above and the
  gmpy2-accelerated Schnorr group (:mod:`repro.crypto.gmpy2_backend`).
* :mod:`repro.crypto.elgamal` -- lifted (additively homomorphic) ElGamal.
* :mod:`repro.crypto.commitments` -- option-encoding commitments (vectors of
  lifted ElGamal ciphertexts) with component-wise homomorphic addition.
* :mod:`repro.crypto.zkp` -- Chaum-Pedersen Sigma-OR proofs that a ciphertext
  encrypts 0 or 1 and that an encoded option vector sums to one.
* :mod:`repro.crypto.pedersen_vss` -- Pedersen verifiable secret sharing.
* :mod:`repro.crypto.shamir` -- Shamir secret sharing with an honest dealer
  that commits to every share by digest (the paper's dealer signs them).
* :mod:`repro.crypto.signatures` -- Schnorr digital signatures.
* :mod:`repro.crypto.symmetric` -- salted hash commitments and the symmetric
  vote-code encryption layer (SHA-256 CTR substitute for AES-128-CBC$).
* :mod:`repro.crypto.batch_verify` -- small-exponent batch verification of
  signatures, proofs and openings.

Nothing is re-exported here: import each name from its defining module.
"""
