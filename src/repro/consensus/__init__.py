"""Asynchronous Byzantine binary consensus.

The Vote Set Consensus protocol of D-DEMOS runs one binary consensus instance
per ballot ("is there a valid vote code for this ballot?").  The paper's
prototype used Bracha's binary consensus implemented directly on its
asynchronous communication stack, plus a batched variant for network
efficiency.  This package provides:

* :mod:`repro.consensus.bracha` -- a signature-free asynchronous binary
  Byzantine consensus for ``n >= 3f + 1`` (Bracha-style; see the module
  docstring for the exact protocol and the substitution note).
* :mod:`repro.consensus.batching` -- a message batching layer that packs many
  per-ballot instances into single network messages, mirroring the paper's
  "binary consensus in batches of arbitrary size".
* :mod:`repro.consensus.vote_set_consensus` -- the one engine that decides a
  node's ballot set with those two, under a vote collector or a bare cluster
  (:mod:`repro.consensus.cluster`).

Nothing is re-exported here: import each name from its defining module.
"""
