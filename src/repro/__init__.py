"""D-DEMOS reproduction: a distributed, end-to-end verifiable internet voting system.

The package is organised as follows:

* :mod:`repro.api` -- the public, scenario-driven API: declarative
  :class:`~repro.api.spec.ScenarioSpec` configurations with named presets,
  the event-driven :class:`~repro.api.engine.ElectionEngine` built from
  pluggable phase drivers (one run per election), and the
  :class:`~repro.api.service.MultiElectionService` entry point of the
  sharded scale pipeline.
* :mod:`repro.crypto` -- cryptographic substrates (group, ElGamal commitments,
  zero-knowledge proofs, secret sharing, signatures, symmetric layer).
* :mod:`repro.net` -- deterministic discrete-event network simulation, clocks
  and the Byzantine adversary of the paper's model.
* :mod:`repro.consensus` -- Bracha-style asynchronous binary consensus and the
  batched variant used for Vote Set Consensus.
* :mod:`repro.core` -- the D-DEMOS protocol itself: Election Authority setup,
  Vote Collectors, Bulletin Board, Trustees, Voters and Auditors.
* :mod:`repro.perf` -- measurement (phase timers, memory probes), the process
  pools, and the count models the tests hold to measured runs, which no
  election run imports.
* :mod:`repro.shard` -- the sharded scale pipeline.
* :mod:`repro.analysis` -- analytical results (liveness bounds of Table I,
  safety / verifiability / privacy bounds of Theorems 1-4).

Only :mod:`repro.api` re-exports names, lazily; every other package is
imported module by module, so a run loads only the code it executes.
"""

__version__ = "1.0.0"

__all__ = ["api", "crypto", "net", "consensus", "core", "perf", "analysis"]
