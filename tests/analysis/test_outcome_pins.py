"""Outcomes pinned across the one-queue Vote Set Consensus change.

The change moved every consensus-phase message into shared frames and
dropped signature checks that cannot change state; it may not move a single
protocol-observable value.  Pinned here, from runs of the parent commit:

* the outcome hashes of the three engine workloads of the end-to-end
  benchmark at seed 1 (receipts, every node's vote set, BB agreement, tally,
  audit verdict);
* on each crypto backend, the vote set a small wire election agrees on, in
  per-ballot and in superblock mode;
* on each crypto backend, the outcome hash of the ``national_scale`` preset
  at seed 5, in per-ballot and in superblock mode.

Every value was translated when the payloads lost their sender fields
(36163cc): an outcome hash is the new ``outcome_hash`` (vote sets hashed
from their ``(serial, code)`` parts) of the parent's run, whose observables
were byte-identical to this code's, and a vote-set digest is that of the
parent's ``VoteSetUpload`` frame with its sender dropped.
"""

import hashlib
import sys
from pathlib import Path

import pytest

from repro.analysis.determinism import default_choices, outcome_hash, safety_violations
from repro.api import (
    AuditConfig,
    ConsensusConfig,
    CryptoProfile,
    ElectionEngine,
    ScenarioSpec,
    ShardingProfile,
    TransportProfile,
)
from repro.core.messages import VoteSetUpload
from repro.net.codec import default_codec

E2E = Path(__file__).resolve().parents[2] / "benchmarks" / "e2e"

WORKLOAD_HASHES = {
    "engine_baseline": "b6dff1532127d242ed92469799ada86a95b1e545fccfb5ad99052c3be2d9e421",
    "engine_wire": "79dddcd3a89fa90a3d78e8f1d6cb9ed382b848e7f79a5243718fb4ea0c8c6c36",
    "engine_batched": "79dddcd3a89fa90a3d78e8f1d6cb9ed382b848e7f79a5243718fb4ea0c8c6c36",
}

#: backend -> (sha256 of the agreed vote set's canonical encoding, outcome hash)
BACKEND_PINS = {
    "schnorr": (
        "f0767c6d21d6d8365133bf10af6f5ef17a0bc43c4f97b3af020c87fe8845f794",
        "fad69fd3dc2b72465a19347aa34740bc5a8cdace1574c087709712f5dc53a6fe",
    ),
    "secp256k1": (
        "b07f6b6151ebb86cd02a9007c3804d5fce0d424d862adef5aaec268b3a536e4b",
        "9acff1db7f8603d3145b81017dd69327cafdaf6707eeb3d1de053002cc2a7c72",
    ),
}
# Same group, same arithmetic, whether or not gmpy2 is installed.
BACKEND_PINS["schnorr-gmpy2"] = BACKEND_PINS["schnorr"]

#: backend -> outcome hash of ``national_scale`` at seed 5, captured from a
#: parent whose BB formed the tally product shard by shard (four ballot-range
#: shards) and whose superblocks never crossed a shard boundary.
NATIONAL_SCALE_HASHES = {
    "schnorr": "00444f958796dfcbfe16d545e6fb1dcc0d159d85c4f570c33f55beba394a58fd",
    "secp256k1": "8906b342b0de3c911b45fcb99b0a4c6ef865c9d876efc8f69169a8a60455ea86",
}
NATIONAL_SCALE_HASHES["schnorr-gmpy2"] = NATIONAL_SCALE_HASHES["schnorr"]

CHOICES = ["option-1", "option-2", "option-1", "option-2", "option-2", "option-1"]


def benchmark_spec(workload):
    """The spec the end-to-end benchmark runs for ``workload`` at seed 1."""
    sys.path.insert(0, str(E2E))  # its files import each other by plain name
    try:
        import bench_pass
    finally:
        sys.path.remove(str(E2E))
    return bench_pass.build_spec(workload, 1)


@pytest.mark.parametrize("workload", sorted(WORKLOAD_HASHES))
def test_engine_workload_outcome_hash_is_the_parents(workload):
    spec = benchmark_spec(workload)
    outcome = ElectionEngine(spec).run(default_choices(spec))
    assert safety_violations(outcome, spec) == []
    assert outcome.receipts_obtained == spec.num_voters
    assert outcome_hash(outcome) == WORKLOAD_HASHES[workload]


@pytest.mark.parametrize("batch_size", [1, 4], ids=["per-ballot", "superblock"])
@pytest.mark.parametrize("backend", sorted(BACKEND_PINS))
def test_final_vote_sets_are_the_parents_on_every_backend(backend, batch_size):
    spec = ScenarioSpec(
        options=("option-1", "option-2"),
        num_voters=len(CHOICES),
        election_end=400.0,
        seed=5,
        crypto=CryptoProfile(backend=backend),
        consensus=ConsensusConfig(batch_size=batch_size),
        audit=AuditConfig(enabled=False),
        transport=TransportProfile.wire(),
    )
    outcome = ElectionEngine(spec).run(CHOICES)
    vote_sets = {node.final_vote_set for node in outcome.vote_collectors}
    assert len(vote_sets) == 1
    (vote_set,) = vote_sets
    assert len(vote_set) == len(CHOICES)
    digest = hashlib.sha256(default_codec().encode(VoteSetUpload(vote_set))).hexdigest()
    assert (digest, outcome_hash(outcome)) == BACKEND_PINS[backend]


@pytest.mark.parametrize("batch_size", [1, 4], ids=["per-ballot", "superblock"])
@pytest.mark.parametrize("backend", sorted(NATIONAL_SCALE_HASHES))
def test_national_scale_outcome_hash_is_the_parents(backend, batch_size):
    spec = ScenarioSpec.preset("national_scale", seed=5).derive(
        crypto=CryptoProfile(backend=backend),
        consensus=ConsensusConfig(batch_size=batch_size),
    )
    outcome = ElectionEngine(spec).run(default_choices(spec))
    assert outcome.receipts_obtained == spec.num_voters
    assert outcome.audit_report.passed
    assert outcome_hash(outcome) == NATIONAL_SCALE_HASHES[backend]


@pytest.mark.parametrize("backend", sorted(NATIONAL_SCALE_HASHES))
def test_national_scale_unsharded_has_the_sharded_parents_hash(backend):
    """The sharding profile steers only the scale pipeline: the engine run of
    ``national_scale`` at one shard is the parent's four-shard outcome."""
    spec = ScenarioSpec.preset("national_scale", seed=5).derive(
        crypto=CryptoProfile(backend=backend),
        sharding=ShardingProfile(num_shards=1),
    )
    outcome = ElectionEngine(spec).run(default_choices(spec))
    assert outcome_hash(outcome) == NATIONAL_SCALE_HASHES[backend]
