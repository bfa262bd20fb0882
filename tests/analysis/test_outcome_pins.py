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
    "engine_baseline": "f919b5da37e19a25afead0c350fc562648d48214a16757589e6e88715513ca99",
    "engine_wire": "e6adc1c995dd019223d6f850604629a9b387b8126c30300222bdb31edde89b74",
    "engine_batched": "e6adc1c995dd019223d6f850604629a9b387b8126c30300222bdb31edde89b74",
}

#: backend -> (sha256 of the agreed vote set's canonical encoding, outcome hash)
BACKEND_PINS = {
    "schnorr": (
        "4232e90b77b9e0d8b771402f83597c24a10cc3a3f1d6476807a5bea011d4ac36",
        "5e06b9adb7babc02d27479a704b2c8b4ef84b7cd148b3307803fe9838ec7ea5e",
    ),
    "secp256k1": (
        "2c528fcdca6c69724626322498a51e57ea198c1706b7cc0712709217c31692b2",
        "a13c7e5415905f49e61a38e21cc69a991b713bec8b2779ff5d007ea3cb114a95",
    ),
}
# Same group, same arithmetic, whether or not gmpy2 is installed.
BACKEND_PINS["schnorr-gmpy2"] = BACKEND_PINS["schnorr"]

#: backend -> outcome hash of ``national_scale`` at seed 5, captured from a
#: parent whose BB formed the tally product shard by shard (four ballot-range
#: shards) and whose superblocks never crossed a shard boundary.
NATIONAL_SCALE_HASHES = {
    "schnorr": "1376f7ad3747c2c74e131b4446d859d60ba275c768b54d23c4a045ff38077384",
    "secp256k1": "c38f5565f5421ddec05ef9f7f6be4b8c556742f9a799e925b7eef02b2e2dd3d5",
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
    digest = hashlib.sha256(default_codec().encode(VoteSetUpload(vote_set, "pin"))).hexdigest()
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
