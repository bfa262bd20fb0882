"""Paper-style wire bandwidth: per-phase byte totals vs. electorate size.

The paper reports byte-level bandwidth and message-size measurements from its
Netty/TLS deployment.  This benchmark reproduces that axis on the canonical
wire format (`repro.net.codec`): full-crypto elections run with the wire
transport enabled (`TransportProfile.wire()`), so `Network.bytes_sent` counts
the exact frames every protocol message occupies, and the network's
per-payload-type counters (`payload_bytes_sent`, `payload_copies_sent`) are
grouped into message families:

* electorate sweep with Nv = 4, per-ballot Vote Set Consensus (batch 1)
  against superblock consensus (batch 8) at every size;
* both modes must produce the identical tally (the byte savings may not
  change the outcome);
* per-phase (voting / consensus) and per-message-family byte totals and the
  number of consensus frames, plus the analytic predictions of
  `repro.perf.costmodel.BandwidthCosts` next to the measured numbers.

Both modes send their consensus-phase traffic as `VscBatch` frames, one per
handler step, so neither mode's *frame* count follows the electorate; what
superblocks still save is elements (one instance per block) and so bytes.

Results land in ``benchmarks/results/wire_bandwidth.json``; see
``benchmarks/README.md`` for the field glossary.  Set ``BENCH_SMOKE=1`` for
the CI regression gate: the sweep stops at 8 voters and the gates below
(frames bounded by the slowest ballot's rounds, the byte model matches the
measurement, superblock byte reduction, bounded framing overhead) apply to
the sizes actually run.
"""

from __future__ import annotations

import os

import pytest

from repro.api import (
    AuditConfig,
    ConsensusConfig,
    CryptoProfile,
    ElectionEngine,
    ScenarioSpec,
    TransportProfile,
)
from repro.crypto.commitments import OptionEncodingScheme
from repro.crypto.elgamal import LiftedElGamal
from repro.crypto.registry import get_group
from repro.crypto.signatures import SignatureScheme
from repro.crypto.utils import RandomSource
from repro.net.codec import FRAME_OVERHEAD, MessageCodec
from repro.perf.costmodel import BandwidthCosts

SMOKE = os.environ.get("BENCH_SMOKE") == "1"
NUM_VC = 4
VOTER_COUNTS = (4, 8) if SMOKE else (4, 8, 16)
SUPERBLOCK_BATCH = 8
OPTIONS = ("option-1", "option-2")

#: message families for the per-type byte breakdown
VOTING_TYPES = ("VoteRequest", "VoteReceipt", "VoteRejected", "Endorse", "Endorsement",
                "VotePending")
CONSENSUS_TYPES = ("VscBatch", "RecoverRequest",
                   "RecoverResponse")
UPLOAD_TYPES = ("VoteSetUpload", "MskShareUpload")


def family_bytes(network) -> dict:
    """Bytes sent per message family, and the consensus frames among them."""
    by_family = {"voting": 0, "consensus": 0, "upload": 0, "other": 0}
    for name, size in network.payload_bytes_sent.items():
        if name in VOTING_TYPES:
            by_family["voting"] += size
        elif name in CONSENSUS_TYPES:
            by_family["consensus"] += size
        elif name in UPLOAD_TYPES:
            by_family["upload"] += size
        else:
            by_family["other"] += size
    by_family["consensus_frames"] = sum(
        network.payload_copies_sent.get(name, 0) for name in CONSENSUS_TYPES
    )
    return by_family


def run_wire_election(num_voters: int, batch_size: int):
    """One full-crypto election over the wire transport; returns measurements."""
    spec = ScenarioSpec(
        options=OPTIONS,
        num_voters=num_voters,
        election_end=500.0,
        election_id=f"wire-{num_voters}-{batch_size}",
        consensus=ConsensusConfig(batch_size=batch_size),
        audit=AuditConfig(enabled=False),
        transport=TransportProfile.wire(),
    )
    choices = [OPTIONS[i % len(OPTIONS)] for i in range(num_voters)]
    engine = ElectionEngine(spec)
    ctx = engine.begin(choices)
    phase_bytes = {}
    previous = 0
    try:
        for driver in engine.drivers:
            if not driver.should_run(ctx):
                continue
            engine.run_phase(driver, ctx)
            if ctx.network is not None:
                phase_bytes[driver.name] = ctx.network.bytes_sent - previous
                previous = ctx.network.bytes_sent
    finally:
        engine.close()
    outcome = engine.outcome()
    return outcome, phase_bytes, family_bytes(outcome.network)


def run_sweep():
    model = BandwidthCosts.measured(num_vc=NUM_VC)
    rows = []
    for num_voters in VOTER_COUNTS:
        baseline, base_phases, base_family = run_wire_election(num_voters, batch_size=1)
        batched, batch_phases, batch_family = run_wire_election(
            num_voters, batch_size=SUPERBLOCK_BATCH
        )
        assert baseline.tally is not None and batched.tally is not None
        assert baseline.tally.as_dict() == batched.tally.as_dict()
        network = batched.network
        mean_frame = network.bytes_sent / max(network.messages_sent, 1)
        rows.append({
            "num_voters": num_voters,
            "batch_size": SUPERBLOCK_BATCH,
            "baseline_bytes_total": baseline.network.bytes_sent,
            "batched_bytes_total": network.bytes_sent,
            "voting_bytes": batch_family["voting"],
            "baseline_consensus_bytes": base_family["consensus"],
            "batched_consensus_bytes": batch_family["consensus"],
            "consensus_byte_reduction": round(
                base_family["consensus"] / max(batch_family["consensus"], 1), 2
            ),
            "baseline_consensus_frames": base_family["consensus_frames"],
            "baseline_slowest_round": max(
                instance.round
                for node in baseline.vote_collectors
                for instance in node.vsc.instances.values()
            ),
            "batched_consensus_frames": batch_family["consensus_frames"],
            "model_baseline_consensus_bytes": round(
                model.consensus_bytes(NUM_VC, num_voters, 1)
            ),
            "model_batched_consensus_bytes": round(
                model.consensus_bytes(NUM_VC, num_voters, SUPERBLOCK_BATCH)
            ),
            "upload_bytes": batch_family["upload"],
            "messages_sent": network.messages_sent,
            "mean_frame_bytes": round(mean_frame, 1),
            "frame_overhead_ratio": round(
                FRAME_OVERHEAD * network.messages_sent / max(network.bytes_sent, 1), 4
            ),
            "phase_bytes": batch_phases,
        })
    return rows


@pytest.mark.benchmark(group="wire-bandwidth")
def test_wire_bandwidth_scaling(benchmark, results_sink):
    """Measured wire bytes vs. electorate, with superblock byte savings."""
    save, show = results_sink
    rows = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    save("wire_bandwidth", rows)
    show("Wire-format bandwidth vs. electorate (Nv = 4)", [
        {key: value for key, value in row.items() if key != "phase_bytes"}
        for row in rows
    ])
    largest = max(rows, key=lambda row: row["num_voters"])
    # Gate 1: per-ballot consensus frames follow the protocol's steps, not the
    # ballots: a node sends its announces, two frames per round until its
    # slowest ballot has decided (every ballot flips its own coin, so that
    # round moves with the serials drawn), and the last FINISH.
    for row in rows:
        bound = NUM_VC * NUM_VC * (2 * row["baseline_slowest_round"] + 2)
        assert 0 < row["baseline_consensus_frames"] <= bound, row
    # Gate 2: the byte model is a model of *this* traffic: within 35 % of the
    # measured consensus bytes in both modes at the largest electorate.
    for mode in ("baseline", "batched"):
        ratio = largest[f"model_{mode}_consensus_bytes"] / largest[f"{mode}_consensus_bytes"]
        assert 0.65 <= ratio <= 1.35, (mode, ratio)
    # Gate 3: superblock batching still shrinks measured consensus *bytes* at
    # the largest electorate (one instance per block instead of one per
    # ballot).  Not at every size: a single 4-ballot block costs more than 4
    # instances, and the announces, which both modes send, are most of it.
    assert largest["consensus_byte_reduction"] >= 1.2
    # Gate 4: the canonical framing (magic + version + tag + length + CRC)
    # stays a bounded fraction of the traffic -- a wire-format change that
    # bloats every message, or a return to one frame per consensus message,
    # trips this before it distorts the scaling curves (0.02-0.05 measured).
    assert all(row["frame_overhead_ratio"] <= 0.10 for row in rows)


# ---------------------------------------------------------------------------
# Crypto backend wire-size comparison
# ---------------------------------------------------------------------------

from repro.crypto.group import RFC3526_MODP_2048  # noqa: E402

#: (row label, registry name, constructor params) -- schnorr-2048 is the
#: deployment-grade parameterization of the multiplicative group (the 256-bit
#: default is a test-speed compromise, not a deployable modulus).
WIRE_BACKENDS = [
    ("schnorr", "schnorr", {}),
    ("schnorr-2048", "schnorr", {"p": RFC3526_MODP_2048, "g": 4}),
]
WIRE_OPTIONS = 3


def measure_backend_wire_sizes(label: str, name: str, params: dict) -> dict:
    """Wire bytes of one signature and one option commitment on a backend."""
    group = get_group(name, **params)
    codec = MessageCodec(group=group)
    rng = RandomSource(23)
    signer = SignatureScheme(group)
    keys = signer.keygen(rng)
    signature = signer.sign(keys, b"wire-size-probe")
    out = bytearray()
    codec.encode_embedded(out, signature)
    signature_bytes = len(out)
    elgamal = LiftedElGamal(group)
    ek = elgamal.keygen(rng)
    scheme = OptionEncodingScheme(WIRE_OPTIONS, ek.public, group)
    commitment, _ = scheme.commit_option(ek, 1, rng=rng)
    commitment_bytes = len(commitment.serialize())
    return {
        "backend": label,
        "element_bytes": group.element_bytes,
        "signature_wire_bytes": signature_bytes,
        "commitment_wire_bytes": commitment_bytes,
        "public_key_bytes": len(keys.public.serialize()),
    }


def test_backend_wire_sizes(results_sink):
    """Per-signature/commitment wire bytes across crypto backends, gated."""
    save, show = results_sink
    rows = [measure_backend_wire_sizes(*entry) for entry in WIRE_BACKENDS]
    by_label = {row["backend"]: row for row in rows}
    s256, s2048 = by_label["schnorr"], by_label["schnorr-2048"]
    for row in rows:
        row["commitment_reduction_vs_2048"] = round(
            s2048["commitment_wire_bytes"] / row["commitment_wire_bytes"], 1
        )
    # One small full-crypto election over the wire transport per backend: the
    # codec-level savings must show up in end-to-end measured traffic too.
    for row in rows:
        if row["backend"] == "schnorr-2048":
            row["election_bytes_total"] = None  # pure-python 2048 is minutes-slow
            continue
        spec = ScenarioSpec(
            options=OPTIONS,
            num_voters=4,
            election_end=500.0,
            election_id=f"wire-backend-{row['backend']}",
            consensus=ConsensusConfig(batch_size=SUPERBLOCK_BATCH),
            audit=AuditConfig(enabled=False),
            transport=TransportProfile.wire(),
            crypto=CryptoProfile(backend=row["backend"]),
        )
        outcome = ElectionEngine(spec).run([OPTIONS[i % 2] for i in range(4)])
        assert outcome.tally is not None
        row["election_bytes_total"] = outcome.network.bytes_sent
    save("wire_backend_sizes", rows)
    show("Per-object wire bytes by crypto backend", rows)
    assert s256["signature_wire_bytes"] < s2048["signature_wire_bytes"]
