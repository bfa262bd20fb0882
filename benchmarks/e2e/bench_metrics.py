"""Names, units, directions and bounds of every metric the benchmark reports.

``BENCHMARK.json`` is generated from these tables
(``python3 benchmarks/e2e/bench_metrics.py > BENCHMARK.json``) and the smoke
test checks that the committed file still matches them.
"""

from __future__ import annotations

import json
from typing import Dict, NamedTuple, Tuple

#: name -> why the workload exists.
WORKLOADS: Dict[str, str] = {
    "engine_baseline": (
        "published per-ballot protocol, 120 voters, in-memory transport: "
        "crypto (EA setup, pow, fixed-base, signing_bytes) does most of the work, the codec none"
    ),
    "engine_wire": (
        "100 voters, 7 collectors, every message encoded and decoded: "
        "codec and quadratic consensus traffic do most of the work, crypto the small share"
    ),
    "engine_batched": (
        "engine_wire with superblock consensus (16) and batched endorsements (32): "
        "fewer messages, later receipts; shows throughput-for-latency trades as a pair of rows"
    ),
    "sharded_scale": (
        "200k derived ballots through 16 shards: SHA-256 derivations, ConsensusCluster, "
        "StreamingTally, CrossShardCommit; no EA/VC/BB/trustee/codec-message code"
    ),
}
ALL_WORKLOADS = tuple(WORKLOADS)
ENGINE_WORKLOADS = ALL_WORKLOADS[:3]

#: what the driver is told to use for --seconds
RUN_SECONDS = 30


class EndToEnd(NamedTuple):
    name: str
    unit: str
    better: str
    #: relative worsening of the median that counts as a regression
    #: (``failed_share``: absolute; it must stay 0).
    bound: float
    workloads: Tuple[str, ...]


#: The end-to-end metrics a row of ``run.py`` carries, with the bounds the full
#: set's medians over 7 clean passes are held to (``--check-repeat``).
#: ``sharded_scale`` has no voting, close or audit phase and no receipts, so it
#: has no value for them.
END_TO_END: Tuple[EndToEnd, ...] = (
    EndToEnd("setup_s", "s", "lower", 0.10, ALL_WORKLOADS),
    EndToEnd("ballots_per_s", "ballots/s", "higher", 0.10, ALL_WORKLOADS),
    EndToEnd("votes_per_s", "votes/s", "higher", 0.10, ENGINE_WORKLOADS),
    EndToEnd("close_to_result_s", "s", "lower", 0.10, ENGINE_WORKLOADS),
    EndToEnd("audit_s", "s", "lower", 0.10, ENGINE_WORKLOADS),
    EndToEnd("peak_rss_mb", "MiB", "lower", 0.05, ALL_WORKLOADS),
    EndToEnd("receipt_latency_ms_p50", "sim_ms", "lower", 0.01, ENGINE_WORKLOADS),
    EndToEnd("receipt_latency_ms_p90", "sim_ms", "lower", 0.01, ENGINE_WORKLOADS),
    EndToEnd("failed_share", "share", "lower", 0.0, ALL_WORKLOADS),
)

#: Wall-time differences below this never count as a regression (timer noise).
MIN_TIME_DIFFERENCE_S = 0.05

#: What the driver contract can hold: the metrics every workload has and that are
#: never 0.  One 30 s run takes the median of 2-6 clean passes on a seed of its
#: own, so its bounds are wider than the full set's (README, "How it repeats").
CONTRACT_BOUNDS = {"setup_s": 0.25, "ballots_per_s": 0.25, "peak_rss_mb": 0.10}
CONTRACT_END_TO_END: Tuple[EndToEnd, ...] = tuple(
    metric._replace(bound=CONTRACT_BOUNDS[metric.name])
    for metric in END_TO_END
    if metric.name in CONTRACT_BOUNDS
)


class PerLayer(NamedTuple):
    name: str
    unit: str
    better: str
    #: "phase" = wall timer around engine.run_phase, "auditor" = AuditReport.timings,
    #: "exact" = deterministic public counter, "measured" = public counter that moves
    #: by ~1e-4 between passes, "shard" = sum of shard_stats durations (all from
    #: untraced passes); "traced" = the traced pass; "derived" = computed by run.py.
    source: str


PER_LAYER: Tuple[PerLayer, ...] = tuple(PerLayer(*row) for row in (
    ("api.engine.setup_wall_s", "s", "lower", "phase"),
    ("api.engine.voting_wall_s", "s", "lower", "phase"),
    ("api.engine.consensus_wall_s", "s", "lower", "phase"),
    ("api.engine.tally_wall_s", "s", "lower", "phase"),
    ("api.engine.audit_wall_s", "s", "lower", "phase"),
    ("core.ea.ballots_built", "count", "higher", "exact"),
    ("core.ea.build_s", "s", "lower", "traced"),
    ("crypto.group.power_calls", "count", "lower", "traced"),
    ("crypto.group.power_s", "s", "lower", "traced"),
    ("crypto.group.fixed_base_calls", "count", "lower", "traced"),
    ("crypto.group.fixed_base_s", "s", "lower", "traced"),
    ("crypto.group.multi_power_calls", "count", "lower", "traced"),
    ("crypto.group.multi_power_terms", "count", "lower", "traced"),
    ("crypto.group.multi_power_s", "s", "lower", "traced"),
    ("crypto.group.untabled_pow_share", "share", "lower", "traced"),
    ("crypto.signatures.sign_calls", "count", "lower", "traced"),
    ("crypto.signatures.sign_s", "s", "lower", "traced"),
    ("crypto.signatures.verify_calls", "count", "lower", "traced"),
    ("crypto.signatures.verify_s", "s", "lower", "traced"),
    ("crypto.batch_verify.items", "count", "higher", "traced"),
    ("crypto.batch_verify.equations", "count", "lower", "traced"),
    ("crypto.batch_verify.bisections", "count", "lower", "traced"),
    ("crypto.zkp.prove_s", "s", "lower", "traced"),
    ("crypto.zkp.verify_s", "s", "lower", "traced"),
    ("crypto.pedersen_vss.deal_calls", "count", "lower", "traced"),
    ("crypto.pedersen_vss.deal_s", "s", "lower", "traced"),
    ("crypto.shamir.reconstruct_calls", "count", "lower", "traced"),
    ("crypto.shamir.reconstruct_s", "s", "lower", "traced"),
    ("net.codec.encode_calls", "count", "lower", "traced"),
    ("net.codec.encode_s", "s", "lower", "traced"),
    ("net.codec.decode_calls", "count", "lower", "traced"),
    ("net.codec.decode_s", "s", "lower", "traced"),
    ("net.codec.signing_bytes_calls", "count", "lower", "traced"),
    ("net.codec.signing_bytes_s", "s", "lower", "traced"),
    ("net.codec.signing_bytes_repeat_share", "share", "lower", "traced"),
    ("net.simulator.msgs_per_ballot", "count", "lower", "exact"),
    ("net.simulator.wire_bytes_per_ballot", "bytes", "lower", "measured"),
    ("net.simulator.msgs_dropped", "count", "lower", "exact"),
    ("net.simulator.events", "count", "lower", "traced"),
    ("net.simulator.step_self_s", "s", "lower", "traced"),
    ("core.vote_collector.on_message_calls", "count", "lower", "traced"),
    ("core.vote_collector.on_message_self_s", "s", "lower", "traced"),
    ("core.vote_collector.vote_request_calls", "count", "lower", "traced"),
    ("core.vote_collector.endorse_calls", "count", "lower", "traced"),
    ("core.vote_collector.vote_pending_calls", "count", "lower", "traced"),
    ("core.vote_collector.consensus_calls", "count", "lower", "traced"),
    ("core.admission.requests", "count", "lower", "exact"),
    ("core.admission.admitted", "count", "higher", "exact"),
    ("core.admission.shed", "count", "lower", "exact"),
    ("core.admission.endorse_batches", "count", "lower", "exact"),
    ("core.admission.endorsements_batch_verified", "count", "higher", "exact"),
    ("core.admission.ucert_cache_hits", "count", "higher", "exact"),
    ("consensus.per_ballot_instances", "count", "lower", "exact"),
    ("consensus.superblocks_fast", "count", "higher", "exact"),
    ("consensus.superblocks_fallback", "count", "lower", "exact"),
    ("consensus.envelopes_sent", "count", "lower", "exact"),
    ("consensus.recover_requests", "count", "lower", "exact"),
    ("consensus.handle_s", "s", "lower", "traced"),
    ("core.bulletin_board.receive_vote_set_s", "s", "lower", "traced"),
    ("core.bulletin_board.receive_trustee_submission_s", "s", "lower", "traced"),
    ("core.bulletin_board.majority_read_calls", "count", "lower", "traced"),
    ("core.bulletin_board.majority_read_s", "s", "lower", "traced"),
    ("core.trustee.produce_submission_s", "s", "lower", "traced"),
    ("core.trustee.digest_calls", "count", "lower", "traced"),
    ("core.trustee.digest_s", "s", "lower", "traced"),
    ("core.auditor.read_bb_s", "s", "lower", "auditor"),
    ("core.auditor.structural_s", "s", "lower", "auditor"),
    ("core.auditor.openings_s", "s", "lower", "auditor"),
    ("core.auditor.proofs_s", "s", "lower", "auditor"),
    ("core.auditor.tally_s", "s", "lower", "auditor"),
    ("core.auditor.delegations_s", "s", "lower", "auditor"),
    ("shard.shard_runner.run_s", "s", "lower", "shard"),
    ("shard.shard_runner.msgs_per_ballot", "count", "lower", "exact"),
    ("shard.shard_runner.superblocks_fast", "count", "higher", "exact"),
    ("shard.shard_runner.superblocks_fallback", "count", "lower", "exact"),
    ("shard.shard_runner.ea_table_s", "s", "lower", "traced"),
    ("shard.shard_runner.sha256_calls_per_ballot", "count", "lower", "traced"),
    ("shard.shard_runner.consensus_s", "s", "lower", "traced"),
    ("shard.shard_runner.tally_add_vote_s", "s", "lower", "traced"),
    ("shard.merge.prepare_s", "s", "lower", "traced"),
    ("shard.merge.commit_verify_s", "s", "lower", "traced"),
    # The end-to-end metrics only the engine workloads have, kept visible to the
    # driver as per-layer rows (0 on sharded_scale), plus the cost of tracing.
    ("api.engine.votes_per_s", "votes/s", "higher", "derived"),
    ("api.engine.close_to_result_s", "s", "lower", "derived"),
    ("core.voter.receipt_latency_ms_p50", "sim_ms", "lower", "derived"),
    ("core.voter.receipt_latency_ms_p90", "sim_ms", "lower", "derived"),
    ("trace.overhead", "ratio", "lower", "derived"),
))


def benchmark_json() -> Dict[str, object]:
    """The driver contract, built from the tables above."""
    return {
        "command": ["python3", "benchmarks/e2e/run.py"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in CONTRACT_END_TO_END
        ],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER],
    }


if __name__ == "__main__":
    print(json.dumps(benchmark_json(), indent=2))
