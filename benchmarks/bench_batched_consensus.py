"""Batched vs. per-ballot Vote Set Consensus: messages handled and wall-clock.

The paper: "We introduce a version of Binary Consensus that operates in
batches of arbitrary size; this way, we achieve greater network efficiency."
Two mechanisms implement that sentence.  *Envelopes* put everything a
collector sends in one handler step into one frame, in every mode, so on the
vote collectors neither mode's frame count follows the ballots any more
(``bench_wire_bandwidth.py`` measures frames and bytes).  *Superblocks*
(`repro.consensus.batching.SuperblockConsensus`) decide a block of ballots
with one binary instance; what that still buys is fewer protocol messages for
the instances to handle, and the time handling them takes.  This benchmark
measures that, against the per-ballot baseline, on the crypto-free consensus
cluster harness (`repro.consensus.cluster.ConsensusCluster`, which delivers
every protocol message on its own and counts each):

* ``n_ballots`` in {100, 1,000, 10,000} with Nv = 4 nodes;
* batch sizes 64 / 256 / 1024 against batch size 1;
* both modes must decide the identical vote set;
* at the largest electorate the batched run must handle at least 5x fewer
  consensus messages and take at most half the time, and the
  `ConsensusCosts` message model must predict the measured reduction within 2x.

Results land in ``benchmarks/results/batched_consensus.json``; see
``benchmarks/README.md`` for the field glossary.  Set ``BENCH_SMOKE=1`` for
the CI regression gate: the electorate sweep stops at 1,000 ballots and the
gates apply to the largest size actually run.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.consensus.cluster import ConsensusCluster
from repro.perf.costmodel import ConsensusCosts

SMOKE = os.environ.get("BENCH_SMOKE") == "1"
NUM_NODES = 4
BALLOT_COUNTS = (100, 1_000) if SMOKE else (100, 1_000, 10_000)
BATCH_SIZES = (64, 256) if SMOKE else (64, 256, 1_024)


def make_opinions(num_ballots):
    """Deterministic mixed opinions: roughly two thirds of ballots voted."""
    return {serial: (0 if serial % 3 == 0 else 1) for serial in range(num_ballots)}


def run_mode(num_ballots, batch_size):
    opinions = make_opinions(num_ballots)
    cluster = ConsensusCluster(num_nodes=NUM_NODES, batch_size=batch_size)
    started = time.perf_counter()
    result = cluster.run(opinions)
    elapsed = time.perf_counter() - started
    assert result.agreed
    return result, elapsed


def run_sweep():
    model = ConsensusCosts()
    rows = []
    for num_ballots in BALLOT_COUNTS:
        baseline, baseline_seconds = run_mode(num_ballots, batch_size=1)
        for batch_size in BATCH_SIZES:
            batched, batched_seconds = run_mode(num_ballots, batch_size)
            assert batched.decisions[0] == baseline.decisions[0]
            rows.append({
                "num_ballots": num_ballots,
                "batch_size": batch_size,
                "baseline_messages": baseline.messages_sent,
                "batched_messages": batched.messages_sent,
                "message_reduction": round(
                    baseline.messages_sent / batched.messages_sent, 2
                ),
                "model_reduction": round(
                    model.batching_speedup(NUM_NODES, num_ballots, batch_size), 2
                ),
                "baseline_seconds": round(baseline_seconds, 3),
                "batched_seconds": round(batched_seconds, 3),
                "wallclock_speedup": round(baseline_seconds / batched_seconds, 2),
                "superblocks_fast": batched.superblocks_fast,
                "superblocks_fallback": batched.superblocks_fallback,
            })
    return rows


@pytest.mark.benchmark(group="batched-consensus")
def test_batched_consensus_message_reduction(benchmark, results_sink):
    """Superblock VSC vs. per-ballot baseline across electorate sizes."""
    save, show = results_sink
    rows = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    save("batched_consensus", rows)
    show("Batched vs per-ballot Vote Set Consensus (Nv = 4)", rows)
    # At the largest electorate of the sweep (10k ballots; 1k in smoke mode):
    # >= 5x fewer consensus messages to handle, the handling at least twice as
    # fast (17-100x measured), and the message model within 2x of the
    # measurement (its per-instance count, 6 per node pair, is the measured one).
    largest = max(BALLOT_COUNTS)
    at_largest = [row for row in rows if row["num_ballots"] == largest]
    assert at_largest
    for row in at_largest:
        assert row["message_reduction"] >= 5.0, row
        assert row["wallclock_speedup"] >= 2.0, row
        assert 0.5 <= row["model_reduction"] / row["message_reduction"] <= 2.0, row
    # Larger batches never send more messages.
    for num_ballots in BALLOT_COUNTS:
        series = [r["batched_messages"] for r in rows if r["num_ballots"] == num_ballots]
        assert series == sorted(series, reverse=True)
