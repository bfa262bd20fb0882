"""Sharded scale pipeline: ballots/sec and peak memory vs shard count.

The sharded pipeline (:mod:`repro.shard`) exists to take the election far
beyond what the full-crypto simulator can hold in memory: ballot-range shards
run one at a time (``sharding.workers == 1``) with their own collectors and
superblock Vote Set Consensus, so the working set follows the *shard* size
while the electorate grows arbitrarily.  This benchmark runs the same election
(same seed, same election id, hence bit-identical ballot derivations) at 1, 4
and 16 shards through ``MultiElectionService.run_sharded`` and records, per
shard count:

* ``ballots_per_s``   -- end-to-end pipeline throughput of an *untraced* run;
* ``peak_traced_bytes`` -- tracemalloc peak of Python allocations during a
  second, identical run, above the traced size at its start (the peak is reset
  per run, unlike ``ru_maxrss``) -- this is what the memory gate asserts.

Every configuration therefore runs twice.  tracemalloc slows this pipeline
about 5x (and forked pool workers inherit it), so a clock read inside the
traced run times the tracer; and ``ru_maxrss`` is one
process-lifetime mark, the same number in every row of a sweep, so it is not
reported here (``benchmarks/e2e`` reports it per fresh process).

Gates (CI runs this with ``SHARD_SMOKE=1`` at 100k ballots; the full run is
1M ballots):

1. every run's cross-shard commit verifies (``report.ok``);
2. the tally AND the combined homomorphic commitment are bit-identical
   across shard counts (sharding must not change the election's outcome);
3. sublinear memory: the 16-shard peak is at least 2x below the 1-shard
   peak at the same electorate (working set follows the shard, not n).

The worker sweep (``test_parallel_worker_sweep``) runs the *same* 16-shard
election through the one :class:`repro.shard.driver.ShardedElectionDriver` at
``sharding.workers`` 1 (slices inline, the sequential reference row), 2 and 4
(the same slices on a warm process pool) and gates:

1. every run's cross-shard commit verifies;
2. the global commit record is **bit-identical** (canonical wire frame) for
   every worker count against the inline run;
3. the inflight bound (``max_inflight_shards=2``) is honoured, and reached
   from 2 workers on;
4. the parent-process traced peak of a pooled run stays within 1.5x of the
   inline peak: streaming the merge keeps the parent's working set at
   O(inflight x record);
5. on a machine with >= 4 cores, 4 workers deliver at least 2x the inline
   ballots/s (skipped -- not silently passed -- on smaller machines, where
   the speedup is physically impossible).

Results land in ``benchmarks/results/sharded_pipeline.json`` and
``benchmarks/results/sharded_parallel.json``.
"""

from __future__ import annotations

import gc
import os
import tracemalloc

import pytest

from repro.api import MultiElectionService, ScenarioSpec, ShardingProfile
from repro.net.codec import MessageCodec
from repro.shard.driver import ShardedElectionDriver

SMOKE = os.environ.get("SHARD_SMOKE") == "1"
NUM_BALLOTS = 100_000 if SMOKE else 1_000_000
SHARD_COUNTS = (1, 4, 16)
MEMORY_GATE_RATIO = 2.0

PARALLEL_SHARDS = 16
WORKER_COUNTS = (1, 2, 4)
MAX_INFLIGHT = 2
SPEEDUP_GATE = 2.0
PARALLEL_MEMORY_GATE = 1.5
#: recorded in every worker-sweep row: what its speedups can mean depends on it.
CPU_COUNT = os.cpu_count() or 1

# Same election id and seed for every shard count: per-ballot digests depend
# only on (seed, election id, serial), so the runs are replays of one
# election under different partitions and must agree bit-for-bit.
BASE = ScenarioSpec.preset("national_scale", election_id="sharded-pipeline", seed=11)


def timed_then_traced(run):
    """``run()`` untraced for the clock, then again under tracemalloc for the peak.

    Returns ``(timed result, traced result, peak traced bytes)``: the peak is
    taken above the traced size at the start of the traced run.
    """
    gc.collect()
    timed = run()
    gc.collect()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start, _ = tracemalloc.get_traced_memory()
        traced = run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return timed, traced, max(0, peak - start)


def run_sweep():
    rows = []
    outcomes = {}
    for shards in SHARD_COUNTS:
        spec = BASE.derive(sharding=ShardingProfile(num_shards=shards))

        def run(spec=spec):
            return MultiElectionService().run_sharded(spec, num_ballots=NUM_BALLOTS).outcome

        outcome, traced, peak = timed_then_traced(run)
        outcomes[shards] = outcome
        rows.append(
            {
                "num_shards": shards,
                "num_ballots": NUM_BALLOTS,
                "ballots_cast": outcome.global_record.total_cast,
                "verified": outcome.report.ok and traced.report.ok,
                "ballots_per_s": round(outcome.ballots_per_s, 1),
                "duration_s": round(outcome.duration_s, 3),
                "peak_traced_bytes": peak,
                "tally": outcome.tally.as_dict(),
            }
        )
    return rows, outcomes


@pytest.mark.benchmark(group="shard")
def test_sharded_pipeline_throughput_and_memory(benchmark, results_sink):
    """Ballots/sec and peak memory at 1/4/16 shards, one shared electorate."""
    save, show = results_sink
    rows, outcomes = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    save("sharded_pipeline", rows)
    show(
        f"Sharded pipeline: throughput and peak memory vs shards "
        f"(n={NUM_BALLOTS:,}{', smoke' if SMOKE else ''})",
        [{k: v for k, v in row.items() if k != "tally"} for row in rows],
    )

    # Gate 1: every cross-shard commit re-verified cleanly.
    assert all(row["verified"] for row in rows)

    # Gate 2: sharding must not change the outcome -- identical tallies and
    # bit-identical combined homomorphic commitments across shard counts.
    reference = outcomes[SHARD_COUNTS[0]]
    for shards in SHARD_COUNTS[1:]:
        assert outcomes[shards].tally.as_dict() == reference.tally.as_dict()
        assert (
            outcomes[shards].global_record.combined
            == reference.global_record.combined
        )

    # Gate 3: sublinear memory -- at a fixed electorate the working set
    # follows the shard size, so 16 shards must peak well below 1 shard.
    by_shards = {row["num_shards"]: row["peak_traced_bytes"] for row in rows}
    assert by_shards[16] * MEMORY_GATE_RATIO <= by_shards[1], (
        f"16-shard peak {by_shards[16]:,}B is not {MEMORY_GATE_RATIO}x below "
        f"the 1-shard peak {by_shards[1]:,}B"
    )


def run_worker_sweep():
    """One 16-shard election at 1 (inline), 2 and 4 (pooled) workers."""
    codec = MessageCodec(group=BASE.crypto.build_group())
    rows = []
    frames = {}
    for workers in WORKER_COUNTS:
        spec = BASE.derive(
            sharding=ShardingProfile(
                num_shards=PARALLEL_SHARDS,
                workers=workers,
                max_inflight_shards=MAX_INFLIGHT,
            )
        )

        def run(spec=spec):
            driver = ShardedElectionDriver(spec, num_ballots=NUM_BALLOTS)
            return driver, driver.run()

        (driver, outcome), (_, traced), peak = timed_then_traced(run)
        frames[workers] = codec.encode(outcome.global_record)
        rows.append(
            {
                # one worker runs the slices inline: the sequential pipeline
                "mode": "sequential" if workers == 1 else "parallel",
                "workers": workers,
                "num_shards": PARALLEL_SHARDS,
                "num_ballots": NUM_BALLOTS,
                "verified": outcome.report.ok and traced.report.ok,
                "ballots_per_s": round(outcome.ballots_per_s, 1),
                "duration_s": round(outcome.duration_s, 3),
                "peak_inflight": driver.peak_inflight,
                "peak_traced_bytes": peak,
                "cpu_count": CPU_COUNT,
            }
        )
    return rows, frames


@pytest.mark.benchmark(group="shard")
def test_parallel_worker_sweep(benchmark, results_sink):
    """The one driver at 1 (inline) / 2 / 4 (warm pool) workers."""
    save, show = results_sink
    rows, frames = benchmark.pedantic(run_worker_sweep, rounds=1, iterations=1)
    save("sharded_parallel", rows)
    show(
        f"Parallel shard execution: worker sweep "
        f"(n={NUM_BALLOTS:,}, {PARALLEL_SHARDS} shards, "
        f"max_inflight={MAX_INFLIGHT}{', smoke' if SMOKE else ''})",
        rows,
    )

    # Gate 1: every run's cross-shard commit re-verified cleanly.
    assert all(row["verified"] for row in rows)

    # Gate 2: worker-count invariance, tested on the canonical wire frame --
    # the strongest equality the system defines (tally, commitments, digests
    # and signatures all live inside the frame).
    for workers in WORKER_COUNTS:
        assert frames[workers] == frames[1], (
            f"global commit record at {workers} workers diverged from the "
            f"inline run"
        )

    # Gate 3: the inflight bound was honored (and actually exercised beyond
    # one shard at a time once there are >= 2 workers).
    by_workers = {row["workers"]: row for row in rows}
    for workers in WORKER_COUNTS:
        assert by_workers[workers]["peak_inflight"] <= MAX_INFLIGHT
    assert by_workers[2]["peak_inflight"] == MAX_INFLIGHT

    # Gate 4: streaming merge keeps the parent's traced peak flat -- within
    # 1.5x of the inline run's peak even with shards in flight.
    # (Worker-side allocations live in other processes; the parent holds
    # only O(inflight) wire frames and openings.)
    sequential_peak = by_workers[1]["peak_traced_bytes"]
    for workers in WORKER_COUNTS[1:]:
        peak = by_workers[workers]["peak_traced_bytes"]
        assert peak <= PARALLEL_MEMORY_GATE * sequential_peak, (
            f"{workers}-worker parent peak {peak:,}B exceeds "
            f"{PARALLEL_MEMORY_GATE}x the sequential peak {sequential_peak:,}B"
        )

    # Gate 5: >= 2x ballots/s at 4 workers vs the inline run.  Only meaningful
    # where 4 workers can actually run in parallel; on smaller machines the
    # sweep still runs (invariance gates above), but the speedup assertion
    # would be physically impossible, so it is skipped loudly rather than
    # passed silently.
    if CPU_COUNT >= 4:
        speedup = by_workers[4]["ballots_per_s"] / by_workers[1]["ballots_per_s"]
        assert speedup >= SPEEDUP_GATE, (
            f"4 workers delivered only {speedup:.2f}x the sequential "
            f"throughput (gate: {SPEEDUP_GATE}x)"
        )
    else:
        pytest.skip(
            f"speedup gate needs >= 4 cores, have {CPU_COUNT} "
            f"(invariance gates already passed)"
        )
