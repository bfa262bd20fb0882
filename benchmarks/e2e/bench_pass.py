"""One benchmark pass: build one workload, run it once, check it, print one row.

``run.py`` spawns this file in a fresh interpreter for every pass, so no pass
inherits another election's heap.  The row (one JSON object on the last line
of stdout) carries wall timers, the counts and simulated-time values that must
repeat exactly for a seed, the correctness verdict and, with ``--trace``, the
traced per-layer numbers.

Only the spec/engine/service/determinism entry points named in the README are
called, so the planned driver unification cannot break the benchmark.
"""

from __future__ import annotations

import time

CHILD_STARTED = time.perf_counter()  # before the repro imports: they are part of set-up

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from typing import Any, Dict, List, Optional, Sequence  # noqa: E402

from bench_metrics import WORKLOADS  # noqa: E402  (this file's directory is on sys.path)

SMOKE_VOTERS = 8
SMOKE_BALLOTS = 2_000
SHARDED_BALLOTS = 200_000


def build_spec(workload: str, seed: int, smoke: bool = False):
    """The scenario a workload runs (LAN profile, honest nodes, schnorr backend)."""
    from repro.api.spec import (
        AdmissionProfile,
        ConsensusConfig,
        ScenarioSpec,
        ShardingProfile,
        TransportProfile,
    )

    if workload == "sharded_scale":
        spec = ScenarioSpec.preset(
            "national_scale", election_id="bench-sharded", seed=seed
        ).derive(sharding=ShardingProfile(num_shards=16))
    else:
        spec = ScenarioSpec.preset(
            "paper_baseline", num_voters=SMOKE_VOTERS if smoke else 120, seed=seed
        )
        if workload in ("engine_wire", "engine_batched"):
            spec = spec.derive(
                num_voters=SMOKE_VOTERS if smoke else 100,
                num_vc=7,
                options=("yes", "no"),
                transport=TransportProfile.wire(),
                stagger=0.005,
            )
        if workload == "engine_batched":
            spec = spec.derive(
                consensus=ConsensusConfig(batch_size=16),
                admission=AdmissionProfile.batched(32),
            )
        elif workload not in ("engine_baseline", "engine_wire"):
            raise ValueError(f"unknown workload {workload!r}; known: {sorted(WORKLOADS)}")
    if spec.audit.workers != 1 or spec.sharding.workers != 1:
        raise ValueError("benchmark passes are single-threaded: workers must be 1")
    return spec


def percentile(sorted_values: Sequence[float], share: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    rank = max(1, math.ceil(share * len(sorted_values)))
    return sorted_values[rank - 1]


def run_engine_pass(spec, started: float, corrupt_expected: bool) -> Dict[str, Any]:
    from repro.analysis.determinism import default_choices, outcome_hash, safety_violations
    from repro.api.engine import ElectionEngine

    engine = ElectionEngine(spec)
    ctx = engine.begin(default_choices(spec))
    phases: Dict[str, float] = {}
    setup_done = started
    try:
        for driver in engine.drivers:
            if not driver.should_run(ctx):
                continue
            phase_started = time.perf_counter()
            engine.run_phase(driver, ctx)
            phase_ended = time.perf_counter()
            phases[driver.name] = phase_ended - phase_started
            if driver.name == "setup":
                setup_done = phase_ended
    finally:
        engine.close()
    result_at = time.perf_counter()
    outcome = engine.outcome()

    voters = outcome.voters
    receipted = [v for v in voters if v.receipt is not None and v.receipt_valid]
    problems: List[str] = list(safety_violations(outcome, spec))
    expected = list(outcome.expected_tally().counts)
    if corrupt_expected:
        expected[0] += 1
    counted = 0
    if outcome.tally is None:
        problems.append("no tally was published")
    else:
        counted = sum(outcome.tally.counts)
        if list(outcome.tally.counts) != expected:
            problems.append(f"tally {list(outcome.tally.counts)} != expected {expected}")
        if counted != len(receipted):
            problems.append(f"{counted} ballots tallied but {len(receipted)} valid receipts")
    if outcome.audit_report is None or not outcome.audit_report.passed:
        problems.append("audit did not pass")
    failed = len(voters) if problems else len(voters) - len(receipted)

    latencies = sorted(
        (v.completed_at - v.submitted_at) * 1000.0
        for v in voters
        if v.completed_at is not None and v.submitted_at is not None
    )
    bandwidth = outcome.network.bandwidth_summary()
    admission = outcome.admission_stats
    consensus = outcome.consensus_stats
    ballots = max(1, len(voters))
    exact: Dict[str, Any] = {
        "outcome_hash": outcome_hash(outcome),
        "receipts": len(receipted),
        "ballots_counted": counted,
        "receipt_latency_ms_p50": percentile(latencies, 0.5) if latencies else 0.0,
        "receipt_latency_ms_p90": percentile(latencies, 0.9) if latencies else 0.0,
        "core.ea.ballots_built": len(outcome.setup.ballots),
        "net.simulator.msgs_per_ballot": bandwidth["messages_sent"] / ballots,
        "net.simulator.msgs_dropped": bandwidth["messages_dropped"],
    }
    # Signature nonces come from the OS RNG and ints are encoded at minimal
    # length, so wire bytes move by ~1e-4 between passes of one seed.
    measured = {"net.simulator.wire_bytes_per_ballot": bandwidth["bytes_sent"] / ballots}
    for key in ("requests", "admitted", "shed", "endorse_batches",
                "endorsements_batch_verified", "ucert_cache_hits"):
        exact[f"core.admission.{key}"] = admission.get(key, 0)
    for key in ("per_ballot_instances", "superblocks_fast", "superblocks_fallback",
                "envelopes_sent", "recover_requests"):
        exact[f"consensus.{key}"] = consensus.get(key, 0)
    return {
        "attempted": len(voters),
        "failed": failed,
        "problems": problems,
        "exact": exact,
        "measured": measured,
        "wall": {
            "setup_s": setup_done - started,
            "post_setup_s": result_at - setup_done,
            "phases": phases,
            "auditor": dict(outcome.audit_timings),
        },
    }


def run_sharded_pass(
    spec, started: float, num_ballots: int, corrupt_expected: bool
) -> Dict[str, Any]:
    from repro.api.service import MultiElectionService

    service = MultiElectionService()
    setup_done = time.perf_counter()
    report = service.run_sharded(spec, num_ballots=num_ballots)
    result_at = time.perf_counter()
    outcome = report.outcome

    counted = sum(outcome.tally.counts)
    expected = num_ballots + (1 if corrupt_expected else 0)
    problems: List[str] = []
    if not report.verified:
        problems.append("cross-shard commit failed verification")
    if counted != expected or outcome.global_record.total_cast != expected:
        problems.append(
            f"{counted} ballots tallied, {outcome.global_record.total_cast} committed, "
            f"{expected} expected"
        )
    stats = outcome.shard_stats
    exact = {
        "tally": list(outcome.tally.counts),
        "ballots_counted": counted,
        "shard.shard_runner.msgs_per_ballot": sum(s["messages_sent"] for s in stats) / num_ballots,
        "shard.shard_runner.superblocks_fast": sum(s["superblocks_fast"] for s in stats),
        "shard.shard_runner.superblocks_fallback": sum(s["superblocks_fallback"] for s in stats),
    }
    return {
        "attempted": num_ballots,
        "failed": num_ballots if problems else 0,
        "problems": problems,
        "exact": exact,
        "measured": {},
        "wall": {
            "setup_s": setup_done - started,
            "post_setup_s": result_at - setup_done,
            "shard_run_s": sum(s["duration_s"] for s in stats),
        },
    }


def run_pass(
    workload: str,
    seed: int,
    *,
    smoke: bool = False,
    corrupt_expected: bool = False,
    started: Optional[float] = None,
    trace_path: Optional[str] = None,
) -> Dict[str, Any]:
    """Run ``workload`` once in this process and return its row."""
    started = time.perf_counter() if started is None else started
    spec = build_spec(workload, seed, smoke)
    tracer = None
    if trace_path is not None:
        import trace as e2e_trace  # benchmarks/e2e/trace.py (script directory is first on sys.path)

        tracer = e2e_trace.Tracer(pass_id=f"{workload}-{seed}")
        tracer.install()
    try:
        if workload == "sharded_scale":
            ballots = SMOKE_BALLOTS if smoke else SHARDED_BALLOTS
            row = run_sharded_pass(spec, started, ballots, corrupt_expected)
        else:
            row = run_engine_pass(spec, started, corrupt_expected)
    finally:
        if tracer is not None:
            tracer.uninstall()
    row.update(
        workload=workload,
        seed=seed,
        smoke=smoke,
        traced=tracer is not None,
        ok=not row["problems"],
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    row["wall"]["total_s"] = time.perf_counter() - started
    if tracer is not None:
        row["trace"] = tracer.report(ballots=row["attempted"])
        tracer.write(trace_path, row["trace"])
    return row


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--smoke", action="store_true", help="8 voters / 2000 ballots")
    parser.add_argument("--trace", metavar="PATH", help="record spans and write them to PATH")
    parser.add_argument(
        "--corrupt-expected",
        action="store_true",
        help="compare against a deliberately wrong expected tally (tests the checks)",
    )
    parser.add_argument(
        "--spawned-at",
        type=float,
        help="parent's time.perf_counter() at spawn (CLOCK_MONOTONIC is system-wide on Linux)",
    )
    args = parser.parse_args(argv)
    started = CHILD_STARTED
    if args.spawned_at is not None and 0.0 <= CHILD_STARTED - args.spawned_at < 60.0:
        started = args.spawned_at
    row = run_pass(
        args.workload,
        args.seed,
        smoke=args.smoke,
        corrupt_expected=args.corrupt_expected,
        started=started,
        trace_path=args.trace,
    )
    sys.stdout.write(json.dumps(row) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
