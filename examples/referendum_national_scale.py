#!/usr/bin/env python3
"""National-scale referendum: capacity planning with the performance model.

The paper's motivating deployment is a national referendum (m = 2) with an
electorate comparable to the 2012 US voting population (235 million).  The
full cryptographic stack obviously cannot run 235 million simulated voters on
a laptop, so this example does what an election operator would do with the
library, starting from the ``national_scale`` scenario preset:

1. size the Vote Collector deployment with the calibrated performance model
   (how does throughput/latency change with the number of VC nodes, LAN vs
   WAN, database-backed storage and electorate size?) -- every load simulator
   is constructed straight from a derived :class:`ScenarioSpec`;
2. compute the liveness/safety margins for the chosen deployment from the
   paper's theorems (patience window Twait, receipt guarantees, probability
   of losing a receipted vote);
3. run a *scaled-down but real* election (with full cryptography) through
   the :class:`ElectionEngine`, using the same option set, to show the
   actual pipeline end to end.

Run with:  python examples/referendum_national_scale.py
(Set EXAMPLES_SMOKE=1 for a scaled-down run, as in CI.)
"""

import os

from repro.analysis.liveness import receipt_probability_lower_bound, twait
from repro.analysis.verification import safety_failure_probability_union
from repro.api import ElectionEngine, NetworkProfile, ScenarioSpec
from repro.perf.costmodel import phase_breakdown

SMOKE = bool(os.environ.get("EXAMPLES_SMOKE"))

BASE = ScenarioSpec.preset("national_scale")
VC_SWEEP = (4, 7) if SMOKE else (4, 7, 10)
TARGET_VOTES = 120 if SMOKE else 600
WARMUP_VOTES = 30 if SMOKE else 100


def capacity_planning() -> None:
    print("=== 1. capacity planning (performance model) ===")
    print(f"electorate: {BASE.electorate:,} registered voters, "
          f"question: {'/'.join(BASE.options)}\n")
    print("Nv   network  storage   throughput (votes/s)   mean latency (s)")
    for num_vc in VC_SWEEP:
        for network, storage in ((NetworkProfile.lan(), "memory"),
                                 (NetworkProfile.wan(), "postgres")):
            scenario = BASE.derive(
                num_vc=num_vc, network=network, storage=storage, seed=11
            )
            sim = scenario.load_simulator(num_clients=400)
            result = sim.run(target_votes=TARGET_VOTES, warmup_votes=WARMUP_VOTES)
            print(f"{num_vc:<4} {network.kind:<8} {storage:<9} "
                  f"{result.throughput_ops:>14.1f}        {result.mean_latency_s:>10.3f}")

    phases = phase_breakdown(200_000, registered_ballots=BASE.electorate,
                             num_vc=4, num_options=BASE.num_options)
    print("\npost-election phases for 200,000 cast ballots (seconds):")
    print(f"  vote set consensus      : {phases.vote_set_consensus_s:9.1f}")
    print(f"  push to BB + enc. tally : {phases.push_to_bb_s:9.1f}")
    print(f"  publish result          : {phases.publish_result_s:9.1f}")


def security_margins() -> None:
    print("\n=== 2. liveness and safety margins (Theorems 1-2) ===")
    tcomp, drift, delay = 0.010, 0.100, 0.050  # seconds
    for num_vc in (4, 7, 10):
        fv = (num_vc - 1) // 3
        window = twait(num_vc, tcomp, drift, delay)
        print(f"Nv={num_vc:<3} fv={fv}: patience window Twait = {window:.2f}s; "
              f"P[receipt within {fv} windows] > {receipt_probability_lower_bound(fv):.4f}; "
              f"P[any receipted vote dropped] < "
              f"{safety_failure_probability_union(BASE.electorate, fv):.3e}")


def scaled_down_real_run() -> None:
    print("\n=== 3. scaled-down real election (full cryptography) ===")
    rehearsal = BASE.derive(election_id="national-referendum-rehearsal", seed=101)
    engine = ElectionEngine(rehearsal)
    choices = ["yes", "yes", "no", "yes", "no", "yes"]
    outcome = engine.run(choices)
    print(f"receipts: {outcome.receipts_obtained}/{len(outcome.voters)} "
          f"(all valid: {outcome.all_receipts_valid})")
    print(f"tally: {outcome.tally.as_dict()}  winner: {outcome.tally.winner()}")
    print(f"audit passed: {outcome.audit_report.passed}")


def main() -> None:
    capacity_planning()
    security_margins()
    scaled_down_real_run()


if __name__ == "__main__":
    main()
