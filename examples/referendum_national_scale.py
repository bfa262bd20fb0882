#!/usr/bin/env python3
"""National-scale referendum: measure the deployment shape, then rehearse it.

The paper's motivating deployment is a national referendum (m = 2) with an
electorate comparable to the 2012 US voting population (235 million).  The
full cryptographic stack cannot run 235 million simulated voters on a
laptop, so this example does what an election operator would do with the
library, starting from the ``national_scale`` scenario preset:

1. measure how the number of VC nodes, on a LAN and on a WAN, changes the
   cost of a vote: every row is a complete election of a few voters through
   the :class:`ElectionEngine`, and prints the wall-clock ballots/s from the
   end of set-up to the audited result and the median receipt latency in
   simulated milliseconds (network delay only: the simulator charges no CPU
   time to simulated time);
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
import statistics
import time

from repro.analysis.liveness import receipt_probability_lower_bound, twait
from repro.analysis.verification import safety_failure_probability_union
from repro.api import ElectionEngine, NetworkProfile, ScenarioSpec

SMOKE = bool(os.environ.get("EXAMPLES_SMOKE"))

BASE = ScenarioSpec.preset("national_scale")
VC_SWEEP = (4, 7) if SMOKE else (4, 7, 10)
SWEEP_VOTERS = 8 if SMOKE else 30


def deployment_sweep() -> None:
    print("=== 1. deployment shape (measured on the engine) ===")
    print(f"electorate: {BASE.electorate:,} registered voters, "
          f"question: {'/'.join(BASE.options)}; {SWEEP_VOTERS} voters per run\n")
    print("Nv   network  ballots/s (wall)   receipt p50 (simulated ms)")
    for num_vc in VC_SWEEP:
        for network in (NetworkProfile.lan(), NetworkProfile.wan()):
            scenario = BASE.derive(num_vc=num_vc, network=network,
                                   num_voters=SWEEP_VOTERS, seed=11)
            engine = ElectionEngine(scenario)
            ctx = engine.begin([BASE.options[i % 2] for i in range(SWEEP_VOTERS)])
            try:
                for driver in engine.drivers:
                    if driver.name == "voting":  # the clock starts after set-up
                        started = time.perf_counter()
                    if driver.should_run(ctx):
                        engine.run_phase(driver, ctx)
            finally:
                engine.close()
            elapsed = time.perf_counter() - started
            outcome = engine.outcome()
            assert outcome.audit_report.passed
            latency = statistics.median(
                (v.completed_at - v.submitted_at) * 1000.0 for v in outcome.voters)
            print(f"{num_vc:<4} {network.kind:<8} {SWEEP_VOTERS / elapsed:>13.1f}"
                  f"      {latency:>14.1f}")


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
    deployment_sweep()
    security_margins()
    scaled_down_real_run()


if __name__ == "__main__":
    main()
