#!/usr/bin/env python3
"""Delegated auditing: voters hand their audit data to a third party.

The paper's headline usability property: a voter can vote from an untrusted
terminal without running any cryptography, and can delegate verification to
an auditor *without revealing her vote*.  This example shows:

1. what a voter hands to the auditor (the cast vote code -- which does not
   reveal the chosen option -- and the unused ballot part);
2. the auditor verifying, against a majority of Bulletin Board nodes, that
   every delegated vote is included and that every unused part matches what
   the voter received (checks f and g of Section III-I);
3. the auditor detecting a forged delegation (a ballot whose printed options
   were swapped by a hypothetical malicious Election Authority);
4. the exponential decay of the probability that fraud goes undetected as the
   number of independent auditors grows.

Run with:  python examples/delegated_audit.py
"""

from repro.analysis.verification import e2e_verifiability_error, fraud_undetected_probability
from repro.api import ElectionEngine, ScenarioSpec
from repro.core.auditor import Auditor
from repro.core.ballot import BallotLine
from repro.core.voter import VoterAuditInfo


def main() -> None:
    spec = ScenarioSpec(
        options=("option-1", "option-2", "option-3"),
        num_voters=4,
        election_end=400.0,
        seed=7,
    )
    engine = ElectionEngine(spec)
    outcome = engine.run(["option-2", "option-1", "option-3", "option-2"])
    print(f"published tally: {outcome.tally.as_dict()}\n")

    # 1. What each voter delegates (note: no option choice appears anywhere).
    delegations = [voter.audit_info() for voter in outcome.voters]
    voter = outcome.voters[0]
    info = delegations[0]
    print(f"{voter.node_id} delegates:")
    print(f"  serial          : {info.serial}")
    print(f"  cast vote code  : {info.cast_vote_code.hex()[:16]}... (does not reveal the option)")
    print(f"  unused part     : {info.unused_part_name} "
          f"({len(info.unused_part_lines)} <vote-code, option, receipt> lines)\n")

    # 2. An independent auditor verifies every delegation against the BB majority.
    params = spec.to_election_parameters()
    auditor = Auditor(outcome.bb_nodes, params, engine.ctx.group)
    report = auditor.verify_all(delegations)
    print(f"auditor checks: {len(report.checks)} performed, all passed: {report.passed}")

    # 3. A forged delegation (swapped options, as a malicious EA would print)
    #    is detected by check (g).
    lines = list(info.unused_part_lines)
    forged_lines = [
        BallotLine(lines[0].vote_code, lines[1].option, lines[0].receipt),
        BallotLine(lines[1].vote_code, lines[0].option, lines[1].receipt),
    ] + lines[2:]
    forged = VoterAuditInfo(info.serial, info.cast_vote_code,
                            info.unused_part_name, tuple(forged_lines))
    forged_report = auditor.verify_delegation(forged)
    print(f"forged ballot part detected: {not forged_report.passed} "
          f"(failed checks: {[n for n, ok in forged_report.checks.items() if not ok]})\n")

    # 4. Fraud-detection probability as the auditor pool grows.
    print("auditors  P[fraud undetected]   E2E error (theta auditors, deviation 10)")
    for auditors in (1, 2, 5, 10, 20):
        print(f"{auditors:>8}  {fraud_undetected_probability(auditors):>18.6g}   "
              f"{e2e_verifiability_error(auditors, 10):.6g}")


if __name__ == "__main__":
    main()
