"""Determinism, safety and liveness checks for chaos scenarios.

A scenario run is *deterministic* when re-running the same
:class:`~repro.api.spec.ScenarioSpec` with the same seed yields a
bit-identical canonical outcome hash: :func:`outcome_hash` folds the
election's observable results (receipts, agreed vote sets, BB state, tally,
audit verdict) through the wire codec's canonical encoding into one SHA-256.
Anything nondeterministic -- an unseeded RNG, dict-iteration order leaking
into the protocol, wall-clock time -- changes the hash and fails the chaos
matrix.

*Safety* (Theorem 2) must hold in every run, faulty or not: honest VC nodes
that decide a vote set decide the same one, BB replicas agree, every issued
receipt verifies, and the tally matches the voters' receipted intents.
*Liveness* (Theorem 1) must hold exactly when the scenario stays within the
paper's fault thresholds (``Nv >= 3 fv + 1`` etc.) -- and must *fail* when a
plan marked ``expect_failure=True`` exceeds them, or the thresholds are not
actually load-bearing.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from itertools import chain
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.api.engine import ElectionEngine
from repro.api.spec import ScenarioSpec
from repro.core.outcome import ElectionOutcome
from repro.crypto.utils import RandomSource


# ---------------------------------------------------------------------------
# Canonical outcome hashing
# ---------------------------------------------------------------------------


def outcome_hash(outcome: ElectionOutcome, codec: Optional[Any] = None) -> str:
    """SHA-256 over the canonical codec encoding of a run's observable results.

    Only protocol-observable state goes in -- receipts, final vote sets, BB
    agreement, tally and audit verdict -- not timings or byte counters, so
    the hash is stable across transports while still pinning every value the
    paper's theorems speak about.
    """
    if codec is None:
        from repro.net.codec import default_codec

        codec = default_codec()
    parts: List[Any] = [outcome.setup.params.election_id]
    for voter in sorted(outcome.voters, key=lambda v: v.node_id):
        parts.append(voter.node_id)
        parts.append(voter.ballot.serial)
        parts.append(voter.receipt if voter.receipt is not None else b"")
        parts.append(int(bool(voter.receipt_valid)))
    for node in sorted(outcome.vote_collectors, key=lambda n: n.node_id):
        parts.append(node.node_id)
        if node.final_vote_set is None:
            parts.append("no-vote-set")
        else:
            _append_vote_set(parts, node.final_vote_set)
    for bb in sorted(outcome.bb_nodes, key=lambda n: n.node_id):
        parts.append(bb.node_id)
        if bb.accepted_vote_set is None:
            parts.append("no-accepted-set")
        else:
            _append_vote_set(parts, bb.accepted_vote_set)
    if outcome.tally is None:
        parts.append("no-tally")
    else:
        for count in outcome.tally.counts:
            parts.append(int(count))
    if outcome.audit_report is None:
        parts.append("no-audit")
    else:
        parts.append(int(bool(outcome.audit_report.passed)))
    return hashlib.sha256(codec.signing_bytes(b"chaos-outcome-v1", *parts)).hexdigest()


def _append_vote_set(parts: List[Any], vote_set: Tuple[Tuple[int, bytes], ...]) -> None:
    """A vote set as hash parts: its size, then each (serial, code) pair."""
    parts.append(len(vote_set))
    parts.extend(chain.from_iterable(vote_set))


# ---------------------------------------------------------------------------
# Invariants
# ---------------------------------------------------------------------------


def safety_violations(outcome: ElectionOutcome, spec: ScenarioSpec) -> List[str]:
    """Theorem-2 invariants that must hold in EVERY run, within threshold or not.

    Returns human-readable violation descriptions (empty list = safe).
    Byzantine nodes named by the spec's adversary are exempt from the
    agreement checks -- safety only speaks about honest participants.
    """
    violations: List[str] = []
    byzantine_vc = set(spec.adversary.vc_behaviors)
    byzantine_bb = set(spec.adversary.bb_behaviors)

    # Every issued receipt verifies against the ballot's printed receipt.
    for voter in outcome.voters:
        if voter.receipt is not None and not voter.receipt_valid:
            violations.append(f"{voter.node_id} holds an invalid receipt")

    # Honest VC nodes that decided a vote set decided the same one.
    decided = {
        node.node_id: node.final_vote_set
        for node in outcome.vote_collectors
        if node.node_id not in byzantine_vc and node.final_vote_set is not None
    }
    if len(set(decided.values())) > 1:
        violations.append(
            f"honest VC nodes disagree on the final vote set: {sorted(decided)}"
        )

    # Honest BB replicas that accepted a vote set accepted the same one.
    accepted = {
        bb.node_id: bb.accepted_vote_set
        for bb in outcome.bb_nodes
        if bb.node_id not in byzantine_bb and bb.accepted_vote_set is not None
    }
    if len(set(accepted.values())) > 1:
        violations.append(f"BB replicas disagree on the accepted vote set: {sorted(accepted)}")

    # The agreed vote set never contains a serial twice (ballot uniqueness).
    for node_id, vote_set in decided.items():
        serials = [serial for serial, _ in vote_set]
        if len(serials) != len(set(serials)):
            violations.append(f"{node_id} decided a vote set with duplicate serials")

    # A computed tally matches the receipted voter intents exactly.
    if outcome.tally is not None:
        expected = outcome.expected_tally()
        if tuple(outcome.tally.counts) != tuple(expected.counts):
            violations.append(
                f"tally {tuple(outcome.tally.counts)} != receipted intents "
                f"{tuple(expected.counts)}"
            )

    # A completed audit must pass (the runs here contain no forged proofs).
    if outcome.audit_report is not None and not outcome.audit_report.passed:
        violations.append("end-to-end audit failed")
    return violations


def is_live(outcome: ElectionOutcome, spec: ScenarioSpec) -> bool:
    """Theorem-1 liveness: every voter got a receipt and a tally was produced."""
    all_receipts = outcome.receipts_obtained == spec.num_voters
    return all_receipts and outcome.tally is not None


# ---------------------------------------------------------------------------
# Scenario runner
# ---------------------------------------------------------------------------


def default_choices(spec: ScenarioSpec, seed: Optional[int] = None) -> List[str]:
    """Deterministic voter choices derived from the scenario seed."""
    rng = RandomSource(spec.seed if seed is None else seed)
    return [
        spec.options[rng.randint_below(len(spec.options))] for _ in range(spec.num_voters)
    ]


def run_once(spec: ScenarioSpec, seed: Optional[int] = None) -> Tuple[ElectionOutcome, str]:
    """Run the scenario once at ``seed`` and return (outcome, canonical hash)."""
    if seed is not None and seed != spec.seed:
        spec = spec.derive(seed=seed)
    engine = ElectionEngine(spec)
    outcome = engine.run(default_choices(spec))
    return outcome, outcome_hash(outcome)


@dataclass
class ScenarioVerdict:
    """Everything the chaos matrix records about one scenario at one seed."""

    name: str
    seed: int
    hash_first: str
    hash_second: str
    safety: List[str]
    live: bool
    expected_live: bool
    receipts: int
    tally: Optional[Tuple[int, ...]]
    chaos_report: Optional[Dict[str, Any]] = None
    #: non-fatal notes (e.g. both runs live but scenario expected failure)
    problems: List[str] = field(default_factory=list)

    @property
    def deterministic(self) -> bool:
        return self.hash_first == self.hash_second

    @property
    def passed(self) -> bool:
        return (
            self.deterministic
            and not self.safety
            and self.live == self.expected_live
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "seed": self.seed,
            "hash_first": self.hash_first,
            "hash_second": self.hash_second,
            "deterministic": self.deterministic,
            "safety_violations": list(self.safety),
            "live": self.live,
            "expected_live": self.expected_live,
            "receipts": self.receipts,
            "tally": list(self.tally) if self.tally is not None else None,
            "passed": self.passed,
            "problems": list(self.problems),
            "chaos_report": self.chaos_report,
        }


def check_scenario(
    name: str, spec: ScenarioSpec, seeds: Sequence[int] = ()
) -> List[ScenarioVerdict]:
    """Run a scenario twice per seed; compare hashes and check the theorems.

    Safety must hold in both runs.  Liveness must match the plan: scenarios
    within the fault thresholds complete (every voter receipted, tally
    computed); scenarios marked ``expect_failure`` must NOT -- if they do,
    the thresholds are not load-bearing and the matrix fails.
    """
    verdicts: List[ScenarioVerdict] = []
    for seed in seeds or (spec.seed,):
        outcome_a, hash_a = run_once(spec, seed)
        outcome_b, hash_b = run_once(spec, seed)
        violations = safety_violations(outcome_a, spec) + [
            f"second run: {v}" for v in safety_violations(outcome_b, spec)
        ]
        live = is_live(outcome_a, spec)
        verdict = ScenarioVerdict(
            name=name,
            seed=seed,
            hash_first=hash_a,
            hash_second=hash_b,
            safety=violations,
            live=live,
            expected_live=not spec.faults.expect_failure,
            receipts=outcome_a.receipts_obtained,
            tally=tuple(outcome_a.tally.counts) if outcome_a.tally is not None else None,
            chaos_report=outcome_a.chaos_report,
        )
        if live != is_live(outcome_b, spec):
            verdict.problems.append("liveness differs between identical runs")
        verdicts.append(verdict)
    return verdicts
