"""The result object an election run produces.

:class:`ElectionOutcome` lives in ``repro.core`` so the engine
(:mod:`repro.api.engine`) can return it and the analysis layer can read it
without importing the api package.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.auditor import AuditReport
from repro.core.bulletin_board import BulletinBoardNode
from repro.core.ea import ElectionSetup
from repro.core.tally import TallyResult, expected_tally
from repro.core.trustee import Trustee
from repro.core.vote_collector import VoteCollectorNode, total_vsc_stats
from repro.core.voter import VoterClient
from repro.net.simulator import Network


@dataclass
class ElectionOutcome:
    """Everything an election run produces."""

    setup: ElectionSetup
    network: Network
    vote_collectors: List[VoteCollectorNode]
    bb_nodes: List[BulletinBoardNode]
    trustees: List[Trustee]
    voters: List[VoterClient]
    tally: Optional[TallyResult]
    audit_report: Optional[AuditReport]
    #: typed progress events emitted by the engine, in emission order.
    events: List = field(default_factory=list)
    #: per-phase durations in *simulated* time (seconds of network time), so
    #: they are deterministic for a fixed scenario seed.
    phase_timings: Dict[str, float] = field(default_factory=dict)
    #: what the chaos controller did during the run (crashes, recoveries,
    #: partitions, catch-ups); ``None`` for runs without a fault plan.
    chaos_report: Optional[Dict] = None
    #: majority-read, independently re-verified two-phase shard-commit report
    #: (a :class:`repro.shard.merge.ShardCommitReport`); ``None`` for
    #: unsharded runs.
    shard_commits: Optional[object] = None

    @property
    def receipts_obtained(self) -> int:
        """How many voters obtained a (valid) receipt."""
        return sum(1 for voter in self.voters if voter.receipt is not None)

    @property
    def consensus_stats(self) -> Dict[str, int]:
        """Aggregate Vote Set Consensus counters across all VC nodes.

        Keys match :class:`repro.core.vote_collector.VscStats`; with
        ``consensus.batch_size > 1`` the superblock counters show how many
        blocks took the fast path versus falling back to per-ballot consensus.
        """
        return total_vsc_stats(self.vote_collectors)

    @property
    def admission_stats(self) -> Dict[str, int]:
        """Aggregate voting-phase admission counters across all VC nodes.

        Keys match :class:`repro.core.admission.AdmissionStats`: queue
        pressure (requests, admitted, shed, peak depth) and the endorsement
        batch-verification counters.  ``peak_depth`` aggregates as the max
        over nodes; everything else sums.
        """
        totals: Dict[str, int] = {}
        for node in self.vote_collectors:
            stats = getattr(node, "admission_stats", None)
            if stats is None:
                continue
            for key, value in stats.as_dict().items():
                if key == "peak_depth":
                    totals[key] = max(totals.get(key, 0), value)
                else:
                    totals[key] = totals.get(key, 0) + value
        return totals

    @property
    def all_receipts_valid(self) -> bool:
        """Whether every obtained receipt matched the ballot's printed receipt."""
        return all(voter.receipt_valid for voter in self.voters if voter.receipt is not None)

    @property
    def audit_timings(self) -> Dict[str, float]:
        """Measured per-phase audit durations (empty for the per-item path)."""
        if self.audit_report is None:
            return {}
        return dict(self.audit_report.timings)

    def expected_tally(self) -> TallyResult:
        """The plaintext tally implied by the voters' intended choices."""
        choices = [voter.choice for voter in self.voters if voter.receipt is not None]
        return expected_tally(self.setup.params.options, choices)
