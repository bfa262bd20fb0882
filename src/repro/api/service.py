"""The service entry point of the sharded scale pipeline.

The paper's system is a long-lived service that runs many elections over the
same replicated infrastructure.  A full-protocol election is one
:class:`~repro.api.engine.ElectionEngine` run (``ElectionEngine(spec).run(
choices)``); several of them are several runs, one after the other, each with
its own network and RNG stream.  :class:`MultiElectionService` runs the
elections far beyond what the full-crypto simulator can hold through the
sharded pipeline (:meth:`MultiElectionService.run_sharded`) and keeps each
one's report under its name.

The service imports no protocol node: the sharded pipeline never loads them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional

from repro.shard.driver import ShardedElectionDriver, ShardedElectionOutcome

if TYPE_CHECKING:
    from repro.api.spec import ScenarioSpec


@dataclass
class ShardedElectionReport:
    """One scale-pipeline election's results (:meth:`MultiElectionService.run_sharded`)."""

    name: str
    spec: ScenarioSpec
    outcome: "ShardedElectionOutcome"

    @property
    def tally(self) -> Dict[str, int]:
        return self.outcome.tally.as_dict()

    @property
    def verified(self) -> bool:
        return self.outcome.report.ok

    @property
    def ballots_per_s(self) -> float:
        return self.outcome.ballots_per_s


class MultiElectionService:
    """Runs scale-pipeline elections and keeps their reports by name."""

    def __init__(self):
        self.sharded_reports: Dict[str, ShardedElectionReport] = {}

    def run_sharded(
        self,
        spec: ScenarioSpec,
        *,
        name: Optional[str] = None,
        num_ballots: Optional[int] = None,
        on_shard=None,
    ) -> ShardedElectionReport:
        """Run one election through the sharded scale pipeline, end to end.

        This is the service entry point for electorates far beyond what the
        full-crypto simulator can hold: ballots are derived from the spec's
        seed, each ballot-range shard runs its own collectors and superblock
        Vote Set Consensus with O(shard) state, and the cross-shard commit
        layer verifies and combines the per-shard tallies homomorphically.
        ``num_ballots`` overrides the spec's electorate (``registered_ballots``
        falling back to ``num_voters``).  ``sharding.workers`` only decides
        where the one driver runs its shard slices -- in this process one at
        a time (1: peak memory follows the shard size, not the electorate) or
        on a warm process pool bounded by ``sharding.max_inflight_shards`` --
        and never what comes out.
        """
        name = name or spec.election_id
        if name in self.sharded_reports:
            raise ValueError(f"a sharded election named {name!r} already ran")
        if spec.election_id != name:
            spec = spec.derive(election_id=name)
        outcome = ShardedElectionDriver(spec, num_ballots=num_ballots, on_shard=on_shard).run()
        report = ShardedElectionReport(name=name, spec=spec, outcome=outcome)
        self.sharded_reports[name] = report
        return report
