"""Multi-election service: N independent elections behind one facade.

The paper's system is a long-lived service that runs many elections over the
same replicated infrastructure.  :class:`MultiElectionService` reproduces
that deployment shape on the simulator: every registered
:class:`~repro.api.spec.ScenarioSpec` gets its own engine, network and RNG
stream, :meth:`MultiElectionService.run_all` runs each member through its
engine's one phase sequence (:meth:`ElectionEngine.run`), member after member
in registration order, and every audit draws on the same shared process-pool
configuration.

Isolation guarantee (tested): an election's outcome, event stream and
per-phase simulated timings are identical whether it runs alone or as a
member of a service with any number of other elections.

The engine is imported by :meth:`MultiElectionService.add`, which builds
one: a service that only runs the sharded pipeline never loads the protocol
nodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.perf.parallel import ParallelConfig
from repro.shard.driver import ShardedElectionDriver, ShardedElectionOutcome

if TYPE_CHECKING:
    from repro.api.engine import ElectionEngine
    from repro.api.events import ElectionEvent, Observer
    from repro.api.spec import ScenarioSpec
    from repro.core.outcome import ElectionOutcome


@dataclass
class ElectionReport:
    """One member election's results, as returned by :meth:`MultiElectionService.run_all`."""

    name: str
    spec: ScenarioSpec
    outcome: ElectionOutcome

    @property
    def tally(self) -> Optional[Dict[str, int]]:
        return None if self.outcome.tally is None else self.outcome.tally.as_dict()

    @property
    def audit_passed(self) -> Optional[bool]:
        report = self.outcome.audit_report
        return None if report is None else report.passed

    @property
    def phase_timings(self) -> Dict[str, float]:
        return self.outcome.phase_timings


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


@dataclass
class _Member:
    name: str
    engine: ElectionEngine
    choices: Sequence[str]
    voter_parts: Optional[Sequence[str]]


class MultiElectionService:
    """Facade running many independent elections over shared machinery."""

    def __init__(
        self,
        *,
        audit_workers: Optional[int] = 1,
        parallel: Optional[ParallelConfig] = None,
        observers: Sequence[Observer] = (),
    ):
        #: one parallel-audit schedule shared by every member election.
        self.parallel = parallel or ParallelConfig(workers=audit_workers)
        self._members: Dict[str, _Member] = {}
        self._observers = list(observers)
        #: every member's events, member after member in registration order
        #: (events carry their ``election_id`` for demultiplexing).
        self.event_log: List[ElectionEvent] = []
        self.reports: Dict[str, ElectionReport] = {}
        self.sharded_reports: Dict[str, ShardedElectionReport] = {}

    # -- registration ------------------------------------------------------------

    def add(
        self,
        spec: ScenarioSpec,
        choices: Sequence[str],
        *,
        name: Optional[str] = None,
        voter_parts: Optional[Sequence[str]] = None,
    ) -> str:
        """Register one election; returns its (unique) service-level name."""
        from repro.api.engine import ElectionEngine, check_choices

        name = name or spec.election_id
        if name in self._members:
            raise ValueError(f"an election named {name!r} is already registered")
        if spec.election_id != name:
            spec = spec.derive(election_id=name)
        check_choices(spec, choices, voter_parts)
        engine = ElectionEngine(
            spec,
            parallel=self.parallel,
            observers=[self.event_log.append, *self._observers],
        )
        self._members[name] = _Member(name, engine, list(choices), voter_parts)
        return name

    @property
    def election_names(self) -> Tuple[str, ...]:
        return tuple(self._members)

    def engine(self, name: str) -> ElectionEngine:
        """The engine backing one member election (for extra subscriptions)."""
        return self._members[name].engine

    # -- execution ---------------------------------------------------------------

    def run_all(self) -> Dict[str, ElectionReport]:
        """Run every registered election to completion, one after the other.

        Each member runs through :meth:`ElectionEngine.run` in registration
        order, so a member's run is exactly its run alone.  A member whose run
        raises stops the loop; the reports of the members before it stay in
        :attr:`reports`, and its own engine has already closed.
        """
        self.reports = {}
        for member in self._members.values():
            outcome = member.engine.run(member.choices, voter_parts=member.voter_parts)
            self.reports[member.name] = ElectionReport(
                name=member.name, spec=member.engine.spec, outcome=outcome
            )
        return self.reports

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
