"""Multi-election service: N independent elections on one shared scheduler.

The paper's system is a long-lived service that runs many elections
concurrently over the same replicated infrastructure.
:class:`MultiElectionService` reproduces that deployment shape on the
simulator: every registered :class:`~repro.api.spec.ScenarioSpec` gets its
own engine, network and RNG stream (full per-election isolation), while the
service multiplexes the *simulated* phases of all member elections over one
shared scheduler -- stepping whichever election's network has the earliest
pending event -- and hands every audit the same shared process-pool
configuration, so the end-of-election verification of all elections draws on
one worker budget.

Isolation guarantee (tested): an election's outcome, event stream and
per-phase simulated timings are identical whether it runs alone or
multiplexed with any number of other elections.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.api.engine import ElectionEngine, EngineContext, PhaseDriver
from repro.api.events import (
    ElectionCompleted,
    ElectionEvent,
    Observer,
    PhaseCompleted,
    PhaseStarted,
)
from repro.api.spec import ScenarioSpec
from repro.core.outcome import ElectionOutcome
from repro.net.simulator import Network
from repro.perf.parallel import ParallelConfig
from repro.shard.driver import ShardedElectionDriver, ShardedElectionOutcome


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
    ctx: Optional[EngineContext] = None


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
        #: merged event log across all elections, in global emission order
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
        name = name or spec.election_id
        if name in self._members:
            raise ValueError(f"an election named {name!r} is already registered")
        if len(choices) != spec.num_voters:
            raise ValueError(
                f"election {name!r} needs exactly {spec.num_voters} choices, "
                f"got {len(choices)}"
            )
        if spec.election_id != name:
            spec = spec.derive(election_id=name)
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
        """Run every registered election to completion, multiplexed by phase.

        Non-simulated phases (setup, tally, audit) run round-robin; the
        simulated phases (voting, consensus) of all elections are interleaved
        on one shared scheduler that always steps the network holding the
        globally earliest pending event.
        """
        members = list(self._members.values())
        if not members:
            return {}
        for member in members:
            member.ctx = member.engine.begin(member.choices, voter_parts=member.voter_parts)

        phase_names = [driver.name for driver in members[0].engine.drivers]
        for member in members[1:]:
            if [driver.name for driver in member.engine.drivers] != phase_names:
                raise ValueError("all member elections must share one phase sequence")

        try:
            for index, phase in enumerate(phase_names):
                live: List[Tuple[_Member, PhaseDriver, float]] = []
                for member in members:
                    driver = member.engine.drivers[index]
                    if not driver.should_run(member.ctx):
                        continue
                    member.engine.bus.emit(PhaseStarted(phase=phase))
                    started = member.ctx.sim_now
                    driver.prepare(member.ctx)
                    driver.schedule(member.ctx)
                    live.append((member, driver, started))

                simulated = [
                    (member.ctx.network, driver.horizon(member.ctx))
                    for member, driver, _ in live
                    if driver.consumes_sim_time and member.ctx.network is not None
                ]
                if simulated:
                    self._run_shared(simulated)
                for member, driver, _ in live:
                    if not driver.consumes_sim_time:
                        driver.execute(member.ctx)

                for member, driver, started in live:
                    driver.finalize(member.ctx)
                    duration = member.ctx.sim_now - started
                    member.ctx.phase_timings[phase] = duration
                    member.engine.bus.emit(PhaseCompleted(phase=phase, sim_duration=duration))
        finally:
            # Also after a failed phase: sockets and the frozen set-up heap are
            # scoped to the run.
            for member in members:
                member.engine.close()

        self.reports = {}
        for member in members:
            receipts = sum(1 for voter in member.ctx.voters if voter.receipt is not None)
            member.engine.bus.emit(ElectionCompleted(receipts=receipts))
            self.reports[member.name] = ElectionReport(
                name=member.name,
                spec=member.engine.spec,
                outcome=member.engine.outcome(),
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

    # -- shared scheduler --------------------------------------------------------

    @staticmethod
    def _run_shared(networks: List[Tuple[Network, Optional[float]]]) -> None:
        """Step the member networks in merged global-time order.

        The member simulations are independent, so this interleaving produces
        exactly the same per-election executions as running them one by one
        -- which is the isolation property the service promises -- while
        behaving like the single shared event loop of a real multi-election
        deployment.
        """
        while True:
            best = None
            for network, until in networks:
                when = network.next_event_time()
                if when is None:
                    continue
                if until is not None and when > until:
                    continue
                if best is None or when < best[0]:
                    best = (when, network)
            if best is None:
                return
            best[1].step()
