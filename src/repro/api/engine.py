"""Event-driven election engine built from pluggable phase drivers.

:class:`ElectionEngine` is the one phase sequencer: :class:`PhaseDriver`
steps -- setup, voting, consensus, tally, merge, audit -- run in order over a
shared :class:`EngineContext`.  Around every
driver the engine emits the typed events of :mod:`repro.api.events`
(``PhaseStarted`` / ``PhaseCompleted`` plus the driver's own events such as
``BallotAccepted`` and ``ConsensusDecided``), so benchmarks, the load
simulator and future async/real-network drivers observe a run by subscribing
instead of monkey-patching.

The :class:`ScenarioSpec` is the one description of a run.  The drivers read
its blocks where they need them (``spec.crypto.include_proofs`` at set-up,
``spec.network`` / ``spec.adversary`` / ``spec.voter_patience`` /
``spec.stagger`` when the voting network is built, ``spec.audit`` for the
audit) and the nodes read ``ctx.params``, which carries the spec's own
``consensus`` / ``admission`` / ``audit`` objects; the engine restates none of
them as a keyword or a context field.

Drivers split their work into ``prepare`` (build state), ``schedule``
(enqueue simulator events) and ``execute`` (consume simulated time) so the
multi-election service can interleave the simulated phases of several
elections on one shared scheduler; ``run`` composes the three for the
single-election path.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Type

from repro.api.events import (
    AuditCompleted,
    BallotAccepted,
    ConsensusDecided,
    ElectionCompleted,
    EventBus,
    Observer,
    PhaseCompleted,
    PhaseStarted,
    ShardMergeCompleted,
    TallyComputed,
)
from repro.api.spec import ScenarioSpec
from repro.core.auditor import Auditor
from repro.core.bulletin_board import BulletinBoardNode, MajorityReader
from repro.core.ea import (
    ElectionAuthority,
    ElectionSetup,
    bb_node_id,
    trustee_id,
    vc_node_id,
    voter_id,
)
from repro.core.election import ElectionParameters
from repro.core.outcome import ElectionOutcome
from repro.core.tally import TallyResult
from repro.core.trustee import Trustee
from repro.core.vote_collector import VoteCollectorNode, total_vsc_stats
from repro.core.voter import VoterClient
from repro.crypto.group import Group
from repro.crypto.utils import RandomSource
from repro.net.chaos import ChaosController
from repro.net.simulator import Network
from repro.net.transport import Transport
from repro.perf.parallel import ParallelConfig

#: Runs whose set-up heap sits in the collector's permanent generation.
#: ``gc.freeze()`` is process-wide: members of a MultiElectionService share
#: one permanent generation, which goes back when the last of them closes.
_frozen_runs = 0


@dataclass
class EngineContext:
    """Mutable run state threaded through the phase drivers."""

    spec: ScenarioSpec
    params: ElectionParameters
    group: Group
    rng: RandomSource
    bus: EventBus
    vc_node_classes: Dict[str, Type[VoteCollectorNode]]
    bb_node_classes: Dict[str, Type[BulletinBoardNode]]
    trustee_classes: Dict[str, Type[Trustee]]
    #: shared parallel-audit schedule (the multi-election service injects one
    #: config so every member election draws on the same worker budget).
    parallel: Optional[ParallelConfig] = None
    #: transport the voting network will use (built from the spec's
    #: ``TransportProfile``; single-run -- TCP backends own real sockets).
    transport: Optional[Transport] = None

    choices: Optional[Sequence[str]] = None
    voter_parts: Optional[Sequence[str]] = None

    setup: Optional[ElectionSetup] = None
    network: Optional[Network] = None
    #: drives the spec's fault plan (None when the plan is empty).
    chaos: Optional[ChaosController] = None
    vote_collectors: List[VoteCollectorNode] = field(default_factory=list)
    bb_nodes: List[BulletinBoardNode] = field(default_factory=list)
    trustees: List[Trustee] = field(default_factory=list)
    voters: List[VoterClient] = field(default_factory=list)
    tally: Optional[TallyResult] = None
    audit_report: Optional[object] = None
    #: majority-read + re-verified shard-commit report (sharded runs only).
    shard_commits: Optional[object] = None
    phase_timings: Dict[str, float] = field(default_factory=dict)
    #: this run is counted in ``_frozen_runs``
    heap_frozen: bool = False

    @property
    def sim_now(self) -> float:
        """Current simulated time (0 before the network exists)."""
        return self.network.now if self.network is not None else 0.0


class PhaseDriver:
    """One pluggable step of an election run.

    Subclasses override any of :meth:`prepare` / :meth:`schedule` /
    :meth:`execute` / :meth:`finalize`; :meth:`run` composes them.  Only
    ``execute`` may consume simulated time, which is what lets the
    multi-election service substitute a shared scheduler for it.
    """

    name: str = "phase"
    #: whether :meth:`execute` advances the discrete-event simulation.  The
    #: multi-election service substitutes its shared scheduler for the
    #: ``execute`` step of exactly these drivers.
    consumes_sim_time: bool = False

    def should_run(self, ctx: EngineContext) -> bool:
        """Whether the engine's full run includes this phase."""
        return True

    def horizon(self, ctx: EngineContext) -> Optional[float]:
        """Latest simulated time :meth:`execute` may reach (None = run to idle).

        Only consulted when ``consumes_sim_time`` is True.
        """
        return None

    def prepare(self, ctx: EngineContext) -> None:
        """Build state (no simulated time passes)."""

    def schedule(self, ctx: EngineContext) -> None:
        """Enqueue simulator events for this phase."""

    def execute(self, ctx: EngineContext) -> None:
        """Advance the simulation / do the phase's blocking work."""

    def finalize(self, ctx: EngineContext) -> None:
        """Emit the phase's summary events and fold results into the context."""

    def run(self, ctx: EngineContext) -> None:
        self.prepare(ctx)
        self.schedule(ctx)
        self.execute(ctx)
        self.finalize(ctx)


class SetupDriver(PhaseDriver):
    """Phase 0: the EA produces all initialization data and is destroyed."""

    name = "setup"

    def execute(self, ctx: EngineContext) -> None:
        authority = ElectionAuthority(
            ctx.params,
            group=ctx.group,
            rng=ctx.rng,
            include_proofs=ctx.spec.crypto.include_proofs,
        )
        ctx.setup = authority.setup()
        # The set-up data is long-lived, immutable and acyclic: splice it into
        # the permanent generation (O(1)) so no later full collection walks
        # it.  No gc.collect() first: that would walk the whole process heap
        # once per election.  ElectionEngine.close() unfreezes with the last
        # frozen run of the process.
        global _frozen_runs
        gc.freeze()
        if not ctx.heap_frozen:
            ctx.heap_frozen = True
            _frozen_runs += 1


class VotingDriver(PhaseDriver):
    """Phase 1+2: instantiate the deployment, let voters cast until close."""

    name = "voting"
    consumes_sim_time = True

    def horizon(self, ctx: EngineContext) -> Optional[float]:
        return ctx.params.election_end

    def prepare(self, ctx: EngineContext) -> None:
        if ctx.setup is None:
            raise RuntimeError("the setup phase must run before voting")
        if ctx.choices is None:
            raise ValueError("an election run needs the voters' choices")
        params = ctx.params
        if len(ctx.choices) != params.num_voters:
            raise ValueError("need exactly one choice per voter")
        setup, spec = ctx.setup, ctx.spec
        ctx.network = Network(
            conditions=spec.network.conditions(seed=spec.seed),
            adversary=spec.adversary.build_adversary(),
            transport=ctx.transport,
        )
        ctx.bus.set_clock(lambda: ctx.network.now)

        for index in range(params.thresholds.num_vc):
            node_id = vc_node_id(index)
            cls = ctx.vc_node_classes.get(node_id, VoteCollectorNode)
            node = cls(setup.vc_init[node_id], params)
            ctx.vote_collectors.append(node)
            ctx.network.register(node)

        for index in range(params.thresholds.num_bb):
            node_id = bb_node_id(index)
            cls = ctx.bb_node_classes.get(node_id, BulletinBoardNode)
            node = cls(node_id, setup.bb_init, params, ctx.group)
            ctx.bb_nodes.append(node)
            ctx.network.register(node)

        # Trustees (not SimNodes: the tabulation phase is sequential).
        for index in range(params.thresholds.num_trustees):
            node_id = trustee_id(index)
            cls = ctx.trustee_classes.get(node_id, Trustee)
            ctx.trustees.append(cls(setup.trustee_init[node_id], params, ctx.group))

        vc_ids = [vc_node_id(i) for i in range(params.thresholds.num_vc)]
        for index, choice in enumerate(ctx.choices):
            part = ctx.voter_parts[index] if ctx.voter_parts is not None else None
            voter = VoterClient(
                voter_id(index),
                setup.ballots[index],
                vc_ids,
                choice,
                patience=spec.voter_patience,
                part_choice=part,
                seed=spec.seed + index,
            )
            ctx.voters.append(voter)
            ctx.network.register(voter)

        if not spec.faults.is_empty:
            ctx.chaos = ChaosController(
                spec.faults,
                ctx.network,
                vote_collectors=ctx.vote_collectors,
                bb_nodes=ctx.bb_nodes,
                election_end=params.election_end,
            )

    def schedule(self, ctx: EngineContext) -> None:
        for index, voter in enumerate(ctx.voters):
            ctx.network.schedule(
                index * ctx.spec.stagger, voter.start_voting, description="voter-start"
            )
        if ctx.chaos is not None:
            ctx.chaos.install()

    def execute(self, ctx: EngineContext) -> None:
        ctx.network.run(until=self.horizon(ctx))

    def finalize(self, ctx: EngineContext) -> None:
        accepted = [voter for voter in ctx.voters if voter.receipt is not None]
        accepted.sort(key=lambda v: (v.completed_at if v.completed_at is not None else 0.0))
        for voter in accepted:
            ctx.bus.emit(
                BallotAccepted(
                    voter=voter.node_id,
                    serial=voter.ballot.serial,
                    attempts=voter.attempts,
                    receipt_valid=bool(voter.receipt_valid),
                )
            )


class ConsensusDriver(PhaseDriver):
    """Phase 3: VC nodes freeze the vote set and run Vote Set Consensus."""

    name = "consensus"
    consumes_sim_time = True

    def schedule(self, ctx: EngineContext) -> None:
        end_time = ctx.params.election_end
        for node in ctx.vote_collectors:
            # Owned by the node: a VC that is crashed at election end misses
            # the close (its process is down) and must catch up on recovery.
            ctx.network.schedule_at(
                end_time, node.end_election, description="election-end", owner=node.node_id
            )

    def execute(self, ctx: EngineContext) -> None:
        ctx.network.run_until_idle()

    def finalize(self, ctx: EngineContext) -> None:
        vote_sets = [
            node.final_vote_set
            for node in ctx.vote_collectors
            if getattr(node, "final_vote_set", None) is not None
        ]
        ctx.bus.emit(
            ConsensusDecided(
                vote_set_size=max((len(vs) for vs in vote_sets), default=0),
                stats=total_vsc_stats(ctx.vote_collectors),
            )
        )


class TallyDriver(PhaseDriver):
    """Phase 4: trustees read the BB, compute shares and post them back."""

    name = "tally"

    def execute(self, ctx: EngineContext) -> None:
        reader = MajorityReader(ctx.bb_nodes, ctx.params)
        try:
            view = reader.election_view()
        except ValueError:
            ctx.tally = None
            return
        for trustee in ctx.trustees:
            submission = trustee.produce_submission(view)
            for bb in ctx.bb_nodes:
                bb.receive_trustee_submission(submission)
        try:
            ctx.tally = reader.tally()
        except ValueError:
            ctx.tally = None

    def finalize(self, ctx: EngineContext) -> None:
        if ctx.tally is not None:
            ctx.bus.emit(TallyComputed(tally=ctx.tally.as_dict()))


class MergeDriver(PhaseDriver):
    """Phase 4b: verify the cross-shard commit published on the BB.

    Runs only for sharded elections (``num_shards > 1``).  The driver
    majority-reads the two-phase shard-commit report (PREPARE records plus
    the global COMMIT) from the BB replicas and re-verifies it independently:
    range coverage, cast-count consistency, record digests, and that the
    recombined per-shard products equal the published global commitment.
    The phase is always present in the default driver sequence — gated by
    ``should_run`` — so sharded and unsharded members can share one
    multi-election scheduler.
    """

    name = "merge"

    def should_run(self, ctx: EngineContext) -> bool:
        return ctx.params.num_shards > 1 and ctx.tally is not None

    def execute(self, ctx: EngineContext) -> None:
        from repro.shard.merge import ShardCommitReport, verify_shard_records

        reader = MajorityReader(ctx.bb_nodes, ctx.params)
        report = reader.read(lambda bb: bb.shard_commits)
        if report is None or report.global_record is None:
            ctx.shard_commits = ShardCommitReport(
                records=(), global_record=None,
                problems=("no shard-commit record reached a BB majority",),
            )
            return
        scheme = ctx.bb_nodes[0].scheme
        problems = verify_shard_records(scheme, report.records, report.global_record)
        ctx.shard_commits = ShardCommitReport(
            records=report.records,
            global_record=report.global_record,
            problems=tuple(problems),
        )

    def finalize(self, ctx: EngineContext) -> None:
        if ctx.shard_commits is not None:
            ctx.bus.emit(
                ShardMergeCompleted(
                    num_shards=len(ctx.shard_commits.records),
                    total_cast=sum(
                        r.ballots_cast for r in ctx.shard_commits.records
                    ),
                    verified=ctx.shard_commits.ok,
                )
            )


class AuditDriver(PhaseDriver):
    """Phase 5: an independent auditor verifies the whole election."""

    name = "audit"

    def should_run(self, ctx: EngineContext) -> bool:
        return ctx.spec.audit.enabled and ctx.tally is not None

    def execute(self, ctx: EngineContext) -> None:
        audit = ctx.spec.audit
        auditor = Auditor(
            ctx.bb_nodes,
            ctx.params,
            ctx.group,
            security_bits=audit.security_bits,
        )
        delegations = [voter.audit_info() for voter in ctx.voters if voter.receipt is not None]
        if not audit.batch:
            ctx.audit_report = auditor.audit(delegations)
            return
        # base_seed stays None unless a config was injected: the batching
        # exponents must be unpredictable to whoever produced the proofs, or
        # the 2^-bits soundness bound dies.
        parallel = ctx.parallel or ParallelConfig(workers=audit.workers)
        ctx.audit_report = auditor.verify_all(delegations, parallel=parallel)

    def finalize(self, ctx: EngineContext) -> None:
        if ctx.audit_report is not None:
            ctx.bus.emit(
                AuditCompleted(
                    passed=ctx.audit_report.passed,
                    checks=len(ctx.audit_report.checks),
                )
            )


def default_drivers() -> List[PhaseDriver]:
    """The phase sequence: setup, voting, consensus, tally, merge, audit.

    ``merge`` self-gates to sharded runs (``ShardingProfile.num_shards > 1``)
    via ``should_run``, so the sequence is identical for every scenario.
    """
    return [
        SetupDriver(),
        VotingDriver(),
        ConsensusDriver(),
        TallyDriver(),
        MergeDriver(),
        AuditDriver(),
    ]


class ElectionEngine:
    """Runs a :class:`ScenarioSpec` through pluggable phase drivers.

    The spec is the one description of the run: the drivers and the nodes read
    its blocks directly.  The keywords are injection points for pre-built
    objects the spec cannot carry -- a driver sequence, observers, a shared
    group, a pinned RNG, node classes (merged over the adversary profile's),
    a shared parallel schedule, a transport -- which is how tests substitute
    fakes; none of them restates a spec field.
    """

    def __init__(
        self,
        spec: ScenarioSpec,
        *,
        drivers: Optional[Sequence[PhaseDriver]] = None,
        observers: Sequence[Observer] = (),
        group: Optional[Group] = None,
        rng: Optional[RandomSource] = None,
        vc_node_classes: Optional[Dict[str, Type[VoteCollectorNode]]] = None,
        bb_node_classes: Optional[Dict[str, Type[BulletinBoardNode]]] = None,
        trustee_classes: Optional[Dict[str, Type[Trustee]]] = None,
        parallel: Optional[ParallelConfig] = None,
        transport: Optional[Transport] = None,
    ):
        self.spec = spec
        self.drivers: List[PhaseDriver] = (
            list(drivers) if drivers is not None else default_drivers()
        )
        self.bus = EventBus(spec.election_id)
        for observer in observers:
            self.bus.subscribe(observer)
        self._group = group
        self._rng = rng
        self._vc_node_classes = vc_node_classes
        self._bb_node_classes = bb_node_classes
        self._trustee_classes = trustee_classes
        self._parallel = parallel
        self._transport = transport
        self.ctx: Optional[EngineContext] = None

    # -- observation -------------------------------------------------------------

    def subscribe(self, observer: Observer) -> None:
        """Receive every event of this engine's runs."""
        self.bus.subscribe(observer)

    @property
    def events(self) -> List:
        """All events emitted so far, in order."""
        return list(self.bus.history)

    # -- lifecycle ---------------------------------------------------------------

    def begin(
        self,
        choices: Optional[Sequence[str]] = None,
        voter_parts: Optional[Sequence[str]] = None,
    ) -> EngineContext:
        """Create a fresh run context: closes the previous run (its frozen heap
        and transport would otherwise be stranded) and resets its events."""
        self.close()
        self.bus.reset()
        spec = self.spec
        vc_classes = dict(spec.adversary.vc_classes())
        bb_classes = dict(spec.adversary.bb_classes())
        trustee_classes = dict(spec.adversary.trustee_classes())
        vc_classes.update(self._vc_node_classes or {})
        bb_classes.update(self._bb_node_classes or {})
        trustee_classes.update(self._trustee_classes or {})
        group = self._group if self._group is not None else spec.crypto.build_group()
        transport = (
            self._transport
            if self._transport is not None
            else spec.transport.build_transport(group)
        )
        self.ctx = EngineContext(
            spec=spec,
            params=spec.to_election_parameters(),
            group=group,
            rng=self._rng if self._rng is not None else RandomSource(spec.seed),
            bus=self.bus,
            vc_node_classes=vc_classes,
            bb_node_classes=bb_classes,
            trustee_classes=trustee_classes,
            parallel=self._parallel,
            transport=transport,
            choices=choices,
            voter_parts=voter_parts,
        )
        return self.ctx

    def driver(self, name: str) -> PhaseDriver:
        """Look up a driver of the configured sequence by phase name."""
        for driver in self.drivers:
            if driver.name == name:
                return driver
        raise KeyError(f"no {name!r} phase in this engine's driver sequence")

    def run_phase(self, driver: PhaseDriver, ctx: Optional[EngineContext] = None) -> None:
        """Run one driver wrapped in PhaseStarted/PhaseCompleted events."""
        ctx = ctx or self.ctx
        if ctx is None:
            raise RuntimeError("call begin() before running phases")
        self.bus.emit(PhaseStarted(phase=driver.name))
        started = ctx.sim_now
        driver.run(ctx)
        duration = ctx.sim_now - started
        ctx.phase_timings[driver.name] = duration
        self.bus.emit(PhaseCompleted(phase=driver.name, sim_duration=duration))

    def run(
        self, choices: Sequence[str], voter_parts: Optional[Sequence[str]] = None
    ) -> ElectionOutcome:
        """Run every phase in order and return the outcome."""
        ctx = self.begin(choices, voter_parts=voter_parts)
        try:
            for driver in self.drivers:
                if driver.should_run(ctx):
                    self.run_phase(driver, ctx)
        finally:
            self.close()
        receipts = sum(1 for voter in ctx.voters if voter.receipt is not None)
        self.bus.emit(ElectionCompleted(receipts=receipts))
        return self.outcome()

    def close(self) -> None:
        """Release the current run's transport resources (sockets, loops) and
        hand the set-up heap frozen by :class:`SetupDriver` back to the
        collector -- once no other run of this process holds a frozen one.

        Idempotent; byte/message counters on the run's network survive, so
        outcomes remain fully inspectable after closing.
        """
        global _frozen_runs
        ctx = self.ctx
        if ctx is None:
            return
        if ctx.heap_frozen:
            ctx.heap_frozen = False
            _frozen_runs -= 1
            if _frozen_runs == 0:
                gc.unfreeze()
        if ctx.transport is not None:
            ctx.transport.close()

    def outcome(self) -> ElectionOutcome:
        """Package the current context into an :class:`ElectionOutcome`."""
        ctx = self.ctx
        if ctx is None or ctx.setup is None:
            raise RuntimeError("no completed run to package")
        return ElectionOutcome(
            setup=ctx.setup,
            network=ctx.network,
            vote_collectors=ctx.vote_collectors,
            bb_nodes=ctx.bb_nodes,
            trustees=ctx.trustees,
            voters=ctx.voters,
            tally=ctx.tally,
            audit_report=ctx.audit_report,
            shard_commits=ctx.shard_commits,
            events=list(self.bus.history),
            phase_timings=dict(ctx.phase_timings),
            chaos_report=ctx.chaos.report() if ctx.chaos is not None else None,
        )
