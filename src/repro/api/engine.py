"""Event-driven election engine built from pluggable phase drivers.

:class:`ElectionEngine` is the one phase sequencer: :class:`PhaseDriver`
steps -- setup, voting, consensus, tally, audit -- run in order over a shared
:class:`EngineContext`, each through its one ``run(ctx)``.  Around every
driver the engine emits the typed events of :mod:`repro.api.events`
(``PhaseStarted`` / ``PhaseCompleted`` plus the driver's own events such as
``BallotAccepted`` and ``ConsensusDecided``), so benchmarks and tests observe
a run by subscribing instead of monkey-patching.

The :class:`ScenarioSpec` is the one description of a run.  The drivers read
its blocks where they need them (``spec.crypto`` for the group,
``spec.network`` / ``spec.adversary`` / ``spec.voter_patience`` /
``spec.stagger`` when the voting network is built, ``spec.audit`` for the
audit) and the nodes read ``ctx.params``, which carries the spec's own
``consensus`` / ``admission`` / ``audit`` objects; the engine restates none of
them as a keyword or a context field.  :func:`check_choices` refuses choices
and part coins that no run could cast before any set-up work is done.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.api.events import (
    AuditCompleted,
    BallotAccepted,
    ConsensusDecided,
    ElectionCompleted,
    EventBus,
    Observer,
    PhaseCompleted,
    PhaseStarted,
    TallyComputed,
)
from repro.api.spec import ScenarioSpec
from repro.core.auditor import Auditor
from repro.core.ballot import PARTS
from repro.core.bulletin_board import BulletinBoardNode, MajorityReader
from repro.core.ea import ElectionAuthority, ElectionSetup
from repro.core.election import (
    ElectionParameters,
    bb_node_id,
    trustee_id,
    vc_node_id,
    voter_id,
)
from repro.core.outcome import ElectionOutcome
from repro.core.tally import TallyResult
from repro.core.trustee import Trustee
from repro.core.vote_collector import VoteCollectorNode, total_vsc_stats
from repro.core.voter import VoterClient
from repro.crypto.group import Group
from repro.crypto.utils import RandomSource
from repro.net.chaos import ChaosController
from repro.net.codec import default_codec
from repro.net.simulator import Network
from repro.net.transport import Transport

#: Runs whose set-up heap sits in the collector's permanent generation.
#: ``gc.freeze()`` is process-wide: engines whose runs overlap share one
#: permanent generation, which goes back when the last of them closes.
_frozen_runs = 0


@dataclass
class EngineContext:
    """Mutable run state threaded through the phase drivers."""

    spec: ScenarioSpec
    params: ElectionParameters
    group: Group
    bus: EventBus
    #: transport the voting network will use (built from the spec's
    #: ``TransportProfile``; single-run -- TCP backends own real sockets).
    transport: Transport

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
    phase_timings: Dict[str, float] = field(default_factory=dict)
    #: this run is counted in ``_frozen_runs``
    heap_frozen: bool = False

    @property
    def sim_now(self) -> float:
        """Current simulated time (0 before the network exists)."""
        return self.network.now if self.network is not None else 0.0


class PhaseDriver:
    """One pluggable step of an election run: :meth:`run` does the phase's
    work on the shared context, and :meth:`should_run` says whether the
    engine's full run includes it."""

    name: str = "phase"

    def should_run(self, ctx: EngineContext) -> bool:
        """Whether the engine's full run includes this phase."""
        return True

    def run(self, ctx: EngineContext) -> None:
        """Do the phase's work and emit its summary events."""


class SetupDriver(PhaseDriver):
    """Phase 0: the EA produces all initialization data and is destroyed."""

    name = "setup"

    def run(self, ctx: EngineContext) -> None:
        authority = ElectionAuthority(ctx.params, group=ctx.group, rng=RandomSource(ctx.spec.seed))
        ctx.setup = authority.setup()
        # Collectors and trustees sign through the process codec; its registry
        # imports the modules of every registered type, so build it here,
        # before the timed phases and before the freeze below.
        default_codec()
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

    def deploy(self, ctx: EngineContext) -> None:
        """Build the network and register the nodes and voters on it (no
        simulated time passes)."""
        if ctx.setup is None:
            raise RuntimeError("the setup phase must run before voting")
        if ctx.choices is None:
            raise ValueError("an election run needs the voters' choices")
        params = ctx.params
        setup, spec = ctx.setup, ctx.spec
        ctx.network = Network(
            conditions=spec.network.conditions(seed=spec.seed),
            adversary=spec.adversary.build_adversary(),
            transport=ctx.transport,
        )
        ctx.bus.set_clock(lambda: ctx.network.now)

        # While voting is open every collector verifies one signature per
        # ballot under each collector key (Algorithm 1), so their tables
        # always amortize and the hot path never pays the lazy-promotion
        # probes.  No later phase verifies a collector signature: run()
        # releases the tables at close.
        for public in setup.bb_init.vc_public_keys.values():
            ctx.group.fixed_base(public)
        vc_classes = spec.adversary.vc_classes()
        bb_classes = spec.adversary.bb_classes()
        trustee_classes = spec.adversary.trustee_classes()
        for index in range(params.thresholds.num_vc):
            node_id = vc_node_id(index)
            cls = vc_classes.get(node_id, VoteCollectorNode)
            node = cls(setup.vc_init[node_id], params)
            ctx.vote_collectors.append(node)
            ctx.network.register(node)

        for index in range(params.thresholds.num_bb):
            node_id = bb_node_id(index)
            cls = bb_classes.get(node_id, BulletinBoardNode)
            node = cls(node_id, setup.bb_init, params, ctx.group)
            ctx.bb_nodes.append(node)
            ctx.network.register(node)

        # Trustees (not SimNodes: the tabulation phase is sequential).
        for index in range(params.thresholds.num_trustees):
            node_id = trustee_id(index)
            cls = trustee_classes.get(node_id, Trustee)
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

    def run(self, ctx: EngineContext) -> None:
        self.deploy(ctx)
        for index, voter in enumerate(ctx.voters):
            ctx.network.schedule(
                index * ctx.spec.stagger, voter.start_voting, description="voter-start"
            )
        if ctx.chaos is not None:
            ctx.chaos.install()
        try:
            ctx.network.run(until=ctx.params.election_end)
        finally:
            # Tables are accelerators only: a collector that verifies after
            # close (a RECOVER exchange, a late recovery) pays plain powers
            # until its keys earn tables again.
            ctx.group.release_fixed_bases(ctx.setup.bb_init.vc_public_keys.values())
        if ctx.heap_frozen:
            # The voting state (ballot records, certificates, receipts) lives
            # to the end of the run too: freeze it as set-up's heap is, so the
            # consensus, tally and audit phases' full collections skip it.
            gc.freeze()

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

    def run(self, ctx: EngineContext) -> None:
        end_time = ctx.params.election_end
        for node in ctx.vote_collectors:
            # Owned by the node: a VC that is crashed at election end misses
            # the close (its process is down) and must catch up on recovery.
            ctx.network.schedule_at(
                end_time, node.end_election, description="election-end", owner=node.node_id
            )
        ctx.network.run_until_idle()

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

    def run(self, ctx: EngineContext) -> None:
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
            return
        ctx.bus.emit(TallyComputed(tally=ctx.tally.as_dict()))


class AuditDriver(PhaseDriver):
    """Phase 5: an independent auditor verifies the whole election."""

    name = "audit"

    def should_run(self, ctx: EngineContext) -> bool:
        return ctx.spec.audit.enabled and ctx.tally is not None

    def run(self, ctx: EngineContext) -> None:
        audit = ctx.spec.audit
        auditor = Auditor(
            ctx.bb_nodes,
            ctx.params,
            ctx.group,
            security_bits=audit.security_bits,
        )
        delegations = [voter.audit_info() for voter in ctx.voters if voter.receipt is not None]
        ctx.audit_report = auditor.verify_all(delegations)
        ctx.bus.emit(
            AuditCompleted(
                passed=ctx.audit_report.passed,
                checks=len(ctx.audit_report.checks),
            )
        )


def default_drivers() -> List[PhaseDriver]:
    """The phase sequence: setup, voting, consensus, tally, audit."""
    return [
        SetupDriver(),
        VotingDriver(),
        ConsensusDriver(),
        TallyDriver(),
        AuditDriver(),
    ]


def check_choices(
    spec: ScenarioSpec,
    choices: Sequence[str],
    voter_parts: Optional[Sequence[str]] = None,
) -> None:
    """Refuse choices and part coins no run could cast, before any set-up.

    ``choices`` must hold exactly one of ``spec.options`` per voter and
    ``voter_parts`` (when given) exactly one of :data:`PARTS` per voter.  The
    ``ValueError`` names the first voter index at fault.
    """
    voters = spec.num_voters
    if len(choices) != voters:
        raise ValueError(
            f"election {spec.election_id!r} needs exactly {voters} choices (one choice "
            f"per voter), got {len(choices)}: voter {min(len(choices), voters)} is unmatched"
        )
    for index, choice in enumerate(choices):
        if choice not in spec.options:
            raise ValueError(f"voter {index}: {choice!r} is not one of {spec.options}")
    if voter_parts is None:
        return
    if len(voter_parts) != voters:
        raise ValueError(
            f"election {spec.election_id!r} needs exactly {voters} voter_parts (one part "
            f"per voter), got {len(voter_parts)}: voter {min(len(voter_parts), voters)} "
            "is unmatched"
        )
    for index, part in enumerate(voter_parts):
        if part not in PARTS:
            raise ValueError(f"voter {index}: ballot part {part!r} is not one of {PARTS}")


class ElectionEngine:
    """Runs a :class:`ScenarioSpec` through pluggable phase drivers.

    The spec is the one description of the run: the group, the EA's
    randomness (``spec.seed``), the transport and every Byzantine node (the
    adversary profile's behaviour names) come from it, and the drivers and the
    nodes read its blocks directly.  ``drivers`` replaces the phase sequence,
    which is how tests substitute a phase.  Observers join through
    :meth:`subscribe`.
    """

    def __init__(self, spec: ScenarioSpec, *, drivers: Optional[Sequence[PhaseDriver]] = None):
        self.spec = spec
        self.drivers: List[PhaseDriver] = (
            list(drivers) if drivers is not None else default_drivers()
        )
        self.bus = EventBus(spec.election_id)
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
        """Create a fresh run context: refuses ``choices`` / ``voter_parts``
        that :func:`check_choices` rejects, closes the previous run (its frozen
        heap and transport would otherwise be stranded) and resets its events."""
        if choices is not None:
            check_choices(self.spec, choices, voter_parts)
        self.close()
        self.bus.reset()
        spec = self.spec
        group = spec.crypto.build_group()
        self.ctx = EngineContext(
            spec=spec,
            params=spec.to_election_parameters(),
            group=group,
            bus=self.bus,
            transport=spec.transport.build_transport(group),
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
            events=list(self.bus.history),
            phase_timings=dict(ctx.phase_timings),
            chaos_report=ctx.chaos.report() if ctx.chaos is not None else None,
        )
