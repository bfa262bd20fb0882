"""Declarative election scenarios: the typed configuration layer of the API.

A :class:`ScenarioSpec` is a frozen, composable description of *one* election
run: what is being voted on, how the replicated subsystems are sized, and how
its orthogonal concerns are configured:

* :class:`ConsensusConfig` -- Vote Set Consensus batching;
* :class:`AuditConfig`     -- end-of-election audit strategy and parallelism;
* :class:`AdmissionProfile` -- the voting-phase admission pipeline: batched
  endorsement verification and the bounded admission queue in front of the
  VOTE handler (shed-with-retry-hint vs. block);
* :class:`NetworkProfile`  -- simulator latency, jitter, loss and duplication;
* :class:`AdversaryProfile` -- which nodes misbehave and how (by name, so the
  spec stays serializable);
* :class:`CryptoProfile`   -- group backend and proof generation;
* :class:`TransportProfile` -- how message bytes travel (in-memory reference
  passing, canonical wire encoding with byte accounting, or real TCP
  loopback sockets);
* :class:`FaultPlan`       -- timed crash / recover / partition / loss-burst /
  clock-skew events;
* :class:`ShardingProfile` -- ballot-range sharding of the pipeline: how many
  contiguous serial-range shards the electorate splits into, and how each
  shard's election slice is sized in the scale pipeline
  (:class:`repro.shard.driver.ShardedElectionDriver`).

**A field is declared once.**  The first three blocks are the ones protocol
nodes read, so they are defined in :mod:`repro.core.election` (and re-exported
here); :meth:`ScenarioSpec.to_election_parameters` hands those very instances
to the core layer, which reads ``params.consensus.batch_size``,
``params.admission.queue_depth``... with no flattened copy in between.  Every
block validates itself in ``__post_init__`` and inherits ``to_dict`` /
``from_dict`` from :class:`repro.core.election.DictCodec`, which derives both
from the dataclass fields and their declared types: no class in this module
names a field in a serialiser.  ``from_dict`` takes a missing key as the
field's default and raises ``ValueError`` (block and key named) for an unknown
key, a scalar of another type than the declared one (``"false"`` is no bool),
or a string where a sequence is declared.

Specs ship with named presets (``paper_baseline``, ``batched_fast``,
``byzantine_stress``, ``national_scale``).  Two pipelines run them:
:class:`repro.api.engine.ElectionEngine` (full cryptographic runs on the
simulator) and ``MultiElectionService.run_sharded`` (the scale pipeline).

**This module is configuration only.**  It imports no node, transport or
simulator code at module level: each method that builds one of those
(:meth:`NetworkProfile.conditions`, :meth:`AdversaryProfile.build_adversary`,
:meth:`TransportProfile.build_transport`) imports it where it builds it, and
behaviour names resolve through the registries of :mod:`repro.core.byzantine`,
which load only when a profile names one.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, Mapping, Optional, Tuple, Union

from repro.core.election import (
    AdmissionProfile,
    AuditConfig,
    ConsensusConfig,
    DictCodec,
    ElectionParameters,
    FaultThresholds,
    bb_node_id,
    trustee_id,
    vc_node_id,
    voter_id,
)
from repro.crypto.registry import get_group, resolve_backend_name

if TYPE_CHECKING:
    from repro.crypto.group import Group
    from repro.net.adversary import Adversary, NetworkConditions
    from repro.net.transport import Transport


def _behavior_classes(kind: str, behaviors: Mapping[str, str]) -> Dict[str, type]:
    """``node -> class`` for the ``kind`` ("VC", "BB" or "trustee") behaviours
    named in ``behaviors``; ``ValueError`` for a name the registry lacks."""
    if not behaviors:
        return {}
    from repro.core import byzantine

    registry = getattr(byzantine, f"{kind.upper()}_BEHAVIORS")
    for node, behavior in behaviors.items():
        if behavior not in registry:
            raise ValueError(
                f"unknown {kind} behaviour {behavior!r} for {node}; known: {sorted(registry)}"
            )
    return {node: registry[behavior] for node, behavior in behaviors.items()}


@dataclass(frozen=True)
class NetworkProfile(DictCodec):
    """Network behaviour of a scenario.

    The fields drive :class:`repro.net.adversary.NetworkConditions`, the
    simulator's per-message latency, jitter, loss and duplication.
    """

    kind: str = "lan"
    base_latency_s: float = 0.0002
    jitter_s: float = 0.0001
    drop_rate: float = 0.0
    duplicate_rate: float = 0.0
    max_delay_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.base_latency_s < 0 or self.jitter_s < 0:
            raise ValueError("latencies cannot be negative")
        if not 0.0 <= self.drop_rate < 1.0:
            raise ValueError("drop rate must be in [0, 1)")
        if not 0.0 <= self.duplicate_rate < 1.0:
            raise ValueError("duplicate rate must be in [0, 1)")
        if self.max_delay_s is not None and self.max_delay_s <= 0:
            raise ValueError("max delay must be positive when set")

    @classmethod
    def lan(cls, **overrides: Any) -> "NetworkProfile":
        """Gigabit-LAN profile (sub-millisecond latency), as in the paper's cluster."""
        return cls(kind="lan", **overrides)

    @classmethod
    def wan(cls, **overrides: Any) -> "NetworkProfile":
        """Emulated WAN: 25 ms one-way latency (US coast-to-coast)."""
        defaults = dict(kind="wan", base_latency_s=0.025, jitter_s=0.002)
        defaults.update(overrides)
        return cls(**defaults)

    def conditions(self, seed: Optional[int] = None) -> NetworkConditions:
        """The discrete-event simulator view of this profile."""
        from repro.net.adversary import NetworkConditions

        return NetworkConditions(
            base_latency=self.base_latency_s,
            jitter=self.jitter_s,
            drop_rate=self.drop_rate,
            duplicate_rate=self.duplicate_rate,
            max_delay=self.max_delay_s,
            seed=seed,
        )


@dataclass(frozen=True)
class AdversaryProfile(DictCodec):
    """Which nodes misbehave, by node id and registered behaviour name.

    Behaviour names resolve through the registries of
    :mod:`repro.core.byzantine` (``VC_BEHAVIORS``, ``BB_BEHAVIORS``,
    ``TRUSTEE_BEHAVIORS``), keeping the profile serializable; an unknown name
    raises here, at construction.  ``blocked_links`` are (sender, receiver)
    pairs the network adversary silently drops.
    """

    vc_behaviors: Mapping[str, str] = field(default_factory=dict)
    bb_behaviors: Mapping[str, str] = field(default_factory=dict)
    trustee_behaviors: Mapping[str, str] = field(default_factory=dict)
    blocked_links: Tuple[Tuple[str, str], ...] = ()

    def __post_init__(self) -> None:
        # Resolve every name now, so an unknown one raises at construction.
        self.vc_classes()
        self.bb_classes()
        self.trustee_classes()

    @property
    def is_honest(self) -> bool:
        """True when no node misbehaves and no links are blocked."""
        return not (
            self.vc_behaviors or self.bb_behaviors or self.trustee_behaviors
            or self.blocked_links
        )

    def vc_classes(self) -> Dict[str, type]:
        return _behavior_classes("VC", self.vc_behaviors)

    def bb_classes(self) -> Dict[str, type]:
        return _behavior_classes("BB", self.bb_behaviors)

    def trustee_classes(self) -> Dict[str, type]:
        return _behavior_classes("trustee", self.trustee_behaviors)

    def build_adversary(self) -> Adversary:
        """The network-layer adversary implied by this profile."""
        from repro.net.adversary import Adversary

        return Adversary(blocked_links=set(self.blocked_links))


# ---------------------------------------------------------------------------
# Timed fault injection (chaos scenarios)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CrashNode(DictCodec):
    """Crash a vote-collector process at simulated time ``t``.

    The node stops receiving messages and loses its in-memory timers; its
    durable state is snapshotted through the wire codec at crash time, as if
    taken from write-ahead storage.
    """

    KIND = "crash"

    t: float
    node: str

    def __post_init__(self) -> None:
        if not math.isfinite(self.t) or self.t < 0:
            raise ValueError("crash time must be a finite non-negative number")


@dataclass(frozen=True)
class RecoverNode(DictCodec):
    """Restart a previously crashed node at ``t`` from its crash snapshot.

    If the election has already closed when the node comes back, it catches
    up by majority-reading the agreed vote set from the Bulletin Board
    instead of joining the (finished) consensus instances.
    """

    KIND = "recover"

    t: float
    node: str

    def __post_init__(self) -> None:
        if not math.isfinite(self.t) or self.t < 0:
            raise ValueError("recovery time must be a finite non-negative number")


@dataclass(frozen=True)
class Partition(DictCodec):
    """Split the named nodes into disconnected groups for a time window.

    Every cross-group link is blocked (both directions) at ``t_start`` and
    healed at ``t_end``.  Links blocked independently (e.g. by an
    :class:`AdversaryProfile`) are untouched by the heal.
    """

    KIND = "partition"

    t_start: float
    t_end: float
    groups: Tuple[Tuple[str, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "groups", tuple(tuple(group) for group in self.groups)
        )
        if not math.isfinite(self.t_start) or self.t_start < 0:
            raise ValueError("partition start must be a finite non-negative number")
        if not math.isfinite(self.t_end) or self.t_end <= self.t_start:
            raise ValueError("partition must end after it starts")
        if len(self.groups) < 2:
            raise ValueError("a partition needs at least two groups")
        if any(not group for group in self.groups):
            raise ValueError("partition groups cannot be empty")
        seen: set = set()
        for group in self.groups:
            for node in group:
                if node in seen:
                    raise ValueError(f"node {node!r} appears in more than one partition group")
                seen.add(node)

    @property
    def nodes(self) -> frozenset:
        """Every node this partition touches."""
        return frozenset(node for group in self.groups for node in group)


@dataclass(frozen=True)
class LossBurst(DictCodec):
    """Raise the network drop rate to ``rate`` for a time window.

    The previous drop rate is restored at ``t_end``; the latency/loss RNG
    stream continues uninterrupted across both edges (see
    :meth:`repro.net.adversary.NetworkConditions.replace`).
    """

    KIND = "loss_burst"

    t_start: float
    t_end: float
    rate: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.t_start) or self.t_start < 0:
            raise ValueError("loss burst start must be a finite non-negative number")
        if not math.isfinite(self.t_end) or self.t_end <= self.t_start:
            raise ValueError("loss burst must end after it starts")
        if not 0.0 < self.rate < 1.0:
            raise ValueError("loss burst rate must be in (0, 1)")


@dataclass(frozen=True)
class ClockSkew(DictCodec):
    """Set a node's internal clock drift to ``drift`` at time ``t``.

    The liveness model only bounds honest drift by ``Delta``; a skewed clock
    shifts when the node *believes* voting hours end, which is exactly the
    hazard the paper's timed assumptions guard.
    """

    KIND = "clock_skew"

    node: str
    drift: float
    t: float = 0.0

    def __post_init__(self) -> None:
        if not math.isfinite(self.drift):
            raise ValueError("clock drift must be finite")
        if not math.isfinite(self.t) or self.t < 0:
            raise ValueError("skew time must be a finite non-negative number")


FaultEvent = Union[CrashNode, RecoverNode, Partition, LossBurst, ClockSkew]

@dataclass(frozen=True)
class FaultPlan(DictCodec):
    """A validated schedule of timed fault events for one election run.

    The plan is declarative and serializable; at run time the
    :class:`repro.net.chaos.ChaosController` turns it into simulator events.
    ``expect_failure=True`` marks scenarios that deliberately exceed the
    paper's fault thresholds -- the spec-level threshold check is skipped and
    the chaos harness asserts that liveness *does* fail.
    """

    events: Tuple[FaultEvent, ...] = ()
    expect_failure: bool = False

    def __post_init__(self) -> None:
        if not isinstance(self.events, tuple):
            object.__setattr__(self, "events", tuple(self.events))
        self._validate_crash_ordering()
        self._validate_partitions()
        self._validate_loss_bursts()

    def _validate_crash_ordering(self) -> None:
        """Per node: crash/recover events must alternate, starting with a crash."""
        per_node: Dict[str, list] = {}
        for event in self.events:
            if isinstance(event, (CrashNode, RecoverNode)):
                per_node.setdefault(event.node, []).append(event)
        for node, events in per_node.items():
            events.sort(key=lambda e: (e.t, isinstance(e, RecoverNode)))
            down = False
            last_t: Optional[float] = None
            for event in events:
                if last_t is not None and event.t == last_t:
                    raise ValueError(
                        f"simultaneous crash/recovery events for {node!r} at t={event.t}"
                    )
                if isinstance(event, CrashNode):
                    if down:
                        raise ValueError(f"{node!r} crashes twice without recovering")
                    down = True
                else:
                    if not down:
                        raise ValueError(
                            f"{node!r} recovers at t={event.t} before any crash"
                        )
                    down = False
                last_t = event.t

    def _validate_partitions(self) -> None:
        partitions = [e for e in self.events if isinstance(e, Partition)]
        for i, first in enumerate(partitions):
            for second in partitions[i + 1:]:
                overlap = (
                    first.t_start < second.t_end and second.t_start < first.t_end
                )
                if overlap and (first.nodes & second.nodes):
                    shared = sorted(first.nodes & second.nodes)
                    raise ValueError(
                        f"overlapping partitions share nodes {shared}; "
                        "stagger them or merge their groups"
                    )

    def _validate_loss_bursts(self) -> None:
        bursts = sorted(
            (e for e in self.events if isinstance(e, LossBurst)),
            key=lambda e: e.t_start,
        )
        for first, second in zip(bursts, bursts[1:], strict=False):
            if second.t_start < first.t_end:
                raise ValueError("loss bursts cannot overlap")

    # -- derived views ----------------------------------------------------------

    @property
    def is_empty(self) -> bool:
        return not self.events

    @property
    def crashed_nodes(self) -> frozenset:
        """Every node the plan crashes at some point."""
        return frozenset(e.node for e in self.events if isinstance(e, CrashNode))

    @property
    def unrecovered_nodes(self) -> frozenset:
        """Nodes left crashed at the end of the plan."""
        down: set = set()
        for event in sorted(
            (e for e in self.events if isinstance(e, (CrashNode, RecoverNode))),
            key=lambda e: (e.t, isinstance(e, RecoverNode)),
        ):
            if isinstance(event, CrashNode):
                down.add(event.node)
            else:
                down.discard(event.node)
        return frozenset(down)

    def events_of(self, *kinds: type) -> Tuple[FaultEvent, ...]:
        """The plan's events of the given types, in schedule order."""
        return tuple(e for e in self.events if isinstance(e, kinds))


@dataclass(frozen=True)
class TransportProfile(DictCodec):
    """How protocol messages travel between simulated nodes.

    ``backend`` picks the delivery mechanism:

    * ``"memory"`` -- the historical in-process delivery (payloads passed by
      reference, zero serialization cost);
    * ``"tcp"`` -- an asyncio TCP loopback transport: every message's
      canonical frame crosses a real socket pair before delivery.

    ``wire_format=True`` routes every payload through the canonical binary
    codec (:mod:`repro.net.codec`) even on the memory backend, so the run
    counts real wire bytes (``Network.bytes_sent`` / ``bytes_delivered``) and
    proves every message type is encodable.  The TCP backend always uses the
    wire format.
    """

    backend: str = "memory"
    wire_format: bool = False

    def __post_init__(self) -> None:
        if self.backend not in ("memory", "tcp"):
            raise ValueError("transport backend must be 'memory' or 'tcp'")
        if self.backend == "tcp" and not self.wire_format:
            object.__setattr__(self, "wire_format", True)

    @classmethod
    def memory(cls) -> "TransportProfile":
        """Reference-passing in-process delivery (no byte accounting)."""
        return cls(backend="memory", wire_format=False)

    @classmethod
    def wire(cls) -> "TransportProfile":
        """In-process delivery with canonical encoding and byte accounting."""
        return cls(backend="memory", wire_format=True)

    @classmethod
    def tcp(cls) -> "TransportProfile":
        """Real TCP loopback sockets (implies the wire format)."""
        return cls(backend="tcp", wire_format=True)

    def build_transport(self, group: Optional[Group] = None) -> Transport:
        """A fresh single-run transport implementing this profile."""
        from repro.net.codec import MessageCodec
        from repro.net.transport import InProcessTransport, TcpLoopbackTransport

        if self.backend == "tcp":
            return TcpLoopbackTransport(codec=MessageCodec(group=group))
        if self.wire_format:
            return InProcessTransport(codec=MessageCodec(group=group))
        return InProcessTransport()


@dataclass(frozen=True)
class CryptoProfile(DictCodec):
    """Cryptographic backend selection.

    ``backend`` names a group backend in the crypto registry
    (:func:`repro.crypto.registry.get_group`): ``schnorr`` (pure-python reference, the
    default), ``schnorr-gmpy2`` (GMP-accelerated; falls back to pure python
    when gmpy2 is absent), ``secp256k1`` (legacy alias ``ec``), or
    ``ed25519`` (32-byte wire elements).  The name is validated against the
    registry at construction time and stored canonically, so it survives
    ``to_dict``/``from_dict`` round-trips.  ``include_proofs=False`` skips
    ballot-correctness proof generation during setup, which speeds up
    scenarios that never audit.
    """

    backend: str = "schnorr"
    include_proofs: bool = True

    def __post_init__(self) -> None:
        object.__setattr__(self, "backend", resolve_backend_name(self.backend))

    def build_group(self) -> Group:
        return get_group(self.backend)


@dataclass(frozen=True)
class ShardingProfile(DictCodec):
    """Ballot-range sharding of the election pipeline.

    ``num_shards`` splits the ballot-serial space into that many contiguous
    ranges (a :class:`repro.shard.partition.ShardPlan`).  With ``num_shards == 1`` the
    pipeline is the classic unsharded run.  Sharding never changes the
    outcome: superblock partitions simply stop crossing shard boundaries and
    the tally commitment is combined shard-product by shard-product, both of
    which are exact regroupings of the same group products.

    The ``scale_*`` knobs size each shard's election slice in the scale
    pipeline (``MultiElectionService.run_sharded``): collectors per shard,
    Vote Set Consensus superblock size, and the deterministic turnout
    fraction of the derived electorate.

    ``workers`` says where :class:`repro.shard.driver.ShardedElectionDriver` runs
    the shard slices: 1 (the default) maps them in-process one at a time; >1
    runs the same slice function on a warm process pool, with outcomes
    bit-identical by construction.  ``max_inflight_shards`` bounds how many
    shards may be pending at once under the pool (``None`` = twice the worker
    count), capping a pooled run's peak memory at O(inflight x shard).
    """

    num_shards: int = 1
    scale_collectors: int = 4
    scale_batch_size: int = 1024
    scale_turnout: float = 1.0
    workers: int = 1
    max_inflight_shards: Optional[int] = None

    def __post_init__(self) -> None:
        if self.num_shards < 1:
            raise ValueError("num_shards must be at least 1")
        if self.scale_collectors < 1:
            raise ValueError("each shard needs at least one collector")
        if self.scale_batch_size < 1:
            raise ValueError("scale_batch_size must be at least 1")
        if not 0.0 < self.scale_turnout <= 1.0:
            raise ValueError("scale_turnout must be in (0, 1]")
        if self.workers < 1:
            raise ValueError("workers must be at least 1")
        if self.max_inflight_shards is not None and self.max_inflight_shards < 1:
            raise ValueError("max_inflight_shards must be at least 1 (or None)")

    @property
    def enabled(self) -> bool:
        return self.num_shards > 1

    def plan(self, num_serials: int):
        """The shard plan over serials ``[0, num_serials)``."""
        from repro.shard.partition import ShardPlan

        return ShardPlan.split(0, num_serials, self.num_shards)


@dataclass(frozen=True)
class ScenarioSpec(DictCodec):
    """One complete, validated election scenario."""

    options: Tuple[str, ...] = ("option-1", "option-2")
    num_voters: int = 4
    num_vc: int = 4
    num_bb: int = 3
    num_trustees: int = 3
    trustee_threshold: int = 2
    election_id: str = "election-1"
    election_start: float = 0.0
    election_end: float = 1_000.0
    #: root seed of the run: EA randomness, network jitter and the voters'
    #: part coins all derive from it, so a scenario is reproducible end to end.
    seed: int = 7
    voter_patience: float = 50.0
    stagger: float = 0.5
    #: ballots the sharded pipeline derives when ``run_sharded`` is given no
    #: count (defaults to the number of simulated voters when unset); the
    #: full-crypto engine always generates ``num_voters`` real ballots.
    registered_ballots: Optional[int] = None
    consensus: ConsensusConfig = field(default_factory=ConsensusConfig)
    audit: AuditConfig = field(default_factory=AuditConfig)
    admission: AdmissionProfile = field(default_factory=AdmissionProfile)
    network: NetworkProfile = field(default_factory=NetworkProfile)
    adversary: AdversaryProfile = field(default_factory=AdversaryProfile)
    crypto: CryptoProfile = field(default_factory=CryptoProfile)
    transport: TransportProfile = field(default_factory=TransportProfile)
    faults: FaultPlan = field(default_factory=FaultPlan)
    sharding: ShardingProfile = field(default_factory=ShardingProfile)

    def __post_init__(self) -> None:
        if not isinstance(self.options, tuple):
            object.__setattr__(self, "options", tuple(self.options))
        if self.voter_patience <= 0:
            raise ValueError("voter patience must be positive")
        if self.stagger < 0:
            raise ValueError("voter stagger cannot be negative")
        if self.registered_ballots is not None and self.registered_ballots < self.num_voters:
            raise ValueError("registered ballots cannot be fewer than the simulated voters")
        # Delegate option/threshold/voting-hour validation to the core layer.
        params = self.to_election_parameters()
        self._validate_adversary(params.thresholds)
        self._validate_faults(params.thresholds)

    def _validate_adversary(self, thresholds: FaultThresholds) -> None:
        valid_vc = {vc_node_id(i) for i in range(self.num_vc)}
        valid_bb = {bb_node_id(i) for i in range(self.num_bb)}
        valid_trustees = {trustee_id(i) for i in range(self.num_trustees)}
        unknown = set(self.adversary.vc_behaviors) - valid_vc
        if unknown:
            raise ValueError(f"adversary names VC nodes outside the deployment: {sorted(unknown)}")
        unknown = set(self.adversary.bb_behaviors) - valid_bb
        if unknown:
            raise ValueError(f"adversary names BB nodes outside the deployment: {sorted(unknown)}")
        unknown = set(self.adversary.trustee_behaviors) - valid_trustees
        if unknown:
            raise ValueError(f"adversary names trustees outside the deployment: {sorted(unknown)}")
        if len(self.adversary.vc_behaviors) > thresholds.max_faulty_vc:
            raise ValueError(
                f"{len(self.adversary.vc_behaviors)} Byzantine VC nodes exceed the "
                f"fault threshold fv={thresholds.max_faulty_vc} (Nv={self.num_vc})"
            )
        if len(self.adversary.bb_behaviors) > thresholds.max_faulty_bb:
            raise ValueError(
                f"{len(self.adversary.bb_behaviors)} Byzantine BB nodes exceed the "
                f"fault threshold fb={thresholds.max_faulty_bb} (Nb={self.num_bb})"
            )
        if len(self.adversary.trustee_behaviors) > thresholds.max_faulty_trustees:
            raise ValueError(
                f"{len(self.adversary.trustee_behaviors)} corrupt trustees exceed the "
                f"tolerated Nt - ht = {thresholds.max_faulty_trustees}"
            )

    def _validate_faults(self, thresholds: FaultThresholds) -> None:
        valid_vc = {vc_node_id(i) for i in range(self.num_vc)}
        valid_any = (
            valid_vc
            | {bb_node_id(i) for i in range(self.num_bb)}
            | {voter_id(i) for i in range(self.num_voters)}
        )
        for event in self.faults.events:
            if isinstance(event, (CrashNode, RecoverNode)):
                # Crash/recovery is a VC-subsystem capability: BB nodes are
                # replicated-storage replicas the paper assumes fail-stop
                # within fb, and voters simply stop participating.
                if event.node not in valid_vc:
                    raise ValueError(
                        f"fault plan crashes/recovers {event.node!r}, which is not a "
                        f"VC node of this deployment (Nv={self.num_vc})"
                    )
            elif isinstance(event, Partition):
                unknown = event.nodes - valid_any
                if unknown:
                    raise ValueError(
                        f"fault plan partitions unknown nodes: {sorted(unknown)}"
                    )
            elif isinstance(event, ClockSkew):
                if event.node not in valid_any:
                    raise ValueError(
                        f"fault plan skews the clock of unknown node {event.node!r}"
                    )
            start = getattr(event, "t", None)
            if start is None:
                start = event.t_start
            # Recovery may land after voting hours (the node then catches up
            # from the BB); everything else must start within the election.
            if not isinstance(event, RecoverNode) and not (
                self.election_start <= start <= self.election_end
            ):
                raise ValueError(
                    f"fault event at t={start} lies outside the election window "
                    f"[{self.election_start}, {self.election_end}]"
                )
        if not self.faults.expect_failure:
            # Byzantine and crashed VC nodes draw from the same fv budget: a
            # crashed-then-recovered node counts while it is down, so the
            # conservative bound is every node the plan ever crashes.
            faulty_vc = set(self.adversary.vc_behaviors) | set(self.faults.crashed_nodes)
            if len(faulty_vc) > thresholds.max_faulty_vc:
                raise ValueError(
                    f"{len(faulty_vc)} simultaneously faulty VC nodes (Byzantine + "
                    f"crashed) exceed fv={thresholds.max_faulty_vc} (Nv={self.num_vc}); "
                    "set faults.expect_failure=True to run an above-threshold scenario"
                )

    # -- derived views ----------------------------------------------------------

    @property
    def num_options(self) -> int:
        return len(self.options)

    @property
    def electorate(self) -> int:
        """Registered-electorate size: the sharded pipeline's default ballot count."""
        return self.registered_ballots if self.registered_ballots is not None else self.num_voters

    def to_election_parameters(self) -> ElectionParameters:
        """The core-layer parameter object this spec describes; it carries this
        spec's own ``consensus`` / ``admission`` / ``audit`` blocks."""
        return ElectionParameters(
            options=self.options,
            num_voters=self.num_voters,
            thresholds=FaultThresholds(
                self.num_vc, self.num_bb, self.num_trustees, self.trustee_threshold
            ),
            election_start=self.election_start,
            election_end=self.election_end,
            election_id=self.election_id,
            consensus=self.consensus,
            admission=self.admission,
            audit=self.audit,
            num_shards=self.sharding.num_shards,
        )

    def derive(self, **changes: Any) -> "ScenarioSpec":
        """A copy of this spec with the given fields replaced (re-validated)."""
        return dataclasses.replace(self, **changes)

    # -- presets -----------------------------------------------------------------

    @classmethod
    def preset(cls, name: str, **changes: Any) -> "ScenarioSpec":
        """Look up a named preset, optionally deriving field overrides."""
        try:
            factory = PRESETS[name]
        except KeyError:
            raise ValueError(f"unknown preset {name!r}; known: {sorted(PRESETS)}") from None
        spec = factory()
        return spec.derive(**changes) if changes else spec


def paper_baseline() -> ScenarioSpec:
    """The paper's per-ballot protocol on the default small deployment.

    One consensus instance per ballot, batched audit on one worker, LAN
    conditions, honest everything.
    """
    return ScenarioSpec(
        options=("option-1", "option-2", "option-3"),
        num_voters=5,
        num_vc=4,
        num_bb=3,
        num_trustees=3,
        trustee_threshold=2,
        election_id="paper-baseline",
        election_end=500.0,
    )


def batched_fast() -> ScenarioSpec:
    """Superblock Vote Set Consensus + batched parallel audit (PRs 1-2)."""
    return ScenarioSpec(
        options=("option-1", "option-2", "option-3"),
        num_voters=16,
        num_vc=4,
        num_bb=3,
        num_trustees=3,
        trustee_threshold=2,
        election_id="batched-fast",
        election_end=500.0,
        consensus=ConsensusConfig(batch_size=8),
        audit=AuditConfig(batch=True, workers=1, security_bits=64),
    )


def byzantine_stress() -> ScenarioSpec:
    """Maximal in-threshold corruption: one equivocating VC, one withholding BB."""
    return ScenarioSpec(
        options=("option-1", "option-2"),
        num_voters=4,
        num_vc=4,
        num_bb=3,
        num_trustees=3,
        trustee_threshold=2,
        election_id="byzantine-stress",
        election_end=400.0,
        voter_patience=10.0,
        adversary=AdversaryProfile(
            vc_behaviors={"VC-3": "equivocating"},
            bb_behaviors={"BB-1": "withholding"},
        ),
    )


def national_scale() -> ScenarioSpec:
    """The paper's motivating deployment: a national yes/no referendum.

    The registered electorate matches the 2012 US voting population: it is
    the ballot count ``MultiElectionService.run_sharded`` derives by default,
    while the full-crypto engine runs a scaled-down rehearsal
    (``num_voters``).  The pipeline runs sharded — four
    ballot-range shards — which changes memory behaviour only: the rehearsal
    outcome hash is identical to the unsharded run (the determinism harness
    checks exactly that).
    """
    return ScenarioSpec(
        options=("yes", "no"),
        num_voters=6,
        num_vc=4,
        num_bb=3,
        num_trustees=3,
        trustee_threshold=2,
        election_id="national-referendum",
        election_end=500.0,
        registered_ballots=235_000_000,
        sharding=ShardingProfile(num_shards=4),
    )


#: Named scenario presets, each a zero-argument factory.
PRESETS: Dict[str, Any] = {
    "paper_baseline": paper_baseline,
    "batched_fast": batched_fast,
    "byzantine_stress": byzantine_stress,
    "national_scale": national_scale,
}
