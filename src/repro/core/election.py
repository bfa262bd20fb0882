"""Election parameters, fault-tolerance thresholds and the configuration blocks
the protocol nodes read.

An election (Section III-A of the paper) has a single question with ``m``
options, ``n`` voters, defined voting hours, and three replicated subsystems
whose sizes and fault thresholds must satisfy:

* Vote Collectors: ``Nv >= 3 fv + 1``
* Bulletin Board:  ``Nb >= 2 fb + 1``
* Trustees:        ``ht``-out-of-``Nt`` threshold (tolerating ``Nt - ht`` faults)

:class:`ElectionParameters` is that definition plus the three blocks a node
consults while it runs -- :class:`ConsensusConfig`, :class:`AdmissionProfile`,
:class:`AuditConfig` -- plus the canonical node names
(:func:`vc_node_id`, :func:`bb_node_id`, :func:`trustee_id`,
:func:`voter_id`).  The blocks are declared here,
once: :class:`repro.api.spec.ScenarioSpec` holds the same classes and
``to_election_parameters()`` hands its own instances over, so a node reads
``params.consensus.batch_size`` off the very object the scenario was written
with.  Each block validates itself in ``__post_init__``; nothing re-validates
it downstream.

:class:`DictCodec` is the one dict serialiser of every configuration block
(these three and the ones in :mod:`repro.api.spec`): ``to_dict`` /
``from_dict`` are derived from ``dataclasses.fields`` and the declared field
types, so a field's name and default are written only where it is declared.
"""

from __future__ import annotations

import dataclasses
import math
import typing
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Any, Dict, Mapping, Optional, Sequence, Union

from repro.values import frozen_value

_hints = lru_cache(maxsize=None)(typing.get_type_hints)


def _plain(value: Any) -> Any:
    """JSON-compatible form of a field value (blocks, tuples and maps recurse)."""
    if isinstance(value, DictCodec):
        return value.to_dict()
    if isinstance(value, (tuple, list)):
        return [_plain(item) for item in value]
    if isinstance(value, Mapping):
        return {key: _plain(item) for key, item in value.items()}
    return value


def _parse(declared: Any, value: Any, where: str) -> Any:
    """``value`` as the declared field type wants it; ``ValueError`` naming
    ``where`` (``Block.key``) when it cannot mean that."""
    origin, args = typing.get_origin(declared), typing.get_args(declared)
    if origin is Union:
        if type(None) in args:  # Optional[T]
            inner = next(arg for arg in args if arg is not type(None))
            return None if value is None else _parse(inner, value, where)
        # A union of ``KIND``-tagged blocks: the entry's "kind" picks the class.
        kinds = {member.KIND: member for member in args}
        kind = value.get("kind") if isinstance(value, Mapping) else None
        if kind not in kinds:
            raise ValueError(f"{where}: unknown fault-event kind {kind!r}; known: {sorted(kinds)}")
        return kinds[kind].from_dict(value)
    if origin is tuple:
        if not isinstance(value, (list, tuple)):
            raise ValueError(f"{where}: expected a list, got {value!r}")
        if args[-1] is Ellipsis:
            return tuple(_parse(args[0], item, where) for item in value)
        if len(value) != len(args):
            raise ValueError(f"{where}: expected {len(args)} items, got {value!r}")
        return tuple(_parse(arg, item, where) for arg, item in zip(args, value, strict=True))
    if origin is not None and issubclass(origin, Mapping):
        if not isinstance(value, Mapping):
            raise ValueError(f"{where}: expected a mapping, got {value!r}")
        return {str(key): _parse(args[1], item, where) for key, item in value.items()}
    if issubclass(declared, DictCodec):
        if not isinstance(value, Mapping):
            raise ValueError(f"{where}: expected a mapping, got {value!r}")
        return declared.from_dict(value)
    # A scalar: bool, int, float or str, taken only as itself (``"false"`` is
    # no bool, ``True`` no int), except that JSON writes whole floats as ints.
    if declared is float and type(value) is int:
        return float(value)
    if type(value) is not declared:
        raise ValueError(f"{where}: expected {declared.__name__}, got {value!r}")
    return value


class DictCodec:
    """``to_dict`` / ``from_dict`` of a configuration dataclass, from its fields.

    ``to_dict`` emits the fields in declaration order (after ``"kind"`` for a
    class that sets ``KIND``, the tag of a member of a union).  ``from_dict``
    takes a missing key as the field's default and refuses, with a
    ``ValueError`` naming the block and the key, a key the block does not
    declare, a missing key of a field without a default, a scalar of another
    type than the declared one (``"false"`` for a bool, ``"5"`` or ``true`` for
    an int; an int is taken for a float) and a string where a sequence is
    declared; the block's own ``__post_init__`` then validates the values.
    """

    __slots__ = ()

    KIND: typing.ClassVar[Optional[str]] = None

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-compatible plain-dict encoding of this block."""
        out = {} if self.KIND is None else {"kind": self.KIND}
        for f in dataclasses.fields(self):
            out[f.name] = _plain(getattr(self, f.name))
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]):
        """Rebuild a block from :meth:`to_dict` output (its validation applies)."""
        hints, values = _hints(cls), {}
        for f in dataclasses.fields(cls):
            if f.name in data:
                values[f.name] = _parse(hints[f.name], data[f.name], f"{cls.__name__}.{f.name}")
            elif f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING:
                raise ValueError(f"{cls.__name__}: required key {f.name!r} is missing")
        for key in data:
            if key not in values and (key != "kind" or data[key] != cls.KIND):
                raise ValueError(f"{cls.__name__}: unknown key {key!r}")
        return cls(**values)


@frozen_value
class ConsensusConfig(DictCodec):
    """Vote Set Consensus configuration.

    ``batch_size=1`` runs the paper's one binary consensus instance per
    ballot; larger values decide whole superblocks per instance, falling back
    to per-ballot consensus for blocks with disagreement.
    """

    batch_size: int = 1

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise ValueError("consensus batch size must be at least 1")


@frozen_value
class AuditConfig(DictCodec):
    """End-of-election audit configuration.

    The audit verifies openings/proofs with randomized batch equations
    (:mod:`repro.crypto.batch_verify`) across ``workers`` processes (``None`` =
    one per core).  ``security_bits`` is the width of the random batching
    exponents: every backend decodes only elements of its prime-order group,
    so a forged opening or proof survives one batched equation with
    probability ``2^-security_bits`` (the collectors' endorsement batches use
    the same width).
    ``enabled=False`` skips the audit phase entirely (the engine still runs
    setup through tally).
    """

    enabled: bool = True
    workers: Optional[int] = 1
    security_bits: int = 64

    def __post_init__(self) -> None:
        if self.workers is not None and self.workers < 1:
            raise ValueError("audit workers must be at least 1 (or None for all cores)")
        if not 8 <= self.security_bits <= 128:
            raise ValueError("batch security parameter must be between 8 and 128 bits")


@frozen_value
class AdmissionProfile(DictCodec):
    """Voting-phase admission pipeline configuration (see :mod:`repro.core.admission`).

    ``endorse_batch_size=1`` verifies every incoming ENDORSEMENT signature
    one at a time (the paper's path); larger values verify up to that many
    signatures per small-exponent aggregate equation, flushing partial
    batches after :data:`repro.core.admission.BATCH_WINDOW_S` of simulated
    time.  ``queue_depth`` bounds the admission queue in front of the VOTE
    handler (``None`` = unbounded); above it the queue **sheds** requests
    with a retry hint the voter client honours.  ``service_ms`` is the
    modelled admission service time per request; 0 admits inline, which is
    the historical behaviour and never builds a backlog.
    """

    queue_depth: Optional[int] = None
    service_ms: float = 0.0
    endorse_batch_size: int = 1

    def __post_init__(self) -> None:
        if self.queue_depth is not None and self.queue_depth < 1:
            raise ValueError("admission queue depth must be at least 1 (or None for unbounded)")
        if self.service_ms < 0:
            raise ValueError("admission service time cannot be negative")
        if self.endorse_batch_size < 1:
            raise ValueError("endorsement batch size must be at least 1")

    @classmethod
    def batched(cls, batch_size: int = 32, **overrides: Any) -> "AdmissionProfile":
        """Batched endorsement verification with the default open queue."""
        return cls(endorse_batch_size=batch_size, **overrides)


def vc_node_id(index: int) -> str:
    """Canonical identifier of the ``index``-th Vote Collector node."""
    return f"VC-{index}"


def bb_node_id(index: int) -> str:
    """Canonical identifier of the ``index``-th Bulletin Board node."""
    return f"BB-{index}"


def trustee_id(index: int) -> str:
    """Canonical identifier of the ``index``-th trustee."""
    return f"T-{index}"


def voter_id(index: int) -> str:
    """Canonical identifier of the ``index``-th voter."""
    return f"voter-{index}"


@frozen_value
class FaultThresholds:
    """Sizes and fault tolerances of the three replicated subsystems."""

    num_vc: int
    num_bb: int
    num_trustees: int
    trustee_threshold: int

    @property
    def max_faulty_vc(self) -> int:
        """Largest ``fv`` with ``Nv >= 3 fv + 1``."""
        return (self.num_vc - 1) // 3

    @property
    def max_faulty_bb(self) -> int:
        """Largest ``fb`` with ``Nb >= 2 fb + 1``."""
        return (self.num_bb - 1) // 2

    @property
    def max_faulty_trustees(self) -> int:
        """Number of trustee corruptions tolerated, ``Nt - ht``."""
        return self.num_trustees - self.trustee_threshold

    @property
    def vc_honest_quorum(self) -> int:
        """The strong-majority quorum ``Nv - fv`` used throughout the protocol."""
        return self.num_vc - self.max_faulty_vc

    @property
    def bb_majority(self) -> int:
        """``fb + 1``: the number of identical BB replies a reader must see."""
        return self.max_faulty_bb + 1

    def validate(self) -> None:
        """Raise if any subsystem is too small for its role."""
        if self.num_vc < 4:
            raise ValueError("need at least 4 VC nodes (Nv >= 3fv + 1 with fv >= 1)")
        if self.num_bb < 1:
            raise ValueError("need at least one BB node")
        if not 1 <= self.trustee_threshold <= self.num_trustees:
            raise ValueError("trustee threshold must be between 1 and Nt")


@frozen_value
class ElectionParameters:
    """Everything that defines one election."""

    options: Sequence[str]
    num_voters: int
    thresholds: FaultThresholds
    election_start: float = 0.0
    election_end: float = 1_000.0
    election_id: str = "election-1"
    #: How the collectors run Vote Set Consensus, admit votes and how the
    #: election is audited: the scenario's own blocks, not copies of them.
    consensus: ConsensusConfig = field(default_factory=ConsensusConfig)
    admission: AdmissionProfile = field(default_factory=AdmissionProfile)
    audit: AuditConfig = field(default_factory=AuditConfig)

    def __post_init__(self) -> None:
        if len(self.options) < 2:
            raise ValueError("an election needs at least two options")
        if len(set(self.options)) != len(self.options):
            raise ValueError("option labels must be unique")
        if self.num_voters < 1:
            raise ValueError("an election needs at least one voter")
        if not (math.isfinite(self.election_start) and math.isfinite(self.election_end)):
            raise ValueError("voting hours must be finite timestamps")
        if self.election_end <= self.election_start:
            raise ValueError("election must end after it starts")
        self.thresholds.validate()

    @property
    def num_options(self) -> int:
        """``m``: the number of options."""
        return len(self.options)

    def within_voting_hours(self, timestamp: float) -> bool:
        """Whether a vote submitted at ``timestamp`` is inside voting hours."""
        return self.election_start <= timestamp < self.election_end

    @staticmethod
    def small_test_election(
        num_voters: int = 5,
        num_options: int = 3,
        num_vc: int = 4,
        num_bb: int = 3,
        num_trustees: int = 3,
        trustee_threshold: int = 2,
        election_end: float = 1_000.0,
        **blocks: Any,
    ) -> "ElectionParameters":
        """Convenience constructor used heavily by tests and examples;
        ``blocks`` are ``consensus=`` / ``admission=`` / ``audit=``."""
        return ElectionParameters(
            options=[f"option-{i + 1}" for i in range(num_options)],
            num_voters=num_voters,
            thresholds=FaultThresholds(num_vc, num_bb, num_trustees, trustee_threshold),
            election_end=election_end,
            **blocks,
        )
