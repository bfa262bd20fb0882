"""Typed progress events emitted by the election engine.

Every observable moment of an election run is a frozen dataclass carrying the
election it belongs to, a monotonically increasing per-election ``sequence``
number and the *simulated* network time at which it happened.  Using
simulated rather than wall-clock time keeps event streams deterministic for a
fixed scenario seed, which is what the engine's isolation tests rely on.

Benchmarks and future async/real-network drivers subscribe through
:class:`EventBus` instead of monkey-patching engine internals.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, List, Mapping


@dataclass(frozen=True, slots=True, kw_only=True)
class ElectionEvent:
    """Base class of every engine event.

    The stamped fields (``election_id``, ``sequence``, ``sim_time``) are
    keyword-only with defaults so subclasses can declare their own positional
    payload fields; :meth:`EventBus.emit` fills them in.
    """

    election_id: str = ""
    sequence: int = -1
    sim_time: float = 0.0


@dataclass(frozen=True, slots=True)
class PhaseStarted(ElectionEvent):
    """A phase driver is about to run."""

    phase: str


@dataclass(frozen=True, slots=True)
class PhaseCompleted(ElectionEvent):
    """A phase driver finished; ``sim_duration`` is simulated seconds spent."""

    phase: str
    sim_duration: float


@dataclass(frozen=True, slots=True)
class BallotAccepted(ElectionEvent):
    """A voter obtained a receipt during the voting phase."""

    voter: str
    serial: int
    attempts: int
    receipt_valid: bool


@dataclass(frozen=True, slots=True)
class ConsensusDecided(ElectionEvent):
    """Vote Set Consensus converged on the final vote set."""

    vote_set_size: int
    stats: Mapping[str, int]


@dataclass(frozen=True, slots=True)
class TallyComputed(ElectionEvent):
    """The trustees opened the homomorphic tally and the BB published it."""

    tally: Mapping[str, int]


@dataclass(frozen=True, slots=True)
class AuditCompleted(ElectionEvent):
    """The end-to-end audit finished."""

    passed: bool
    checks: int


@dataclass(frozen=True, slots=True)
class ElectionCompleted(ElectionEvent):
    """The engine finished every phase of the run."""

    receipts: int


Observer = Callable[[ElectionEvent], None]


class EventBus:
    """Per-election event fan-out with a recorded history.

    The bus stamps each emitted event with the election id, the next sequence
    number and the current simulated time (read lazily through ``clock`` so
    the network can be created after the bus).
    """

    def __init__(self, election_id: str, clock: Callable[[], float] = lambda: 0.0):
        self.election_id = election_id
        self._clock = clock
        self._observers: List[Observer] = []
        self._sequence = 0
        self.history: List[ElectionEvent] = []

    def subscribe(self, observer: Observer) -> None:
        """Register a callback invoked synchronously for every event."""
        self._observers.append(observer)

    def set_clock(self, clock: Callable[[], float]) -> None:
        """Swap the simulated-time source (the engine does this once the network exists)."""
        self._clock = clock

    def reset(self) -> None:
        """Start a fresh run: clear history, restart sequence numbers and the clock.

        Subscribed observers are kept -- they observe the engine, not one run.
        """
        self._sequence = 0
        self.history = []
        self._clock = lambda: 0.0

    def emit(self, event: ElectionEvent) -> ElectionEvent:
        """Stamp, record and deliver one event; returns the stamped event."""
        stamped = replace(
            event,
            election_id=self.election_id,
            sequence=self._sequence,
            sim_time=float(self._clock()),
        )
        self._sequence += 1
        self.history.append(stamped)
        for observer in self._observers:
            observer(stamped)
        return stamped
