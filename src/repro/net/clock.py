"""Global and per-node clocks with bounded drift.

The paper assumes a global clock variable ``Clock`` and an internal clock
``Clock[X]`` for every VC node, BB node and voter.  Two events are defined:

* ``Init(X)``: synchronise node ``X``'s internal clock with the global clock.
* ``Inc(i)``: advance some clock by one time unit.

Only two timing assumptions are made, and only for liveness: a bound ``delta``
on message delay between honest nodes and a bound ``Delta`` on the drift of
honest nodes' clocks from the global clock.  These classes mirror the model so
the liveness analysis in :mod:`repro.analysis.liveness` and the protocol code
use the same notion of time.
"""

from __future__ import annotations

from typing import Dict, Optional


class GlobalClock:
    """The global clock ``Clock`` of the model (a non-negative integer)."""

    def __init__(self, start: float = 0.0):
        self._now = float(start)

    @property
    def now(self) -> float:
        """Current global time."""
        return self._now

    def advance_to(self, timestamp: float) -> float:
        """Move the global clock forward to ``timestamp`` (never backwards)."""
        if timestamp > self._now:
            self._now = timestamp
        return self._now


class NodeClock:
    """A node's internal clock ``Clock[X]`` with bounded drift.

    The drift is the (signed) offset of the internal clock from the global
    clock; the liveness assumption bounds its absolute value by ``Delta``.
    """

    def __init__(self, global_clock: GlobalClock, drift: float = 0.0, max_drift: Optional[float] = None):
        if max_drift is not None and abs(drift) > max_drift:
            raise ValueError("initial drift exceeds the drift bound")
        self._global = global_clock
        self._drift = drift
        self._max_drift = max_drift

    @property
    def drift(self) -> float:
        """Current offset from the global clock."""
        return self._drift

    @property
    def now(self) -> float:
        """Current internal time ``Clock[X] = Clock + drift``."""
        return self._global.now + self._drift

    def init(self) -> None:
        """``Init(X)``: synchronise with the global clock (drift becomes 0)."""
        self._drift = 0.0

    def set_drift(self, drift: float) -> None:
        """Adversarially adjust the drift, respecting the bound if one is set."""
        if self._max_drift is not None and abs(drift) > self._max_drift:
            raise ValueError("drift bound violated")
        self._drift = drift


class ClockRegistry:
    """Book-keeping of every node's clock, used by the simulator and tests."""

    def __init__(self, global_clock: Optional[GlobalClock] = None, max_drift: Optional[float] = None):
        self.global_clock = global_clock or GlobalClock()
        self.max_drift = max_drift
        self._clocks: Dict[str, NodeClock] = {}

    def register(self, node_id: str, drift: float = 0.0) -> NodeClock:
        """Create (or return) the clock of ``node_id``."""
        if node_id not in self._clocks:
            self._clocks[node_id] = NodeClock(self.global_clock, drift, self.max_drift)
        return self._clocks[node_id]

    def clock_of(self, node_id: str) -> NodeClock:
        """Return the clock of a registered node."""
        return self._clocks[node_id]
