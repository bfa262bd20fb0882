"""Measured wall-clock durations of named phases.

The audit/tally pipeline wraps each of its stages in
:meth:`PhaseRecorder.phase`.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator


@dataclass
class PhaseRecorder:
    """Measured wall-clock durations of named phases.

    The audit/tally pipeline wraps each of its stages in :meth:`phase` and
    attaches the resulting dictionary to the audit report, so the benchmarks
    and the engine can report measured per-phase seconds.  Re-entering a name
    accumulates (a phase may be split across loop iterations).
    """

    timings: Dict[str, float] = field(default_factory=dict)

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Time a ``with`` block and accumulate it under ``name``."""
        started = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - started
            self.timings[name] = self.timings.get(name, 0.0) + elapsed

    def as_dict(self) -> Dict[str, float]:
        """A copy of the accumulated ``{phase name: seconds}`` mapping."""
        return dict(self.timings)

    @property
    def total_s(self) -> float:
        return sum(self.timings.values())
