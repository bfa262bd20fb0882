"""Peak-memory measurement for the sharded scale pipeline.

The sharded pipeline's whole point is an O(shard) working set: running a
1M-ballot election over 16 shards must not hold 1M ballots' worth of state at
once.  Proving that requires a *resettable* peak-memory probe --
``resource.ru_maxrss`` is a process-lifetime high-water mark that never goes
back down, so comparing "peak during the 16-shard run" against "peak during
the 1-shard run" inside one benchmark process needs ``tracemalloc``, whose
traced peak can be reset between phases.

:class:`MemoryTracker` wraps both:

* ``peak_traced_bytes`` -- tracemalloc's peak of Python-allocated memory
  inside the tracked block, resettable and therefore comparable across
  blocks in one process.  This is what the CI memory gate asserts on.
* ``peak_rss_bytes`` -- the OS-level ``ru_maxrss`` high-water mark observed
  at block exit, reported for context (monotone per process).

The tracker composes with :class:`repro.perf.phases.PhaseRecorder`: pass one
in and each tracked block's duration lands in the recorder under the same
name, so benchmarks get ``{phase: seconds}`` and ``{phase: peak bytes}`` from
a single ``with`` statement.
"""

from __future__ import annotations

import sys
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, Optional

from repro.perf.phases import PhaseRecorder
from repro.values import frozen_value

try:
    import resource
except ImportError:  # pragma: no cover - Windows has no resource module
    resource = None  # type: ignore[assignment]


def current_rss_bytes() -> int:
    """The process's ``ru_maxrss`` high-water mark, in bytes (0 if unavailable).

    Linux reports ``ru_maxrss`` in kilobytes, macOS in bytes; normalise to
    bytes.  Note this is monotone over the process lifetime -- use
    :class:`MemoryTracker` when you need per-phase peaks.
    """
    if resource is None:
        return 0
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":
        return int(peak)
    return int(peak) * 1024


@frozen_value
class MemorySample:
    """Peak memory observed over one tracked block."""

    name: str
    #: tracemalloc peak of Python allocations inside the block, relative to
    #: the traced size at block entry (resettable, comparable across blocks
    #: in one process).
    peak_traced_bytes: int
    #: OS-level ru_maxrss at block exit (monotone per process; context only).
    peak_rss_bytes: int
    duration_s: float

    def as_dict(self) -> Dict[str, float]:
        return {
            "name": self.name,
            "peak_traced_bytes": self.peak_traced_bytes,
            "peak_rss_bytes": self.peak_rss_bytes,
            "duration_s": self.duration_s,
        }


@dataclass
class MemoryTracker:
    """Resettable per-block peak-memory probe built on tracemalloc.

    Usage::

        tracker = MemoryTracker()
        with tracker.track("run-16-shards"):
            run_election(shards=16)
        with tracker.track("run-1-shard"):
            run_election(shards=1)
        peaks = {name: sample.peak_traced_bytes for name, sample in tracker.samples.items()}
        assert peaks["run-16-shards"] < peaks["run-1-shard"] / 2

    Blocks may not nest (tracemalloc has one global peak counter); re-entering
    a name keeps the maximum peak seen for that name.  If tracemalloc was
    already tracing when the tracker starts a block, the tracker leaves it
    running on exit instead of stopping someone else's trace.
    """

    #: optional recorder receiving each block's wall-clock duration too.
    recorder: Optional[PhaseRecorder] = None
    samples: Dict[str, MemorySample] = field(default_factory=dict)
    _active: Optional[str] = field(default=None, repr=False)

    @contextmanager
    def track(self, name: str) -> Iterator[None]:
        """Measure the peak traced memory of a ``with`` block under ``name``."""
        if self._active is not None:
            raise RuntimeError(
                f"memory blocks cannot nest: {name!r} inside {self._active!r}"
            )
        self._active = name
        was_tracing = tracemalloc.is_tracing()
        if not was_tracing:
            tracemalloc.start()
        tracemalloc.reset_peak()
        # Peaks are recorded relative to the traced size at block entry, so
        # allocations that outlive an earlier block don't inflate later ones.
        baseline, _ = tracemalloc.get_traced_memory()
        started = time.perf_counter()
        try:
            yield
        finally:
            duration = time.perf_counter() - started
            _, absolute_peak = tracemalloc.get_traced_memory()
            peak = max(0, absolute_peak - baseline)
            if not was_tracing:
                tracemalloc.stop()
            self._active = None
            previous = self.samples.get(name)
            if previous is not None:
                peak = max(peak, previous.peak_traced_bytes)
                duration += previous.duration_s
            self.samples[name] = MemorySample(
                name=name,
                peak_traced_bytes=peak,
                peak_rss_bytes=current_rss_bytes(),
                duration_s=duration,
            )
            if self.recorder is not None:
                self.recorder.timings[name] = (
                    self.recorder.timings.get(name, 0.0) + duration
                )

    def as_dict(self) -> Dict[str, Dict[str, float]]:
        """``{block name: sample dict}`` for JSON reports."""
        return {name: sample.as_dict() for name, sample in self.samples.items()}
