"""Performance-model harness.

The paper evaluates its prototype on a 12-machine cluster (4 hexa-core
machines running VC nodes, 8 client machines), with PostgreSQL-backed or
in-memory election data and either a Gigabit LAN or a netem-emulated WAN
(25 ms inter-VC latency).  That hardware is not available here, so this
package reproduces the evaluation with a calibrated *performance model*:

* :mod:`repro.perf.costmodel` -- per-operation CPU costs (signatures, hashes,
  share verification, database lookups) and the machine/network topology of
  the paper's testbed.
* :mod:`repro.perf.loadsim`  -- a discrete-event simulation of the
  vote-collection protocol, closed-loop (``cc`` concurrent clients, the
  paper's methodology behind Figures 4a-4f, 5a and 5b) or open-loop
  (arrival-driven with bounded admission, behind the voting-throughput
  benchmark).
* :mod:`repro.perf.arrivals` -- seeded, composable arrival processes
  (Poisson, diurnal, flash-crowd, slow-drip) for the open-loop mode.
* :mod:`repro.perf.phases`   -- the phase-duration model behind Figure 5c,
  plus the :class:`PhaseRecorder` measuring the real audit/tally phases.
* :mod:`repro.perf.parallel` -- the chunked process-pool scheduler the
  end-of-election audit and tally fan out over.

Absolute numbers are not expected to match the authors' testbed; the curve
shapes (who wins, where the knees are) are the reproduction target, as stated
in ``docs/ARCHITECTURE.md``, "Deviations from the paper".
"""

from repro.perf.arrivals import (
    DiurnalArrivals,
    FlashCrowdArrivals,
    PoissonArrivals,
    SlowDripArrivals,
    Superposition,
    superpose,
)
from repro.perf.costmodel import (
    AdmissionCosts,
    AuditCosts,
    BandwidthCosts,
    ConsensusCosts,
    CostModel,
    CryptoCosts,
    DatabaseCosts,
    MachineSpec,
    NetworkProfile,
)
from repro.perf.loadsim import LoadResult, OpenLoopResult, VoteCollectionLoadSimulator
from repro.perf.memory import MemorySample, MemoryTracker, current_rss_bytes
from repro.perf.parallel import (
    ParallelConfig,
    PoolTaskError,
    PoolWorkerDied,
    WarmProcessPool,
    parallel_map,
    parallel_reduce,
)
from repro.perf.phases import PhaseDurations, PhaseRecorder, phase_breakdown

__all__ = [
    "AdmissionCosts",
    "AuditCosts",
    "BandwidthCosts",
    "ConsensusCosts",
    "CryptoCosts",
    "DatabaseCosts",
    "DiurnalArrivals",
    "FlashCrowdArrivals",
    "MachineSpec",
    "NetworkProfile",
    "CostModel",
    "LoadResult",
    "OpenLoopResult",
    "PoissonArrivals",
    "SlowDripArrivals",
    "Superposition",
    "superpose",
    "VoteCollectionLoadSimulator",
    "MemorySample",
    "MemoryTracker",
    "current_rss_bytes",
    "ParallelConfig",
    "PoolTaskError",
    "PoolWorkerDied",
    "WarmProcessPool",
    "parallel_map",
    "parallel_reduce",
    "PhaseDurations",
    "PhaseRecorder",
    "phase_breakdown",
]
