"""Measurement, process pools and the fitted model layer.

What a run uses:

* :mod:`repro.perf.parallel` -- the chunked process-pool scheduler the
  end-of-election audit and tally fan out over, and the warm pool of the
  sharded pipeline.
* :mod:`repro.perf.phases`   -- :class:`PhaseRecorder`, the measured wall
  time of the audit/tally stages.
* :mod:`repro.perf.memory`   -- resettable peak-memory probes.

The fitted model layer, which no election run imports (only the Figure 4/5
benchmarks and ``ScenarioSpec.cost_model`` / ``load_simulator`` /
``phase_breakdown`` do):

* :mod:`repro.perf.costmodel` -- per-operation CPU costs calibrated to the
  paper's testbed, and the Figure 5c phase-duration model built on them.
* :mod:`repro.perf.loadsim`  -- a discrete-event simulation of the
  vote-collection protocol, closed-loop (the paper's methodology behind
  Figures 4a-4f, 5a and 5b) or open-loop (arrival-driven with bounded
  admission).
* :mod:`repro.perf.arrivals` -- seeded arrival processes for the open-loop
  mode.

Nothing is re-exported here: import each name from its defining module.
"""
