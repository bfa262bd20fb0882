"""Measurement, process pools and the count models.

What a run uses:

* :mod:`repro.perf.parallel` -- the chunked process-pool scheduler the
  end-of-election audit and tally fan out over, and the warm pool of the
  sharded pipeline.
* :mod:`repro.perf.phases`   -- :class:`PhaseRecorder`, the measured wall
  time of the audit/tally stages.
* :mod:`repro.perf.memory`   -- resettable peak-memory probes.

What no run imports: :mod:`repro.perf.costmodel`, the message, byte and
group-product counts of this code that the tests and benchmarks hold to
measured runs.

Nothing is re-exported here: import each name from its defining module.
"""
