"""Measurement, process pools and the count models.

What a run uses:

* :mod:`repro.perf.parallel` -- :class:`WarmProcessPool`, the one process
  pool, on which the sharded pipeline runs its slices.
* :mod:`repro.perf.phases`   -- :class:`PhaseRecorder`, the measured wall
  time of the audit/tally stages.

What no run imports: :mod:`repro.perf.costmodel`, the message, byte and
group-product counts of this code that the tests and benchmarks hold to
measured runs.

Nothing is re-exported here: import each name from its defining module.
"""
