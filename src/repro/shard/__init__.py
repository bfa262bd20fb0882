"""Ballot-range sharding: partition, per-shard slices, cross-shard merge.

The electorate's serial space is split into contiguous ranges
(:mod:`repro.shard.partition`), each range runs as an independent election
slice (:mod:`repro.shard.shard_runner`) whose working set is O(shard), and a
cross-shard commit layer (:mod:`repro.shard.merge`) verifies per-shard tally
commitments and combines them homomorphically into the global tally
(:mod:`repro.shard.streaming`) without ever materializing all ballots at once.
:mod:`repro.shard.driver` runs the whole pipeline.

Nothing is re-exported here: import each name from its defining module.
"""
