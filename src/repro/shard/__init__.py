"""Ballot-range sharding: partition, per-shard slices, cross-shard merge.

The electorate's serial space is split into contiguous ranges (``ShardPlan``),
each range runs as an independent election slice (``ShardRunner``) whose
working set is O(shard), and a cross-shard commit layer (``merge``) verifies
per-shard tally commitments and combines them homomorphically into the global
tally (``streaming``) without ever materializing all ballots at once.
"""

from repro.shard.driver import (
    ShardExecutionError,
    ShardedElectionDriver,
    ShardedElectionOutcome,
    shard_worker_pool,
)
from repro.shard.merge import CrossShardCommit, ShardCommitReport, verify_shard_records
from repro.shard.partition import ShardPlan, ShardRange, sharded_partition
from repro.shard.records import GlobalCommitRecord, ShardCommitRecord
from repro.shard.shard_runner import ShardRunner, ShardSliceResult, VoteCodeRejected
from repro.shard.streaming import (
    StreamingCommitmentCombiner,
    StreamingOpeningCombiner,
    StreamingTally,
)

__all__ = [
    "ShardPlan",
    "ShardRange",
    "sharded_partition",
    "ShardCommitRecord",
    "GlobalCommitRecord",
    "StreamingCommitmentCombiner",
    "StreamingOpeningCombiner",
    "StreamingTally",
    "CrossShardCommit",
    "ShardCommitReport",
    "verify_shard_records",
    "ShardRunner",
    "ShardSliceResult",
    "VoteCodeRejected",
    "ShardedElectionDriver",
    "ShardedElectionOutcome",
    "ShardExecutionError",
    "shard_worker_pool",
]
