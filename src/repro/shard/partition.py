"""Ballot-serial-range shard plans.

A ``ShardPlan`` splits the ballot-serial space into contiguous, non-overlapping
half-open ranges ``[lo, hi)`` that jointly cover the whole space.  Every node
that knows the registered serial set derives the *same* plan deterministically,
so shard assignment needs no coordination: routing a serial is a binary search
over range boundaries.

Two constructors cover the two ways shards are born:

- :meth:`ShardPlan.split` divides an abstract serial interval into (nearly)
  equal spans — used by the scale pipeline where serials are dense.
- :meth:`ShardPlan.from_serials` divides a concrete sorted serial set into
  (nearly) equal *ballot counts* — used by the full-fidelity engine path where
  registered serials may be sparse.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple


@dataclass(frozen=True)
class ShardRange:
    """One contiguous half-open slice ``[lo, hi)`` of the serial space."""

    shard_id: int
    lo: int
    hi: int

    def __post_init__(self) -> None:
        if self.shard_id < 0:
            raise ValueError("shard_id must be non-negative")
        if self.lo < 0:
            raise ValueError("ballot serials are non-negative; lo must be >= 0")
        if self.lo >= self.hi:
            raise ValueError(
                f"shard {self.shard_id}: empty range [{self.lo}, {self.hi})"
            )

    def __contains__(self, serial: int) -> bool:
        return self.lo <= serial < self.hi

    @property
    def span(self) -> int:
        return self.hi - self.lo


@dataclass(frozen=True)
class ShardPlan:
    """A validated, ordered, gap-free cover of the serial space by shards."""

    ranges: Tuple[ShardRange, ...]

    def __post_init__(self) -> None:
        if not self.ranges:
            raise ValueError("a shard plan needs at least one range")
        for index, shard in enumerate(self.ranges):
            if shard.shard_id != index:
                raise ValueError(
                    f"shard ids must be 0..{len(self.ranges) - 1} in order; "
                    f"position {index} has id {shard.shard_id}"
                )
        for left, right in zip(self.ranges, self.ranges[1:], strict=False):
            if left.hi != right.lo:
                raise ValueError(
                    f"shards {left.shard_id} and {right.shard_id} do not tile: "
                    f"[{left.lo}, {left.hi}) then [{right.lo}, {right.hi})"
                )
        # Cache the range starts for bisect-based routing.
        object.__setattr__(self, "_starts", tuple(r.lo for r in self.ranges))

    # -- shape -----------------------------------------------------------------

    @property
    def num_shards(self) -> int:
        return len(self.ranges)

    @property
    def lo(self) -> int:
        return self.ranges[0].lo

    @property
    def hi(self) -> int:
        return self.ranges[-1].hi

    # -- construction ----------------------------------------------------------

    @classmethod
    def split(cls, lo: int, hi: int, num_shards: int) -> "ShardPlan":
        """Split ``[lo, hi)`` into ``num_shards`` (nearly) equal spans.

        When the interval holds fewer serials than requested shards, the plan
        degrades to one shard per serial rather than emitting empty ranges.
        """
        if lo >= hi:
            raise ValueError(f"cannot shard the empty interval [{lo}, {hi})")
        if num_shards < 1:
            raise ValueError("num_shards must be at least 1")
        span = hi - lo
        count = min(num_shards, span)
        base, extra = divmod(span, count)
        ranges: List[ShardRange] = []
        cursor = lo
        for shard_id in range(count):
            width = base + (1 if shard_id < extra else 0)
            ranges.append(ShardRange(shard_id, cursor, cursor + width))
            cursor += width
        return cls(tuple(ranges))

    @classmethod
    def from_serials(cls, serials: Sequence[int], num_shards: int) -> "ShardPlan":
        """Split a sorted serial set into (nearly) equal ballot counts.

        Range boundaries are taken from the serial values themselves, so every
        node holding the same registered set derives the identical plan.
        """
        if not serials:
            raise ValueError("cannot build a shard plan over zero serials")
        if num_shards < 1:
            raise ValueError("num_shards must be at least 1")
        ordered = sorted(serials)
        if ordered[0] < 0:
            raise ValueError("ballot serials must be non-negative")
        count = min(num_shards, len(ordered))
        base, extra = divmod(len(ordered), count)
        ranges: List[ShardRange] = []
        start_index = 0
        for shard_id in range(count):
            size = base + (1 if shard_id < extra else 0)
            lo = ordered[start_index] if shard_id > 0 else ordered[0]
            next_index = start_index + size
            hi = ordered[next_index] if next_index < len(ordered) else ordered[-1] + 1
            ranges.append(ShardRange(shard_id, lo, hi))
            start_index = next_index
        return cls(tuple(ranges))

    # -- routing ---------------------------------------------------------------

    def shard_of(self, serial: int) -> int:
        """Return the shard id owning ``serial`` (raises outside the plan)."""
        if not self.lo <= serial < self.hi:
            raise KeyError(f"serial {serial} outside shard plan [{self.lo}, {self.hi})")
        return bisect.bisect_right(self._starts, serial) - 1

    def route(self, serials: Iterable[int]) -> Dict[int, List[int]]:
        """Group serials by owning shard, preserving input order per shard."""
        routed: Dict[int, List[int]] = {r.shard_id: [] for r in self.ranges}
        for serial in serials:
            routed[self.shard_of(serial)].append(serial)
        return routed


def sharded_partition(
    serials: Sequence[int], num_shards: int, batch_size: int
) -> List[Tuple[int, ...]]:
    """Partition serials into superblocks that never cross shard boundaries.

    The result has the same shape as ``consensus.batching.partition_serials``
    (sorted serials, consecutive chunks of at most ``batch_size``) except that
    each block is wholly contained in one shard of the plan derived from the
    serial set, so per-shard Vote Set Consensus instances stay independent.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be at least 1")
    plan = ShardPlan.from_serials(serials, num_shards)
    routed = plan.route(sorted(serials))
    blocks: List[Tuple[int, ...]] = []
    for shard in plan.ranges:
        members = routed[shard.shard_id]
        for start in range(0, len(members), batch_size):
            blocks.append(tuple(members[start : start + batch_size]))
    return blocks
