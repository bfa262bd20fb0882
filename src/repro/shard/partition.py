"""Ballot-serial-range shard plans.

A ``ShardPlan`` splits the ballot-serial space into contiguous, non-overlapping
half-open ranges ``[lo, hi)`` that jointly cover the whole space.  The scale
pipeline's serials are dense, so :meth:`ShardPlan.split` divides the serial
interval into (nearly) equal spans; every process that knows the interval and
the shard count derives the *same* plan, with no coordination.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
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
