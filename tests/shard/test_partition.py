"""Shard plans: validated ranges, routing, and boundary-respecting blocks."""

import pytest

from repro.consensus.batching import partition_serials
from repro.shard.partition import ShardPlan, ShardRange, sharded_partition


class TestShardRange:
    def test_span_and_membership(self):
        shard = ShardRange(0, 10, 20)
        assert shard.span == 10
        assert 10 in shard and 19 in shard
        assert 9 not in shard and 20 not in shard

    def test_rejects_empty_range(self):
        with pytest.raises(ValueError):
            ShardRange(0, 5, 5)

    def test_rejects_negative_serials(self):
        with pytest.raises(ValueError):
            ShardRange(0, -1, 5)


class TestShardPlan:
    def test_split_tiles_the_space(self):
        plan = ShardPlan.split(0, 100, 4)
        assert plan.num_shards == 4
        assert [(r.lo, r.hi) for r in plan.ranges] == [
            (0, 25), (25, 50), (50, 75), (75, 100),
        ]

    def test_split_degrades_when_space_is_small(self):
        plan = ShardPlan.split(0, 3, 16)
        assert plan.num_shards == 3
        assert all(r.span == 1 for r in plan.ranges)

    def test_rejects_gap_between_ranges(self):
        with pytest.raises(ValueError):
            ShardPlan((ShardRange(0, 0, 10), ShardRange(1, 11, 20)))

    def test_rejects_out_of_order_ids(self):
        with pytest.raises(ValueError):
            ShardPlan((ShardRange(1, 0, 10), ShardRange(0, 10, 20)))

    def test_shard_of_matches_membership(self):
        plan = ShardPlan.split(0, 97, 5)
        for serial in range(97):
            shard = plan.ranges[plan.shard_of(serial)]
            assert serial in shard

    def test_shard_of_rejects_serials_outside_the_plan(self):
        plan = ShardPlan.split(10, 20, 2)
        with pytest.raises(KeyError):
            plan.shard_of(9)
        with pytest.raises(KeyError):
            plan.shard_of(20)

    def test_route_groups_every_serial_once(self):
        plan = ShardPlan.split(0, 50, 3)
        routed = plan.route(range(50))
        assert sorted(s for group in routed.values() for s in group) == list(range(50))
        for shard_id, serials in routed.items():
            assert all(s in plan.ranges[shard_id] for s in serials)

    def test_from_serials_balances_ballot_counts(self):
        serials = [i * 7 + 3 for i in range(40)]
        plan = ShardPlan.from_serials(serials, 4)
        routed = plan.route(serials)
        assert [len(routed[i]) for i in range(4)] == [10, 10, 10, 10]

    def test_from_serials_is_deterministic(self):
        serials = list(range(0, 1000, 13))
        assert ShardPlan.from_serials(serials, 8) == ShardPlan.from_serials(serials, 8)


class TestShardedPartition:
    def test_blocks_never_cross_shard_boundaries(self):
        serials = list(range(100))
        plan = ShardPlan.from_serials(serials, 4)
        blocks = sharded_partition(serials, 4, batch_size=8)
        for block in blocks:
            shards = {plan.shard_of(serial) for serial in block}
            assert len(shards) == 1

    def test_covers_every_serial_exactly_once(self):
        serials = list(range(0, 300, 3))
        blocks = sharded_partition(serials, 5, batch_size=16)
        flat = [serial for block in blocks for serial in block]
        assert sorted(flat) == serials

    def test_single_shard_matches_flat_partition(self):
        serials = list(range(57))
        assert sharded_partition(serials, 1, batch_size=10) == partition_serials(
            serials, 10
        )
