"""Shard plans: validated ranges that tile the serial space."""

import pytest

from repro.shard.partition import ShardPlan, ShardRange


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

    def test_split_spans_differ_by_at_most_one_and_cover_each_serial_once(self):
        plan = ShardPlan.split(10, 107, 5)
        assert (plan.lo, plan.hi) == (10, 107)
        assert [r.span for r in plan.ranges] == [20, 20, 19, 19, 19]
        for serial in range(10, 107):
            assert sum(serial in r for r in plan.ranges) == 1

    def test_split_is_deterministic(self):
        assert ShardPlan.split(0, 1000, 7) == ShardPlan.split(0, 1000, 7)

    def test_split_rejects_the_empty_interval(self):
        with pytest.raises(ValueError):
            ShardPlan.split(5, 5, 2)

    def test_split_rejects_zero_shards(self):
        with pytest.raises(ValueError):
            ShardPlan.split(0, 10, 0)

    def test_rejects_gap_between_ranges(self):
        with pytest.raises(ValueError):
            ShardPlan((ShardRange(0, 0, 10), ShardRange(1, 11, 20)))

    def test_rejects_out_of_order_ids(self):
        with pytest.raises(ValueError):
            ShardPlan((ShardRange(1, 0, 10), ShardRange(0, 10, 20)))
