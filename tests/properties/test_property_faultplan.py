"""Property-based tests (hypothesis) for the fault-plan schedule.

Three defining properties:

* **round trip** -- ``FaultPlan.from_dict(plan.to_dict()) == plan`` for every
  valid plan, including through a JSON encode/decode;
* **valid plans construct** -- generated schedules that respect the ordering
  rules never raise, and their derived views stay consistent;
* **invalid orderings always raise** -- a recovery with no preceding crash,
  and overlapping partitions sharing a node, are rejected for arbitrary
  event timings.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.spec import (
    ClockSkew,
    CrashNode,
    FaultPlan,
    LossBurst,
    Partition,
    RecoverNode,
)

NODES = ("VC-0", "VC-1", "VC-2", "VC-3")

times = st.floats(min_value=0.0, max_value=1_000.0, allow_nan=False, allow_infinity=False)
drifts = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False, allow_infinity=False)
rates = st.floats(min_value=0.01, max_value=0.99, allow_nan=False, allow_infinity=False)


@st.composite
def crash_recover_chains(draw):
    """Alternating crash/recover events for one node, strictly increasing times."""
    node = draw(st.sampled_from(NODES))
    count = draw(st.integers(min_value=1, max_value=4))
    stamps = sorted(draw(st.sets(times, min_size=count, max_size=count)))
    events = []
    for i, t in enumerate(stamps):
        cls = CrashNode if i % 2 == 0 else RecoverNode
        events.append(cls(t=t, node=node))
    return tuple(events)


@st.composite
def disjoint_partitions(draw):
    """Partitions over pairwise-disjoint node sets (never an overlap conflict)."""
    count = draw(st.integers(min_value=0, max_value=3))
    events = []
    for i in range(count):
        t0, t1 = sorted(draw(st.sets(times, min_size=2, max_size=2)))
        events.append(
            Partition(t_start=t0, t_end=t1, groups=((f"p{i}-a",), (f"p{i}-b", f"p{i}-c")))
        )
    return tuple(events)


@st.composite
def serial_loss_bursts(draw):
    """Loss bursts over non-overlapping windows."""
    count = draw(st.integers(min_value=0, max_value=3))
    stamps = sorted(draw(st.sets(times, min_size=2 * count, max_size=2 * count)))
    events = []
    for i in range(count):
        events.append(
            LossBurst(t_start=stamps[2 * i], t_end=stamps[2 * i + 1], rate=draw(rates))
        )
    return tuple(events)


@st.composite
def valid_plans(draw):
    chains = draw(st.lists(crash_recover_chains(), max_size=2))
    # Different chains for the same node could interleave invalidly; keep the
    # first chain per node.
    seen, crash_events = set(), []
    for chain in chains:
        node = chain[0].node
        if node in seen:
            continue
        seen.add(node)
        crash_events.extend(chain)
    skews = draw(
        st.lists(
            st.builds(ClockSkew, node=st.sampled_from(NODES), drift=drifts, t=times),
            max_size=2,
        )
    )
    events = (
        tuple(crash_events)
        + draw(disjoint_partitions())
        + draw(serial_loss_bursts())
        + tuple(skews)
    )
    return FaultPlan(events=events, expect_failure=draw(st.booleans()))


class TestRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(plan=valid_plans())
    def test_dict_round_trip_is_identity(self, plan):
        assert FaultPlan.from_dict(plan.to_dict()) == plan

    @settings(max_examples=60, deadline=None)
    @given(plan=valid_plans())
    def test_json_round_trip_is_identity(self, plan):
        encoded = json.dumps(plan.to_dict())
        assert FaultPlan.from_dict(json.loads(encoded)) == plan


class TestValidPlans:
    @settings(max_examples=60, deadline=None)
    @given(plan=valid_plans())
    def test_views_are_consistent(self, plan):
        crashed = {e.node for e in plan.events if isinstance(e, CrashNode)}
        assert plan.crashed_nodes == crashed
        assert plan.is_empty == (len(plan.events) == 0)


class TestInvalidOrderings:
    @settings(max_examples=40, deadline=None)
    @given(node=st.sampled_from(NODES), t=times)
    def test_recover_without_crash_always_raises(self, node, t):
        with pytest.raises(ValueError):
            FaultPlan(events=(RecoverNode(t=t, node=node),))

    @settings(max_examples=40, deadline=None)
    @given(node=st.sampled_from(NODES), stamps=st.sets(times, min_size=2, max_size=2))
    def test_crash_twice_always_raises(self, node, stamps):
        t0, t1 = sorted(stamps)
        with pytest.raises(ValueError):
            FaultPlan(events=(CrashNode(t=t0, node=node), CrashNode(t=t1, node=node)))

    @settings(max_examples=40, deadline=None)
    @given(
        shared=st.sampled_from(NODES),
        stamps=st.sets(times, min_size=4, max_size=4),
    )
    def test_overlapping_partitions_with_shared_node_always_raise(self, shared, stamps):
        t0, t1, t2, t3 = sorted(stamps)
        # Windows [t0, t2) and [t1, t3) overlap in [t1, t2); both name `shared`.
        first = Partition(t_start=t0, t_end=t2, groups=((shared,), ("other-a",)))
        second = Partition(t_start=t1, t_end=t3, groups=((shared,), ("other-b",)))
        with pytest.raises(ValueError):
            FaultPlan(events=(first, second))
