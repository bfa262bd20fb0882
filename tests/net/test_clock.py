"""Tests for global/node clocks with bounded drift."""

import pytest

from repro.net.clock import ClockRegistry, GlobalClock, NodeClock
from repro.net.simulator import Network, SimNode


class Sleeper(SimNode):
    """A node that only keeps time."""

    def __init__(self, node_id):
        super().__init__(node_id)
        self.woke_at = []

    def on_message(self, message):
        pass

    def sleep(self, delay):
        self.set_timer(delay, lambda: self.woke_at.append(self.now))


class TestGlobalClock:
    def test_starts_at_zero_by_default(self):
        assert GlobalClock().now == 0.0

    def test_advance_to_never_goes_backwards(self):
        clock = GlobalClock(10.0)
        clock.advance_to(5.0)
        assert clock.now == 10.0
        clock.advance_to(15.0)
        assert clock.now == 15.0

    def test_advance_to_returns_the_current_time(self):
        clock = GlobalClock()
        assert clock.advance_to(5.0) == 5.0
        assert clock.advance_to(2.0) == 5.0


class TestNodeClock:
    def test_drift_offsets_global_time(self):
        global_clock = GlobalClock(100.0)
        node = NodeClock(global_clock, drift=3.0)
        assert node.now == 103.0

    def test_init_resets_drift(self):
        node = NodeClock(GlobalClock(50.0), drift=7.0)
        node.init()
        assert node.drift == 0.0
        assert node.now == 50.0

    def test_drift_bound_enforced_on_construction(self):
        with pytest.raises(ValueError):
            NodeClock(GlobalClock(), drift=5.0, max_drift=1.0)

    def test_drift_bound_enforced_on_set(self):
        node = NodeClock(GlobalClock(), max_drift=1.0)
        with pytest.raises(ValueError):
            node.set_drift(2.0)
        node.set_drift(0.5)
        assert node.drift == 0.5

    def test_drift_bound_is_on_the_absolute_drift(self):
        with pytest.raises(ValueError):
            NodeClock(GlobalClock(), drift=-5.0, max_drift=1.0)
        node = NodeClock(GlobalClock(), max_drift=1.0)
        with pytest.raises(ValueError):
            node.set_drift(-2.0)
        node.set_drift(-1.0)
        assert node.drift == -1.0

    def test_internal_time_follows_the_global_clock(self):
        global_clock = GlobalClock()
        node = NodeClock(global_clock, drift=-0.5)
        global_clock.advance_to(5.0)
        assert node.now == 4.5

class TestClockRegistry:
    def test_register_and_lookup(self):
        registry = ClockRegistry()
        clock = registry.register("VC-0", drift=1.0)
        assert registry.clock_of("VC-0") is clock

    def test_register_is_idempotent(self):
        registry = ClockRegistry()
        first = registry.register("VC-0")
        second = registry.register("VC-0")
        assert first is second

    def test_registry_enforces_global_bound(self):
        registry = ClockRegistry(max_drift=1.0)
        with pytest.raises(ValueError):
            registry.register("a", drift=2.0)

    def test_unregistered_node_has_no_clock(self):
        with pytest.raises(KeyError):
            ClockRegistry().clock_of("VC-0")

    def test_registered_clocks_share_one_global_clock(self):
        registry = ClockRegistry()
        a = registry.register("a", drift=2.0)
        b = registry.register("b", drift=-3.0)
        registry.global_clock.advance_to(10.0)
        assert (a.now, b.now) == (12.0, 7.0)


class TestNetworkTime:
    """A simulated node reads ``Clock[X]``: the event loop's time plus its drift."""

    def test_each_node_wakes_at_global_time_plus_its_drift(self):
        network = Network()
        early = network.register(Sleeper("early"), clock_drift=-1.0)
        late = network.register(Sleeper("late"), clock_drift=2.0)
        early.sleep(5.0)
        late.sleep(5.0)
        network.run()
        assert network.now == 5.0
        assert (early.woke_at, late.woke_at) == ([4.0], [7.0])

    def test_network_drift_bound_applies_to_every_node(self):
        network = Network(max_drift=1.0)
        with pytest.raises(ValueError):
            network.register(Sleeper("a"), clock_drift=1.5)
        assert "a" not in network.nodes
        node = network.register(Sleeper("b"), clock_drift=0.5)
        with pytest.raises(ValueError):
            node.clock.set_drift(-1.5)
