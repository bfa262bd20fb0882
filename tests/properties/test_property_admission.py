"""Property-based tests (hypothesis) for the admission queue accounting.

The defining property of the admission pipeline: no request is ever lost or
double-counted.  Whatever interleaving of requests and drain-timer firings
occurs, ``requests == admitted + shed + backlog`` holds at every step, the
backlog never exceeds the depth bound under the shed policy, and once the
queue drains every offered request has been either admitted or shed.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.admission import AdmissionQueue, AdmissionStats

relaxed = settings(max_examples=60, deadline=None)


class ScriptedNode:
    """Timer owner whose pending callbacks fire only when the test drains them."""

    def __init__(self):
        self.pending = []

    def set_timer(self, delay, callback, description=""):
        self.pending.append(callback)

    def fire_one(self) -> bool:
        if not self.pending:
            return False
        self.pending.pop(0)()
        return True

    def fire_all(self) -> None:
        while self.fire_one():
            pass


events = st.lists(st.sampled_from(["offer", "drain"]), min_size=1, max_size=60)


@relaxed
@given(
    events=events,
    depth=st.one_of(st.none(), st.integers(min_value=1, max_value=5)),
    policy=st.sampled_from(["shed", "block"]),
    service_s=st.sampled_from([0.0, 0.05]),
)
def test_counters_reconcile_under_any_interleaving(events, depth, policy, service_s):
    node = ScriptedNode()
    stats = AdmissionStats()
    admitted, shed = [], []
    queue = AdmissionQueue(
        node=node,
        stats=stats,
        on_admit=lambda sender, request: admitted.append(request),
        on_shed=lambda sender, request, hint: shed.append(request),
        depth=depth,
        policy=policy,
        service_s=service_s,
    )

    offered = 0
    for event in events:
        if event == "offer":
            queue.offer(f"V-{offered}", offered)
            offered += 1
        else:
            node.fire_one()
        # Conservation: every offered request is exactly one of
        # admitted / shed / still queued.
        assert stats.requests == stats.admitted + stats.shed + len(queue)
        assert stats.admitted == len(admitted)
        assert stats.shed == len(shed)
        if depth is not None and policy == "shed":
            assert len(queue) <= depth

    node.fire_all()
    assert len(queue) == 0
    assert stats.requests == offered == stats.admitted + stats.shed
    # FIFO: requests are admitted in arrival order.
    assert admitted == sorted(admitted)
    # Only the shed policy sheds; only the block policy over-queues.
    if policy == "block":
        assert stats.shed == 0
    if policy == "shed":
        assert stats.blocked_over_depth == 0
    if service_s == 0.0:
        # Inline admission: nothing is ever queued or shed.
        assert stats.admitted == offered
        assert stats.peak_depth == 0


@relaxed
@given(
    num_requests=st.integers(min_value=0, max_value=40),
    depth=st.integers(min_value=1, max_value=4),
)
def test_burst_then_drain_sheds_exactly_the_overflow(num_requests, depth):
    """An instantaneous burst into an idle shed queue keeps exactly ``depth``."""
    node = ScriptedNode()
    stats = AdmissionStats()
    queue = AdmissionQueue(
        node=node,
        stats=stats,
        on_admit=lambda sender, request: None,
        on_shed=lambda sender, request, hint: None,
        depth=depth,
        policy="shed",
        service_s=0.1,
    )
    for i in range(num_requests):
        queue.offer(f"V-{i}", i)
    assert stats.shed == max(0, num_requests - depth)
    assert len(queue) == min(num_requests, depth)
    node.fire_all()
    assert stats.admitted == min(num_requests, depth)
