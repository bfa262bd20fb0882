"""Property-based tests for binary consensus: agreement, validity and
termination hold for randomly chosen inputs, network schedules and faulty-node
placements (within the n >= 3f + 1 threshold).
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.consensus.bracha import BinaryConsensusInstance
from repro.consensus.interfaces import member_bits
from repro.net.adversary import NetworkConditions
from repro.net.channels import Message
from repro.net.simulator import Network, SimNode


class Host(SimNode):
    def __init__(self, node_id, peers, num_faulty, silent=False):
        super().__init__(node_id)
        self.peers = peers
        self.silent = silent
        self.instance = BinaryConsensusInstance(
            instance_id="prop",
            node_id=node_id,
            members=member_bits(peers),
            num_faulty=num_faulty,
            broadcast=lambda msg: self.broadcast(self.peers, msg),
        )

    def on_message(self, message: Message) -> None:
        if self.silent:
            return
        self.instance.handle(message.sender, message.payload)


def run_instance(proposals, silent_index, seed, jitter):
    num_nodes = len(proposals)
    num_faulty = (num_nodes - 1) // 3
    peers = [f"N{i}" for i in range(num_nodes)]
    network = Network(
        conditions=NetworkConditions(base_latency=0.001, jitter=jitter, seed=seed)
    )
    hosts = []
    for i, node_id in enumerate(peers):
        host = Host(node_id, peers, num_faulty, silent=(i == silent_index))
        hosts.append(host)
        network.register(host)
    for i, host in enumerate(hosts):
        if i == silent_index:
            continue
        network.schedule(0.0, lambda h=host, v=proposals[i]: h.instance.propose(v))
    network.run_until_idle(max_events=500_000)
    return [host for i, host in enumerate(hosts) if i != silent_index]


consensus_settings = settings(
    max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


class TestConsensusProperties:
    @consensus_settings
    @given(
        proposals=st.lists(st.integers(min_value=0, max_value=1), min_size=4, max_size=7),
        seed=st.integers(min_value=0, max_value=1000),
        jitter=st.floats(min_value=0.0, max_value=0.05),
    )
    def test_agreement_and_termination(self, proposals, seed, jitter):
        honest = run_instance(proposals, silent_index=None, seed=seed, jitter=jitter)
        decisions = {host.instance.decided for host in honest}
        assert None not in decisions
        assert len(decisions) == 1

    @consensus_settings
    @given(
        value=st.integers(min_value=0, max_value=1),
        size=st.integers(min_value=4, max_value=7),
        seed=st.integers(min_value=0, max_value=1000),
    )
    def test_validity_with_unanimous_input(self, value, size, seed):
        honest = run_instance([value] * size, silent_index=None, seed=seed, jitter=0.01)
        assert all(host.instance.decided == value for host in honest)

    @consensus_settings
    @given(
        proposals=st.lists(st.integers(min_value=0, max_value=1), min_size=4, max_size=4),
        silent=st.integers(min_value=0, max_value=3),
        seed=st.integers(min_value=0, max_value=1000),
    )
    def test_agreement_with_one_crashed_node(self, proposals, silent, seed):
        honest = run_instance(proposals, silent_index=silent, seed=seed, jitter=0.02)
        decisions = {host.instance.decided for host in honest}
        assert None not in decisions
        assert len(decisions) == 1

    @consensus_settings
    @given(
        value=st.integers(min_value=0, max_value=1),
        silent=st.integers(min_value=0, max_value=3),
        seed=st.integers(min_value=0, max_value=1000),
    )
    def test_validity_with_one_crashed_node(self, value, silent, seed):
        honest = run_instance([value] * 4, silent_index=silent, seed=seed, jitter=0.02)
        assert all(host.instance.decided == value for host in honest)
