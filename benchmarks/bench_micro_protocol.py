"""Micro-benchmark of the real (cryptographic) protocol stack end to end.

This complements the model-based figure benchmarks with a measurement of the
actual library: a complete small election -- EA setup, voting over the
simulated network, Vote Set Consensus, BB uploads, trustee tabulation and a
full audit -- executed with real cryptography.  It demonstrates that the
implementation itself (not just the performance model) runs the whole paper
pipeline.
"""

from __future__ import annotations

import pytest

from repro.api import ElectionEngine, ScenarioSpec
from repro.core.election import ElectionParameters


def run_small_election():
    spec = ScenarioSpec(
        options=("option-1", "option-2"), num_voters=3, election_end=200.0, seed=77
    )
    outcome = ElectionEngine(spec).run(["option-1", "option-2", "option-1"])
    assert outcome.tally is not None
    assert outcome.tally.as_dict() == {"option-1": 2, "option-2": 1}
    assert outcome.audit_report.passed
    return outcome


@pytest.mark.benchmark(group="micro-protocol")
def test_bench_full_election_end_to_end(benchmark):
    """Complete election (3 voters, 2 options, 4 VC / 3 BB / 3 trustees)."""
    benchmark.pedantic(run_small_election, rounds=1, iterations=1)


@pytest.mark.benchmark(group="micro-protocol")
def test_bench_vote_collection_only(benchmark):
    """The voting protocol alone (no proofs / trustee data), per vote."""
    from repro.core.ea import ElectionAuthority
    from repro.core.election import vc_node_id
    from repro.core.messages import VoteRequest
    from repro.core.vote_collector import VoteCollectorNode
    from repro.crypto.utils import RandomSource
    from repro.net.adversary import NetworkConditions
    from repro.net.channels import ChannelKind, Message
    from repro.net.simulator import Network, SimNode

    params = ElectionParameters.small_test_election(
        num_voters=8, num_options=2, election_end=10_000.0
    )
    setup = ElectionAuthority(
        params, rng=RandomSource(5), include_proofs=False, include_trustee_data=False
    ).setup()

    class Sink(SimNode):
        def on_message(self, message: Message) -> None:
            pass

    state = {"index": 0}

    def cast_one_vote():
        network = Network(conditions=NetworkConditions(base_latency=0.0005, seed=1))
        nodes = [
            VoteCollectorNode(setup.vc_init[vc_node_id(i)], params)
            for i in range(params.thresholds.num_vc)
        ]
        for node in nodes:
            network.register(node)
        sink = Sink("voter-sink")
        network.register(sink)
        ballot = setup.ballots[state["index"] % len(setup.ballots)]
        state["index"] += 1
        sink.send("VC-0", VoteRequest(ballot.serial, ballot.part_a.lines[0].vote_code),
                  channel=ChannelKind.PUBLIC)
        network.run_until_idle()
        assert nodes[0].receipts_issued == 1

    benchmark.pedantic(cast_one_vote, rounds=5, iterations=1)
