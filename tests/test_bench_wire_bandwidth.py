"""The per-family byte breakdown of ``benchmarks/bench_wire_bandwidth.py``.

The benchmarks are not collected by the tier-1 run, so a network counter the
wire benchmark reads could disappear with every test green.  This runs the
benchmark's per-election function once at its smallest size and holds the
breakdown to the network's own totals.
"""

import importlib.util
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "benchmarks" / "bench_wire_bandwidth.py"


def _load_bench():
    spec = importlib.util.spec_from_file_location("bench_wire_bandwidth", BENCH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench = _load_bench()


def test_the_family_breakdown_adds_up_to_the_network_totals():
    num_voters = min(bench.VOTER_COUNTS)
    outcome, phase_bytes, by_family = bench.run_wire_election(num_voters, batch_size=1)
    network = outcome.network

    assert outcome.tally is not None and sum(outcome.tally.counts) == num_voters
    assert set(by_family) == {"voting", "consensus", "upload", "other", "consensus_frames"}
    assert min(by_family["voting"], by_family["consensus"], by_family["upload"]) > 0
    assert by_family["other"] == 0  # every payload type is in a family
    families = by_family["voting"] + by_family["consensus"] + by_family["upload"]
    assert families == network.bytes_sent == sum(phase_bytes.values())
    assert by_family["consensus_frames"] == network.payload_copies_sent["VscBatch"] > 0
