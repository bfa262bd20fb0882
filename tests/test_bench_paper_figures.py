"""The paper's figure shapes, measured by ``benchmarks/bench_paper_figures.py``.

The benchmarks are not collected by the tier-1 run, so an engine, outcome
or spec name the figure benchmark reads could change with every test green.
This runs the benchmark's per-point function at small shapes along each
of its axes and holds every point to the benchmark's gates.  Like the
benchmark, the shape assertions use exact counts and simulated time only,
never wall time.
"""

import functools
import importlib.util
import re
from pathlib import Path

import pytest

from repro.api import AdmissionProfile, NetworkProfile

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "benchmarks" / "bench_paper_figures.py"
#: the row keys ``benchmarks/README.md`` documents
ROW_KEYS = {
    "figure", "num_vc", "network", "num_voters", "num_options", "tally", "expected",
    "receipts", "audit_passed", "safety_violations", "admitted", "shed",
    "voting_msgs_per_ballot", "msgs_per_ballot", "receipt_p50_sim_ms", "ballots_per_s",
    "setup_s", "voting_s", "consensus_s", "tally_s", "audit_s",
}


def _load_bench():
    spec = importlib.util.spec_from_file_location("bench_paper_figures", BENCH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench = _load_bench()
SMALL = bench.BASE.derive(num_voters=4)
NETWORKS = {"lan": NetworkProfile.lan(), "wan": NetworkProfile.wan()}
VC_COUNTS = (4, 5, 6, 7)
ELECTORATES = (2, 4, 8, 16)
OPTION_COUNTS = (2, 3, 4, 5)

#: every honest point: Fig. 4 (Nv x network), 5a (voters), 5b (m)
HONEST = {
    **{
        f"fig4-{net}-nv{nv}": ("fig4", SMALL.derive(num_vc=nv, network=NETWORKS[net]))
        for nv in VC_COUNTS
        for net in NETWORKS
    },
    **{f"fig5a-n{n}": ("fig5a", SMALL.derive(num_voters=n)) for n in ELECTORATES},
    **{f"fig5b-m{m}": ("fig5b", SMALL.derive(options=bench.options(m))) for m in OPTION_COUNTS},
}
#: the benchmark's overload point at 8 voters, and the same voters with a
#: queue deep enough to hold every request
ADMISSION = {
    "overload": ("overload", bench.OVERLOAD.derive(num_voters=8)),
    "overload-deep-queue": (
        "overload",
        bench.OVERLOAD.derive(
            num_voters=8, admission=AdmissionProfile(queue_depth=64, service_ms=20.0)
        ),
    ),
}
POINTS = {**HONEST, **ADMISSION}
#: the columns that depend on wall-clock time
WALL_KEYS = {"ballots_per_s", "setup_s", "voting_s", "consensus_s", "tally_s", "audit_s"}


@functools.lru_cache(maxsize=None)
def row(name):
    figure, spec = POINTS[name]
    return bench.run_point(figure, spec)


def test_one_point_of_the_paper_figures_benchmark():
    point = bench.BASE.derive(num_vc=4, num_voters=4, options=bench.options(2))
    assert point.transport.backend == "memory" and not point.transport.wire_format
    result = bench.run_point("tier-1", point)

    assert set(result) == ROW_KEYS
    assert result["tally"] == result["expected"]
    assert result["audit_passed"]
    assert result["safety_violations"] == []
    assert result["voting_msgs_per_ballot"] == bench.voting_messages(4) == 26


def test_the_readme_documents_every_row_key():
    readme = (ROOT / "benchmarks" / "README.md").read_text()
    glossary = readme.split("**Paper figure rows**", 1)[1].split("Wall-clock columns", 1)[0]
    documented = set()
    for line in glossary.splitlines():
        if line.startswith("| `"):
            documented.update(re.findall(r"`(\w+)`", line.split("|")[1]))
    assert documented == ROW_KEYS


@pytest.mark.parametrize("name", sorted(POINTS))
def test_every_point_passes_the_benchmark_gates(name):
    result = row(name)
    assert set(result) == ROW_KEYS
    assert result["tally"] == result["expected"]
    assert result["receipts"] == result["num_voters"] == result["admitted"]
    assert result["audit_passed"]
    assert result["safety_violations"] == []


@pytest.mark.parametrize("name", sorted(HONEST))
def test_an_honest_vote_costs_nv_squared_plus_2nv_plus_2_messages(name):
    result = row(name)
    assert result["shed"] == 0
    assert result["voting_msgs_per_ballot"] == bench.voting_messages(result["num_vc"])


@pytest.mark.parametrize("nv", VC_COUNTS)
def test_the_wan_sends_the_same_messages_as_the_lan(nv):
    lan, wan = row(f"fig4-lan-nv{nv}"), row(f"fig4-wan-nv{nv}")
    assert wan["msgs_per_ballot"] == lan["msgs_per_ballot"]


@pytest.mark.parametrize("nv", VC_COUNTS)
def test_the_wan_lengthens_every_receipt(nv):
    lan, wan = row(f"fig4-lan-nv{nv}"), row(f"fig4-wan-nv{nv}")
    assert wan["receipt_p50_sim_ms"] > 50 * lan["receipt_p50_sim_ms"]


@pytest.mark.parametrize("net", sorted(NETWORKS))
def test_receipt_latency_is_flat_in_nv(net):
    """Fig. 4a/4d's growth is not reproduced: the simulator charges no CPU
    time to simulated time, so a receipt waits for the network alone."""
    latencies = [row(f"fig4-{net}-nv{nv}")["receipt_p50_sim_ms"] for nv in VC_COUNTS]
    assert max(latencies) < 1.1 * min(latencies)


def test_consensus_messages_per_ballot_fall_with_the_electorate():
    per_ballot = [row(f"fig5a-n{n}")["msgs_per_ballot"] for n in ELECTORATES]
    assert per_ballot == sorted(per_ballot, reverse=True)
    assert per_ballot[0] > per_ballot[-1]


@pytest.mark.parametrize("m", OPTION_COUNTS)
def test_the_tally_has_one_count_per_option(m):
    result = row(f"fig5b-m{m}")
    assert result["num_options"] == len(result["tally"]) == m
    assert sum(result["tally"]) == result["num_voters"]


def test_the_overload_point_sheds():
    assert row("overload")["shed"] > 0


def test_a_queue_that_holds_every_request_sheds_nothing():
    assert row("overload-deep-queue")["shed"] == 0
    assert row("overload-deep-queue")["voting_msgs_per_ballot"] == bench.voting_messages(4)


def test_a_shed_request_costs_its_vote_and_a_retry_hint():
    result = row("overload")
    voters = result["num_voters"]
    sent = round(result["voting_msgs_per_ballot"] * voters)
    assert sent == bench.voting_messages(4) * voters + 2 * result["shed"]


@pytest.mark.parametrize("name", ["fig4-wan-nv7", "fig5b-m5", "overload"])
def test_a_seed_fixes_every_count(name):
    figure, spec = POINTS[name]
    again = bench.run_point(figure, spec)
    first = row(name)
    assert {k: v for k, v in again.items() if k not in WALL_KEYS} == {
        k: v for k, v in first.items() if k not in WALL_KEYS
    }
