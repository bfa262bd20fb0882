"""Figures 4 and 5 of the paper, measured on the real election engine.

Every point is one full :class:`ElectionEngine` run on the simulator -- EA
set-up, Algorithm 1 voting, Vote Set Consensus, trustee tally, audit --
along the paper's axes:

* Fig. 4a/4b (LAN) and 4d/4e (WAN): ``Nv`` in {4, 7, 10};
* Fig. 5a: the electorate, {30, 60, 120} voters;
* Fig. 5b: the option count ``m`` in {2, 4, 8};
* Fig. 5c: the wall time of each phase, timed around ``engine.run_phase``,
  of the Fig. 5a points (whose axis is the ballots cast);
* one overload point: a two-deep admission queue per collector, drained at
  one VOTE per 20 simulated ms while voters arrive 5 ms apart, so requests
  are shed and retried.

The engine's voters vote once each, so Fig. 4c/4f (throughput against the
number of closed-loop clients) has no counterpart here.  The simulator
charges no CPU time to simulated time: receipt latency is the network's
alone (LAN 0.2 ms, WAN 25 ms per message), and the compute cost shows in
the wall-clock ``ballots_per_s`` and phase columns.

Every point must give the expected tally, a receipt per voter, a passing
audit and no Theorem-2 safety violation.  The shape assertions use exact
counts only, never wall time: a vote costs ``Nv^2 + 2 Nv + 2`` messages on
either network and at every electorate and option count, and the WAN
receipt takes longer in simulated time.

Set ``BENCH_SMOKE=1`` for the CI smoke sizes.  Results land in
``benchmarks/results/paper_figures.json``; ``benchmarks/README.md`` lists
the row keys.
"""

from __future__ import annotations

import os
import statistics
import time
from typing import Any, Dict

from repro.analysis.determinism import default_choices, safety_violations
from repro.api import AdmissionProfile, ElectionEngine, NetworkProfile, ScenarioSpec
from repro.core.tally import expected_tally

SMOKE = os.environ.get("BENCH_SMOKE") == "1"
VC_COUNTS = (4, 7) if SMOKE else (4, 7, 10)
ELECTORATES = (8, 16, 32) if SMOKE else (30, 60, 120)
OPTION_COUNTS = (2, 4) if SMOKE else (2, 4, 8)
PHASES = ("setup", "voting", "consensus", "tally", "audit")

#: every point derives from this spec; the points off the Fig. 5a axis run
#: the smallest electorate
BASE = ScenarioSpec(
    options=("option-1", "option-2"),
    num_voters=ELECTORATES[0],
    election_id="paper-figures",
    election_end=500.0,
    seed=1,
)
OVERLOAD = BASE.derive(
    admission=AdmissionProfile(queue_depth=2, service_ms=20.0), stagger=0.005
)

_rows: list = []


def options(count: int) -> tuple:
    return tuple(f"option-{i + 1}" for i in range(count))


def voting_messages(num_vc: int) -> int:
    """Messages of one honest vote, self-addressed ones included: VOTE, an
    ENDORSE to and an ENDORSEMENT from every collector, every collector's
    VOTE_P to every collector, and the receipt."""
    return num_vc * num_vc + 2 * num_vc + 2


def run_point(figure: str, spec: ScenarioSpec) -> Dict[str, Any]:
    """Run one election of ``spec`` and return its row."""
    choices = default_choices(spec)
    engine = ElectionEngine(spec)
    ctx = engine.begin(choices)
    wall: Dict[str, float] = {}
    voting_msgs = 0
    try:
        for driver in engine.drivers:
            if driver.should_run(ctx):
                started = time.perf_counter()
                engine.run_phase(driver, ctx)
                wall[driver.name] = time.perf_counter() - started
                if driver.name == "voting":
                    voting_msgs = ctx.network.messages_sent
    finally:
        engine.close()
    outcome = engine.outcome()
    latencies = [
        (voter.completed_at - voter.submitted_at) * 1000.0
        for voter in outcome.voters
        if voter.completed_at is not None
    ]
    admission = outcome.admission_stats
    ballots = spec.num_voters
    return {
        "figure": figure,
        "num_vc": spec.num_vc,
        "network": spec.network.kind,
        "num_voters": ballots,
        "num_options": spec.num_options,
        "tally": list(outcome.tally.counts) if outcome.tally is not None else None,
        "expected": list(expected_tally(spec.options, choices).counts),
        "receipts": outcome.receipts_obtained,
        "audit_passed": outcome.audit_report is not None and outcome.audit_report.passed,
        "safety_violations": safety_violations(outcome, spec),
        "admitted": admission["admitted"],
        "shed": admission["shed"],
        "voting_msgs_per_ballot": round(voting_msgs / ballots, 2),
        "msgs_per_ballot": round(outcome.network.messages_sent / ballots, 2),
        "receipt_p50_sim_ms": round(statistics.median(latencies), 3) if latencies else None,
        "ballots_per_s": round(ballots / (sum(wall.values()) - wall["setup"]), 1),
        **{f"{name}_s": round(seconds, 4) for name, seconds in wall.items()},
    }


def measure(figure: str, spec: ScenarioSpec) -> Dict[str, Any]:
    """:func:`run_point`, checked and recorded."""
    row = run_point(figure, spec)
    assert row["tally"] == row["expected"], row
    assert row["receipts"] == row["num_voters"] == row["admitted"], row
    assert row["audit_passed"], row
    assert row["safety_violations"] == [], row
    assert all(f"{name}_s" in row for name in PHASES), row
    _rows.append(row)
    return row


def test_fig4_collectors_on_lan_and_wan():
    for num_vc in VC_COUNTS:
        lan, wan = (
            measure("fig4", BASE.derive(num_vc=num_vc, network=network))
            for network in (NetworkProfile.lan(), NetworkProfile.wan())
        )
        # 4b/4e: the per-vote work grows with Nv^2, and the WAN does not change it
        assert lan["voting_msgs_per_ballot"] == voting_messages(num_vc)
        assert wan["voting_msgs_per_ballot"] == voting_messages(num_vc)
        assert wan["msgs_per_ballot"] == lan["msgs_per_ballot"]
        # 4a/4d: the WAN's 25 ms hops lengthen every receipt
        assert wan["receipt_p50_sim_ms"] > 50 * lan["receipt_p50_sim_ms"]


def test_fig5a_electorate():
    rows = [measure("fig5a", BASE.derive(num_voters=n)) for n in ELECTORATES]
    assert {row["voting_msgs_per_ballot"] for row in rows} == {voting_messages(4)}
    # consensus frames follow rounds, not ballots: their share per ballot falls
    per_ballot = [row["msgs_per_ballot"] for row in rows]
    assert per_ballot == sorted(per_ballot, reverse=True)


def test_fig5b_options():
    rows = [measure("fig5b", BASE.derive(options=options(m))) for m in OPTION_COUNTS]
    assert {row["voting_msgs_per_ballot"] for row in rows} == {voting_messages(4)}


def test_overload_sheds_and_every_voter_still_gets_a_receipt():
    row = measure("overload", OVERLOAD)
    assert row["shed"] > 0


def test_save_results(results_sink):
    save, show = results_sink
    assert _rows, "the figure tests must run before the results are saved"
    save("paper_figures", _rows)
    for figure in ("fig4", "fig5a", "fig5b", "overload"):
        show(f"{figure} (measured)", [row for row in _rows if row["figure"] == figure])
    columns = ("num_voters", *(f"{name}_s" for name in PHASES))
    show(
        "fig5c: wall seconds per phase vs ballots cast",
        [{c: row[c] for c in columns} for row in _rows if row["figure"] == "fig5a"],
    )
