"""Wire-path cost per ballot against the electorate (ROADMAP item 6(b)).

The paper's Fig. 5a has the vote-collection cost per ballot flat in the
electorate.  This probe runs the ``engine_wire`` shape of the end-to-end
benchmark (``paper_baseline`` with 7 collectors, 2 options, the wire
transport, voters 5 simulated ms apart) at several electorate sizes, each in
a fresh interpreter so no run inherits another's heap, and reports per size:

* the wall time of every engine phase (``setup``, ``voting``, ``consensus``,
  ``tally``, ``audit``) and the milliseconds per ballot after set-up;
* the peak resident set size of the run's process (``ru_maxrss``);
* ``frames_encoded`` / ``frames_decoded`` of the wire transport: with no
  drops every broadcast is parsed once, so the two must be equal;
* the strict body parses per payload type (every body the codec parsed
  rather than found in its intern table), counted by wrapping the codec's
  body decoders from this probe.  For certificates and endorsements it also
  counts the distinct bodies parsed: one parse per object is the gate;
* the outcome hash, which must equal that of the same scenario on the
  in-memory transport (also run in its own process).

Sizes: 100, 400 and 1,600 voters (one to two minutes on a 2-vCPU VM);
``BENCH_SMOKE=1`` runs 24 voters for the CI job.  Only exact counts and
hashes are gated, never wall time: the parse counters add one Python call
per parsed body, the same on every tree the probe runs against.  Results land in
``benchmarks/results/wire_scaling.json``.

Run one size by hand (one JSON row on stdout)::

    PYTHONPATH=src python benchmarks/bench_wire_scaling.py --voters 400 --transport wire
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

SMOKE = os.environ.get("BENCH_SMOKE") == "1"
VOTER_COUNTS = (24,) if SMOKE else (100, 400, 1_600)
SEED = 1
#: payload types whose distinct parsed bodies are counted too
ONE_PARSE_PER_OBJECT = ("UniquenessCertificate", "Endorsement")


def build_spec(num_voters: int, transport: str, seed: int = SEED):
    """``engine_wire`` of ``benchmarks/e2e`` at ``num_voters`` voters."""
    from repro.api import ScenarioSpec, TransportProfile

    return ScenarioSpec.preset("paper_baseline", num_voters=num_voters, seed=seed).derive(
        num_vc=7,
        options=("yes", "no"),
        transport=TransportProfile(backend=transport),
        stagger=0.005,
    )


def count_body_parses():
    """Count the strict body parses of every codec built from now on.

    Wraps ``MessageCodec._body_codec``, which builds each registered type's
    body decoder: every call of a decoder is one body parsed from bytes (an
    intern-table hit calls none).  Returns the parse counter by type name and,
    for ``ONE_PARSE_PER_OBJECT``, the set of hashes of the bodies parsed.
    """
    from collections import Counter

    from repro.net.codec import MessageCodec

    parses = Counter()
    bodies = {name: set() for name in ONE_PARSE_PER_OBJECT}
    build = MessageCodec._body_codec

    def body_codec(codec, cls):
        encode, decode = build(codec, cls)
        name, seen = cls.__name__, bodies.get(cls.__name__)

        def counted(reader):
            parses[name] += 1
            if seen is not None:
                seen.add(hash(reader.data[reader.pos:reader.end]))
            return decode(reader)

        return encode, counted

    MessageCodec._body_codec = body_codec
    return parses, bodies


def run_child(num_voters: int, transport: str) -> dict:
    """One election in this process: phase walls, RSS, transport counters."""
    import resource

    from repro.analysis.determinism import default_choices, outcome_hash
    from repro.api import ElectionEngine

    parses, bodies = count_body_parses()
    spec = build_spec(num_voters, transport)
    engine = ElectionEngine(spec)
    ctx = engine.begin(default_choices(spec))
    phases = {}
    try:
        for driver in engine.drivers:
            if driver.should_run(ctx):
                started = time.perf_counter()
                engine.run_phase(driver, ctx)
                phases[driver.name] = time.perf_counter() - started
    finally:
        engine.close()
    outcome = engine.outcome()
    network = outcome.network
    post_setup = sum(wall for name, wall in phases.items() if name != "setup")
    return {
        "voters": num_voters,
        "transport": network.transport.name,
        "phases_s": {name: round(wall, 3) for name, wall in phases.items()},
        "ms_per_ballot": round(1000.0 * post_setup / num_voters, 2),
        "peak_rss_mib": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1),
        "receipts": outcome.receipts_obtained,
        "audit_passed": outcome.audit_report is not None and outcome.audit_report.passed,
        "messages_dropped": network.messages_dropped,
        "frames_encoded": network.transport.frames_encoded,
        "frames_decoded": network.transport.frames_decoded,
        "body_parses": dict(sorted(parses.items())),
        "distinct_bodies": {name: len(seen) for name, seen in bodies.items()},
        "outcome_hash": outcome_hash(outcome),
    }


def spawn(num_voters: int, transport: str) -> dict:
    """:func:`run_child` in a fresh interpreter."""
    completed = subprocess.run(
        [sys.executable, __file__, "--voters", str(num_voters), "--transport", transport],
        check=True, capture_output=True, text=True,
    )
    return json.loads(completed.stdout.splitlines()[-1])


def test_wire_cost_per_ballot_against_the_electorate(results_sink):
    save_results, print_table = results_sink
    rows, table = [], []
    for voters in VOTER_COUNTS:
        wire, memory = spawn(voters, "wire"), spawn(voters, "memory")
        rows.append({"wire": wire, "memory": memory})
        table.append({
            "voters": voters,
            **{f"{name}_s": wall for name, wall in wire["phases_s"].items()},
            "ms/ballot": wire["ms_per_ballot"],
            "rss_MiB": wire["peak_rss_mib"],
            "memory ms/ballot": memory["ms_per_ballot"],
            "encoded": wire["frames_encoded"],
            "decoded": wire["frames_decoded"],
            "body parses": sum(wire["body_parses"].values()),
            "ucert parses": wire["body_parses"].get("UniquenessCertificate", 0),
            "endorsement parses": wire["body_parses"].get("Endorsement", 0),
            "hash": wire["outcome_hash"][:12],
        })
    print_table("engine_wire shape against the electorate (7 collectors, seed 1)", table)
    save_results("wire_scaling", rows)
    for row in rows:
        wire, memory = row["wire"], row["memory"]
        assert wire["outcome_hash"] == memory["outcome_hash"], row
        assert wire["receipts"] == memory["receipts"] == wire["voters"], row
        assert wire["audit_passed"] and memory["audit_passed"], row
        # One parse per broadcast: nothing is dropped on this LAN profile.
        assert wire["messages_dropped"] == 0, row
        assert wire["frames_decoded"] == wire["frames_encoded"] > 0, row
        # One parse per object: every certificate and every endorsement body
        # is parsed once, however many frames carry it.  A voter per ballot
        # and no retries on this profile: one certificate per voter.
        for name in ONE_PARSE_PER_OBJECT:
            assert wire["body_parses"][name] == wire["distinct_bodies"][name], (name, row)
        assert wire["distinct_bodies"]["UniquenessCertificate"] == wire["voters"], row


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--voters", type=int, required=True)
    parser.add_argument("--transport", choices=("wire", "memory"), default="wire")
    args = parser.parse_args()
    print(json.dumps(run_child(args.voters, args.transport)))
