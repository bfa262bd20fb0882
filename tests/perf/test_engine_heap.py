"""What one more ballot costs the engine in resident heap.

ROADMAP item 3 names memory per ballot as what keeps the protocol engine from
the sharded pipeline's electorates.  Half of it was the trustees' shares held
as one boxed object per scalar (``Share`` / ``PedersenShare`` plus their ints:
~96 KiB of the ~166 KiB a ``paper_baseline`` ballot retained after set-up at
1b95dde); packed into ``bytes`` blocks as they are dealt they are ~7 KiB, and
a ballot retains ~70 KiB.  The gate sits between the two, so it fails at
1b95dde and leaves room for an allocator or interpreter that rounds
differently -- not for a per-scalar object coming back.

The network keeps counters, not messages: a run's delivered messages (and,
on the wire transport, their decoded payloads) are garbage once handled.

Vote Set Consensus state is transient -- a halted instance shrinks to its
round and decision -- but while the phase runs it is the largest per-ballot
cost, so its peak is gated too (``test_consensus_peak_per_ballot``).

``test_run_peak_per_ballot`` gates what one more ballot adds to the whole
run's peak.  Most of what a ballot holds is small frozen values, slotted, and
the audit's batch equations keep their terms as two lists, not one tuple each.

Only the voting phase verifies collector signatures, so it owns the collector
keys' fixed-base tables (8,192 residues, 0.56 MB each) and releases them at
close (``test_collector_key_tables_are_released_at_close``).  What consensus,
tally and audit add is then built on the room the tables leave, and on the
``engine_wire`` shape the run's peak is reached by the end of voting, not in
the audit (``test_no_phase_after_voting_raises_the_peak``).
"""

import gc
import tracemalloc

import pytest

from repro.analysis.determinism import default_choices
from repro.api import ElectionEngine, ScenarioSpec, TransportProfile
from repro.crypto.pedersen_vss import PedersenShare
from repro.crypto.shamir import Share
from repro.net.channels import Message

#: bytes of traced heap one more ballot may retain after the ``setup`` phase
GATE_PER_BALLOT = 110 * 1024

#: bytes of traced heap one more ballot may add to the peak of the
#: ``consensus`` phase, above the heap at the end of voting, on the
#: ``engine_wire`` shape (7 collectors, 2 options, wire transport).  Measured
#: 24 -> 48 voters with CPython 3.11.7 on x86-64: 40.8 KiB while consensus
#: state held its participants as sets of names, 23.2 KiB with member bitmasks.
CONSENSUS_PEAK_GATE = 32 * 1024

#: bytes of traced peak one more ballot may add to a whole ``paper_baseline``
#: run (set-up to audit), after a warm-up run.  Measured 24 -> 48 voters with
#: CPython 3.11.7 on x86-64: 111.7-113.0 KiB while the value types had an instance
#: ``__dict__`` and the audit built a ``(base, exponent)`` tuple per term,
#: 93.3 KiB with slots and split term lists.
RUN_PEAK_GATE = 102 * 1024


#: bytes by which the traced peak of ``consensus`` through ``audit`` may exceed
#: the traced peak of ``voting`` (the heap at voting's end, collector-key tables
#: included), on the ``engine_wire`` shape at 100 voters.  Measured with
#: CPython 3.11.7 on x86-64 after a warm-up run: +2.13 MiB while the tables
#: lived for the whole run (voting 5.81 MiB, after it 7.94 MiB, the tables
#: built before the trace), -1.61 MiB with the tables released at close
#: (voting 9.56 MiB, after it 7.95 MiB).
POST_VOTING_PEAK_MARGIN = 512 * 1024


def retained_after_setup(num_voters: int) -> int:
    """Traced bytes alive after the ``setup`` phase of a ``paper_baseline`` election."""
    spec = ScenarioSpec.preset("paper_baseline", num_voters=num_voters)
    engine = ElectionEngine(spec)
    gc.collect()
    tracemalloc.start()
    try:
        ctx = engine.begin([spec.options[0]] * num_voters)
        engine.run_phase(engine.driver("setup"), ctx)
        gc.collect()
        return tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
        engine.close()


def run_peak(num_voters: int) -> int:
    """Traced peak of a whole ``paper_baseline`` election."""
    spec = ScenarioSpec.preset("paper_baseline", num_voters=num_voters)
    engine = ElectionEngine(spec)
    gc.collect()
    tracemalloc.start()
    try:
        assert engine.run(default_choices(spec)).audit_report.passed
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def consensus_peak_above_voting(num_voters: int) -> int:
    """Traced peak of the ``consensus`` phase above the heap at voting end."""
    spec = wire_spec(num_voters)
    engine = ElectionEngine(spec)
    gc.collect()
    tracemalloc.start()
    try:
        ctx = engine.begin(default_choices(spec))
        for phase in ("setup", "voting"):
            engine.run_phase(engine.driver(phase), ctx)
        gc.collect()
        at_voting_end = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        engine.run_phase(engine.driver("consensus"), ctx)
        return tracemalloc.get_traced_memory()[1] - at_voting_end
    finally:
        tracemalloc.stop()
        engine.close()


def wire_spec(num_voters: int) -> ScenarioSpec:
    """The ``engine_wire`` shape: 7 collectors, 2 options, wire transport."""
    return ScenarioSpec.preset("paper_baseline", num_voters=num_voters).derive(
        num_vc=7, options=("yes", "no"), transport=TransportProfile.wire(), stagger=0.005
    )


def post_voting_peak_above_voting(num_voters: int) -> int:
    """Traced peak of ``consensus`` through ``audit`` minus the traced peak of
    ``voting``."""
    spec = wire_spec(num_voters)
    engine = ElectionEngine(spec)
    gc.collect()
    tracemalloc.start()
    try:
        ctx = engine.begin(default_choices(spec))
        engine.run_phase(engine.driver("setup"), ctx)
        tracemalloc.reset_peak()
        engine.run_phase(engine.driver("voting"), ctx)
        voting_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        for phase in ("consensus", "tally", "audit"):
            engine.run_phase(engine.driver(phase), ctx)
        assert ctx.audit_report.passed
        return tracemalloc.get_traced_memory()[1] - voting_peak
    finally:
        tracemalloc.stop()
        engine.close()


def reachable(root):
    """Every object reachable from ``root`` through ``gc.get_referents``
    (types, modules and functions are not followed: they reach everything)."""
    seen, stack = {}, [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, type) or callable(obj):
            continue
        seen[id(obj)] = obj
        stack.extend(gc.get_referents(obj))
    return seen.values()


@pytest.mark.skipif(tracemalloc.is_tracing(), reason="needs tracemalloc to itself")
def test_heap_retained_per_ballot_after_setup():
    retained_after_setup(2)  # fixed-base tables, codec registry, lru caches: paid once
    small, large = retained_after_setup(24), retained_after_setup(48)
    per_ballot = (large - small) / 24
    assert per_ballot <= GATE_PER_BALLOT, f"{per_ballot / 1024:.1f} KiB per ballot"
    assert per_ballot >= 16 * 1024  # the probe measures something: 7 collectors' rows alone


@pytest.mark.skipif(tracemalloc.is_tracing(), reason="needs tracemalloc to itself")
def test_consensus_peak_per_ballot():
    consensus_peak_above_voting(2)  # paid once, as above
    small, large = consensus_peak_above_voting(24), consensus_peak_above_voting(48)
    per_ballot = (large - small) / 24
    assert per_ballot <= CONSENSUS_PEAK_GATE, f"{per_ballot / 1024:.1f} KiB per ballot"
    assert per_ballot >= 8 * 1024  # the probe measures something: 7 instances per ballot


@pytest.mark.skipif(tracemalloc.is_tracing(), reason="needs tracemalloc to itself")
def test_run_peak_per_ballot():
    run_peak(2)  # paid once, as above
    small, large = run_peak(24), run_peak(48)
    per_ballot = (large - small) / 24
    assert per_ballot <= RUN_PEAK_GATE, f"{per_ballot / 1024:.1f} KiB per ballot"
    assert per_ballot >= 32 * 1024  # the probe measures something: a ballot's rows and proofs


@pytest.mark.skipif(tracemalloc.is_tracing(), reason="needs tracemalloc to itself")
def test_no_phase_after_voting_raises_the_peak():
    post_voting_peak_above_voting(2)  # paid once, as above
    above = post_voting_peak_above_voting(100)
    assert above <= POST_VOTING_PEAK_MARGIN, f"{above / 2**20:+.2f} MiB above voting's peak"


def test_collector_key_tables_are_released_at_close():
    spec = wire_spec(8)
    engine = ElectionEngine(spec)
    try:
        ctx = engine.begin(default_choices(spec))
        for phase in ("setup", "voting"):
            engine.run_phase(engine.driver(phase), ctx)
        group, keys = ctx.group, ctx.setup.bb_init.vc_public_keys
        held = set(getattr(group, "_fixed_base_cache", {}))
        assert len(keys) == 7
        assert {key.serialize() for key in keys.values()} & held == set()
        # What later phases read keeps its table: g (power_g) and the commitment key.
        assert {group.generator().serialize(), ctx.setup.commitment_public_key.serialize()} <= held
    finally:
        engine.close()


def test_no_boxed_share_in_trustee_data(small_outcome):
    """Nothing a trustee receives, and nothing a BB node stores of what a
    trustee posts, holds a per-scalar share object."""
    boxed = (Share, PedersenShare)
    init = small_outcome.setup.trustee_init
    assert not [obj for obj in reachable(init) if isinstance(obj, boxed)]
    assert sum(type(obj) is bytes for obj in reachable(init)) >= 4 * 2 * 2 * 3  # the blocks
    for bb in small_outcome.bb_nodes:
        assert len(bb.trustee_submissions) == 3
        for submission in bb.trustee_submissions.values():
            # The signature holds its public nonce commitment, a group element,
            # which holds the group: do not walk into the process-wide group.
            unsigned = (
                submission.opening_shares, submission.proof_shares, submission.tally_share
            )
            assert not [obj for obj in reachable(unsigned) if isinstance(obj, boxed)]


def test_no_message_of_a_finished_run_stays_alive():
    spec = ScenarioSpec.preset("paper_baseline", num_voters=20).derive(
        transport=TransportProfile.wire()
    )
    first_id = Message("probe", "probe", None).message_id
    outcome = ElectionEngine(spec).run(default_choices(spec))
    last_id = Message("probe", "probe", None).message_id
    assert outcome.audit_report.passed
    assert outcome.network.messages_delivered > 20 * spec.num_vc  # the run really sent some
    gc.collect()
    alive = [
        obj for obj in gc.get_objects()
        if isinstance(obj, Message) and first_id < obj.message_id < last_id
    ]
    assert alive == [], f"{len(alive)} messages of the run are still reachable"
