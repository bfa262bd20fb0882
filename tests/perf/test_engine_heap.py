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
