"""Every field a payload carries is read by a receiver.

The paper's messages are tuples such as ⟨VOTE, serial-no, vote-code⟩; a field
no code reads (a sender name the channel already authenticates, a count the
opening already holds) is bytes on the wire and one more thing a reader must
learn not to trust.  Here every field of every registered payload type is
wrapped in a counting descriptor while a few elections run, and each field of
each payload those runs build must be read at least once.

Reads from :mod:`repro.values` (equality, hashing, repr), from
:mod:`repro.net.codec` (which writes every field) and from :mod:`dataclasses`
(``replace``) do not count: they touch every field whatever it means.
"""

import dataclasses
import sys

import pytest
from engine_runs import RevealToTwo, recover_spec, run_spec

from repro.api import ConsensusConfig, MultiElectionService, ScenarioSpec
from repro.core.byzantine import VC_BEHAVIORS
from repro.net.codec import default_codec

IGNORED_CALLERS = frozenset({"repro.values", "repro.net.codec", "dataclasses"})

#: ``(type name, field)`` no run reads, and why it stays on the wire
UNREAD = {
    ("ShardCommitRecord", "vote_set_digest"): (
        "published record content: binds the shard's decided vote set into the "
        "record digest the global commit signs over"
    ),
    ("GlobalCommitRecord", "election_id"): (
        "published record content: names the election the global commit closes"
    ),
}


class CountingField:
    """Stands in for one slot descriptor: notes the owner as built on a write
    and the field as read on a counted read, then puts the slot back (a
    read field needs no more watching)."""

    def __init__(self, owner, name, probe):
        self.owner, self.name, self.probe = owner, name, probe
        # A field declared on a base class has its slot there.
        slot = next(base.__dict__[name] for base in owner.__mro__ if name in base.__dict__)
        self.slot = slot.slot if isinstance(slot, CountingField) else slot

    def __get__(self, obj, objtype=None):
        if obj is not None and sys._getframe(1).f_globals.get("__name__") not in IGNORED_CALLERS:
            self.probe.read.add((self.owner.__name__, self.name))
            setattr(self.owner, self.name, self.slot)
        return self.slot.__get__(obj, objtype)

    def __set__(self, obj, value):
        self.probe.built.add(self.owner)
        self.slot.__set__(obj, value)


class Probe:
    def __init__(self):
        self.built = set()
        self.read = set()

    def install(self, patch):
        for cls in default_codec().registered_types:
            for field in dataclasses.fields(cls):
                patch.setattr(cls, field.name, CountingField(cls, field.name, self))

    def unread(self):
        return {
            (cls.__name__, field.name)
            for cls in self.built
            for field in dataclasses.fields(cls)
            if (cls.__name__, field.name) not in self.read
        }


@pytest.fixture(scope="module")
def probe():
    probe = Probe()
    baseline = ScenarioSpec.preset("paper_baseline", num_voters=8)
    with pytest.MonkeyPatch.context() as patch:
        patch.setitem(VC_BEHAVIORS, "reveal-to-two", RevealToTwo)
        probe.install(patch)
        for spec in (baseline, baseline.derive(consensus=ConsensusConfig(batch_size=4))):
            run_spec(spec, [spec.options[i % len(spec.options)] for i in range(spec.num_voters)])
        outcome = run_spec(recover_spec(), ["option-1", "option-2"] * 3)
        MultiElectionService().run_sharded(
            ScenarioSpec.preset("national_scale"), num_ballots=4_000
        )
    assert outcome.vote_collectors[3].vsc_stats.recover_requests >= 1
    return probe


def test_the_runs_build_the_protocol_payloads(probe):
    built = {cls.__name__ for cls in probe.built}
    assert {
        "VoteRequest", "VotePending", "Announce", "RecoverRequest", "RecoverResponse",
        "VscBatch", "VoteSetUpload", "MskShareUpload", "ShardCommitRecord",
        "GlobalCommitRecord", "ShardSliceResult",
    } <= built


def test_every_field_of_a_built_payload_is_read(probe):
    assert probe.unread() == set(UNREAD)
