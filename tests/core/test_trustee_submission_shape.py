"""One faulty trustee must not stop result publication.

A BB node stores every submission it accepts and cuts all of them up by
position, so a validly *signed* submission of the wrong shape used to raise out
of ``receive_trustee_submission`` -- and, staying stored, out of every later
honest one: no tally although the paper tolerates ``Nt - ht`` faulty trustees.
Each case below is such a submission, signed with the real trustee key.

A submission is packed scalar blocks (``repro.core.trustee``), so its shape is
a matter of lengths and key sets: a block one byte, one scalar or one row short
or long, a block under a key the agreed vote set does not call for, a key left
out, a tally block of another length, a value that is not ``bytes``.  The cases
of 868e6e2 map onto these -- a dropped row or coordinate is a short block, a
dropped or added proof component a proof block one scalar short or long, a
part of no ballot an unknown key.  What that commit called "shares on another
trustee's point" has no counterpart: a block carries no evaluation point, the
BB derives it from the signed ``trustee_id``
(``test_a_faulty_trustee_cannot_shadow_an_honest_one`` keeps the behaviour).

A submission that *omits* a ``(serial, part)`` key was stored at 1b95dde and
silently shrank what every BB published (``_finalize_result`` took the key
intersection); ``TestOmittedParts`` is its reproducer.
"""

from dataclasses import replace
from functools import partial

import pytest

from repro.api import AdversaryProfile, ElectionEngine, FaultPlan, ScenarioSpec
from repro.api import engine as engine_module
from repro.core.bulletin_board import BulletinBoardNode, MajorityReader
from repro.core.byzantine import TRUSTEE_BEHAVIORS
from repro.core.ea import ElectionAuthority
from repro.core.trustee import Trustee
from repro.crypto.shamir import scalar_width
from repro.crypto.signatures import SignatureScheme
from repro.net.codec import WireFormatError

FAULTY = "T-0"


@pytest.fixture(scope="module")
def honest(small_outcome, small_params):
    view = MajorityReader(small_outcome.bb_nodes, small_params).election_view()
    return {t.trustee_id: t.produce_submission(view) for t in small_outcome.trustees}


@pytest.fixture(scope="module")
def sizes(small_params, group):
    """``(bytes per scalar, bytes per opening row)`` of the shared election."""
    width = scalar_width(group.order)
    return width, 4 * small_params.num_options * width


def with_first(mapping, change):
    key, block = next(iter(mapping.items()))
    return {**mapping, key: change(block)}


def without_first(mapping):
    return dict(list(mapping.items())[1:])


def some_serial(s):
    return next(iter(s.opening_shares))[0]


def values_swapped(s):
    """An opened part carries a proved part's block and the other way round."""
    opened_key, opened = next(iter(s.opening_shares.items()))
    proved_key, proved = next(iter(s.proof_shares.items()))
    return replace(
        s,
        opening_shares={**s.opening_shares, opened_key: proved},
        proof_shares={**s.proof_shares, proved_key: opened},
    )


def malformed_cases(width, row):
    """name -> (the predicate that refuses it, submission -> malformed submission)"""
    cases = {}
    for field, scalars_per_row in (("opening_shares", 0), ("proof_shares", 1)):
        row_bytes = row + scalars_per_row * width
        for name, change in {
            "one byte short": lambda b: b[:-1],
            "one byte long": lambda b: b + b"\x00",
            "one scalar short": lambda b: b[:-width],
            "one scalar long": lambda b: b + b"\x00" * width,
            "one row short": lambda b, n=row_bytes: b[:-n],
            "one row long": lambda b, n=row_bytes: b + b[:n],
            "empty": lambda b: b"",
            "a bytearray": bytearray,
            "a str of its length": lambda b: b.decode("latin-1"),
        }.items():
            cases[f"{field}: block {name}"] = (
                "_blocks_sized",
                lambda s, field=field, change=change: replace(
                    s, **{field: with_first(getattr(s, field), change)}
                ),
            )
    cases.update({
        "opening and proof blocks swapped": ("_blocks_sized", values_swapped),
        "part of no ballot opened": (
            "_parts_as_agreed",
            lambda s: replace(s, opening_shares={**s.opening_shares, (some_serial(s), "C"): b""}),
        ),
        "part of an unknown ballot proved": (
            "_parts_as_agreed",
            lambda s: replace(s, proof_shares={**s.proof_shares, (7, "A"): b""}),
        ),
        "used part opened as well as proved": (
            "_parts_as_agreed",
            lambda s: replace(s, opening_shares={
                **s.opening_shares, next(iter(s.proof_shares)): b"\x00" * 2 * row
            }),
        ),
        "opened part left out": (
            "_parts_as_agreed",
            lambda s: replace(s, opening_shares=without_first(s.opening_shares)),
        ),
        "proved part left out": (
            "_parts_as_agreed",
            lambda s: replace(s, proof_shares=without_first(s.proof_shares)),
        ),
        "nothing opened, nothing proved": (
            "_parts_as_agreed",
            lambda s: replace(s, opening_shares={}, proof_shares={}),
        ),
        "tally block one scalar short": (
            "_tally_sized",
            lambda s: replace(s, tally_share=s.tally_share[:-width]),
        ),
        "tally block one byte long": (
            "_tally_sized",
            lambda s: replace(s, tally_share=s.tally_share + b"\x00"),
        ),
        "tally block of two rows": (
            "_tally_sized",
            lambda s: replace(s, tally_share=s.tally_share * 2),
        ),
        "tally block missing though votes were cast": (
            "_tally_sized",
            lambda s: replace(s, tally_share=b""),
        ),
        "tally block a bytearray": (
            "_tally_sized",
            lambda s: replace(s, tally_share=bytearray(s.tally_share)),
        ),
    })
    return cases


#: the case names, for parametrisation (the sizes do not change the names)
MALFORMED = list(malformed_cases(32, 256))


def resigned(submission, small_outcome, group):
    """``submission`` signed with T-0's real key."""
    keys = small_outcome.trustees[0].init.signing_keys
    scheme = SignatureScheme(group)
    made = submission.signed(scheme.sign(keys, submission.digest()))
    assert scheme.verify(keys.public, made.digest(), made.signature)
    return made


@pytest.fixture(scope="module")
def malformed(honest, sizes, small_outcome, group):
    """name -> (refusing predicate, the case applied to T-0's submission and re-signed)"""
    return {
        name: (predicate, resigned(change(honest[FAULTY]), small_outcome, group))
        for name, (predicate, change) in malformed_cases(*sizes).items()
    }


def deliver(small_outcome, small_params, group, honest, faulty, position):
    """A fresh BB node gets ``faulty`` as its first or second submission and
    the two honest ones around it; returns the node."""
    bb = BulletinBoardNode("BB-shape", small_outcome.setup.bb_init, small_params, group)
    for vc in small_outcome.vote_collectors:
        bb.receive_vote_set(vc.node_id, vc.final_vote_set)
        bb.receive_msk_share(vc.node_id, vc.init.msk_share)
    order = [honest["T-1"], honest["T-2"]]
    order.insert(position, faulty)
    for submission in order:
        bb.receive_trustee_submission(submission)  # must not raise
    return bb


def check_dropped_and_published(bb, small_outcome):
    assert sorted(bb.trustee_submissions) == ["T-1", "T-2"]
    assert bb.result is not None
    assert bb.result.tally.as_dict() == small_outcome.expected_tally().as_dict()
    reference = small_outcome.bb_nodes[0].result
    assert bb.result.openings == reference.openings
    assert bb.result.proof_responses == reference.proof_responses
    assert bb.result.tally_opening == reference.tally_opening
    # Same challenge and responses as the audited reference: bb's proofs verify.
    assert bb.result.challenge == reference.challenge
    assert small_outcome.audit_report.checks["e-proofs-valid"] is True


@pytest.mark.parametrize("position", [0, 1], ids=["delivered-first", "delivered-second"])
@pytest.mark.parametrize("case", MALFORMED)
class TestMalformedSubmissionIsDropped:
    def test_dropped_without_raising_and_the_tally_is_published(
        self, case, position, malformed, honest, small_outcome, small_params, group
    ):
        _, faulty = malformed[case]
        bb = deliver(small_outcome, small_params, group, honest, faulty, position)
        check_dropped_and_published(bb, small_outcome)

    def test_red_when_its_check_always_passes(
        self, case, position, malformed, honest, small_outcome, small_params, group,
        monkeypatch,
    ):
        """The same scenario with the refusing predicate stubbed to ``True``
        raises or fails one of the assertions above."""
        predicate, faulty = malformed[case]
        monkeypatch.setattr(BulletinBoardNode, predicate, lambda self, submission: True)
        with pytest.raises(Exception):  # noqa: B017 - any failure will do: that is the point
            bb = deliver(small_outcome, small_params, group, honest, faulty, position)
            check_dropped_and_published(bb, small_outcome)


def test_the_cases_cover_every_clause():
    assert {predicate for predicate, _ in malformed_cases(32, 256).values()} == {
        "_parts_as_agreed", "_blocks_sized", "_tally_sized"
    }


#: name -> (the predicate that refuses it, submission -> submission without a digest)
UNDIGESTABLE = {
    # The keys do not sort.
    "a bare serial among the (serial, part) keys": (
        "_parts_as_agreed",
        lambda s: replace(s, proof_shares={**s.proof_shares, some_serial(s): b""}),
    ),
    # Not a signable part.
    "a block that is a tuple of scalars": (
        "_blocks_sized",
        lambda s: replace(s, opening_shares=with_first(s.opening_shares, tuple)),
    ),
    "a block that is None": (
        "_blocks_sized",
        lambda s: replace(s, proof_shares=with_first(s.proof_shares, lambda b: None)),
    ),
    "a tally block that is a tuple of scalars": (
        "_tally_sized",
        lambda s: replace(s, tally_share=tuple(s.tally_share)),
    ),
}


@pytest.mark.parametrize("position", [0, 1], ids=["delivered-first", "delivered-second"])
@pytest.mark.parametrize("case", list(UNDIGESTABLE))
class TestWhatHasNoDigest:
    """No signature over such a submission can be made or checked: the node
    must refuse it before it asks for the digest."""

    def test_dropped_before_the_digest_is_asked_for(self, case, position, honest,
                                                    small_outcome, small_params, group):
        _, change = UNDIGESTABLE[case]
        undigestable = change(honest[FAULTY])
        with pytest.raises((TypeError, WireFormatError)):
            undigestable.digest()
        bb = deliver(small_outcome, small_params, group, honest, undigestable, position)
        check_dropped_and_published(bb, small_outcome)

    def test_red_when_its_check_always_passes(self, case, position, honest, small_outcome,
                                              small_params, group, monkeypatch):
        predicate, change = UNDIGESTABLE[case]
        monkeypatch.setattr(BulletinBoardNode, predicate, lambda self, s: True)
        with pytest.raises((TypeError, WireFormatError)):
            deliver(small_outcome, small_params, group, honest, change(honest[FAULTY]), position)


class TestWellFormedSubmissionsStillCount:
    def test_honest_submissions_pass_every_check(self, honest, small_outcome):
        bb = small_outcome.bb_nodes[0]
        for submission in honest.values():
            assert bb._well_formed(submission)

    def test_a_faulty_trustee_cannot_shadow_an_honest_one(self, honest, small_outcome,
                                                          small_params, group):
        """A block names no evaluation point: the only way to pass shares off
        as T-1's is to put T-1's name on them.  T-0 doing so with its own key,
        delivered first, must not make the node take them for T-1's, nor
        refuse T-1 for arriving second."""
        squatter = resigned(replace(honest[FAULTY], trustee_id="T-1"), small_outcome, group)
        bb = deliver(small_outcome, small_params, group, honest, squatter, 0)
        assert bb.trustee_submissions["T-1"] is honest["T-1"]
        check_dropped_and_published(bb, small_outcome)


# -- an election that publishes no proofs ------------------------------------------


def faulty_t0(monkeypatch, cls):
    """An adversary profile running ``cls`` as T-0 (registered for this test)."""
    monkeypatch.setitem(TRUSTEE_BEHAVIORS, cls.__name__, cls)
    return AdversaryProfile(trustee_behaviors={FAULTY: cls.__name__})


def proofless_spec(monkeypatch, **changes):
    """A small election whose set-up the EA builds with ``include_proofs=False``."""
    monkeypatch.setattr(
        engine_module, "ElectionAuthority", partial(ElectionAuthority, include_proofs=False)
    )
    return ScenarioSpec(
        options=("a", "b"), num_voters=2, num_vc=4, num_bb=3, num_trustees=3,
        trustee_threshold=2, election_end=200.0, seed=9,
    ).derive(**changes)


class ProofSendingTrustee(Trustee):
    """Posts a full-sized proof block where the election publishes no proof."""

    def produce_submission(self, bb_view):
        submission = super().produce_submission(bb_view)
        width = scalar_width(self.q)
        rows = self.params.num_options
        block = b"\x01" * (rows * (4 * self.params.num_options + 1) * width)
        changed = replace(
            submission, proof_shares={key: block for key in submission.proof_shares}
        )
        return changed.signed(
            self.signature_scheme.sign(self.init.signing_keys, changed.digest())
        )


class TestElectionWithoutProofs:
    def test_accepts_empty_proof_blocks(self, monkeypatch):
        """``include_proofs=False``: the EA deals no proof coefficients, so an
        honest proof block is empty and the BB must expect exactly that."""
        outcome = ElectionEngine(proofless_spec(monkeypatch)).run(["a", "b"])
        assert outcome.tally.as_dict() == {"a": 1, "b": 1}
        for bb in outcome.bb_nodes:
            assert sorted(bb.trustee_submissions) == ["T-0", "T-1", "T-2"]
            assert set(bb.trustee_submissions["T-0"].proof_shares.values()) == {b""}

    def test_drops_a_proof_block(self, monkeypatch):
        spec = proofless_spec(monkeypatch, adversary=faulty_t0(monkeypatch, ProofSendingTrustee))
        outcome = ElectionEngine(spec).run(["a", "b"])
        assert outcome.tally.as_dict() == {"a": 1, "b": 1}
        for bb in outcome.bb_nodes:
            assert sorted(bb.trustee_submissions) == ["T-1", "T-2"]


# -- a trustee that leaves parts out -------------------------------------------------


class OmittingTrustee(Trustee):
    """Validly signs a submission without its first opened and first proved part."""

    def produce_submission(self, bb_view):
        submission = super().produce_submission(bb_view)
        changed = replace(
            submission,
            opening_shares=without_first(submission.opening_shares),
            proof_shares=without_first(submission.proof_shares),
        )
        return changed.signed(
            self.signature_scheme.sign(self.init.signing_keys, changed.digest())
        )


class TestOmittedParts:
    """Red at 1b95dde (the omission was stored and every BB published the key
    intersection: one opened and one proved part fewer, and the audit failed
    for everybody), red again with ``_parts_as_agreed`` stubbed to ``True``."""

    CHOICES = ["option-1", "option-2", "option-1", "option-1"]

    def run(self, small_spec, monkeypatch, **changes):
        # T-0 is delivered first: the tally phase walks the trustees in order.
        adversary = faulty_t0(monkeypatch, OmittingTrustee)
        return ElectionEngine(small_spec.derive(adversary=adversary, **changes)).run(self.CHOICES)

    def test_delivered_first_of_two_of_three_changes_nothing_published(
        self, small_spec, small_outcome, monkeypatch
    ):
        outcome = self.run(small_spec, monkeypatch)
        reference = small_outcome.bb_nodes[0].result
        assert len(reference.openings) == 4 and len(reference.proof_responses) == 4
        for bb in outcome.bb_nodes:
            assert sorted(bb.trustee_submissions) == ["T-1", "T-2"]
            assert bb.result.openings == reference.openings
            assert bb.result.proof_responses == reference.proof_responses
            assert bb.result.tally_opening == reference.tally_opening
        assert outcome.tally.as_dict() == small_outcome.tally.as_dict()
        assert outcome.audit_report.passed

    def test_with_every_trustee_needed_there_is_no_result_and_nothing_raises(
        self, small_spec, monkeypatch
    ):
        # ht = Nt tolerates no faulty trustee: a scenario that expects to fail.
        outcome = self.run(
            small_spec, monkeypatch, trustee_threshold=3, faults=FaultPlan(expect_failure=True)
        )
        assert outcome.tally is None
        for bb in outcome.bb_nodes:
            assert sorted(bb.trustee_submissions) == ["T-1", "T-2"]
            assert bb.result is None

    def test_red_when_the_key_sets_are_not_compared(self, small_spec, monkeypatch):
        monkeypatch.setattr(BulletinBoardNode, "_parts_as_agreed", lambda self, s: True)
        with pytest.raises(Exception):  # noqa: B017 - a KeyError out of _finalize_result today
            outcome = self.run(small_spec, monkeypatch)
            assert outcome.audit_report.passed
