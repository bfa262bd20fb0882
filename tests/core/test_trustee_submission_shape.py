"""One faulty trustee must not stop result publication.

A BB node stores every submission it accepts and reconstructs from all of
them by position, so a validly *signed* submission of the wrong shape used to
raise out of ``receive_trustee_submission`` -- and, staying stored, out of
every later honest one: no tally although the paper tolerates ``Nt - ht``
faulty trustees.  Each case below is such a submission, signed with the real
trustee key.  A dropped row, a one-element tally tuple, a dropped proof
component and shares on another trustee's point raised (``IndexError``,
``KeyError: 'or0:c0'``, ``ValueError: need at least 2 shares, got 1``) or
silently shrank the published proof at 868e6e2; the other cases are what else
the same predicates refuse.
"""

from dataclasses import replace

import pytest

from repro.core.bulletin_board import BulletinBoardNode, MajorityReader
from repro.core.trustee import RowProofShares
from repro.crypto.signatures import SignatureScheme

FAULTY, POINT_OF_ANOTHER = "T-0", 2  # T-1 holds evaluation point 2


@pytest.fixture(scope="module")
def honest(small_outcome, small_params):
    view = MajorityReader(small_outcome.bb_nodes, small_params).election_view()
    return {t.trustee_id: t.produce_submission(view) for t in small_outcome.trustees}


def on_point(share, point=POINT_OF_ANOTHER):
    return replace(share, index=point)


def without_last_row(mapping):
    key, rows = next(iter(mapping.items()))
    return {**mapping, key: rows[:-1]}


def with_first_row(mapping, change):
    key, rows = next(iter(mapping.items()))
    return {**mapping, key: (change(rows[0]), *rows[1:])}


def components(change):
    return lambda row: RowProofShares(change(dict(row.component_shares)))


def all_on_point(s):
    return replace(
        s,
        opening_shares={
            key: tuple(
                replace(
                    row,
                    value_shares=tuple(map(on_point, row.value_shares)),
                    randomness_shares=tuple(map(on_point, row.randomness_shares)),
                )
                for row in rows
            )
            for key, rows in s.opening_shares.items()
        },
        proof_shares={
            key: tuple(
                RowProofShares({n: on_point(c) for n, c in row.component_shares.items()})
                for row in rows
            )
            for key, rows in s.proof_shares.items()
        },
        tally_value_shares=tuple(map(on_point, s.tally_value_shares)),
        tally_randomness_shares=tuple(map(on_point, s.tally_randomness_shares)),
    )


def some_serial(s):
    return next(iter(s.opening_shares))[0]


#: name -> (the predicate that refuses it, submission -> malformed submission)
MALFORMED = {
    "row dropped from an opened part": (
        "_rows_match_ballots",
        lambda s: replace(s, opening_shares=without_last_row(s.opening_shares)),
    ),
    "row dropped from a proved part": (
        "_rows_match_ballots",
        lambda s: replace(s, proof_shares=without_last_row(s.proof_shares)),
    ),
    "part of no ballot opened": (
        "_rows_match_ballots",
        lambda s: replace(s, opening_shares={**s.opening_shares, (some_serial(s), "C"): ()}),
    ),
    "coordinate dropped from an opening row": (
        "_rows_complete",
        lambda s: replace(s, opening_shares=with_first_row(
            s.opening_shares, lambda row: replace(row, value_shares=row.value_shares[:-1]))),
    ),
    "proof component dropped": (
        "_rows_complete",
        lambda s: replace(s, proof_shares=with_first_row(
            s.proof_shares,
            components(lambda c: {n: v for n, v in c.items() if n != "or0:c0"}))),
    ),
    "proof component added": (
        "_rows_complete",
        lambda s: replace(s, proof_shares=with_first_row(
            s.proof_shares, components(lambda c: {**c, "or9:c0": c["or0:c0"]}))),
    ),
    "one-element tally value shares": (
        "_tally_complete",
        lambda s: replace(s, tally_value_shares=s.tally_value_shares[:1]),
    ),
    "tally randomness shares missing": (
        "_tally_complete",
        lambda s: replace(s, tally_randomness_shares=()),
    ),
    "every share on another trustee's point": ("_on_own_point", all_on_point),
    "one tally share on another trustee's point": (
        "_on_own_point",
        lambda s: replace(s, tally_value_shares=(
            on_point(s.tally_value_shares[0]), *s.tally_value_shares[1:])),
    ),
    "one proof share on a point nobody holds": (
        "_on_own_point",
        lambda s: replace(s, proof_shares=with_first_row(
            s.proof_shares, components(lambda c: {**c, "sum:s": on_point(c["sum:s"], 9)}))),
    ),
}


@pytest.fixture(scope="module")
def malformed(honest, small_outcome, group):
    """Every case applied to T-0's submission and re-signed with T-0's key."""
    keys = small_outcome.trustees[0].init.signing_keys
    scheme = SignatureScheme(group)
    made = {}
    for name, (_, change) in MALFORMED.items():
        changed = change(honest[FAULTY])
        made[name] = changed.signed(scheme.sign(keys, changed.digest()))
        assert scheme.verify(keys.public, made[name].digest(), made[name].signature)
    return made


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
    assert bb.verify_proofs()


@pytest.mark.parametrize("position", [0, 1], ids=["delivered-first", "delivered-second"])
@pytest.mark.parametrize("case", list(MALFORMED))
class TestMalformedSubmissionIsDropped:
    def test_dropped_without_raising_and_the_tally_is_published(
        self, case, position, malformed, honest, small_outcome, small_params, group
    ):
        bb = deliver(small_outcome, small_params, group, honest, malformed[case], position)
        check_dropped_and_published(bb, small_outcome)

    def test_red_when_its_check_always_passes(
        self, case, position, malformed, honest, small_outcome, small_params, group,
        monkeypatch,
    ):
        """The same scenario with the refusing predicate stubbed to ``True``
        raises or fails one of the assertions above."""
        predicate, _ = MALFORMED[case]
        monkeypatch.setattr(BulletinBoardNode, predicate, lambda self, submission: True)
        with pytest.raises(Exception):  # noqa: B017 - any failure will do: that is the point
            bb = deliver(small_outcome, small_params, group, honest, malformed[case], position)
            check_dropped_and_published(bb, small_outcome)


class TestKeyThatIsNoBallotPart:
    """A map keyed by a bare serial next to the ``(serial, part)`` pairs has no
    digest (the keys do not sort), so no signature over it can be made or
    checked: the node must refuse it before it asks for the digest."""

    @pytest.fixture()
    def unkeyed(self, honest):
        s = honest[FAULTY]
        return replace(s, proof_shares={**s.proof_shares, some_serial(s): ()})

    def test_dropped_before_the_digest_is_asked_for(self, unkeyed, honest, small_outcome,
                                                    small_params, group):
        with pytest.raises(TypeError):
            unkeyed.digest()
        bb = deliver(small_outcome, small_params, group, honest, unkeyed, 0)
        check_dropped_and_published(bb, small_outcome)

    def test_red_when_its_check_always_passes(self, unkeyed, honest, small_outcome,
                                              small_params, group, monkeypatch):
        monkeypatch.setattr(BulletinBoardNode, "_rows_match_ballots", lambda self, s: True)
        with pytest.raises(TypeError):
            deliver(small_outcome, small_params, group, honest, unkeyed, 0)


class TestWellFormedSubmissionsStillCount:
    def test_honest_submissions_pass_every_check(self, honest, small_outcome, small_params,
                                                 group):
        bb = BulletinBoardNode("BB-ok", small_outcome.setup.bb_init, small_params, group)
        for submission in honest.values():
            assert bb._well_formed(submission)

    def test_a_faulty_trustee_cannot_shadow_an_honest_one(self, malformed, honest,
                                                          small_outcome, small_params, group):
        """Shares re-indexed to T-1's point and delivered first must not make
        the node take them for T-1's, nor refuse T-1 for arriving second."""
        squatter = malformed["every share on another trustee's point"]
        bb = deliver(small_outcome, small_params, group, honest, squatter, 0)
        assert bb.trustee_submissions["T-1"] is honest["T-1"]

    def test_election_without_proofs_accepts_rows_without_components(self):
        """``include_proofs=False``: the EA deals no proof coefficients, so an
        honest row has no components and the BB must expect none."""
        from repro.api import ElectionEngine, ScenarioSpec
        from repro.api.spec import CryptoProfile

        spec = ScenarioSpec(
            options=("a", "b"), num_voters=2, num_vc=4, num_bb=3, num_trustees=3,
            trustee_threshold=2, election_end=200.0, seed=9,
            crypto=CryptoProfile(include_proofs=False),
        )
        outcome = ElectionEngine(spec).run(["a", "b"])
        assert outcome.tally.as_dict() == {"a": 1, "b": 1}
        for bb in outcome.bb_nodes:
            assert sorted(bb.trustee_submissions) == ["T-0", "T-1", "T-2"]
