"""Fault-injection tests: the protocol guarantees survive Byzantine components.

Each test runs a complete election with one or more components replaced by a
Byzantine variant, staying within the paper's fault thresholds
(fv < Nv/3, fb < Nb/2, ft = Nt - ht), and checks that liveness, safety and
the published result are unaffected.
"""

import pytest
from engine_runs import run_spec, small_spec

from repro.api import AdversaryProfile, CryptoProfile, ElectionEngine, FaultPlan, ScenarioSpec
from repro.core.byzantine import CorruptTrustee
from repro.core.vote_collector import BallotStatus
from repro.crypto.registry import available_backends


def run_faulty_election(vc_behaviors=None, bb_behaviors=None, seed=41, backend="schnorr"):
    spec = small_spec(
        num_voters=3, num_options=2, num_vc=4, num_bb=3,
        num_trustees=3, trustee_threshold=2, election_end=300.0,
        seed=seed, voter_patience=10.0, crypto=CryptoProfile(backend=backend),
        adversary=AdversaryProfile(
            vc_behaviors=vc_behaviors or {}, bb_behaviors=bb_behaviors or {}
        ),
    )
    return run_spec(spec, ["option-1", "option-2", "option-1"])


class TestByzantineVoteCollectors:
    @pytest.fixture(scope="class")
    def silent_outcome(self):
        return run_faulty_election(vc_behaviors={"VC-2": "silent"})

    def test_silent_vc_does_not_block_receipts(self, silent_outcome):
        assert silent_outcome.receipts_obtained == 3
        assert silent_outcome.all_receipts_valid

    def test_silent_vc_does_not_change_tally(self, silent_outcome):
        assert silent_outcome.tally.as_dict() == {"option-1": 2, "option-2": 1}

    def test_silent_vc_audit_passes(self, silent_outcome):
        assert silent_outcome.audit_report.passed

    def test_honest_nodes_agree_despite_silent_peer(self, silent_outcome):
        honest = [vc for vc in silent_outcome.vote_collectors if vc.node_id != "VC-2"]
        vote_sets = {vc.final_vote_set for vc in honest}
        assert len(vote_sets) == 1

    @pytest.fixture(scope="class")
    def corrupting_outcome(self):
        return run_faulty_election(vc_behaviors={"VC-1": "share_corrupting"}, seed=43)

    def test_corrupted_shares_rejected_receipts_still_issued(self, corrupting_outcome):
        assert corrupting_outcome.receipts_obtained == 3
        assert corrupting_outcome.all_receipts_valid

    def test_corrupted_shares_do_not_affect_tally(self, corrupting_outcome):
        assert corrupting_outcome.tally.as_dict() == {"option-1": 2, "option-2": 1}

    @pytest.mark.parametrize("backend", available_backends())
    def test_no_corrupted_share_is_accepted(self, backend):
        """Every share the corrupting collector discloses misses its row's
        digest at every honest collector, on every backend; each honest
        collector rebuilds every receipt from the three honest shares."""
        outcome = run_faulty_election(
            vc_behaviors={"VC-1": "share_corrupting"}, seed=43, backend=backend
        )
        assert outcome.receipts_obtained == 3 and outcome.all_receipts_valid
        honest = [vc for vc in outcome.vote_collectors if vc.node_id != "VC-1"]
        for vc in honest:
            for record in vc.ballots.values():
                if record.status is BallotStatus.VOTED:
                    assert sorted(record.receipt_shares) == ["VC-0", "VC-2", "VC-3"]
        assert sum(record.status is BallotStatus.VOTED
                   for vc in honest for record in vc.ballots.values()) == 3 * len(honest)

    @pytest.fixture(scope="class")
    def equivocating_outcome(self):
        return run_faulty_election(vc_behaviors={"VC-3": "equivocating"}, seed=47)

    def test_equivocating_vc_cannot_break_agreement(self, equivocating_outcome):
        honest = [vc for vc in equivocating_outcome.vote_collectors if vc.node_id != "VC-3"]
        vote_sets = {vc.final_vote_set for vc in honest}
        assert len(vote_sets) == 1
        assert len(next(iter(vote_sets))) == 3

    def test_equivocating_vc_does_not_change_result(self, equivocating_outcome):
        assert equivocating_outcome.tally.as_dict() == {"option-1": 2, "option-2": 1}
        assert equivocating_outcome.audit_report.passed


class TestByzantineBulletinBoard:
    @pytest.fixture(scope="class")
    def withholding_outcome(self):
        return run_faulty_election(bb_behaviors={"BB-1": "withholding"}, seed=53)

    def test_majority_read_masks_withholding_node(self, withholding_outcome):
        assert withholding_outcome.tally is not None
        assert withholding_outcome.tally.as_dict() == {"option-1": 2, "option-2": 1}

    def test_audit_passes_despite_withholding_node(self, withholding_outcome):
        assert withholding_outcome.audit_report.passed

    def test_honest_bb_nodes_agree(self, withholding_outcome):
        honest = [bb for bb in withholding_outcome.bb_nodes if bb.node_id != "BB-1"]
        tallies = {repr(bb.result.tally) for bb in honest}
        assert len(tallies) == 1


def trustee_scenario(seed, trustee_threshold):
    """Three voters, three trustees; the trustee tests run on the engine API."""
    return ScenarioSpec(
        options=("option-1", "option-2"),
        num_voters=3, num_vc=4, num_bb=3,
        num_trustees=3, trustee_threshold=trustee_threshold,
        election_end=300.0, voter_patience=10.0, seed=seed,
    )


class TestByzantineTrustee:
    """``CorruptTrustee`` builds its submission with ``dataclasses.replace``
    and re-signs it: a submission is a frozen value."""

    def test_corrupt_tally_share_is_detected_not_accepted(self):
        """With only ht = Nt submissions available and one corrupted, the
        combined opening fails verification: the BB must refuse to publish a
        wrong tally rather than silently accept it."""
        # ht = Nt tolerates no faulty trustee: the spec takes one only as a
        # scenario that expects to fail.
        engine = ElectionEngine(
            trustee_scenario(seed=59, trustee_threshold=3).derive(
                adversary=AdversaryProfile(trustee_behaviors={"T-0": "corrupt"}),
                faults=FaultPlan(expect_failure=True),
            )
        )
        with pytest.raises(ValueError, match="does not verify"):
            engine.run(["option-1", "option-2", "option-1"])
        for bb in engine.ctx.bb_nodes:
            assert bb.result is None

    def test_corrupt_trustee_masked_when_threshold_met_by_honest(self):
        """With ht = 2 of 3, the two honest trustees suffice; the corrupted
        share never has to be used if the honest quorum submits first."""
        spec = trustee_scenario(seed=61, trustee_threshold=2).derive(
            adversary=AdversaryProfile(trustee_behaviors={"T-2": "corrupt"})
        )
        outcome = ElectionEngine(spec).run(["option-1", "option-2", "option-1"])
        assert isinstance(outcome.trustees[2], CorruptTrustee)
        # The BB accepts the first ht submissions it can verify; since the two
        # honest trustees are processed before the corrupt one in this run,
        # the published tally is correct.
        assert outcome.tally is not None
        assert outcome.tally.as_dict() == {"option-1": 2, "option-2": 1}
        # The corrupt submission is well formed and validly re-signed, so it
        # is stored; only its values are wrong.
        for bb in outcome.bb_nodes:
            stored = bb.trustee_submissions["T-2"]
            honest = bb.trustee_submissions["T-0"]
            # One opening row of a 2-option election: 4 * 2 scalars.
            assert len(stored.tally_share) == len(honest.tally_share) == 8 * bb.scalar_width
            assert bb.signature_scheme.verify(
                bb.init.trustee_public_keys["T-2"], stored.digest(), stored.signature
            )
