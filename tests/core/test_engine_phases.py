"""End-to-end integration tests for complete election runs."""

import dataclasses

import pytest
from engine_runs import run_spec, small_spec

from repro.api import CryptoProfile, ElectionEngine
from repro.api.engine import VotingDriver, default_drivers
from repro.core.ballot import PART_A, PART_B


class TestHonestElection:
    """Read-only checks against the shared honest election run."""

    def test_every_voter_gets_valid_receipt(self, small_outcome):
        assert small_outcome.receipts_obtained == len(small_outcome.voters)
        assert small_outcome.all_receipts_valid

    def test_tally_matches_intended_choices(self, small_outcome):
        assert small_outcome.tally is not None
        assert small_outcome.tally.as_dict() == small_outcome.expected_tally().as_dict()

    def test_audit_passes(self, small_outcome):
        assert small_outcome.audit_report is not None
        assert small_outcome.audit_report.passed

    def test_all_bb_nodes_publish_identical_tally(self, small_outcome):
        tallies = {repr(bb.result.tally) for bb in small_outcome.bb_nodes}
        assert len(tallies) == 1

    def test_all_vc_nodes_agree_on_vote_set(self, small_outcome):
        vote_sets = {vc.final_vote_set for vc in small_outcome.vote_collectors}
        assert len(vote_sets) == 1
        assert len(next(iter(vote_sets))) == len(small_outcome.voters)

    def test_cast_vote_codes_published_on_bb(self, small_outcome):
        published = set(small_outcome.bb_nodes[0].accepted_vote_set)
        for voter in small_outcome.voters:
            assert (voter.ballot.serial, voter.vote_code) in published

    def test_network_statistics_recorded(self, small_outcome):
        assert small_outcome.network.messages_sent > 0
        assert small_outcome.network.messages_delivered > 0


class TestControlledPartChoices:
    """A fresh run where every voter's A/B coin is pinned, exercising both
    the all-A and mixed-coin paths of the challenge derivation."""

    @pytest.fixture(scope="class")
    def pinned_outcome(self):
        return run_spec(
            small_spec(num_voters=3, num_options=2, election_end=200.0, seed=23),
            ["option-2", "option-2", "option-1"],
            voter_parts=[PART_A, PART_B, PART_A],
        )

    def test_tally_correct(self, pinned_outcome):
        assert pinned_outcome.tally.as_dict() == {"option-1": 1, "option-2": 2}

    def test_audit_passes(self, pinned_outcome):
        assert pinned_outcome.audit_report.passed

    def test_used_parts_match_choices(self, pinned_outcome):
        locations = pinned_outcome.bb_nodes[0].cast_row_locations()
        used_parts = [locations[v.ballot.serial][0] for v in pinned_outcome.voters]
        assert used_parts == [PART_A, PART_B, PART_A]

    def test_unused_parts_are_opened(self, pinned_outcome):
        bb = pinned_outcome.bb_nodes[0]
        for voter in pinned_outcome.voters:
            assert (voter.ballot.serial, voter.unused_part_name) in bb.result.openings


class TestAbstentions:
    """An election where one voter never shows up."""

    @pytest.fixture(scope="class")
    def abstention_outcome(self):
        class LastVoterAbstains(VotingDriver):
            """Remove the last voter's start: simply never schedule it."""

            def deploy(self, ctx):
                super().deploy(ctx)
                self.abstainer = ctx.voters.pop()

        drivers = default_drivers()
        voting = drivers[1] = LastVoterAbstains()
        spec = small_spec(num_voters=3, num_options=2, election_end=200.0, seed=31)
        outcome = ElectionEngine(spec, drivers=drivers).run(["option-1", "option-1", "option-2"])
        return dataclasses.replace(outcome, voters=outcome.voters + [voting.abstainer])

    def test_only_cast_votes_are_tallied(self, abstention_outcome):
        assert abstention_outcome.tally.as_dict() == {"option-1": 2, "option-2": 0}

    def test_abstainer_ballot_not_in_vote_set(self, abstention_outcome):
        abstainer = abstention_outcome.voters[-1]
        serials = {serial for serial, _ in abstention_outcome.bb_nodes[0].accepted_vote_set}
        assert abstainer.ballot.serial not in serials

    def test_abstainer_ballot_fully_opened(self, abstention_outcome):
        abstainer = abstention_outcome.voters[-1]
        bb = abstention_outcome.bb_nodes[0]
        assert (abstainer.ballot.serial, PART_A) in bb.result.openings
        assert (abstainer.ballot.serial, PART_B) in bb.result.openings

    def test_audit_still_passes(self, abstention_outcome):
        assert abstention_outcome.audit_report.passed


class TestPhaseValidation:
    def test_choice_count_must_match_voters(self):
        with pytest.raises(ValueError):
            run_spec(small_spec(num_voters=2, num_options=2, seed=1), ["option-1"])

    def test_deploy_registers_the_deployment_without_advancing_time(self):
        spec = small_spec(
            num_voters=2, num_options=2, seed=1, crypto=CryptoProfile(include_proofs=False)
        )
        engine = ElectionEngine(spec)
        ctx = engine.begin(["option-1", "option-2"])
        try:
            engine.driver("setup").run(ctx)
            engine.driver("voting").deploy(ctx)
            thresholds = ctx.params.thresholds
            assert len(ctx.vote_collectors) == thresholds.num_vc
            assert len(ctx.bb_nodes) == thresholds.num_bb
            assert len(ctx.trustees) == thresholds.num_trustees
            assert [voter.choice for voter in ctx.voters] == ["option-1", "option-2"]
            assert ctx.sim_now == 0.0
            assert ctx.network.messages_delivered == 0
            assert all(voter.receipt is None for voter in ctx.voters)
        finally:
            engine.close()

    def test_trustee_phase_without_votes_uploaded_returns_none(self):
        spec = small_spec(
            num_voters=2, num_options=2, seed=1, crypto=CryptoProfile(include_proofs=False)
        )
        engine = ElectionEngine(spec)
        ctx = engine.begin(["option-1", "option-2"])
        try:
            engine.driver("setup").run(ctx)
            engine.driver("voting").deploy(ctx)
            # Voting phase never ran: the BB has no vote set, trustees cannot work.
            engine.driver("tally").run(ctx)
            assert ctx.tally is None
        finally:
            engine.close()
