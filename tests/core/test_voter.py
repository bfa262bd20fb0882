"""Tests for the voter client."""

from dataclasses import replace

import pytest

from repro.core.auditor import Auditor
from repro.core.ballot import PART_A, PART_B, BallotLine
from repro.core.voter import VoterClient


class TestVoterSetup:
    def test_voter_picks_vote_code_for_choice(self, small_outcome):
        voter = small_outcome.voters[0]
        line = voter.part.line_for_option(voter.choice)
        assert voter.vote_code == line.vote_code
        assert voter.expected_receipt == line.receipt

    def test_explicit_part_choice_is_respected(self, small_setup):
        ballot = small_setup.ballots[0]
        for used, unused in ((PART_A, PART_B), (PART_B, PART_A)):
            voter = VoterClient("v", ballot, ["VC-0"], "option-1", part_choice=used)
            assert voter.part_name == used
            assert voter.unused_part_name == unused

    def test_random_part_choice_is_seeded(self, small_setup):
        ballot = small_setup.ballots[0]
        first = VoterClient("v", ballot, ["VC-0"], "option-1", seed=3)
        second = VoterClient("v", ballot, ["VC-0"], "option-1", seed=3)
        assert first.part_name == second.part_name


class TestVotingOutcome:
    def test_every_voter_received_valid_receipt(self, small_outcome):
        for voter in small_outcome.voters:
            assert voter.receipt is not None
            assert voter.receipt_valid
            assert voter.completed_at is not None

    def test_receipt_matches_printed_receipt(self, small_outcome):
        for voter in small_outcome.voters:
            assert voter.receipt == voter.expected_receipt

    def test_attempts_recorded(self, small_outcome):
        for voter in small_outcome.voters:
            assert voter.attempts >= 1

    def test_audit_info_exposes_unused_part_only(self, small_outcome):
        voter = small_outcome.voters[0]
        info = voter.audit_info()
        assert info.serial == voter.ballot.serial
        assert info.cast_vote_code == voter.vote_code
        assert info.unused_part_name == voter.unused_part_name
        unused_codes = {line.vote_code for line in info.unused_part_lines}
        assert voter.vote_code not in unused_codes


class TestVerificationOnBB:
    """A voter checks the BB through :meth:`Auditor.verify_delegation`: (f) the
    cast code is in the published vote set, (g) the opened unused part reads
    what the voter's own copy of it prints."""

    @pytest.fixture(scope="class")
    def auditor(self, small_outcome, small_params, group):
        return Auditor(small_outcome.bb_nodes, small_params, group)

    @pytest.mark.parametrize("index", range(4))
    def test_voter_verifies_on_bb(self, auditor, small_outcome, index):
        voter = small_outcome.voters[index]
        report = auditor.verify_delegation(voter.audit_info())
        assert report.passed
        assert report.checks["f-cast-code-published"]
        assert report.checks["g-unused-part-consistent"]

    def test_verify_on_bb_detects_missing_vote(self, auditor, small_outcome):
        report = auditor.verify_delegation(small_outcome.voters[0].audit_info(), vote_set=())
        assert not report.passed
        assert not report.checks["f-cast-code-published"]

    def test_verify_on_bb_detects_swapped_options(self, auditor, small_outcome):
        info = small_outcome.voters[0].audit_info()
        lines = info.unused_part_lines
        options = [line.option for line in reversed(lines)]
        swapped = tuple(
            BallotLine(line.vote_code, option, line.receipt)
            for line, option in zip(lines, options, strict=True)
        )
        report = auditor.verify_delegation(replace(info, unused_part_lines=swapped))
        assert report.checks["f-cast-code-published"]
        assert not report.checks["g-unused-part-consistent"]


class TestPatience:
    def test_patient_voter_blacklists_unresponsive_node(self, small_setup, small_params):
        """[d]-patience: a voter whose first target never answers resubmits elsewhere."""
        import random

        from repro.net.adversary import Adversary, NetworkConditions
        from repro.net.simulator import Network
        from repro.core.vote_collector import VoteCollectorNode
        from repro.core.election import vc_node_id

        adversary = Adversary()
        network = Network(conditions=NetworkConditions(base_latency=0.001, seed=2),
                          adversary=adversary)
        nodes = []
        for index in range(small_params.thresholds.num_vc):
            node = VoteCollectorNode(small_setup.vc_init[vc_node_id(index)], small_params)
            nodes.append(node)
            network.register(node)
        ballot = small_setup.ballots[0]
        vc_ids = [n.node_id for n in nodes]
        seed = 1
        voter = VoterClient(
            "patient-voter", ballot, vc_ids, "option-1",
            patience=5.0, part_choice=PART_A, seed=seed,
        )
        network.register(voter)
        # The voter's first pick is deterministic given the seed (the part was
        # fixed explicitly, so the first RNG draw is the target selection).
        first_target = vc_ids[random.Random(seed).randrange(len(vc_ids))]
        adversary.block_link(voter.node_id, first_target)
        voter.start_voting()
        network.run_until_idle()
        assert voter.current_target != first_target or voter.receipt is not None
        assert first_target in voter.blacklist
        assert voter.attempts >= 2
        assert voter.receipt is not None and voter.receipt_valid
