"""Tests for the voter client."""


from repro.core.ballot import PART_A, PART_B
from repro.core.voter import VoterClient


class TestVoterSetup:
    def test_voter_picks_vote_code_for_choice(self, small_outcome):
        voter = small_outcome.voters[0]
        line = voter.part.line_for_option(voter.choice)
        assert voter.vote_code == line.vote_code
        assert voter.expected_receipt == line.receipt

    def test_explicit_part_choice_is_respected(self, small_setup):
        ballot = small_setup.ballots[0]
        voter = VoterClient("v", ballot, ["VC-0"], "option-1", part_choice=PART_B)
        assert voter.part_name == PART_B
        assert voter.unused_part_name == PART_A

    def test_coin_reflects_part_choice(self, small_setup):
        ballot = small_setup.ballots[0]
        assert VoterClient("v", ballot, ["VC-0"], "option-1", part_choice=PART_A).coin == 0
        assert VoterClient("v", ballot, ["VC-0"], "option-1", part_choice=PART_B).coin == 1

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

    def test_voter_verifies_on_bb(self, small_outcome):
        voter = small_outcome.voters[0]
        bb = small_outcome.bb_nodes[0]
        vote_set = bb.accepted_vote_set
        # Rebuild the option labels of the opened unused part, in the voter's
        # canonical ballot order.
        key = (voter.ballot.serial, voter.unused_part_name)
        openings = bb.result.openings[key]
        codes = bb.decrypted_vote_codes[voter.ballot.serial][voter.unused_part_name]
        options = small_outcome.setup.params.options
        code_to_option = {
            code: options[list(opening.values).index(1)]
            for code, opening in zip(codes, openings, strict=True)
        }
        opened_options = [
            code_to_option[line.vote_code]
            for line in voter.ballot.part(voter.unused_part_name).lines
        ]
        assert voter.verify_on_bb(vote_set, opened_options)

    def test_verify_on_bb_detects_missing_vote(self, small_outcome):
        voter = small_outcome.voters[0]
        opened = [line.option for line in voter.ballot.part(voter.unused_part_name).lines]
        assert not voter.verify_on_bb([], opened)

    def test_verify_on_bb_detects_swapped_options(self, small_outcome):
        voter = small_outcome.voters[0]
        bb = small_outcome.bb_nodes[0]
        opened = [line.option for line in voter.ballot.part(voter.unused_part_name).lines]
        swapped = list(reversed(opened))
        assert not voter.verify_on_bb(bb.accepted_vote_set, swapped)


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
