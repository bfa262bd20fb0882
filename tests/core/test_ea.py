"""Tests for the Election Authority setup."""

import gc
import weakref

import pytest
from share_blocks import boxed_trustee_view, setup_walk_hash, trustee_rows

from repro.core.ballot import PART_A, PART_B
from repro.core.ea import ElectionAuthority, bb_node_id, trustee_id, vc_node_id, voter_id
from repro.core.election import ElectionParameters
from repro.crypto.commitments import CommitmentOpening, OptionEncodingScheme
from repro.crypto.pedersen_vss import PedersenDealing, PedersenVSS
from repro.crypto.registry import get_group
from repro.crypto.shamir import ShamirSecretSharing, SigningDealer, scalar_width
from repro.crypto.signatures import SignatureScheme
from repro.crypto.utils import RandomSource
from repro.crypto.zkp import (
    BallotCorrectnessVerifier,
    BallotProofResponse,
    OrProofResponse,
    SumProofResponse,
    fiat_shamir_challenge,
)


def boxed_rows(setup, serial, part, row_index):
    """Every trustee's view of one shuffled ballot row, boxed by the test-side unpacker."""
    width = scalar_width(setup.group.order)
    return [
        trustee_rows(init.ballots[serial], part, setup.params.num_options, width, point)[row_index]
        for point, init in enumerate(setup.trustee_init.values(), start=1)
    ]


class TestIdentifiers:
    def test_node_id_helpers(self):
        assert vc_node_id(0) == "VC-0"
        assert bb_node_id(2) == "BB-2"
        assert trustee_id(1) == "T-1"
        assert voter_id(3) == "voter-3"


class TestSetupStructure:
    def test_one_ballot_per_voter(self, small_setup, small_params):
        assert len(small_setup.ballots) == small_params.num_voters

    def test_serial_numbers_are_unique(self, small_setup):
        serials = [ballot.serial for ballot in small_setup.ballots]
        assert len(serials) == len(set(serials))

    def test_serials_fit_in_64_bits(self, small_setup):
        assert all(0 <= ballot.serial < 2 ** 64 for ballot in small_setup.ballots)

    def test_vote_codes_unique_within_ballot(self, small_setup):
        for ballot in small_setup.ballots:
            codes = ballot.all_vote_codes()
            assert len(codes) == len(set(codes))

    def test_each_part_covers_every_option(self, small_setup, small_params):
        for ballot in small_setup.ballots:
            for part in ballot.parts:
                assert [line.option for line in part.lines] == list(small_params.options)

    def test_every_vc_node_has_init_data(self, small_setup, small_params):
        assert set(small_setup.vc_init) == {
            vc_node_id(i) for i in range(small_params.thresholds.num_vc)
        }

    def test_every_trustee_has_init_data(self, small_setup, small_params):
        assert set(small_setup.trustee_init) == {
            trustee_id(i) for i in range(small_params.thresholds.num_trustees)
        }

    def test_bb_init_covers_every_ballot(self, small_setup):
        assert set(small_setup.bb_init.ballots) == {b.serial for b in small_setup.ballots}

    def test_ballot_lookup_by_serial(self, small_setup):
        ballot = small_setup.ballots[0]
        assert small_setup.ballot_by_serial(ballot.serial) is ballot
        with pytest.raises(KeyError):
            small_setup.ballot_by_serial(-1)


class TestSecretSharingConsistency:
    def test_msk_shares_reconstruct_key_matching_bb_commitment(self, small_setup):
        thresholds = small_setup.params.thresholds
        sss = ShamirSecretSharing(thresholds.vc_honest_quorum, thresholds.num_vc)
        shares = [init.msk_share.share for init in small_setup.vc_init.values()]
        from repro.crypto.utils import int_to_bytes

        msk = int_to_bytes(sss.reconstruct(shares), 16)
        assert small_setup.bb_init.key_commitment.matches(msk)

    def test_msk_shares_carry_valid_dealer_signatures(self, small_setup):
        scheme = SignatureScheme()
        for init in small_setup.vc_init.values():
            assert SigningDealer.verify_share(
                scheme, small_setup.bb_init.dealer_public_key, init.msk_share
            )

    def test_receipt_shares_reconstruct_printed_receipt(self, small_setup):
        thresholds = small_setup.params.thresholds
        sss = ShamirSecretSharing(thresholds.vc_honest_quorum, thresholds.num_vc)
        ballot = small_setup.ballots[0]
        permutation = small_setup.permutations[(ballot.serial, PART_A)]
        row_index = 0
        line = ballot.part_a.lines[permutation[row_index]]
        shares = [
            init.ballots[ballot.serial].rows[PART_A][row_index].receipt_share.share
            for init in small_setup.vc_init.values()
        ]
        from repro.crypto.utils import int_to_bytes

        assert int_to_bytes(sss.reconstruct(shares), 8) == line.receipt

    def test_trustee_opening_shares_reconstruct_unit_vector(self, small_setup, group):
        thresholds = small_setup.params.thresholds
        pedersen = PedersenVSS(thresholds.trustee_threshold, thresholds.num_trustees, group)
        scheme = OptionEncodingScheme(
            small_setup.params.num_options, small_setup.commitment_public_key, group
        )
        ballot = small_setup.ballots[0]
        permutation = small_setup.permutations[(ballot.serial, PART_B)]
        row_index = 1
        option_index = small_setup.params.option_index(
            ballot.part_b.lines[permutation[row_index]].option
        )
        trustee_views = boxed_rows(small_setup, ballot.serial, PART_B, row_index)
        values = tuple(
            pedersen.reconstruct([view.value_shares[coord] for view in trustee_views])
            for coord in range(small_setup.params.num_options)
        )
        randomness = tuple(
            pedersen.reconstruct([view.randomness_shares[coord] for view in trustee_views])
            for coord in range(small_setup.params.num_options)
        )
        opening = CommitmentOpening(values, randomness)
        commitment = small_setup.bb_init.ballots[ballot.serial].rows[PART_B][row_index].commitment
        assert scheme.verify_opening(commitment, opening)
        assert list(values) == scheme.unit_vector(option_index)

    def test_zk_first_moves_verify_with_reconstructed_state(self, small_setup, group):
        """Reconstructing the shared ZK coefficients yields a valid proof."""
        thresholds = small_setup.params.thresholds
        zk_sss = ShamirSecretSharing(
            thresholds.trustee_threshold, thresholds.num_trustees, prime=group.order
        )
        verifier = BallotCorrectnessVerifier(small_setup.commitment_public_key, group)
        serial = small_setup.ballots[0].serial
        bb_row = small_setup.bb_init.ballots[serial].rows[PART_A][0]
        zk_rows = [row.zk_shares for row in boxed_rows(small_setup, serial, PART_A, 0)]
        challenge = fiat_shamir_challenge(group, bb_row.commitment, bb_row.proof_announcement)
        # Reconstruct each affine coefficient (const, lin adjacent), evaluate
        # at the challenge and assemble the response by position like the BB
        # does: per option c0, c1, s0, s1, then the sum proof's s.
        coefficients = [zk_sss.reconstruct(shares) for shares in zip(*zk_rows, strict=True)]
        num_options = small_setup.params.num_options
        assert len(coefficients) == 8 * num_options + 2
        components = [
            (const + challenge * lin) % group.order
            for const, lin in zip(coefficients[::2], coefficients[1::2], strict=True)
        ]
        response = BallotProofResponse(
            tuple(OrProofResponse(*components[at:at + 4]) for at in range(0, 4 * num_options, 4)),
            SumProofResponse(components[4 * num_options]),
        )
        assert verifier.verify(bb_row.commitment, bb_row.proof_announcement, challenge, response)


class TestSetupOptions:
    def test_setup_without_proofs_is_lighter(self, group):
        params = ElectionParameters.small_test_election(num_voters=2, num_options=2)
        setup = ElectionAuthority(
            params, group=group, rng=RandomSource(3), include_proofs=False
        ).setup()
        serial = setup.ballots[0].serial
        assert setup.bb_init.ballots[serial].rows[PART_A][0].proof_announcement is None

    def test_setup_is_deterministic_with_seeded_rng(self, group):
        params = ElectionParameters.small_test_election(num_voters=2, num_options=2)
        first = ElectionAuthority(
            params, group=group, rng=RandomSource(9), include_proofs=False,
            include_trustee_data=False,
        ).setup()
        second = ElectionAuthority(
            params, group=group, rng=RandomSource(9), include_proofs=False,
            include_trustee_data=False,
        ).setup()
        assert [b.serial for b in first.ballots] == [b.serial for b in second.ballots]
        assert first.ballots[0].part_a.lines == second.ballots[0].part_a.lines


class TestSetupExponentiations:
    def test_setup_does_no_plain_pow_and_no_inversion(self, group, monkeypatch):
        """Every exponentiation of EA set-up is a table lookup (or a
        multi-power term) and no element is inverted: a later ``base ** x`` or
        ``.inverse()`` on the set-up path fails here."""
        calls = {"__pow__": 0, "inverse": 0}
        element = type(group.generator())

        def counted(name):
            original = getattr(element, name)

            def wrapper(self, *args):
                calls[name] += 1
                return original(self, *args)

            return wrapper

        for name in calls:
            monkeypatch.setattr(element, name, counted(name))
        params = ElectionParameters.small_test_election(num_voters=2, num_options=3)
        setup = ElectionAuthority(params, group=group, rng=RandomSource(3)).setup()
        serial = setup.ballots[0].serial
        assert setup.bb_init.ballots[serial].rows[PART_A][0].proof_announcement is not None
        assert calls == {"__pow__": 0, "inverse": 0}

    @pytest.mark.parametrize("num_options", [2, 3])
    def test_setup_pays_only_for_what_a_component_receives(
        self, group, count_table_lookups, num_options
    ):
        """Table lookups per ballot row: ``3m`` for the option-encoding
        commitment, ``5m + 2`` for the proof's first move, ``Nv`` for the
        signed receipt shares -- and none for trustee data: the ``4 * m * ht``
        Pedersen check values per row that no component receives are not
        computed (513fed7 paid them: 469 and 985 here instead of 277 and 553)."""
        lookups = count_table_lookups(group)
        params = ElectionParameters.small_test_election(num_voters=3, num_options=num_options)
        num_vc = params.thresholds.num_vc
        m = num_options
        rows = params.num_voters * 2 * m
        # ElGamal key, dealer key, one key per collector and trustee, and one
        # signed msk share per collector.
        keys = 2 + 2 * num_vc + params.thresholds.num_trustees

        def setup_lookups(**flags):
            lookups[0] = 0
            ElectionAuthority(params, group=group, rng=RandomSource(3), **flags).setup()
            return lookups[0]

        full = rows * (3 * m + (5 * m + 2) + num_vc) + keys
        assert full == {2: 277, 3: 553}[m]
        assert setup_lookups() == full
        assert setup_lookups(include_trustee_data=False) == full
        assert setup_lookups(include_proofs=False) == rows * (3 * m + num_vc) + keys

    def test_no_dealing_outlives_its_use(self, group, monkeypatch):
        """A dealing holds its two sharing polynomials.  The EA asks for the
        evaluations alone and packs them on the spot: whenever the next
        secret is dealt no dealing (and no coefficient tuple of an earlier
        one) is alive, and none is reachable from (or left behind by)
        ``setup()``."""
        dealt = []
        original = PedersenVSS.evaluations

        def evaluations(self, secret, rng=None):
            assert not [ref for ref in dealt if ref() is not None]
            assert not [obj for obj in gc.get_objects() if isinstance(obj, PedersenDealing)]
            pairs, coefficients = original(self, secret, rng=rng)
            kept = Coefficients(coefficients)
            dealt.append(weakref.ref(kept))
            return pairs, kept

        class Coefficients(list):
            """A sequence that can be weakly referenced (a tuple cannot)."""

        monkeypatch.setattr(PedersenVSS, "evaluations", evaluations)
        params = ElectionParameters.small_test_election(num_voters=2, num_options=2)
        setup = ElectionAuthority(params, group=group, rng=RandomSource(3)).setup()
        assert len(dealt) == 2 * 2 * 2 * 2 * 2  # ballots x parts x rows x 2m secrets
        assert setup.trustee_init[trustee_id(0)].ballots
        assert not [obj for obj in gc.get_objects() if isinstance(obj, PedersenDealing)]


#: ``setup_walk_hash`` of ``ElectionAuthority(small_test_election(3 voters, 3
#: options), rng=RandomSource(11))`` at 1b95dde -- the commit before trustee
#: views became packed blocks -- with that commit's views rendered share by
#: share (``PedersenShare`` / ``Share`` as ``(index, value[, blinding])``).
#: Dealer key and signature nonces are outside the walk: OS RNG on both sides.
GOLDEN_SETUP_WALKS = {
    ("schnorr", True): "1ed96ab079c3cb0e175f308af83d45672126774e486193c51fc340fec81b1031",
    ("schnorr", False): "2b426180e105d37ea1e753f6579fa322bb48bb777fb94d7ca359f880d5bddf21",
    ("ed25519", True): "5c23ab2370c777bcd1c11235fb4a1cc331d6c768289c39bda1e37d9364a7b3f7",
    ("ed25519", False): "2999f87e5192f52cce1731ec9c63c0fa97a1e02e7e96d28712ba87d1ffcee0e3",
}


class TestSeededSetupEqualsTheParents:
    @pytest.mark.parametrize(("backend", "include_proofs"), list(GOLDEN_SETUP_WALKS))
    def test_same_draws_same_ballots_same_views(self, backend, include_proofs):
        """The packed dealing draws the parent's scalars in the parent's order:
        ballots, VC, BB and trustee views (read through the test-side
        unpacker, point = the trustee's position) and permutations are the
        parent's, value for value."""
        params = ElectionParameters.small_test_election(num_voters=3, num_options=3)
        setup = ElectionAuthority(
            params, group=get_group(backend), rng=RandomSource(11), include_proofs=include_proofs
        ).setup()
        walked = setup_walk_hash(setup, boxed_trustee_view(setup))
        assert walked == GOLDEN_SETUP_WALKS[(backend, include_proofs)]
