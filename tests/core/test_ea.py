"""Tests for the Election Authority setup."""

import gc
import types
import weakref

import pytest
from share_blocks import parent_shape, setup_walk_hash, trustee_rows

from repro.core.ballot import PART_A, PART_B, PARTS, receipt_context
from repro.core.ea import ElectionAuthority
from repro.core.election import (
    ElectionParameters,
    bb_node_id,
    trustee_id,
    vc_node_id,
    voter_id,
)
from repro.crypto.commitments import CommitmentOpening, OptionEncodingScheme
from repro.crypto.elgamal import ElGamalKeyPair, LiftedElGamal
from repro.crypto.pedersen_vss import PedersenDealing, PedersenVSS
from repro.crypto.registry import get_group
from repro.crypto.shamir import ShamirSecretSharing, scalar_width, share_digest
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
            codes = [line.vote_code for part in ballot.parts for line in part.lines]
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
        """Each subsystem finds a ballot by its serial: the VC view of a
        ballot locates that ballot's own vote codes and no other's."""
        first, second = small_setup.ballots[:2]
        for init in small_setup.vc_init.values():
            view = init.ballots[first.serial]
            assert view.serial == first.serial
            assert view.find_vote_code(first.part_a.lines[0].vote_code) is not None
            assert view.find_vote_code(second.part_a.lines[0].vote_code) is None
        assert small_setup.bb_init.ballots[first.serial].serial == first.serial
        with pytest.raises(KeyError):
            small_setup.bb_init.ballots[-1]


class TestSecretSharingConsistency:
    def test_msk_shares_reconstruct_key_matching_bb_commitment(self, small_setup):
        thresholds = small_setup.params.thresholds
        sss = ShamirSecretSharing(thresholds.vc_honest_quorum, thresholds.num_vc)
        shares = [init.msk_share for init in small_setup.vc_init.values()]
        from repro.crypto.utils import int_to_bytes

        msk = int_to_bytes(sss.reconstruct(shares), 16)
        assert small_setup.bb_init.key_commitment.matches(msk)

    def test_bb_holds_the_digest_of_every_msk_share(self, small_setup):
        """Recomputed, not read back: share ``i``'s digest under ``msk`` is
        entry ``i - 1``, in collector order."""
        inits = list(small_setup.vc_init.values())
        assert [init.msk_share.index for init in inits] == list(range(1, len(inits) + 1))
        assert small_setup.bb_init.msk_share_digests == tuple(
            share_digest(b"msk", init.msk_share) for init in inits
        )

    def test_every_row_holds_the_digests_of_every_receipt_share(self, small_setup):
        """Per row, one tuple: the digests of all collectors' shares under
        the ballot part's context, shared by every collector's view."""
        inits = list(small_setup.vc_init.values())
        for ballot in small_setup.ballots:
            for part in PARTS:
                for at in range(small_setup.params.num_options):
                    rows = [init.ballots[ballot.serial].rows[part][at] for init in inits]
                    assert [row.receipt_share.index for row in rows] == list(
                        range(1, len(inits) + 1)
                    )
                    context = receipt_context(ballot.serial, part)
                    digests = tuple(share_digest(context, row.receipt_share) for row in rows)
                    assert all(row.share_digests is rows[0].share_digests for row in rows)
                    assert rows[0].share_digests == digests

    def test_receipt_shares_reconstruct_printed_receipt(self, small_setup):
        thresholds = small_setup.params.thresholds
        sss = ShamirSecretSharing(thresholds.vc_honest_quorum, thresholds.num_vc)
        ballot = small_setup.ballots[0]
        permutation = small_setup.permutations[(ballot.serial, PART_A)]
        row_index = 0
        line = ballot.part_a.lines[permutation[row_index]]
        shares = [
            init.ballots[ballot.serial].rows[PART_A][row_index].receipt_share
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
        option_index = small_setup.params.options.index(
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
        """Table lookups per ballot row, one per published element: ``2m``
        for the option-encoding commitment, ``4m + 2`` for the proof's first
        move (``3m`` and ``5m + 2`` while the EA raised ``y`` through its own
        table instead of ``g`` to the exponent it knows) -- none for the
        receipt shares, which the EA commits to by digest instead of signing
        (``Nv`` more per row at ca2940a) -- and none for trustee data: the
        ``4 * m * ht`` Pedersen check values per row that no component
        receives are not computed (513fed7 paid them)."""
        lookups = count_table_lookups(group)
        params = ElectionParameters.small_test_election(num_voters=3, num_options=num_options)
        num_vc = params.thresholds.num_vc
        m = num_options
        rows = params.num_voters * 2 * m
        # ElGamal key and one key per collector and trustee.
        keys = 1 + num_vc + params.thresholds.num_trustees

        def setup_lookups(**flags):
            lookups[0] = 0
            ElectionAuthority(params, group=group, rng=RandomSource(3), **flags).setup()
            return lookups[0]

        full = rows * (2 * m + (4 * m + 2)) + keys
        assert full == {2: 176, 3: 368}[m]
        assert setup_lookups() == full
        assert setup_lookups(include_trustee_data=False) == full
        assert setup_lookups(include_proofs=False) == rows * 2 * m + keys

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


#: what :func:`reachable` does not enter: code and the process-wide state it
#: reaches, and the leaves of the scan
NOT_HELD = (
    type, types.ModuleType, types.FunctionType, types.BuiltinFunctionType,
    types.MethodType, str, bytes,
)


def reachable(*roots) -> list:
    """Every object the roots hold, through containers, instance dicts and slots."""
    seen, found, stack = set(), [], list(roots)
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, NOT_HELD):
            continue
        seen.add(id(obj))
        found.append(obj)
        stack.extend(gc.get_referents(obj))
    return found


class TestTheCommitmentSecretIsDiscarded:
    def test_no_key_pair_and_no_secret_outlive_setup(self, group, monkeypatch):
        """Set-up commits and proves with the commitment key pair, in the
        exponents of ``g``, and then drops it: once ``setup()`` returns no key
        pair of this election is alive, and neither the authority nor the
        setup reaches the secret -- they hold the public key alone."""
        secrets = []
        original = LiftedElGamal.keygen

        def keygen(self, rng=None):
            keys = original(self, rng)
            secrets.append(keys.secret)
            return keys

        monkeypatch.setattr(LiftedElGamal, "keygen", keygen)
        params = ElectionParameters.small_test_election(num_voters=2, num_options=2)
        authority = ElectionAuthority(params, group=group, rng=RandomSource(3))
        setup = authority.setup()
        (secret,) = secrets
        assert setup.commitment_public_key == group.power_g(secret)
        assert setup.bb_init.commitment_public_key == setup.commitment_public_key
        assert not [
            obj for obj in gc.get_objects()
            if isinstance(obj, ElGamalKeyPair) and obj.secret == secret
        ]
        held = reachable(authority, setup)
        assert setup.commitment_public_key in held
        assert not [obj for obj in held if isinstance(obj, ElGamalKeyPair)]
        assert secret not in {obj for obj in held if type(obj) is int}


#: ``setup_walk_hash`` of ``ElectionAuthority(small_test_election(3 voters, 3
#: options), rng=RandomSource(11))`` at 1b95dde -- the commit before trustee
#: views became packed blocks -- with that commit's views rendered share by
#: share (``PedersenShare`` / ``Share`` as ``(index, value[, blinding])``),
#: and the collectors' and BB's init data in the shape they had while the EA
#: signed each share (``share_blocks.parent_shape``).  The dealer key and the
#: signatures are outside the walk: they came from the OS RNG.  Re-captured
#: when schnorr elements became signed quadratic residues: the walk hashes
#: each element's encoding, now ``min(x, p - x)``.  The ``secp256k1`` walks
#: were captured before that change and still hold: it left the curve encoding
#: as it was.
GOLDEN_SETUP_WALKS = {
    ("schnorr", True): "a39fae5f959b484aeaab5607126fabccc06f0ecb61e12b35011829a6bc55626b",
    ("schnorr", False): "f4f03fb4f70a1886316feb6ca654e5526752340adfc8ef0e8fd2c5eae6558fe6",
    ("secp256k1", True): "6e3bc555593250490fac2152965a4bec65e8c2bb752fc5600f01edecbdfeb213",
    ("secp256k1", False): "3ec3386a792a85badb57bbc3b11b06837c2ce593d55cc209698b76bb3dd64bd9",
}
# Same group, same arithmetic, whether or not gmpy2 is installed.
GOLDEN_SETUP_WALKS["schnorr-gmpy2", True] = GOLDEN_SETUP_WALKS["schnorr", True]
GOLDEN_SETUP_WALKS["schnorr-gmpy2", False] = GOLDEN_SETUP_WALKS["schnorr", False]


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
        walked = setup_walk_hash(setup, parent_shape(setup))
        assert walked == GOLDEN_SETUP_WALKS[(backend, include_proofs)]
