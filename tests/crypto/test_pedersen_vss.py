"""Tests for Pedersen verifiable secret sharing."""

import pytest

from repro.crypto.pedersen_vss import PedersenShare, PedersenVSS
from repro.crypto.registry import available_backends, get_group
from repro.crypto.utils import RandomSource


@pytest.fixture(scope="module")
def vss(group):
    return PedersenVSS(2, 3, group)


class TestDealing:
    def test_shares_verify_against_commitments(self, vss):
        dealing = vss.deal(1234, rng=RandomSource(1))
        for share in dealing.shares:
            assert vss.verify_share(share, dealing.commitments)

    def test_reconstruction_from_threshold(self, vss):
        dealing = vss.deal(777, rng=RandomSource(2))
        assert vss.reconstruct(dealing.shares[:2]) == 777

    def test_reconstruction_from_any_subset(self, vss):
        dealing = vss.deal(777, rng=RandomSource(3))
        assert vss.reconstruct([dealing.shares[0], dealing.shares[2]]) == 777
        assert vss.reconstruct([dealing.shares[2], dealing.shares[1]]) == 777

    def test_too_few_shares_raises(self, vss):
        dealing = vss.deal(5, rng=RandomSource(4))
        with pytest.raises(ValueError):
            vss.reconstruct(dealing.shares[:1])

    def test_corrupted_share_fails_verification(self, vss):
        dealing = vss.deal(5, rng=RandomSource(5))
        share = dealing.shares[0]
        corrupted = PedersenShare(share.index, share.value + 1, share.blinding)
        assert not vss.verify_share(corrupted, dealing.commitments)

    def test_corrupted_blinding_fails_verification(self, vss):
        dealing = vss.deal(5, rng=RandomSource(6))
        share = dealing.shares[0]
        corrupted = PedersenShare(share.index, share.value, share.blinding + 1)
        assert not vss.verify_share(corrupted, dealing.commitments)

    def test_secret_reduced_modulo_group_order(self, vss, group):
        dealing = vss.deal(group.order + 3, rng=RandomSource(7))
        assert vss.reconstruct(dealing.shares[:2]) == 3

    def test_invalid_parameters(self, group):
        with pytest.raises(ValueError):
            PedersenVSS(0, 3, group)
        with pytest.raises(ValueError):
            PedersenVSS(4, 3, group)


class TestHomomorphism:
    def test_share_addition_reconstructs_sum(self, vss):
        a = vss.deal(10, rng=RandomSource(8))
        b = vss.deal(32, rng=RandomSource(9))
        summed = [x + y for x, y in zip(a.shares, b.shares, strict=True)]
        assert vss.reconstruct(summed[:2]) == 42

    def test_summed_shares_verify_against_combined_commitments(self, vss):
        a = vss.deal(10, rng=RandomSource(10))
        b = vss.deal(32, rng=RandomSource(11))
        combined_commitments = a.commitments * b.commitments
        summed = [x + y for x, y in zip(a.shares, b.shares, strict=True)]
        for share in summed:
            assert vss.verify_share(share, combined_commitments)

    def test_add_shares_helper(self, vss):
        dealings = [vss.deal(v, rng=RandomSource(20 + v)) for v in (1, 2, 3)]
        per_party_sums = [
            PedersenVSS.add_shares([d.shares[i] for d in dealings]) for i in range(3)
        ]
        assert vss.reconstruct(per_party_sums[:2]) == 6

    def test_add_shares_empty_raises(self):
        with pytest.raises(ValueError):
            PedersenVSS.add_shares([])

    def test_adding_shares_of_different_parties_raises(self, vss):
        a = vss.deal(1, rng=RandomSource(30))
        with pytest.raises(ValueError):
            _ = a.shares[0] + a.shares[1]

    def test_mismatched_commitment_lengths_raise(self, group):
        small = PedersenVSS(2, 3, group).deal(1, rng=RandomSource(31))
        large = PedersenVSS(3, 4, group).deal(1, rng=RandomSource(32))
        with pytest.raises(ValueError):
            _ = small.commitments * large.commitments


@pytest.fixture(params=available_backends())
def backend_group(request):
    return get_group(request.param)


class TestCommitmentsOnFirstRead:
    """``deal`` evaluates shares; the check values exist once someone reads them."""

    def test_dealt_shares_verify_and_corrupted_ones_do_not(self, backend_group):
        vss = PedersenVSS(3, 5, backend_group)
        dealing = vss.deal(4321, rng=RandomSource(40))
        for share in dealing.shares:
            assert vss.verify_share(share, dealing.commitments)
        share = dealing.shares[3]
        assert not vss.verify_share(
            PedersenShare(share.index, share.value + 1, share.blinding), dealing.commitments
        )
        assert not vss.verify_share(
            PedersenShare(share.index, share.value, share.blinding + 1), dealing.commitments
        )

    def test_deal_costs_no_lookup_and_commitments_cost_theirs_once(
        self, backend_group, count_table_lookups
    ):
        lookups = count_table_lookups(backend_group)
        vss = PedersenVSS(3, 5, backend_group)
        dealing = vss.deal(99, rng=RandomSource(41))
        assert lookups[0] == 0
        first = dealing.commitments
        assert len(first.commitments) == 3
        assert lookups[0] == 2 * 3
        assert dealing.commitments is first
        assert lookups[0] == 2 * 3

    def test_seeded_dealers_agree(self, backend_group):
        first = PedersenVSS(2, 3, backend_group).deal(7, rng=RandomSource(42))
        second = PedersenVSS(2, 3, backend_group).deal(7, rng=RandomSource(42))
        assert first.shares == second.shares
        assert first.commitments == second.commitments
        other = PedersenVSS(2, 3, backend_group).deal(7, rng=RandomSource(43))
        assert other.shares != first.shares and other.commitments != first.commitments
