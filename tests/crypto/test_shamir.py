"""Tests for Shamir secret sharing and the dealer's share digests."""

from itertools import permutations

import pytest

from repro.crypto.pedersen_vss import PedersenVSS
from repro.crypto.shamir import (
    ShamirSecretSharing,
    Share,
    ShareDealer,
    lagrange_at_zero,
    share_digest,
    share_matches,
)
from repro.crypto.utils import RandomSource


class TestShamir:
    def test_reconstruct_with_threshold_shares(self):
        sss = ShamirSecretSharing(3, 5)
        shares = sss.share(123456789, rng=RandomSource(1))
        assert sss.reconstruct(shares[:3]) == 123456789

    def test_reconstruct_with_any_subset(self):
        sss = ShamirSecretSharing(3, 5)
        shares = sss.share(42, rng=RandomSource(2))
        assert sss.reconstruct([shares[0], shares[2], shares[4]]) == 42
        assert sss.reconstruct([shares[4], shares[1], shares[3]]) == 42

    def test_reconstruct_with_all_shares(self):
        sss = ShamirSecretSharing(2, 4)
        shares = sss.share(7, rng=RandomSource(3))
        assert sss.reconstruct(shares) == 7

    def test_too_few_shares_raises(self):
        sss = ShamirSecretSharing(3, 5)
        shares = sss.share(42, rng=RandomSource(4))
        with pytest.raises(ValueError):
            sss.reconstruct(shares[:2])

    def test_duplicate_shares_do_not_count_twice(self):
        sss = ShamirSecretSharing(3, 5)
        shares = sss.share(42, rng=RandomSource(5))
        with pytest.raises(ValueError):
            sss.reconstruct([shares[0], shares[0], shares[1]])

    def test_threshold_one_is_constant_polynomial(self):
        sss = ShamirSecretSharing(1, 3)
        shares = sss.share(99, rng=RandomSource(6))
        assert all(share.value == 99 for share in shares)

    def test_shares_hide_secret_below_threshold(self):
        """Two different secrets can produce the same single share value."""
        sss = ShamirSecretSharing(2, 3)
        # With threshold 2, one share alone is consistent with any secret:
        # reconstructing from a single share must be refused.
        shares = sss.share(1, rng=RandomSource(7))
        with pytest.raises(ValueError):
            sss.reconstruct([shares[0]])

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            ShamirSecretSharing(0, 3)
        with pytest.raises(ValueError):
            ShamirSecretSharing(4, 3)
        with pytest.raises(ValueError):
            ShamirSecretSharing(2, 3, prime=3)

    def test_large_secret_reduced_modulo_prime(self):
        sss = ShamirSecretSharing(2, 3, prime=101)
        shares = sss.share(1000, rng=RandomSource(8))
        assert sss.reconstruct(shares[:2]) == 1000 % 101

    def test_custom_prime_field(self):
        sss = ShamirSecretSharing(2, 4, prime=2 ** 61 - 1)
        shares = sss.share(123, rng=RandomSource(9))
        assert sss.reconstruct(shares[1:3]) == 123


class TestLagrangeAtZero:
    """One coefficient function under both reconstructions, memoised per
    (index tuple, field)."""

    def test_coefficients_interpolate_at_zero(self):
        prime = 2**61 - 1
        polynomial = [1234567, 89, 1011, 5]  # f(0) = 1234567, degree 3
        points = (2, 9, 4, 7)
        values = [sum(c * x**k for k, c in enumerate(polynomial)) % prime for x in points]
        coefficients = lagrange_at_zero(points, prime)
        assert all(0 <= c < prime for c in coefficients)
        assert sum(c * y for c, y in zip(coefficients, values, strict=True)) % prime == 1234567
        assert sum(coefficients) % prime == 1  # the constant polynomial 1

    def test_every_threshold_subset_in_every_order_gives_the_secret(self, group):
        shamir = ShamirSecretSharing(3, 5, prime=group.order)
        shares = shamir.share(31337, rng=RandomSource(11))
        pedersen = PedersenVSS(3, 5, group)
        dealt = pedersen.deal(424242, rng=RandomSource(12)).shares
        for chosen in permutations(range(5), 3):
            assert shamir.reconstruct([shares[i] for i in chosen]) == 31337
            assert pedersen.reconstruct([dealt[i] for i in chosen]) == 424242

    def test_extra_shares_beyond_the_threshold_are_not_used(self):
        sss = ShamirSecretSharing(2, 4)
        shares = sss.share(77, rng=RandomSource(13))
        garbage = Share(shares[3].index, shares[3].value + 1)
        assert sss.reconstruct([shares[1], shares[0], garbage]) == 77

    def test_the_memo_is_per_field(self):
        """Same indices, two primes: the coefficients differ and neither call
        may be answered from the other's entry."""
        small, large = 101, 2**255 + 95
        indices = (1, 2, 3)
        assert lagrange_at_zero(indices, small) == (3, 98, 1)
        assert lagrange_at_zero(indices, large) == (3, large - 3, 1)
        assert lagrange_at_zero(indices, small) == (3, 98, 1)
        for prime in (small, large, 257):
            sss = ShamirSecretSharing(3, 3, prime=prime)
            assert sss.reconstruct(sss.share(42, rng=RandomSource(prime))) == 42

    def test_the_memo_is_per_order_of_the_indices(self):
        assert lagrange_at_zero((2, 1), 101) == tuple(reversed(lagrange_at_zero((1, 2), 101)))

    def test_reconstructions_share_one_entry(self):
        lagrange_at_zero.cache_clear()
        sss = ShamirSecretSharing(2, 3)
        for secret in range(20):
            shares = sss.share(secret, rng=RandomSource(secret))
            assert sss.reconstruct(shares[:2]) == secret
        info = lagrange_at_zero.cache_info()
        assert (info.misses, info.hits) == (1, 19)

    def test_one_entry_per_subset_whatever_the_arrival_order(self):
        """Receipt shares arrive in network order; the memo key is the sorted
        subset, so 3-of-5 in all 60 orders computes C(5, 3) = 10 coefficient
        tuples, not 60."""
        lagrange_at_zero.cache_clear()
        sss = ShamirSecretSharing(3, 5)
        shares = sss.share(4242, rng=RandomSource(16))
        for chosen in permutations(range(5), 3):
            assert sss.reconstruct([shares[i] for i in chosen]) == 4242
        info = lagrange_at_zero.cache_info()
        assert (info.misses, info.hits) == (10, 50)

    def test_refusals_are_unchanged(self, group):
        sss = ShamirSecretSharing(3, 5)
        shares = sss.share(42, rng=RandomSource(14))
        with pytest.raises(ValueError, match="need at least 3 shares, got 2"):
            sss.reconstruct(shares[:2])
        with pytest.raises(ValueError, match="need at least 3 shares, got 2"):
            sss.reconstruct([shares[0], shares[0], shares[1]])
        pedersen = PedersenVSS(2, 3, group)
        dealt = pedersen.deal(5, rng=RandomSource(15)).shares
        with pytest.raises(ValueError, match="need at least 2 shares, got 1"):
            pedersen.reconstruct(dealt[:1])
        with pytest.raises(ValueError, match="need at least 2 shares, got 1"):
            pedersen.reconstruct([dealt[2], dealt[2]])
        with pytest.raises(ValueError, match="threshold must be at least 1"):
            ShamirSecretSharing(0, 3)
        with pytest.raises(ValueError, match="threshold must be at least 1"):
            PedersenVSS(0, 3, group)


class TestShareDealer:
    def test_deal_and_reconstruct(self):
        dealer = ShareDealer(3, 4)
        shares, digests = dealer.deal(555, b"ctx", rng=RandomSource(1))
        assert dealer.reconstruct(shares[:3], b"ctx", digests) == 555

    def test_each_share_matches_its_digest(self):
        shares, digests = ShareDealer(2, 3).deal(7, b"receipt|1|A", rng=RandomSource(2))
        assert digests == tuple(share_digest(b"receipt|1|A", share) for share in shares)
        assert len(set(digests)) == 3
        for share in shares:
            assert share_matches(b"receipt|1|A", digests, share)

    def test_the_draws_are_the_plain_sharings(self):
        """Committing draws nothing: the shares are ``ShamirSecretSharing``'s."""
        shares, _digests = ShareDealer(2, 3).deal(7, b"ctx", rng=RandomSource(3))
        assert shares == ShamirSecretSharing(2, 3).share(7, rng=RandomSource(3))

    def test_tampered_value_misses(self):
        shares, digests = ShareDealer(2, 3).deal(7, b"ctx", rng=RandomSource(3))
        genuine = shares[0]
        assert not share_matches(b"ctx", digests, Share(genuine.index, genuine.value + 1))

    def test_another_index_misses(self):
        shares, digests = ShareDealer(2, 3).deal(7, b"ctx", rng=RandomSource(3))
        assert not share_matches(b"ctx", digests, Share(2, shares[0].value))

    def test_context_binding_prevents_share_reuse(self):
        shares, digests = ShareDealer(2, 3).deal(7, b"receipt|ballot-1", rng=RandomSource(4))
        assert not share_matches(b"receipt|ballot-2", digests, shares[0])

    @pytest.mark.parametrize(
        "index, value",
        [(0, 1), (-1, 1), (4, 1), (1 << 40, 1), (1, -1), (1, 1 << 256)],
        ids=["index-0", "index-negative", "index-Nv+1", "index-huge", "value-negative",
             "value-too-wide"],
    )
    def test_out_of_range_shares_are_refused_without_hashing(self, index, value):
        """Nothing is indexed or encoded out of range: no exception escapes."""
        _shares, digests = ShareDealer(2, 3).deal(7, b"ctx", rng=RandomSource(3))
        assert not share_matches(b"ctx", digests, Share(index, value))

    def test_reconstruct_ignores_invalid_shares(self):
        dealer = ShareDealer(2, 4)
        shares, digests = dealer.deal(99, b"ctx", rng=RandomSource(5))
        corrupted = Share(shares[0].index, shares[0].value + 1)
        # Two valid shares remain in the list; reconstruction still succeeds.
        assert dealer.reconstruct([corrupted, shares[1], shares[2]], b"ctx", digests) == 99
