"""The shard tally accumulator, and shard products folding to the flat product."""

import pytest

from repro.core.tally import open_tally
from repro.crypto.commitments import OptionCommitment, OptionEncodingScheme
from repro.crypto.elgamal import ElGamalKeyPair
from repro.crypto.utils import RandomSource
from repro.shard.streaming import StreamingTally

NUM_OPTIONS = 3


@pytest.fixture(scope="module")
def keys(group):
    return ElGamalKeyPair(7, group.power_g(7))


@pytest.fixture(scope="module")
def scheme(group, keys):
    return OptionEncodingScheme(NUM_OPTIONS, keys.public, group)


@pytest.fixture(scope="module")
def ballots(scheme, keys):
    """Twelve committed ballots with a known option pattern."""
    rng = RandomSource(42)
    pattern = [0, 1, 2, 1, 1, 0, 2, 2, 2, 1, 0, 1]
    return [scheme.commit_option(keys, option, rng) for option in pattern]


class TestShardProductsFold:
    """The identities the merge layer relies on, stated on ``scheme.combine``."""

    def test_shard_products_fold_to_the_same_element(self, scheme, ballots):
        """Folding shard-by-shard equals folding ballot-by-ballot."""
        flat = scheme.combine([c for c, _ in ballots])
        shards = [ballots[:5], ballots[5:9], ballots[9:]]
        products = [scheme.combine([c for c, _ in shard]) for shard in shards]
        assert scheme.combine(products) == flat
        assert scheme.combine(products[::-1]) == flat

    def test_summed_openings_open_the_product(self, scheme, ballots):
        total = scheme.combine_openings([o for _, o in ballots])
        assert list(total.values) == [3, 5, 4]
        flat = scheme.combine([c for c, _ in ballots])
        result = open_tally(scheme, flat, total, ("a", "b", "c"))
        assert result.as_dict() == {"a": 3, "b": 5, "c": 4}

    def test_rejects_wrong_width(self, scheme, ballots, group, keys):
        other = OptionEncodingScheme(NUM_OPTIONS + 1, keys.public, group)
        commitment, _ = other.commit_option(keys, 0, RandomSource(1))
        with pytest.raises(ValueError):
            scheme.combine([ballots[0][0], commitment])


class TestStreamingTally:
    def test_single_flush_equals_per_ballot_product(self, scheme):
        """Enc(pk, Σv, Σr) must equal the product of per-ballot commitments."""
        rng = RandomSource(7)
        order = scheme.group.order
        tally = StreamingTally(scheme)
        per_ballot = []
        for option in [2, 0, 1, 1, 2, 2, 0]:
            randomness = tuple(scheme.group.random_scalar(rng) for _ in range(NUM_OPTIONS))
            tally.add_vote([option], randomness)
            vector = scheme.unit_vector(option)
            ciphertexts = tuple(
                scheme.elgamal.encrypt(scheme.public_key, v, randomness=r)
                for v, r in zip(vector, randomness, strict=True)
            )
            per_ballot.append(OptionCommitment(ciphertexts))
        assert tally.opening().values == (2, 2, 3)
        assert tally.commit() == scheme.combine(per_ballot)

    def test_opening_opens_the_commitment(self, scheme):
        rng = RandomSource(8)
        tally = StreamingTally(scheme)
        for option in [0, 0, 1]:
            tally.add_vote(
                [option],
                tuple(scheme.group.random_scalar(rng) for _ in range(NUM_OPTIONS)),
            )
        result = open_tally(scheme, tally.commit(), tally.opening(), ("x", "y", "z"))
        assert result.as_dict() == {"x": 2, "y": 1, "z": 0}

    def test_lazy_reduction_equals_the_eager_sum(self, scheme):
        """Reducing once at read time gives the sums a per-vote ``%`` gives,
        for unreduced inputs too, and reading twice (or mid-stream) is safe."""
        order = scheme.group.order
        rng = RandomSource(9)
        tally = StreamingTally(scheme)
        eager = [0] * NUM_OPTIONS
        for step, option in enumerate([1, 2, 2, 0, 1, 2, 0, 0, 1]):
            # Digest-sized inputs, mostly above the order, as the runner feeds them.
            randomness = [rng.randbits(256) + order * (step % 3) for _ in range(NUM_OPTIONS)]
            tally.add_vote([option], randomness)
            eager = [(total + r) % order for total, r in zip(eager, randomness, strict=True)]
            if step == 4:
                assert tally.opening().randomness == tuple(eager)
        opening = tally.opening()
        assert opening.randomness == tuple(eager)
        assert all(0 <= r < order for r in opening.randomness)
        assert tally.opening() == opening
        assert scheme.verify_opening(tally.commit(), opening)

    def test_a_block_equals_its_votes_one_at_a_time(self, scheme):
        rng = RandomSource(10)
        options = [2, 0, 1, 1, 2, 2, 0, 1]
        vectors = [
            [rng.randbits(256) for _ in range(NUM_OPTIONS)] for _ in options
        ]
        one_by_one = StreamingTally(scheme)
        for option, randomness in zip(options, vectors, strict=True):
            one_by_one.add_vote([option], randomness)
        blocks = StreamingTally(scheme)
        for lo, hi in ((0, 3), (3, 3), (3, 8)):
            sums = [sum(vector[c] for vector in vectors[lo:hi]) for c in range(NUM_OPTIONS)]
            blocks.add_vote(options[lo:hi], sums)
        assert blocks.opening() == one_by_one.opening()
        assert blocks.opening().values == (2, 3, 3)
        assert blocks.commit() == one_by_one.commit()

    @pytest.mark.parametrize(
        "options, sums",
        [
            ([NUM_OPTIONS], (1, 2, 3)),
            ([-1], (1, 2, 3)),
            ([0, 2, NUM_OPTIONS, 1], (1, 2, 3)),
            ([0, -1, 2], (1, 2, 3)),
            ([0], (1, 2)),
            ([0, 1], (1, 2, 3, 4)),
            ([], ()),
        ],
    )
    def test_rejects_bad_inputs(self, scheme, options, sums):
        tally = StreamingTally(scheme)
        tally.add_vote([1], (5, 6, 7))
        before = tally.opening()
        with pytest.raises(ValueError):
            tally.add_vote(options, sums)
        assert tally.opening() == before
