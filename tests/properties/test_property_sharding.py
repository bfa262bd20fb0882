"""Property tests for the sharded tally combination.

The sharded pipeline's correctness rests on one algebraic fact: because group
multiplication is exact, associative and commutative, folding ballot
commitments shard-by-shard (in any split, in any order) yields the
bit-identical element that ``OptionEncodingScheme.combine`` computes over
the flat list, and the summed openings open it through ``open_tally``.
Hypothesis drives random vote patterns and random shard splits against every
registered crypto backend.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.tally import open_tally
from repro.crypto.commitments import OptionEncodingScheme
from repro.crypto.registry import available_backends, get_group
from repro.crypto.utils import RandomSource
from repro.shard.merge import CrossShardCommit
from repro.shard.records import ShardCommitRecord
from repro.shard.streaming import StreamingTally

NUM_OPTIONS = 2

SCHEMES = {
    name: OptionEncodingScheme(
        NUM_OPTIONS, get_group(name).power_g(23), get_group(name)
    )
    for name in available_backends()
}

# The pure-python curve backends cost milliseconds per exponentiation, so the
# sweep keeps electorates small and examples modest.
relaxed = settings(
    max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

backend_names = st.sampled_from(sorted(SCHEMES))
vote_patterns = st.lists(
    st.integers(min_value=0, max_value=NUM_OPTIONS - 1), min_size=1, max_size=12
)
seeds = st.integers(min_value=0, max_value=2**32 - 1)


def split_points(pattern, splitter):
    """Deterministically derive shard boundaries from a hypothesis integer."""
    rng = RandomSource(splitter)
    points = sorted(
        {rng.randint_below(len(pattern)) for _ in range(rng.randint_below(4))} - {0}
    )
    return [0, *points, len(pattern)]


class TestStreamingEqualsFlat:
    @relaxed
    @given(backend_names, vote_patterns, seeds, seeds)
    def test_shard_split_preserves_the_combined_commitment(
        self, backend, pattern, seed, splitter
    ):
        scheme = SCHEMES[backend]
        rng = RandomSource(seed)
        ballots = [scheme.commit_option(option, rng) for option in pattern]
        flat = scheme.combine([c for c, _ in ballots])

        bounds = split_points(pattern, splitter)
        shards = [ballots[lo:hi] for lo, hi in zip(bounds, bounds[1:], strict=False)]
        products = [scheme.combine([c for c, _ in shard]) for shard in shards]
        openings = [scheme.combine_openings([o for _, o in shard]) for shard in shards]
        # Any arrival order of the shard products folds to the flat product.
        assert scheme.combine(products) == flat
        assert scheme.combine(products[::-1]) == flat

        tally = open_tally(scheme, flat, scheme.combine_openings(openings), ("a", "b"))
        assert tally.counts[0] == pattern.count(0)
        assert tally.counts[1] == pattern.count(1)

    @relaxed
    @given(backend_names, vote_patterns, seeds, seeds)
    def test_cross_shard_commit_equals_flat_combination(
        self, backend, pattern, seed, splitter
    ):
        """The full merge layer (records + two-phase commit) agrees too."""
        scheme = SCHEMES[backend]
        rng = RandomSource(seed)
        bounds = split_points(pattern, splitter)
        commit = CrossShardCommit(scheme)
        for shard_id, (lo, hi) in enumerate(zip(bounds, bounds[1:], strict=False)):
            tally = StreamingTally(scheme)
            for option in pattern[lo:hi]:
                randomness = tuple(
                    scheme.group.random_scalar(rng) for _ in range(NUM_OPTIONS)
                )
                tally.add_vote(option, randomness)
            commit.prepare(
                ShardCommitRecord(
                    shard_id=shard_id,
                    serial_lo=lo,
                    serial_hi=hi,
                    ballots_registered=hi - lo,
                    ballots_cast=hi - lo,
                    commitment=tally.commit(),
                    vote_set_digest=bytes([shard_id % 256]) * 32,
                    sender=f"shard-{shard_id}",
                ),
                tally.opening(),
            )
        global_record = commit.commit("property-test")
        tally = commit.open_merged_tally(("a", "b"))
        assert tally.counts == (pattern.count(0), pattern.count(1))
        assert global_record.total_cast == len(pattern)
