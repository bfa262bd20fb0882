"""Shard runner and sharded driver: determinism and shard-count invariance."""

import pytest

from repro.api import MultiElectionService, ScenarioSpec, ShardingProfile
from repro.crypto.commitments import OptionEncodingScheme
from repro.crypto.utils import int_to_bytes
from repro.net.codec import default_codec
from repro.shard.driver import ShardedElectionDriver
from repro.shard.partition import ShardRange
from repro.shard.shard_runner import ShardRunner

NUM_BALLOTS = 240
SEED = 13
ELECTION_ID = "runner-test"
OPTIONS = ("yes", "no")


@pytest.fixture(scope="module")
def scheme(group):
    public_key = group.power_g(
        group.hash_to_scalar(b"shard-pk", int_to_bytes(SEED))
    )
    return OptionEncodingScheme(len(OPTIONS), public_key, group)


def run_shard(scheme, shard, **kwargs):
    defaults = dict(
        scheme=scheme,
        seed=SEED,
        election_id=ELECTION_ID,
        num_collectors=4,
        consensus_batch_size=32,
    )
    defaults.update(kwargs)
    return ShardRunner(shard, **defaults).run()


class TestShardRunner:
    def test_run_is_deterministic(self, scheme):
        shard = ShardRange(0, 0, 60)
        first = run_shard(scheme, shard)
        second = run_shard(scheme, shard)
        assert first.record == second.record
        assert first.opening == second.opening
        assert default_codec().encode(first.record) == default_codec().encode(second.record)

    def test_record_matches_opening(self, scheme):
        result = run_shard(scheme, ShardRange(0, 0, 60))
        assert sum(result.opening.values) == result.record.ballots_cast
        assert result.record.ballots_registered == 60
        assert scheme.verify_opening(result.record.commitment, result.opening)

    def test_ballot_derivation_ignores_shard_boundaries(self, scheme):
        """A serial's choice/cast status depends only on (seed, id, serial)."""
        wide = ShardRunner(
            ShardRange(0, 0, 200), scheme=scheme, seed=SEED, election_id=ELECTION_ID
        )
        narrow = ShardRunner(
            ShardRange(3, 150, 200), scheme=scheme, seed=SEED, election_id=ELECTION_ID
        )
        for serial in range(150, 200):
            assert wide.choice_of(serial) == narrow.choice_of(serial)
            assert wide._randomness(serial) == narrow._randomness(serial)

    def test_partial_turnout_casts_fewer_ballots(self, scheme):
        full = run_shard(scheme, ShardRange(0, 0, 120), turnout=1.0)
        half = run_shard(scheme, ShardRange(0, 0, 120), turnout=0.5)
        assert half.record.ballots_cast < full.record.ballots_cast
        assert full.record.ballots_cast == 120

    def test_superblocks_take_the_fast_path_when_honest(self, scheme):
        result = run_shard(scheme, ShardRange(0, 0, 64), consensus_batch_size=16)
        assert result.superblocks_fast > 0
        assert result.superblocks_fallback == 0


class TestShardedElectionDriver:
    @pytest.fixture(scope="class")
    def spec(self):
        return ScenarioSpec.preset(
            "national_scale", election_id=ELECTION_ID, seed=SEED
        )

    def outcome_at(self, spec, shards):
        derived = spec.derive(sharding=ShardingProfile(num_shards=shards))
        return ShardedElectionDriver(derived, num_ballots=NUM_BALLOTS).run()

    def test_tally_is_invariant_across_shard_counts(self, spec):
        """Same seed + election id must give the identical election at any
        shard count: equal counts AND a bit-identical combined commitment."""
        reference = self.outcome_at(spec, 1)
        for shards in (3, 8):
            outcome = self.outcome_at(spec, shards)
            assert outcome.num_shards == shards
            assert outcome.tally.as_dict() == reference.tally.as_dict()
            assert outcome.global_record.combined == reference.global_record.combined
            assert outcome.report.ok

    def test_outcome_accounts_for_every_ballot(self, spec):
        outcome = self.outcome_at(spec, 4)
        assert outcome.num_ballots == NUM_BALLOTS
        registered = sum(s["ballots_registered"] for s in outcome.shard_stats)
        assert registered == NUM_BALLOTS
        assert outcome.global_record.total_cast == sum(outcome.tally.counts)
        assert outcome.ballots_per_s > 0

    def test_shard_results_stream_into_the_merge(self, spec):
        seen = []
        derived = spec.derive(sharding=ShardingProfile(num_shards=4))
        driver = ShardedElectionDriver(
            derived, num_ballots=NUM_BALLOTS, on_shard=seen.append
        )
        driver.run()
        assert [r.shard_id for r in seen] == [0, 1, 2, 3]


class TestServiceRunSharded:
    def test_run_sharded_end_to_end(self):
        spec = ScenarioSpec.preset(
            "national_scale", election_id=ELECTION_ID, seed=SEED
        )
        service = MultiElectionService()
        report = service.run_sharded(spec, num_ballots=NUM_BALLOTS)
        assert report.verified
        assert report.name == ELECTION_ID
        assert service.sharded_reports[ELECTION_ID] is report
        assert sum(report.tally.values()) == report.outcome.global_record.total_cast

    def test_duplicate_name_is_rejected(self):
        spec = ScenarioSpec.preset("national_scale", election_id=ELECTION_ID)
        service = MultiElectionService()
        service.run_sharded(spec, num_ballots=40)
        with pytest.raises(ValueError, match="already ran"):
            service.run_sharded(spec, num_ballots=40)
