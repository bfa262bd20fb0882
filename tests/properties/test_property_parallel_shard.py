"""Property: where the shard slices run is invisible in the outcome.

For any shard split, any worker count and every registered crypto backend,
the driver's global commit record must be **bit-identical** (as a canonical
codec frame, which transitively covers the tally, the combined commitment,
every per-shard digest and the binding digest) to the inline (``workers=1``)
run of the same spec -- which ``tests/shard/test_parallel_driver.py`` pins to
the parent commit's sequential driver.  One warm pool per backend is shared by
all pooled examples -- the driver guarantees correctness for arbitrary
completion orders, so reusing workers across examples only widens the
schedules tested.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api.spec import CryptoProfile, ScenarioSpec, ShardingProfile
from repro.crypto.registry import available_backends
from repro.net.codec import MessageCodec
from repro.shard import ShardedElectionDriver, shard_worker_pool

SEED = 29
ELECTION_ID = "prop-parallel"
NUM_BALLOTS = 72

relaxed = settings(
    max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def spec_for(backend: str, num_shards: int, workers: int, max_inflight=None) -> ScenarioSpec:
    return ScenarioSpec(
        options=("yes", "no"),
        election_id=ELECTION_ID,
        seed=SEED,
        crypto=CryptoProfile(backend=backend),
        sharding=ShardingProfile(
            num_shards=num_shards,
            workers=workers,
            max_inflight_shards=max_inflight,
            scale_batch_size=16,
        ),
    )


@pytest.fixture(scope="module")
def pools():
    """One warm two-worker pool per backend, shared by every example."""
    created = {}

    def pool_for(backend: str):
        if backend not in created:
            created[backend] = shard_worker_pool(spec_for(backend, 1, 2))
        return created[backend]

    yield pool_for
    for pool in created.values():
        pool.shutdown()


# The inline reference for (backend, num_shards) is deterministic, so
# memoize it across examples instead of re-running the whole pipeline.
_INLINE_FRAMES = {}


def inline_frame(backend: str, num_shards: int):
    key = (backend, num_shards)
    if key not in _INLINE_FRAMES:
        spec = spec_for(backend, num_shards, workers=1)
        driver = ShardedElectionDriver(spec, num_ballots=NUM_BALLOTS)
        outcome = driver.run()
        assert driver.peak_inflight == 1
        codec = MessageCodec(group=spec.crypto.build_group())
        _INLINE_FRAMES[key] = (
            codec.encode(outcome.global_record),
            outcome.tally.as_dict(),
        )
    return _INLINE_FRAMES[key]


@relaxed
@given(
    backend=st.sampled_from(available_backends()),
    num_shards=st.integers(min_value=1, max_value=6),
    workers=st.integers(min_value=1, max_value=3),
    max_inflight=st.one_of(st.none(), st.integers(min_value=1, max_value=4)),
)
def test_parallel_outcome_is_bit_identical_to_sequential(
    pools, backend, num_shards, workers, max_inflight
):
    spec = spec_for(backend, num_shards, workers, max_inflight)
    pool = pools(backend)
    was_started = pool.started
    driver = ShardedElectionDriver(spec, num_ballots=NUM_BALLOTS, pool=pool)
    outcome = driver.run()
    if workers == 1:
        # inline: nothing was handed to the pool, one shard alive at a time
        assert pool.started == was_started
        assert driver.peak_inflight == 1
    else:
        assert 1 <= driver.peak_inflight <= (max_inflight or 2 * pool.workers)
    codec = MessageCodec(group=spec.crypto.build_group())
    frame, tally = inline_frame(backend, num_shards)
    assert outcome.report.ok
    assert codec.encode(outcome.global_record) == frame
    assert outcome.tally.as_dict() == tally


@relaxed
@given(
    backend=st.sampled_from(available_backends()),
    num_shards=st.integers(min_value=2, max_value=6),
)
def test_wire_digest_binding_matches_sequential(pools, backend, num_shards):
    """The per-shard record digests bound into the global record -- the
    auditors' handle on the shards -- are also invariant."""
    pooled = ShardedElectionDriver(
        spec_for(backend, num_shards, workers=2), num_ballots=NUM_BALLOTS, pool=pools(backend)
    ).run()
    inline = ShardedElectionDriver(
        spec_for(backend, num_shards, workers=1), num_ballots=NUM_BALLOTS
    ).run()
    assert pooled.global_record.shard_digests == inline.global_record.shard_digests
