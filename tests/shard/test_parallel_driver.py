"""The one shard driver at every worker count: invariance, memory bound, failure path.

``spec.sharding.workers`` only decides where the slices run (inline at 1, a
warm pool above), so every test that is not about the pool itself takes the
worker count as a parameter.
"""

import dataclasses
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.api import CryptoProfile, MultiElectionService, ScenarioSpec, ShardingProfile
from repro.crypto.commitments import OptionEncodingScheme
from repro.crypto.registry import get_group
from repro.crypto.utils import int_to_bytes
from repro.net.codec import MessageCodec, WireFormatError, default_codec
from repro.perf.parallel import PoolWorkerDied
from repro.shard import (
    ShardExecutionError,
    ShardRange,
    ShardRunner,
    ShardSliceResult,
    ShardedElectionDriver,
    VoteCodeRejected,
    shard_worker_pool,
)
from repro.shard import driver as driver_module
from repro.shard.driver import decode_slice, derive_scheme, worker_initargs

SRC = Path(__file__).resolve().parents[2] / "src"
NUM_BALLOTS = 240
SEED = 13
ELECTION_ID = "parallel-driver-test"
WORKERS = [1, 2, 4]

#: (backend, num_shards) -> sha256 of the encoded GlobalCommitRecord, sha256 of
#: its concatenated shard digests: the *sequential* driver of b416e94 on
#: ``national_scale``, election "shard-golden", seed 13, 240 ballots.
PARENT_GOLDENS = {
    ("schnorr", 1): ("731fe32c7cb2c90ba9cfba9d86c0f66c9c2a0a9bd10f9ae3e1ebc9b3ecfcaa00",
                     "50db97554ba101c5bcf72fc0a5bb6a7fb49078d3b7cb316171233f80211cdca8"),
    ("schnorr", 4): ("8c4bac1912501202009aec8e927cac2bb1e7242b01ace93f07aeef0521d715eb",
                     "1662d7b9e494a4b3a9379f6db871c8e0e2f7dfc9f3809eb8c78f2ab03b1bb4fb"),
    ("schnorr", 16): ("1a76baaa9a12126a70e3aba0453ac668e2551980ed4732dff8c4baaeef57c772",
                      "5da0b124b7fd9c8956702bae7d970e7233a663d42677df8a544deaf847b2dd1b"),
    ("ed25519", 1): ("f48e80bba2133e20454574b3a27b01e75fe27b17c78fa722ff34073cdfe50fe2",
                     "821eef0da74482abe96dc457aa46d7f7bc7909f3ab62429d3ebee521156c6b11"),
    ("ed25519", 4): ("1999730faf58ce04235472074936de37ba9cc48512b7e1d0a1b6cfcb16331095",
                     "669e2479dce71c2fcffb87852660c5963475de414fc09eb9614c9a6e0adf7f40"),
    ("ed25519", 16): ("4be51db5c6cbf91e7e12c5b5e29adcac9416c27442b6156a02353b1aa85306a5",
                      "0351266875737a1041573206d425515eab91fdbb75f75ceb8145cf4c57169b30"),
    ("secp256k1", 1): ("a2a1f2c24701ade5e9ef6f8443935f59d67d613dbbe68ba1d996458030866873",
                       "fbd764daaae4d2b890fe60b5fa091ce10c0b1f1a7b0fe9f3cd461c6801927739"),
    ("secp256k1", 4): ("328bd64f5adf87b2e7970ee4bf24f78a7c560652b05d8bb6bdb19a6b467596e9",
                       "ca016fea9fd4125344e7607558b2b5b2eacd2e850d3b3dc944e771c47db73ae3"),
    ("secp256k1", 16): ("846a4ed135e6723d911d01345dc3caa60d43d03628eaf6d929543f2229e3f0c5",
                        "eabc087ad032a0542a9977472f60e225d1f55359ec1b38c4b5018f8a52368d9d"),
}
GOLDEN_TALLY = {"yes": 131, "no": 109}


def spec_at(workers, **sharding):
    sharding.setdefault("num_shards", 4)
    return ScenarioSpec.preset(
        "national_scale", election_id=ELECTION_ID, seed=SEED
    ).derive(sharding=ShardingProfile(workers=workers, **sharding))


@pytest.fixture(scope="module")
def spec():
    """The pooled spec (2 workers) the shared pool is warmed for."""
    return spec_at(2)


@pytest.fixture(scope="module")
def pool(spec):
    """One warm pool shared by every test in this module (same election)."""
    with shard_worker_pool(spec) as shared:
        yield shared


@pytest.fixture()
def owned_pools(monkeypatch):
    """Every pool a driver builds for itself during the test, in order."""
    owned = []

    def recording(spec):
        owned.append(shard_worker_pool(spec))
        return owned[-1]

    monkeypatch.setattr(driver_module, "shard_worker_pool", recording)
    return owned


@pytest.fixture(scope="module")
def inline():
    return ShardedElectionDriver(spec_at(1), num_ballots=NUM_BALLOTS).run()


def encode(spec, record):
    return MessageCodec(group=spec.crypto.build_group()).encode(record)


_REAL_SLICE = driver_module._run_slice_in_worker


def slice_that_kills_the_worker_of_shard_two(task):
    """Stands in for the pool-side slice function (pickled by name)."""
    if task["shard"].shard_id == 2:
        os._exit(1)
    return _REAL_SLICE(task)


class TestWorkerCountInvariance:
    @pytest.mark.parametrize("workers", WORKERS)
    def test_bit_identical_to_sequential(self, inline, workers):
        """The non-negotiable invariant: the global commit record's canonical
        wire frame (tally, commitments, digests and all) must not depend on
        the worker count or completion order."""
        spec = spec_at(workers)
        outcome = ShardedElectionDriver(spec, num_ballots=NUM_BALLOTS).run()
        assert outcome.report.ok
        assert outcome.tally.as_dict() == inline.tally.as_dict()
        assert encode(spec, outcome.global_record) == encode(spec, inline.global_record)

    @pytest.mark.parametrize("workers", WORKERS)
    @pytest.mark.parametrize("backend, num_shards", sorted(PARENT_GOLDENS))
    def test_outcome_is_the_parents_sequential_drivers(self, backend, num_shards, workers):
        spec = ScenarioSpec.preset(
            "national_scale", election_id="shard-golden", seed=SEED
        ).derive(
            crypto=CryptoProfile(backend=backend),
            sharding=ShardingProfile(num_shards=num_shards, workers=workers),
        )
        outcome = ShardedElectionDriver(spec, num_ballots=NUM_BALLOTS).run()
        record = outcome.global_record
        digests = (
            hashlib.sha256(encode(spec, record)).hexdigest(),
            hashlib.sha256(b"".join(record.shard_digests)).hexdigest(),
        )
        assert digests == PARENT_GOLDENS[backend, num_shards]
        assert outcome.tally.as_dict() == GOLDEN_TALLY

    def test_one_worker_runs_inline_and_starts_no_pool(self):
        """``workers == 1`` spawns nothing -- not even a pool handed in -- and
        holds one shard at a time."""
        spec = spec_at(1)
        unused = shard_worker_pool(spec)
        driver = ShardedElectionDriver(spec, num_ballots=NUM_BALLOTS, pool=unused)
        assert driver.run().report.ok
        assert not unused.started
        assert driver.peak_inflight == 1

    def test_an_inline_run_imports_no_process_pool(self):
        """What ``tests/api/test_import_set.py`` says of the engine holds for
        the scale pipeline at one worker."""
        run = (
            "import sys\n"
            "from repro.api import MultiElectionService, ScenarioSpec, ShardingProfile\n"
            "spec = ScenarioSpec.preset('national_scale').derive(\n"
            "    sharding=ShardingProfile(num_shards=4))\n"
            "assert MultiElectionService().run_sharded(spec, num_ballots=80).verified\n"
            "heavy = ('asyncio', 'concurrent.futures.process', 'multiprocessing')\n"
            "print(*[name for name in heavy if name in sys.modules])"
        )
        done = subprocess.run(
            [sys.executable, "-c", run],
            env={**os.environ, "PYTHONPATH": str(SRC)},
            capture_output=True, text=True, check=True,
        )
        assert done.stdout.split() == []

    @pytest.mark.parametrize("workers", WORKERS)
    def test_shard_stats_cover_every_shard(self, workers):
        outcome = ShardedElectionDriver(spec_at(workers), num_ballots=NUM_BALLOTS).run()
        assert sorted(s["shard_id"] for s in outcome.shard_stats) == [0, 1, 2, 3]
        registered = sum(s["ballots_registered"] for s in outcome.shard_stats)
        assert registered == NUM_BALLOTS

    @pytest.mark.parametrize("workers", WORKERS)
    def test_on_shard_sees_every_result(self, workers):
        seen = []
        ShardedElectionDriver(
            spec_at(workers), num_ballots=NUM_BALLOTS, on_shard=seen.append
        ).run()
        assert sorted(r.shard_id for r in seen) == [0, 1, 2, 3]
        assert all(isinstance(r, ShardSliceResult) for r in seen)


class TestPoolLifecycle:
    def test_shared_pool_survives_runs_and_is_validated(self, spec, pool):
        first = ShardedElectionDriver(spec, num_ballots=80, pool=pool).run()
        second = ShardedElectionDriver(spec, num_ballots=80, pool=pool).run()
        assert pool.started  # the driver must not shut down a borrowed pool
        assert first.tally.as_dict() == second.tally.as_dict()

    def test_pool_warmed_for_another_election_is_rejected(self, spec, pool):
        other = spec.derive(election_id="some-other-election")
        assert worker_initargs(other) != worker_initargs(spec)
        with pytest.raises(ValueError, match="warmed for"):
            ShardedElectionDriver(other, num_ballots=80, pool=pool)

    def test_owned_pool_is_shut_down_after_the_run(self, spec, owned_pools):
        ShardedElectionDriver(spec, num_ballots=80).run()
        assert len(owned_pools) == 1 and not owned_pools[0].started

    def test_workers_below_one_are_rejected(self):
        with pytest.raises(ValueError, match="workers"):
            spec_at(0)


class TestInflightBound:
    def test_peak_inflight_respects_the_cap(self, pool):
        driver = ShardedElectionDriver(
            spec_at(2, max_inflight_shards=1), num_ballots=NUM_BALLOTS, pool=pool
        )
        driver.run()
        assert driver.peak_inflight == 1

    def test_default_cap_allows_pipelining(self, spec, pool):
        driver = ShardedElectionDriver(spec, num_ballots=NUM_BALLOTS, pool=pool)
        driver.run()
        assert 1 <= driver.peak_inflight <= 2 * pool.workers

    def test_spec_cap_is_used_by_an_owned_pool(self):
        driver = ShardedElectionDriver(
            spec_at(2, max_inflight_shards=1), num_ballots=NUM_BALLOTS
        )
        driver.run()
        assert driver.peak_inflight == 1


class TestWorkerFailure:
    @pytest.mark.parametrize("workers", WORKERS)
    def test_rejected_code_names_its_shard_at_every_worker_count(self, workers):
        """Red at b416e94, where the sequential driver could not be handed a
        tampered code at all and only the pooled one named the shard."""
        driver = ShardedElectionDriver(
            spec_at(workers),
            num_ballots=NUM_BALLOTS,
            tampered_codes={130: b"forged-code-0000"},  # serial in shard 2
        )
        with pytest.raises(ShardExecutionError) as excinfo:
            driver.run()
        assert excinfo.value.shard_id == 2
        assert isinstance(excinfo.value.__cause__, VoteCodeRejected)
        assert excinfo.value.__cause__.serial == 130

    def test_failed_shard_is_named_and_pool_survives(self, spec, pool, inline):
        """A slice raising mid-shard surfaces the shard id; the shared pool
        stays usable for the next run (the failure cancelled stragglers but
        did not poison the workers)."""
        driver = ShardedElectionDriver(
            spec,
            num_ballots=NUM_BALLOTS,
            pool=pool,
            tampered_codes={130: b"forged-code-0000"},
        )
        with pytest.raises(ShardExecutionError) as excinfo:
            driver.run()
        assert excinfo.value.shard_id == 2
        assert pool.started
        # the pool is still good: a clean run right after succeeds
        outcome = ShardedElectionDriver(spec, num_ballots=NUM_BALLOTS, pool=pool).run()
        assert encode(spec, outcome.global_record) == encode(spec, inline.global_record)

    def test_owned_pool_is_shut_down_on_failure(self, spec, owned_pools):
        driver = ShardedElectionDriver(
            spec, num_ballots=NUM_BALLOTS, tampered_codes={10: b"forged-code-0000"}
        )
        with pytest.raises(ShardExecutionError):
            driver.run()
        assert len(owned_pools) == 1 and not owned_pools[0].started

    def test_killed_worker_is_not_pinned_on_a_shard_and_the_pool_respawns(
        self, spec, pool, inline, monkeypatch
    ):
        """Red at b416e94: ``ShardExecutionError`` named whichever shard's
        future came back first, and the shared pool stayed broken."""
        monkeypatch.setattr(
            driver_module, "_run_slice_in_worker", slice_that_kills_the_worker_of_shard_two
        )
        with pytest.raises(PoolWorkerDied) as excinfo:
            ShardedElectionDriver(spec, num_ballots=NUM_BALLOTS, pool=pool).run()
        assert 2 in [task["shard"].shard_id for task in excinfo.value.tasks]
        assert not pool.started
        monkeypatch.undo()
        # the same pool object re-spawns and re-warms for the next election run
        outcome = ShardedElectionDriver(spec, num_ballots=NUM_BALLOTS, pool=pool).run()
        assert pool.started
        assert encode(spec, outcome.global_record) == encode(spec, inline.global_record)


#: backends the slice frame round-trips on; ``schnorr-gmpy2`` is mpz-backed
#: where gmpy2 is installed, which is where the slice's ``int`` step matters
FRAME_BACKENDS = ("schnorr", "schnorr-gmpy2", "secp256k1", "ed25519")

#: ``ShardSliceResult`` of shard [0, 60) on ``schnorr``, seed 13, election
#: "parallel-driver-test", with ``duration_ns`` set to 123456789: tag 0x62
#: embedding the 0x60 record and the 0x46 opening
PINNED_SLICE_HEX = (
    "4457010062000001890060000000f50000000000000000000000000000013c00000000013c00000000013c00"
    "45000000a40000000200440000004a0000002153470f3e22852b6bb45d3647c5118bbed7d35973492c5f96c1"
    "ba21b6cf9105436b000000215361ef87b88a091fe002905b66d0d6a804d22c603476f9d9c55457338c1ef8df"
    "8a00440000004a0000002153089958beb5a8e515fbaa9af66f3c85013f0f606c5e0cc437e07cad18ebcec3ee"
    "0000002153866716c34d8f05569c54faf5289a516543c42fa7417acfd23f733bb286bfb1a4000000209fa742"
    "1f2c59d82d06efd4cc4449cdc33f43de75847a76b8861ec8305e3ba43e0000000773686172642d3000460000"
    "005d0000000200000000012000000000011c00000002000000001ff5f53f32d740c6ec44534cc0ef27c1bce6"
    "d4f6d2c1abfc92882cbf36e0e516000000002034f11993b8779098aaf0d787088dc63fc18a242ae97a09ccec"
    "ec345320c85eec0000000200000000012000000000011c000000000201500000000001040000000000000000"
    "0004075bcd15e6bcf76a"
)


def slice_result(backend):
    group = get_group(backend)
    return ShardRunner(
        ShardRange(0, 0, 60),
        scheme=derive_scheme(group, 2, SEED),
        seed=SEED,
        election_id=ELECTION_ID,
    ).run()


class TestSliceFrame:
    """A pooled slice's result crosses the process boundary as one frame."""

    @pytest.mark.parametrize("backend", FRAME_BACKENDS)
    def test_round_trip_is_lossless(self, backend):
        result = slice_result(backend)
        # The worker encodes with a group-less codec; the parent decodes into
        # its own group.
        frame = default_codec().encode(result)
        # Record, opening, counts and every counter: the dataclass's fields.
        assert decode_slice(MessageCodec(group=get_group(backend)), frame) == result

    @pytest.mark.parametrize("backend", FRAME_BACKENDS)
    def test_the_opening_holds_builtin_ints(self, backend):
        opening = slice_result(backend).opening
        assert all(type(v) is int for v in opening.values + opening.randomness)

    def test_frame_is_byte_identical_to_the_pinned_one(self):
        result = dataclasses.replace(slice_result("schnorr"), duration_ns=123456789)
        assert default_codec().encode(result).hex() == PINNED_SLICE_HEX
        codec = MessageCodec(group=get_group("schnorr"))
        assert decode_slice(codec, bytes.fromhex(PINNED_SLICE_HEX)) == result

    def test_a_frame_of_another_type_is_rejected(self):
        record = slice_result("schnorr").record
        codec = MessageCodec(group=get_group("schnorr"))
        for payload in (record, record.commitment):
            with pytest.raises(WireFormatError, match="expected a ShardSliceResult"):
                decode_slice(codec, codec.encode(payload))


class TestAdmissionCheck:
    """The admission check must be live: a tampered code is rejected."""

    @pytest.fixture(scope="class")
    def scheme(self, group):
        return OptionEncodingScheme(
            2, group.power_g(group.hash_to_scalar(b"shard-pk", int_to_bytes(SEED))), group
        )

    def cast_serial(self, runner):
        for serial in range(runner.shard.lo, runner.shard.hi):
            if runner.is_cast(runner._ballot_digest(serial)):
                return serial
        raise AssertionError("no cast serial in range")

    def test_honest_codes_pass(self, scheme):
        result = ShardRunner(
            ShardRange(0, 0, 60), scheme=scheme, seed=SEED, election_id=ELECTION_ID
        ).run()
        assert result.record.ballots_cast > 0

    def test_tampered_code_is_rejected(self, scheme):
        probe = ShardRunner(
            ShardRange(0, 0, 60), scheme=scheme, seed=SEED, election_id=ELECTION_ID
        )
        victim = self.cast_serial(probe)
        runner = ShardRunner(
            ShardRange(0, 0, 60),
            scheme=scheme,
            seed=SEED,
            election_id=ELECTION_ID,
            tampered_codes={victim: b"not-the-real-code"},
        )
        with pytest.raises(VoteCodeRejected) as excinfo:
            runner.run()
        assert excinfo.value.serial == victim
        assert excinfo.value.shard_id == 0

    def test_tampering_an_abstaining_serial_is_harmless(self, scheme):
        probe = ShardRunner(
            ShardRange(0, 0, 60),
            scheme=scheme,
            seed=SEED,
            election_id=ELECTION_ID,
            turnout=0.5,
        )
        abstainer = next(
            serial
            for serial in range(60)
            if not probe.is_cast(probe._ballot_digest(serial))
        )
        runner = ShardRunner(
            ShardRange(0, 0, 60),
            scheme=scheme,
            seed=SEED,
            election_id=ELECTION_ID,
            turnout=0.5,
            tampered_codes={abstainer: b"never-submitted"},
        )
        assert runner.run().record.ballots_cast > 0

    def test_commitment_table_is_independent_of_submissions(self, scheme):
        """The EA table depends only on election data, never on what voters
        submit -- tampering must not move the reference the check uses."""
        honest = ShardRunner(
            ShardRange(0, 0, 60), scheme=scheme, seed=SEED, election_id=ELECTION_ID
        )
        tampered = ShardRunner(
            ShardRange(0, 0, 60),
            scheme=scheme,
            seed=SEED,
            election_id=ELECTION_ID,
            tampered_codes={5: b"forged"},
        )
        assert honest.ea_commitment_table() == tampered.ea_commitment_table()


class TestServiceRouting:
    def test_run_sharded_at_two_workers_equals_one_worker_frame_for_frame(self):
        frames = {}
        for workers in (1, 2):
            spec = ScenarioSpec.preset(
                "national_scale", election_id="svc-parallel", seed=SEED
            ).derive(
                sharding=ShardingProfile(
                    num_shards=4, workers=workers, max_inflight_shards=2
                )
            )
            seen = []
            report = MultiElectionService().run_sharded(
                spec, num_ballots=NUM_BALLOTS, on_shard=seen.append
            )
            assert report.verified
            frames[workers] = (
                encode(spec, report.outcome.global_record),
                {result.shard_id: encode(spec, result.record) for result in seen},
                report.tally,
            )
        assert frames[2] == frames[1]
        assert sorted(frames[1][1]) == [0, 1, 2, 3]
