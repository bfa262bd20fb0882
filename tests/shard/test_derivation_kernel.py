"""The one-pass ballot derivation ``ShardRunner.run`` uses equals the reference.

``_ballot_digest`` / ``_vote_code`` / ``_code_commitment`` / ``_randomness`` /
``ea_commitment_table`` define every derived ballot one serial and one
``crypto.utils.sha256(*parts)`` call at a time.  ``run`` derives the same
values from pre-fed domain states; the EA table, admission and the tally all
read that one derivation, so these tests -- not the election's own
verification -- are what pins it to the reference.
"""

import gc
import hashlib
import tracemalloc

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import CryptoProfile, ScenarioSpec, ShardingProfile
from repro.consensus.cluster import ClusterResult, ConsensusCluster
from repro.crypto.commitments import OptionEncodingScheme
from repro.crypto.registry import available_backends, get_group
from repro.crypto.utils import int_to_bytes, sha256
from repro.net.codec import MessageCodec, default_codec
from repro.shard.driver import ShardedElectionDriver, derive_scheme
from repro.shard.partition import ShardRange
from repro.shard.shard_runner import (
    TALLY_CHUNK,
    ShardRunner,
    VoteCodeRejected,
    _domain_state,
)

relaxed = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)

#: ``int_to_bytes(serial)`` grows a byte at each of these; the kernel frames
#: serials per run of equal width.
WIDTH_BOUNDARIES = (256, 65_536, 1 << 24)


@st.composite
def shard_ranges(draw):
    span = draw(st.integers(min_value=1, max_value=40))
    if draw(st.booleans()):
        boundary = draw(st.sampled_from(WIDTH_BOUNDARIES))
        lo = boundary - draw(st.integers(min_value=0, max_value=span))
    else:
        lo = draw(st.integers(min_value=0, max_value=1 << 40))
    return ShardRange(draw(st.integers(min_value=0, max_value=99)), lo, lo + span)


def reference_salt(runner, serial):
    return sha256(b"shard-salt", runner._seed_bytes, int_to_bytes(serial))


@relaxed
@given(
    seed=st.integers(min_value=0, max_value=1 << 70),
    election_id=st.text(st.characters(blacklist_categories=("Cs",)), max_size=24),
    shard=shard_ranges(),
    num_options=st.integers(min_value=1, max_value=5),
)
def test_kernel_equals_the_per_serial_reference(group, seed, election_id, shard, num_options):
    scheme = OptionEncodingScheme(num_options, group.power_g(7), group)
    runner = ShardRunner(
        shard, scheme=scheme, seed=seed, election_id=election_id, consensus_batch_size=16,
    )
    order = group.order
    cast_serials = list(range(shard.lo, shard.hi))
    codes = [runner._vote_code(runner._ballot_digest(serial)) for serial in cast_serials]

    cast, salts, committed = runner._derive_cast()
    assert cast.serials == cast_serials
    assert cast.framed == [
        len(int_to_bytes(serial)).to_bytes(8, "big") + int_to_bytes(serial)
        for serial in cast_serials
    ]
    assert cast.choices == [runner.choice_of(serial) for serial in cast_serials]
    assert cast.codes == codes
    assert salts == [reference_salt(runner, serial) for serial in cast_serials]
    assert committed == runner.ea_commitment_table()
    assert [
        tuple(r % order for r in vector)
        for vector in zip(*runner._randomness_columns(cast.framed))
    ] == [runner._randomness(serial) for serial in cast_serials]

    # The slice built on the kernel publishes what the reference defines.
    result = runner.run()
    counts = [0] * num_options
    sums = [0] * num_options
    vote_set = hashlib.sha256(b"shard-vote-set")
    for serial, code in zip(cast_serials, codes, strict=True):
        counts[runner.choice_of(serial)] += 1
        sums = [
            (total + r) % order
            for total, r in zip(sums, runner._randomness(serial), strict=True)
        ]
        vote_set.update(int_to_bytes(serial))
        vote_set.update(code)
    assert result.record.ballots_cast == len(cast_serials)
    assert result.opening.values == tuple(counts)
    assert result.opening.randomness == tuple(sums)
    assert result.record.vote_set_digest == vote_set.digest()
    assert scheme.verify_opening(result.record.commitment, result.opening)


# -- the tally's column kernel, chunk by chunk ------------------------------------


@pytest.mark.parametrize(
    "shard",
    [
        ShardRange(0, 0, TALLY_CHUNK - 1),  # one short chunk, across the 256 width step
        ShardRange(1, 0, TALLY_CHUNK),  # exactly one chunk
        ShardRange(2, 0, TALLY_CHUNK + 1),  # a second chunk of one serial
        ShardRange(3, 65_536 - 600, 65_536 + TALLY_CHUNK + 1 - 600),  # across 65,536
        ShardRange(4, 7, 8),  # one ballot
    ],
    ids=lambda shard: f"[{shard.lo},{shard.hi})",
)
def test_the_tally_kernel_computes_every_serials_reference_randomness(group, shard):
    scheme = OptionEncodingScheme(3, group.power_g(7), group)
    runner = ShardRunner(shard, scheme=scheme, seed=41, election_id="columns")
    order = group.order
    cast, _, _ = runner._derive_cast()
    computed = []  # per serial, the kernel's values, in the order the kernel took them

    def recording(framed_serials):
        columns = ShardRunner._randomness_columns(runner, framed_serials)
        computed.extend(zip(*columns))
        return columns

    runner._randomness_columns = recording
    tally, vote_set_digest, first = runner._tally(cast)

    reference = [runner._randomness(serial) for serial in cast.serials]
    assert [tuple(r % order for r in values) for values in computed] == reference
    assert first == computed[0]
    counts = [0] * 3
    for serial in cast.serials:
        counts[runner.choice_of(serial)] += 1
    assert tally.opening().values == tuple(counts)
    assert tally.opening().randomness == tuple(
        sum(column) % order for column in zip(*reference)
    )
    vote_set = hashlib.sha256(b"shard-vote-set")
    for serial, code in zip(cast.serials, cast.codes, strict=True):
        vote_set.update(int_to_bytes(serial))
        vote_set.update(code)
    assert vote_set_digest == vote_set.digest()


def tally_heap_peak(group, span):
    """Traced heap peak of ``_tally`` above its own start, on a ``span``-ballot shard."""
    runner = ShardRunner(
        ShardRange(0, 0, span), scheme=derive_scheme(group, 2, 5), seed=5, election_id="heap"
    )
    cast, _, _ = runner._derive_cast()
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        runner._tally(cast)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak - start


def test_the_tally_adds_heap_per_chunk_not_per_shard(group):
    """The kernel's lists live one chunk at a time: the tally's heap peak is
    the same at two shard sizes 4x apart (a kernel over the whole shard at
    once peaks ~4x higher at the larger size)."""
    small = tally_heap_peak(group, 2 * TALLY_CHUNK)
    large = tally_heap_peak(group, 8 * TALLY_CHUNK)
    assert abs(large - small) <= 0.1 * small, (small, large)


# -- frames captured at the commit before the one-pass kernel --------------------

PIN_SEED = 29
PIN_ELECTION_ID = "pinned-élection-投票"
PIN_SHARD = ShardRange(5, 65_500, 65_580)  # crosses the 2 -> 3 byte serial width

#: backend -> (sha256 of the ShardCommitRecord frame, of the GlobalCommitRecord frame).
#: The ``schnorr`` entries (and both frames below) were re-captured when schnorr
#: elements became signed quadratic residues, encoded as ``min(x, p - x)``:
#: with the old frames' elements re-encoded so, only the shard digests (hashes
#: of encoded records) and the checksums differ.  The shard frame (and its
#: digests) were re-captured again at full turnout when the runner lost its
#: turnout parameter: it had been pinned at a turnout of 0.75, and the new pin
#: is what the runner before that change produced at 1.0.  All were translated
#: from 36163cc when the shard record lost its sender: the record frame is 11
#: bytes shorter, and the global frame binds the translated records' digests.
PINNED_FRAME_DIGESTS = {
    "schnorr": (
        "5b95bb2583caf3be9d732642caa1a3a70b9ab33073b4fe7dedceade62d35d196",
        "eb274e50c96f946b6cf28609dddea6e3eda0dbfb0e50dba12ffadb565f5acbe3",
    ),
    "schnorr-gmpy2": (
        "5b95bb2583caf3be9d732642caa1a3a70b9ab33073b4fe7dedceade62d35d196",
        "eb274e50c96f946b6cf28609dddea6e3eda0dbfb0e50dba12ffadb565f5acbe3",
    ),
    "secp256k1": (
        "dbe964ce2ef7fedbefce41adfe860651497c93717dff7e4c0fcf258080f88dd6",
        "9ccc172099bec285d87961d424ee2eb687dee40b221cfd12b572f720e186ca75",
    ),
}

#: The two ``schnorr`` frames in full, so a mismatch shows which field moved.
PINNED_SHARD_FRAME = bytes.fromhex(
    "44570100600000013f0000000001050000000002ffdc000000000301002c000000000150000000"
    "0001500045000000f40000000300440000004a00000021534528dfa744f095e672d97282be272f"
    "5924f32d91c6e2197defdaafae7787e49400000021531ab6002aaf05b74fc07315613fbad82312"
    "2fb9d487895bccc3878191013d4e9e00440000004a000000215313dbd3c46d8e031257eb93cf60"
    "7267240c420b387418886b9be488f7fd0c73c0000000215300b59cd20c32f24159c2587d5c2243"
    "ad4a6bdb9cac66a7a0728f8e4f26ed4cc700440000004a000000215318eb1be7a52b047c35ffa0"
    "5811c1a459ac60c5ec8c024854cb247194b9afd192000000215334adb7edbd7dd9e9172fd08098"
    "50efbfa54dd8762b242c25b0a7ca7f083e8381000000206bcc0976f4c6ef0be94ce5fbabc400a4"
    "1cb76cb9dd5939aaf1cf311278ef72a9d529625a"
)
PINNED_GLOBAL_FRAME = bytes.fromhex(
    "4457010061000001420000001770696e6e65642dc3a96c656374696f6e2de68a95e7a5a8000000"
    "0001030000000002012c0045000000a40000000200440000004a000000215340fd722baa552d1f"
    "e9463ed2fb8d1f3fd232511d1c8edc93b6bf797980153eaa00000021532527bece559c65a1e06c"
    "1d38907fa21c08abf5da4b34adfae53d89c61ff42f4700440000004a00000021530414e6c6a522"
    "e9735d9817844a9f01af0809f1a15226fa044af220237f8a573d000000215334d0b8c28bd5392a"
    "29c83aa9d1fe0e4854035939006e281989b853f217615bd100000003000000204400014e679c6c"
    "e8647c59c426bac738caf66bdb37cc316fb93c50f54162ddd1000000208843a03db7e46c79a427"
    "2b4aeff53b80deb4df53ac091475ff22d33c6293f9a30000002029db6dfebcd1a1d5c9aad6eea6"
    "fb0a00f40111dca48dc29edf7b974d46afe596dc47dcbd"
)


def pinned_frames(backend):
    group = get_group(backend)
    codec = MessageCodec(group=group)
    shard = ShardRunner(
        PIN_SHARD,
        scheme=derive_scheme(group, 3, PIN_SEED),
        seed=PIN_SEED,
        election_id=PIN_ELECTION_ID,
        consensus_batch_size=32,
    ).run()
    spec = ScenarioSpec.preset(
        "national_scale",
        election_id=PIN_ELECTION_ID,
        seed=PIN_SEED,
        crypto=CryptoProfile(backend=backend),
    ).derive(sharding=ShardingProfile(num_shards=3))
    election = ShardedElectionDriver(spec, num_ballots=300, codec=codec).run()
    assert shard.record.ballots_cast == 80 and shard.opening.values == (20, 26, 34)
    assert election.tally.as_dict() == {"yes": 156, "no": 144}
    return codec.encode(shard.record), codec.encode(election.global_record)


@pytest.mark.parametrize("backend", available_backends())
def test_frames_are_byte_identical_to_the_pinned_ones(backend):
    shard_frame, global_frame = pinned_frames(backend)
    if backend == "schnorr":
        assert shard_frame == PINNED_SHARD_FRAME
        assert global_frame == PINNED_GLOBAL_FRAME
    assert (
        hashlib.sha256(shard_frame).hexdigest(),
        hashlib.sha256(global_frame).hexdigest(),
    ) == PINNED_FRAME_DIGESTS[backend]


# -- admission still hashes the *submitted* code ---------------------------------


class TestAdmissionReadsTheSubmittedCode:
    SEED, ELECTION_ID = 13, "runner-test"
    SHARD = ShardRange(0, 200, 260)

    @pytest.fixture(scope="class")
    def scheme(self, group):
        return derive_scheme(group, 2, self.SEED)

    def runner(self, scheme, **kwargs):
        return ShardRunner(
            self.SHARD, scheme=scheme, seed=self.SEED, election_id=self.ELECTION_ID, **kwargs
        )

    def cast_serials(self, runner):
        return list(range(runner.shard.lo, runner.shard.hi))

    @pytest.mark.parametrize(
        "forged",
        [b"", b"x", b"fifteen-bytes-x", b"sixteen-bytes-xx", b"\x00" * 16, b"longer-than-a-vote-code"],
    )
    def test_wrong_code_of_any_length_is_rejected(self, scheme, forged):
        victim = self.cast_serials(self.runner(scheme))[3]
        with pytest.raises(VoteCodeRejected) as excinfo:
            self.runner(scheme, tampered_codes={victim: forged}).run()
        assert excinfo.value.serial == victim

    def test_wrong_code_on_the_last_serial_is_rejected(self, scheme):
        probe = self.runner(scheme)
        last = probe.shard.hi - 1
        assert self.cast_serials(probe)[-1] == last
        with pytest.raises(VoteCodeRejected) as excinfo:
            self.runner(scheme, tampered_codes={last: b"z" * 16}).run()
        assert excinfo.value.serial == last

    def test_submitting_the_true_code_explicitly_passes(self, scheme):
        probe = self.runner(scheme)
        victim = self.cast_serials(probe)[0]
        true_code = probe._vote_code(probe._ballot_digest(victim))
        honest = probe.run()
        explicit = self.runner(scheme, tampered_codes={victim: true_code}).run()
        assert default_codec().encode(explicit.record) == default_codec().encode(honest.record)


# -- the per-shard kernel == reference check in ``run`` --------------------------


class TestRunChecksItsKernel:
    def skewed_runner(self, group):
        runner = ShardRunner(
            ShardRange(0, 0, 40), scheme=derive_scheme(group, 2, 7), seed=7, election_id="skew"
        )
        # A framing slip in one domain: the salt state misses the seed part.
        runner._salt_state = _domain_state(b"shard-salt")
        return runner

    def test_a_kernel_that_differs_from_the_reference_is_refused(self, group):
        with pytest.raises(RuntimeError, match="differs from the per-serial reference"):
            self.skewed_runner(group).run()

    def test_without_the_check_the_slip_is_self_consistent(self, group, monkeypatch):
        """Why ``run`` checks: table and admission read the same wrong salts,
        so the slice would verify and publish."""
        monkeypatch.setattr(ShardRunner, "_check_against_reference", lambda *args: None)
        result = self.skewed_runner(group).run()
        assert result.record.ballots_cast == 40


def test_a_decided_set_other_than_the_admitted_one_is_refused(group, monkeypatch):
    """The tally reads the admitted ballots, so consensus must have decided exactly them."""
    honest_run = ConsensusCluster.run

    def run_dropping_a_ballot(self, opinions, *args, **kwargs):
        result = honest_run(self, opinions, *args, **kwargs)
        dropped = max(serial for serial, bit in opinions.items() if bit)
        return ClusterResult(
            decisions=[{**decided, dropped: 0} for decided in result.decisions],
            messages_sent=result.messages_sent,
        )

    monkeypatch.setattr(ConsensusCluster, "run", run_dropping_a_ballot)
    runner = ShardRunner(
        ShardRange(0, 0, 40), scheme=derive_scheme(group, 2, 7), seed=7, election_id="drop"
    )
    with pytest.raises(RuntimeError, match="not the admitted one"):
        runner.run()
