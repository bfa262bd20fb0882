"""The one-pass ballot derivation ``ShardRunner.run`` uses equals the reference.

``_ballot_digest`` / ``_vote_code`` / ``_code_commitment`` / ``_randomness`` /
``ea_commitment_table`` define every derived ballot one serial and one
``crypto.utils.sha256(*parts)`` call at a time.  ``run`` derives the same
values from pre-fed domain states; the EA table, admission and the tally all
read that one derivation, so these tests -- not the election's own
verification -- are what pins it to the reference.
"""

import hashlib

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
from repro.shard.shard_runner import ShardRunner, VoteCodeRejected, _domain_state

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
    turnout=st.floats(min_value=0.01, max_value=1.0),
)
def test_kernel_equals_the_per_serial_reference(
    group, seed, election_id, shard, num_options, turnout
):
    scheme = OptionEncodingScheme(num_options, group.power_g(7), group)
    runner = ShardRunner(
        shard, scheme=scheme, seed=seed, election_id=election_id,
        consensus_batch_size=16, turnout=turnout,
    )
    order = group.order
    cast_serials = [
        serial
        for serial in range(shard.lo, shard.hi)
        if runner.is_cast(runner._ballot_digest(serial))
    ]
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
    assert committed == [entry for entry in runner.ea_commitment_table() if entry is not None]
    assert [
        tuple(r % order for r in vector)
        for vector in runner._derive_randomness(cast.framed)
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
    assert result.counts == tuple(counts)
    assert result.opening.values == tuple(counts)
    assert result.opening.randomness == tuple(sums)
    assert result.record.vote_set_digest == vote_set.digest()
    assert scheme.verify_opening(result.record.commitment, result.opening)


# -- frames captured at the commit before the one-pass kernel --------------------

PIN_SEED = 29
PIN_ELECTION_ID = "pinned-élection-投票"
PIN_SHARD = ShardRange(5, 65_500, 65_580)  # crosses the 2 -> 3 byte serial width

#: backend -> (sha256 of the ShardCommitRecord frame, of the GlobalCommitRecord frame).
#: The ``schnorr`` entries (and both frames below) were re-captured when schnorr
#: elements became signed quadratic residues, encoded as ``min(x, p - x)``:
#: with the old frames' elements re-encoded so, only the shard digests (hashes
#: of encoded records) and the checksums differ.
PINNED_FRAME_DIGESTS = {
    "schnorr": (
        "74b4f60eec1432758ae7a99c48256b7bdc23f1c82a737589eb6dda2d8fbae98a",
        "45a835b8941dcb4c43923cb228fba3a9f6649463ff7f71f1c2680d4803277282",
    ),
    "schnorr-gmpy2": (
        "74b4f60eec1432758ae7a99c48256b7bdc23f1c82a737589eb6dda2d8fbae98a",
        "45a835b8941dcb4c43923cb228fba3a9f6649463ff7f71f1c2680d4803277282",
    ),
    "secp256k1": (
        "04c83831204d8bbe5d434ff4f18e7717967ca50c3f0f42a7a10a9ccc2dd10382",
        "74d9f3f57c2be8c370c13aaf268e398a8e9d3f257a1c52b9f9044a639ee79e9a",
    ),
}

#: The two ``schnorr`` frames in full, so a mismatch shows which field moved.
PINNED_SHARD_FRAME = bytes.fromhex(
    "44570100600000014a0000000001050000000002ffdc000000000301002c000000000150000000"
    "00013f0045000000f40000000300440000004a000000215301f0c691f6ac9a6708470e16811f14"
    "f64c34dde4a763a8df4af3826d6ff9193700000021532f29e434d3d2706e58bb5f34b803b8bd55"
    "fe1e331b85ae7bcdc54fe5574ab48e00440000004a00000021533c6262f532e5fd189e0a5eec52"
    "700db5da15ecb6febb942f219e914574e6767c00000021531add58b039d9448ba05965780c2bbc"
    "79ceac1757f08b1daa06c7073bddcc804500440000004a000000215313793cf845dbfc2a02a384"
    "8d825830aeb02ec97437b75333e7fa77b94df07cf500000021530f82a449b385f69cda205612af"
    "45f5628fa5d55a8f8d2ab734dc4ab83f5fb8e800000020af071b634b3b718854ca16032bf940f7"
    "b9bf7907c971f9793d497581f3dfd7520000000773686172642d35c0d4a7a7"
)
PINNED_GLOBAL_FRAME = bytes.fromhex(
    "4457010061000001420000001770696e6e65642dc3a96c656374696f6e2de68a95e7a5a8000000"
    "0001030000000002012c0045000000a40000000200440000004a000000215340fd722baa552d1f"
    "e9463ed2fb8d1f3fd232511d1c8edc93b6bf797980153eaa00000021532527bece559c65a1e06c"
    "1d38907fa21c08abf5da4b34adfae53d89c61ff42f4700440000004a00000021530414e6c6a522"
    "e9735d9817844a9f01af0809f1a15226fa044af220237f8a573d000000215334d0b8c28bd5392a"
    "29c83aa9d1fe0e4854035939006e281989b853f217615bd10000000300000020af45ae5325603d"
    "eec2ec6ac04991a6c1a43751d6ba3e0511faf70531984c33d600000020b641baa2a5dd0d6d33e6"
    "9f12fe0d39cce7a1729d128a1c5f8046931c46fc7fe30000002078c22da46ae05d8c99f21daf56"
    "1116a9607edb36e12c191cfa99fd4c4ddef4aa692b7bdf"
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
        turnout=0.75,
    ).run()
    spec = ScenarioSpec.preset(
        "national_scale",
        election_id=PIN_ELECTION_ID,
        seed=PIN_SEED,
        crypto=CryptoProfile(backend=backend),
    ).derive(sharding=ShardingProfile(num_shards=3))
    election = ShardedElectionDriver(spec, num_ballots=300, codec=codec).run()
    assert shard.record.ballots_cast == 63 and shard.counts == (16, 19, 28)
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
        return [
            serial
            for serial in range(runner.shard.lo, runner.shard.hi)
            if runner.is_cast(runner._ballot_digest(serial))
        ]

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

    def test_abstainer_submissions_are_never_read(self, scheme):
        probe = self.runner(scheme, turnout=0.5)
        cast = set(self.cast_serials(probe))
        abstainers = [s for s in range(probe.shard.lo, probe.shard.hi) if s not in cast]
        assert cast and abstainers
        tampered = {abstainers[0]: b"never-submitted", abstainers[-1]: b""}
        result = self.runner(scheme, turnout=0.5, tampered_codes=tampered).run()
        assert default_codec().encode(result.record) == default_codec().encode(probe.run().record)
        assert result.record.ballots_cast == len(cast)


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
