"""The count models against the counts this code makes."""

import random

import pytest

from repro.crypto.group import Group, GroupElement, SchnorrGroup
from repro.perf.costmodel import (
    AdmissionCosts,
    AuditCosts,
    BandwidthCosts,
    ConsensusCosts,
)


class TestConsensusCosts:
    def test_batch_size_one_equals_per_ballot(self):
        costs = ConsensusCosts()
        assert costs.superblock_messages(4, 10_000, 1) == costs.per_ballot_messages(4, 10_000)

    def test_batching_reduces_messages_monotonically(self):
        costs = ConsensusCosts()
        totals = [costs.superblock_messages(4, 10_000, b) for b in (1, 16, 256, 1024)]
        assert totals == sorted(totals, reverse=True)

    def test_speedup_exceeds_5x_at_10k_ballots(self):
        # The acceptance-criterion shape, at the analytic level.
        assert ConsensusCosts().batching_speedup(4, 10_000, 1024) >= 5.0

    def test_invalid_batch_size_rejected(self):
        with pytest.raises(ValueError):
            ConsensusCosts().superblock_messages(4, 100, 0)

    def test_frames_follow_rounds_not_ballots(self):
        costs = ConsensusCosts()
        # 100x the ballots adds log2(100) rounds' worth of frames, not 100x.
        assert costs.frames(4, 10_000) < 2 * costs.frames(4, 100)
        assert costs.frames(7, 100) / 49 == costs.frames(4, 100) / 16  # per node pair
        # The reliable broadcast of the vectors costs a superblock 2 Nv + 1 steps.
        assert costs.frames(4, 1_600, 16) - costs.frames(4, 100) == (2 * 4 + 1) * 16


class ProductCounter(Group):
    """Counts the products the generic ``multi_power`` makes (elements are
    residues modulo a Mersenne prime; only the count is looked at)."""

    order = 2**255 - 19
    modulus = 2**61 - 1

    def __init__(self):
        self.products = 0

    def identity(self):
        return CountedElement(1, self)


class CountedElement(GroupElement):
    def __init__(self, value, group):
        self.value, self.group = value, group

    def __mul__(self, other):
        self.group.products += 1
        return CountedElement(self.value * other.value % self.group.modulus, self.group)


class TestAuditCosts:
    """The audit model counts products; the kernel's own count is the measurement."""

    def counted(self, terms, bits, bucket_min_terms):
        group = ProductCounter()
        group.BUCKET_MIN_TERMS = bucket_min_terms
        rnd = random.Random(terms * bits)
        pairs = [
            (CountedElement(rnd.randrange(2, group.modulus), group), rnd.getrandbits(bits) | 1)
            for _ in range(terms)
        ]
        group.multi_power(pairs)
        return group.products

    @pytest.mark.parametrize("bits", [64, 255])
    @pytest.mark.parametrize("terms", [8, 71, 72, 512, 2_560])
    def test_multi_power_products_match_the_kernel(self, terms, bits):
        costs = AuditCosts()
        assert costs.bucket_min_terms == SchnorrGroup.BUCKET_MIN_TERMS == 72
        predicted = costs.multi_power_multiplications(terms, bits)
        measured = self.counted(terms, bits, costs.bucket_min_terms)
        # Buckets: exact up to the zero digits (1 in 256) and one product per
        # byte that joins the position's total; scan: half the bits are set.
        tolerance = 0.02 if terms >= costs.bucket_min_terms else 0.15
        assert measured == pytest.approx(predicted, rel=tolerance)

    def test_buckets_take_over_where_they_are_cheaper_in_time_not_in_products(self):
        """In products alone the two sides cross at 170 terms; the constant is
        lower because the scan also pays interpreter work per term per bit."""
        costs = AuditCosts()
        for bits in (64, 256):
            scan = AuditCosts(bucket_min_terms=10**9).multi_power_multiplications
            assert costs.multi_power_multiplications(72, bits) > scan(72, bits)
            assert costs.multi_power_multiplications(171, bits) < scan(171, bits)

    def test_fixed_base_is_one_product_per_exponent_byte(self):
        assert AuditCosts().fixed_base_multiplications == 256 / 8

    def test_batched_equation_is_the_sum_of_its_calls(self):
        costs = AuditCosts()
        total = costs.batched_multiplications(256, small_bases=10, wide_bases=4)
        assert total == (
            costs.multi_power_multiplications(2_560, 64)
            + costs.multi_power_multiplications(1_024, 256)
            + 2 * 32
        )
        assert costs.batched_multiplications(0, small_bases=10) == 2 * 32
        with pytest.raises(ValueError):
            costs.batched_multiplications(-1)

    def test_every_payload_of_the_audit_bench_is_predicted_faster_batched(self):
        costs = AuditCosts()
        assert costs.batch_speedup(256, fixed_base_exps=2, small_bases=1) > 2
        assert costs.batch_speedup(256, native_exps=20, small_bases=10, wide_bases=4) > 10
        assert costs.batch_speedup(256, fixed_base_exps=4, small_bases=4) > 2


#: (collectors, ballots, superblock size) of the wire elections the models are held to
SHAPES = {"small": (4, 12, 4), "wide": (7, 56, 8)}
CASES = [(shape, batched) for shape in SHAPES for batched in (False, True)]


@pytest.fixture(scope="module")
def measured_consensus():
    """Consensus-phase traffic of wire elections, per-ballot and superblock."""
    from repro.api import (
        AuditConfig,
        ConsensusConfig,
        ElectionEngine,
        ScenarioSpec,
        TransportProfile,
    )

    def run(num_vc, num_ballots, batch_size):
        spec = ScenarioSpec(
            options=("option-1", "option-2"),
            num_voters=num_ballots,
            num_vc=num_vc,
            election_end=400.0,
            seed=3,
            consensus=ConsensusConfig(batch_size=batch_size),
            audit=AuditConfig(enabled=False),
            transport=TransportProfile.wire(),
        )
        outcome = ElectionEngine(spec).run(["option-1", "option-2"] * (num_ballots // 2))
        network = outcome.network
        return {
            "frames": network.payload_copies_sent["VscBatch"],
            "bytes": network.payload_bytes_sent["VscBatch"],
            "elements": outcome.consensus_stats["envelope_messages"],
        }

    return {
        (shape, batched): run(num_vc, num_ballots, block if batched else 1)
        for shape, (num_vc, num_ballots, block) in SHAPES.items()
        for batched in (False, True)
    }


class TestAdmissionCosts:
    """Endorsement batching against byte-digit tables: the serial side is two
    32-product lookups, so the aggregate equation wins less than it did against
    the window-5 table (52 products) the model used to assume."""

    def test_fixed_base_matches_the_audit_model_and_the_kernel(self):
        assert AdmissionCosts().fixed_base_multiplications == 256 / 8
        assert AdmissionCosts().fixed_base_multiplications == (
            AuditCosts().fixed_base_multiplications
        )

    def test_prediction_at_the_production_batch_size(self):
        # bench_voting_throughput.py measures 1.54x at 64 items / 4 signers;
        # the old constant predicted 2.53x.
        assert AdmissionCosts().batch_speedup(64) == pytest.approx(1.62, abs=0.005)
        assert AdmissionCosts(fixed_base_multiplications=52.0).batch_speedup(64) == (
            pytest.approx(2.53, abs=0.005)
        )

    def test_a_quorum_sized_batch_loses_to_single_verifies(self):
        # A UCERT: 5 endorsements from 5 signers (measured 0.73x).
        assert AdmissionCosts(num_signers=5).batch_speedup(5) < 1.0

    def test_speedup_grows_with_the_batch(self):
        speedups = [AdmissionCosts().batch_speedup(size) for size in (8, 32, 64, 256)]
        assert speedups == sorted(speedups)
        assert speedups[0] < 1.0 < speedups[1]


class TestModelsAgainstAMeasuredRun:
    """The consensus models describe this code's traffic, not the paper's: each
    prediction is held to wire elections run here (all ballots voted) at two
    shapes.  The per-instance coin moves single per-ballot runs, hence the windows."""

    @pytest.mark.parametrize("shape,batched", CASES)
    def test_frame_count(self, measured_consensus, shape, batched):
        num_vc, num_ballots, block = SHAPES[shape]
        predicted = ConsensusCosts().frames(num_vc, num_ballots, block if batched else 1)
        assert 0.7 <= predicted / measured_consensus[shape, batched]["frames"] <= 1.4

    @pytest.mark.parametrize("shape", SHAPES)
    def test_elements_per_instance(self, measured_consensus, shape):
        num_vc, num_ballots, _ = SHAPES[shape]
        # envelope_messages counts announces too: one per ballot per node pair.
        instance_elements = (
            measured_consensus[shape, False]["elements"] - num_ballots * num_vc * num_vc
        )
        predicted = ConsensusCosts().per_ballot_messages(num_vc, num_ballots)
        assert 0.8 <= predicted / instance_elements <= 1.5

    @pytest.mark.parametrize("shape,batched", CASES)
    def test_consensus_bytes(self, measured_consensus, shape, batched):
        num_vc, num_ballots, block = SHAPES[shape]
        predicted = BandwidthCosts.measured(num_vc).consensus_bytes(
            num_vc, num_ballots, block if batched else 1
        )
        assert 0.8 <= predicted / measured_consensus[shape, batched]["bytes"] <= 1.2

    @pytest.mark.parametrize("shape", SHAPES)
    def test_one_frame_per_message_would_be_seen(self, measured_consensus, shape):
        # What the model must not describe any more: a frame per element.
        measured = measured_consensus[shape, False]
        assert measured["frames"] * 5 < measured["elements"]


class TestBandwidthCosts:
    def test_defaults_match_a_fresh_measurement(self):
        # Sizes carrying no signature are byte-exact; signature-bearing ones
        # wobble by a couple of bytes with the nonce encoding.
        measured = BandwidthCosts.measured(num_vc=4)
        defaults = BandwidthCosts()
        assert measured.vote_request_bytes == defaults.vote_request_bytes
        assert measured.endorse_bytes == defaults.endorse_bytes
        assert measured.announce_empty_bytes == defaults.announce_empty_bytes
        assert measured.superblock_vector_ballot_bytes == 1.0
        assert abs(measured.endorsement_bytes - defaults.endorsement_bytes) <= 4
        assert abs(measured.vote_pending_bytes - defaults.vote_pending_bytes) <= 16

    def test_batch_size_one_equals_per_ballot_bytes(self):
        costs = BandwidthCosts()
        assert costs.superblock_consensus_bytes(4, 10_000, 1) == (
            costs.per_ballot_consensus_bytes(4, 10_000)
        )

    def test_superblocks_save_bytes_and_savings_grow_with_batch(self):
        costs = BandwidthCosts()
        totals = [costs.superblock_consensus_bytes(4, 10_000, b) for b in (1, 16, 256)]
        assert totals == sorted(totals, reverse=True)
        assert totals[0] > 5.0 * totals[2]

    def test_vector_growth_caps_the_byte_savings(self):
        # Opinion vectors grow with the batch size, so byte savings saturate
        # well below the message-count reduction of the same batch.
        costs = BandwidthCosts()
        byte_reduction = costs.per_ballot_consensus_bytes(4, 10_000) / (
            costs.superblock_consensus_bytes(4, 10_000, 1024)
        )
        assert byte_reduction < ConsensusCosts().batching_speedup(4, 10_000, 1024)

    def test_invalid_batch_size_rejected(self):
        with pytest.raises(ValueError):
            BandwidthCosts().superblock_consensus_bytes(4, 100, 0)

    def test_total_consensus_bytes_include_the_frames(self):
        costs = BandwidthCosts()
        elements = costs.announce_bytes(4, 100) + costs.per_ballot_consensus_bytes(4, 100)
        frames = costs.consensus.frames(4, 100)
        assert costs.consensus_bytes(4, 100) == elements + frames * costs.envelope_frame_bytes
        assert costs.consensus_bytes(4, 10_000, 256) < costs.consensus_bytes(4, 10_000, 1)

