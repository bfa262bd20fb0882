"""ScenarioSpec: validation, serialization round-trips and presets."""

import dataclasses
import json

import pytest

from repro.api import (
    PRESETS,
    AdmissionProfile,
    AdversaryProfile,
    AuditConfig,
    ConsensusConfig,
    CryptoProfile,
    NetworkProfile,
    ScenarioSpec,
    ShardingProfile,
    TransportProfile,
)
from repro.core.byzantine import SilentVoteCollector
from repro.net.adversary import NetworkConditions


class TestValidation:
    def test_defaults_validate(self):
        ScenarioSpec()

    @pytest.mark.parametrize(
        "changes",
        [
            {"options": ("only-one",)},
            {"options": ("dup", "dup")},
            {"num_voters": 0},
            {"num_vc": 3},
            {"num_bb": 0},
            {"trustee_threshold": 0},
            {"trustee_threshold": 4},
            {"election_end": 0.0},
            {"election_start": float("inf"), "election_end": float("inf")},
            {"election_end": float("nan")},
            {"voter_patience": 0.0},
            {"stagger": -1.0},
            {"registered_ballots": 1},
        ],
    )
    def test_invalid_field_rejected(self, changes):
        with pytest.raises(ValueError):
            ScenarioSpec(**{**dict(num_voters=4), **changes})

    def test_invalid_subconfigs_rejected(self):
        with pytest.raises(ValueError):
            ConsensusConfig(batch_size=0)
        with pytest.raises(ValueError):
            AuditConfig(workers=0)
        with pytest.raises(ValueError):
            AuditConfig(security_bits=4)
        with pytest.raises(ValueError):
            NetworkProfile(drop_rate=1.5)
        with pytest.raises(ValueError):
            CryptoProfile(backend="rsa")

    def test_unknown_behavior_rejected(self):
        with pytest.raises(ValueError, match="unknown VC behaviour"):
            AdversaryProfile(vc_behaviors={"VC-0": "helpful"})

    def test_adversary_outside_deployment_rejected(self):
        with pytest.raises(ValueError, match="outside the deployment"):
            ScenarioSpec(adversary=AdversaryProfile(vc_behaviors={"VC-9": "silent"}))

    def test_adversary_over_fault_threshold_rejected(self):
        two_faulty = AdversaryProfile(
            vc_behaviors={"VC-0": "silent", "VC-1": "silent"}
        )
        with pytest.raises(ValueError, match="exceed the fault threshold"):
            ScenarioSpec(num_vc=4, adversary=two_faulty)
        # The same corruption is fine once Nv tolerates fv = 2.
        ScenarioSpec(num_vc=7, adversary=two_faulty)

    def test_derive_revalidates(self):
        spec = ScenarioSpec()
        with pytest.raises(ValueError):
            spec.derive(num_voters=-1)


class TestRoundTrip:
    def test_to_dict_is_json_compatible(self):
        spec = ScenarioSpec.preset("byzantine_stress")
        encoded = json.dumps(spec.to_dict())
        assert ScenarioSpec.from_dict(json.loads(encoded)) == spec

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_every_preset_round_trips(self, name):
        spec = ScenarioSpec.preset(name)
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    def test_round_trip_preserves_custom_fields(self):
        spec = ScenarioSpec(
            options=("a", "b", "c"),
            num_voters=9,
            num_vc=7,
            seed=123,
            registered_ballots=50_000,
            consensus=ConsensusConfig(batch_size=4),
            audit=AuditConfig(enabled=False, batch=False, workers=None, security_bits=96),
            network=NetworkProfile.wan(drop_rate=0.01),
            adversary=AdversaryProfile(
                vc_behaviors={"VC-1": "silent"},
                blocked_links=(("VC-0", "VC-1"),),
            ),
            crypto=CryptoProfile(include_proofs=False),
        )
        clone = ScenarioSpec.from_dict(spec.to_dict())
        assert clone == spec
        assert clone.audit.workers is None
        assert clone.adversary.blocked_links == (("VC-0", "VC-1"),)


class TestDerivedViews:
    def test_election_parameters_carry_all_flags(self):
        spec = ScenarioSpec(
            consensus=ConsensusConfig(batch_size=4),
            audit=AuditConfig(batch=False, workers=2, security_bits=80),
        )
        params = spec.to_election_parameters()
        assert params.consensus.batch_size == 4
        assert params.audit.batch is False
        assert params.audit.workers == 2
        assert params.audit.security_bits == 80

    def test_election_parameters_hold_the_specs_own_blocks(self):
        spec = ScenarioSpec.preset("batched_fast", admission=AdmissionProfile.batched(8))
        params = spec.to_election_parameters()
        assert params.consensus is spec.consensus
        assert params.admission is spec.admission
        assert params.audit is spec.audit
        flat = {f.name for f in dataclasses.fields(params)}
        assert flat == {
            "options", "num_voters", "thresholds", "election_start", "election_end",
            "election_id", "consensus", "admission", "audit", "num_shards",
        }

    def test_adversary_profile_resolves_classes(self):
        profile = AdversaryProfile(
            vc_behaviors={"VC-2": "silent"}, blocked_links=(("VC-0", "BB-1"),)
        )
        assert profile.vc_classes() == {"VC-2": SilentVoteCollector}
        adversary = profile.build_adversary()
        assert adversary.blocked_links == {("VC-0", "BB-1")}

    def test_network_profile_builds_the_simulator_conditions(self):
        conditions = NetworkProfile.wan().conditions(seed=3)
        assert isinstance(conditions, NetworkConditions)
        assert conditions.base_latency == pytest.approx(0.025)
        assert NetworkProfile.lan().conditions(seed=3).base_latency < conditions.base_latency


class TestTransportProfile:
    def test_default_is_memory_without_wire_format(self):
        profile = ScenarioSpec().transport
        assert profile.backend == "memory"
        assert not profile.wire_format

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="backend"):
            TransportProfile(backend="carrier-pigeon")

    def test_tcp_implies_wire_format(self):
        assert TransportProfile(backend="tcp").wire_format
        assert TransportProfile.tcp().wire_format

    def test_round_trips_through_dicts(self):
        for profile in (
            TransportProfile.memory(),
            TransportProfile.wire(),
            TransportProfile.tcp(),
        ):
            assert TransportProfile.from_dict(profile.to_dict()) == profile
        spec = ScenarioSpec(transport=TransportProfile.wire())
        assert ScenarioSpec.from_dict(spec.to_dict()).transport == spec.transport

    def test_build_transport_matches_profile(self):
        from repro.net.transport import InProcessTransport, TcpLoopbackTransport

        memory = TransportProfile.memory().build_transport()
        assert isinstance(memory, InProcessTransport) and memory.codec is None
        wire = TransportProfile.wire().build_transport()
        assert isinstance(wire, InProcessTransport) and wire.codec is not None
        tcp = TransportProfile.tcp().build_transport()
        try:
            assert isinstance(tcp, TcpLoopbackTransport)
        finally:
            tcp.close()


class TestPresets:
    def test_unknown_preset(self):
        with pytest.raises(ValueError, match="unknown preset"):
            ScenarioSpec.preset("nope")

    def test_preset_overrides(self):
        spec = ScenarioSpec.preset("paper_baseline", seed=42, num_voters=7)
        assert spec.seed == 42
        assert spec.num_voters == 7

    def test_batched_fast_batches(self):
        assert ScenarioSpec.preset("batched_fast").consensus.batch_size > 1

    def test_byzantine_stress_is_within_thresholds(self):
        spec = ScenarioSpec.preset("byzantine_stress")
        assert not spec.adversary.is_honest
        assert len(spec.adversary.vc_behaviors) <= (spec.num_vc - 1) // 3
        assert len(spec.adversary.bb_behaviors) <= (spec.num_bb - 1) // 2

    def test_national_scale_runs_sharded(self):
        spec = ScenarioSpec.preset("national_scale")
        assert spec.sharding.enabled
        assert spec.sharding.num_shards > 1


class TestShardingProfile:
    def test_defaults_are_unsharded(self):
        profile = ShardingProfile()
        assert profile.num_shards == 1
        assert not profile.enabled
        assert profile.workers == 1
        assert profile.max_inflight_shards is None

    def test_validates_fields(self):
        with pytest.raises(ValueError):
            ShardingProfile(num_shards=0)
        with pytest.raises(ValueError):
            ShardingProfile(scale_collectors=0)
        with pytest.raises(ValueError):
            ShardingProfile(scale_turnout=1.5)
        with pytest.raises(ValueError):
            ShardingProfile(workers=0)
        with pytest.raises(ValueError):
            ShardingProfile(max_inflight_shards=0)

    def test_round_trips_through_dicts(self):
        profile = ShardingProfile(num_shards=8, scale_batch_size=256, scale_turnout=0.7)
        assert ShardingProfile.from_dict(profile.to_dict()) == profile
        spec = ScenarioSpec(sharding=profile)
        assert ScenarioSpec.from_dict(spec.to_dict()).sharding == profile

    def test_parallel_fields_round_trip_through_dicts(self):
        profile = ShardingProfile(num_shards=8, workers=4, max_inflight_shards=2)
        assert ShardingProfile.from_dict(profile.to_dict()) == profile
        spec = ScenarioSpec(sharding=profile)
        assert ScenarioSpec.from_dict(spec.to_dict()).sharding == profile

    def test_from_dict_tolerates_missing_parallel_fields(self):
        """Specs serialized before the parallel mode existed stay loadable."""
        profile = ShardingProfile.from_dict({"num_shards": 4})
        assert profile.workers == 1
        assert profile.max_inflight_shards is None

    def test_plan_covers_the_electorate(self):
        plan = ShardingProfile(num_shards=4).plan(1000)
        assert plan.num_shards == 4
        assert (plan.lo, plan.hi) == (0, 1000)

    def test_num_shards_survives_election_parameters(self):
        spec = ScenarioSpec(sharding=ShardingProfile(num_shards=4))
        params = spec.to_election_parameters()
        assert params.num_shards == 4
