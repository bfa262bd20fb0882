"""The one dict codec of the configuration blocks (``repro.core.election.DictCodec``).

* ``spec_goldens.json`` holds ``json.dumps(spec.to_dict(), sort_keys=True)`` of
  the 4 presets and the 24 chaos-matrix scenarios, captured at 6c98857 from the
  fifteen hand-written ``to_dict`` methods the codec replaced: the emitted JSON
  must stay byte-identical once the keys of the deleted model fields
  (:data:`DELETED_KEYS`) are taken out of each golden.
* ``from_dict`` refuses what it cannot mean (all three accepted at 6c98857).
* No class of ``api/spec.py`` or ``core/election.py`` writes its own serialiser.
"""

import dataclasses
import inspect
import json
from pathlib import Path

import pytest

from repro.api import spec as spec_module
from repro.api.spec import (
    PRESETS,
    AuditConfig,
    CrashNode,
    FaultPlan,
    ScenarioSpec,
)
from repro.chaos.matrix import build_matrix
from repro.core import election as election_module
from repro.core.election import DictCodec

GOLDENS = json.loads((Path(__file__).parent / "spec_goldens.json").read_text())
#: fields of deleted code -- the testbed model's three, the per-item audit
#: switch, the audit's process-pool size, and seven knobs no run set (the
#: admission queue's overload policy and batch window, the scale pipeline's
#: collectors, superblock size and turnout per shard, the wire flag now folded
#: into the transport backend, the proof-free set-up): every golden holds
#: them, at their defaults, and they are the only keys a spec no longer emits
DELETED_KEYS = (
    "storage", "network.client_to_vc_ms", "network.inter_vc_ms", "audit.batch",
    "admission.policy", "admission.batch_window_s", "sharding.scale_collectors",
    "sharding.scale_batch_size", "sharding.scale_turnout", "transport.wire_format",
    "audit.workers", "crypto.include_proofs", "network.drop_rate",
)


def without_deleted_keys(golden: str) -> str:
    """``golden`` re-serialised without :data:`DELETED_KEYS`, each of which it must hold."""
    data = json.loads(golden)
    assert json.dumps(data, sort_keys=True) == golden  # re-serialising moves no byte
    for dotted in DELETED_KEYS:
        *blocks, key = dotted.split(".")
        holder = data
        for block in blocks:
            holder = holder[block]
        assert key in holder, f"the golden lacks {dotted}"
        del holder[key]
    return json.dumps(data, sort_keys=True)


def golden_specs():
    specs = {f"preset/{name}": ScenarioSpec.preset(name) for name in PRESETS}
    specs.update({f"matrix/{name}": spec for name, spec in build_matrix()})
    return specs


class TestGoldens:
    def test_the_goldens_cover_every_preset_and_matrix_scenario(self):
        assert sorted(golden_specs()) == sorted(GOLDENS)
        assert len(GOLDENS) == 28

    @pytest.mark.parametrize("name", sorted(GOLDENS))
    def test_emitted_json_is_byte_identical(self, name):
        spec = golden_specs()[name]
        golden = without_deleted_keys(GOLDENS[name])
        assert json.dumps(spec.to_dict(), sort_keys=True) == golden
        assert ScenarioSpec.from_dict(json.loads(golden)) == spec

    def test_fields_are_emitted_in_declaration_order_after_the_kind_tag(self):
        assert list(CrashNode(t=1.0, node="VC-0").to_dict()) == ["kind", "t", "node"]
        names = [f.name for f in dataclasses.fields(ScenarioSpec)]
        assert list(ScenarioSpec().to_dict()) == names


class TestFromDictRefuses:
    def test_an_unknown_key(self):
        with pytest.raises(ValueError, match="ScenarioSpec.*'num_voter'"):
            ScenarioSpec.from_dict({"num_voter": 9})
        with pytest.raises(ValueError, match="AuditConfig.*'worker'"):
            ScenarioSpec.from_dict({"audit": {"worker": 2}})

    def test_a_key_of_a_deleted_field(self):
        old = ScenarioSpec.preset("national_scale").to_dict()
        old["storage"] = "postgres"
        with pytest.raises(ValueError, match="ScenarioSpec.*'storage'"):
            ScenarioSpec.from_dict(old)

    @pytest.mark.parametrize("dotted", DELETED_KEYS)
    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_each_deleted_key_with_its_golden_value(self, preset, dotted):
        """Today's dict of a preset plus one deleted key, holding the value the
        golden of that preset wrote, is refused naming the owning block."""
        old = ScenarioSpec.preset(preset).to_dict()
        golden = json.loads(GOLDENS[f"preset/{preset}"])
        *blocks, key = dotted.split(".")
        holder = old
        for block in blocks:
            holder, golden = holder[block], golden[block]
        holder[key] = golden[key]
        owner = {
            (): "ScenarioSpec", ("network",): "NetworkProfile", ("audit",): "AuditConfig",
            ("admission",): "AdmissionProfile", ("sharding",): "ShardingProfile",
            ("transport",): "TransportProfile", ("crypto",): "CryptoProfile",
        }[tuple(blocks)]
        with pytest.raises(ValueError, match=f"{owner}.*'{key}'"):
            ScenarioSpec.from_dict(old)

    @pytest.mark.parametrize(
        "block, key",
        [
            (AuditConfig, "enabled"),
            (FaultPlan, "expect_failure"),
        ],
    )
    def test_a_non_bool_where_a_bool_is_declared(self, block, key):
        for value in ("false", 0, None):
            with pytest.raises(ValueError, match=f"{block.__name__}.{key}"):
                block.from_dict({key: value})
        assert getattr(block.from_dict({key: True}), key) is True

    def test_a_string_where_a_sequence_is_declared(self):
        with pytest.raises(ValueError, match="ScenarioSpec.options"):
            ScenarioSpec.from_dict({"options": "ab"})
        with pytest.raises(ValueError, match="Partition.groups"):
            FaultPlan.from_dict(
                {"events": [{"kind": "partition", "t_start": 0, "t_end": 1, "groups": "ab"}]}
            )

    def test_a_scalar_of_another_type(self):
        for value in ("many", "9", True, 9.0, None):
            with pytest.raises(ValueError, match="ScenarioSpec.num_voters"):
                ScenarioSpec.from_dict({"num_voters": value})
        with pytest.raises(ValueError, match="ScenarioSpec.election_id"):
            ScenarioSpec.from_dict({"election_id": None})
        with pytest.raises(ValueError, match="ScenarioSpec.election_end"):
            ScenarioSpec.from_dict({"election_end": "500"})
        with pytest.raises(ValueError, match="ScenarioSpec.consensus"):
            ScenarioSpec.from_dict({"consensus": 8})

    def test_a_fault_event_without_its_required_keys(self):
        with pytest.raises(ValueError, match="CrashNode.*'t'"):
            FaultPlan.from_dict({"events": [{"kind": "crash", "node": "VC-0"}]})

    def test_missing_keys_take_the_declared_defaults(self):
        assert ScenarioSpec.from_dict({}) == ScenarioSpec()
        # ints where floats are declared (hand-written JSON) are taken as floats
        assert ScenarioSpec.from_dict({"election_end": 500}).election_end == 500.0


def test_no_block_writes_its_own_serialiser():
    """A field's name appears where it is declared and nowhere else: every
    block inherits ``to_dict`` / ``from_dict`` from the codec."""
    blocks = []
    for module in (spec_module, election_module):
        for _name, cls in inspect.getmembers(module, inspect.isclass):
            if cls.__module__ != module.__name__ or cls is DictCodec:
                continue
            assert "to_dict" not in vars(cls) and "from_dict" not in vars(cls), cls
            if issubclass(cls, DictCodec):
                blocks.append(cls)
    # nine blocks, five fault events, the spec
    assert len(blocks) == 15
