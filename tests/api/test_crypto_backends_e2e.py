"""End-to-end elections on the registry backends selected via CryptoProfile."""

import json

import pytest

from repro.api import CryptoProfile, ElectionEngine, ScenarioSpec, TransportProfile
from repro.crypto.gmpy2_backend import HAVE_GMPY2
from repro.crypto.registry import available_backends, get_group

CHOICES = ["option-1", "option-3", "option-1", "option-2", "option-1"]


def run_paper_baseline(backend: str):
    spec = ScenarioSpec.preset("paper_baseline", crypto=CryptoProfile(backend=backend))
    return ElectionEngine(spec).run(CHOICES)


@pytest.fixture(scope="module")
def schnorr_outcome():
    return run_paper_baseline("schnorr")


class TestBackendElections:
    @pytest.mark.parametrize("backend", ["schnorr-gmpy2", "secp256k1"])
    def test_paper_baseline_runs_with_audit(self, backend, schnorr_outcome):
        outcome = run_paper_baseline(backend)
        assert outcome.tally is not None
        # Same ballots, same result, regardless of the group the crypto ran in.
        assert outcome.tally.as_dict() == schnorr_outcome.tally.as_dict()
        assert outcome.audit_report is not None
        assert not outcome.audit_report.failures
        assert all(outcome.audit_report.checks.values())

    def test_collectors_sign_in_the_group_of_their_keys(self):
        """Like BB nodes and trustees, a collector works in the group the EA
        dealt its keys in, not in the process default (pure-python schnorr)."""
        engine = ElectionEngine(
            ScenarioSpec.preset("paper_baseline", crypto=CryptoProfile(backend="secp256k1"))
        )
        outcome = engine.run(CHOICES)
        assert outcome.vote_collectors
        for node in outcome.vote_collectors:
            assert node.signature_scheme.group is engine.ctx.group

    def test_gmpy2_backend_engine_group(self):
        spec = ScenarioSpec.preset(
            "paper_baseline", crypto=CryptoProfile(backend="schnorr-gmpy2")
        )
        group = spec.crypto.build_group()
        if HAVE_GMPY2:
            from repro.crypto.gmpy2_backend import Gmpy2SchnorrGroup

            assert isinstance(group, Gmpy2SchnorrGroup)
        else:
            assert group is get_group("schnorr")


    @pytest.mark.parametrize("backend", available_backends())
    def test_over_wire_transport(self, backend):
        """Every backend's elements survive the canonical wire format end to end."""
        spec = ScenarioSpec(
            options=("option-1", "option-2"),
            num_voters=4,
            election_end=500.0,
            transport=TransportProfile.wire(),
            crypto=CryptoProfile(backend=backend),
        )
        outcome = ElectionEngine(spec).run(
            ["option-1", "option-2", "option-1", "option-1"]
        )
        assert outcome.tally.as_dict() == {"option-1": 3, "option-2": 1}
        assert outcome.audit_report.passed


class TestBackendRoundTrip:
    @pytest.mark.parametrize("backend", ["schnorr", "schnorr-gmpy2", "secp256k1"])
    def test_backend_survives_spec_round_trip(self, backend):
        spec = ScenarioSpec(crypto=CryptoProfile(backend=backend))
        restored = ScenarioSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert restored.crypto.backend == backend
        assert restored == spec

    def test_registry_alias_normalizes(self):
        assert CryptoProfile(backend="ec").backend == "secp256k1"
        assert CryptoProfile.from_dict({"backend": "ec"}).backend == "secp256k1"

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown crypto backend"):
            CryptoProfile(backend="nist-p256")
