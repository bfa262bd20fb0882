"""Tests for the determinism harness and the chaos scenario matrix.

The acceptance bar for the chaos subsystem:

* every preset run twice at the same seed yields bit-identical outcome
  hashes (determinism);
* a mid-election VC crash followed by recovery completes with the SAME tally
  as the fault-free run of the same seed (recovery correctness);
* liveness holds with ``fv`` crashed VC nodes and fails with ``fv + 1`` --
  the ``Nv >= 3 fv + 1`` bound is exact;
* the matrix covers >= 20 scenarios and every one passes determinism,
  safety, and the expected liveness verdict.
"""

import json

import pytest

from repro.analysis.determinism import (
    check_scenario,
    default_choices,
    is_live,
    run_once,
    safety_violations,
)
from repro.api.spec import PRESETS, CrashNode, FaultPlan, RecoverNode, ScenarioSpec
from repro.chaos.matrix import build_matrix, run_matrix


@pytest.fixture(scope="module")
def fast_spec():
    """A short-window scenario all tests in this module share."""
    return ScenarioSpec(
        options=("option-1", "option-2"),
        num_voters=4,
        num_vc=4,
        num_bb=3,
        num_trustees=3,
        trustee_threshold=2,
        election_end=200.0,
        seed=11,
    )


class TestOutcomeHash:
    def test_identical_runs_hash_identically(self, fast_spec):
        _, first = run_once(fast_spec)
        _, second = run_once(fast_spec)
        assert first == second

    def test_different_seeds_hash_differently(self, fast_spec):
        _, first = run_once(fast_spec)
        _, second = run_once(fast_spec, seed=fast_spec.seed + 1)
        assert first != second

    def test_hash_is_hex_sha256(self, fast_spec):
        _, digest = run_once(fast_spec)
        assert len(digest) == 64
        int(digest, 16)

    def test_default_choices_are_deterministic(self, fast_spec):
        assert default_choices(fast_spec) == default_choices(fast_spec)
        assert len(default_choices(fast_spec)) == fast_spec.num_voters


class TestSafetyAndLiveness:
    def test_honest_run_is_safe_and_live(self, fast_spec):
        outcome, _ = run_once(fast_spec)
        assert safety_violations(outcome, fast_spec) == []
        assert is_live(outcome, fast_spec)

    def test_liveness_detects_missing_tally(self, fast_spec):
        outcome, _ = run_once(fast_spec)
        outcome.tally = None
        assert not is_live(outcome, fast_spec)


class TestPresetDeterminism:
    """Satellite: every named preset is seed-deterministic, run twice per seed."""

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_preset_runs_twice_identically(self, preset):
        spec = PRESETS[preset]().derive(election_end=200.0)
        verdicts = check_scenario(preset, spec, seeds=(spec.seed, spec.seed + 1))
        assert len(verdicts) == 2
        for verdict in verdicts:
            assert verdict.deterministic, f"{preset} nondeterministic at seed {verdict.seed}"
            assert verdict.safety == []
            assert verdict.live


class TestCrashRecovery:
    """Acceptance: crash + recovery reaches the fault-free run's exact tally."""

    def test_mid_election_crash_recovers_to_same_tally(self, fast_spec):
        reference, reference_hash = run_once(fast_spec)
        plan = FaultPlan(
            events=(
                CrashNode(t=30.0, node="VC-1"),
                RecoverNode(t=120.0, node="VC-1"),
            )
        )
        outcome, _ = run_once(fast_spec.derive(faults=plan))
        assert outcome.tally is not None
        assert tuple(outcome.tally.counts) == tuple(reference.tally.counts)
        assert safety_violations(outcome, fast_spec) == []
        report = outcome.chaos_report
        assert report["crashes"] == {"VC-1": 1}
        assert report["still_crashed"] == []

    def test_post_election_recovery_catches_up_from_bb(self, fast_spec):
        reference, _ = run_once(fast_spec)
        plan = FaultPlan(
            events=(
                CrashNode(t=100.0, node="VC-2"),
                RecoverNode(t=260.0, node="VC-2"),
            )
        )
        outcome, _ = run_once(fast_spec.derive(faults=plan))
        assert tuple(outcome.tally.counts) == tuple(reference.tally.counts)
        assert outcome.chaos_report["caught_up_from_bb"] == ["VC-2"]
        recovered = next(n for n in outcome.vote_collectors if n.node_id == "VC-2")
        assert recovered.caught_up_from_bb
        # The adopted vote set matches what its peers decided in consensus.
        peer = next(n for n in outcome.vote_collectors if n.node_id == "VC-0")
        assert recovered.final_vote_set == peer.final_vote_set

    def test_crash_and_recovery_is_deterministic(self, fast_spec):
        plan = FaultPlan(
            events=(
                CrashNode(t=30.0, node="VC-1"),
                RecoverNode(t=260.0, node="VC-1"),
            )
        )
        spec = fast_spec.derive(faults=plan)
        _, first = run_once(spec)
        _, second = run_once(spec)
        assert first == second


class TestThresholdExactness:
    """Acceptance: liveness fails at EXACTLY fv + 1 crashed VC nodes."""

    def test_fv_crashes_stay_live(self, fast_spec):
        # Nv = 4 tolerates fv = 1 crashed node for the whole election.
        plan = FaultPlan(events=(CrashNode(t=0.0, node="VC-0"),))
        outcome, _ = run_once(fast_spec.derive(faults=plan))
        assert is_live(outcome, fast_spec)
        assert safety_violations(outcome, fast_spec) == []

    def test_fv_plus_one_crashes_break_liveness(self, fast_spec):
        plan = FaultPlan(
            events=(
                CrashNode(t=0.0, node="VC-0"),
                CrashNode(t=0.0, node="VC-1"),
            ),
            expect_failure=True,
        )
        spec = fast_spec.derive(faults=plan)
        outcome, _ = run_once(spec)
        assert not is_live(outcome, spec)
        # Safety holds even above threshold: no receipts were issued, no
        # tally computed -- the system stalls, it does not lie.
        assert safety_violations(outcome, spec) == []
        assert outcome.receipts_obtained == 0
        assert outcome.tally is None


class TestMatrix:
    def test_matrix_has_at_least_twenty_scenarios(self):
        matrix = build_matrix()
        assert len(matrix) >= 20
        names = [name for name, _ in matrix]
        assert len(names) == len(set(names))

    def test_matrix_covers_every_fault_kind(self):
        kinds = set()
        for _, spec in build_matrix():
            for event in spec.faults.events:
                kinds.add(type(event).__name__)
        assert kinds == {"CrashNode", "RecoverNode", "Partition", "LossBurst", "ClockSkew"}

    def test_matrix_includes_above_threshold_scenarios(self):
        expect_failure = [name for name, spec in build_matrix() if spec.faults.expect_failure]
        assert len(expect_failure) >= 2

    def test_representative_scenarios_pass_and_emit_artifacts(self, tmp_path):
        verdicts = run_matrix(only="paper_baseline/crash_recover_post", output_dir=tmp_path)
        assert len(verdicts) == 1
        verdict = verdicts[0]
        assert verdict.passed
        artifact = tmp_path / "paper_baseline__crash_recover_post.recovery.json"
        payload = json.loads(artifact.read_text())
        assert payload["deterministic"] is True
        assert payload["safety_violations"] == []
        assert payload["chaos_report"]["caught_up_from_bb"] == ["VC-1"]
