"""ElectionEngine: phase drivers, typed event ordering, pinned legacy outcome."""

import gc
import warnings

import pytest
from engine_runs import run_spec, small_spec

from repro.analysis.determinism import outcome_hash
from repro.api import (
    AuditCompleted,
    AuditConfig,
    BallotAccepted,
    ConsensusDecided,
    ElectionCompleted,
    ElectionEngine,
    PhaseCompleted,
    PhaseStarted,
    ScenarioSpec,
    TallyComputed,
    TransportProfile,
)
from repro.api import engine as engine_module
from repro.api.engine import VotingDriver, default_drivers
from repro.api.spec import AdversaryProfile
from repro.core.byzantine import VC_BEHAVIORS, UcertWithholdingVoteCollector
from repro.crypto.group import Group

CHOICES = ["option-1", "option-3", "option-1", "option-2", "option-1"]


@pytest.fixture(scope="module")
def baseline_outcome():
    return ElectionEngine(ScenarioSpec.preset("paper_baseline")).run(CHOICES)


class TestEngineRun:
    def test_full_pipeline(self, baseline_outcome):
        assert baseline_outcome.tally.as_dict() == {
            "option-1": 3, "option-2": 1, "option-3": 1,
        }
        assert baseline_outcome.receipts_obtained == 5
        assert baseline_outcome.all_receipts_valid
        assert baseline_outcome.audit_report.passed

    def test_phase_timings_recorded(self, baseline_outcome):
        assert set(baseline_outcome.phase_timings) == {
            "setup", "voting", "consensus", "tally", "audit",
        }
        assert baseline_outcome.phase_timings["consensus"] > 0

    def test_choice_count_must_match_voters(self):
        engine = ElectionEngine(ScenarioSpec.preset("paper_baseline"))
        with pytest.raises(ValueError, match="one choice per voter"):
            engine.run(["option-1"])

    @pytest.mark.parametrize(
        "choices, voter_parts, voter",
        [
            (CHOICES, ["A", "B"], 2),
            (CHOICES, ["A", "B", "C", "A", "B"], 2),
            (CHOICES[:3] + ["option-9", "option-1"], None, 3),
            (CHOICES, ["A", "B", "A", "B", "A", "B"], 5),
        ],
        ids=["parts-short", "unknown-part", "unknown-option", "parts-long"],
    )
    def test_bad_choices_are_refused_before_setup(self, choices, voter_parts, voter):
        """At b961c62 each of these surfaced only after the EA set-up ran (an
        IndexError, two KeyErrors) or not at all (extra parts ran silently)."""
        engine = ElectionEngine(ScenarioSpec.preset("paper_baseline"))
        with pytest.raises(ValueError, match=f"voter {voter}"):
            engine.run(choices, voter_parts=voter_parts)
        assert engine.ctx is None
        assert gc.get_freeze_count() == 0

    def test_audit_can_be_disabled(self):
        spec = ScenarioSpec.preset("paper_baseline").derive(audit=AuditConfig(enabled=False))
        outcome = ElectionEngine(spec).run(CHOICES)
        assert outcome.tally is not None
        assert outcome.audit_report is None
        assert "audit" not in outcome.phase_timings

    def test_second_run_gets_a_fresh_event_stream(self):
        engine = ElectionEngine(ScenarioSpec.preset("paper_baseline"))
        first = engine.run(CHOICES)
        second = engine.run(CHOICES)
        # begin() resets the bus: no accumulation across runs, sequences and
        # the sim clock restart from zero.
        assert len(second.events) == len(first.events)
        assert second.events[0].sequence == 0
        assert second.events[0].sim_time == 0.0

    def test_runs_are_reproducible_end_to_end(self):
        spec = ScenarioSpec.preset("paper_baseline", seed=77)
        first = ElectionEngine(spec).run(CHOICES)
        second = ElectionEngine(spec).run(CHOICES)
        # The seed threads through the EA RNG, so even the ballot serials
        # (drawn from the scenario RNG) are identical across runs.
        assert [b.serial for b in first.setup.ballots] == [
            b.serial for b in second.setup.ballots
        ]
        assert first.tally.as_dict() == second.tally.as_dict()
        assert first.phase_timings == second.phase_timings
        assert [(type(e).__name__, e.sim_time) for e in first.events] == [
            (type(e).__name__, e.sim_time) for e in second.events
        ]


class TestSetupHeapFrozenForTheRun:
    """The set-up data sits in the collector's permanent generation from the
    end of the setup phase until ``close()``, and never past it; the voting
    state joins it at the end of the voting phase."""

    def test_frozen_from_setup_to_close(self):
        engine = ElectionEngine(ScenarioSpec.preset("paper_baseline"))
        try:
            ctx = engine.begin(CHOICES)
            engine.run_phase(engine.driver("setup"), ctx)
            after_setup = gc.get_freeze_count()
            assert after_setup > 0
            engine.run_phase(engine.driver("voting"), ctx)
            assert gc.get_freeze_count() > after_setup
        finally:
            engine.close()
        assert gc.get_freeze_count() == 0
        engine.close()  # idempotent
        assert gc.get_freeze_count() == 0
        assert engine.outcome().receipts_obtained == 5

    def test_the_last_of_two_frozen_engines_unfreezes(self):
        """``gc.freeze()`` is process-wide.  At 1b95dde the first engine to
        close handed back the set-up heap of every other run in the process
        (the members of a ``MultiElectionService`` close one after the other)."""
        first = ElectionEngine(ScenarioSpec.preset("paper_baseline"))
        second = ElectionEngine(ScenarioSpec.preset("paper_baseline", seed=2))
        try:
            for engine in (first, second):
                engine.run_phase(engine.driver("setup"), engine.begin(CHOICES))
            assert gc.get_freeze_count() > 0
            first.close()
            assert gc.get_freeze_count() > 0  # the second run's heap stays put
            first.close()  # idempotent: does not count twice
            assert gc.get_freeze_count() > 0
            second.close()
            assert gc.get_freeze_count() == 0
            second.close()
            assert gc.get_freeze_count() == 0
        finally:
            # A failed assertion must not leave the heap frozen for later tests.
            first.close()
            second.close()

    def test_closing_before_setup_touches_nothing(self):
        frozen = ElectionEngine(ScenarioSpec.preset("paper_baseline"))
        frozen.run_phase(frozen.driver("setup"), frozen.begin(CHOICES))
        idle = ElectionEngine(ScenarioSpec.preset("paper_baseline"))
        idle.close()  # never begun
        idle.begin(CHOICES)
        idle.close()  # begun, set-up not run
        assert gc.get_freeze_count() > 0
        frozen.close()
        assert gc.get_freeze_count() == 0

    @pytest.mark.parametrize("transport", ["memory", "tcp"])
    def test_a_second_begin_closes_the_run_it_replaces(self, transport):
        """At 6c98857 ``begin()`` dropped a context that still held the frozen
        heap (and an open transport): ``_frozen_runs`` stayed at 1 and the
        permanent generation full for the rest of the process."""
        profile = TransportProfile(backend=transport)
        engine = ElectionEngine(ScenarioSpec.preset("paper_baseline", transport=profile))
        first = engine.begin(CHOICES)
        engine.run_phase(engine.driver("setup"), first)
        engine.run_phase(engine.driver("voting"), first)  # the sockets are open
        assert gc.get_freeze_count() > 0
        outcome = engine.run(CHOICES)
        assert outcome.audit_report.passed
        assert engine.ctx is not first and not first.heap_frozen
        assert engine_module._frozen_runs == 0
        assert gc.get_freeze_count() == 0
        if transport == "tcp":
            assert first.transport._closed and first.transport.loop.is_closed()
            assert not first.transport._servers and not first.transport._writers

    def test_nothing_frozen_after_a_run(self):
        outcome = ElectionEngine(ScenarioSpec.preset("paper_baseline")).run(CHOICES)
        assert outcome.audit_report.passed
        assert gc.get_freeze_count() == 0

    def test_nothing_frozen_after_a_run_whose_voting_phase_raises(self):
        class FailingVoting(VotingDriver):
            def run(self, ctx):
                self.deploy(ctx)
                raise RuntimeError("voting failed")

        drivers = default_drivers()
        drivers[1] = FailingVoting()
        engine = ElectionEngine(ScenarioSpec.preset("paper_baseline"), drivers=drivers)
        with pytest.raises(RuntimeError, match="voting failed"):
            engine.run(CHOICES)
        assert engine.ctx.setup is not None  # set-up ran, so the heap was frozen
        assert gc.get_freeze_count() == 0


class RevealToTwo(UcertWithholdingVoteCollector):
    """Reveals its withheld certificates to VC-1 and VC-2 only: VC-3 is
    outvoted on those ballots and learns their codes through RECOVER."""

    reveal_to = ("VC-1", "VC-2")


class TestCollectorKeyTablesReleasedAtClose:
    """The voting phase releases the collector keys' fixed-base tables; a
    collector that verifies a UCERT after close does so with plain powers and
    reaches the outcome a run that keeps the tables reaches."""

    def run(self, monkeypatch):
        """One run with VC-0 withholding; returns the outcome and the
        collector keys raised to a plain power after the voting phase."""
        spec = small_spec(
            num_voters=6, num_options=2, seed=1,
            # Voters never give up on the withholding responder, so its
            # ballots reach consensus known to two honest collectors only.
            voter_patience=1e6,
            adversary=AdversaryProfile(vc_behaviors={"VC-0": "reveal-to-two"}),
        )
        engine = ElectionEngine(spec)
        ctx = engine.begin(["option-1", "option-2"] * 3)
        closed = []
        engine.subscribe(
            lambda event: isinstance(event, PhaseCompleted) and event.phase == "voting"
            and closed.append(True)
        )
        keys = set()
        plain_after_close = []
        group = ctx.group
        plain_power = group.plain_power

        def spy(base, exponent):
            if closed and base.serialize() in keys:
                plain_after_close.append(base)
            return plain_power(base, exponent)

        with monkeypatch.context() as patch:
            patch.setattr(group, "plain_power", spy)
            try:
                for driver in engine.drivers:
                    if driver.should_run(ctx):
                        engine.run_phase(driver, ctx)
                    if driver.name == "setup":
                        collector_keys = ctx.setup.bb_init.vc_public_keys.values()
                        keys.update(key.serialize() for key in collector_keys)
            finally:
                engine.close()
        return engine.outcome(), plain_after_close

    def test_recover_after_close_reaches_the_outcome_of_kept_tables(self, monkeypatch):
        monkeypatch.setitem(VC_BEHAVIORS, "reveal-to-two", RevealToTwo)
        released, plain_after_close = self.run(monkeypatch)
        recovered = released.vote_collectors[3]
        assert recovered.vsc_stats.recover_requests >= 1
        assert plain_after_close  # its UCERT checks ran on untabled keys
        monkeypatch.setattr(Group, "release_fixed_bases", lambda self, elements: None)
        kept, _ = self.run(monkeypatch)
        assert kept.vote_collectors[3].vsc_stats.recover_requests >= 1
        assert [v.receipt for v in released.voters] == [v.receipt for v in kept.voters]
        assert released.tally.as_dict() == kept.tally.as_dict() == {"option-1": 3, "option-2": 3}
        assert released.audit_report.passed and kept.audit_report.passed
        assert [n.final_vote_set for n in released.vote_collectors] == [
            n.final_vote_set for n in kept.vote_collectors
        ]


class TestEventOrdering:
    def test_phases_start_in_paper_order(self, baseline_outcome):
        starts = [e.phase for e in baseline_outcome.events if isinstance(e, PhaseStarted)]
        assert starts == ["setup", "voting", "consensus", "tally", "audit"]

    def test_every_phase_completes_before_the_next_starts(self, baseline_outcome):
        open_phase = None
        for event in baseline_outcome.events:
            if isinstance(event, PhaseStarted):
                assert open_phase is None
                open_phase = event.phase
            elif isinstance(event, PhaseCompleted):
                assert event.phase == open_phase
                open_phase = None
        assert open_phase is None

    def test_events_land_inside_their_phase(self, baseline_outcome):
        current = None
        expected_phase = {
            BallotAccepted: "voting",
            ConsensusDecided: "consensus",
            TallyComputed: "tally",
            AuditCompleted: "audit",
        }
        for event in baseline_outcome.events:
            if isinstance(event, PhaseStarted):
                current = event.phase
            elif isinstance(event, PhaseCompleted):
                current = None
            elif type(event) in expected_phase:
                assert current == expected_phase[type(event)], event
        assert isinstance(baseline_outcome.events[-1], ElectionCompleted)

    def test_sequences_are_strictly_increasing(self, baseline_outcome):
        sequences = [e.sequence for e in baseline_outcome.events]
        assert sequences == sorted(sequences)
        assert len(set(sequences)) == len(sequences)

    def test_one_ballot_accepted_per_receipt(self, baseline_outcome):
        accepted = [e for e in baseline_outcome.events if isinstance(e, BallotAccepted)]
        assert len(accepted) == baseline_outcome.receipts_obtained
        assert {e.voter for e in accepted} == {
            v.node_id for v in baseline_outcome.voters if v.receipt is not None
        }
        assert all(e.receipt_valid for e in accepted)

    def test_consensus_decided_matches_vote_set(self, baseline_outcome):
        (decided,) = [e for e in baseline_outcome.events if isinstance(e, ConsensusDecided)]
        assert decided.vote_set_size == len(CHOICES)

    def test_observer_subscription(self):
        seen = []
        engine = ElectionEngine(ScenarioSpec.preset("byzantine_stress"))
        engine.subscribe(seen.append)
        engine.run(["option-1", "option-2", "option-1", "option-1"])
        phases = tuple(e.phase for e in seen if isinstance(e, PhaseStarted))
        assert phases == ("setup", "voting", "consensus", "tally", "audit")
        assert seen == engine.events


class TestPresetEquivalence:
    """`paper_baseline` reproduces what the old coordinator defaults produced."""

    #: ``outcome_hash`` of the deleted coordinator's ``run_election(CHOICES)`` on
    #: ``legacy_params`` at seed 2024, captured at b416e94 (the last commit with it).
    OLD_COORDINATOR_HASH = "a51be5c047906ad92e944cb38e3aa3e02a18676edbbac80008328bc2d775be51"

    def test_paper_baseline_matches_old_coordinator_defaults(self):
        spec = ScenarioSpec.preset("paper_baseline", seed=2024)
        new_outcome = ElectionEngine(spec).run(CHOICES)

        legacy_spec = small_spec(num_voters=5, num_options=3, election_end=500.0, seed=2024)
        old_outcome = run_spec(legacy_spec, CHOICES)
        assert outcome_hash(old_outcome) == self.OLD_COORDINATOR_HASH

        assert new_outcome.tally.as_dict() == old_outcome.tally.as_dict()
        assert new_outcome.audit_report.passed == old_outcome.audit_report.passed
        assert new_outcome.receipts_obtained == old_outcome.receipts_obtained
        assert sorted(new_outcome.audit_report.checks) == sorted(
            old_outcome.audit_report.checks
        )

    def test_spec_flags_reach_the_election_parameters(self):
        spec = ScenarioSpec.preset("batched_fast")
        params = ElectionEngine(spec).begin().params
        assert params.consensus.batch_size == spec.consensus.batch_size == 8
        assert params.audit is spec.audit


class TestLegacyParameters:
    def test_a_run_of_lifted_parameters_warns_about_nothing(self):
        spec = small_spec(num_voters=2, num_options=2, election_end=200.0, seed=3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            outcome = run_spec(spec, ["option-1", "option-2"])
        assert outcome.tally is not None
        assert outcome.audit_report.passed

    def test_phase_methods_still_compose(self):
        engine = ElectionEngine(
            small_spec(num_voters=2, num_options=2, election_end=200.0, seed=3)
        )
        ctx = engine.begin(["option-1", "option-2"])
        try:
            for name in ("setup", "voting", "consensus", "tally"):
                engine.driver(name).run(ctx)
            assert ctx.tally.as_dict() == {"option-1": 1, "option-2": 1}
            engine.driver("audit").run(ctx)
            assert ctx.audit_report.passed
        finally:
            engine.close()
