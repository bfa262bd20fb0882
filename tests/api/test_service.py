"""MultiElectionService: shared-scheduler multiplexing with full isolation."""

import gc

import pytest

from repro.api import (
    ElectionEngine,
    MultiElectionService,
    PhaseDriver,
    PhaseStarted,
    ScenarioSpec,
)

CHOICES_A = ["option-1", "option-3", "option-1", "option-2", "option-1"]
CHOICES_B = ["option-1", "option-2", "option-1", "option-1"]


def _spec_a(seed=21):
    return ScenarioSpec.preset("paper_baseline", seed=seed, election_id="city")


def _spec_b(seed=22):
    return ScenarioSpec.preset("byzantine_stress", seed=seed, election_id="stress")


@pytest.fixture(scope="module")
def multiplexed_reports():
    service = MultiElectionService()
    service.add(_spec_a(), CHOICES_A)
    service.add(_spec_b(), CHOICES_B)
    return service, service.run_all()


class TestRunAll:
    def test_every_election_completes(self, multiplexed_reports):
        _, reports = multiplexed_reports
        assert set(reports) == {"city", "stress"}
        assert reports["city"].tally == {"option-1": 3, "option-2": 1, "option-3": 1}
        assert reports["stress"].tally == {"option-1": 3, "option-2": 1}
        assert all(r.audit_passed for r in reports.values())

    def test_merged_event_log_is_demultiplexable(self, multiplexed_reports):
        service, reports = multiplexed_reports
        assert {e.election_id for e in service.event_log} == {"city", "stress"}
        for name, report in reports.items():
            merged = [e for e in service.event_log if e.election_id == name]
            assert merged == report.outcome.events

    def test_phases_are_interleaved_not_sequential(self, multiplexed_reports):
        service, _ = multiplexed_reports
        phase_starts = [
            (e.election_id, e.phase)
            for e in service.event_log
            if isinstance(e, PhaseStarted)
        ]
        # Phase-level multiplexing: both elections enter each phase before
        # either advances to the next one.
        assert phase_starts[:4] == [
            ("city", "setup"), ("stress", "setup"),
            ("city", "voting"), ("stress", "voting"),
        ]


    def test_nothing_stays_frozen_after_run_all(self, multiplexed_reports):
        assert gc.get_freeze_count() == 0

    def test_a_failed_phase_still_closes_every_member(self):
        class FailingVoting(PhaseDriver):
            name = "voting"

            def execute(self, ctx):
                raise RuntimeError("voting failed")

        service = MultiElectionService()
        service.add(_spec_a(), CHOICES_A)
        service.engine("city").drivers[1] = FailingVoting()
        with pytest.raises(RuntimeError, match="voting failed"):
            service.run_all()
        assert service.engine("city").ctx.setup is not None
        assert gc.get_freeze_count() == 0


class TestIsolation:
    """An election behaves identically alone and multiplexed with others."""

    def test_outcome_rng_and_timings_unchanged_by_cohabitation(self, multiplexed_reports):
        _, reports = multiplexed_reports
        solo = ElectionEngine(_spec_a()).run(CHOICES_A)
        multi = reports["city"].outcome
        # Same RNG streams: identical ballots (serials are random draws),
        # identical tally, identical receipts.
        assert [b.serial for b in solo.setup.ballots] == [
            b.serial for b in multi.setup.ballots
        ]
        assert solo.tally.as_dict() == multi.tally.as_dict()
        assert solo.receipts_obtained == multi.receipts_obtained
        # Same simulated phase timings, to the float.
        assert solo.phase_timings == multi.phase_timings
        # Same event stream (sequence numbers and simulated timestamps).
        assert [(type(e).__name__, e.sequence, e.sim_time) for e in solo.events] == [
            (type(e).__name__, e.sequence, e.sim_time) for e in multi.events
        ]

    def test_elections_with_different_seeds_diverge(self, multiplexed_reports):
        _, reports = multiplexed_reports
        other = ElectionEngine(_spec_a(seed=99)).run(CHOICES_A)
        multi = reports["city"].outcome
        assert [b.serial for b in other.setup.ballots] != [
            b.serial for b in multi.setup.ballots
        ]

    def test_network_traffic_is_per_election(self, multiplexed_reports):
        _, reports = multiplexed_reports
        solo = ElectionEngine(_spec_b()).run(CHOICES_B)
        multi = reports["stress"].outcome
        assert solo.network.messages_sent == multi.network.messages_sent
        assert solo.network.messages_delivered == multi.network.messages_delivered


class TestRegistration:
    def test_duplicate_names_rejected(self):
        service = MultiElectionService()
        service.add(_spec_a(), CHOICES_A)
        with pytest.raises(ValueError, match="already registered"):
            service.add(_spec_a(), CHOICES_A)

    def test_choice_count_validated_at_add_time(self):
        service = MultiElectionService()
        with pytest.raises(ValueError, match="needs exactly 5 choices"):
            service.add(_spec_a(), ["option-1"])

    def test_explicit_name_overrides_election_id(self):
        service = MultiElectionService()
        name = service.add(_spec_a(), CHOICES_A, name="override")
        assert name == "override"
        assert service.engine("override").spec.election_id == "override"

    def test_empty_service_runs(self):
        assert MultiElectionService().run_all() == {}

    def test_shared_parallel_config_reaches_every_audit(self):
        service = MultiElectionService(audit_workers=1)
        service.add(_spec_a(), CHOICES_A)
        service.add(_spec_b(), CHOICES_B)
        for name in service.election_names:
            assert service.engine(name)._parallel is service.parallel
