"""Measured phase durations: :class:`repro.perf.phases.PhaseRecorder` and the
stage timings the auditor records with it."""

import pytest

from repro.api import ElectionEngine, ScenarioSpec
from repro.perf.phases import PhaseRecorder


class TestPhaseRecorder:
    def test_a_phase_is_timed_under_its_name(self):
        recorder = PhaseRecorder()
        with recorder.phase("work"):
            sum(range(1_000))
        assert list(recorder.timings) == ["work"]
        assert recorder.timings["work"] > 0

    def test_reentering_a_name_accumulates(self):
        recorder = PhaseRecorder()
        with recorder.phase("loop"):
            pass
        first = recorder.timings["loop"]
        with recorder.phase("loop"):
            sum(range(1_000))
        assert list(recorder.timings) == ["loop"]
        assert recorder.timings["loop"] > first

    def test_a_raising_block_is_still_recorded(self):
        recorder = PhaseRecorder()
        with pytest.raises(RuntimeError), recorder.phase("failing"):
            raise RuntimeError("stage failed")
        assert "failing" in recorder.timings

    def test_as_dict_is_a_copy(self):
        recorder = PhaseRecorder()
        with recorder.phase("a"):
            pass
        copy = recorder.as_dict()
        copy["a"] = -1.0
        copy["b"] = 1.0
        assert recorder.timings["a"] >= 0 and "b" not in recorder.timings

    def test_total_is_the_sum_of_the_phases(self):
        recorder = PhaseRecorder(timings={"a": 0.25, "b": 0.5})
        assert recorder.total_s == 0.75
        assert PhaseRecorder().total_s == 0


def test_an_election_audit_records_each_of_its_stages():
    spec = ScenarioSpec(options=("yes", "no"), num_voters=4, election_end=500.0, seed=1)
    outcome = ElectionEngine(spec).run(["yes", "no", "yes", "yes"])
    assert outcome.audit_report.passed
    assert set(outcome.audit_timings) == {
        "read_bb", "structural", "openings", "proofs", "tally", "delegations",
    }
    assert all(seconds >= 0 for seconds in outcome.audit_timings.values())
