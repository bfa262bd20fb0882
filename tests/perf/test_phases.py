"""Tests for the phase-duration model (Figure 5c)."""

import pytest

from repro.perf.costmodel import phase_breakdown, phase_sweep


class TestPhaseBreakdown:
    def test_vote_collection_dominates(self):
        phases = phase_breakdown(200_000)
        assert phases.vote_collection_s > phases.vote_set_consensus_s
        assert phases.vote_collection_s > phases.push_to_bb_s
        assert phases.vote_collection_s > phases.publish_result_s

    def test_vote_collection_scales_linearly_with_cast_ballots(self):
        half = phase_breakdown(100_000)
        full = phase_breakdown(200_000)
        assert full.vote_collection_s == pytest.approx(2 * half.vote_collection_s, rel=0.01)

    def test_consensus_phase_depends_on_registered_not_cast(self):
        few_cast = phase_breakdown(50_000, registered_ballots=200_000)
        many_cast = phase_breakdown(200_000, registered_ballots=200_000)
        assert few_cast.vote_set_consensus_s == pytest.approx(many_cast.vote_set_consensus_s)

    def test_post_election_phases_grow_with_cast_ballots(self):
        few = phase_breakdown(50_000)
        many = phase_breakdown(200_000)
        assert many.push_to_bb_s > few.push_to_bb_s
        assert many.publish_result_s > few.publish_result_s

    def test_total_is_sum_of_phases(self):
        phases = phase_breakdown(100_000)
        assert phases.total_s == pytest.approx(
            phases.vote_collection_s + phases.vote_set_consensus_s
            + phases.push_to_bb_s + phases.publish_result_s
        )

    def test_as_row_fields(self):
        row = phase_breakdown(50_000).as_row()
        assert set(row) == {
            "ballots_cast", "vote_collection_s", "vote_set_consensus_s",
            "push_to_bb_s", "publish_result_s",
        }

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            phase_breakdown(-1)
        with pytest.raises(ValueError):
            phase_breakdown(300_000, registered_ballots=200_000)

    def test_explicit_throughput_overrides_model(self):
        phases = phase_breakdown(100_000, vote_collection_throughput=100.0)
        assert phases.vote_collection_s == pytest.approx(1_000.0)


class TestPhaseSweep:
    def test_sweep_matches_figure_5c_grid(self):
        sweep = phase_sweep([50_000, 100_000, 150_000, 200_000])
        assert [p.ballots_cast for p in sweep] == [50_000, 100_000, 150_000, 200_000]

    def test_sweep_durations_monotone_in_cast_ballots(self):
        sweep = phase_sweep([50_000, 100_000, 150_000, 200_000])
        collection = [p.vote_collection_s for p in sweep]
        assert collection == sorted(collection)
