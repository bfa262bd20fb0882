"""Tests for election parameters and fault thresholds."""

import pytest

from repro.core.election import (
    AdmissionProfile,
    AuditConfig,
    ConsensusConfig,
    ElectionParameters,
    FaultThresholds,
)


class TestFaultThresholds:
    def test_max_faulty_vc(self):
        assert FaultThresholds(4, 3, 3, 2).max_faulty_vc == 1
        assert FaultThresholds(7, 3, 3, 2).max_faulty_vc == 2
        assert FaultThresholds(10, 3, 3, 2).max_faulty_vc == 3

    def test_max_faulty_bb(self):
        assert FaultThresholds(4, 3, 3, 2).max_faulty_bb == 1
        assert FaultThresholds(4, 5, 3, 2).max_faulty_bb == 2

    def test_max_faulty_trustees(self):
        assert FaultThresholds(4, 3, 5, 3).max_faulty_trustees == 2

    def test_vc_honest_quorum(self):
        assert FaultThresholds(4, 3, 3, 2).vc_honest_quorum == 3
        assert FaultThresholds(16, 3, 3, 2).vc_honest_quorum == 11

    def test_bb_majority(self):
        assert FaultThresholds(4, 3, 3, 2).bb_majority == 2
        assert FaultThresholds(4, 7, 3, 2).bb_majority == 4

    def test_validate_rejects_too_few_vc(self):
        with pytest.raises(ValueError):
            FaultThresholds(3, 3, 3, 2).validate()

    def test_validate_rejects_no_bb(self):
        with pytest.raises(ValueError):
            FaultThresholds(4, 0, 3, 2).validate()

    def test_validate_rejects_bad_trustee_threshold(self):
        with pytest.raises(ValueError):
            FaultThresholds(4, 3, 3, 4).validate()
        with pytest.raises(ValueError):
            FaultThresholds(4, 3, 3, 0).validate()


class TestElectionParameters:
    def test_small_test_election_defaults(self):
        params = ElectionParameters.small_test_election()
        assert params.num_options == 3
        assert params.num_voters == 5
        assert params.thresholds.num_vc == 4

    def test_option_index(self):
        params = ElectionParameters.small_test_election(num_options=3)
        assert params.option_index("option-2") == 1

    def test_option_index_rejects_unknown_label(self):
        params = ElectionParameters.small_test_election(num_options=3)
        with pytest.raises(ValueError):
            params.option_index("option-99")

    def test_option_index_covers_every_option(self):
        params = ElectionParameters.small_test_election(num_options=10)
        for index, label in enumerate(params.options):
            assert params.option_index(label) == index

    def test_small_test_election_forwards_the_blocks_by_reference(self):
        audit = AuditConfig(security_bits=96)
        params = ElectionParameters.small_test_election(audit=audit)
        assert params.audit is audit
        assert params.consensus == ConsensusConfig() and params.admission == AdmissionProfile()

    def test_rejects_non_finite_voting_hours(self):
        thresholds = FaultThresholds(4, 3, 3, 2)
        for start, end in (
            (0.0, float("inf")),
            (float("-inf"), 100.0),
            (0.0, float("nan")),
        ):
            with pytest.raises(ValueError):
                ElectionParameters(
                    options=["a", "b"], num_voters=1, thresholds=thresholds,
                    election_start=start, election_end=end,
                )

    def test_voting_hours(self):
        params = ElectionParameters.small_test_election(election_end=100.0)
        assert params.within_voting_hours(0.0)
        assert params.within_voting_hours(99.9)
        assert not params.within_voting_hours(100.0)
        assert not params.within_voting_hours(-1.0)

    def test_requires_two_options(self):
        thresholds = FaultThresholds(4, 3, 3, 2)
        with pytest.raises(ValueError):
            ElectionParameters(options=["only-one"], num_voters=3, thresholds=thresholds)

    def test_requires_unique_options(self):
        thresholds = FaultThresholds(4, 3, 3, 2)
        with pytest.raises(ValueError):
            ElectionParameters(options=["a", "a"], num_voters=3, thresholds=thresholds)

    def test_requires_voters(self):
        thresholds = FaultThresholds(4, 3, 3, 2)
        with pytest.raises(ValueError):
            ElectionParameters(options=["a", "b"], num_voters=0, thresholds=thresholds)

    def test_requires_positive_duration(self):
        thresholds = FaultThresholds(4, 3, 3, 2)
        with pytest.raises(ValueError):
            ElectionParameters(
                options=["a", "b"], num_voters=1, thresholds=thresholds,
                election_start=10.0, election_end=5.0,
            )

    def test_parameters_are_frozen(self):
        params = ElectionParameters.small_test_election()
        with pytest.raises(AttributeError):
            params.num_voters = 10
