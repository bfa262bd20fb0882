"""Tests for the safety and verifiability bounds (Theorems 2-3)."""

import pytest

from repro.analysis.verification import (
    e2e_verifiability_error,
    fraud_undetected_probability,
    safety_failure_probability,
    safety_failure_probability_union,
)


class TestSafety:
    def test_single_voter_bound_is_tiny(self):
        assert safety_failure_probability(1) < 1e-18
        assert safety_failure_probability(5) < 1e-17

    def test_bound_grows_with_faulty_nodes(self):
        assert safety_failure_probability(5) > safety_failure_probability(1)

    def test_zero_faulty_nodes_means_zero_probability(self):
        assert safety_failure_probability(0) == 0.0

    def test_union_bound_scales_with_voters(self):
        single = safety_failure_probability(2)
        union = safety_failure_probability_union(1_000_000, 2)
        assert union == pytest.approx(1_000_000 * single)

    def test_union_bound_capped_at_one(self):
        assert safety_failure_probability_union(10 ** 30, 5, receipt_bits=8) == 1.0

    def test_national_scale_deployment_is_still_safe(self):
        """235 million voters, 5 faulty VC nodes: still astronomically safe."""
        assert safety_failure_probability_union(235_000_000, 5) < 1e-9

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError):
            safety_failure_probability(-1)
        with pytest.raises(ValueError):
            safety_failure_probability_union(-1, 1)


class TestVerifiability:
    def test_error_formula(self):
        assert e2e_verifiability_error(10, 5) == pytest.approx(2 ** -10 + 2 ** -5)

    def test_error_shrinks_with_more_auditing_voters(self):
        assert e2e_verifiability_error(20, 10) < e2e_verifiability_error(5, 10)

    def test_error_shrinks_with_larger_deviation(self):
        assert e2e_verifiability_error(10, 20) < e2e_verifiability_error(10, 5)

    def test_error_capped_at_one(self):
        assert e2e_verifiability_error(0, 0) == 1.0

    @pytest.mark.parametrize("auditors", [0, 1, 2, 10])
    def test_each_auditor_halves_the_undetected_probability(self, auditors):
        """Each delegated auditor opens the part the EA did not cheat on with
        probability 1/2, independently of the others."""
        assert fraud_undetected_probability(auditors) == 2.0 ** -auditors
        if auditors:
            assert fraud_undetected_probability(auditors) == pytest.approx(
                fraud_undetected_probability(auditors - 1) / 2
            )

    def test_fraud_undetected_matches_paper_example(self):
        assert fraud_undetected_probability(10) == pytest.approx(0.0009765625)

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError):
            e2e_verifiability_error(-1, 1)
        with pytest.raises(ValueError):
            fraud_undetected_probability(-1)
