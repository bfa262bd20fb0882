"""Property-based tests for the analytical bounds."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.liveness import failed_attempt_probability, twait
from repro.analysis.verification import (
    e2e_verifiability_error,
    safety_failure_probability,
    safety_failure_probability_union,
)

quick = settings(max_examples=50, deadline=None)


class TestBoundProperties:
    @quick
    @given(
        num_vc=st.integers(min_value=4, max_value=100),
        tcomp=st.floats(min_value=0.0, max_value=10.0),
        drift=st.floats(min_value=0.0, max_value=10.0),
        delay=st.floats(min_value=0.0, max_value=10.0),
    )
    def test_twait_is_nonnegative_and_monotone_in_nv(self, num_vc, tcomp, drift, delay):
        value = twait(num_vc, tcomp, drift, delay)
        assert value >= 0
        assert twait(num_vc + 1, tcomp, drift, delay) >= value

    @quick
    @given(
        fv=st.integers(min_value=1, max_value=30),
        attempts=st.integers(min_value=1, max_value=10),
    )
    def test_failed_attempts_never_exceed_proof_bound(self, fv, attempts):
        num_vc = 3 * fv + 1
        attempts = min(attempts, fv)
        assert failed_attempt_probability(num_vc, fv, attempts) < 3.0 ** (-attempts)

    @quick
    @given(num_faulty=st.integers(min_value=0, max_value=1000))
    def test_safety_probability_is_a_probability(self, num_faulty):
        value = safety_failure_probability(num_faulty)
        assert 0.0 <= value <= 1.0

    @quick
    @given(
        voters=st.integers(min_value=0, max_value=10 ** 9),
        num_faulty=st.integers(min_value=0, max_value=100),
    )
    def test_union_bound_dominates_individual_bound(self, voters, num_faulty):
        union = safety_failure_probability_union(voters, num_faulty)
        assert 0.0 <= union <= 1.0
        if voters >= 1:
            assert union >= safety_failure_probability(num_faulty) or union == 1.0

    @quick
    @given(theta=st.integers(min_value=0, max_value=64), d=st.integers(min_value=0, max_value=64))
    def test_e2e_error_monotone(self, theta, d):
        error = e2e_verifiability_error(theta, d)
        assert 0.0 <= error <= 1.0
        assert e2e_verifiability_error(theta + 1, d) <= error
        assert e2e_verifiability_error(theta, d + 1) <= error

