"""Tests for the typed fault-plan schedule in the scenario spec."""

import pytest

from repro.api.spec import (
    ClockSkew,
    CrashNode,
    FaultPlan,
    LossBurst,
    Partition,
    RecoverNode,
    paper_baseline,
)


def crash_recover(node="VC-1", t_crash=50.0, t_recover=120.0):
    return (CrashNode(t=t_crash, node=node), RecoverNode(t=t_recover, node=node))


class TestEventValidation:
    def test_negative_crash_time_rejected(self):
        with pytest.raises(ValueError):
            CrashNode(t=-1.0, node="VC-0")

    def test_partition_must_end_after_start(self):
        with pytest.raises(ValueError):
            Partition(t_start=10.0, t_end=10.0, groups=(("a",), ("b",)))

    def test_partition_needs_two_groups(self):
        with pytest.raises(ValueError):
            Partition(t_start=0.0, t_end=1.0, groups=(("a", "b"),))

    def test_partition_groups_cannot_be_empty(self):
        with pytest.raises(ValueError):
            Partition(t_start=0.0, t_end=1.0, groups=(("a",), ()))

    def test_partition_groups_must_be_disjoint(self):
        with pytest.raises(ValueError):
            Partition(t_start=0.0, t_end=1.0, groups=(("a", "b"), ("b",)))

    def test_loss_burst_rate_bounds(self):
        with pytest.raises(ValueError):
            LossBurst(t_start=0.0, t_end=1.0, rate=0.0)
        with pytest.raises(ValueError):
            LossBurst(t_start=0.0, t_end=1.0, rate=1.0)

    def test_clock_skew_drift_must_be_finite(self):
        with pytest.raises(ValueError):
            ClockSkew(node="VC-0", drift=float("inf"))


class TestPlanValidation:
    def test_recover_before_crash_rejected(self):
        with pytest.raises(ValueError, match="before any crash"):
            FaultPlan(events=(RecoverNode(t=5.0, node="VC-0"),))

    def test_double_crash_without_recovery_rejected(self):
        with pytest.raises(ValueError, match="crashes twice"):
            FaultPlan(
                events=(
                    CrashNode(t=1.0, node="VC-0"),
                    CrashNode(t=2.0, node="VC-0"),
                )
            )

    def test_crash_recover_crash_again_is_valid(self):
        plan = FaultPlan(
            events=(
                CrashNode(t=1.0, node="VC-0"),
                RecoverNode(t=2.0, node="VC-0"),
                CrashNode(t=3.0, node="VC-0"),
            )
        )
        assert plan.crashed_nodes == frozenset({"VC-0"})

    def test_simultaneous_crash_and_recover_rejected(self):
        with pytest.raises(ValueError, match="simultaneous"):
            FaultPlan(
                events=(
                    CrashNode(t=5.0, node="VC-0"),
                    RecoverNode(t=5.0, node="VC-0"),
                )
            )

    def test_overlapping_partitions_sharing_a_node_rejected(self):
        with pytest.raises(ValueError, match="overlapping partitions"):
            FaultPlan(
                events=(
                    Partition(t_start=0.0, t_end=50.0, groups=(("a",), ("b",))),
                    Partition(t_start=25.0, t_end=75.0, groups=(("a",), ("c",))),
                )
            )

    def test_disjoint_overlapping_partitions_allowed(self):
        FaultPlan(
            events=(
                Partition(t_start=0.0, t_end=50.0, groups=(("a",), ("b",))),
                Partition(t_start=25.0, t_end=75.0, groups=(("c",), ("d",))),
            )
        )

    def test_sequential_partitions_of_same_node_allowed(self):
        FaultPlan(
            events=(
                Partition(t_start=0.0, t_end=50.0, groups=(("a",), ("b",))),
                Partition(t_start=50.0, t_end=75.0, groups=(("a",), ("c",))),
            )
        )

    def test_overlapping_loss_bursts_rejected(self):
        with pytest.raises(ValueError, match="loss bursts"):
            FaultPlan(
                events=(
                    LossBurst(t_start=0.0, t_end=10.0, rate=0.1),
                    LossBurst(t_start=5.0, t_end=15.0, rate=0.2),
                )
            )

    def test_derived_views(self):
        plan = FaultPlan(events=crash_recover() + (CrashNode(t=10.0, node="VC-2"),))
        assert plan.crashed_nodes == frozenset({"VC-1", "VC-2"})
        assert not plan.is_empty
        assert FaultPlan().is_empty


class TestRoundTrip:
    def test_full_plan_round_trips(self):
        plan = FaultPlan(
            events=crash_recover()
            + (
                Partition(t_start=10.0, t_end=30.0, groups=(("VC-0",), ("VC-2", "VC-3"))),
                LossBurst(t_start=40.0, t_end=60.0, rate=0.3),
                ClockSkew(node="VC-2", drift=-0.05, t=2.0),
            ),
            expect_failure=False,
        )
        assert FaultPlan.from_dict(plan.to_dict()) == plan

    def test_expect_failure_round_trips(self):
        plan = FaultPlan(
            events=(CrashNode(t=0.0, node="VC-0"), CrashNode(t=0.0, node="VC-1")),
            expect_failure=True,
        )
        assert FaultPlan.from_dict(plan.to_dict()) == plan

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault-event kind"):
            FaultPlan.from_dict({"events": [{"kind": "meteor", "t": 1.0}]})

    def test_empty_dict_is_empty_plan(self):
        assert FaultPlan.from_dict({}) == FaultPlan()


class TestSpecIntegration:
    def test_spec_round_trips_with_faults(self):
        spec = paper_baseline().derive(
            faults=FaultPlan(events=crash_recover())
        )
        clone = type(spec).from_dict(spec.to_dict())
        assert clone == spec
        assert clone.faults.crashed_nodes == frozenset({"VC-1"})

    def test_crash_of_unknown_vc_rejected(self):
        with pytest.raises(ValueError, match="not a VC node"):
            paper_baseline().derive(
                faults=FaultPlan(events=(CrashNode(t=1.0, node="VC-9"),))
            )

    def test_crash_of_bb_node_rejected(self):
        with pytest.raises(ValueError, match="not a VC node"):
            paper_baseline().derive(
                faults=FaultPlan(events=(CrashNode(t=1.0, node="BB-0"),))
            )

    def test_partition_of_unknown_node_rejected(self):
        with pytest.raises(ValueError, match="unknown nodes"):
            paper_baseline().derive(
                faults=FaultPlan(
                    events=(
                        Partition(t_start=1.0, t_end=2.0, groups=(("VC-0",), ("mars",))),
                    )
                )
            )

    def test_event_outside_election_window_rejected(self):
        with pytest.raises(ValueError, match="outside the election window"):
            paper_baseline().derive(
                faults=FaultPlan(events=(CrashNode(t=9_999.0, node="VC-0"),))
            )

    def test_recovery_may_land_after_election_end(self):
        spec = paper_baseline()
        spec.derive(
            faults=FaultPlan(
                events=(
                    CrashNode(t=100.0, node="VC-0"),
                    RecoverNode(t=spec.election_end + 100.0, node="VC-0"),
                )
            )
        )

    def test_crashes_count_against_vc_fault_budget(self):
        with pytest.raises(ValueError, match="exceed fv"):
            paper_baseline().derive(
                faults=FaultPlan(
                    events=(
                        CrashNode(t=1.0, node="VC-0"),
                        CrashNode(t=1.0, node="VC-1"),
                    )
                )
            )

    def test_byzantine_plus_crash_share_the_budget(self):
        from repro.api.spec import byzantine_stress

        with pytest.raises(ValueError, match="exceed fv"):
            byzantine_stress().derive(
                faults=FaultPlan(events=(CrashNode(t=1.0, node="VC-0"),))
            )

    def test_expect_failure_bypasses_the_budget(self):
        spec = paper_baseline().derive(
            faults=FaultPlan(
                events=(
                    CrashNode(t=1.0, node="VC-0"),
                    CrashNode(t=1.0, node="VC-1"),
                ),
                expect_failure=True,
            )
        )
        assert spec.faults.expect_failure
