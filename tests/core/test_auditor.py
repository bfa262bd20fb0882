"""Tests for auditors and delegated verification."""

import pytest

from repro.core.auditor import Auditor, AuditReport, fraud_detection_probability
from repro.core.bulletin_board import MajorityReader
from repro.core.voter import VoterAuditInfo


@pytest.fixture(scope="module")
def auditor(small_outcome, small_params, group):
    return Auditor(small_outcome.bb_nodes, small_params, group)


class TestAuditReport:
    def test_empty_report_passes(self):
        assert AuditReport().passed

    def test_single_failure_fails_report(self):
        report = AuditReport()
        report.record("check", True)
        report.record("check", False, "boom")
        assert not report.passed
        assert any("boom" in failure for failure in report.failures)

    def test_record_accumulates_conjunctively(self):
        report = AuditReport()
        report.record("check", False)
        report.record("check", True)
        assert report.checks["check"] is False


class TestFullAudit:
    def test_honest_election_passes_all_checks(self, auditor):
        report = auditor.verify_all()
        assert report.passed
        for name in (
            "a-unique-vote-codes",
            "b-single-submission",
            "c-single-part-used",
            "d-valid-openings",
            "d-openings-are-unit-vectors",
            "e-proofs-valid",
        ):
            assert report.checks.get(name, True), name
        assert report.checks["h-tally-opening"] is True

    def test_audit_with_delegations_passes(self, auditor, small_outcome):
        delegations = [voter.audit_info() for voter in small_outcome.voters]
        report = auditor.verify_all(delegations)
        assert report.passed
        assert report.checks["f-cast-code-published"]
        assert report.checks["g-unused-part-consistent"]

    def test_delegations_cost_no_majority_read_of_their_own(
        self, auditor, small_outcome, monkeypatch
    ):
        """``verify_all`` hands every delegation what it already read; one
        read of the vote set and one of the decrypted codes per delegation
        made the delegations quadratic in the electorate."""
        reads = []
        read = MajorityReader.read

        def counted(reader, accessor):
            reads.append(accessor)
            return read(reader, accessor)

        monkeypatch.setattr(MajorityReader, "read", counted)
        auditor.verify_all()
        without = len(reads)
        reads.clear()
        delegations = [voter.audit_info() for voter in small_outcome.voters]
        assert len(delegations) > 1
        report = auditor.verify_all(delegations)
        assert report.passed and report.checks["g-unused-part-consistent"]
        assert len(reads) == without

    def test_delegation_with_wrong_cast_code_fails(self, auditor, small_outcome):
        voter = small_outcome.voters[0]
        info = voter.audit_info()
        forged = VoterAuditInfo(
            serial=info.serial,
            cast_vote_code=b"\x01" * 20,
            unused_part_name=info.unused_part_name,
            unused_part_lines=info.unused_part_lines,
        )
        report = auditor.verify_delegation(forged)
        assert not report.checks["f-cast-code-published"]

    def test_delegation_with_tampered_unused_part_fails(self, auditor, small_outcome):
        """A malicious EA that swapped options on the printed ballot is caught."""
        voter = small_outcome.voters[0]
        info = voter.audit_info()
        lines = list(info.unused_part_lines)
        # Swap the option labels of the first two lines: the printed ballot no
        # longer matches the opened BB data.
        from repro.core.ballot import BallotLine

        swapped = [
            BallotLine(lines[0].vote_code, lines[1].option, lines[0].receipt),
            BallotLine(lines[1].vote_code, lines[0].option, lines[1].receipt),
        ] + lines[2:]
        forged = VoterAuditInfo(
            serial=info.serial,
            cast_vote_code=info.cast_vote_code,
            unused_part_name=info.unused_part_name,
            unused_part_lines=tuple(swapped),
        )
        report = auditor.verify_delegation(forged)
        assert not report.checks["g-unused-part-consistent"]

    def test_audit_before_result_reports_not_ready(self, small_setup, small_params, group):
        from repro.core.bulletin_board import BulletinBoardNode

        fresh_nodes = [
            BulletinBoardNode(f"BB-f{i}", small_setup.bb_init, small_params, group)
            for i in range(3)
        ]
        report = Auditor(fresh_nodes, small_params, group).verify_all()
        assert not report.passed
        assert report.checks["bb-ready"] is False


class TestFraudDetection:
    def test_probability_increases_with_auditors(self):
        assert fraud_detection_probability(0) == 0.0
        assert fraud_detection_probability(1) == 0.5
        assert fraud_detection_probability(10) == pytest.approx(1 - 2 ** -10)

    def test_paper_example_ten_auditors(self):
        """The paper: 10 auditors leave only ~0.00097 undetected probability."""
        assert 1 - fraud_detection_probability(10) == pytest.approx(0.0009765625)

    def test_negative_auditors_rejected(self):
        with pytest.raises(ValueError):
            fraud_detection_probability(-1)
