"""Tests for the batched/parallel end-of-election audit and tally pipeline."""

import re
from dataclasses import replace

import pytest
from engine_runs import run_spec, small_spec

from repro.core.auditor import Auditor
from repro.core.election import AuditConfig
from repro.crypto.commitments import CommitmentOpening, OptionEncodingScheme
from repro.crypto.zkp import BallotCorrectnessVerifier
from repro.perf.parallel import ParallelConfig


@pytest.fixture(scope="module")
def batch_outcome():
    """A fresh honest election whose BB state this module may tamper with."""
    spec = small_spec(num_voters=4, num_options=2, election_end=200.0, seed=13)
    return run_spec(spec, ["option-1", "option-2", "option-2", "option-1"])


@pytest.fixture()
def tampered_outcome():
    """A fresh election per test, for the test to tamper with."""
    spec = small_spec(num_voters=4, num_options=2, election_end=200.0, seed=17)
    return run_spec(spec, ["option-1", "option-1", "option-2", "option-2"])


def _other_sign(element):
    """``p - x`` for the value ``x`` a Schnorr element carries."""
    return type(element)(element.group.p - element.value, element.group)


def _retarget_first_a(ballots, location, change):
    """``ballots`` with ``change`` applied to ``ciphertexts[0].a`` of the first
    row of part ``location = (serial, part)``."""
    serial, part = location
    view = ballots[serial]
    row = view.rows[part][0]
    first = row.commitment.ciphertexts[0]
    commitment = replace(
        row.commitment,
        ciphertexts=(replace(first, a=change(first.a)),) + row.commitment.ciphertexts[1:],
    )
    rows = (replace(row, commitment=commitment),) + view.rows[part][1:]
    return {**ballots, serial: replace(view, rows={**view.rows, part: rows})}


def _culprits(report, check):
    """The ``(serial, part)`` locations ``report`` names under ``check``."""
    found = set()
    for failure in report.failures:
        if failure.startswith(f"{check}: "):
            match = re.search(r"ballot (\d+) part (\w+)", failure)
            found.add((int(match.group(1)), match.group(2)))
    return found


class TestVerifyAll:
    def test_batched_audit_passes_honest_election(self, batch_outcome):
        assert batch_outcome.audit_report is not None
        assert batch_outcome.audit_report.passed

    def test_batched_audit_records_phase_timings(self, batch_outcome):
        timings = batch_outcome.audit_timings
        for phase in ("read_bb", "structural", "openings", "proofs", "tally", "delegations"):
            assert phase in timings
            assert timings[phase] >= 0.0
        assert batch_outcome.audit_report.timings == timings

    def test_batched_audit_includes_tally_opening_check(self, batch_outcome):
        assert batch_outcome.audit_report.checks["h-tally-opening"] is True

    def test_batched_matches_reference_audit_verdicts(self, tampered_outcome, group):
        """On a board tampered at several rows, ``verify_all`` names exactly the
        parts whose rows ``verify_opening`` or ``BallotCorrectnessVerifier.verify``
        refuses one at a time.  A commitment coordinate moved to another element
        is refused by both checks; one carried as its other sign ``p - a`` is
        the same element, so both accept it."""
        params = tampered_outcome.setup.params
        nodes = tampered_outcome.bb_nodes
        opened = sorted(nodes[0].result.openings)
        proved = sorted(nodes[0].result.proof_responses)
        init = nodes[0].init
        ballots = _retarget_first_a(init.ballots, opened[1], lambda a: a * group.generator())
        ballots = _retarget_first_a(ballots, opened[2], _other_sign)
        ballots = _retarget_first_a(ballots, proved[1], _other_sign)
        for node in nodes:
            node.init = replace(init, ballots=ballots)
            openings = list(node.result.openings[opened[0]])
            openings[0] = CommitmentOpening(
                openings[0].values, tuple(r + 1 for r in openings[0].randomness)
            )
            node.result.openings[opened[0]] = tuple(openings)
            responses = list(node.result.proof_responses[proved[0]])
            sum_response = responses[0].sum_response
            responses[0] = replace(
                responses[0], sum_response=replace(sum_response, response=sum_response.response + 1)
            )
            node.result.proof_responses[proved[0]] = tuple(responses)

        result = nodes[0].result
        key = init.commitment_public_key
        scheme = OptionEncodingScheme(params.num_options, key, group)
        verifier = BallotCorrectnessVerifier(key, group)
        def rows(serial, part):
            return ballots[serial].rows[part]

        refused_openings = {
            (serial, part)
            for (serial, part), openings in result.openings.items()
            for row, opening in zip(rows(serial, part), openings, strict=True)
            if not scheme.verify_opening(row.commitment, opening)
        }
        refused_proofs = {
            (serial, part)
            for (serial, part), responses in result.proof_responses.items()
            for row, response in zip(rows(serial, part), responses, strict=True)
            if not verifier.verify(
                row.commitment, row.proof_announcement, result.challenge, response
            )
        }
        assert refused_openings == {opened[0], opened[1]}
        assert refused_proofs == {proved[0]}

        report = Auditor(nodes, params, group).verify_all()
        assert _culprits(report, "d-valid-openings") == refused_openings
        assert _culprits(report, "e-proofs-valid") == refused_proofs

    def test_parallel_workers_produce_identical_report(self, batch_outcome, group):
        params = batch_outcome.setup.params
        auditor = Auditor(batch_outcome.bb_nodes, params, group)
        serial = auditor.verify_all(parallel=ParallelConfig(workers=1, chunk_size=4))
        pooled = auditor.verify_all(
            parallel=ParallelConfig(workers=2, chunk_size=4, serial_threshold=1)
        )
        assert pooled.checks == serial.checks
        assert pooled.passed

    def test_audit_before_result_reports_not_ready(self, batch_outcome, group):
        from repro.core.bulletin_board import BulletinBoardNode

        params = batch_outcome.setup.params
        fresh = [
            BulletinBoardNode(f"bb-{i}", batch_outcome.setup.bb_init, params, group)
            for i in range(params.thresholds.num_bb)
        ]
        report = Auditor(fresh, params, group).verify_all()
        assert not report.passed
        assert report.checks["bb-ready"] is False
        assert "read_bb" in report.timings


class TestTamperDetection:
    """Tampering must be flagged with the exact culprit ballot named."""

    def test_corrupted_opening_is_located(self, tampered_outcome, group):
        serial = part = None
        for node in tampered_outcome.bb_nodes:
            key = sorted(node.result.openings)[0]
            serial, part = key
            openings = list(node.result.openings[key])
            openings[0] = CommitmentOpening(
                openings[0].values, tuple(r + 1 for r in openings[0].randomness)
            )
            node.result.openings[key] = tuple(openings)
        params = tampered_outcome.setup.params
        report = Auditor(tampered_outcome.bb_nodes, params, group).verify_all()
        assert not report.passed
        assert report.checks["d-valid-openings"] is False
        assert any(
            f"ballot {serial} part {part}" in failure
            for failure in report.failures
            if failure.startswith("d-valid-openings")
        )

    def test_truncated_openings_flagged_incomplete(self, tampered_outcome, group):
        """Publishing fewer openings than ballot rows must not silently skip
        the missing rows."""
        serial = part = None
        for node in tampered_outcome.bb_nodes:
            key = sorted(node.result.openings)[0]
            serial, part = key
            node.result.openings[key] = node.result.openings[key][:-1]
        params = tampered_outcome.setup.params
        report = Auditor(tampered_outcome.bb_nodes, params, group).verify_all()
        assert report.checks["d-openings-complete"] is False
        assert any(
            f"ballot {serial} part {part}" in failure
            for failure in report.failures
            if failure.startswith("d-openings-complete")
        )

    def test_corrupted_tally_counts_are_rejected(self, tampered_outcome, group):
        for node in tampered_outcome.bb_nodes:
            tally = node.result.tally
            counts = (tally.counts[0] + 1,) + tally.counts[1:]
            node.result.tally = replace(tally, counts=counts, total_votes=tally.total_votes + 1)
        params = tampered_outcome.setup.params
        report = Auditor(tampered_outcome.bb_nodes, params, group).verify_all()
        assert report.checks["h-tally-opening"] is False

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda opening: tuple(r + 1 for r in opening.randomness),
            lambda opening: opening.randomness[:1],
        ],
        ids=["shifted-randomness", "truncated-randomness"],
    )
    def test_corrupted_tally_opening_is_rejected(self, tampered_outcome, group, corrupt):
        """Check (h) reopens the product through ``open_tally``, every coordinate."""
        for node in tampered_outcome.bb_nodes:
            opening = node.result.tally_opening
            node.result.tally_opening = CommitmentOpening(opening.values, corrupt(opening))
        params = tampered_outcome.setup.params
        report = Auditor(tampered_outcome.bb_nodes, params, group).verify_all()
        assert report.checks["h-tally-opening"] is False
        assert any("does not match the cast commitments" in f for f in report.failures)


class TestElectionParameterKnobs:
    def test_invalid_audit_workers_rejected(self):
        with pytest.raises(ValueError):
            AuditConfig(workers=0)

    def test_invalid_security_bits_rejected(self):
        import dataclasses

        with pytest.raises(ValueError):
            dataclasses.replace(AuditConfig(), security_bits=4)
