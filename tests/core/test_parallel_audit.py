"""Tests for the batched end-of-election audit."""

import re
from dataclasses import replace

import pytest
from engine_runs import run_spec, small_spec

from repro.api import ScenarioSpec
from repro.core import auditor as auditor_module
from repro.core.auditor import AUDIT_CHUNK, Auditor
from repro.core.election import AuditConfig
from repro.crypto.batch_verify import BatchVerifier
from repro.crypto.commitments import CommitmentOpening, OptionEncodingScheme
from repro.crypto.zkp import BallotCorrectnessVerifier


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


#: Rows each of checks (d) and (e) batches in :func:`multi_chunk_outcome`.
MULTI_CHUNK_ROWS = 720


@pytest.fixture(scope="module")
def multi_chunk_outcome():
    """240 voters of ``paper_baseline`` publish 720 opening rows (each
    ballot's unused part, three options) and 720 proof rows (its cast part):
    three audit chunks each.  Tests tamper through ``monkeypatch`` only, so
    the next test reads the honest BB again."""
    spec = ScenarioSpec.preset("paper_baseline", num_voters=240, seed=3)
    outcome = run_spec(spec, [spec.options[i % 3] for i in range(240)])
    assert outcome.audit_report.passed
    return outcome


def _row_location(published, index):
    """The ``(serial, part)`` key and row offset of the ``index``-th row the
    auditor batches from ``published`` (keys in sorted order)."""
    start = 0
    for key, rows in sorted(published.items()):
        if index < start + len(rows):
            return key, index - start
        start += len(rows)
    raise IndexError(index)


def _tamper_row(monkeypatch, nodes, published, key, offset, corrupt):
    """Replace row ``offset`` of ``key`` in every node's ``result.<published>``
    with ``corrupt(row)``, undone when the test ends."""
    tables = {id(table): table for table in (getattr(node.result, published) for node in nodes)}
    for table in tables.values():
        rows = list(table[key])
        rows[offset] = corrupt(rows[offset])
        monkeypatch.setitem(table, key, tuple(rows))


def _shift_opening(opening):
    return CommitmentOpening(opening.values, tuple(r + 1 for r in opening.randomness))


def _shift_response(response):
    sum_response = response.sum_response
    return replace(
        response, sum_response=replace(sum_response, response=sum_response.response + 1)
    )


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

    def test_culprits_in_the_third_chunk_are_named(self, multi_chunk_outcome, group, monkeypatch):
        """One corrupted opening and one corrupted proof response in the
        third chunk are named by their ``(serial, part)``, and nothing else
        fails."""
        nodes = multi_chunk_outcome.bb_nodes

        def third_chunk_key(published):
            """The first key whose rows start inside the third chunk."""
            start = 0
            for key, rows in sorted(published.items()):
                if start >= 2 * AUDIT_CHUNK:
                    return key
                start += len(rows)

        assert sum(map(len, nodes[0].result.openings.values())) == MULTI_CHUNK_ROWS
        assert sum(map(len, nodes[0].result.proof_responses.values())) == MULTI_CHUNK_ROWS
        opened = third_chunk_key(nodes[0].result.openings)
        proved = third_chunk_key(nodes[0].result.proof_responses)
        _tamper_row(monkeypatch, nodes, "openings", opened, 0, _shift_opening)
        _tamper_row(monkeypatch, nodes, "proof_responses", proved, 0, _shift_response)

        chunks = {"openings": [], "proofs": []}

        class ChunkRecorder(BatchVerifier):
            def verify_openings(self, public_key, items):
                chunks["openings"].append(len(items))
                return super().verify_openings(public_key, items)

            def verify_proofs(self, public_key, items):
                chunks["proofs"].append(len(items))
                return super().verify_proofs(public_key, items)

        monkeypatch.setattr(auditor_module, "BatchVerifier", ChunkRecorder)
        report = Auditor(nodes, multi_chunk_outcome.setup.params, group).verify_all()
        assert chunks == {"openings": [256, 256, 208], "proofs": [256, 256, 208]}
        assert _culprits(report, "d-valid-openings") == {opened}
        assert _culprits(report, "e-proofs-valid") == {proved}
        assert len(report.failures) == 2
        assert {name for name, ok in report.checks.items() if not ok} == {
            "d-valid-openings", "e-proofs-valid"
        }

    @pytest.mark.parametrize(
        "index",
        [0, AUDIT_CHUNK - 1, AUDIT_CHUNK, 2 * AUDIT_CHUNK, MULTI_CHUNK_ROWS - 1],
        ids=["first-row", "last-of-chunk-1", "first-of-chunk-2", "inside-chunk-3", "last-row"],
    )
    @pytest.mark.parametrize(
        "check, published, corrupt",
        [
            ("d-valid-openings", "openings", _shift_opening),
            ("e-proofs-valid", "proof_responses", _shift_response),
        ],
        ids=["opening", "proof"],
    )
    def test_a_culprit_at_a_chunk_edge_is_named(
        self, multi_chunk_outcome, group, monkeypatch, index, check, published, corrupt
    ):
        """Chunk-local bad indices map back to the right ``(serial, part)``
        at each chunk's edges, also where a part's three rows straddle two
        chunks (rows 255-257 share a key)."""
        nodes = multi_chunk_outcome.bb_nodes
        key, offset = _row_location(getattr(nodes[0].result, published), index)
        _tamper_row(monkeypatch, nodes, published, key, offset, corrupt)
        report = Auditor(nodes, multi_chunk_outcome.setup.params, group).verify_all()
        assert _culprits(report, check) == {key}
        assert len(report.failures) == 1
        assert {name for name, ok in report.checks.items() if not ok} == {check}

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
    def test_invalid_security_bits_rejected(self):
        import dataclasses

        with pytest.raises(ValueError):
            dataclasses.replace(AuditConfig(), security_bits=4)
