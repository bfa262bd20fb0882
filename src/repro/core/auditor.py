"""Auditors: anyone can verify the complete election process.

Section III-I lists the checks an auditor performs after reading the BB:

a) within each opened ballot, no two vote codes are the same;
b) there are no two submitted vote codes associated with any single ballot part;
c) within each ballot, no more than one part has been used;
d) all the openings of the commitments are valid;
e) all the zero-knowledge proofs associated with used ballot parts are
   completed and valid;

plus, as Theorem 3's tally correctness needs,

h) the published tally opens the homomorphic combination of the cast
   commitments;

and, when voters delegate their audit information:

f) the submitted vote codes are consistent with the ones received from voters;
g) the openings of the unused ballot parts are consistent with the ones
   received from voters.

As the number of independent auditors grows, the probability that election
fraud goes undetected shrinks exponentially (1/2 per audited ballot,
:func:`repro.analysis.verification.fraud_undetected_probability`).

:meth:`Auditor.verify_all` runs them all: randomized batch verification
(:mod:`repro.crypto.batch_verify`) of (d) and (e) over a chunked process pool
(:mod:`repro.perf.parallel`), with failing batches bisected so the report
still names the exact culprit ballots, and per-phase wall-clock timings.
Every backend decodes only elements of its prime-order group, so a batch
refuses exactly the items a one-at-a-time check would (but for the
``2^-security_bits`` chance of a batch equation passing a forgery).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.bulletin_board import BulletinBoardNode, MajorityReader
from repro.core.election import ElectionParameters
from repro.core.tally import open_tally
from repro.core.voter import VoterAuditInfo
from repro.crypto.batch_verify import (
    DEFAULT_SECURITY_BITS,
    OpeningBatchTask,
    OpeningItem,
    ProofBatchTask,
    ProofItem,
    merge_outcomes,
)
from repro.crypto.commitments import OptionEncodingScheme
from repro.crypto.group import Group
from repro.perf.parallel import ParallelConfig, parallel_chunk_map
from repro.perf.phases import PhaseRecorder


@dataclass
class AuditReport:
    """The outcome of an audit: per-check verdicts plus failure details."""

    checks: Dict[str, bool] = field(default_factory=dict)
    failures: List[str] = field(default_factory=list)
    #: measured wall-clock seconds per audit phase
    timings: Dict[str, float] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        """True when every performed check succeeded."""
        return all(self.checks.values())

    def record(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks[name] = self.checks.get(name, True) and ok
        if not ok:
            self.failures.append(f"{name}: {detail}" if detail else name)


class Auditor:
    """A third-party auditor reading the BB through a majority reader."""

    def __init__(
        self,
        bb_nodes: Sequence[BulletinBoardNode],
        params: ElectionParameters,
        group: Group,
        security_bits: int = DEFAULT_SECURITY_BITS,
    ):
        self.params = params
        self.group = group
        self.security_bits = security_bits
        # Any single honest node's static init data equals the majority's; we
        # still fetch the pieces we verify through the majority reader.
        self.reader = MajorityReader(bb_nodes, params)

    # -- full audit -------------------------------------------------------------

    def verify_all(
        self,
        delegations: Sequence[VoterAuditInfo] = (),
        parallel: Optional[ParallelConfig] = None,
    ) -> AuditReport:
        """Run checks (a)-(e) and (h), plus (f)-(g) for any delegating voters.

        The openings of (d) and the proofs of (e) are batch-verified
        chunk-wise over ``parallel`` workers.  Phase durations land in
        ``report.timings``.
        """
        parallel = parallel or ParallelConfig()
        recorder = PhaseRecorder()
        report = AuditReport()
        with recorder.phase("read_bb"):
            published = self._read_published(report)
        if published is None:
            report.timings = recorder.as_dict()
            return report
        vote_set, decrypted, result = published
        commitment_key = self.reader.read(lambda node: node.init.commitment_public_key)
        scheme = OptionEncodingScheme(self.params.num_options, commitment_key, self.group)
        ballots = self.reader.read(lambda node: node.init.ballots)

        with recorder.phase("structural"):
            cast_locations = self._structural_checks(report, vote_set, decrypted)
        with recorder.phase("openings"):
            self._check_openings_batched(report, scheme, result, ballots, parallel)
        with recorder.phase("proofs"):
            self._check_proofs_batched(report, commitment_key, result, ballots, parallel)
        with recorder.phase("tally"):
            self._check_tally_opening(report, scheme, result, ballots, cast_locations)
        with recorder.phase("delegations"):
            # One set and one majority read for every delegation, not one each.
            cast_codes = set(vote_set)
            for info in delegations:
                self.verify_delegation(info, report, cast_codes, result, decrypted)
        report.timings = recorder.as_dict()
        return report

    def _read_published(self, report: AuditReport):
        """Majority-read the published end-of-election state, or record not-ready."""
        vote_set = self.reader.read(lambda node: node.accepted_vote_set)
        decrypted = self.reader.read(lambda node: node.decrypted_vote_codes)
        result = self.reader.read(
            lambda node: node.result if node.result is not None else None
        )
        if vote_set is None or result is None:
            report.record("bb-ready", False, "BB has not published the final data yet")
            return None
        report.record("bb-ready", True)
        return vote_set, decrypted, result

    def _structural_checks(self, report, vote_set, decrypted) -> Dict[int, Tuple[str, int]]:
        """Checks (a)-(c); returns the cast locations (c) derives."""
        self._check_unique_vote_codes(report, decrypted)
        self._check_single_submission(report, vote_set)
        return self._check_single_part_used(report, vote_set, decrypted)

    def _check_openings_batched(self, report, scheme, result, ballots, parallel) -> None:
        """(d) batched: one randomized equation per chunk, bisected on failure."""
        labels: List[Tuple[int, str]] = []
        items: List[OpeningItem] = []
        for (serial, part), openings in sorted(result.openings.items()):
            rows = ballots[serial].rows[part]
            if len(openings) != len(rows):
                report.record("d-openings-complete", False, f"ballot {serial} part {part}")
                continue
            for row, opening in zip(rows, openings, strict=True):
                labels.append((serial, part))
                items.append(OpeningItem(row.commitment, opening))
                report.record(
                    "d-openings-are-unit-vectors",
                    scheme.is_valid_option_encoding(opening),
                    f"ballot {serial} part {part}: opening is not a unit vector",
                )
        if not items:
            return
        task = OpeningBatchTask(scheme.public_key, self.security_bits)
        merged = merge_outcomes(parallel_chunk_map(task, items, parallel))
        if merged.ok:
            report.record("d-valid-openings", True)
            return
        for index in merged.bad_indices:
            serial, part = labels[index]
            report.record("d-valid-openings", False, f"ballot {serial} part {part}: bad opening")

    def _check_proofs_batched(self, report, commitment_key, result, ballots, parallel) -> None:
        """(e) batched: aggregate all Sigma-OR equations, bisect on failure."""
        labels: List[Tuple[int, str]] = []
        items: List[ProofItem] = []
        for (serial, part), responses in sorted(result.proof_responses.items()):
            rows = ballots[serial].rows[part]
            if len(responses) != len(rows):
                report.record("e-proofs-complete", False, f"ballot {serial} part {part}")
                continue
            for row, response in zip(rows, responses, strict=True):
                if row.proof_announcement is None:
                    report.record("e-proofs-complete", False, f"ballot {serial} part {part}")
                    continue
                labels.append((serial, part))
                items.append(
                    ProofItem(row.commitment, row.proof_announcement, result.challenge, response)
                )
        if not items:
            return
        task = ProofBatchTask(commitment_key, self.security_bits)
        merged = merge_outcomes(parallel_chunk_map(task, items, parallel))
        if merged.ok:
            report.record("e-proofs-valid", True)
            return
        for index in merged.bad_indices:
            serial, part = labels[index]
            report.record("e-proofs-valid", False, f"ballot {serial} part {part}: invalid proof")

    def _check_tally_opening(self, report, scheme, result, ballots, cast_locations) -> None:
        """(h) the published tally opens the combined cast commitments."""
        commitments = [
            ballots[serial].rows[part][row_index].commitment
            for serial, (part, row_index) in sorted(cast_locations.items())
        ]
        if not commitments:
            # Nothing was cast; the tally must be all zeros.
            report.record(
                "h-tally-opening",
                result.tally.total_votes == 0,
                "votes tallied although no cast row exists",
            )
            return
        if result.tally_opening is None:
            report.record("h-tally-opening", False, "tally opening not published")
            return
        try:
            reopened = open_tally(
                scheme, scheme.combine(commitments), result.tally_opening, self.params.options
            )
        except ValueError:
            report.record(
                "h-tally-opening", False, "tally opening does not match the cast commitments"
            )
            return
        report.record(
            "h-tally-opening",
            reopened.counts == result.tally.counts,
            "published counts differ from the reopened tally",
        )

    # -- individual checks --------------------------------------------------------

    def _check_unique_vote_codes(self, report: AuditReport, decrypted) -> None:
        """(a) no duplicate vote codes within an opened ballot."""
        for serial, parts in decrypted.items():
            codes = [code for part_codes in parts.values() for code in part_codes]
            ok = len(codes) == len(set(codes))
            report.record("a-unique-vote-codes", ok, f"ballot {serial} has duplicate codes")

    def _check_single_submission(self, report: AuditReport, vote_set) -> None:
        """(b) at most one submitted vote code per ballot."""
        serials = [serial for serial, _ in vote_set]
        ok = len(serials) == len(set(serials))
        report.record("b-single-submission", ok, "a ballot appears twice in the vote set")

    def _check_single_part_used(self, report: AuditReport, vote_set, decrypted):
        """(c) within each ballot at most one part is used; returns cast locations."""
        cast_locations: Dict[int, Tuple[str, int]] = {}
        for serial, code in vote_set:
            parts_hit = set()
            location = None
            for part_name, codes in decrypted.get(serial, {}).items():
                for index, candidate in enumerate(codes):
                    if candidate == code:
                        parts_hit.add(part_name)
                        location = (part_name, index)
            ok = len(parts_hit) <= 1
            report.record("c-single-part-used", ok, f"ballot {serial} uses both parts")
            if location is not None:
                cast_locations[serial] = location
        return cast_locations

    # -- delegated verification ---------------------------------------------------

    def verify_delegation(
        self,
        info: VoterAuditInfo,
        report: Optional[AuditReport] = None,
        vote_set=None,
        result=None,
        decrypted=None,
    ) -> AuditReport:
        """(f)+(g): check a delegating voter's cast code and unused part.

        ``vote_set``, ``result`` and ``decrypted`` are what the majority
        reader returns for the BB's published state (``vote_set`` may be any
        collection of its ``(serial, vote code)`` pairs); each one omitted is
        read here.
        """
        report = report if report is not None else AuditReport()
        if vote_set is None:
            vote_set = self.reader.read(lambda node: node.accepted_vote_set)
        if result is None:
            result = self.reader.read(
                lambda node: node.result if node.result is not None else None
            )
        if vote_set is None or result is None:
            report.record("bb-ready", False, "BB has not published the final data yet")
            return report

        # (f) the cast vote code appears in the published vote set.
        cast_ok = (info.serial, info.cast_vote_code) in vote_set
        report.record("f-cast-code-published", cast_ok, f"ballot {info.serial}")

        # (g) the opened unused part matches what the voter received.
        key = (info.serial, info.unused_part_name)
        openings = result.openings.get(key)
        if decrypted is None:
            decrypted = self.reader.read(lambda node: node.decrypted_vote_codes)
        codes = decrypted.get(info.serial, {}).get(info.unused_part_name)
        if openings is None or codes is None:
            report.record("g-unused-part-opened", False, f"ballot {info.serial}: not opened")
            return report
        report.record("g-unused-part-opened", True)
        # Rebuild the (vote code -> option) association from the opened rows
        # and compare with the voter's printed lines.
        published = {}
        for code, opening in zip(codes, openings, strict=False):
            if sum(opening.values) == 1 and all(v in (0, 1) for v in opening.values):
                option_index = list(opening.values).index(1)
                published[code] = self.params.options[option_index]
            else:
                report.record("g-unused-part-consistent", False,
                              f"ballot {info.serial}: opened row is not a unit vector")
                return report
        expected = {line.vote_code: line.option for line in info.unused_part_lines}
        consistent = published == expected
        report.record("g-unused-part-consistent", consistent, f"ballot {info.serial}")
        return report
