"""The voter client.

A voter (Section III-F) owns a paper-style ballot received out of band, knows
the addresses of the VC nodes, and votes *without performing any cryptography*:

1. she picks one ballot part (A or B) uniformly at random -- this coin is also
   the contribution to the zero-knowledge challenge;
2. she selects the vote code printed next to her chosen option;
3. she submits ``<serial, vote-code>`` to a randomly chosen VC node and waits;
4. if no receipt arrives within her patience window ``d`` (Definition 1,
   [d]-patience), she blacklists that node and resubmits the same vote to a
   different randomly chosen VC node;
5. when a receipt arrives she compares it with the one printed on her ballot
   next to the chosen vote code -- a match is her recorded-as-cast assurance.

After the election the voter delegates :meth:`VoterClient.audit_info` to an
auditor, whose :meth:`repro.core.auditor.Auditor.verify_delegation` checks on
the BB that the cast vote code is in the tally set and that the opened, unused
part of the ballot matches what was printed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.core.admission import parse_retry_hint
from repro.core.ballot import PART_A, PART_B, Ballot
from repro.core.messages import VoteReceipt, VoteRejected, VoteRequest
from repro.net.channels import ChannelKind, Message
from repro.net.simulator import SimNode


@dataclass
class VoterAuditInfo:
    """What a voter hands to a third-party auditor (no privacy loss).

    The cast vote code does not reveal the chosen option, and the unused part
    is unrelated to the used one, so delegation does not sacrifice privacy.
    """

    serial: int
    cast_vote_code: bytes
    unused_part_name: str
    unused_part_lines: tuple


class VoterClient(SimNode):
    """A simulated honest voter."""

    def __init__(
        self,
        voter_id: str,
        ballot: Ballot,
        vc_nodes: Sequence[str],
        choice: str,
        patience: float = 50.0,
        part_choice: Optional[str] = None,
        seed: Optional[int] = None,
    ):
        super().__init__(voter_id)
        self.ballot = ballot
        self.vc_nodes = list(vc_nodes)
        self.choice = choice
        self.patience = patience
        self._rng = random.Random(seed)
        self.part_name = part_choice or self._rng.choice([PART_A, PART_B])
        self.part = ballot.part(self.part_name)
        self.unused_part_name = PART_B if self.part_name == PART_A else PART_A
        self.vote_code = self.part.vote_code_for_option(choice)
        self.expected_receipt = self.part.receipt_for_vote_code(self.vote_code)

        self.blacklist: List[str] = []
        self.current_target: Optional[str] = None
        self.attempts = 0
        self.receipt: Optional[bytes] = None
        self.receipt_valid: Optional[bool] = None
        self.rejections: List[VoteRejected] = []
        self.retry_hints_followed = 0
        self.submitted_at: Optional[float] = None
        self.completed_at: Optional[float] = None
        #: submission epoch: stale patience timers (superseded by a
        #: hint-driven resubmit) are ignored instead of blacklisting the
        #: target of a *newer* submission.
        self._epoch = 0

    #: an overloaded VC is not faulty: follow its retry hint at most this
    #: many times before falling back to the [d]-patience blacklist path.
    MAX_RETRY_HINTS = 8

    # -- actions -------------------------------------------------------------------

    def start_voting(self) -> None:
        """Submit the vote for the first time (called by the engine)."""
        self.submitted_at = self.now
        self._submit()

    def _submit(self) -> None:
        if self.receipt is not None:
            return
        candidates = [node for node in self.vc_nodes if node not in self.blacklist]
        if not candidates:
            return
        target = candidates[self._rng.randrange(len(candidates))]
        self.current_target = target
        self.attempts += 1
        self._epoch += 1
        epoch = self._epoch
        request = VoteRequest(self.ballot.serial, self.vote_code, self.node_id)
        self.send(target, request, channel=ChannelKind.PUBLIC)
        # [d]-patience: resubmit elsewhere if no receipt within the window.
        self.set_timer(
            self.patience,
            lambda: self._on_patience_expired(epoch),
            description="patience",
        )

    def _on_patience_expired(self, epoch: Optional[int] = None) -> None:
        if epoch is not None and epoch != self._epoch:
            return
        if self.receipt is not None or self.current_target is None:
            return
        self.blacklist.append(self.current_target)
        self.current_target = None
        self._submit()

    # -- message handling -------------------------------------------------------------

    def on_message(self, message: Message) -> None:
        payload = message.payload
        if isinstance(payload, VoteReceipt):
            self._on_receipt(payload)
        elif isinstance(payload, VoteRejected):
            self._on_rejected(payload)

    def _on_rejected(self, rejection: VoteRejected) -> None:
        self.rejections.append(rejection)
        if self.receipt is not None:
            return
        if rejection.serial != self.ballot.serial or rejection.vote_code != self.vote_code:
            return
        # Shed-with-retry-hint (admission-queue overload): resubmit after the
        # hinted backoff without blacklisting -- the node is busy, not faulty.
        hint = parse_retry_hint(rejection.reason)
        if hint is None or self.retry_hints_followed >= self.MAX_RETRY_HINTS:
            return
        self.retry_hints_followed += 1
        self.current_target = None
        self._epoch += 1  # disarm the outstanding patience timer
        backoff = min(max(hint, 0.001), self.patience / 2.0)
        self.set_timer(backoff, self._submit, description="shed-retry")

    def _on_receipt(self, receipt: VoteReceipt) -> None:
        if self.receipt is not None:
            return
        if receipt.serial != self.ballot.serial or receipt.vote_code != self.vote_code:
            return
        self.receipt = receipt.receipt
        self.receipt_valid = receipt.receipt == self.expected_receipt
        self.completed_at = self.now
        self.current_target = None

    # -- post-election -------------------------------------------------------------------

    @property
    def coin(self) -> int:
        """The voter's challenge contribution: 0 if part A was used, 1 for B."""
        return 0 if self.part_name == PART_A else 1

    def audit_info(self) -> VoterAuditInfo:
        """Package the information needed to delegate verification."""
        unused = self.ballot.part(self.unused_part_name)
        return VoterAuditInfo(
            serial=self.ballot.serial,
            cast_vote_code=self.vote_code,
            unused_part_name=self.unused_part_name,
            unused_part_lines=unused.lines,
        )
