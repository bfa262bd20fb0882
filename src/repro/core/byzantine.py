"""Byzantine component behaviours used for fault-injection testing.

The paper's threat model allows arbitrary (Byzantine) failures of up to
``fv < Nv/3`` VC nodes, ``fb < Nb/2`` BB nodes and ``Nt - ht`` trustees.
These classes implement concrete misbehaviours so the test-suite and the
examples can demonstrate that the protocol guarantees survive them:

* :class:`SilentVoteCollector` -- a crashed/partitioned VC node.
* :class:`ShareCorruptingVoteCollector` -- discloses garbage receipt shares
  and signs nothing, trying to poison receipt reconstruction.
* :class:`EquivocatingVoteCollector` -- endorses every vote code it sees
  (violating the one-endorsement-per-ballot rule) and lies during Vote Set
  Consensus by announcing "no vote code known".
* :class:`UcertWithholdingVoteCollector` -- as the voter's responder it forms
  the UCERT but never discloses it during voting, then reveals it to only a
  subset of peers at election end.  This splits honest opinions *inside* a
  consensus superblock, forcing batched Vote Set Consensus off the fast path
  and through the per-ballot recovery sub-protocol.
* :class:`WithholdingBulletinBoard` -- a BB node that reports an empty/na
  state to readers, exercising the majority-read logic.
* :class:`CorruptTrustee` -- submits corrupted opening shares.

:data:`VC_BEHAVIORS`, :data:`BB_BEHAVIORS` and :data:`TRUSTEE_BEHAVIORS` name
them for :class:`repro.api.spec.AdversaryProfile`.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Type

from repro.consensus.batching import BatchEnvelope
from repro.core.bulletin_board import BulletinBoardNode
from repro.core.messages import Announce, Endorse, Endorsement, VotePending, VscBatch
from repro.core.trustee import Trustee, TrusteeSubmission
from repro.core.vote_collector import VoteCollectorNode, endorsement_message
from repro.crypto.shamir import Share, pack_scalars, scalar_width, unpack_scalars
from repro.net.channels import Message


class SilentVoteCollector(VoteCollectorNode):
    """A VC node that never reacts to anything (crash / denial of service)."""

    def on_message(self, message: Message) -> None:
        return

    def end_election(self) -> None:
        return


class ShareCorruptingVoteCollector(VoteCollectorNode):
    """A VC node that discloses corrupted receipt shares.

    The share value is changed before broadcasting VOTE_P while its index
    stays, so the receivers' digest check must reject it: the share no longer
    matches the digest the EA committed to for that index of the row.
    """

    def _disclose_share(self, serial, record, vote_code, ucert) -> None:
        if record.vote_p_sent or record.location is None:
            return
        record.vote_p_sent = True
        part, index = record.location
        genuine = self.init.ballots[serial].receipt_share_at(part, index)
        corrupted = Share(genuine.index, (genuine.value + 1) % (2 ** 64))
        self.broadcast(
            self.peers, VotePending(serial, vote_code, corrupted, ucert)
        )


class EquivocatingVoteCollector(VoteCollectorNode):
    """A VC node that endorses everything and lies in Vote Set Consensus."""

    def _on_endorse(self, sender: str, request: Endorse) -> None:
        # Endorse any code for any ballot, without the single-endorsement check.
        if self.init.ballots.get(request.serial) is None:
            return
        signature = self.signature_scheme.sign(
            self.init.signing_keys, endorsement_message(request.serial, request.vote_code)
        )
        self.send(sender, Endorsement(request.serial, request.vote_code, self.node_id, signature))

    def end_election(self) -> None:
        # Announce "nothing known" for every ballot regardless of local state.
        if self.vsc_started:
            return
        self.voting_closed = True
        self.vsc_started = True
        for serial in self.ballots:
            self._consensus_record(serial)
            self._batcher.enqueue(Announce(serial, None, None))
        self._batcher.flush()


class UcertWithholdingVoteCollector(VoteCollectorNode):
    """A responder that hoards the UCERT, then reveals it selectively.

    During voting it collects endorsements normally (so a genuine UCERT
    exists) but never multicasts VOTE_P: no honest node learns the ballot was
    used, and the voter gets no receipt.  At election end it announces the
    certificate to the peers listed in ``reveal_to`` and "nothing known" to
    everyone else.  Honest nodes then genuinely disagree about the ballot --
    the revealed-to nodes adopt the valid UCERT, the others cannot -- which is
    the scenario batched Vote Set Consensus must survive: the superblock
    containing the ballot loses its unanimous fast path and the nodes that
    decide "voted" without the code run the RECOVER exchange.
    """

    #: peers that get the real announce (set per test before election end)
    reveal_to: tuple = ()

    def _disclose_share(self, serial, record, vote_code, ucert) -> None:
        # Form the UCERT (the caller already stored it) but tell no one.
        record.vote_p_sent = True

    def end_election(self) -> None:
        if self.vsc_started:
            return
        self.voting_closed = True
        self.vsc_started = True
        # One envelope per peer: the shared queue is for what everyone gets.
        for peer in self.peers:
            reveal = peer in self.reveal_to
            announces = tuple(
                Announce(serial, record.used_vote_code, record.ucert)
                if reveal and record.ucert is not None
                else Announce(serial, None, None)
                for serial, record in self.ballots.items()
            )
            self.send(peer, VscBatch(BatchEnvelope(announces)))


class WithholdingBulletinBoard(BulletinBoardNode):
    """A BB node that answers every read with an empty view."""

    def election_view(self):
        return None


class CorruptTrustee(Trustee):
    """A trustee that corrupts its tally shares (detected when opening fails)."""

    def produce_submission(self, bb_view) -> TrusteeSubmission:
        submission = super().produce_submission(bb_view)
        width = scalar_width(self.q)
        scalars = unpack_scalars(submission.tally_share, width)
        if scalars:  # nothing cast, nothing to corrupt
            scalars[0] = (scalars[0] + 1) % self.q
        corrupted = replace(submission, tally_share=pack_scalars(scalars, width))
        # Re-sign so the signature check passes and only the share corruption
        # remains detectable (via the failed opening of the combined commitment).
        return corrupted.signed(
            self.signature_scheme.sign(self.init.signing_keys, corrupted.digest())
        )


#: Registries of named behaviours, so adversary profiles serialize as strings
#: instead of classes.
VC_BEHAVIORS: Dict[str, Type[VoteCollectorNode]] = {
    "silent": SilentVoteCollector,
    "equivocating": EquivocatingVoteCollector,
    "share_corrupting": ShareCorruptingVoteCollector,
    "ucert_withholding": UcertWithholdingVoteCollector,
}
BB_BEHAVIORS: Dict[str, Type[BulletinBoardNode]] = {
    "withholding": WithholdingBulletinBoard,
}
TRUSTEE_BEHAVIORS: Dict[str, Type[Trustee]] = {
    "corrupt": CorruptTrustee,
}
