"""The voting-phase admission pipeline of a Vote Collector node.

During voting hours a VC node's hot path is dominated by two things: the
per-message Schnorr verification of incoming ENDORSEMENT signatures (two
exponentiations each) and the unbounded, interrupt-style processing of VOTE
requests.  This module packages the two mechanisms that turn that path into a
pipeline:

* :class:`AdmissionQueue` -- a typed, bounded queue in front of the VOTE
  handler.  With a configured service time it models the CPU an admission
  really costs, which makes the depth bound meaningful: above it the queue
  either **sheds** the request with a retry hint the voter client understands
  (:func:`shed_reason` / :func:`parse_retry_hint`) or **blocks**, letting the
  backlog grow as transport backpressure would.

* :class:`EndorsementBatcher` -- collects incoming ENDORSEMENT signatures
  into size/time-bounded batches and verifies each batch with the
  small-exponent aggregation of :class:`repro.crypto.batch_verify
  .BatchVerifier` (culprit bisection on failure) instead of one
  ``SignatureScheme.verify`` call per message.  Per-item verdicts are
  *identical* to serial verification (the verifier bisects failing batches
  down to exact individual checks), so batching changes only *when* an
  endorsement is processed, never *whether* -- which is why tallies, outcome
  hashes and audits are bit-identical with batching on or off as long as
  votes complete within voting hours.  Work still pending when voting closes
  is dropped by the same voting-hours guards the serial path applies; a vote
  arriving within one batch window of the deadline may therefore miss it,
  which is the honest cost of the batching latency.

The per-node :class:`BatchVerifier` RNG is seeded deterministically from the
node id so elections stay reproducible under the determinism harness.  That
is safe here because a *wrong* batched verdict is always repaired by
bisection down to exact verification; the end-of-election audit, where the
small exponents carry the soundness of un-bisected aggregate equations
against adversarial provers, keeps its unpredictable RNG.

:class:`AdmissionStats` mirrors :class:`repro.core.vote_collector.VscStats`
and is aggregated over all VC nodes by
:attr:`repro.core.outcome.ElectionOutcome.admission_stats`.

Both mechanisms take plain values and trust them: the bounds (depth >= 1, a
known policy, a positive window...) are checked once, where the values are
declared -- :class:`repro.core.election.AdmissionProfile` -- and the collector
reads them off that block.  A uniqueness certificate is *not* batched: its
``Nv - fv`` signatures are verified one by one on every path, because the
aggregate equation measured slower than the single verifies at quorum size
(docs/ARCHITECTURE.md, "Voting-phase admission pipeline").
"""

from __future__ import annotations

import hashlib
import re
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional, Tuple

#: Overload policies of the admission queue.
POLICY_SHED = "shed"
POLICY_BLOCK = "block"
ADMISSION_POLICIES = (POLICY_SHED, POLICY_BLOCK)

_SHED_PREFIX = "admission queue full"
_RETRY_RE = re.compile(r"retry after ([0-9.]+)s")


def shed_reason(retry_after_s: float) -> str:
    """The VoteRejected reason a shedding queue sends, carrying a retry hint."""
    return f"{_SHED_PREFIX}; retry after {retry_after_s:.3f}s"


def parse_retry_hint(reason: str) -> Optional[float]:
    """The retry-after hint of a shed rejection, or ``None`` for real rejections.

    Voters must only resubmit on *overload* rejections; protocol rejections
    ("invalid vote code", "ballot already used") are final.
    """
    if not reason.startswith(_SHED_PREFIX):
        return None
    match = _RETRY_RE.search(reason)
    return float(match.group(1)) if match else 0.0


def node_batch_seed(node_id: str) -> int:
    """Deterministic per-node seed for the admission-path batch verifier."""
    digest = hashlib.sha256(b"admission-batch|" + node_id.encode()).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass
class AdmissionStats:
    """Counters describing how a node's admission pipeline behaved."""

    #: VOTE requests offered to the queue
    requests: int = 0
    #: requests handed to the protocol handler
    admitted: int = 0
    #: requests rejected with a retry hint (policy "shed", queue at depth)
    shed: int = 0
    #: requests queued beyond the depth bound (policy "block")
    blocked_over_depth: int = 0
    #: largest queue backlog observed
    peak_depth: int = 0
    #: endorsement-batch flushes / signatures they verified / aggregate
    #: equations they evaluated (vs. one per signature serially)
    endorse_batches: int = 0
    endorsements_batch_verified: int = 0
    endorse_batch_equations: int = 0
    #: UCERT verifications answered from the verified-certificate memo
    ucert_cache_hits: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "requests": self.requests,
            "admitted": self.admitted,
            "shed": self.shed,
            "blocked_over_depth": self.blocked_over_depth,
            "peak_depth": self.peak_depth,
            "endorse_batches": self.endorse_batches,
            "endorsements_batch_verified": self.endorsements_batch_verified,
            "endorse_batch_equations": self.endorse_batch_equations,
            "ucert_cache_hits": self.ucert_cache_hits,
        }


class AdmissionQueue:
    """A bounded FIFO in front of a VC node's VOTE handler.

    ``service_s == 0`` (the default) admits every request inline -- the
    historical behaviour, now with counters.  A positive service time defers
    each admission by the backlog ahead of it (drained through the owning
    node's timers, so a crashed node loses its backlog exactly like its other
    in-memory state), which is what allows a depth bound to bind.
    """

    def __init__(
        self,
        node,
        stats: AdmissionStats,
        on_admit: Callable[[str, object], None],
        on_shed: Callable[[str, object, float], None],
        depth: Optional[int] = None,
        policy: str = POLICY_SHED,
        service_s: float = 0.0,
    ):
        self.node = node
        self.stats = stats
        self.on_admit = on_admit
        self.on_shed = on_shed
        self.depth = depth
        self.policy = policy
        self.service_s = service_s
        self._backlog: Deque[Tuple[str, object]] = deque()
        self._drain_armed = False

    def __len__(self) -> int:
        return len(self._backlog)

    def offer(self, sender: str, request) -> bool:
        """Enqueue (or immediately admit) one VOTE request; False when shed."""
        self.stats.requests += 1
        if self.service_s <= 0:
            self.stats.admitted += 1
            self.on_admit(sender, request)
            return True
        if self.depth is not None and len(self._backlog) >= self.depth:
            if self.policy == POLICY_SHED:
                self.stats.shed += 1
                # The backlog ahead of a retry drains in depth * service_s.
                self.on_shed(sender, request, self.depth * self.service_s)
                return False
            self.stats.blocked_over_depth += 1
        self._backlog.append((sender, request))
        self.stats.peak_depth = max(self.stats.peak_depth, len(self._backlog))
        self._arm_drain()
        return True

    def _arm_drain(self) -> None:
        if self._drain_armed or not self._backlog:
            return
        self._drain_armed = True
        self.node.set_timer(self.service_s, self._drain_one, description="admission-drain")

    def _drain_one(self) -> None:
        self._drain_armed = False
        if not self._backlog:
            return
        sender, request = self._backlog.popleft()
        self.stats.admitted += 1
        self.on_admit(sender, request)
        self._arm_drain()


class EndorsementBatcher:
    """Size/time-bounded batching of ENDORSEMENT signature verification.

    ``add`` buffers an endorsement whose protocol guards already passed; the
    buffer flushes when it reaches ``batch_size`` or when ``window_s`` of
    simulated time elapses since the first pending item, whichever comes
    first.  A flush verifies all pending signatures in one small-exponent
    aggregate (bisected on failure) and hands the survivors, in arrival
    order, to ``process`` -- which re-checks the guards, because the world
    may have moved on (quorum reached, voting closed) while the batch waited.
    """

    def __init__(
        self,
        node,
        verifier,
        stats: AdmissionStats,
        public_key_of: Callable[[str], Optional[object]],
        message_of: Callable[[object], bytes],
        process: Callable[[object], None],
        wanted: Callable[[object], bool],
        batch_size: int,
        window_s: float,
    ):
        self.node = node
        self.verifier = verifier
        self.stats = stats
        self.public_key_of = public_key_of
        self.message_of = message_of
        self.process = process
        self.wanted = wanted
        self.batch_size = batch_size
        self.window_s = window_s
        self._pending: List[object] = []
        self._timer_armed = False

    def add(self, endorsement) -> None:
        self._pending.append(endorsement)
        if len(self._pending) >= self.batch_size:
            self.flush()
        elif not self._timer_armed:
            self._timer_armed = True
            self.node.set_timer(self.window_s, self._on_window, description="endorse-batch")

    def _on_window(self) -> None:
        self._timer_armed = False
        self.flush()

    def flush(self) -> None:
        """Batch-verify everything pending and process the valid survivors."""
        if not self._pending:
            return
        pending, self._pending = self._pending, []
        # Re-apply the guards: items made irrelevant while the batch waited
        # (quorum already reached, ballot resolved) would only waste crypto.
        survivors = [e for e in pending if self.wanted(e)]
        items = []
        for endorsement in survivors:
            public = self.public_key_of(endorsement.signer)
            if public is None:
                continue
            items.append((endorsement, public))
        if not items:
            return
        # Imported here: crypto stays optional for consumers of the queue only.
        from repro.crypto.batch_verify import SignatureItem

        outcome = self.verifier.verify_signatures(
            [
                SignatureItem(public, self.message_of(endorsement), endorsement.signature)
                for endorsement, public in items
            ]
        )
        self.stats.endorse_batches += 1
        self.stats.endorsements_batch_verified += outcome.checked
        self.stats.endorse_batch_equations += outcome.equations
        bad = set(outcome.bad_indices)
        for index, (endorsement, _public) in enumerate(items):
            if index not in bad:
                self.process(endorsement)
