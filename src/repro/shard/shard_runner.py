"""One shard's election slice: admission, Vote Set Consensus, streaming tally.

A :class:`ShardRunner` executes everything the protocol needs for the ballots
in one contiguous serial range, holding only O(shard) state:

EA setup    Every ballot in the range is derived deterministically from the
            election seed, **once** (``_derive_cast``): ballot digest (its
            choice), vote code, salt and the salted code commitment the EA
            would publish.  Every derived voter casts its ballot.

admission   The responsible collector hashes the *submitted* code under the
            ballot's salt and compares it with the EA's commitment — the same
            check the full simulator's ``VoteCollectorNode`` performs.  Salts
            and commitments are dropped once every cast ballot is admitted.

consensus   The shard's own collectors run superblock Vote Set Consensus
            (the collectors' engine, behind ``ConsensusCluster``) over the
            admitted-ballot opinion vector, so agreement messages are
            amortized across ``consensus_batch_size`` ballots.

tally       The decided ballots are tallied ``TALLY_CHUNK`` cast serials at a
            time, column by column (``_tally``): per coordinate, one sum of
            the chunk's *derived* randomness (``_randomness_columns``, never
            stored past the chunk), one block into :class:`StreamingTally`
            and one update of the vote-set digest per chunk.  The shard
            flushes one combined commitment + opening at the end —
            O(num_options) exponentiations per shard regardless of shard
            size.

SHA-256 calls per cast ballot with 2 options: 8 = digest, vote code, salt, the
EA's commitment, admission's commitment of the submitted code, randomness base,
one per randomness coordinate.  ``docs/ARCHITECTURE.md`` ("Scale pipeline") has
the table.  Each derivation domain has one hash state pre-fed with its constant
length-prefixed parts; a serial costs ``copy()`` + one ``update``.  The
``_ballot_digest`` / ``_vote_code`` / ``_code_commitment`` / ``_randomness`` /
``ea_commitment_table`` methods are the per-serial *reference* (one
``crypto.utils.sha256(*parts)`` call per value); ``run`` checks its kernel
against them on each shard's first cast serial and the tests do over whole
ranges.

The result is a :class:`ShardSliceResult`: the :class:`ShardCommitRecord`
and its opening, ready for the cross-shard merge.  Because per-ballot
choices and randomness depend only on ``(seed, election_id, serial)``, the
merged tally — counts *and* combined commitment — is identical for every
shard count.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from typing import List, Mapping, Optional, Sequence, Tuple

from repro.consensus.cluster import ConsensusCluster
from repro.crypto.commitments import OptionEncodingScheme
from repro.crypto.utils import int_to_bytes, sha256
from repro.shard.partition import ShardRange
from repro.shard.records import ShardCommitRecord, ShardSliceResult
from repro.shard.streaming import StreamingTally


class VoteCodeRejected(RuntimeError):
    """A submitted vote code does not open the EA's salted commitment."""

    def __init__(self, shard_id: int, serial: int):
        super().__init__(
            f"shard {shard_id}: vote code for serial {serial} does not match "
            f"the EA's salted commitment"
        )
        self.shard_id = shard_id
        self.serial = serial

    def __reduce__(self):
        # Default exception pickling replays ``args`` (the formatted message)
        # into ``__init__``, which takes (shard_id, serial) -- rebuild from
        # the attributes instead so the error survives the process boundary.
        return (VoteCodeRejected, (self.shard_id, self.serial))


#: ``crypto.utils.sha256`` framing of a 32-byte part's length.
_LEN32 = (32).to_bytes(8, "big")


def _framed(part: bytes) -> bytes:
    """One part as ``crypto.utils.sha256`` feeds it: 8-byte length, then the bytes."""
    return len(part).to_bytes(8, "big") + part


def _domain_state(*parts: bytes, then: bytes = b""):
    """A SHA-256 state that has absorbed a derivation's constant leading parts.

    ``state.copy()`` + one ``update`` of the framed variable parts then gives
    the digest ``sha256(*parts, ...)`` gives, without re-hashing the constants.
    """
    return hashlib.sha256(b"".join(map(_framed, parts)) + then)


def _framed_serials(lo: int, hi: int) -> List[bytes]:
    """``_framed(int_to_bytes(serial))`` for every serial in ``[lo, hi)``.

    ``int_to_bytes`` is minimal-length, so the width steps up at 256, 65536,
    ...; each run of equal width shares its length prefix.
    """
    framed: List[bytes] = []
    while lo < hi:
        width = max(1, (lo.bit_length() + 7) // 8)
        stop = min(hi, 1 << (8 * width))
        prefix = width.to_bytes(8, "big")
        framed.extend([prefix + serial.to_bytes(width, "big") for serial in range(lo, stop)])
        lo = stop
    return framed


@dataclass
class _CastBallots:
    """What the one-pass derivation keeps until the tally ends, per cast serial."""

    serials: List[int]
    #: ``_framed(int_to_bytes(serial))``: what the serial-keyed domains hash.
    framed: List[bytes]
    choices: List[int]
    codes: List[bytes]


#: Vote collectors and Vote Set Consensus superblock size of every shard
#: slice the scale pipeline runs.
SCALE_COLLECTORS = 4
SCALE_BATCH_SIZE = 1024

#: Cast serials the tally kernel takes at a time.  Its lists (a base digest
#: per serial, a randomness column per coordinate, the vote-set bytes) live
#: for one chunk, so the tally adds O(chunk) live heap, not O(shard): its
#: traced peak is 367 KiB at 2,048 and at 8,192 ballots, where one chunk of
#: the whole shard peaks at 609 KiB and 2.36 MiB.  The size costs no time: a
#: 12,500-ballot shard tallied in 31.7 / 31.4 / 32.9 ms at 256 / 1,024 / all
#: of it per chunk (min of 15 fresh runs each, 2-vCPU VM).
TALLY_CHUNK = 1024


class ShardRunner:
    """Run the election slice for one contiguous ballot-serial range."""

    def __init__(
        self,
        shard: ShardRange,
        scheme: OptionEncodingScheme,
        seed: int,
        election_id: str,
        consensus_batch_size: int = SCALE_BATCH_SIZE,
        silent_collectors: Sequence[int] = (),
        tampered_codes: Optional[Mapping[int, bytes]] = None,
    ):
        if consensus_batch_size < 1:
            raise ValueError("consensus_batch_size must be at least 1")
        self.shard = shard
        self.scheme = scheme
        self.seed = seed
        self.election_id = election_id
        self.consensus_batch_size = consensus_batch_size
        self.silent_collectors = tuple(silent_collectors)
        #: fault-injection hook: serial -> the (wrong) code that voter submits.
        self.tampered_codes = dict(tampered_codes or {})
        self._seed_bytes = int_to_bytes(seed)
        self._id_bytes = election_id.encode("utf-8")
        # One pre-fed state per derivation domain: the one-pass kernel copies
        # them instead of re-hashing the constant parts for every serial.
        self._ballot_state = _domain_state(b"shard-ballot", self._seed_bytes, self._id_bytes)
        self._code_state = _domain_state(b"shard-vote-code", then=_LEN32)
        self._salt_state = _domain_state(b"shard-salt", self._seed_bytes)
        self._commit_state = _domain_state(b"shard-code-commit", then=_LEN32)
        self._rand_state = _domain_state(b"shard-rand", self._seed_bytes, self._id_bytes)

    # -- deterministic per-ballot derivation: the per-serial reference -----------

    def _ballot_digest(self, serial: int) -> bytes:
        return sha256(
            b"shard-ballot", self._seed_bytes, self._id_bytes, int_to_bytes(serial)
        )

    def choice_of(self, serial: int) -> int:
        digest = self._ballot_digest(serial)
        return int.from_bytes(digest[:8], "big") % self.scheme.num_options

    def _vote_code(self, digest: bytes) -> bytes:
        return sha256(b"shard-vote-code", digest)[:16]

    def _code_commitment(self, serial: int, code: bytes) -> bytes:
        salt = sha256(b"shard-salt", self._seed_bytes, int_to_bytes(serial))
        return sha256(b"shard-code-commit", salt, code)

    def _randomness(self, serial: int) -> Tuple[int, ...]:
        order = self.scheme.group.order
        base = sha256(b"shard-rand", self._seed_bytes, self._id_bytes, int_to_bytes(serial))
        return tuple(
            int.from_bytes(sha256(base, int_to_bytes(coordinate)), "big") % order
            for coordinate in range(self.scheme.num_options)
        )

    def ea_commitment_table(self) -> List[bytes]:
        """EA setup: the salted code commitment of every serial, indexed by
        ``serial - lo``.

        This table is what admission checks submitted codes *against* -- it
        must exist before any vote is accepted, exactly like the EA's
        published election data in the full simulator.  O(shard) 32-byte
        entries.  ``run`` builds the same commitments in ``_derive_cast``.
        """
        return [
            self._code_commitment(serial, self._vote_code(self._ballot_digest(serial)))
            for serial in range(self.shard.lo, self.shard.hi)
        ]

    # -- the one-pass derivation ``run`` uses -------------------------------------

    def _derive_cast(self) -> Tuple[_CastBallots, List[bytes], List[bytes]]:
        """EA setup: every serial's ballot digest, hashed once.

        Returns the cast ballots plus, parallel to them, the salts and the
        salted code commitments (the EA table admission checks against).
        Digests are byte-identical to ``_ballot_digest`` / ``_vote_code`` /
        ``_code_commitment``: same domains, same length framing.
        """
        ballot_state, code_state = self._ballot_state, self._code_state
        salt_state, commit_state = self._salt_state, self._commit_state
        num_options = self.scheme.num_options
        code_length = (16).to_bytes(8, "big")
        cast = _CastBallots([], [], [], [])
        salts: List[bytes] = []
        committed: List[bytes] = []
        for serial, framed in enumerate(
            _framed_serials(self.shard.lo, self.shard.hi), self.shard.lo
        ):
            h = ballot_state.copy()
            h.update(framed)
            digest = h.digest()
            h = code_state.copy()
            h.update(digest)
            code = h.digest()[:16]
            h = salt_state.copy()
            h.update(framed)
            salt = h.digest()
            h = commit_state.copy()
            h.update(salt + code_length + code)
            cast.serials.append(serial)
            cast.framed.append(framed)
            cast.choices.append(int.from_bytes(digest[:8], "big") % num_options)
            cast.codes.append(code)
            salts.append(salt)
            committed.append(h.digest())
        return cast, salts, committed

    # -- the column kernel of the tally --------------------------------------------

    def _randomness_columns(self, framed_serials: Sequence[bytes]) -> List[List[int]]:
        """Per coordinate, the randomness of every serial in ``framed_serials``,
        *unreduced*: column ``c`` holds coordinate ``c`` of ``_randomness`` mod
        the order.

        ``StreamingTally`` reduces the sums once, so the per-value ``%`` would
        only be repeated work.
        """
        copy = self._rand_state.copy
        bases = []
        for framed in framed_serials:
            h = copy()
            h.update(framed)
            bases.append(_LEN32 + h.digest())
        coordinates = [
            _framed(int_to_bytes(coordinate)) for coordinate in range(self.scheme.num_options)
        ]
        from_bytes, hash_of = int.from_bytes, hashlib.sha256
        return [
            [from_bytes(hash_of(base + coordinate).digest(), "big") for base in bases]
            for coordinate in coordinates
        ]

    def _tally(self, cast: _CastBallots) -> Tuple[StreamingTally, bytes, Tuple[int, ...]]:
        """Tally ``cast`` and digest it as the vote set, ``TALLY_CHUNK`` serials at a time.

        Per chunk: one randomness column per coordinate, summed; one block
        into the tally; one update of the vote-set digest with the chunk's
        ``int_to_bytes(serial) + code`` entries (the digest one update per
        serial gives).  Also returns the first cast serial's randomness as
        the kernel computed it, for ``_check_against_reference``.
        """
        tally = StreamingTally(self.scheme)
        vote_set_hash = hashlib.sha256(b"shard-vote-set")
        first: Tuple[int, ...] = ()
        for start in range(0, len(cast.serials), TALLY_CHUNK):
            stop = start + TALLY_CHUNK
            framed = cast.framed[start:stop]
            columns = self._randomness_columns(framed)
            if not start:
                first = tuple(column[0] for column in columns)
            tally.add_vote(cast.choices[start:stop], [sum(column) for column in columns])
            vote_set_hash.update(b"".join([
                framed_serial[8:] + code
                for framed_serial, code in zip(framed, cast.codes[start:stop], strict=True)
            ]))
        return tally, vote_set_hash.digest(), first

    def _check_against_reference(
        self, cast: _CastBallots, commitment: bytes, randomness: Tuple[int, ...]
    ) -> None:
        """The kernels must equal the per-serial reference on the first cast serial.

        ``commitment`` is the EA table's first entry and ``randomness`` the
        tally kernel's (unreduced) values for the same serial.  The EA table,
        admission and the tally all read one derivation, so a framing slip in
        it would be self-consistent: the election would verify and commit to
        different ballots than ``(seed, election_id)`` defines.
        """
        serial = cast.serials[0]
        code = self._vote_code(self._ballot_digest(serial))
        order = self.scheme.group.order
        kernel = (
            cast.choices[0],
            cast.codes[0],
            commitment,
            tuple(r % order for r in randomness),
        )
        reference = (
            self.choice_of(serial),
            code,
            self._code_commitment(serial, code),
            self._randomness(serial),
        )
        if kernel != reference:
            raise RuntimeError(
                f"shard {self.shard.shard_id}: one-pass derivation of serial "
                f"{serial} differs from the per-serial reference"
            )

    # -- the slice -------------------------------------------------------------

    def run(self) -> ShardSliceResult:
        started = time.perf_counter_ns()

        # Phase 0: EA setup.  The salted commitment of every castable serial
        # is fixed before admission starts, so the admission check below
        # compares the *submitted* code against an independent, precomputed
        # commitment (not against a value re-derived from the same code).
        cast, salts, committed = self._derive_cast()

        # Phase 1: admission.  The responsible collector hashes the submitted
        # code under the ballot's salt and checks it against the EA table;
        # every collector records its opinion bit for Vote Set Consensus.
        tampered, commit_state = self.tampered_codes, self._commit_state
        for serial, code, salt, commitment in zip(
            cast.serials, cast.codes, salts, committed, strict=True
        ):
            h = commit_state.copy()
            h.update(salt + _framed(tampered.get(serial, code)))
            if h.digest() != commitment:
                raise VoteCodeRejected(self.shard.shard_id, serial)
        first_commitment = committed[0]
        del salts, committed
        opinions = dict.fromkeys(cast.serials, 1)

        # Phase 2: superblock Vote Set Consensus among the shard's collectors.
        cluster = ConsensusCluster(
            num_nodes=SCALE_COLLECTORS,
            batch_size=self.consensus_batch_size,
            silent=self.silent_collectors,
        )
        outcome = cluster.run(opinions)
        if not outcome.agreed:
            raise RuntimeError(f"shard {self.shard.shard_id}: collectors disagreed")
        if list(outcome.decided_serials()) != cast.serials:
            raise RuntimeError(
                f"shard {self.shard.shard_id}: the decided vote set is not the admitted one"
            )
        del opinions, cluster

        # Phase 3: streaming tally + vote-set digest over the decided set, then
        # the kernels against the per-serial reference before anything is
        # published.
        tally, vote_set_digest, first_randomness = self._tally(cast)
        self._check_against_reference(cast, first_commitment, first_randomness)

        record = ShardCommitRecord(
            shard_id=self.shard.shard_id,
            serial_lo=self.shard.lo,
            serial_hi=self.shard.hi,
            ballots_registered=self.shard.span,
            ballots_cast=len(cast.serials),
            commitment=tally.commit(),
            vote_set_digest=vote_set_digest,
        )
        return ShardSliceResult(
            record=record,
            opening=tally.opening(),
            messages_sent=outcome.messages_sent,
            superblocks_fast=outcome.superblocks_fast,
            superblocks_fallback=outcome.superblocks_fallback,
            duration_ns=time.perf_counter_ns() - started,
        )
