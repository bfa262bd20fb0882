"""Randomized small-exponent batch verification for the audit hot path.

End-of-election verification is dominated by modular exponentiation: every
Schnorr signature, Chaum-Pedersen Sigma-OR proof and commitment opening on
the bulletin board is re-checked one at a time, two to eight exponentiations
each.  Standard batch-Schnorr techniques (Bellare-Garay-Rabin small-exponent
batching) collapse ``N`` such checks into a handful of multi-exponentiations:

* draw an independent random exponent ``z_i`` of ``security_bits`` bits for
  every verification equation;
* multiply the ``z_i``-th powers of all equations together and test the one
  aggregated equation.

If every individual equation holds, the aggregate holds for *any* choice of
``z_i``; if any is violated, the aggregate survives with probability at most
``2^-security_bits`` (the standard Schwartz-Zippel argument in the exponent;
an audit of ``k`` equations errs with probability at most ``k *
2^-security_bits``).  The
aggregate costs one fixed-base exponentiation per distinct fixed base
(``g`` and the public key) plus one :meth:`Group.multi_power` whose
variable-base factors carry only ``security_bits``-wide exponents -- which is
where the 3x+ speedup over per-item verification comes from.  How that
product is evaluated is the group's business: a chunk of the audit has
hundreds to thousands of factors and goes through the byte-digit bucket
kernel, the handful of a UCERT or the halves deep in a bisection through the
bit scan.  Either returns the same element, so the soundness argument, every
verdict and every culprit list are those of the equation, not of its
evaluation.

A failing batch is *bisected*: both halves are re-batched recursively until
the culprit items are pinned down by exact individual verification, so the
caller gets the same per-item verdicts a serial audit would produce, at
logarithmic extra cost when failures are rare.

All verifiers come in two forms: methods on :class:`BatchVerifier`, and
picklable chunk tasks (:class:`SignatureBatchTask` & friends) matching the
``chunk_fn(chunk, seed)`` contract of
:func:`repro.perf.parallel.parallel_chunk_map`, so the audit can fan batches
out across a process pool with per-chunk deterministic randomness.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

from repro.crypto.commitments import CommitmentOpening, OptionCommitment, OptionEncodingScheme
from repro.crypto.group import Group, GroupElement, Terms, default_group
from repro.crypto.signatures import SchnorrSignature, SignatureScheme
from repro.crypto.utils import RandomSource, default_random
from repro.crypto.zkp import BallotCorrectnessVerifier, BallotProofAnnouncement, BallotProofResponse
from repro.values import frozen_value

#: Default width of the random batching exponents; soundness error 2^-64 per
#: aggregated equation.
DEFAULT_SECURITY_BITS = 64


# ---------------------------------------------------------------------------
# Batch items and outcomes
# ---------------------------------------------------------------------------


@frozen_value
class SignatureItem:
    """One Schnorr signature check: ``signature`` on ``message`` under ``public``."""

    public: GroupElement
    message: bytes
    signature: SchnorrSignature


@frozen_value
class ProofItem:
    """One ballot-correctness proof check (the unit verified by
    :meth:`repro.crypto.zkp.BallotCorrectnessVerifier.verify`)."""

    commitment: OptionCommitment
    announcement: BallotProofAnnouncement
    challenge: int
    response: BallotProofResponse


@frozen_value
class OpeningItem:
    """One commitment-opening check: does ``opening`` open ``commitment``?"""

    commitment: OptionCommitment
    opening: CommitmentOpening


@frozen_value
class BatchOutcome:
    """Verdict of one batched verification.

    ``bad_indices`` lists the positions (into the verified sequence) of every
    item that failed, located by bisection; ``equations`` counts how many
    aggregated multi-exponentiation checks were evaluated, which is the cost
    the batch saved compared to ``checked`` individual verifications.
    """

    ok: bool
    checked: int
    bad_indices: Tuple[int, ...] = ()
    equations: int = 0

    def offset(self, base: int) -> "BatchOutcome":
        """Shift ``bad_indices`` by ``base`` (chunk-local to global indices)."""
        if not self.bad_indices:
            return self
        return BatchOutcome(
            ok=self.ok,
            checked=self.checked,
            bad_indices=tuple(index + base for index in self.bad_indices),
            equations=self.equations,
        )


def merge_outcomes(outcomes: Sequence[BatchOutcome]) -> BatchOutcome:
    """Combine per-chunk outcomes (in chunk order) into one global outcome."""
    merged_bad: List[int] = []
    checked = 0
    equations = 0
    for outcome in outcomes:
        merged_bad.extend(outcome.offset(checked).bad_indices)
        checked += outcome.checked
        equations += outcome.equations
    return BatchOutcome(
        ok=not merged_bad,
        checked=checked,
        bad_indices=tuple(merged_bad),
        equations=equations,
    )


# ---------------------------------------------------------------------------
# The batch verifier
# ---------------------------------------------------------------------------


class BatchVerifier:
    """Randomized batch verification with bisection of failing batches.

    Not thread-safe: each verify call mutates the equation counter and the
    RNG.  Create one verifier per chunk/thread (they are cheap).
    """

    def __init__(
        self,
        group: Optional[Group] = None,
        security_bits: int = DEFAULT_SECURITY_BITS,
        rng: Optional[RandomSource] = None,
    ):
        if security_bits < 8:
            raise ValueError("batch security parameter must be at least 8 bits")
        self.group = group or default_group()
        if (1 << security_bits) >= self.group.order:
            raise ValueError("batch exponents must be shorter than the group order")
        self.security_bits = security_bits
        self.rng = rng or default_random()
        self._equations = 0
        self._proof_public_key: Optional[GroupElement] = None
        self._opening_public_key: Optional[GroupElement] = None

    def _small_exponent(self) -> int:
        """A uniformly random nonzero ``security_bits``-bit batching exponent."""
        return self.rng.randint_range(1, 1 << self.security_bits)

    # -- Schnorr signatures -------------------------------------------------

    def verify_signatures(self, items: Sequence[SignatureItem]) -> BatchOutcome:
        """Batch-verify Schnorr signatures.

        Uses the commitment ``R`` carried by signatures produced in-process
        (``SchnorrSignature.commitment``): the Fiat-Shamir binding
        ``c == H(X, R, m)`` is re-hashed per item (cheap), and the group
        equations ``g^s == R * X^c`` are aggregated into one
        multi-exponentiation with per-signer fixed-base terms.  Signatures
        without a stored commitment (e.g. deserialized ones) fall back to
        exact individual verification.
        """
        items = list(items)
        self._equations = 0
        q = self.group.order
        scheme = SignatureScheme(self.group)
        bad: List[int] = []
        candidates: List[Tuple[int, SignatureItem]] = []
        for index, item in enumerate(items):
            if item.signature.commitment is None:
                if not scheme.verify(item.public, item.message, item.signature):
                    bad.append(index)
                continue
            expected = self.group.hash_to_scalar(
                b"d-demos-schnorr-sig",
                item.public.serialize(),
                item.signature.commitment.serialize(),
                item.message,
            )
            # Strict equality and range (no reduction): the individual
            # verifier refuses a non-canonical challenge or response, so the
            # batch must too for batch <=> individual agreement.
            if expected != item.signature.challenge or not 0 <= item.signature.response < q:
                bad.append(index)
                continue
            candidates.append((index, item))
        single = _SingleSignature(scheme)
        bad.extend(self._check(candidates, self._signature_equation, single))
        return self._outcome(len(items), bad)

    def _signature_equation(self, items: Sequence[SignatureItem]) -> bool:
        """``g^{sum z_i s_i} == prod R_i^{z_i} * prod_X X^{sum z_i c_i}``."""
        self._equations += 1
        q = self.group.order
        response_exp = 0
        commitments = Terms()
        bases, exponents = commitments.bases, commitments.exponents
        per_key: dict = {}
        for item in items:
            z = self._small_exponent()
            response_exp += z * item.signature.response
            bases.append(item.signature.commitment)
            exponents.append(z)
            key = item.public.serialize()
            entry = per_key.setdefault(key, [item.public, 0])
            entry[1] += z * item.signature.challenge
        lhs = self.group.power_g(response_exp % q)
        rhs = self.group.multi_power(commitments)
        for public, exponent in per_key.values():
            rhs = rhs * self.group.cached_power(public, exponent % q)
        return lhs == rhs

    # -- ballot-correctness proofs -------------------------------------------

    def verify_proofs(
        self, public_key: GroupElement, items: Sequence[ProofItem]
    ) -> BatchOutcome:
        """Batch-verify Chaum-Pedersen Sigma-OR ballot proofs.

        All 0/1 OR branches and sum-is-one checks of every item collapse into
        one aggregated equation ``g^{e_g} * y^{e_y} == multi_power(...)``.
        The sum proof's product ciphertext ``prod_j C_j`` is folded into the
        per-coordinate ciphertext exponents, so no products are materialized.
        """
        items = list(items)
        self._equations = 0
        q = self.group.order
        bad: List[int] = []
        candidates: List[Tuple[int, ProofItem]] = []
        for index, item in enumerate(items):
            num = len(item.commitment.ciphertexts)
            if (
                len(item.announcement.or_announcements) != num
                or len(item.response.or_responses) != num
            ):
                bad.append(index)
                continue
            challenge = item.challenge % q
            if any(
                (resp.challenge0 + resp.challenge1) % q != challenge
                for resp in item.response.or_responses
            ):
                bad.append(index)
                continue
            candidates.append((index, item))
        self._proof_public_key = public_key
        single = _SingleProof(public_key, self.group)
        bad.extend(self._check(candidates, self._proof_equation, single))
        return self._outcome(len(items), bad)

    def _proof_equation(self, items: Sequence[ProofItem]) -> bool:
        self._equations += 1
        group = self.group
        q = group.order
        generator_exp = 0
        key_exp = 0
        small, wide = Terms(), Terms()
        small_bases, small_exponents = small.bases, small.exponents
        wide_bases, wide_exponents = wide.bases, wide.exponents
        public_key = self._proof_public_key
        for item in items:
            challenge = item.challenge % q
            # Sum proof: g^{ss} == a_s * P_a^{ch}  and  y^{ss} g^{ch} == b_s * P_b^{ch}
            # where (P_a, P_b) is the component-wise ciphertext product.
            z5 = self._small_exponent()
            z6 = self._small_exponent()
            ss = item.response.sum_response.response
            generator_exp += z5 * ss + z6 * challenge
            key_exp += z6 * ss
            sum_announcement = item.announcement.sum_announcement
            small_bases += (sum_announcement.a, sum_announcement.b)
            small_exponents += (z5, z6)
            for ciphertext, ann, resp in zip(
                item.commitment.ciphertexts,
                item.announcement.or_announcements,
                item.response.or_responses,
                strict=False,
            ):
                z1 = self._small_exponent()
                z2 = self._small_exponent()
                z3 = self._small_exponent()
                z4 = self._small_exponent()
                # z1: g^{s0} == a0 * A^{c0}        z3: g^{s1} == a1 * A^{c1}
                # z2: y^{s0} == b0 * B^{c0}        z4: y^{s1} g^{c1} == b1 * B^{c1}
                generator_exp += z1 * resp.response0 + z3 * resp.response1
                generator_exp += z4 * resp.challenge1
                key_exp += z2 * resp.response0 + z4 * resp.response1
                small_bases += (ann.a0, ann.b0, ann.a1, ann.b1)
                small_exponents += (z1, z2, z3, z4)
                wide_bases += (ciphertext.a, ciphertext.b)
                wide_exponents += (
                    (z1 * resp.challenge0 + z3 * resp.challenge1 + z5 * challenge) % q,
                    (z2 * resp.challenge0 + z4 * resp.challenge1 + z6 * challenge) % q,
                )
        lhs = group.power_g(generator_exp % q) * group.cached_power(public_key, key_exp % q)
        # Two multi-exponentiations: the announcement factors carry only
        # security_bits-wide exponents, and mixing them with the full-width
        # ciphertext exponents would scan every pair over all 256 bits.
        rhs = group.multi_power(small) * group.multi_power(wide)
        return lhs == rhs

    # -- commitment openings --------------------------------------------------

    def verify_openings(
        self, public_key: GroupElement, items: Sequence[OpeningItem]
    ) -> BatchOutcome:
        """Batch-verify commitment openings ``(values, randomness)``.

        Per coordinate ``j`` the opening claims ``a_j == g^{r_j}`` and
        ``b_j == g^{m_j} y^{r_j}``; both sides are aggregated so the whole
        batch costs two fixed-base exponentiations plus one multi-power whose
        exponents are all ``security_bits`` wide.
        """
        items = list(items)
        self._equations = 0
        bad: List[int] = []
        candidates: List[Tuple[int, OpeningItem]] = []
        for index, item in enumerate(items):
            num = len(item.commitment.ciphertexts)
            if len(item.opening.values) != num or len(item.opening.randomness) != num:
                bad.append(index)
                continue
            candidates.append((index, item))
        self._opening_public_key = public_key
        single = _SingleOpening(public_key, self.group)
        bad.extend(self._check(candidates, self._opening_equation, single))
        return self._outcome(len(items), bad)

    def _opening_equation(self, items: Sequence[OpeningItem]) -> bool:
        self._equations += 1
        group = self.group
        q = group.order
        generator_exp = 0
        key_exp = 0
        terms = Terms()
        bases, exponents = terms.bases, terms.exponents
        public_key = self._opening_public_key
        for item in items:
            for ciphertext, value, randomness in zip(
                item.commitment.ciphertexts, item.opening.values, item.opening.randomness,
                strict=False,
            ):
                z = self._small_exponent()
                w = self._small_exponent()
                # z: a == g^{r}      w: b == g^{m} y^{r}
                generator_exp += z * randomness + w * value
                key_exp += w * randomness
                bases += (ciphertext.a, ciphertext.b)
                exponents += (z, w)
        lhs = group.power_g(generator_exp % q) * group.cached_power(public_key, key_exp % q)
        return lhs == group.multi_power(terms)

    # -- shared batching / bisection machinery --------------------------------

    def _check(
        self,
        candidates: List[Tuple[int, object]],
        equation: Callable[[Sequence[object]], bool],
        single: Callable[[object], bool],
    ) -> List[int]:
        """Run one aggregated equation; bisect to locate culprits on failure."""
        if not candidates:
            return []
        if equation([item for _, item in candidates]):
            return []
        return self._bisect(candidates, equation, single)

    def _bisect(
        self,
        candidates: List[Tuple[int, object]],
        equation: Callable[[Sequence[object]], bool],
        single: Callable[[object], bool],
    ) -> List[int]:
        if len(candidates) == 1:
            index, item = candidates[0]
            return [] if single(item) else [index]
        middle = len(candidates) // 2
        bad: List[int] = []
        for half in (candidates[:middle], candidates[middle:]):
            if not equation([item for _, item in half]):
                bad.extend(self._bisect(half, equation, single))
        return bad

    def _outcome(self, checked: int, bad: List[int]) -> BatchOutcome:
        return BatchOutcome(
            ok=not bad,
            checked=checked,
            bad_indices=tuple(sorted(bad)),
            equations=self._equations,
        )


class _SingleSignature:
    """Exact per-item signature check used at bisection leaves."""

    def __init__(self, scheme: SignatureScheme):
        self.scheme = scheme

    def __call__(self, item: SignatureItem) -> bool:
        return self.scheme.verify(item.public, item.message, item.signature)


class _SingleProof:
    """Exact per-item ballot-proof check used at bisection leaves."""

    def __init__(self, public_key: GroupElement, group: Group):
        self.verifier = BallotCorrectnessVerifier(public_key, group)

    def __call__(self, item: ProofItem) -> bool:
        return self.verifier.verify(
            item.commitment, item.announcement, item.challenge, item.response
        )


class _SingleOpening:
    """Exact per-item opening check used at bisection leaves."""

    def __init__(self, public_key: GroupElement, group: Group):
        self.public_key = public_key
        self.group = group

    def __call__(self, item: OpeningItem) -> bool:
        # A leaf's item failed its own equation, so it has a coordinate.
        scheme = OptionEncodingScheme(len(item.commitment), self.public_key, self.group)
        return scheme.verify_opening(item.commitment, item.opening)


# ---------------------------------------------------------------------------
# Picklable chunk tasks for repro.perf.parallel
# ---------------------------------------------------------------------------


@frozen_value
class SignatureBatchTask:
    """``chunk_fn`` batching Schnorr signature chunks (parallel_chunk_map)."""

    security_bits: int = DEFAULT_SECURITY_BITS

    def __call__(self, chunk: Sequence[SignatureItem], seed: int) -> BatchOutcome:
        group = chunk[0].public.group
        verifier = BatchVerifier(group, self.security_bits, RandomSource(seed))
        return verifier.verify_signatures(chunk)


@frozen_value
class ProofBatchTask:
    """``chunk_fn`` batching ballot-proof chunks (parallel_chunk_map)."""

    public_key: GroupElement
    security_bits: int = DEFAULT_SECURITY_BITS

    def __call__(self, chunk: Sequence[ProofItem], seed: int) -> BatchOutcome:
        group = self.public_key.group
        verifier = BatchVerifier(group, self.security_bits, RandomSource(seed))
        return verifier.verify_proofs(self.public_key, chunk)


@frozen_value
class OpeningBatchTask:
    """``chunk_fn`` batching commitment-opening chunks (parallel_chunk_map)."""

    public_key: GroupElement
    security_bits: int = DEFAULT_SECURITY_BITS

    def __call__(self, chunk: Sequence[OpeningItem], seed: int) -> BatchOutcome:
        group = self.public_key.group
        verifier = BatchVerifier(group, self.security_bits, RandomSource(seed))
        return verifier.verify_openings(self.public_key, chunk)
