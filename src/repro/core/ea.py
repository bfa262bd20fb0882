"""The Election Authority (EA): trusted setup, then destroyed.

The EA produces the initialization data for every other component (Section
III-D) and is destroyed when setup completes; it never interacts with the
running election.  Concretely it generates:

* one ballot per voter (serial number, parts A and B, each with
  ``<vote-code, option, receipt>`` lines),
* the BB initialization data: per ballot and part, a *shuffled* list of
  ``<encrypted vote-code, payload>`` rows, where the payload is the
  option-encoding commitment and the first move of its Chaum-Pedersen proof,
  plus the commitment ``(H_msk, salt_msk)`` to the vote-code encryption key,
* the VC initialization data: per node, a signed Shamir share of ``msk`` and,
  per ballot row, the salted hash commitment to the vote code and a signed
  share of the receipt (threshold ``Nv - fv``),
* the trustee initialization data: per ballot part, one block of Pedersen VSS
  shares of the rows' commitment openings and one of Shamir shares of their
  zero-knowledge prover state (threshold ``ht``) -- fixed-width scalars
  packed as they are dealt, laid out as
  :class:`repro.core.ballot.TrusteeBallotView` says,
* all key pairs: VC signing keys, trustee signing keys, the dealer key used
  to sign shares, and the ElGamal commitment key (whose secret is discarded).

What is and is not computed.  Per ballot row of an ``m``-option election the
EA pays ``3m`` fixed-base table lookups for the option-encoding commitment,
``5m + 2`` for the proof's first move and ``Nv`` for the signed receipt
shares -- each of them part of something a component receives.  The Pedersen
VSS check values of the ``2m`` dealings per row (``4 * m * ht`` lookups) are
*not* computed: no component's initialization data carries them (see
"Deviations from the paper" in ``docs/ARCHITECTURE.md``), so the EA asks for
the evaluations alone, packs each trustee's scalars of the row into bytes on
the spot, and no sharing polynomial -- and no per-share object -- outlives its
row.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.ballot import (
    PART_A,
    PART_B,
    PARTS,
    Ballot,
    BallotLine,
    BallotPart,
    BbBallotRow,
    BbBallotView,
    TrusteeBallotView,
    VcBallotRow,
    VcBallotView,
)
from repro.core.election import ElectionParameters
from repro.crypto.commitments import OptionEncodingScheme
from repro.crypto.elgamal import LiftedElGamal
from repro.crypto.group import Group, default_group
from repro.crypto.pedersen_vss import PedersenVSS
from repro.crypto.shamir import ShamirSecretSharing, SigningDealer, pack_scalars, scalar_width
from repro.crypto.signatures import SchnorrKeyPair, SignatureScheme
from repro.crypto.symmetric import (
    VoteCodeCipher,
    commit_vote_code,
    random_receipt,
    random_vote_code,
)
from repro.crypto.utils import RandomSource, bytes_to_int, default_random
from repro.crypto.zkp import BallotCorrectnessProver


def vc_node_id(index: int) -> str:
    """Canonical identifier of the ``index``-th Vote Collector node."""
    return f"VC-{index}"


def bb_node_id(index: int) -> str:
    """Canonical identifier of the ``index``-th Bulletin Board node."""
    return f"BB-{index}"


def trustee_id(index: int) -> str:
    """Canonical identifier of the ``index``-th trustee."""
    return f"T-{index}"


def voter_id(index: int) -> str:
    """Canonical identifier of the ``index``-th voter."""
    return f"voter-{index}"


@dataclass
class VcInitData:
    """Everything one VC node receives from the EA."""

    node_id: str
    signing_keys: SchnorrKeyPair
    msk_share: "SignedShare"
    ballots: Dict[int, VcBallotView]
    vc_public_keys: Dict[str, object]
    dealer_public_key: object


@dataclass
class BbInitData:
    """Everything a BB node receives (identical for every BB node)."""

    key_commitment: "KeyCommitment"
    ballots: Dict[int, BbBallotView]
    commitment_public_key: object
    vc_public_keys: Dict[str, object]
    trustee_public_keys: Dict[str, object]
    dealer_public_key: object


@dataclass
class TrusteeInitData:
    """Everything one trustee receives from the EA."""

    trustee_id: str
    signing_keys: SchnorrKeyPair
    ballots: Dict[int, TrusteeBallotView]
    commitment_public_key: object


@dataclass
class ElectionSetup:
    """The full output of the EA setup phase.

    The engine hands each sub-structure to the component it belongs to;
    holding the whole object in one place is a test convenience, not a
    statement that any running component sees all of it.
    """

    params: ElectionParameters
    group: Group
    commitment_public_key: object
    ballots: List[Ballot]
    vc_init: Dict[str, VcInitData]
    bb_init: BbInitData
    trustee_init: Dict[str, TrusteeInitData]
    #: permutations pi^X_l used to shuffle each part's rows (kept only so the
    #: test-suite can cross-check views; a real EA would destroy them).
    permutations: Dict[Tuple[int, str], Tuple[int, ...]] = field(default_factory=dict)

    def ballot_by_serial(self, serial: int) -> Ballot:
        for ballot in self.ballots:
            if ballot.serial == serial:
                return ballot
        raise KeyError(f"no ballot with serial {serial}")


class ElectionAuthority:
    """Runs the trusted setup of Section III-D and returns :class:`ElectionSetup`."""

    def __init__(
        self,
        params: ElectionParameters,
        group: Optional[Group] = None,
        rng: Optional[RandomSource] = None,
        include_proofs: bool = True,
        include_trustee_data: bool = True,
    ):
        self.params = params
        self.group = group or default_group()
        self.rng = rng or default_random()
        self.include_proofs = include_proofs
        self.include_trustee_data = include_trustee_data

    # -- top-level ---------------------------------------------------------------

    def setup(self) -> ElectionSetup:
        """Produce initialization data for every component of the system."""
        params = self.params
        thresholds = params.thresholds
        num_vc = thresholds.num_vc
        receipt_threshold = thresholds.vc_honest_quorum

        # Keys.
        elgamal = LiftedElGamal(self.group)
        commitment_keys = elgamal.keygen(self.rng)
        scheme = OptionEncodingScheme(params.num_options, commitment_keys.public, self.group)
        prover = BallotCorrectnessProver(commitment_keys.public, self.group)
        signature_scheme = SignatureScheme(self.group)
        vc_keys = {vc_node_id(i): signature_scheme.keygen(self.rng) for i in range(num_vc)}
        trustee_keys = {
            trustee_id(i): signature_scheme.keygen(self.rng)
            for i in range(thresholds.num_trustees)
        }
        vc_public_keys = {node: keys.public for node, keys in vc_keys.items()}
        trustee_public_keys = {node: keys.public for node, keys in trustee_keys.items()}

        # Master key protecting the vote codes on the BB, shared across VC nodes.
        msk = VoteCodeCipher.generate_key(self.rng)
        cipher = VoteCodeCipher(msk)
        key_commitment = cipher.key_commitment(self.rng)
        receipt_dealer = SigningDealer(receipt_threshold, num_vc, group=self.group)
        msk_shares = receipt_dealer.deal(bytes_to_int(msk), b"msk", rng=self.rng)

        # Secret-sharing machinery for the trustees.
        pedersen = PedersenVSS(thresholds.trustee_threshold, thresholds.num_trustees, self.group)
        zk_sharer = ShamirSecretSharing(
            thresholds.trustee_threshold, thresholds.num_trustees, prime=self.group.order
        )

        ballots: List[Ballot] = []
        vc_ballots: Dict[str, Dict[int, VcBallotView]] = {node: {} for node in vc_keys}
        bb_ballots: Dict[int, BbBallotView] = {}
        trustee_ballots: Dict[str, Dict[int, TrusteeBallotView]] = {
            node: {} for node in trustee_keys
        }
        permutations: Dict[Tuple[int, str], Tuple[int, ...]] = {}
        used_serials = set()

        for _ in range(params.num_voters):
            serial = self._fresh_serial(used_serials)
            ballot, per_part_artifacts = self._build_ballot(
                serial, scheme, prover, cipher, receipt_dealer, pedersen, zk_sharer
            )
            ballots.append(ballot)
            for part_name, artifacts in per_part_artifacts.items():
                permutations[(serial, part_name)] = artifacts["permutation"]
            # Distribute the per-part artifacts into each subsystem's view.
            for vc_index, node in enumerate(vc_keys):
                rows = {
                    part_name: tuple(
                        VcBallotRow(
                            code_commitment=row["code_commitment"],
                            receipt_share=row["receipt_shares"][vc_index],
                        )
                        for row in artifacts["rows"]
                    )
                    for part_name, artifacts in per_part_artifacts.items()
                }
                vc_ballots[node][serial] = VcBallotView(serial, rows)
            bb_rows = {
                part_name: tuple(
                    BbBallotRow(
                        encrypted_vote_code=row["encrypted_vote_code"],
                        commitment=row["commitment"],
                        proof_announcement=row["announcement"],
                    )
                    for row in artifacts["rows"]
                )
                for part_name, artifacts in per_part_artifacts.items()
            }
            bb_ballots[serial] = BbBallotView(serial, bb_rows)
            if self.include_trustee_data:
                for t_index, node in enumerate(trustee_keys):
                    opening, zk = (
                        {
                            part_name: b"".join(row[kind][t_index] for row in artifacts["rows"])
                            for part_name, artifacts in per_part_artifacts.items()
                        }
                        for kind in ("opening_blocks", "zk_blocks")
                    )
                    trustee_ballots[node][serial] = TrusteeBallotView(serial, opening, zk)

        vc_init = {
            node: VcInitData(
                node_id=node,
                signing_keys=vc_keys[node],
                msk_share=msk_shares[index],
                ballots=vc_ballots[node],
                vc_public_keys=vc_public_keys,
                dealer_public_key=receipt_dealer.public_key,
            )
            for index, node in enumerate(vc_keys)
        }
        bb_init = BbInitData(
            key_commitment=key_commitment,
            ballots=bb_ballots,
            commitment_public_key=commitment_keys.public,
            vc_public_keys=vc_public_keys,
            trustee_public_keys=trustee_public_keys,
            dealer_public_key=receipt_dealer.public_key,
        )
        trustee_init = {
            node: TrusteeInitData(
                trustee_id=node,
                signing_keys=trustee_keys[node],
                ballots=trustee_ballots[node],
                commitment_public_key=commitment_keys.public,
            )
            for node in trustee_keys
        }

        # The EA is destroyed after setup: the ElGamal secret key and msk are
        # deliberately not part of the returned setup object.
        return ElectionSetup(
            params=params,
            group=self.group,
            commitment_public_key=commitment_keys.public,
            ballots=ballots,
            vc_init=vc_init,
            bb_init=bb_init,
            trustee_init=trustee_init,
            permutations=permutations,
        )

    # -- per-ballot construction -----------------------------------------------

    def _fresh_serial(self, used: set) -> int:
        from repro.crypto.symmetric import random_serial

        while True:
            serial = random_serial(self.rng)
            if serial not in used:
                used.add(serial)
                return serial

    def _build_ballot(
        self,
        serial: int,
        scheme: OptionEncodingScheme,
        prover: BallotCorrectnessProver,
        cipher: VoteCodeCipher,
        receipt_dealer: SigningDealer,
        pedersen: PedersenVSS,
        zk_sharer: ShamirSecretSharing,
    ) -> Tuple[Ballot, Dict[str, dict]]:
        """Build one voter ballot plus the per-part artifacts for every view."""
        params = self.params
        used_codes = set()
        parts = {}
        artifacts = {}
        for part_name in PARTS:
            lines = []
            canonical_rows = []
            for option_index, option in enumerate(params.options):
                vote_code = self._fresh_vote_code(used_codes)
                receipt = random_receipt(self.rng)
                lines.append(BallotLine(vote_code, option, receipt))
                canonical_rows.append(
                    self._build_row(
                        serial,
                        part_name,
                        option_index,
                        vote_code,
                        receipt,
                        scheme,
                        prover,
                        cipher,
                        receipt_dealer,
                        pedersen,
                        zk_sharer,
                    )
                )
            permutation = tuple(self.rng.permutation(params.num_options))
            shuffled_rows = [canonical_rows[source] for source in permutation]
            parts[part_name] = BallotPart(part_name, tuple(lines))
            artifacts[part_name] = {"rows": shuffled_rows, "permutation": permutation}
        ballot = Ballot(serial, parts[PART_A], parts[PART_B])
        return ballot, artifacts

    def _fresh_vote_code(self, used: set) -> bytes:
        while True:
            vote_code = random_vote_code(self.rng)
            if vote_code not in used:
                used.add(vote_code)
                return vote_code

    def _build_row(
        self,
        serial: int,
        part_name: str,
        option_index: int,
        vote_code: bytes,
        receipt: bytes,
        scheme: OptionEncodingScheme,
        prover: BallotCorrectnessProver,
        cipher: VoteCodeCipher,
        receipt_dealer: SigningDealer,
        pedersen: PedersenVSS,
        zk_sharer: ShamirSecretSharing,
    ) -> dict:
        """Build every artifact derived from one ballot line."""
        context = f"{serial}|{part_name}|{option_index}".encode()

        # VC side: hash commitment + signed receipt shares.
        code_commitment = commit_vote_code(vote_code, rng=self.rng)
        receipt_shares = receipt_dealer.deal(
            bytes_to_int(receipt), b"receipt|" + context, rng=self.rng
        )

        # BB side: encrypted vote code + commitment + ZK first move.
        encrypted_vote_code = cipher.encrypt(vote_code, rng=self.rng)
        commitment, opening = scheme.commit_option(option_index, rng=self.rng)
        announcement, zk_coefficients = None, []
        if self.include_proofs:
            announcement, state = prover.first_move(commitment, opening, rng=self.rng)
            zk_coefficients = self._zk_affine_coefficients(state)

        # Trustee side: Pedersen shares of the opening, Shamir shares of the
        # affine ZK coefficients -- per trustee, one packed block of each.
        # Only the bytes are kept: no sharing polynomial outlives the row.
        opening_blocks: List[bytes] = []
        zk_blocks: List[bytes] = []
        if self.include_trustee_data:
            width = scalar_width(self.group.order)
            opening_pairs = [
                pedersen.evaluations(secret, rng=self.rng)[0]
                for secret in (*opening.values, *opening.randomness)
            ]
            zk_values = [zk_sharer.evaluations(value, rng=self.rng) for value in zk_coefficients]
            for t_index in range(pedersen.num_shares):
                opening_blocks.append(pack_scalars(
                    (scalar for pairs in opening_pairs for scalar in pairs[t_index]), width
                ))
                zk_blocks.append(pack_scalars((values[t_index] for values in zk_values), width))

        return {
            "code_commitment": code_commitment,
            "receipt_shares": receipt_shares,
            "encrypted_vote_code": encrypted_vote_code,
            "commitment": commitment,
            "announcement": announcement,
            "opening_blocks": opening_blocks,
            "zk_blocks": zk_blocks,
        }

    def _zk_affine_coefficients(self, state) -> List[int]:
        """Express every final-move component as an affine function of the challenge.

        For each Sigma-OR proof the transcript components (c0, c1, s0, s1) are
        affine in the eventual challenge ``c``; the coefficients depend on the
        secret branch and the simulation values, so they are what gets secret-
        shared among the trustees.  For the real branch ``b``:
        ``c_b = c - c_fake`` and ``s_b = nonce + (c - c_fake) * r``; for the
        simulated branch the components are constants.

        Returns ``8m + 2`` scalars, ``const, lin`` adjacent: per option
        ``c0, c1, s0, s1``, then the sum proof's ``s``.  This order is the
        layout of a trustee's zk block.
        """
        q = self.group.order
        coefficients: List[int] = []
        for bit, randomness, nonce, fake_challenge, fake_response in state.or_state:
            # (challenge const, lin, response const, lin) of each branch
            real = ((-fake_challenge) % q, 1, (nonce - fake_challenge * randomness) % q,
                    randomness % q)
            fake = (fake_challenge % q, 0, fake_response % q, 0)
            zero, one = (real, fake) if bit == 0 else (fake, real)
            coefficients += (*zero[:2], *one[:2], *zero[2:], *one[2:])
        coefficients += (state.sum_nonce % q, sum(state.opening.randomness) % q)
        return coefficients


# Imported at the bottom to avoid a hard dependency cycle with ballot.py.
from repro.crypto.shamir import SignedShare  # noqa: E402
from repro.crypto.symmetric import KeyCommitment  # noqa: E402
