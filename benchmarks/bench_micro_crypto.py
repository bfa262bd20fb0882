"""Micro-benchmarks of the cryptographic substrates, plus the backend sweep.

These are not figures from the paper; they calibrate and sanity-check the
cost model used by the figure benchmarks (e.g. the relative cost of signature
verification vs. hashing) and track performance regressions of the library
itself.  They use pytest-benchmark's normal statistics (multiple rounds).

``test_backend_sweep`` times the registry backends side by side on the hot
primitives (fixed-base power, plain mod-exp, 8-way multi-exponentiation,
sign/verify) and writes ``benchmarks/results/micro_crypto_backends.json``.
When gmpy2 is installed (the ``.[fast]`` extra / the gmpy2 CI leg) the sweep
gates a >= 10x speedup of the gmpy2 backend over pure python on
``multi_power`` and ``fixed_base`` at the security-equivalent 2048-bit
parameterization -- at the 256-bit test parameters python's own bignums are
close enough to GMP that the toy rows are informational only.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.crypto.commitments import OptionEncodingScheme
from repro.crypto.elgamal import LiftedElGamal
from repro.crypto.gmpy2_backend import HAVE_GMPY2
from repro.crypto.group import RFC3526_MODP_2048
from repro.crypto.registry import get_group
from repro.crypto.shamir import ShamirSecretSharing
from repro.crypto.signatures import SignatureScheme
from repro.crypto.symmetric import VoteCodeCipher, commit_vote_code, random_vote_code
from repro.crypto.utils import RandomSource
from repro.crypto.zkp import (
    BallotCorrectnessProver,
    BallotCorrectnessVerifier,
    fiat_shamir_challenge,
)

GROUP = get_group("schnorr")
ELGAMAL = LiftedElGamal(GROUP)
KEYS = ELGAMAL.keygen(RandomSource(1))
SIGNER = SignatureScheme(GROUP)
SIGNING_KEYS = SIGNER.keygen(RandomSource(2))
SCHEME = OptionEncodingScheme(4, KEYS.public, GROUP)
PROVER = BallotCorrectnessProver(KEYS.public, GROUP)
VERIFIER = BallotCorrectnessVerifier(KEYS.public, GROUP)


@pytest.mark.benchmark(group="micro-crypto")
def test_bench_schnorr_sign(benchmark):
    benchmark(SIGNER.sign, SIGNING_KEYS, b"ENDORSEMENT|serial|vote-code")


@pytest.mark.benchmark(group="micro-crypto")
def test_bench_schnorr_verify(benchmark):
    signature = SIGNER.sign(SIGNING_KEYS, b"msg")
    benchmark(SIGNER.verify, SIGNING_KEYS.public, b"msg", signature)


@pytest.mark.benchmark(group="micro-crypto")
def test_bench_elgamal_encrypt(benchmark):
    benchmark(ELGAMAL.encrypt, KEYS.public, 1)


@pytest.mark.benchmark(group="micro-crypto")
def test_bench_option_commitment(benchmark):
    benchmark(SCHEME.commit_option, 2)


@pytest.mark.benchmark(group="micro-crypto")
def test_bench_zk_prove(benchmark):
    commitment, opening = SCHEME.commit_option(1)

    def prove():
        announcement, state = PROVER.first_move(commitment, opening)
        challenge = fiat_shamir_challenge(GROUP, commitment, announcement)
        return PROVER.respond(state, challenge)

    benchmark(prove)


@pytest.mark.benchmark(group="micro-crypto")
def test_bench_zk_verify(benchmark):
    commitment, opening = SCHEME.commit_option(1)
    announcement, state = PROVER.first_move(commitment, opening)
    challenge = fiat_shamir_challenge(GROUP, commitment, announcement)
    response = PROVER.respond(state, challenge)
    benchmark(VERIFIER.verify, commitment, announcement, challenge, response)


@pytest.mark.benchmark(group="micro-crypto")
def test_bench_shamir_share_and_reconstruct(benchmark):
    sss = ShamirSecretSharing(3, 4)

    def roundtrip():
        shares = sss.share(123456789, rng=RandomSource(5))
        return sss.reconstruct(shares[:3])

    benchmark(roundtrip)


@pytest.mark.benchmark(group="micro-crypto")
def test_bench_vote_code_hash_validation(benchmark):
    code = random_vote_code(RandomSource(6))
    commitment = commit_vote_code(code, rng=RandomSource(7))
    benchmark(commitment.matches, code)


@pytest.mark.benchmark(group="micro-crypto")
def test_bench_vote_code_encryption(benchmark):
    cipher = VoteCodeCipher(VoteCodeCipher.generate_key(RandomSource(8)))
    code = random_vote_code(RandomSource(9))
    benchmark(cipher.encrypt, code)


# ---------------------------------------------------------------------------
# Backend sweep
# ---------------------------------------------------------------------------

SMOKE = os.environ.get("BENCH_SMOKE") == "1"

RFC3526_2048 = RFC3526_MODP_2048

#: (row label, registry name, constructor params)
SWEEP_BACKENDS = [
    ("schnorr", "schnorr", {}),
    ("schnorr-gmpy2", "schnorr-gmpy2", {}),
    ("ed25519", "ed25519", {}),
    ("secp256k1", "secp256k1", {}),
    ("schnorr-2048", "schnorr", {"p": RFC3526_2048, "g": 4}),
    ("schnorr-gmpy2-2048", "schnorr-gmpy2", {"p": RFC3526_2048, "g": 4}),
]


def _time_us(fn, rounds: int) -> float:
    fn()  # warm up (builds fixed-base tables, caches, etc.)
    start = time.perf_counter()
    for _ in range(rounds):
        fn()
    return (time.perf_counter() - start) / rounds * 1e6


def _sweep_one(label: str, name: str, params: dict) -> dict:
    group = get_group(name, **params)
    rng = RandomSource(11)
    exps = [group.random_scalar(rng) for _ in range(10)]
    fb = group.fixed_base(group.generator())
    pairs = [(group.power_g(group.random_scalar(rng)), e) for e in exps[:8]]
    signer = SignatureScheme(group)
    keys = signer.keygen(rng)
    signature = signer.sign(keys, b"sweep")
    # Scale rounds to the cost: the 2048-bit pure rows are ~ms per op.
    slow = "2048" in label or label == "secp256k1"
    rounds = (3 if slow else 20) if SMOKE else (10 if slow else 100)
    return {
        "backend": label,
        "registry_name": name,
        "bits": group.p.bit_length() if hasattr(group, "p") else group.order.bit_length(),
        "element_bytes": group.element_bytes,
        "fixed_base_us": round(_time_us(lambda: fb.power(exps[0]), rounds), 1),
        "plain_power_us": round(
            _time_us(lambda: group.plain_power(pairs[0][0], exps[1]), rounds), 1
        ),
        "multi_power8_us": round(
            _time_us(lambda: group.multi_power(pairs), max(2, rounds // 3)), 1
        ),
        "sign_us": round(_time_us(lambda: signer.sign(keys, b"sweep"), rounds), 1),
        "verify_us": round(
            _time_us(lambda: signer.verify(keys.public, b"sweep", signature), rounds), 1
        ),
    }


@pytest.mark.benchmark(group="micro-crypto")
def test_backend_sweep(results_sink):
    """Time every registered backend on the hot primitives; gate gmpy2."""
    save, show = results_sink
    rows = [_sweep_one(label, name, params) for label, name, params in SWEEP_BACKENDS]
    by_label = {row["backend"]: row for row in rows}
    for row in rows:
        baseline = by_label["schnorr-2048" if "2048" in row["backend"] else "schnorr"]
        row["multi_power_speedup"] = round(
            baseline["multi_power8_us"] / max(row["multi_power8_us"], 0.001), 1
        )
        row["fixed_base_speedup"] = round(
            baseline["fixed_base_us"] / max(row["fixed_base_us"], 0.001), 1
        )
    for row in rows:
        row["gmpy2"] = HAVE_GMPY2
    save("micro_crypto_backends", rows)
    show("Crypto backend sweep (per-op microseconds)", rows)
    # Sanity: every backend actually computed the same kind of things --
    # the cross-backend *correctness* agreement lives in the property tests.
    assert all(row["fixed_base_us"] > 0 for row in rows)
    if not HAVE_GMPY2:
        print("gmpy2 not installed: speedup gates skipped "
              "(schnorr-gmpy2 rows are the pure-python fallback)")
        return
    # CI regression gates (the .[fast] leg): at the deployment-grade 2048-bit
    # parameterization the GMP backend must hold an order of magnitude on the
    # two primitives every hot path funnels into.
    fast = by_label["schnorr-gmpy2-2048"]
    assert fast["multi_power_speedup"] >= 10.0, fast
    assert fast["fixed_base_speedup"] >= 10.0, fast
    # At the 256-bit test parameters GMP must still never lose to python.
    toy = by_label["schnorr-gmpy2"]
    assert toy["multi_power_speedup"] >= 1.0, toy
    assert toy["fixed_base_speedup"] >= 1.0, toy


# ---------------------------------------------------------------------------
# multi_power term-count sweep
# ---------------------------------------------------------------------------

SWEEP_TERMS = (8, 64, 1_024, 4_096)
#: from this many terms the kernel must beat the per-pair ``pow`` product 2x
SWEEP_GATE_TERMS, SWEEP_GATE = 1_024, 2.0


def _term_sweep_row(group, terms: int, bits: int, rng: RandomSource) -> dict:
    bases = [group.power_g(group.random_scalar(rng)) for _ in range(min(terms, 256))]
    pairs = [
        (bases[i % len(bases)], rng.randint_range(1 << (bits - 1), 1 << bits) % group.order)
        for i in range(terms)
    ]

    def pow_product():
        result = group.identity()
        for base, exponent in pairs:
            result = result * base ** exponent
        return result

    assert group.multi_power(pairs) == pow_product()
    rounds = max(1, (2_000 if SMOKE else 10_000) // terms)
    kernel_us = _time_us(lambda: group.multi_power(pairs), rounds)
    pow_us = _time_us(pow_product, max(1, rounds // 4))
    return {
        "backend": group.backend_name,
        "terms": terms,
        "exponent_bits": bits,
        "evaluation": "buckets" if terms >= group.BUCKET_MIN_TERMS else "scan",
        "multi_power_us": round(kernel_us, 1),
        "pow_product_us": round(pow_us, 1),
        "speedup": round(pow_us / kernel_us, 2),
        "us_per_term": round(kernel_us / terms, 2),
    }


@pytest.mark.benchmark(group="micro-crypto")
def test_multi_power_term_sweep(results_sink):
    """``multi_power`` against one builtin ``pow`` per pair, 8 to 4,096 terms.

    64-bit exponents are what the batched audit's announcement and signature
    factors carry, full-width ones its ciphertext factors.  The first two
    counts stay on the bit scan (``evaluation``), the last two fill buckets;
    those are gated.  Pure-python ``schnorr`` only: the gmpy2 override *is*
    the per-pair product.
    """
    save, show = results_sink
    rng = RandomSource(17)
    rows = [
        _term_sweep_row(GROUP, terms, bits, rng)
        for bits in (64, GROUP.order.bit_length())
        for terms in SWEEP_TERMS
    ]
    save("micro_crypto_multi_power", rows)
    show("multi_power term sweep (pure-python schnorr)", rows)
    for row in rows:
        if row["terms"] >= SWEEP_GATE_TERMS:
            assert row["evaluation"] == "buckets", row
            assert row["speedup"] >= SWEEP_GATE, row
