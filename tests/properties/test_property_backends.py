"""Property tests for cross-backend agreement and the group-law axioms.

Two families:

* **Cross-backend agreement.**  The gmpy2-accelerated Schnorr backend must be
  observationally identical to the pure-python reference: same element values,
  same serializations, and -- given the same RandomSource seed -- the same
  signatures, ciphertexts and commitments.  When gmpy2 is absent the
  ``schnorr-gmpy2`` factory returns the pure backend, so these tests pass
  trivially; the gmpy2 CI leg (``pip install -e .[fast]``) is where they bite.

* **Group-law axioms.**  Every registered backend is a prime-order group:
  associativity, commutativity, identity, inverses, exponent arithmetic,
  serialize/deserialize round-trip, and agreement between the accelerated
  exponentiation paths (fixed-base tables, ``multi_power``, ``cached_power``)
  and plain ``**``.
"""

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.crypto.commitments import OptionEncodingScheme
from repro.crypto.elgamal import LiftedElGamal
from repro.crypto.gmpy2_backend import HAVE_GMPY2, Gmpy2FixedBase, make_gmpy2_group
from repro.crypto.group import SchnorrFixedBase
from repro.crypto.registry import get_group
from repro.crypto.signatures import SignatureScheme
from repro.crypto.utils import RandomSource

PURE = get_group("schnorr")
FAST = get_group("schnorr-gmpy2")

BACKENDS = {
    "schnorr": PURE,
    "schnorr-gmpy2": FAST,
    "ed25519": get_group("ed25519"),
    "secp256k1": get_group("secp256k1"),
}

relaxed = settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
# The pure-python curve backends cost milliseconds per exponentiation, so the
# axiom sweep uses fewer examples than the integer-only agreement tests.
brief = settings(
    max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

exponents = st.integers(min_value=1, max_value=PURE.order - 1)
seeds = st.integers(min_value=0, max_value=2**32 - 1)
backend_names = st.sampled_from(sorted(BACKENDS))


class TestCrossBackendAgreement:
    @relaxed
    @given(exponents)
    def test_same_elements_and_serializations(self, exponent):
        pure = PURE.power_g(exponent)
        fast = FAST.power_g(exponent)
        assert pure == fast
        assert pure.serialize() == fast.serialize()
        assert FAST.plain_power(FAST.generator(), exponent) == pure
        assert PURE.deserialize(fast.serialize()) == pure
        assert FAST.deserialize(pure.serialize()) == fast

    @relaxed
    @given(exponents, exponents)
    def test_multi_power_agrees(self, e1, e2):
        pure_pairs = [(PURE.power_g(e1), e2), (PURE.power_h(e2), e1)]
        fast_pairs = [(FAST.power_g(e1), e2), (FAST.power_h(e2), e1)]
        assert PURE.multi_power(pure_pairs) == FAST.multi_power(fast_pairs)

    @relaxed
    @given(seeds)
    def test_same_seed_same_signature(self, seed):
        pure_signer = SignatureScheme(PURE)
        fast_signer = SignatureScheme(FAST)
        pure_keys = pure_signer.keygen(RandomSource(seed))
        fast_keys = fast_signer.keygen(RandomSource(seed))
        assert pure_keys.secret == fast_keys.secret
        assert pure_keys.public.serialize() == fast_keys.public.serialize()
        message = b"cross-backend"
        pure_sig = pure_signer.sign(pure_keys, message, RandomSource(seed + 1))
        fast_sig = fast_signer.sign(fast_keys, message, RandomSource(seed + 1))
        assert (pure_sig.challenge, pure_sig.response) == (
            fast_sig.challenge,
            fast_sig.response,
        )
        # Signatures verify across backends in both directions.
        assert pure_signer.verify(fast_keys.public, message, pure_sig)
        assert fast_signer.verify(pure_keys.public, message, fast_sig)

    @relaxed
    @given(seeds)
    def test_same_seed_same_ciphertext_and_commitment(self, seed):
        pure_scheme = LiftedElGamal(PURE)
        fast_scheme = LiftedElGamal(FAST)
        pure_keys = pure_scheme.keygen(RandomSource(seed))
        fast_keys = fast_scheme.keygen(RandomSource(seed))
        pure_ct = pure_scheme.encrypt(pure_keys.public, 1, rng=RandomSource(seed + 1))
        fast_ct = fast_scheme.encrypt(fast_keys.public, 1, rng=RandomSource(seed + 1))
        assert pure_ct.serialize() == fast_ct.serialize()
        pure_commit, _ = OptionEncodingScheme(3, pure_keys.public, PURE).commit_option(
            1, rng=RandomSource(seed + 2)
        )
        fast_commit, _ = OptionEncodingScheme(3, fast_keys.public, FAST).commit_option(
            1, rng=RandomSource(seed + 2)
        )
        assert pure_commit.serialize() == fast_commit.serialize()

    def test_parameterized_construction_agrees(self):
        pure = get_group("schnorr", g=16)
        fast = make_gmpy2_group(g=16)
        assert pure.generator() == fast.generator()
        assert pure.second_generator() == fast.second_generator()
        assert pure.power_g(987654321) == fast.power_g(987654321)


@pytest.mark.parametrize("base_exponent", [1, 987654321])
@pytest.mark.parametrize("name", ["schnorr", "schnorr-gmpy2"])
class TestByteDigitFixedBase:
    """The one table kernel both Schnorr backends share (``mpz`` rows under gmpy2)."""

    Q = PURE.order

    @relaxed
    @given(st.integers(min_value=-(2**300), max_value=2**300))
    @example(0)
    @example(1)
    @example(Q - 1)
    @example(Q)
    @example(Q + 1)
    @example(2**256 - 1)
    @example(-1)
    @example(-(2**256))
    def test_power_equals_builtin_pow(self, name, base_exponent, exponent):
        group = BACKENDS[name]
        base = group.power_h(base_exponent)
        table = group.fixed_base(base)
        gmpy2_rows = HAVE_GMPY2 and name == "schnorr-gmpy2"
        assert type(table) is (Gmpy2FixedBase if gmpy2_rows else SchnorrFixedBase)
        result = table.power(exponent)
        assert int(result.value) == pow(int(base.value), exponent % group.order, group.p)
        assert type(result) is type(base)
        assert result.serialize() == (base**exponent).serialize()


class TestGroupAxioms:
    @brief
    @given(backend_names, exponents, exponents, exponents)
    def test_group_laws(self, name, e1, e2, e3):
        group = BACKENDS[name]
        a = group.power_g(e1 % group.order or 1)
        b = group.power_h(e2 % group.order or 1)
        c = group.power_g(e3 % group.order or 1)
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * group.identity() == a
        assert a * a.inverse() == group.identity()
        assert a / b == a * b.inverse()

    @brief
    @given(backend_names, exponents)
    def test_serialize_round_trip(self, name, exponent):
        group = BACKENDS[name]
        element = group.power_g(exponent % group.order or 1)
        assert group.deserialize(element.serialize()) == element
        if group.element_bytes is not None:
            assert len(element.serialize()) == group.element_bytes

    @brief
    @given(backend_names, exponents, exponents)
    def test_accelerated_paths_agree_with_plain(self, name, e1, e2):
        group = BACKENDS[name]
        e1 = e1 % group.order or 1
        e2 = e2 % group.order or 1
        g = group.generator()
        expected = g**e1
        assert group.power_g(e1) == expected
        assert group.plain_power(g, e1) == expected
        assert group.cached_power(g, e1) == expected
        base = group.power_h(e2)
        assert group.multi_power([(g, e1), (base, e2)]) == expected * base**e2

    @brief
    @given(backend_names, exponents)
    def test_exponent_arithmetic(self, name, exponent):
        group = BACKENDS[name]
        e = exponent % group.order or 1
        g = group.generator()
        assert g**e * g == g ** (e + 1)
        assert g ** (group.order) == group.identity()
        assert (g**e).inverse() == g ** (group.order - e)
