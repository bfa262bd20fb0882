"""Tests for the prime-order group backends."""

import pytest

from repro.crypto.group import (
    FixedBasePrecomputation,
    SchnorrElement,
    SchnorrFixedBase,
    default_group,
)
from repro.crypto.registry import get_group


@pytest.fixture(scope="module")
def ec_group():
    return get_group("secp256k1")


class TestSchnorrGroup:
    def test_generator_has_prime_order(self, group):
        g = group.generator()
        assert g ** group.order == group.identity()

    def test_generator_is_not_identity(self, group):
        assert group.generator() != group.identity()

    def test_second_generator_differs_from_generator(self, group):
        assert group.second_generator() != group.generator()

    def test_second_generator_is_subgroup_member(self, group):
        h = group.second_generator()
        assert h ** group.order == group.identity()

    def test_multiplication_matches_exponent_addition(self, group):
        g = group.generator()
        assert (g ** 12) * (g ** 30) == g ** 42

    def test_exponentiation_wraps_modulo_order(self, group):
        g = group.generator()
        assert g ** (group.order + 5) == g ** 5

    def test_inverse_cancels(self, group):
        element = group.generator() ** 77
        assert element * element.inverse() == group.identity()

    def test_division_operator(self, group):
        g = group.generator()
        assert (g ** 10) / (g ** 4) == g ** 6

    def test_serialize_roundtrip(self, group):
        element = group.generator() ** 12345
        assert group.deserialize(element.serialize()) == element

    def test_both_signs_are_one_element(self, group):
        """``x`` and ``p - x`` name one class of ``Z_p^*/{±1}``: equal, same
        hash, same bytes, and the bytes carry ``min(x, p - x)``."""
        element = group.generator() ** 12345
        negated = SchnorrElement(group.p - element.value, group)
        assert negated == element and hash(negated) == hash(element)
        assert negated.serialize() == element.serialize()
        assert 1 <= int.from_bytes(element.serialize()[1:], "big") <= group.order

    @pytest.mark.parametrize("value", ["zero", "q + 1", "p - 1"])
    def test_deserialize_refuses_values_outside_one_to_q(self, group, value):
        encoded = {"zero": 0, "q + 1": group.order + 1, "p - 1": group.p - 1}[value]
        with pytest.raises(ValueError, match=r"out of range \[1, q\]"):
            group.deserialize(b"S" + encoded.to_bytes(group.element_bytes - 1, "big"))

    def test_deserialize_accepts_q(self, group):
        element = group.deserialize(b"S" + group.order.to_bytes(group.element_bytes - 1, "big"))
        assert element ** group.order == group.identity()
        assert element.serialize() == b"S" + group.order.to_bytes(group.element_bytes - 1, "big")

    def test_random_scalar_in_range(self, group, rng):
        for _ in range(20):
            scalar = group.random_scalar(rng)
            assert 1 <= scalar < group.order

    def test_hash_to_scalar_is_deterministic(self, group):
        assert group.hash_to_scalar(b"x", b"y") == group.hash_to_scalar(b"x", b"y")

    def test_hash_to_scalar_differs_for_different_input(self, group):
        assert group.hash_to_scalar(b"x") != group.hash_to_scalar(b"y")

    def test_identity_is_neutral(self, group):
        element = group.generator() ** 9
        assert element * group.identity() == element

    def test_default_group_is_cached(self):
        assert default_group() is default_group()


class TestEcGroup:
    def test_generator_on_curve(self, ec_group):
        assert ec_group.is_on_curve(ec_group.generator())

    def test_second_generator_on_curve(self, ec_group):
        assert ec_group.is_on_curve(ec_group.second_generator())

    def test_generator_has_prime_order(self, ec_group):
        assert ec_group.generator() ** ec_group.order == ec_group.identity()

    def test_point_addition_matches_scalar_multiplication(self, ec_group):
        g = ec_group.generator()
        assert (g ** 3) * (g ** 4) == g ** 7

    def test_inverse_is_reflection(self, ec_group):
        point = ec_group.generator() ** 11
        assert point * point.inverse() == ec_group.identity()

    def test_identity_is_infinity(self, ec_group):
        assert ec_group.identity().is_infinity

    def test_scalar_multiplication_distributes(self, ec_group):
        g = ec_group.generator()
        assert (g ** 5) ** 3 == g ** 15

    def test_serialize_roundtrip(self, ec_group):
        point = ec_group.generator() ** 99
        assert ec_group.deserialize(point.serialize()) == point

    def test_serialize_roundtrip_infinity(self, ec_group):
        assert ec_group.deserialize(ec_group.identity().serialize()) == ec_group.identity()

    def test_points_on_curve_after_arithmetic(self, ec_group):
        g = ec_group.generator()
        for k in (2, 17, 12345):
            assert ec_group.is_on_curve(g ** k)


class TestFixedBasePrecomputation:
    def test_schnorr_power_matches_naive(self, group, rng):
        table = group.fixed_base(group.generator())
        assert isinstance(table, SchnorrFixedBase)
        for _ in range(10):
            exponent = group.random_scalar(rng)
            assert table.power(exponent) == group.generator() ** exponent

    def test_power_of_zero_is_identity(self, group):
        assert group.fixed_base(group.generator()).power(0) == group.identity()

    def test_power_wraps_modulo_order(self, group):
        table = group.fixed_base(group.generator())
        assert table.power(group.order + 5) == group.generator() ** 5

    def test_negative_exponent(self, group):
        table = group.fixed_base(group.generator())
        assert table.power(-3) == (group.generator() ** 3).inverse()

    def test_table_is_cached_per_base(self, group):
        assert group.fixed_base(group.generator()) is group.fixed_base(group.generator())
        assert group.fixed_base(group.generator()) is not group.fixed_base(group.second_generator())

    def test_power_g_and_power_h_shortcuts(self, group):
        assert group.power_g(123) == group.generator() ** 123
        assert group.power_h(456) == group.second_generator() ** 456

    def test_generic_table_on_ec_backend(self, ec_group):
        table = ec_group.fixed_base(ec_group.generator())
        assert isinstance(table, FixedBasePrecomputation)
        for exponent in (1, 2, 12345, ec_group.order - 1):
            assert table.power(exponent) == ec_group.generator() ** exponent

    def test_arbitrary_base_table(self, group, rng):
        base = group.generator() ** group.random_scalar(rng)
        table = group.fixed_base(base)
        exponent = group.random_scalar(rng)
        assert table.power(exponent) == base ** exponent

    def test_invalid_window_rejected(self, group):
        with pytest.raises(ValueError):
            FixedBasePrecomputation(group.generator(), window=0)

    def test_cached_power_promotes_hot_bases_only(self, group, rng):
        base = group.generator() ** group.random_scalar(rng)
        one_shot = group.generator() ** group.random_scalar(rng)
        exponent = group.random_scalar(rng)
        assert group.cached_power(one_shot, exponent) == one_shot ** exponent
        for _ in range(group.PRECOMPUTE_AFTER_USES + 1):
            assert group.cached_power(base, exponent) == base ** exponent
        cache = group._fixed_base_cache
        assert base.serialize() in cache        # reused base got a table
        assert one_shot.serialize() not in cache  # one-shot base did not


class TestMultiPower:
    def test_schnorr_matches_separate_powers(self, group, rng):
        g, h = group.generator(), group.second_generator()
        a, b = group.random_scalar(rng), group.random_scalar(rng)
        assert group.multi_power([(g, a), (h, b)]) == (g ** a) * (h ** b)

    def test_ec_matches_separate_powers(self, ec_group):
        g, h = ec_group.generator(), ec_group.second_generator()
        assert ec_group.multi_power([(g, 31), (h, 57)]) == (g ** 31) * (h ** 57)

    def test_empty_product_is_identity(self, group):
        assert group.multi_power([]) == group.identity()

    def test_zero_exponents_are_skipped(self, group):
        g = group.generator()
        assert group.multi_power([(g, 0), (group.second_generator(), 0)]) == group.identity()
        assert group.multi_power([(g, 7), (group.second_generator(), 0)]) == g ** 7

    def test_many_bases(self, group, rng):
        pairs = []
        expected = group.identity()
        for _ in range(5):
            base = group.generator() ** group.random_scalar(rng)
            exponent = group.random_scalar(rng)
            pairs.append((base, exponent))
            expected = expected * (base ** exponent)
        assert group.multi_power(pairs) == expected


class TestCrossBackend:
    def test_same_protocol_code_runs_on_both_backends(self, ec_group, group):
        # ElGamal-style computation expressed purely via the Group interface.
        for backend in (group, ec_group):
            g = backend.generator()
            x = 1234567
            y = g ** x
            r = 7654321
            a, b = g ** r, (g ** 5) * (y ** r)
            recovered = b * (a ** x).inverse()
            assert recovered == g ** 5
