"""The contract every registered backend meets.

Protocol code is written against :class:`repro.crypto.group.Group` alone: a
cyclic group of prime order ``q`` written multiplicatively, with one encoding
per element, that pickles.  Each test here runs on every
backend of :func:`available_backends`, so a backend cannot meet the contract
on one side of it only.
"""

import pickle

import pytest

from repro.crypto.registry import available_backends, get_group
from repro.crypto.utils import RandomSource


@pytest.fixture(params=available_backends())
def backend_group(request):
    return get_group(request.param)


def samples(group):
    """A few elements of ``group`` other than the identity."""
    g, h = group.generator(), group.second_generator()
    return [g, h, g**2, g**123456789, h ** (group.order - 1), g**7 * h**11]


class TestGenerators:
    def test_generator_has_prime_order(self, backend_group):
        g = backend_group.generator()
        assert g != backend_group.identity()
        assert g**backend_group.order == backend_group.identity()

    def test_second_generator_is_another_element_of_order_q(self, backend_group):
        h = backend_group.second_generator()
        assert h not in (backend_group.generator(), backend_group.identity())
        assert h**backend_group.order == backend_group.identity()

    @pytest.mark.parametrize("name", available_backends())
    def test_the_registry_returns_one_instance_under_its_stamped_name(self, name):
        group = get_group(name)
        assert get_group(name) is group
        assert get_group(group.backend_name) is group


class TestGroupLaws:
    def test_associativity_and_commutativity(self, backend_group):
        a = backend_group.generator() ** 101
        b = backend_group.generator() ** 202
        c = backend_group.second_generator() ** 303
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a

    def test_identity_and_inverse(self, backend_group):
        a = backend_group.generator() ** 777
        identity = backend_group.identity()
        assert a * identity == a
        assert a * a.inverse() == identity
        assert a / a == identity
        assert identity.inverse() == identity

    def test_exponent_laws(self, backend_group):
        g = backend_group.generator()
        assert g**5 * g**7 == g**12
        assert (g**5) ** 7 == g**35
        assert g ** (backend_group.order - 1) * g == backend_group.identity()

    def test_exponents_are_read_modulo_the_order(self, backend_group):
        g = backend_group.generator()
        assert g ** (backend_group.order + 5) == g**5
        assert g**-1 == g.inverse()
        assert g**0 == backend_group.identity()

    def test_only_the_identity_is_its_own_inverse(self, backend_group):
        """The order is an odd prime, so no element has order 2."""
        for element in samples(backend_group):
            assert element.inverse() != element
            assert element * element != backend_group.identity()

    def test_multi_power_matches_the_product_of_powers(self, backend_group):
        a = backend_group.generator() ** 11
        b = backend_group.second_generator() ** 13
        assert backend_group.multi_power([(a, 3), (b, 5)]) == (a**3) * (b**5)
        assert backend_group.multi_power([]) == backend_group.identity()

    def test_cached_power_and_fixed_base_agree(self, backend_group):
        base = backend_group.generator() ** 31337
        exponent = 2**200 + 12345
        expected = base**exponent
        for _ in range(backend_group.PRECOMPUTE_AFTER_USES + 1):
            assert backend_group.cached_power(base, exponent) == expected
        assert backend_group.fixed_base(base).power(exponent) == expected

    def test_every_accelerator_maps_exponent_zero_to_the_identity(self, backend_group):
        base = backend_group.generator() ** 99
        identity = backend_group.identity()
        assert backend_group.fixed_base(base).power(0) == identity
        assert backend_group.cached_power(base, 0) == identity
        assert backend_group.power_g(backend_group.order) == identity
        assert backend_group.multi_power([(base, 0), (base, backend_group.order)]) == identity

    def test_power_g_and_power_h_are_powers_of_the_generators(self, backend_group):
        exponent = 2**100 + 7
        assert backend_group.power_g(exponent) == backend_group.generator() ** exponent
        assert backend_group.power_h(exponent) == backend_group.second_generator() ** exponent


class TestEncoding:
    def test_round_trip(self, backend_group):
        for scalar in (1, 2, 3, 2**64, backend_group.order - 1):
            element = backend_group.generator() ** scalar
            data = element.serialize()
            restored = backend_group.deserialize(data)
            assert restored == element
            assert restored.serialize() == data
        identity = backend_group.identity()
        assert backend_group.deserialize(identity.serialize()) == identity

    def test_a_decoded_element_computes_like_the_original(self, backend_group):
        """Decoding may pick another representative (a Schnorr element comes
        back as ``min(x, p - x)``); products and powers must not notice."""
        other = backend_group.second_generator() ** 5
        for element in samples(backend_group):
            decoded = backend_group.deserialize(element.serialize())
            assert decoded * other == element * other
            assert decoded**12345 == element**12345
            assert (decoded / other).serialize() == (element / other).serialize()

    def test_elements_other_than_the_identity_share_one_width(self, backend_group):
        widths = {len(element.serialize()) for element in samples(backend_group)}
        assert len(widths) == 1
        if backend_group.element_bytes is not None:
            assert widths == {backend_group.element_bytes}

    def test_a_truncated_or_extended_encoding_is_refused(self, backend_group):
        data = backend_group.generator().serialize()
        for wrong in (data[:-1], data + b"\x00"):
            with pytest.raises(ValueError):
                backend_group.deserialize(wrong)

    def test_one_element_reached_by_different_routes_has_one_encoding(self, backend_group):
        g = backend_group.generator()
        a, b = 2**130 + 3, backend_group.order - 5
        routes = [
            g ** (a + b),
            (g**a) * (g**b),
            backend_group.fixed_base(g).power(a + b),
            backend_group.multi_power([(g, a), (g, b)]),
            (g ** -(a + b)).inverse(),
        ]
        assert len({element.serialize() for element in routes}) == 1
        assert len(set(routes)) == 1
        assert len({hash(element) for element in routes}) == 1

    def test_distinct_elements_have_distinct_encodings(self, backend_group):
        g = backend_group.generator()
        powers = [g**k for k in range(1, 41)]
        encodings = [element.serialize() for element in powers]
        assert len(set(encodings)) == len(powers)
        assert [backend_group.deserialize(data) for data in encodings] == powers

    def test_only_its_own_family_of_encodings_decodes(self, backend_group):
        """A Schnorr backend decodes the other Schnorr backend's elements (same
        group, same encoding) and refuses a curve point, and the reverse."""
        mine = backend_group.generator().serialize()
        for other in available_backends():
            data = get_group(other).generator().serialize()
            if data[:1] == mine[:1]:
                assert backend_group.deserialize(data) == backend_group.generator()
            else:
                with pytest.raises(ValueError):
                    backend_group.deserialize(data)


class TestPickling:
    def test_elements_and_group_pickle(self, backend_group):
        element = backend_group.generator() ** 424242
        group2, element2 = pickle.loads(pickle.dumps((backend_group, element)))
        assert element2.serialize() == element.serialize()
        assert group2.generator() ** 424242 == element2

    def test_a_warm_group_pickles_and_computes_as_before(self, backend_group):
        """A group that has built fixed-base tables still round-trips, and the
        copy's fixed-base and generic powers agree with the original's."""
        exponents = (1, 3, 424242, backend_group.order - 1)
        before = [backend_group.power_g(e) for e in exponents]
        restored = pickle.loads(pickle.dumps(backend_group))
        assert [restored.power_g(e) for e in exponents] == before
        assert [restored.generator() ** e for e in exponents] == before


class TestScalars:
    def test_random_scalars_lie_in_one_to_q(self, backend_group):
        rng = RandomSource(5)
        draws = [backend_group.random_scalar(rng) for _ in range(200)]
        assert all(1 <= scalar < backend_group.order for scalar in draws)
        assert len(set(draws)) == len(draws)

    def test_hash_to_scalar_is_deterministic_and_reduced(self, backend_group):
        first = backend_group.hash_to_scalar(b"ballot", b"serial-7")
        assert first == backend_group.hash_to_scalar(b"ballot", b"serial-7")
        assert first != backend_group.hash_to_scalar(b"ballot", b"serial-8")
        assert 0 <= first < backend_group.order
