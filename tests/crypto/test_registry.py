"""The named crypto backend registry."""

import pytest

from repro.crypto.gmpy2_backend import HAVE_GMPY2, Gmpy2SchnorrGroup
from repro.crypto.group import Group, SchnorrGroup, default_group
from repro.crypto.registry import (
    available_backends,
    backend_info,
    get_group,
    register_backend,
    resolve_backend_name,
)


class TestResolution:
    def test_all_builtin_backends_registered(self):
        assert set(available_backends()) >= {
            "schnorr",
            "schnorr-gmpy2",
            "secp256k1",
            "ed25519",
        }

    def test_legacy_ec_alias(self):
        assert resolve_backend_name("ec") == "secp256k1"

    def test_names_are_case_insensitive(self):
        assert resolve_backend_name("Ed25519") == "ed25519"

    def test_unknown_backend_raises_with_known_names(self):
        with pytest.raises(ValueError, match="unknown crypto backend 'rsa'"):
            resolve_backend_name("rsa")

    def test_backend_info(self):
        info = backend_info("ec")
        assert info.name == "secp256k1"
        assert "ec" in info.aliases
        assert backend_info("schnorr-gmpy2").accelerated


class TestGetGroup:
    def test_parameterless_calls_share_one_instance(self):
        assert get_group("ed25519") is get_group("ed25519")
        assert get_group("secp256k1") is get_group("ec")

    def test_schnorr_shares_the_process_default(self):
        # Codec prefix-sniffing and legacy default_group() callers must end
        # up on the same instance (and its warm fixed-base tables).
        assert get_group("schnorr") is default_group()

    def test_parameterized_calls_build_fresh_groups(self):
        custom = get_group("schnorr", g=9)
        assert custom is not get_group("schnorr")
        assert custom.generator().value == 9

    def test_backend_name_is_stamped(self):
        assert get_group("schnorr").backend_name == "schnorr"
        assert get_group("ed25519").backend_name == "ed25519"
        assert get_group("ec").backend_name == "secp256k1"

    def test_gmpy2_backend_selects_by_availability(self):
        group = get_group("schnorr-gmpy2")
        if HAVE_GMPY2:
            assert isinstance(group, Gmpy2SchnorrGroup)
        else:
            # Graceful degradation: the name stays usable without gmpy2.
            assert isinstance(group, SchnorrGroup)


class TestDirectConstruction:
    def test_direct_construction_still_works(self):
        group = SchnorrGroup()
        assert group.power_g(3) == group.generator() ** 3


class TestRegisterBackend:
    def test_custom_backend_round_trip(self):
        calls = []

        def factory(**params):
            calls.append(params)
            return SchnorrGroup(g=16)

        register_backend(
            "test-custom", factory, aliases=("tc",), description="test only"
        )
        try:
            group = get_group("tc")
            assert isinstance(group, Group)
            assert group.backend_name == "test-custom"
            assert calls == [{}]
            # Cached after the first parameterless construction.
            assert get_group("test-custom") is group
            assert calls == [{}]
        finally:
            from repro.crypto import registry

            registry._REGISTRY.pop("test-custom", None)
            registry._ALIASES.pop("tc", None)
            registry._INSTANCE_CACHE.pop("test-custom", None)

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_backend("schnorr", lambda: default_group())
