"""The named crypto backend registry."""

import pytest

from repro.crypto.gmpy2_backend import HAVE_GMPY2, Gmpy2SchnorrGroup
from repro.crypto.group import SchnorrGroup, default_group
from repro.crypto.registry import available_backends, get_group, resolve_backend_name


class TestResolution:
    def test_all_builtin_backends_registered(self):
        assert available_backends() == ("schnorr", "schnorr-gmpy2", "secp256k1")

    def test_legacy_ec_alias(self):
        assert resolve_backend_name("ec") == "secp256k1"

    def test_names_are_case_insensitive(self):
        assert resolve_backend_name("SecP256k1") == "secp256k1"

    def test_unknown_backend_raises_with_known_names(self):
        with pytest.raises(ValueError, match="unknown crypto backend 'rsa'"):
            resolve_backend_name("rsa")


class TestGetGroup:
    def test_parameterless_calls_share_one_instance(self):
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

