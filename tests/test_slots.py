"""Value objects carry no instance ``__dict__``.

A ballot is hundreds of small frozen values (ciphertexts, commitments,
proof moves, vote-code rows), and an object with a ``__dict__`` costs 88
bytes where a slotted one costs 48 (CPython 3.11, x86-64).  Every frozen
dataclass in ``src/repro`` and every group element class is slotted; a class
that must keep a ``__dict__`` is listed in :data:`KEEPS_DICT` with the reason,
and an entry whose class is gone or slotted fails too.

Every type the wire codec registers keeps a weak-reference slot: the
codec's intern table holds the objects it decoded weakly
(:meth:`repro.net.codec.MessageCodec.decode_embedded`).
"""

import dataclasses
import importlib
import pkgutil

import repro
from repro.crypto.group import GroupElement
from repro.net.codec import MessageCodec

#: ``module:Qual.name`` -> why its instances keep a ``__dict__``.
KEEPS_DICT = {
    "repro.core.trustee:TrusteeSubmission": (
        "its digest is a functools.cached_property, stored in the instance "
        "__dict__ and carried over by signed(); a few objects per election"
    ),
}


def value_classes():
    """``module:Qual.name`` -> class, for every frozen dataclass and every
    group element class defined in ``src/repro``."""
    found = {}
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.endswith(".__main__"):
            continue
        module = importlib.import_module(info.name)
        for obj in vars(module).values():
            if not isinstance(obj, type) or obj.__module__ != module.__name__:
                continue
            frozen = dataclasses.is_dataclass(obj) and obj.__dataclass_params__.frozen
            if frozen or issubclass(obj, GroupElement):
                found[f"{obj.__module__}:{obj.__qualname__}"] = obj
    return found


def test_value_objects_have_no_instance_dict():
    classes = value_classes()
    assert len(classes) > 90  # the walk found the value types
    with_dict = {name for name, cls in classes.items() if cls.__dictoffset__}
    assert with_dict == set(KEEPS_DICT)


def test_every_wire_payload_can_be_held_weakly():
    types = MessageCodec().registered_types
    assert types
    assert [cls.__name__ for cls in types if not cls.__weakrefoffset__] == []
