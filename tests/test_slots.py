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

``slots=True`` replaces the class it decorates.  The frozen ``__setattr__`` /
``__delattr__`` generated for the replaced class close over it, so it stayed
alive beside its slotted copy -- 91 classes, ~153 KiB, after importing the
engine and the service on CPython 3.11.7 -- and assigning a non-field
attribute failed with a ``TypeError`` from ``super(cls, self)``.
:func:`repro.values.frozen_value` re-points those cells; the tests below are
red where they are left alone.
"""

import dataclasses
import gc
import importlib
import pkgutil
import sys

import pytest

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


def closure_classes(cls):
    """Every class held in a closure cell of a function defined on ``cls``."""
    return [
        cell.cell_contents
        for attribute in vars(cls).values()
        for cell in getattr(attribute, "__closure__", None) or ()
        if isinstance(cell.cell_contents, type)
    ]


def test_generated_methods_close_over_their_own_class():
    stale = sorted(
        name
        for name, cls in value_classes().items()
        if dataclasses.is_dataclass(cls)
        for held in closure_classes(cls)
        if held is not cls and (held.__module__, held.__qualname__)
        == (cls.__module__, cls.__qualname__)
    )
    assert stale == []


def test_no_replaced_class_stays_alive():
    classes = value_classes()
    gc.collect()
    twins = [
        obj for obj in gc.get_objects()
        if isinstance(obj, type)
        and classes.get(f"{obj.__module__}:{obj.__qualname__}", obj) is not obj
    ]
    assert twins == [], f"{len(twins)} replaced classes, {sum(map(sys.getsizeof, twins))} bytes"


def test_assigning_a_non_field_attribute_raises_frozen_instance_error():
    from repro.core.messages import Announce

    announce = Announce(1, None, None)
    with pytest.raises(dataclasses.FrozenInstanceError):
        announce.extra = 1
    with pytest.raises(dataclasses.FrozenInstanceError):
        del announce.extra
