"""Frozen value types get ``__eq__``, ``__hash__`` and ``__repr__`` without
compiling them.

``dataclasses`` compiles each generated method from source with ``exec``:
six compiles a frozen class, about 60 ms of a process's imports on CPython
3.11.  :func:`repro.values.frozen_value` builds the three methods below from
the field list instead.  They must be indistinguishable from the generated
ones: the same equality (and ``NotImplemented`` for another class), the same
hash values, so set and dict order and every outcome hash stay put, and the
same ``repr`` strings.  Each reference class below is declared with plain
``dataclass(frozen=True, slots=True)`` and compared with its twin.
"""

import dataclasses
import inspect
import reprlib
import weakref
from dataclasses import dataclass, field

import pytest
from test_slots import value_classes

import repro.values
from repro.crypto.group import EcPoint, SchnorrElement, default_group
from repro.values import frozen_value

METHODS = ("__eq__", "__hash__", "__repr__")


def reference(cls=None, /, **options):
    return dataclass(cls, frozen=True, slots=True, **options)


def code_file(function) -> str:
    """The file a method was compiled from, looking through a repr guard."""
    function = inspect.unwrap(function)
    if function.__code__.co_filename == reprlib.__file__:
        (function,) = [
            cell.cell_contents for cell in function.__closure__
            if inspect.isfunction(cell.cell_contents)
        ]
    return function.__code__.co_filename


# ---------------------------------------------------------------------------
# every frozen value type of the package
# ---------------------------------------------------------------------------


def frozen_value_types():
    """The slotted frozen dataclasses of ``src/repro``: every ``@frozen_value``
    class (not a plain subclass of one, such as ``Gmpy2Element``)."""
    return {
        name: cls
        for name, cls in value_classes().items()
        if "__dataclass_fields__" in vars(cls) and "__slots__" in vars(cls)
    }


def test_no_frozen_value_type_compiles_its_eq_hash_or_repr():
    """Red where ``frozen_value`` lets ``dataclasses`` generate them."""
    types = frozen_value_types()
    assert len(types) > 90
    defined_in = {}
    for name, cls in types.items():
        for method in METHODS:
            owner = next(k for k in cls.__mro__ if method in vars(k))
            defined_in[f"{name}.{method}"] = code_file(vars(owner)[method])
    assert sorted(n for n, file in defined_in.items() if file == "<string>") == []
    # Only the group elements' own comparisons come from a class body.
    assert sorted(n for n, file in defined_in.items() if file != repro.values.__file__) == [
        "repro.crypto.group:EcPoint.__eq__",
        "repro.crypto.group:EcPoint.__hash__",
        "repro.crypto.group:SchnorrElement.__eq__",
        "repro.crypto.group:SchnorrElement.__hash__",
    ]


def test_the_group_elements_keep_their_own_comparisons_and_get_a_field_repr():
    group = default_group()
    element = group.power_g(5)
    assert type(element) is SchnorrElement
    assert SchnorrElement.__eq__.__qualname__ == "SchnorrElement.__eq__"
    assert code_file(SchnorrElement.__hash__) == code_file(EcPoint.__hash__) != "<string>"
    # The class-of-{x, p - x} equality and hash, not the fields' tuple.
    twin = SchnorrElement(group.p - element.value, group)
    assert twin == element and hash(twin) == hash(element)
    # The generated repr replaces GroupElement's, as dataclasses does.
    assert repr(element) == f"SchnorrElement(value={element.value!r}, group={group!r})"


# ---------------------------------------------------------------------------
# against plain dataclass(frozen=True, slots=True)
# ---------------------------------------------------------------------------


def declare_one_field(decorate):
    @decorate
    class Serial:
        value: int

    return Serial


def declare_several_fields(decorate):
    @decorate
    class Row:
        serial: int
        code: bytes
        name: str = "VC-0"
        parts: tuple = ()
        weight: float = 1.0

    return Row


def declare_kw_only(decorate):
    @decorate(kw_only=True)
    class Event:
        seq: int
        at: float = 0.0

    return Event


def declare_weakref_slot(decorate):
    @decorate(weakref_slot=True)
    class Payload:
        serial: int
        body: bytes

    return Payload


def declare_field_flags(decorate):
    @decorate
    class Flagged:
        key: int
        note: str = field(default="", compare=False, repr=False)
        cached: int = field(default=0, hash=False)

    return Flagged


def declare_no_fields(decorate):
    @decorate
    class Marker:
        pass

    return Marker


def declare_holder(decorate):
    @decorate
    class Holder:
        items: list

    return Holder


CASES = {
    "one field": (declare_one_field, [(1,), (2,), (True,), (float("nan"),), ((1, 2),)]),
    "several fields": (
        declare_several_fields,
        [(1, b"a"), (1, b"a", "VC-1"), (1, b"a", "VC-0", (1,)), (2, b"", "x", (), 2.5)],
    ),
    "kw_only": (declare_kw_only, [{"seq": 1}, {"seq": 1, "at": 0.5}, {"seq": 2}]),
    "weakref_slot": (declare_weakref_slot, [(1, b"x"), (1, b"y"), (2, b"x")]),
    "field flags": (declare_field_flags, [(1,), (1, "note"), (1, "", 7), (2, "z", 7)]),
    "no fields": (declare_no_fields, [()]),
}


def build(cls, args):
    return cls(**args) if isinstance(args, dict) else cls(*args)


@pytest.mark.parametrize("case", sorted(CASES))
def test_equality_hash_and_repr_match_the_generated_methods(case):
    declare, arguments = CASES[case]
    value_cls, reference_cls = declare(frozen_value), declare(reference)
    assert value_cls.__qualname__ == reference_cls.__qualname__
    # Shared field values, so a NaN compares as the same object on both sides.
    values = [build(value_cls, args) for args in arguments]
    references = [build(reference_cls, args) for args in arguments]
    for value, ref in zip(values, references, strict=True):
        assert hash(value) == hash(ref)
        assert repr(value) == repr(ref)
        assert value.__eq__(ref) is NotImplemented and ref.__eq__(value) is NotImplemented
        assert value.__eq__(object()) is NotImplemented
        assert value != ref
    for i, value in enumerate(values):
        for j, other in enumerate(values):
            assert (value == other) == (references[i] == references[j])
            assert (value != other) == (references[i] != references[j])
    # The same hashes: a set of either iterates in the same order.
    assert [repr(v) for v in set(values)] == [repr(r) for r in set(references)]


def test_equal_values_of_equal_fields():
    row = declare_several_fields(frozen_value)
    assert row(1, b"a") == row(1, b"a") and hash(row(1, b"a")) == hash(row(1, b"a"))
    assert row(1, b"a") != row(1, b"b")
    nan = float("nan")
    serial = declare_one_field(frozen_value)
    # Fields compare as tuples do: identity first, as the generated __eq__.
    assert serial(nan) == serial(nan)
    assert serial(float("nan")) != serial(float("nan"))


def test_a_value_inside_itself_reprs_as_the_generated_method_does():
    value, ref = declare_holder(frozen_value)([]), declare_holder(reference)([])
    value.items.append(value)
    ref.items.append(ref)
    assert repr(value) == repr(ref) == f"{type(value).__qualname__}(items=[...])"


# ---------------------------------------------------------------------------
# a class body's own methods: dataclasses' hash-action table
# ---------------------------------------------------------------------------


def declare_own_eq(decorate):
    @decorate
    class Residue:
        value: int

        def __eq__(self, other):
            return isinstance(other, Residue) and self.value % 5 == other.value % 5

    return Residue


def declare_own_eq_and_hash(decorate):
    @decorate
    class Residue:
        value: int

        def __eq__(self, other):
            return isinstance(other, Residue) and self.value % 5 == other.value % 5

        def __hash__(self):
            return hash(self.value % 5)

    return Residue


def declare_unhashable(decorate):
    @decorate
    class Unhashable:
        value: int
        __hash__ = None

    return Unhashable


class Shown:
    __slots__ = ()

    def __repr__(self):
        return "<shown>"


def declare_inherited_repr(decorate):
    @decorate
    class Element(Shown):
        value: int

    return Element


def test_an_own_eq_without_a_hash_still_gets_the_fields_hash():
    value_cls, reference_cls = declare_own_eq(frozen_value), declare_own_eq(reference)
    assert value_cls(1) == value_cls(6) and reference_cls(1) == reference_cls(6)
    assert hash(value_cls(6)) == hash(reference_cls(6)) == hash((6,))
    assert code_file(value_cls.__eq__) == __file__
    assert code_file(value_cls.__hash__) == repro.values.__file__


def test_an_own_eq_and_hash_are_kept():
    value_cls = declare_own_eq_and_hash(frozen_value)
    assert value_cls(1) == value_cls(6) and hash(value_cls(6)) == hash(1)
    assert code_file(value_cls.__eq__) == code_file(value_cls.__hash__) == __file__
    assert repr(value_cls(6)) == repr(declare_own_eq_and_hash(reference)(6))


def test_an_explicit_hash_none_stays_unhashable():
    for decorate in (frozen_value, reference):
        with pytest.raises(TypeError, match="unhashable"):
            hash(declare_unhashable(decorate)(1))
    value_cls = declare_unhashable(frozen_value)
    assert value_cls(1) == value_cls(1) != value_cls(2)


def test_an_inherited_repr_is_replaced_by_the_fields_repr():
    value, ref = declare_inherited_repr(frozen_value)(3), declare_inherited_repr(reference)(3)
    assert repr(value) == repr(ref) == f"{type(value).__qualname__}(value=3)"


# ---------------------------------------------------------------------------
# introspection
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("case", sorted(CASES))
def test_introspection_reads_as_for_the_generated_methods(case):
    declare, arguments = CASES[case]
    value_cls, reference_cls = declare(frozen_value), declare(reference)
    as_tuple = [
        (f.name, f.default, f.compare, f.hash, f.repr, f.kw_only)
        for f in dataclasses.fields(value_cls)
    ]
    assert as_tuple == [
        (f.name, f.default, f.compare, f.hash, f.repr, f.kw_only)
        for f in dataclasses.fields(reference_cls)
    ]
    value_params, reference_params = (
        cls.__dataclass_params__ for cls in (value_cls, reference_cls)
    )
    for flag in ("init", "repr", "eq", "order", "unsafe_hash", "frozen"):
        assert getattr(value_params, flag) == getattr(reference_params, flag), flag
    assert value_cls.__match_args__ == reference_cls.__match_args__
    assert value_cls.__slots__ == reference_cls.__slots__
    value = build(value_cls, arguments[-1])
    if dataclasses.fields(value_cls):
        first = dataclasses.fields(value_cls)[0].name
        changed = dataclasses.replace(value, **{first: 9})
        assert type(changed) is value_cls and getattr(changed, first) == 9
        assert repr(changed) == repr(
            dataclasses.replace(build(reference_cls, arguments[-1]), **{first: 9})
        )
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, first, 9)


def test_kw_only_and_weakref_slot_are_passed_through():
    event = declare_kw_only(frozen_value)
    with pytest.raises(TypeError):
        event(1)
    assert event(seq=1).seq == 1
    payload = declare_weakref_slot(frozen_value)(1, b"x")
    assert weakref.ref(payload)() is payload
    with pytest.raises(TypeError):
        weakref.ref(declare_one_field(frozen_value)(1))
