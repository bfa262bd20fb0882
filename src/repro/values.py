"""The decorator of every frozen value type in :mod:`repro`.

:func:`frozen_value` makes the class ``dataclass(frozen=True, slots=True)``
makes, with two differences.

* **No stale class.**  ``slots=True`` builds the class, then replaces it with
  a slotted copy.  The frozen ``__setattr__`` / ``__delattr__`` generated for
  the first class keep it in a closure cell (``type(self) is cls``), so the
  discarded class stayed alive next to its copy, and assigning a non-field
  attribute failed inside ``super(cls, self)`` with a ``TypeError`` instead of
  raising :class:`dataclasses.FrozenInstanceError`.  Every closure cell of
  the class's methods that holds the discarded class is pointed at the
  slotted one.
* **No compiled ``__eq__`` / ``__hash__`` / ``__repr__``.**  ``dataclasses``
  writes each method's source and compiles it with ``exec``: six compiles a
  class, about 60 ms of every process's imports on CPython 3.11.  Only
  ``__init__`` (on the hot path) and the frozen ``__setattr__`` /
  ``__delattr__`` (``dataclasses`` refuses a frozen class body that defines
  them) are still generated.  The other three are built here from the field
  list: equal under ``==`` of the compared fields' tuples and
  ``NotImplemented`` for another class, the hash of that same tuple (a
  1-tuple for one field), and the same ``repr`` string behind
  :func:`reprlib.recursive_repr`.  A method the class body defines is kept,
  and a body with ``__eq__`` but no ``__hash__`` still gets a hash, as in
  ``dataclasses``' own hash-action table for a frozen class with ``eq``.
"""

from __future__ import annotations

import dataclasses
import reprlib
from operator import attrgetter


def frozen_value(cls=None, /, *, kw_only=False, weakref_slot=False):
    """``@dataclass(frozen=True, slots=True, kw_only=…, weakref_slot=…)``
    whose methods refer to the class they are on, and whose ``__eq__``,
    ``__hash__`` and ``__repr__`` are not compiled (module docstring)."""

    def wrap(cls):
        slotted = dataclasses.dataclass(
            cls, repr=False, eq=False, frozen=True, kw_only=kw_only, slots=True,
            weakref_slot=weakref_slot,
        )
        for attribute in vars(slotted).values():
            for cell in getattr(attribute, "__closure__", None) or ():
                try:
                    held = cell.cell_contents
                except ValueError:  # empty: a method of a class declared in a
                    continue  # function names the class before it is bound
                if held is cls:
                    cell.cell_contents = slotted
        _add_value_methods(slotted)
        return slotted

    return wrap if cls is None else wrap(cls)


def _field_tuple(names):
    """``self -> the tuple of its named fields``, as ``dataclasses`` builds it."""
    if not names:
        return lambda self: ()
    if len(names) == 1:
        get = attrgetter(names[0])
        return lambda self: (get(self),)
    return attrgetter(*names)


def _add_value_methods(cls):
    """Install ``__eq__``, ``__hash__`` and ``__repr__`` on a frozen dataclass
    built with ``eq=False, repr=False``, by the rules of ``eq=True, repr=True``."""
    fields = dataclasses.fields(cls)
    compared = _field_tuple([f.name for f in fields if f.compare])
    hashed = _field_tuple([f.name for f in fields if (f.compare if f.hash is None else f.hash)])
    shown = [f.name for f in fields if f.repr]

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return compared(self) == compared(other)
        return NotImplemented

    def __hash__(self):
        return hash(hashed(self))

    @reprlib.recursive_repr()
    def __repr__(self):
        shown_fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in shown])
        return f"{self.__class__.__qualname__}({shown_fields})"

    body = vars(cls)
    methods = [method for method in (__eq__, __repr__) if method.__name__ not in body]
    # ``dataclasses``' test for an explicit hash: a body's own ``__eq__``
    # without a ``__hash__`` leaves ``__hash__ = None`` in it, which is not one.
    class_hash = body.get("__hash__", dataclasses.MISSING)
    if class_hash is dataclasses.MISSING or (class_hash is None and "__eq__" in body):
        methods.append(__hash__)
    for method in methods:
        method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
        setattr(cls, method.__name__, method)
    cls.__dataclass_params__.eq = cls.__dataclass_params__.repr = True
