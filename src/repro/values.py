"""The decorator of every frozen value type in :mod:`repro`.

``dataclass(frozen=True, slots=True)`` builds the class, then replaces it with
a slotted copy.  The ``__setattr__`` / ``__delattr__`` it generated for the
first class keep that class in a closure cell (``type(self) is cls``), so the
discarded class stays alive next to its copy, and assigning a non-field
attribute to an instance fails inside ``super(cls, self)`` with a
``TypeError`` instead of raising :class:`dataclasses.FrozenInstanceError`.
:func:`frozen_value` builds the same slotted class and points every closure
cell of its methods that holds the discarded class at the slotted one.
"""

from __future__ import annotations

import dataclasses


def frozen_value(cls=None, /, **options):
    """``@dataclass(frozen=True, slots=True, **options)`` whose generated
    methods refer to the class they are on."""

    def wrap(cls):
        slotted = dataclasses.dataclass(cls, frozen=True, slots=True, **options)
        for attribute in vars(slotted).values():
            for cell in getattr(attribute, "__closure__", None) or ():
                if cell.cell_contents is cls:
                    cell.cell_contents = slotted
        return slotted

    return wrap if cls is None else wrap(cls)
