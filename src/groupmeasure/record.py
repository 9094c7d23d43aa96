"""Immutable value records, the base of every result and parameter type in the package, and its RNG contract.

A subclass names its fields in ``__slots__``.  ``Record.__init__`` stores one
value per field, in slot order, given by position or by field name, and refuses
any other count or an unknown name; a subclass that checks its fields does so in
its own ``__init__`` and then calls it.  ``Record``
compares, hashes, orders and prints instances by those fields, in slot order,
and refuses any later assignment or deletion.

Every seeded draw in the package, a spin chain's trial and a density's sample,
reads ``uniform_stream(seed)``: the uniform draws of ``random.Random(seed)``.
"""

from __future__ import annotations

import _random
from collections.abc import Callable
from operator import attrgetter, index


class Record:
    """Value semantics read from ``__slots__``; instances of different classes never compare equal."""

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        # The field values as one tuple (one bare value for a one-field record), read at C speed.
        cls._values = attrgetter(*cls.__slots__)

    def __init__(self, *values: object, **named: object) -> None:
        slots = self.__slots__
        if named:  # the fields after the positional ones, in slot order; skipped, for speed, when there are none
            for name in named.keys() - slots[len(values):]:
                verb = "got field {!r} twice" if name in slots else "has no field {!r}"
                raise TypeError(f"{self.__class__.__name__} " + verb.format(name))
            values += tuple(named[name] for name in slots[len(values):] if name in named)
        if len(values) != len(slots):
            raise TypeError(f"{self.__class__.__name__} takes {len(slots)} fields, got {len(values)}")
        for name, value in zip(slots, values):
            object.__setattr__(self, name, value)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == self._values(other)

    def __lt__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) < self._values(other)

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of an immutable {self.__class__.__name__}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of an immutable {self.__class__.__name__}")


def uniform_stream(seed: int) -> Callable[[], float]:
    """The ``random()`` of ``_random.Random(seed)``, the C Mersenne Twister under ``random.Random``.

    ``random.Random.seed`` hands an int seed unchanged to this C class, so the draws are those
    of ``random.Random(seed)`` bit for bit, without the Python wrappers' cost.  The seed must be
    an int: ``random.Random`` seeds a str or bytes from its SHA-512, which the C class does not,
    so any other type is a TypeError.
    """
    return _random.Random(index(seed)).random
